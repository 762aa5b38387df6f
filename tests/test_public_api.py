"""Tests for the top-level public API surface."""

import argparse
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro import (
    ExampleSet,
    GraphWorkspace,
    InteractiveSession,
    LabeledGraph,
    PathQuery,
    PathQueryLearner,
    QueryEngine,
    SessionManager,
    SimulatedUser,
    learn_query,
)
from repro.automata.canonical import CanonicalFormCache
from repro.cli import build_parser
from repro.devtools import LintConfig, lint_paths, lint_source
from repro.experiments import ExperimentRunner, build_plan
from repro.interactive.oracle import UnreliableUser
from repro.interactive.strategies import STRATEGY_REGISTRY, make_strategy
from repro.learning.informativeness import SessionClassifier, classify_all, informative_nodes
from repro.learning.propagation import propagate_to_fixpoint
from repro.workloads.churn import ChurnStream

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: The supported surface, pinned: additions and removals must be deliberate.
EXPECTED_EXPORTS = {
    "LabeledGraph",
    "PathQuery",
    "QueryEngine",
    "PathQueryLearner",
    "learn_query",
    "ExampleSet",
    "InteractiveSession",
    "SessionResult",
    "SimulatedUser",
    "NoisyUser",
    "GraphWorkspace",
    "SessionManager",
    "SessionHandle",
    "default_workspace",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "SupervisionPolicy",
    "__version__",
}

#: The settable options of the interactive loop, the graph and its caches
#: and the experiment runner, pinned: every option multiplies the
#: configurations tests must cover, so adding one must be as deliberate as
#: adding an export.
EXPECTED_PARAMETERS = [
    (
        InteractiveSession,
        {
            "graph",
            "user",
            "strategy",
            "halt_condition",
            "path_validation",
            "max_path_length",
            "max_interactions",
            "workspace",
        },
    ),
    (STRATEGY_REGISTRY["random"], {"seed", "max_path_length"}),
    (STRATEGY_REGISTRY["random-informative"], {"seed", "max_path_length"}),
    (STRATEGY_REGISTRY["breadth"], {"max_path_length"}),
    (STRATEGY_REGISTRY["most-informative"], {"max_path_length"}),
    (STRATEGY_REGISTRY["degree"], {"max_path_length"}),
    (make_strategy, {"name", "seed", "max_path_length"}),
    (PathQueryLearner, {"graph", "max_path_length", "generalize", "engine", "workspace"}),
    (propagate_to_fixpoint, {"graph", "examples", "max_length", "classifier"}),
    (SessionClassifier, {"graph", "examples", "max_length", "index_provider"}),
    (classify_all, {"graph", "examples", "max_length", "classifier"}),
    (informative_nodes, {"graph", "examples", "max_length", "classifier"}),
    (SessionManager, {"workspace", "dedup", "max_concurrent", "supervision", "injector"}),
    (UnreliableUser, {"inner", "injector"}),
    (
        ExperimentRunner,
        {
            "suite",
            "experiments",
            "datasets",
            "seed",
            "per_family",
            "e1_strategies",
            "e3_node_counts",
            "e5_sample_sizes",
            "churn_node_counts",
            "workers",
            "store",
            "retry_policy",
            "fault_plan",
        },
    ),
    (
        build_plan,
        {
            "suite",
            "experiments",
            "datasets",
            "seed",
            "per_family",
            "e1_strategies",
            "e3_node_counts",
            "e5_sample_sizes",
            "churn_node_counts",
        },
    ),
    (LabeledGraph, {"name", "journal_limit"}),
    (ChurnStream.initial_graph, {"self", "journal_limit"}),
    (GraphWorkspace, {"engine", "canonical", "injector"}),
    (QueryEngine, set()),
    (CanonicalFormCache, set()),
    (LintConfig, {"select", "allow"}),
    (lint_paths, {"paths", "config", "root"}),
    (lint_source, {"source", "path", "config"}),
]

#: the options of ``repro lint`` (the positional ``paths`` aside)
EXPECTED_LINT_OPTIONS = {"--format", "--select", "--output", "--include-tests"}


def toml_table(text, name):
    """The stripped lines of the ``[name]`` table of a TOML document."""
    lines = []
    inside = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            inside = stripped == f"[{name}]"
        elif inside and stripped:
            lines.append(stripped)
    return lines


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_version_has_one_source(self):
        text = PYPROJECT.read_text(encoding="utf-8")
        project = toml_table(text, "project")
        assert not any(re.match(r"version\s*=", line) for line in project), (
            "pyproject.toml declares a static version; repro.__version__ is the only source"
        )
        assert 'dynamic = ["version"]' in project
        dynamic = toml_table(text, "tool.setuptools.dynamic")
        assert 'version = {attr = "repro.__version__"}' in dynamic

    def test_all_is_exactly_the_supported_surface(self):
        assert set(repro.__all__) == EXPECTED_EXPORTS

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_serving_core_exported(self):
        workspace = GraphWorkspace()
        manager = SessionManager(workspace)
        assert manager.workspace is workspace

    def test_reliability_primitives_exported(self):
        plan = repro.FaultPlan(7, default_rate=0.5)
        injector = repro.FaultInjector(plan)
        assert [injector.fires("site") for _ in range(8)] == list(plan.schedule("site", 8))
        assert repro.RetryPolicy().max_attempts >= 1
        assert repro.SupervisionPolicy().breaker() is not repro.SupervisionPolicy().breaker()

    def test_quickstart_snippet_from_docstring(self):
        """The snippet in the package docstring must actually work."""
        from repro.graph.datasets import motivating_example

        graph = motivating_example()
        user = SimulatedUser(graph, "(tram + bus)* . cinema")
        session = InteractiveSession(graph, user)
        result = session.run()
        assert result.learned_query is not None
        engine = repro.default_workspace().engine
        assert engine.evaluate(graph, result.learned_query) == {"N1", "N2", "N4", "N6"}

    def test_minimal_manual_usage(self):
        graph = LabeledGraph("mine")
        graph.add_edge("home", "bus", "work")
        graph.add_edge("work", "cafe", "espresso")
        query = PathQuery("bus . cafe")
        assert repro.default_workspace().engine.evaluate(graph, query) == {"home"}

    def test_learn_query_facade(self):
        from repro.graph.datasets import motivating_example

        graph = motivating_example()
        query = learn_query(
            graph,
            positive={"N2": ("bus", "tram", "cinema"), "N6": ("cinema",)},
            negative=["N5"],
        )
        assert query.same_language("(tram + bus)* . cinema")

    def test_learner_and_examples_classes_exported(self):
        from repro.graph.datasets import motivating_example

        graph = motivating_example()
        examples = ExampleSet()
        examples.add_positive("N4")
        outcome = PathQueryLearner(graph).learn(examples)
        assert outcome.consistent


class TestSubpackageImports:
    def test_subpackage_all_lists_resolve(self):
        import repro.automata as automata
        import repro.graph as graph
        import repro.interactive as interactive
        import repro.learning as learning
        import repro.query as query
        import repro.regex as regex
        import repro.serving as serving
        import repro.workloads as workloads
        import repro.experiments as experiments

        modules = (graph, regex, automata, query, learning, interactive, workloads, experiments, serving)
        for module in modules:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestOptionSurface:
    @pytest.mark.parametrize(
        "target, expected",
        EXPECTED_PARAMETERS,
        ids=[target.__name__ for target, _ in EXPECTED_PARAMETERS],
    )
    def test_parameters_are_pinned(self, target, expected):
        assert set(inspect.signature(target).parameters) == expected

    def test_lint_cli_options_are_pinned(self):
        (subcommands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            option
            for action in subcommands.choices["lint"]._actions
            for option in action.option_strings
        }
        assert options - {"-h", "--help"} == EXPECTED_LINT_OPTIONS

    def test_every_registered_strategy_is_pinned(self):
        pinned = {target for target, _ in EXPECTED_PARAMETERS}
        assert set(STRATEGY_REGISTRY.values()) <= pinned
