"""End-to-end benchmark of the incremental interactive-loop core.

Runs the full Figure 2 loop (strategy proposal, neighbourhood zooms,
path validation, propagation, learning, halt check) on the
``scale-free-medium`` dataset twice:

* the **pre-index path** — the seed implementations reproduced verbatim
  below: per-node ``words_from`` enumeration and tuple-set unions for
  every classification, covered-word computation and path selection, and
  the per-negative ``engine.selects`` compatibility predicate for every
  RPNI merge attempt;
* the **current path** — :class:`InteractiveSession`, whose loop runs on
  the shared :class:`~repro.learning.language_index.LanguageIndex`
  bitsets, the incremental
  :class:`~repro.learning.informativeness.SessionClassifier` and the
  :class:`~repro.learning.language_index.CompatibilityOracle`.

Acceptance targets of the language-index PR, asserted here:

* both paths perform the **identical** interaction sequence and learn
  the same query (the index is an optimisation, not a semantics change);
* end-to-end interaction latency improves by **>= 5x**;
* across a full session replay, the incremental classifier is
  **bit-identical** to the from-scratch classification after every
  single example.
"""

import time

from repro.automata.prefix_tree import build_path_prefix_tree
from repro.exceptions import InconsistentExamplesError, NoConsistentPathError
from repro.graph.datasets import dataset_catalog
from repro.graph.neighborhood import eccentricity_bound, extract_neighborhood
from repro.graph.paths import words_from
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.interactive.halt import AnyOf, HaltContext, MaxInteractions, UserSatisfied
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import NodeStatus, SessionClassifier
from repro.learning.learner import PathQueryLearner
from repro.learning.path_selection import _endpoints_of
from repro.query.engine import QueryEngine
from repro.serving.workspace import GraphWorkspace

from conftest import write_artifact

DATASET = "scale-free-medium"
GOAL = "a* . b . c*"
MAX_PATH_LENGTH = 5
MAX_INTERACTIONS = 40
TRIALS = 3

#: acceptance floor for the end-to-end interaction-latency improvement
SPEEDUP_FLOOR = 5.0


# ----------------------------------------------------------------------
# The seed (pre-index) implementations, reproduced verbatim
# ----------------------------------------------------------------------
def _seed_covered_words(graph, negatives, max_length):
    """Pre-index `covered_words`: tuple-set union, silent skip included."""
    covered = set()
    for node in negatives:
        if node in graph:
            covered |= words_from(graph, node, max_length)
    return covered


def _seed_classify_all(graph, examples, max_length):
    """Pre-index `classify_all`: per-node word enumeration per call."""
    banned = _seed_covered_words(graph, examples.negative_nodes, max_length)
    validated = set(examples.validated_words().values())
    labeled_nodes = examples.labeled_nodes
    statuses = {}
    for node in graph.nodes():
        labeled = node in labeled_nodes
        own_words = words_from(graph, node, max_length)
        uncovered = [word for word in own_words if word not in banned]
        implied_positive = not labeled and any(word in validated for word in own_words)
        implied_negative = not labeled and not implied_positive and not uncovered
        shortest = min((len(word) for word in uncovered), default=None)
        statuses[node] = NodeStatus(
            node=node,
            labeled=labeled,
            implied_positive=implied_positive,
            implied_negative=implied_negative,
            uncovered_word_count=len(uncovered),
            shortest_uncovered_length=shortest,
        )
    return statuses


def _seed_informative(graph, examples, max_length):
    statuses = _seed_classify_all(graph, examples, max_length)
    ranked = [status for status in statuses.values() if status.informative]
    ranked.sort(key=lambda status: (status.score, str(status.node)), reverse=False)
    ranked.sort(key=lambda status: status.score, reverse=True)
    return [status.node for status in ranked]


def _seed_propagate_to_fixpoint(graph, examples, max_length, max_rounds=10):
    for _ in range(max_rounds):
        statuses = _seed_classify_all(graph, examples, max_length)
        added = 0
        for node, status in statuses.items():
            if status.labeled:
                continue
            if status.implied_positive:
                examples.add_positive(node, propagated=True)
                added += 1
            elif status.implied_negative:
                examples.add_negative(node, propagated=True)
                added += 1
        if not added:
            break


def _seed_consistent_words_for(graph, node, negatives, max_length):
    negative_nodes = [item for item in negatives if item in graph]
    banned = _seed_covered_words(graph, negative_nodes, max_length)
    own_words = words_from(graph, node, max_length)
    candidates = sorted(
        (word for word in own_words if word not in banned),
        key=lambda word: (len(word), word),
    )
    if not candidates and not negative_nodes:
        candidates = [()]
    return candidates


def _seed_select_path(graph, node, negatives, max_length, preferred_length=None):
    candidates = _seed_consistent_words_for(graph, node, negatives, max_length)
    if not candidates:
        raise NoConsistentPathError(node, max_length)
    if preferred_length is not None:
        preferred = [word for word in candidates if len(word) == preferred_length]
        if preferred:
            return preferred[0]
    return candidates[0]


def _seed_candidate_prefix_tree(graph, node, negatives, max_length, preferred_length=None):
    uncovered = _seed_consistent_words_for(graph, node, negatives, max_length)
    endpoints = {}
    for word in uncovered:
        for cut in range(1, len(word) + 1):
            prefix = word[:cut]
            if prefix not in endpoints:
                endpoints[prefix] = _endpoints_of(graph, node, prefix)
    highlight = None
    if uncovered:
        if preferred_length is not None:
            preferred = [word for word in uncovered if len(word) == preferred_length]
            highlight = preferred[0] if preferred else uncovered[0]
        else:
            highlight = uncovered[0]
    return build_path_prefix_tree(endpoints, node, highlight=highlight)


class _SeedLearner(PathQueryLearner):
    """The learner with the pre-index step (i) and compatibility predicate."""

    def _compatible(self, negatives):
        graph = self.graph
        selects = self.engine.selects
        negatives = sorted(negatives.negatives, key=str)

        def check(candidate):
            dfa = candidate.to_dfa()
            return not any(selects(graph, dfa, node) for node in negatives)

        return check

    def select_sample_words(self, examples, negatives):
        chosen = {}
        negatives = examples.negative_nodes
        for node in sorted(examples.positive_nodes, key=str):
            validated = examples.validated_word(node)
            if validated is not None:
                chosen[node] = validated
                continue
            try:
                chosen[node] = _seed_select_path(
                    self.graph, node, negatives, self.max_path_length
                )
            except NoConsistentPathError as error:
                raise InconsistentExamplesError(
                    f"positive node {node!r} has no uncovered path", conflicting=[node]
                ) from error
        return chosen


def _run_legacy_session(graph, goal, *, engine=None):
    """The Figure 2 loop wired through the seed implementations only."""
    engine = engine or QueryEngine()
    user = SimulatedUser(graph, goal, engine=engine)
    examples = ExampleSet()
    halt = AnyOf([UserSatisfied(user.goal_answer), MaxInteractions(MAX_INTERACTIONS)])
    hypothesis = None
    trace = []
    halted_by = "exhausted"
    initial_radius, max_radius = 2, 6

    while True:
        ranked = _seed_informative(graph, examples, MAX_PATH_LENGTH)
        if not ranked:
            halted_by = "no-informative-node"
            break
        context = HaltContext(
            graph=graph,
            examples=examples,
            hypothesis=hypothesis,
            interactions=len(trace),
            informative_remaining=len(ranked),
            engine=engine,
        )
        if halt.satisfied(context):
            halted_by = halt.name
            break
        node = ranked[0]

        # neighbourhood presentation (identical on both paths)
        radius_cap = min(max_radius, max(initial_radius, eccentricity_bound(graph, node)))
        radius = min(initial_radius, radius_cap)
        neighborhood = extract_neighborhood(graph, node, radius)
        while radius < radius_cap and user.wants_zoom(node, neighborhood):
            radius += 1
            neighborhood = extract_neighborhood(graph, node, radius)

        positive = user.label(node)
        validated_word = None
        if positive:
            for bound in (neighborhood.radius, MAX_PATH_LENGTH):
                tree = _seed_candidate_prefix_tree(
                    graph,
                    node,
                    examples.negative_nodes,
                    bound,
                    preferred_length=neighborhood.radius,
                )
                choice = user.validate_path(node, tree)
                if choice is not None:
                    validated_word = choice
                    break
                if bound >= MAX_PATH_LENGTH:
                    break
            examples.add_positive(node, validated_word=validated_word)
        else:
            examples.add_negative(node)

        _seed_propagate_to_fixpoint(graph, examples, MAX_PATH_LENGTH)
        # a fresh learner per interaction re-learns from scratch, so the
        # current session's skipped re-learns are compared with full ones
        learner = _SeedLearner(graph, max_path_length=MAX_PATH_LENGTH, engine=engine)
        try:
            hypothesis = learner.learn(examples).query
        except InconsistentExamplesError:
            pass
        trace.append((node, "+" if positive else "-"))
    return trace, hypothesis, halted_by


def _run_current_session(graph, goal, *, engine=None):
    engine = engine or QueryEngine()
    user = SimulatedUser(graph, goal, engine=engine)
    session = InteractiveSession(
        graph,
        user,
        halt_condition=AnyOf(
            [UserSatisfied(user.goal_answer), MaxInteractions(MAX_INTERACTIONS)]
        ),
        max_path_length=MAX_PATH_LENGTH,
        workspace=GraphWorkspace(engine=engine),
    )
    result = session.run()
    return result.interaction_trace(), result.learned_query, result.halted_by


def _fresh_graph():
    # a fresh copy per run: no cached label index, no cached language
    # index, so every run pays its own full build costs
    return dataset_catalog()[DATASET].copy()


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------
def test_paths_perform_identical_sessions():
    legacy_trace, legacy_query, legacy_halt = _run_legacy_session(_fresh_graph(), GOAL)
    current_trace, current_query, current_halt = _run_current_session(_fresh_graph(), GOAL)
    assert legacy_trace == current_trace
    assert legacy_halt == current_halt
    assert (legacy_query is None) == (current_query is None)
    if legacy_query is not None:
        assert str(legacy_query) == str(current_query)
    assert len(current_trace) >= 5, "workload too small to measure the loop"


def test_incremental_classification_matches_scratch_across_replay():
    """Replay the session's full example history one example at a time.

    After *every* example the incremental classifier must be bit-identical
    (field-for-field, node-for-node) to the from-scratch classification of
    the same example set.
    """
    graph = _fresh_graph()
    user = SimulatedUser(graph, GOAL)
    session = InteractiveSession(
        graph,
        user,
        halt_condition=AnyOf(
            [UserSatisfied(user.goal_answer), MaxInteractions(MAX_INTERACTIONS)]
        ),
        max_path_length=MAX_PATH_LENGTH,
    )
    result = session.run()
    history = session.examples.history
    assert result.interactions >= 5 and len(history) >= result.interactions

    replay = ExampleSet()
    classifier = SessionClassifier(graph, replay, max_length=MAX_PATH_LENGTH)
    for example in history:
        if example.positive:
            replay.add_positive(
                example.node,
                validated_word=example.validated_word,
                propagated=example.propagated,
            )
        else:
            replay.add_negative(example.node, propagated=example.propagated)
        incremental = classifier.statuses()
        scratch = _seed_classify_all(graph, replay, MAX_PATH_LENGTH)
        assert incremental == scratch


# ----------------------------------------------------------------------
# the 5x gate
# ----------------------------------------------------------------------
def test_session_loop_speedup(results_dir):
    legacy_seconds = current_seconds = float("inf")
    legacy_outcome = current_outcome = None

    # best-of-N on both sides: a scheduler stall on a shared CI runner
    # inflates one trial, not the minimum
    for _ in range(TRIALS):
        graph = _fresh_graph()
        started = time.perf_counter()
        legacy_outcome = _run_legacy_session(graph, GOAL)
        legacy_seconds = min(legacy_seconds, time.perf_counter() - started)
    for _ in range(TRIALS):
        graph = _fresh_graph()
        started = time.perf_counter()
        current_outcome = _run_current_session(graph, GOAL)
        current_seconds = min(current_seconds, time.perf_counter() - started)

    assert legacy_outcome[0] == current_outcome[0]
    interactions = len(current_outcome[0])
    speedup = legacy_seconds / current_seconds
    write_artifact(
        results_dir,
        "session_loop_speedup.txt",
        f"dataset={DATASET} goal={GOAL!r} interactions={interactions} "
        f"legacy={legacy_seconds * 1000:.1f}ms current={current_seconds * 1000:.1f}ms "
        f"per_interaction_legacy={legacy_seconds / interactions * 1000:.2f}ms "
        f"per_interaction_current={current_seconds / interactions * 1000:.2f}ms "
        f"speedup={speedup:.1f}x",
    )
    assert speedup >= SPEEDUP_FLOOR, f"session loop only {speedup:.1f}x faster than seed"


# ----------------------------------------------------------------------
# pytest-benchmark timings (recorded in BENCH_session.json)
# ----------------------------------------------------------------------
def test_session_loop_current(benchmark):
    def run():
        return _run_current_session(_fresh_graph(), GOAL)

    trace, _, _ = benchmark.pedantic(run, rounds=3)
    assert len(trace) >= 5


def test_session_loop_legacy_reference(benchmark):
    def run():
        return _run_legacy_session(_fresh_graph(), GOAL)

    trace, _, _ = benchmark.pedantic(run, rounds=1)
    assert len(trace) >= 5
