"""The three demonstration scenarios of Section 3.

* **Static labelling** — the user wanders through the whole graph and
  labels whatever nodes she likes, in her own order; the system only
  checks consistency at the end and proposes a consistent query (or
  reports the labels inconsistent).  Simulated here by labelling nodes in
  a random order with no pruning, which is the work an unassisted user
  would have to do.
* **Interactive labelling without path validation** — the Figure 2 loop,
  but the learner picks the path of each positive node itself; the result
  is guaranteed consistent but not necessarily the goal query (the paper's
  ``bus`` counter-example).
* **Interactive labelling with path validation** — the full GPS loop, the
  core of the system.

Each scenario is a function returning a :class:`ScenarioReport` with the
learned query, the number of user interactions, and quality metrics
against the goal query, so the experiment harness can compare them on the
same (graph, goal) pairs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.exceptions import InconsistentExamplesError
from repro.graph.labeled_graph import LabeledGraph
from repro.interactive.halt import AnyOf, MaxInteractions, UserSatisfied
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.interactive.strategies import Strategy
from repro.learning.examples import ExampleSet
from repro.learning.learner import DEFAULT_MAX_PATH_LENGTH, PathQueryLearner
from repro.query.evaluation import selection_metrics
from repro.query.rpq import PathQuery
from repro.regex.ast import Regex

QueryLike = Union[str, Regex, PathQuery]


@dataclass
class ScenarioReport:
    """Comparable outcome of one scenario run."""

    scenario: str
    learned_query: Optional[PathQuery]
    interactions: int
    zooms: int
    exact_goal: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    halted_by: str = ""
    inconsistent: bool = False
    wall_time: float = 0.0
    #: system compute time of each interaction, in order — the paper's
    #: "time-efficient between interactions" quantity; the experiment
    #: harness aggregates these into latency percentiles
    interaction_latencies: List[float] = field(default_factory=list)

    def summary_row(self) -> Dict[str, object]:
        """Flat dictionary for tabular experiment output."""
        return {
            "scenario": self.scenario,
            "interactions": self.interactions,
            "zooms": self.zooms,
            "exact_goal": self.exact_goal,
            "instance_f1": round(self.metrics.get("f1", 0.0), 3),
            "learned": str(self.learned_query) if self.learned_query else "(none)",
            "halted_by": self.halted_by,
            "inconsistent": self.inconsistent,
        }


def _finalize(
    scenario: str,
    graph: LabeledGraph,
    goal: PathQuery,
    learned: Optional[PathQuery],
    interactions: int,
    zooms: int,
    halted_by: str,
    inconsistent: bool,
    wall_time: float,
    interaction_latencies: Optional[List[float]] = None,
) -> ScenarioReport:
    if learned is None:
        metrics = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        exact = False
    else:
        metrics = selection_metrics(graph, learned, goal)
        exact = learned.same_language(goal)
    return ScenarioReport(
        scenario=scenario,
        learned_query=learned,
        interactions=interactions,
        zooms=zooms,
        exact_goal=exact,
        metrics=metrics,
        halted_by=halted_by,
        inconsistent=inconsistent,
        wall_time=wall_time,
        interaction_latencies=list(interaction_latencies or []),
    )


def run_static_labeling(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    label_budget: Optional[int] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    seed: Optional[int] = None,
    workspace=None,
) -> ScenarioReport:
    """Scenario 1: the user labels nodes in her own (random) order.

    The simulated user stops once the consistent query learned from her
    labels returns exactly her intended answer — but since nothing guides
    her node choice or prunes uninformative nodes, she typically needs to
    label a large fraction of the graph to get there.

    ``workspace`` is the :class:`~repro.serving.workspace.GraphWorkspace`
    to draw shared components from (the process default when omitted).
    """
    started = time.perf_counter()
    goal_query = goal if isinstance(goal, PathQuery) else PathQuery(goal)
    user = SimulatedUser(graph, goal_query, workspace=workspace)
    rng = random.Random(seed)
    order = sorted(graph.nodes(), key=str)
    rng.shuffle(order)
    budget = label_budget if label_budget is not None else len(order)

    examples = ExampleSet()
    learner = PathQueryLearner(graph, max_path_length=max_path_length, workspace=workspace)
    learned: Optional[PathQuery] = None
    interactions = 0
    inconsistent = False
    halted_by = "exhausted"
    latencies: List[float] = []
    for node in order[:budget]:
        interaction_started = time.perf_counter()
        positive = user.label(node)
        if positive:
            examples.add_positive(node)
        else:
            examples.add_negative(node)
        interactions += 1
        try:
            learned = learner.learn(examples).query
        except InconsistentExamplesError:
            inconsistent = True
            latencies.append(time.perf_counter() - interaction_started)
            continue
        satisfied = user.satisfied_with(learned)
        latencies.append(time.perf_counter() - interaction_started)
        if satisfied:
            halted_by = "user-satisfied"
            break
    return _finalize(
        "static",
        graph,
        goal_query,
        learned,
        interactions,
        zooms=0,
        halted_by=halted_by,
        inconsistent=inconsistent,
        wall_time=time.perf_counter() - started,
        interaction_latencies=latencies,
    )


def _run_interactive(
    scenario: str,
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    path_validation: bool,
    strategy: Optional[Strategy] = None,
    max_interactions: Optional[int] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    workspace=None,
) -> ScenarioReport:
    started = time.perf_counter()
    goal_query = goal if isinstance(goal, PathQuery) else PathQuery(goal)
    user = SimulatedUser(graph, goal_query, workspace=workspace)
    conditions = [UserSatisfied(user.goal_answer)]
    if max_interactions is not None:
        conditions.append(MaxInteractions(max_interactions))
    halt = AnyOf(conditions)
    session = InteractiveSession(
        graph,
        user,
        strategy=strategy,
        halt_condition=halt,
        path_validation=path_validation,
        max_path_length=max_path_length,
        workspace=workspace,
    )
    result = session.run()
    return _finalize(
        scenario,
        graph,
        goal_query,
        result.learned_query,
        result.interactions,
        zooms=result.total_zooms,
        halted_by=result.halted_by,
        inconsistent=result.inconsistent,
        wall_time=time.perf_counter() - started,
        interaction_latencies=[record.duration_seconds for record in result.records],
    )


def run_interactive_without_validation(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    strategy: Optional[Strategy] = None,
    max_interactions: Optional[int] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    workspace=None,
) -> ScenarioReport:
    """Scenario 2: interactive labelling, the system picks paths itself."""
    return _run_interactive(
        "interactive",
        graph,
        goal,
        path_validation=False,
        strategy=strategy,
        max_interactions=max_interactions,
        max_path_length=max_path_length,
        workspace=workspace,
    )


def run_interactive_with_validation(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    strategy: Optional[Strategy] = None,
    max_interactions: Optional[int] = None,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    workspace=None,
) -> ScenarioReport:
    """Scenario 3: the full GPS loop with path validation (the core system)."""
    return _run_interactive(
        "interactive+validation",
        graph,
        goal,
        path_validation=True,
        strategy=strategy,
        max_interactions=max_interactions,
        max_path_length=max_path_length,
        workspace=workspace,
    )


def run_all_scenarios(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    seed: Optional[int] = None,
    max_interactions: Optional[int] = None,
    workspace=None,
) -> Dict[str, ScenarioReport]:
    """Run the three demonstration scenarios on the same (graph, goal) pair."""
    return {
        "static": run_static_labeling(
            graph,
            goal,
            max_path_length=max_path_length,
            seed=seed,
            label_budget=max_interactions,
            workspace=workspace,
        ),
        "interactive": run_interactive_without_validation(
            graph,
            goal,
            max_path_length=max_path_length,
            max_interactions=max_interactions,
            workspace=workspace,
        ),
        "interactive+validation": run_interactive_with_validation(
            graph,
            goal,
            max_path_length=max_path_length,
            max_interactions=max_interactions,
            workspace=workspace,
        ),
    }
