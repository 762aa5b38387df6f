"""The four closed-loop workloads of the perf benchmark.

Every workload is a closed loop driven from one process and one thread:
a simulated user answers each question at once, and the next question
is asked only after that answer.  A workload has three steps:

* ``setup(seed)`` builds the inputs — graphs, goal queries, the churn
  stream — from the workload seed; every generator seed is derived from
  it, so the same seed gives the same inputs.  The graphs it builds are
  the simulated users' own: the system never sees them;
* ``prepare(inputs)`` builds the state one pass starts from: fresh
  copies of the graphs for the system (graph-owned caches such as the
  label index start cold in every pass) and fresh workspaces, warmed
  where the workload says the system is warm;
* ``run_pass(inputs, state, rec)`` replays the whole input once,
  timing every measured section into ``rec``.

Each workload exists to stress different layers; the ``why`` strings
are the ones ``BENCHMARK.json`` carries.
"""

from __future__ import annotations

import zlib
from itertools import zip_longest
from typing import Dict, List, Sequence, Tuple

from repro.automata.canonical import CanonicalFormCache
from repro.automata.dfa import DFA
from repro.automata.operations import intersect_dfa
from repro.graph.datasets import dataset_catalog
from repro.graph.generators import random_graph
from repro.graph.labeled_graph import GraphLabelIndex, LabeledGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine
from repro.serving import GraphWorkspace, SessionManager
from repro.workloads.churn import ChurnStream
from repro.workloads.queries import QUERY_FAMILIES, generate_workload

from measure import (
    MAX_INTERACTIONS,
    ClockedUser,
    PassRecord,
    clock,
    describe_exception,
    drive_session,
    workspace_counters,
)

#: goal families whose sessions converge in a handful of labels on random
#: graphs; the harder families make session length, and with it every
#: per-session metric, swing from seed to seed on the workloads that
#: only run a few dozen sessions.  Their words have at most 3 labels, so
#: a path bound of 3 can always specify them.
EASY_FAMILIES: Tuple[str, ...] = ("single", "concat", "disjunction", "optional")


def derive_seed(seed: int, component: str) -> int:
    """The generator seed of one input component under workload ``seed``."""
    return zlib.crc32(f"{component}/{seed}".encode("utf-8"))


def specifiable_goals(graph, goals, max_length: int) -> list:
    """The goals that select every node of their answer through a path of
    at most ``max_length`` edges.

    The learner only searches paths up to its bound.  A goal that selects
    some node only through a longer path makes a truthful user's labels
    inconsistent within that bound, so such goals are left out: every
    session of the benchmark must be able to succeed.
    """
    engine = QueryEngine()
    kept = []
    for goal in goals:
        bounded = intersect_dfa(goal.query.dfa, words_up_to(goal.query.dfa.alphabet(), max_length))
        if engine.evaluate(graph, bounded) == engine.evaluate(graph, goal.query):
            kept.append(goal)
    return kept


def words_up_to(alphabet, length: int) -> DFA:
    """The DFA of every word over ``alphabet`` with at most ``length`` symbols."""
    dfa = DFA(0)
    dfa.set_accepting(0)
    for depth in range(length):
        dfa.add_state(depth + 1)
        dfa.set_accepting(depth + 1)
        for symbol in sorted(alphabet):
            dfa.add_transition(depth, symbol, depth + 1)
    return dfa


def fresh_workspace() -> GraphWorkspace:
    """A workspace sharing nothing with the process: its own engine and
    its own canonical-form cache (the default one is process-wide)."""
    return GraphWorkspace(canonical=CanonicalFormCache())


def system_copies(cases) -> Dict[int, LabeledGraph]:
    """A fresh copy of every distinct graph of ``cases``, keyed by the
    ``id()`` of the oracle's graph it copies."""
    return {id(graph): graph.copy() for graph, _goal in cases}


class CatalogSequential:
    """Paper-scale catalogue graphs, every goal family, one warm workspace."""

    name = "catalog-sequential"
    why = (
        "paper-scale graphs, all 7 goal families, one warm workspace: learner, automata and "
        "classifier layers dominate; more distinct hypotheses than the 256-entry canonical cache"
    )
    graphs = ("figure-1", "transit-medium", "bio-medium", "scale-free-medium", "grid-medium")
    goal_seeds = 4
    per_family = 2
    max_path_length = 4

    def setup(self, seed: int):
        # the graphs are the library's fixed catalogue; the seed draws the
        # goals (graph seeds would swing the per-interaction cost by more
        # than the regressions the bounds are meant to catch)
        catalog = dataset_catalog()
        cases = []
        for name in self.graphs:
            graph = catalog[name]
            for index in range(self.goal_seeds):
                goals = generate_workload(
                    graph,
                    families=QUERY_FAMILIES,
                    per_family=self.per_family,
                    seed=derive_seed(seed, f"catalog/{name}/{index}"),
                )
                goals = specifiable_goals(graph, goals, self.max_path_length)
                cases.extend((graph, goal.query) for goal in goals)
        return cases

    def prepare(self, cases):
        copies = system_copies(cases)
        workspace = fresh_workspace()
        for graph in copies.values():
            workspace.language_index(graph, self.max_path_length)
            workspace.neighborhoods(graph)
        return copies, workspace

    def run_pass(self, cases, state, rec: PassRecord) -> None:
        copies, workspace = state
        oracle_engine = QueryEngine()
        before = workspace_counters(workspace)
        for graph, goal in cases:
            user = ClockedUser(graph, goal, oracle_engine)
            drive_session(rec, copies[id(graph)], user, workspace, max_path_length=self.max_path_length)
        rec.add_workspace_counters(workspace_counters(workspace), before)


class LargeCold:
    """Large random graphs, every session on a fresh workspace."""

    name = "large-cold"
    why = (
        "large random graphs, each session on a fresh workspace: graph-size layers dominate and "
        "every session pays the language-index and classifier build before its first question"
    )
    graph_count = 10
    node_count = 800
    alphabet = "abcd"
    max_path_length = 3

    def setup(self, seed: int):
        cases = []
        for index in range(self.graph_count):
            graph = random_graph(
                self.node_count,
                3 * self.node_count,
                self.alphabet,
                seed=derive_seed(seed, f"large-cold/{index}"),
                name=f"large-cold-{index}",
            )
            goals = generate_workload(
                graph,
                families=EASY_FAMILIES,
                per_family=1,
                seed=derive_seed(seed, f"large-cold/goals/{index}"),
            )
            cases.extend((graph, goal.query) for goal in goals)
        return cases

    def prepare(self, cases):
        return None  # nothing is warm: each session gets its own graph copy and workspace

    def run_pass(self, cases, _state, rec: PassRecord) -> None:
        oracle_engine = QueryEngine()
        for graph, goal in cases:
            user = ClockedUser(graph, goal, oracle_engine)
            # a graph copy per session, not per graph: nothing is shared
            # between sessions, not even the graph's own label index (and
            # only one copy is alive at a time, so peak RSS stays the system's)
            workspace = fresh_workspace()
            drive_session(rec, graph.copy(), user, workspace, max_path_length=self.max_path_length)
            rec.add_workspace_counters(workspace_counters(workspace))


class ChurnStreamWorkload:
    """A sliding-window edge stream; a fresh session after every tick."""

    name = "churn-stream"
    why = (
        "writes beside reads: each tick applies an edge delta and refreshes the workspace, then a "
        "fresh session runs on the new version; the only workload where the delta and refresh layers run"
    )
    node_count = 500
    alphabet = "abcd"
    window = 1500
    churn = 2
    tick_count = 100
    max_path_length = 3
    #: the last sessions whose learned queries and proposed nodes the
    #: end-state check re-evaluates against scratch rebuilds
    checked_tail = 8

    def setup(self, seed: int):
        stream = ChurnStream(
            node_count=self.node_count,
            alphabet=self.alphabet,
            window=self.window,
            churn=self.churn,
            tick_count=self.tick_count,
            seed=derive_seed(seed, "churn"),
            name="perf-churn",
        )
        goals = generate_workload(
            stream.initial_graph(),
            families=EASY_FAMILIES,
            per_family=4,
            seed=derive_seed(seed, "churn/goals"),
        )
        return stream, [goal.query for goal in goals]

    def prepare(self, inputs):
        stream, _goals = inputs
        graph = stream.initial_graph()
        workspace = fresh_workspace()
        workspace.language_index(graph, self.max_path_length)
        workspace.neighborhoods(graph)
        # the oracle's graph follows the same ticks, applied untimed
        return graph, stream.initial_graph(), workspace

    def run_pass(self, inputs, state, rec: PassRecord) -> None:
        stream, goals = inputs
        graph, oracle_graph, workspace = state
        oracle_engine = QueryEngine()
        before = workspace_counters(workspace)
        recent: List[Tuple[object, Sequence]] = []
        for tick in stream.ticks():
            tick.apply(oracle_graph)
            user = ClockedUser(oracle_graph, goals[tick.tick % len(goals)], oracle_engine)
            rec.attempted += 1
            try:
                with rec.section() as seconds:
                    tick_start = clock()
                    tick.apply(graph)
                    counters = workspace.refresh(graph)
            except Exception:  # a failing tick is counted, the stream goes on
                rec.failures.append(f"tick {tick.tick} raised: {describe_exception()}")
                continue
            rec.ticks.append(seconds[0])
            rec.counters.update({f"refresh.{key}": value for key, value in counters.items()})
            # the first question is timed from the write: it is the
            # write-to-next-question latency, refresh included
            session = drive_session(
                rec,
                graph,
                user,
                workspace,
                max_path_length=self.max_path_length,
                since=tick_start,
            )
            if session is not None:
                recent = (recent + [(session.hypothesis, session.records)])[-self.checked_tail :]
        rec.add_workspace_counters(workspace_counters(workspace), before)
        if rec.checked:
            rec.attempted += 1
            problems = churn_state_problems(graph, workspace, goals, recent, self.max_path_length)
            if problems:
                rec.failures.append("end state differs from a scratch rebuild: " + "; ".join(problems))


def churn_state_problems(graph, workspace, goals, recent, max_length: int) -> List[str]:
    """Differences between the delta-maintained state and scratch rebuilds.

    The same checks as ``bench_churn._assert_matches_scratch``: language
    index, label index, engine answers (goals and recently learned
    queries, which the refreshes may have retained) and the neighbourhood
    balls of recently proposed nodes.
    """
    problems = []
    maintained = workspace.language_index(graph, max_length)
    scratch = LanguageIndex(graph, max_length)
    if maintained.version != graph.version:
        problems.append("language index is stale")
    for node in scratch.nodes:
        if maintained.decode(maintained.language(node)) != scratch.decode(scratch.language(node)):
            problems.append(f"language of {node!r}")
            break
    label_index = graph.label_index()
    fresh_label_index = GraphLabelIndex(graph)
    labels = sorted(label_index.labels() | fresh_label_index.labels())
    if label_index.nodes != fresh_label_index.nodes or any(
        label_index.reverse_csr(label) != fresh_label_index.reverse_csr(label) for label in labels
    ):
        problems.append("label index")
    queries = list(goals) + [query for query, _records in recent if query is not None]
    cold = QueryEngine()
    for query in queries:
        if workspace.engine.evaluate(graph, query) != cold.evaluate(graph, query):
            problems.append(f"answer of {query}")
    neighborhoods = workspace.neighborhoods(graph)
    fresh_neighborhoods = NeighborhoodIndex(graph)
    centers = sorted({record.node for _query, records in recent for record in records}, key=str)
    for center in centers:
        kept = neighborhoods.neighborhood(center, 2)
        fresh = fresh_neighborhoods.neighborhood(center, 2)
        if kept.nodes != fresh.nodes or kept.distances != fresh.distances:
            problems.append(f"neighbourhood of {center!r}")
    return problems


class ServingFleet:
    """A burst of users admitted together to one SessionManager."""

    name = "serving-fleet"
    why = (
        "64 users admitted at once to one SessionManager on one cold workspace, 16 of them "
        "duplicates: exercises scheduling, dedup, the result memo and build-once sharing"
    )
    graph_count = 2
    node_count = 700
    alphabet = "abcde"
    goals_per_graph = 24
    duplicates = 16
    max_path_length = 3

    def setup(self, seed: int):
        distinct = []
        for index in range(self.graph_count):
            graph = random_graph(
                self.node_count,
                3 * self.node_count,
                self.alphabet,
                seed=derive_seed(seed, f"fleet/{index}"),
                name=f"fleet-{index}",
            )
            goals = generate_workload(
                graph,
                families=EASY_FAMILIES,
                per_family=self.goals_per_graph,
                seed=derive_seed(seed, f"fleet/goals/{index}"),
            )
            by_family: Dict[str, list] = {}
            for goal in goals:
                by_family.setdefault(goal.family, []).append(goal)
            # one goal of each family in turn, so every family is represented
            mixed = [goal for rank in zip_longest(*by_family.values()) for goal in rank if goal is not None]
            if len(mixed) < self.goals_per_graph:
                raise ValueError(f"only {len(mixed)} distinct goals on {graph.name}")
            distinct.extend((graph, goal.query) for goal in mixed[: self.goals_per_graph])
        # the duplicates are admitted after their originals, so each one
        # finds its representative in flight and follows it
        return distinct + distinct[: self.duplicates], len(distinct)

    def prepare(self, inputs):
        cases, _distinct = inputs
        # the burst starts on cold graphs and a cold workspace (build-once under load)
        return system_copies(cases), fresh_workspace()

    def run_pass(self, inputs, state, rec: PassRecord) -> None:
        cases, distinct = inputs
        copies, workspace = state
        manager = SessionManager(workspace)
        oracle_engine = QueryEngine()
        users = [ClockedUser(graph, goal, oracle_engine) for graph, goal in cases]
        admitted: Dict[str, float] = {}
        session_ids: List[str] = []
        rec.attempted += len(cases)
        try:
            with rec.section():
                for (graph, _goal), user in zip(cases, users):
                    clock.sample()  # admissions build indexes: keep the speed current
                    admitted_at = clock()
                    session_id = manager.admit(
                        copies[id(graph)],
                        user,
                        max_path_length=self.max_path_length,
                        max_interactions=MAX_INTERACTIONS,
                    )
                    admitted[session_id] = admitted_at
                    session_ids.append(session_id)
                driving_start = clock()
                results = manager.run_all()
                rec.driving_seconds += clock() - driving_start
        except Exception:  # the burst is one unit: every session in it fails
            rec.failures.extend([f"burst raised: {describe_exception()}"] * len(cases))
            return
        for session_id, (graph, _goal), user in zip(session_ids, cases, users):
            result = results[session_id]
            if not result.deduped:
                rec.first_question(user, admitted[session_id])
            rec.record_session(copies[id(graph)], user, manager.session(session_id).examples, result)
        for follower in range(distinct, len(cases)):
            original = follower - distinct
            if rec.outcomes[follower][:2] != rec.outcomes[original][:2]:
                rec.failures.append(
                    f"dedup follower {session_ids[follower]} diverged from {session_ids[original]}"
                )
        stats = manager.stats()
        rec.counters.update({"manager.admitted": stats["admitted"], "manager.deduped": stats["deduped"]})
        rec.add_workspace_counters(workspace_counters(workspace))


WORKLOADS = {
    workload.name: workload
    for workload in (CatalogSequential(), LargeCold(), ChurnStreamWorkload(), ServingFleet())
}
