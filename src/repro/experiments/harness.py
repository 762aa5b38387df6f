"""Experiment unit functions: the rows of one unit of E1–E5, churn or the Section 3 scenarios.

Each ``*_unit_rows`` function computes the rows of one self-contained
*experiment unit* — one (dataset, goal, strategy) cell of E1, one
(dataset, goal) case of E2, one graph size of E3, … — from nothing but
the unit's parameters, and returns them as a list of rows.
:class:`repro.experiments.runner.ExperimentRunner` is the only driver:
it expands a suite into units, calls these functions inline or in
worker processes, and merges the rows into tables.  Every budget a unit
runs with is written once, in the runner's ``*_DEFAULTS``.

Units that learn on a frozen graph share the process-wide
:func:`~repro.serving.workspace.default_workspace`, so units on the same
graph keep hitting warm caches; the churn unit mutates its graph and so
builds a fresh :class:`~repro.serving.workspace.GraphWorkspace`.
"""

from __future__ import annotations

import time
from statistics import mean
from typing import Dict, List, Sequence, Tuple, Union

from repro.experiments.metrics import Row, latency_summary
from repro.graph.generators import random_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.interactive.oracle import SimulatedUser
from repro.interactive.scenarios import (
    run_all_scenarios,
    run_interactive_with_validation,
    run_interactive_without_validation,
    run_static_labeling,
)
from repro.interactive.session import InteractiveSession
from repro.interactive.strategies import make_strategy
from repro.learning.informativeness import pruned_nodes
from repro.automata.state_merging import rpni
from repro.query.rpq import PathQuery
from repro.serving.workspace import GraphWorkspace, default_workspace

QueryLike = Union[str, PathQuery]


def _coerce_query(goal: QueryLike) -> PathQuery:
    return goal if isinstance(goal, PathQuery) else PathQuery(goal)


# ----------------------------------------------------------------------
# E1 — interactions to convergence, per strategy (and vs static labelling)
# ----------------------------------------------------------------------
def e1_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    family: str,
    strategy: str,
    max_interactions: int,
    max_path_length: int,
    seed: int,
) -> List[Row]:
    """One E1 cell: interactions to reach the goal answer under one strategy.

    ``strategy`` may be ``"static"`` for the static-labelling baseline or
    any name from the strategy registry.  The loop runs until the
    hypothesis returns the user's intended answer set or the budget runs
    out; the paper's claim is that informed strategies need far fewer
    interactions than static labelling.
    """
    goal_query = _coerce_query(goal)
    workspace = default_workspace()
    if strategy == "static":
        report = run_static_labeling(
            graph, goal_query, seed=seed, max_path_length=max_path_length,
            label_budget=max_interactions, workspace=workspace,
        )
    else:
        report = run_interactive_with_validation(
            graph,
            goal_query,
            strategy=make_strategy(strategy, seed=seed, max_path_length=max_path_length),
            max_interactions=max_interactions,
            max_path_length=max_path_length,
            workspace=workspace,
        )
    row: Row = {
        "dataset": dataset,
        "family": family,
        "goal": str(goal_query),
        "strategy": strategy,
        "interactions": report.interactions,
        "reached": report.metrics.get("f1", 0.0) == 1.0,
        "f1": round(report.metrics.get("f1", 0.0), 3),
    }
    # per-interaction system latency percentiles — the paper's
    # "time-efficient between interactions" requirement, tracked per cell
    # so a regression in the incremental loop shows up in CI artifacts
    row.update(latency_summary(report.interaction_latencies))
    return [row]


# ----------------------------------------------------------------------
# E2 — pruning effectiveness after each interaction
# ----------------------------------------------------------------------
def e2_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    max_interactions: int,
    max_path_length: int,
) -> List[Row]:
    """One E2 case: per-interaction pruning/propagation rows for one goal.

    After each interaction the session propagates implied labels and
    prunes uninformative nodes; the *saved fraction* is the share of the
    not-yet-user-labelled nodes whose label is already settled (either
    propagated automatically or pruned as uninformative), i.e. questions
    the user will never be asked.
    """
    goal_query = _coerce_query(goal)
    workspace = default_workspace()
    user = SimulatedUser(graph, goal_query, workspace=workspace)
    session = InteractiveSession(
        graph,
        user,
        max_path_length=max_path_length,
        max_interactions=max_interactions,
        workspace=workspace,
    )
    node_count = graph.node_count
    rows: List[Row] = []
    while not session.should_halt():
        record = session.step()
        user_labeled = len(session.examples.user_positive_nodes) + len(
            session.examples.user_negative_nodes
        )
        still_pruned = len(pruned_nodes(graph, session.examples, max_length=max_path_length))
        propagated = len(session.examples.labeled_nodes) - user_labeled
        settled = propagated + still_pruned
        remaining_pool = max(node_count - user_labeled, 1)
        rows.append(
            {
                "dataset": dataset,
                "goal": str(goal_query),
                "interaction": record.index,
                "user_labeled": user_labeled,
                "propagated": propagated,
                "saved_fraction": round(settled / remaining_pool, 3),
                "informative_remaining": record.informative_remaining,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E3 — per-interaction latency as the graph grows
# ----------------------------------------------------------------------
def e3_unit_rows(
    *,
    nodes: int,
    edge_factor: int,
    alphabet_size: int,
    max_path_length: int,
    interactions: int,
    seed: int,
) -> List[Row]:
    """One E3 cell: latency of a few interactions on one random graph size."""
    alphabet = [chr(ord("a") + index) for index in range(alphabet_size)]
    graph = random_graph(nodes, nodes * edge_factor, alphabet, seed=seed, name=f"random-{nodes}")
    workspace = default_workspace()
    goal = PathQuery(f"({alphabet[0]} + {alphabet[1]})* . {alphabet[2]}")
    if not workspace.engine.evaluate(graph, goal):
        goal = PathQuery(alphabet[0])
    user = SimulatedUser(graph, goal, workspace=workspace)
    session = InteractiveSession(
        graph,
        user,
        max_path_length=max_path_length,
        max_interactions=interactions,
        workspace=workspace,
    )
    durations: List[float] = []
    performed = 0
    while performed < interactions and not session.should_halt():
        record = session.step()
        durations.append(record.duration_seconds)
        performed += 1
    row: Row = {
        "nodes": nodes,
        "edges": graph.edge_count,
        "interactions": performed,
        "mean_seconds": round(mean(durations), 4) if durations else 0.0,
    }
    row.update(latency_summary(durations))
    return [row]


# ----------------------------------------------------------------------
# E4 — effect of path validation on learned-query quality
# ----------------------------------------------------------------------
def e4_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    family: str,
    variant: str,
    max_interactions: int,
    max_path_length: int,
) -> List[Row]:
    """One E4 cell: one (dataset, goal) case with or without path validation."""
    goal_query = _coerce_query(goal)
    workspace = default_workspace()
    if variant == "validation":
        report = run_interactive_with_validation(
            graph, goal_query, max_interactions=max_interactions,
            max_path_length=max_path_length, workspace=workspace,
        )
    elif variant == "no-validation":
        report = run_interactive_without_validation(
            graph, goal_query, max_interactions=max_interactions,
            max_path_length=max_path_length, workspace=workspace,
        )
    else:
        raise ValueError(f"unknown E4 variant {variant!r}")
    return [
        {
            "dataset": dataset,
            "family": family,
            "goal": str(goal_query),
            "variant": variant,
            "interactions": report.interactions,
            "exact_goal": report.exact_goal,
            "f1": round(report.metrics.get("f1", 0.0), 3),
            "learned": str(report.learned_query),
        }
    ]


# ----------------------------------------------------------------------
# E5 — learner core cost (PTA + state merging)
# ----------------------------------------------------------------------
def pta_state_count(positives: Sequence[Tuple[str, ...]]) -> int:
    """Number of states of the prefix tree acceptor over ``positives``.

    One state per *distinct* prefix (the empty prefix is the root), which
    accounts for prefix sharing — summing word lengths would count shared
    prefixes once per word and overstate the PTA size.
    """
    prefixes = {word[:length] for word in positives for length in range(len(word) + 1)}
    # an empty sample still has the root state
    return max(1, len(prefixes))


def e5_unit_rows(*, size: int, word_length: int, alphabet_size: int, seed: int) -> List[Row]:
    """One E5 cell: RPNI generalisation time and output size on one sample size."""
    import random as _random

    alphabet = [chr(ord("a") + index) for index in range(alphabet_size)]
    rng = _random.Random(seed)
    positives = [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(1, word_length)))
        for _ in range(size)
    ]
    negatives = []
    while len(negatives) < size:
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, word_length)))
        if word not in positives:
            negatives.append(word)
    started = time.perf_counter()
    learned = rpni(positives, negatives)
    elapsed = time.perf_counter() - started
    return [
        {
            "positive_words": size,
            "negative_words": len(negatives),
            "pta_states": pta_state_count(positives),
            "learned_states": learned.state_count(),
            "seconds": round(elapsed, 4),
            "all_positives_accepted": all(learned.accepts(word) for word in positives),
            "all_negatives_rejected": not any(learned.accepts(word) for word in negatives),
        }
    ]


# ----------------------------------------------------------------------
# Churn — warm-tick refresh latency under sliding-window streams
# ----------------------------------------------------------------------
def churn_unit_rows(
    *,
    nodes: int,
    window: int,
    churn: int,
    tick_count: int,
    alphabet_size: int,
    max_path_length: int,
    seed: int,
) -> List[Row]:
    """One churn cell: warm-tick refresh on one sliding-window stream.

    Every tick applies one atomic edge delta, refreshes the workspace
    through the delta journal and re-touches each cache layer (language
    index, answer cache, neighbourhood ball).  The timing columns vary
    run-to-run as usual; the counter columns are deterministic — the
    stream is seeded, so how many entries each layer retains per tick is
    part of the unit's identity.
    """
    from repro.workloads.churn import ChurnStream

    alphabet = [chr(ord("a") + index) for index in range(alphabet_size)]
    stream = ChurnStream(
        nodes,
        alphabet,
        window=window,
        churn=churn,
        tick_count=tick_count,
        seed=seed,
        name=f"churn-{nodes}",
    )
    graph = stream.initial_graph()
    # a fresh workspace: churn mutates the graph, so sharing the default
    # workspace would poison other experiments' caches
    workspace = GraphWorkspace()
    queries = (
        alphabet[0],
        f"({alphabet[0]} + {alphabet[1]})* . {alphabet[2]}",
        f"{alphabet[1]} . {alphabet[2]}",
    )
    center = stream.nodes[0]
    workspace.language_index(graph, max_path_length)
    for query in queries:
        workspace.engine.evaluate(graph, query)
    workspace.neighborhoods(graph).neighborhood(center, 2)
    durations: List[float] = []
    totals: Dict[str, int] = {}
    for tick in stream.ticks():
        started = time.perf_counter()
        tick.apply(graph)
        counters = workspace.refresh(graph)
        workspace.language_index(graph, max_path_length)
        for query in queries:
            workspace.engine.evaluate(graph, query)
        workspace.neighborhoods(graph).neighborhood(center, 2)
        durations.append(time.perf_counter() - started)
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    row: Row = {
        "nodes": nodes,
        "window": window,
        "churn": churn,
        "ticks": tick_count,
        "language_refreshed": totals.get("language_indexes_refreshed", 0),
        "language_dropped": totals.get("language_indexes_dropped", 0),
        "answers_retained": totals.get("answers_retained", 0),
        "answers_dropped": totals.get("answers_dropped", 0),
        "neighborhood_kept": totals.get("neighborhood_states_kept", 0),
        "mean_seconds": round(mean(durations), 4) if durations else 0.0,
    }
    row.update(latency_summary(durations))
    return [row]


# ----------------------------------------------------------------------
# The three demonstration scenarios side by side (Section 3)
# ----------------------------------------------------------------------
def scenario_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    max_interactions: int,
    max_path_length: int,
    seed: int,
) -> List[Row]:
    """One scenario-comparison case: static vs interactive vs interactive+validation."""
    goal_query = _coerce_query(goal)
    reports = run_all_scenarios(
        graph,
        goal_query,
        max_path_length=max_path_length,
        seed=seed,
        max_interactions=max_interactions,
        workspace=default_workspace(),
    )
    rows: List[Row] = []
    for report in reports.values():
        row: Row = {"dataset": dataset, "goal": str(goal_query)}
        row.update(report.summary_row())
        rows.append(row)
    return rows
