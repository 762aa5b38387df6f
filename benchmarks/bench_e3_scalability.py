"""E3 — per-interaction latency as the graph grows.

Measures the time one interaction costs (strategy ranking + neighbourhood
extraction + propagation + learning) on random graphs of increasing size.
Expected shape: sub-second per interaction at laptop scale, growing
roughly linearly with the number of nodes for the bounded-path strategies.

Since the bulk-construction + zoom-index PR the axis extends to 6400
nodes — 8x beyond the seed table, where per-edge generator loops and
per-zoom BFS re-runs used to dominate the wall clock.
"""

from repro.experiments.runner import ExperimentRunner
from repro.graph.generators import random_graph
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession

from conftest import write_artifact

#: the scaling axis: the seed table stopped at 800
E3_NODE_COUNTS = (100, 200, 400, 800, 1600, 3200, 6400)


def test_e3_full_table(benchmark, results_dir):
    runner = ExperimentRunner(experiments=("e3",), seed=23, e3_node_counts=E3_NODE_COUNTS)
    table = benchmark.pedantic(runner.run, rounds=1, iterations=1).tables["e3"]
    write_artifact(results_dir, "e3.txt", table.render())
    rows = list(table)
    assert [row["nodes"] for row in rows] == list(E3_NODE_COUNTS)
    # every graph meets the generator's exact edge-count contract
    assert all(row["edges"] == 3 * row["nodes"] for row in rows)
    # per-interaction latency stays interactive (well under a second here)
    assert all(row["mean_seconds"] < 2.0 for row in rows)


def _one_interaction(graph, goal):
    user = SimulatedUser(graph, goal)
    session = InteractiveSession(graph, user, max_path_length=3, max_interactions=1)
    return session.step()


def test_e3_single_interaction_small_graph(benchmark):
    graph = random_graph(100, 300, ("a", "b", "c", "d"), seed=23)
    record = benchmark(_one_interaction, graph, "(a + b)* . c")
    assert record.index == 1


def test_e3_single_interaction_medium_graph(benchmark):
    graph = random_graph(400, 1200, ("a", "b", "c", "d"), seed=23)
    record = benchmark.pedantic(
        _one_interaction, args=(graph, "(a + b)* . c"), rounds=3, iterations=1
    )
    assert record.index == 1


def test_e3_single_interaction_large_graph(benchmark):
    # a size the seed per-edge generator path made impractical to bench
    graph = random_graph(6400, 19200, ("a", "b", "c", "d"), seed=23)
    record = benchmark.pedantic(
        _one_interaction, args=(graph, "(a + b)* . c"), rounds=2, iterations=1
    )
    assert record.index == 1
