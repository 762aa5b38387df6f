"""E1 — number of user interactions to reach the goal answer, per strategy.

Compares static labelling with the interactive loop under every strategy
(random, random-informative, breadth, degree, most-informative) over the
quick workload suite.  The expected shape (paper's central claim): the
interactive, informativeness-driven strategies need far fewer interactions
than static / random labelling.
"""

from repro.experiments.runner import ExperimentRunner
from repro.graph.datasets import motivating_example
from repro.interactive.scenarios import run_interactive_with_validation, run_static_labeling

from conftest import write_artifact

GOAL = "(tram + bus)* . cinema"


def test_e1_full_table(benchmark, results_dir):
    """Regenerate the complete E1 table on the quick suite (one pass)."""
    runner = ExperimentRunner(experiments=("e1",), seed=17)
    tables = benchmark.pedantic(runner.run, rounds=1, iterations=1).tables
    detail, summary = tables["e1_detail"], tables["e1_summary"]
    write_artifact(results_dir, "e1_detail.txt", detail.render())
    write_artifact(results_dir, "e1_summary.txt", summary.render())

    by_strategy = {row["strategy"]: row for row in summary}
    # the informed interactive strategy must not need more interactions than
    # static labelling, and must reach the goal answer on every case
    assert by_strategy["most-informative"]["interactions"] <= by_strategy["static"]["interactions"]
    assert by_strategy["most-informative"]["reached"] == 1.0


def test_e1_single_interactive_session(benchmark):
    """Benchmark unit: one interactive session on the motivating example."""
    graph = motivating_example()
    report = benchmark(run_interactive_with_validation, graph, GOAL)
    assert report.metrics["f1"] == 1.0


def test_e1_single_static_session(benchmark):
    graph = motivating_example()
    report = benchmark(run_static_labeling, graph, GOAL, seed=17)
    assert report.interactions >= 1
