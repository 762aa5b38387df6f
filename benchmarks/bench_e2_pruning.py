"""E2 — pruning of uninformative nodes after each interaction.

Tracks the fraction of unlabelled nodes whose label is already implied
(pruned) as the interactive session progresses.  Expected shape: the
fraction grows as negatives accumulate, so the strategy's candidate pool
shrinks much faster than one node per question.
"""

from repro.experiments.runner import ExperimentRunner
from repro.graph.datasets import motivating_example
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import pruning_fraction

from conftest import write_artifact


def test_e2_full_table(benchmark, results_dir):
    runner = ExperimentRunner(experiments=("e2",), seed=19)
    tables = benchmark.pedantic(runner.run, rounds=1, iterations=1).tables
    write_artifact(results_dir, "e2_detail.txt", tables["e2_detail"].render())
    write_artifact(results_dir, "e2_summary.txt", tables["e2_summary"].render())
    for row in tables["e2_detail"]:
        assert 0.0 <= row["saved_fraction"] <= 1.0


def test_e2_pruning_fraction_unit(benchmark):
    """Benchmark unit: one pruning-fraction computation on Figure 1."""
    graph = motivating_example()
    examples = ExampleSet()
    examples.add_positive("N2")
    examples.add_negative("N5")
    fraction = benchmark(pruning_fraction, graph, examples, max_length=4)
    assert 0.0 <= fraction <= 1.0
