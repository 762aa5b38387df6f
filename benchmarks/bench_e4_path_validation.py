"""E4 — learned-query quality with vs without path validation.

The paper's Section 3 argument: without path validation the system learns
*a* consistent query (e.g. ``bus`` on the motivating example), which is
not necessarily the goal query; with validation the generalised paths are
the ones the user actually cares about.  Expected shape: the validation
variant recovers the exact goal at least as often and never has lower
instance F1.
"""

from repro.experiments.runner import ExperimentRunner
from repro.graph.datasets import motivating_example
from repro.learning.learner import learn_query

from conftest import write_artifact


def test_e4_full_table(benchmark, results_dir):
    runner = ExperimentRunner(experiments=("e4",), seed=29)
    tables = benchmark.pedantic(runner.run, rounds=1, iterations=1).tables
    write_artifact(results_dir, "e4_detail.txt", tables["e4_detail"].render())
    write_artifact(results_dir, "e4_summary.txt", tables["e4_summary"].render())
    by_variant = {row["variant"]: row for row in tables["e4_summary"]}
    # both variants end consistent with every label (F1 = 1 under the
    # user-satisfied halt); the benefit of validation shows up as fewer
    # interactions to get there.  Exact-language recovery fluctuates with
    # which compatible path the simulated user happens to validate, so it is
    # reported in the table but not asserted here (the Section 3
    # counter-example below is the robust exactness check).
    assert by_variant["validation"]["f1"] >= by_variant["no-validation"]["f1"] - 1e-9
    assert by_variant["validation"]["interactions"] <= by_variant["no-validation"]["interactions"] + 1e-9


def test_e4_section3_counterexample(benchmark, results_dir):
    """Without validation the learner can return `bus`; with the paper's
    validated words it returns the goal query."""
    graph = motivating_example()

    def run_both():
        without = learn_query(graph, positive={"N2": None, "N6": None}, negative=["N5"])
        with_validation = learn_query(
            graph,
            positive={"N2": ("bus", "tram", "cinema"), "N6": ("cinema",)},
            negative=["N5"],
        )
        return without, with_validation

    without, with_validation = benchmark(run_both)
    assert not without.same_language("(tram + bus)* . cinema")
    assert with_validation.same_language("(tram + bus)* . cinema")
    write_artifact(
        results_dir,
        "e4_counterexample.txt",
        f"without validation : {without}\nwith validation    : {with_validation}",
    )
