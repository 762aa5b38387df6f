"""Section 3 — the three demonstration scenarios side by side.

Static labelling vs interactive labelling (without path validation) vs the
full GPS loop (with path validation), over the quick workload suite.
Expected shape: interactive+validation needs the fewest interactions and
always matches the user's intended answer on the instance.
"""

from repro.experiments.runner import ExperimentRunner
from repro.graph.datasets import motivating_example
from repro.interactive.scenarios import run_all_scenarios

from conftest import write_artifact

GOAL = "(tram + bus)* . cinema"


def test_scenario_comparison_table(benchmark, results_dir):
    runner = ExperimentRunner(experiments=("scenarios",), seed=37)
    tables = benchmark.pedantic(runner.run, rounds=1, iterations=1).tables
    write_artifact(results_dir, "scenarios_detail.txt", tables["scenarios_detail"].render())
    write_artifact(results_dir, "scenarios_summary.txt", tables["scenarios_summary"].render())
    by_scenario = {row["scenario"]: row for row in tables["scenarios_summary"]}
    assert (
        by_scenario["interactive+validation"]["interactions"]
        <= by_scenario["static"]["interactions"]
    )
    assert by_scenario["interactive+validation"]["instance_f1"] == 1.0


def test_three_scenarios_on_figure1(benchmark, results_dir):
    graph = motivating_example()
    reports = benchmark(run_all_scenarios, graph, GOAL, seed=37)
    lines = [str(report.summary_row()) for report in reports.values()]
    write_artifact(results_dir, "scenarios_figure1.txt", "\n".join(lines))
    assert reports["interactive+validation"].metrics["f1"] == 1.0
