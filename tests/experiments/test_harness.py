"""Tests for the E1–E5 unit functions (shape checks on small inputs)."""

import pytest

from repro.experiments.harness import (
    e1_unit_rows,
    e2_unit_rows,
    e3_unit_rows,
    e4_unit_rows,
    pta_state_count,
    scenario_unit_rows,
)
from repro.experiments.metrics import ResultTable
from repro.experiments.runner import (
    E1_DEFAULTS,
    E2_DEFAULTS,
    E3_DEFAULTS,
    E4_DEFAULTS,
    SCENARIO_DEFAULTS,
    SUMMARY_SPECS,
    ExperimentRunner,
    derive_unit_seed,
)
from repro.workloads.generator import WorkloadCase
from repro.workloads.queries import figure1_goal_query
from repro.graph.datasets import motivating_example


@pytest.fixture(scope="module")
def figure1_case():
    """A single figure-1 case so harness tests stay fast."""
    return WorkloadCase(dataset="figure-1", graph=motivating_example(), goal=figure1_goal_query())


def case_params(case):
    """What a unit function takes to run one workload case."""
    return dict(graph=case.graph, goal=case.goal.query, dataset=case.dataset)


def summary(experiment, rows):
    keys, reducers = SUMMARY_SPECS[experiment]
    return ResultTable(experiment, rows).group_by(keys, reducers)


def e1_rows(case, strategies, seed):
    rows = []
    for strategy in ("static", *strategies):
        unit_seed = derive_unit_seed(seed, "e1", case.dataset, case.goal.expression, strategy)
        rows += e1_unit_rows(
            **case_params(case), family=case.goal.family, strategy=strategy, seed=unit_seed, **E1_DEFAULTS
        )
    return rows


def e4_rows(case):
    rows = []
    for variant in ("no-validation", "validation"):
        rows += e4_unit_rows(**case_params(case), family=case.goal.family, variant=variant, **E4_DEFAULTS)
    return rows


class TestE1(object):
    def test_rows_per_strategy(self, figure1_case):
        detail = e1_rows(figure1_case, ("random", "most-informative"), seed=1)
        strategies = {row["strategy"] for row in detail}
        assert strategies == {"static", "random", "most-informative"}
        assert len(summary("e1", detail)) == 3

    def test_informed_strategy_not_worse_than_static(self, figure1_case):
        detail = e1_rows(figure1_case, ("most-informative",), seed=2)
        by_strategy = {row["strategy"]: row for row in summary("e1", detail)}
        assert (
            by_strategy["most-informative"]["interactions"]
            <= by_strategy["static"]["interactions"]
        )

    def test_goal_reached_on_figure1(self, figure1_case):
        for row in e1_rows(figure1_case, ("most-informative",), seed=3):
            assert row["reached"], row


class TestE2:
    def test_pruning_rows_and_range(self, figure1_case):
        detail = e2_unit_rows(**case_params(figure1_case), **E2_DEFAULTS)
        assert len(detail) > 0
        for row in detail:
            assert 0.0 <= row["saved_fraction"] <= 1.0
        assert len(summary("e2", detail)) > 0

    def test_informative_remaining_decreases(self, figure1_case):
        detail = e2_unit_rows(**case_params(figure1_case), **E2_DEFAULTS)
        remaining = [row["informative_remaining"] for row in detail]
        assert remaining[-1] <= remaining[0]


class TestE3:
    def test_scalability_rows(self):
        table = []
        for nodes in (30, 60):
            table += e3_unit_rows(
                nodes=nodes, seed=derive_unit_seed(1, "e3", nodes), **dict(E3_DEFAULTS, interactions=2)
            )
        assert [row["nodes"] for row in table] == [30, 60]
        for row in table:
            assert row["mean_seconds"] >= 0.0
            assert row["interactions"] <= 2


class TestE4:
    def test_variants_present(self, figure1_case):
        variants = {row["variant"] for row in e4_rows(figure1_case)}
        assert variants == {"validation", "no-validation"}

    def test_validation_f1_not_worse(self, figure1_case):
        by_variant = {row["variant"]: row for row in summary("e4", e4_rows(figure1_case))}
        assert by_variant["validation"]["f1"] >= by_variant["no-validation"]["f1"] - 1e-9


class TestPtaStateCount:
    def test_counts_shared_prefixes_once(self):
        # "ab" and "ac" share the prefix "a": states are "", "a", "ab", "ac"
        assert pta_state_count([("a", "b"), ("a", "c")]) == 4

    def test_duplicates_do_not_inflate(self):
        assert pta_state_count([("a", "b"), ("a", "b")]) == 3

    def test_disjoint_words_sum_plus_root(self):
        assert pta_state_count([("a",), ("b", "b")]) == 4

    def test_empty_sample_is_single_root(self):
        assert pta_state_count([]) == 1


class TestE5:
    def test_learner_cost_rows(self):
        table = ExperimentRunner(experiments=("e5",), e5_sample_sizes=(4, 8), seed=1).run().tables["e5"]
        assert len(table) == 2
        for row in table:
            assert row["all_positives_accepted"]
            assert row["all_negatives_rejected"]
            assert row["learned_states"] <= row["pta_states"]


class TestScenarioComparison:
    def test_interactive_beats_static_on_average(self, figure1_case):
        unit_seed = derive_unit_seed(1, "scenarios", figure1_case.dataset, figure1_case.goal.expression)
        detail = scenario_unit_rows(**case_params(figure1_case), seed=unit_seed, **SCENARIO_DEFAULTS)
        by_scenario = {row["scenario"]: row for row in summary("scenarios", detail)}
        assert (
            by_scenario["interactive+validation"]["interactions"]
            <= by_scenario["static"]["interactions"]
        )
        assert by_scenario["interactive+validation"]["instance_f1"] == 1.0
