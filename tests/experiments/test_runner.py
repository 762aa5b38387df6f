"""Tests for the deterministic, parallel, resumable experiment runner."""

import json

import pytest

from repro.exceptions import ExperimentError, RunPlanMismatchError
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentRunner,
    ResultStore,
    build_plan,
    plan_id_for,
    strip_timing,
    unit_id_for,
)

#: A tiny plan (figure-1 only) so runner tests stay tier-1 fast.
PLAN_KWARGS = dict(
    suite="quick",
    datasets=["figure-1"],
    experiments=("e1", "e4", "e5"),
    e1_strategies=("most-informative",),
    e5_sample_sizes=(4, 8),
)


def make_runner(**overrides):
    kwargs = dict(PLAN_KWARGS)
    kwargs.update(overrides)
    return ExperimentRunner(**kwargs)


class TestPlan:
    def test_expansion_is_deterministic(self):
        first = build_plan(**PLAN_KWARGS)
        second = build_plan(**PLAN_KWARGS)
        assert [unit.unit_id for unit in first] == [unit.unit_id for unit in second]
        assert plan_id_for(first) == plan_id_for(second)

    def test_unit_ids_are_content_hashes(self):
        unit = build_plan(**PLAN_KWARGS)[0]
        assert unit.unit_id == unit_id_for(unit.experiment, dict(unit.params))
        # key order must not matter
        reordered = dict(reversed(list(unit.params.items())))
        assert unit_id_for(unit.experiment, reordered) == unit.unit_id

    def test_seed_changes_every_unit_id(self):
        first = {unit.unit_id for unit in build_plan(**PLAN_KWARGS)}
        second = {unit.unit_id for unit in build_plan(**dict(PLAN_KWARGS, seed=12))}
        assert first.isdisjoint(second)

    @pytest.mark.parametrize(
        "plan_kwargs, plan_id, unit_count",
        [
            ({}, "39d961a4c796", 67),
            ({"experiments": EXPERIMENTS}, "5d558278cdc4", 69),
            ({"suite": "standard"}, "ba693b131493", 989),
        ],
        ids=["default", "all-experiments", "standard"],
    )
    def test_plan_ids_are_pinned(self, plan_kwargs, plan_id, unit_count):
        # resumable stores are keyed on these ids: a renamed param key or a
        # moved budget would orphan every store, so the literals are pinned
        units = build_plan(**plan_kwargs)
        assert (plan_id_for(units), len(units)) == (plan_id, unit_count)

    def test_units_are_json_serialisable(self):
        for unit in build_plan(**PLAN_KWARGS):
            json.dumps(unit.payload())

    def test_unknown_suite_and_experiments_rejected(self):
        with pytest.raises(ExperimentError):
            build_plan(suite="nope")
        with pytest.raises(ExperimentError):
            build_plan(experiments=("e1", "e99"))

    def test_unknown_datasets_rejected(self):
        with pytest.raises(ExperimentError):
            build_plan(suite="standard", datasets=["bogus"])

    def test_empty_case_list_rejected_for_case_experiments(self):
        # transit-medium is a valid catalogue name but not in the quick suite
        with pytest.raises(ExperimentError):
            build_plan(suite="quick", datasets=["transit-medium"], experiments=("e1",))
        # non-case experiments are fine with zero cases
        units = build_plan(suite="quick", datasets=["transit-medium"], experiments=("e5",))
        assert units

    def test_experiment_order_is_canonical(self):
        shuffled = build_plan(**dict(PLAN_KWARGS, experiments=("e5", "e4", "e1")))
        canonical = build_plan(**PLAN_KWARGS)
        assert [unit.unit_id for unit in shuffled] == [unit.unit_id for unit in canonical]

    def test_churn_is_opt_in(self):
        # the default selection must not include churn: its introduction
        # cannot change existing plan ids (and the stores keyed on them)
        default = build_plan(suite="quick")
        assert not any(unit.experiment == "churn" for unit in default)

    def test_churn_plan_expands_per_node_count(self):
        units = build_plan(suite="quick", experiments=("churn",), churn_node_counts=(30, 50))
        assert [unit.label for unit in units] == ["churn sliding-30", "churn sliding-50"]
        for unit in units:
            assert unit.params["window"] > 0
            json.dumps(unit.payload())  # plain parameters only


class TestDeterminism:
    def test_parallel_rows_identical_to_serial(self):
        serial = make_runner(workers=1).run()
        parallel = make_runner(workers=2).run()
        for experiment in ("e1", "e4", "e5"):
            assert strip_timing(serial.rows(experiment)) == strip_timing(parallel.rows(experiment))

    def test_two_serial_runs_identical(self):
        first = make_runner().run()
        second = make_runner().run()
        for experiment in ("e1", "e4", "e5"):
            assert strip_timing(first.rows(experiment)) == strip_timing(second.rows(experiment))

    def test_tables_match_summary_shape(self):
        result = make_runner().run()
        tables = result.tables
        assert set(tables) == {"e1_detail", "e1_summary", "e4_detail", "e4_summary", "e5"}
        strategies = {row["strategy"] for row in tables["e1_summary"]}
        assert strategies == {"static", "most-informative"}

    def test_churn_rows_deterministic_and_tabled(self):
        kwargs = dict(
            suite="quick", experiments=("churn",), churn_node_counts=(30,)
        )
        first = ExperimentRunner(**kwargs).run()
        second = ExperimentRunner(**kwargs).run()
        assert strip_timing(first.rows("churn")) == strip_timing(second.rows("churn"))
        (row,) = first.rows("churn")
        assert row["nodes"] == 30
        assert row["language_refreshed"] + row["language_dropped"] == row["ticks"]
        assert set(first.tables) == {"churn"}


class TestResume:
    def test_store_roundtrip_and_full_resume(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        first = make_runner(store=store).run()
        assert len(first.executed_unit_ids) == len(first.units)
        assert first.resumed_unit_ids == []

        second = make_runner(store=ResultStore(tmp_path / "run")).run()
        assert second.executed_unit_ids == []
        assert len(second.resumed_unit_ids) == len(second.units)
        for experiment in ("e1", "e4", "e5"):
            assert strip_timing(first.rows(experiment)) == strip_timing(second.rows(experiment))

    def test_interrupted_run_resumes_missing_units_only(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        full = make_runner(store=store).run()
        rows_path = store.rows_path
        lines = rows_path.read_text().splitlines()
        kept, dropped = lines[:5], lines[5:]
        rows_path.write_text("\n".join(kept) + "\n")
        dropped_ids = {json.loads(line)["unit_id"] for line in dropped}

        resumed = make_runner(store=ResultStore(tmp_path / "run")).run()
        assert set(resumed.executed_unit_ids) == dropped_ids
        assert len(resumed.resumed_unit_ids) == 5
        for experiment in ("e1", "e4", "e5"):
            assert strip_timing(full.rows(experiment)) == strip_timing(resumed.rows(experiment))

    def test_truncated_trailing_line_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        make_runner(store=store).run()
        with store.rows_path.open("a") as handle:
            handle.write('{"unit_id": "deadbeef", "rows": [')  # interrupted mid-write
        records = ResultStore(tmp_path / "run").load_records()
        assert "deadbeef" not in records
        result = make_runner(store=ResultStore(tmp_path / "run")).run()
        assert result.executed_unit_ids == []

    def test_plan_mismatch_raises(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        make_runner(store=store).run()
        other = make_runner(seed=99, store=ResultStore(tmp_path / "run"))
        with pytest.raises(RunPlanMismatchError):
            other.run()

    def test_fresh_clears_mismatched_store(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        make_runner(store=store).run()
        other = make_runner(seed=99, store=ResultStore(tmp_path / "run"))
        result = other.run(fresh=True)
        assert len(result.executed_unit_ids) == len(result.units)

    def test_foreign_records_are_not_merged(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        make_runner(store=store).run()
        store.append({"unit_id": "feedface0000", "experiment": "e1", "label": "alien", "rows": [{}]})
        result = make_runner(store=ResultStore(tmp_path / "run")).run()
        assert "feedface0000" not in result.records

    def test_resume_false_recomputes_without_duplicating_records(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        make_runner(store=store).run()
        line_count = len(store.rows_path.read_text().splitlines())
        result = make_runner(store=ResultStore(tmp_path / "run")).run(resume=False)
        assert len(result.executed_unit_ids) == len(result.units)
        assert len(store.rows_path.read_text().splitlines()) == line_count

    def test_corrupt_manifest_reports_cleanly(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        make_runner(store=store).run()
        store.manifest_path.write_text('{"plan_id": "trunca')  # killed mid-write
        with pytest.raises(ExperimentError, match="fresh"):
            make_runner(store=ResultStore(tmp_path / "run")).run()
        result = make_runner(store=ResultStore(tmp_path / "run")).run(fresh=True)
        assert len(result.executed_unit_ids) == len(result.units)
