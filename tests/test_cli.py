"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.datasets import motivating_example
from repro.graph.io import save_json


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "figure1.json"
    save_json(motivating_example(), path)
    return path


class TestEvaluate:
    def test_evaluate_on_dataset(self, capsys):
        code = main(["evaluate", "--dataset", "figure-1", "--query", "(tram + bus)* . cinema"])
        output = capsys.readouterr().out
        assert code == 0
        assert "4 node(s)" in output
        for node in ("N1", "N2", "N4", "N6"):
            assert node in output

    def test_evaluate_on_graph_file_with_witness(self, graph_file, capsys):
        code = main(
            ["evaluate", "--graph", str(graph_file), "--query", "cinema", "--witness"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "via Path(" in output

    def test_requires_exactly_one_graph_source(self, graph_file):
        with pytest.raises(SystemExit):
            main(["evaluate", "--query", "a"])
        with pytest.raises(SystemExit):
            main(
                [
                    "evaluate",
                    "--graph",
                    str(graph_file),
                    "--dataset",
                    "figure-1",
                    "--query",
                    "a",
                ]
            )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--dataset", "atlantis", "--query", "a"])

    def test_missing_graph_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["evaluate", "--graph", str(tmp_path / "nope.json"), "--query", "a"])


class TestLearn:
    def test_learn_from_examples(self, capsys):
        code = main(
            [
                "learn",
                "--dataset",
                "figure-1",
                "--positive",
                "N2",
                "N6",
                "--negative",
                "N5",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "learned query" in output
        assert "N2" in output and "N6" in output

    def test_learn_inconsistent_examples_reports_error(self, capsys):
        code = main(
            ["learn", "--dataset", "figure-1", "--positive", "N4", "--negative", "N6"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_learn_rejects_path_bound_below_one(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(
                [
                    "learn",
                    "--dataset",
                    "figure-1",
                    "--positive",
                    "N2",
                    "--negative",
                    "N1",
                    "--max-path-length",
                    "-3",
                ]
            )
        assert raised.value.code == 2
        assert "--max-path-length" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_on_figure1(self, capsys):
        code = main(
            [
                "simulate",
                "--dataset",
                "figure-1",
                "--goal",
                "(tram + bus)* . cinema",
                "--max-interactions",
                "10",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "learned query" in output
        assert "transcript:" in output
        assert "#1" in output

    def test_simulate_saves_transcript(self, tmp_path, capsys):
        target = tmp_path / "session.json"
        code = main(
            [
                "simulate",
                "--dataset",
                "figure-1",
                "--goal",
                "cinema",
                "--save-transcript",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["entries"]

    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_simulate_rejects_path_bound_below_one(self, bound, capsys):
        with pytest.raises(SystemExit) as raised:
            main(
                [
                    "simulate",
                    "--dataset",
                    "figure-1",
                    "--goal",
                    "bus",
                    "--max-path-length",
                    bound,
                ]
            )
        assert raised.value.code == 2
        assert "--max-path-length" in capsys.readouterr().err

    def test_simulate_strategy_choice_validated(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "figure-1", "--goal", "cinema", "--strategy", "psychic"])


class TestOtherCommands:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output and "figure3" in output

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "figure-1" in output
        assert "bio-small" in output

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_invocation(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "datasets"], capture_output=True, text=True
        )
        assert completed.returncode == 0
        assert "figure-1" in completed.stdout


class TestBench:
    def _argv(self, tmp_path, *extra):
        return [
            "bench",
            "--suite", "quick",
            "--datasets", "figure-1",
            "--experiments", "e4",
            "--workers", "1",
            "--results-dir", str(tmp_path),
            "--run", "cli-test",
            *extra,
        ]

    def test_bench_writes_result_store(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        output = capsys.readouterr().out
        assert "resumed from store" in output
        store = tmp_path / "cli-test"
        assert (store / "manifest.json").exists()
        assert (store / "rows.jsonl").exists()
        assert (store / "tables" / "e4_summary.txt").exists()
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["unit_count"] == len((store / "rows.jsonl").read_text().splitlines())

    def test_bench_resumes_without_recomputing(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path)) == 0
        output = capsys.readouterr().out
        assert ", 0 executed" in output

    def test_bench_rejects_mismatched_plan_without_fresh(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path, "--seed", "99")) == 1
        assert "plan" in capsys.readouterr().err
        assert main(self._argv(tmp_path, "--seed", "99", "--fresh")) == 0

    def test_bench_churn_selector(self, tmp_path, capsys):
        argv = [
            "bench",
            "--suite", "quick",
            "--experiments", "churn",
            "--results-dir", str(tmp_path),
            "--run", "churn-test",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Churn" in output
        assert (tmp_path / "churn-test" / "tables" / "churn.txt").exists()

    def test_bench_churn_flag_appends_family(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--run", "churn-flag", "--churn")) == 0
        output = capsys.readouterr().out
        manifest = json.loads(
            (tmp_path / "churn-flag" / "manifest.json").read_text()
        )
        assert "churn" in manifest["experiments"]
        assert "e4" in manifest["experiments"]
        assert "Churn" in output


class TestLint:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def greet(name: str) -> str:\n    return name\n")
        code = main(["lint", str(clean)])
        output = capsys.readouterr().out
        assert code == 0
        assert "clean" in output

    def test_lint_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = hash('word')\n")
        code = main(["lint", str(bad)])
        output = capsys.readouterr().out
        assert code == 1
        assert "REP103" in output

    def test_lint_json_output_and_report_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = hash('word')\n")
        report = tmp_path / "report.json"
        code = main(["lint", "--format=json", "--output", str(report), str(bad)])
        stdout = capsys.readouterr().out
        assert code == 1
        payload = json.loads(stdout)
        assert payload["by_rule"] == {"REP103": 1}
        assert json.loads(report.read_text()) == payload

    def test_lint_select_narrows_families(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = hash('word')\n")
        code = main(["lint", "--select", "REP400", str(bad)])
        capsys.readouterr()
        assert code == 0

    def test_lint_default_target_is_repository_source(self, capsys):
        """`repro lint` with no paths lints src/repro — and it must be clean."""
        code = main(["lint"])
        output = capsys.readouterr().out
        assert code == 0, output
