"""The byte-identical machine report.

``repro lint --format=json`` must write byte-identical reports across
processes and hash seeds: every aggregate is rebuilt from the sorted
diagnostic list, and every rule iterates the project model in sorted
order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_lint(output: Path, hash_seed: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "lint",
            "--format=json",
            f"--output={output}",
            "src/repro",
        ],
        cwd=REPO_ROOT,
        env=env,
        check=True,
        capture_output=True,
    )


@pytest.mark.slow
def test_lint_report_is_byte_identical_across_hash_seeds(tmp_path):
    """Three full lints of ``src/repro`` in separate interpreters with
    different hash seeds produce byte-identical ``LINT_report.json``
    files."""
    reports = [tmp_path / f"{seed}.json" for seed in ("1", "2", "3")]
    for report in reports:
        _run_lint(report, hash_seed=report.stem)
    first = reports[0].read_bytes()
    assert all(report.read_bytes() == first for report in reports[1:])
    json.loads(first)  # and it is valid JSON
