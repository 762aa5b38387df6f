"""Experiment harness: figure regeneration and evaluation experiments E1–E5.

One driver runs every experiment: the deterministic, parallel, resumable
:class:`~repro.experiments.runner.ExperimentRunner` behind ``repro
bench``.  It expands a suite into content-hashed units and computes each
unit with a row function from :mod:`repro.experiments.harness`.

Runner results stream into a JSONL result store: a directory under
``benchmarks/results/<run>/`` holding ``manifest.json`` (the
content-hashed run plan) and ``rows.jsonl`` (one line per completed
unit).  Interrupted runs resume by skipping unit ids already present in
the store; see the :mod:`repro.experiments.runner` module docstring for
the full contract.
"""

from repro.experiments.metrics import AGGREGATORS, ResultTable, fraction_true
from repro.experiments.figures import (
    FIGURE1_QUERY,
    Figure1Result,
    Figure2Result,
    Figure3Result,
    all_figures,
    figure1,
    figure2,
    figure3,
)
from repro.experiments.runner import (
    E1_STRATEGIES,
    EXPERIMENTS,
    SUMMARY_SPECS,
    ExperimentRunner,
    ResultStore,
    RunResult,
    RunUnit,
    build_plan,
    strip_timing,
)

__all__ = [
    "AGGREGATORS",
    "ResultTable",
    "fraction_true",
    "FIGURE1_QUERY",
    "Figure1Result",
    "Figure2Result",
    "Figure3Result",
    "all_figures",
    "figure1",
    "figure2",
    "figure3",
    "E1_STRATEGIES",
    "SUMMARY_SPECS",
    "EXPERIMENTS",
    "ExperimentRunner",
    "ResultStore",
    "RunResult",
    "RunUnit",
    "build_plan",
    "strip_timing",
]
