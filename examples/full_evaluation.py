#!/usr/bin/env python3
"""Full evaluation — regenerate every figure and experiment table.

Runs the Figure 1–3 regenerations plus experiments E1–E5 and the Section 3
scenario comparison, printing each table and (optionally) archiving them
under ``results/``.  This is the script behind EXPERIMENTS.md.

Run with::

    python examples/full_evaluation.py                 # quick suite (~1 min)
    python examples/full_evaluation.py --full          # full suite (several minutes)
    python examples/full_evaluation.py --workers 4     # fan units out over 4 processes
    python examples/full_evaluation.py --save results  # also write tables to disk
    python examples/full_evaluation.py --save --full   # --save alone writes to results/

Parallel runs produce row-for-row identical tables (the experiment
runner derives one deterministic seed per unit); for resumable runs with
a JSONL result store use ``python -m repro.cli bench`` instead.
"""

import argparse
from pathlib import Path

from repro.experiments.figures import all_figures
from repro.experiments.runner import ExperimentRunner


def main() -> None:
    parser = argparse.ArgumentParser(description="Regenerate every figure and experiment table.")
    parser.add_argument("--full", action="store_true", help="run the standard suite instead of the quick one")
    parser.add_argument("--workers", type=int, default=1, help="process-pool size (1 = inline)")
    parser.add_argument(
        "--save", nargs="?", const="results", default=None, metavar="DIR",
        help="also write every table to DIR (default: results)",
    )
    args = parser.parse_args()
    save_dir = None
    if args.save is not None:
        save_dir = Path(args.save)
        save_dir.mkdir(parents=True, exist_ok=True)

    print("=== Figures ===")
    for name, rendering in all_figures().items():
        print()
        print(rendering)
        if save_dir is not None:
            (save_dir / f"{name}.txt").write_text(rendering + "\n")

    print()
    print(f"=== Experiments ({'full' if args.full else 'quick'} suite) ===")
    runner = ExperimentRunner(suite="standard" if args.full else "quick", seed=41, workers=args.workers)
    tables = runner.run().tables
    for name, table in tables.items():
        if name.endswith("_detail"):
            continue  # print summaries; details are archived with --save
        print()
        print(table.render())
    if save_dir is not None:
        for name, table in tables.items():
            (save_dir / f"{name}.txt").write_text(table.render() + "\n")
        print()
        print(f"all tables written to {save_dir}/")


if __name__ == "__main__":
    main()
