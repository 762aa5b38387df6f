#!/usr/bin/env python3
"""Strategy comparison — how much the choice of Υ matters.

Runs the interactive loop under every implemented node-proposal strategy
(random, random-informative, breadth, degree, most-informative) plus the
static-labelling baseline, over the standard workload suite, and prints
the aggregated E1-style table.

Run with::

    python examples/strategy_comparison.py            # quick suite
    python examples/strategy_comparison.py --full     # every dataset / family
"""

import sys

from repro.experiments.runner import ExperimentRunner


def main() -> None:
    full = "--full" in sys.argv
    runner = ExperimentRunner(
        suite="standard" if full else "quick", experiments=("e1",), seed=17, per_family=1
    )
    print(f"running {len(runner.units)} (dataset, goal-query, strategy) units "
          f"({'full' if full else 'quick'} suite); this takes a moment...")
    tables = runner.run().tables
    print()
    print(tables["e1_summary"].render())
    print()
    print("detail (one row per case and strategy):")
    print(tables["e1_detail"].render())


if __name__ == "__main__":
    main()
