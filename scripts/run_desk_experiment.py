#!/usr/bin/env python3
"""Run a seeded desk-scale experiment end to end and print the report.

Usage:
    python scripts/run_desk_experiment.py [--out runs/desk] [--systems 24] [--jobs 2]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modperf.experiment import ExperimentConfig, run_all, run_report
from modperf.influence_graph import AspectRanges

# Compact systems keep the practical-level structural models fast; the full
# Table-style ranges (up to 40 modules) are paper-scale territory.
DESK_RANGES = AspectRanges(option_count=(6, 10), module_count=(5, 10))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/desk")
    parser.add_argument("--systems", type=int, default=24)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20250801)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    config = ExperimentConfig(
        global_seed=args.seed,
        n_systems=args.systems,
        trials=args.trials,
        aspect_ranges=DESK_RANGES,
        out_dir=args.out,
        jobs=args.jobs,
        resume=True,
    )
    summary = run_all(config)
    print(run_report(config))
    for metric, info in summary["metrics"].items():
        print(
            f"{metric}: {info['significant']}/{info['tests']} significant, "
            f"{info['skipped_tests']} skipped"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
