#!/usr/bin/env python3
"""Time the model stage of the desk unit.

Generates one system of 8 modules x 8 options (n_train = n_test = 1000,
training sizes 20-1000, search budget 2, 2 folds, all five levels, default
seed) without timing it, then times one `run_model` call over all levels
(`model_s`) and one `run_model` call per level with only that level
(`level_s`), and prints one JSON line with these seconds and the machine:

    python scripts/time_desk_unit.py
    {"model_s": 17.9, "level_s": {"null": 0.3, ...}, "nproc": 2, "python": "3.11.7", ...}

Run it at two commits on the same machine to compare them.
"""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from modperf.experiment import ExperimentConfig, run_generate, run_model  # noqa: E402
from modperf.influence_graph import AspectRanges  # noqa: E402

DESK_RANGES = AspectRanges(option_count=(8, 8), module_count=(8, 8))


def _commit() -> str | None:
    """The checked-out commit, suffixed "-dirty" when the tree has local
    changes; None outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config = ExperimentConfig(
            n_systems=1,
            trials=1,
            train_sizes=(20, 50, 100, 200, 500, 1000),
            n_train=1000,
            n_test=1000,
            budget_evaluations=2,
            cv_folds=2,
            aspect_ranges=DESK_RANGES,
            out_dir=tmp,
        )
        run_generate(config)
        start = time.perf_counter()
        docs = run_model(config)
        model_s = time.perf_counter() - start
        level_s = {}
        for level in config.levels:
            start = time.perf_counter()
            docs += run_model(dataclasses.replace(config, levels=(level,)))
            level_s[level] = round(time.perf_counter() - start, 3)
    errors = [d["error"] for d in docs if "error" in d]
    if errors:
        print(json.dumps({"error": errors}), file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "model_s": round(model_s, 3),
                "level_s": level_s,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "commit": _commit(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
