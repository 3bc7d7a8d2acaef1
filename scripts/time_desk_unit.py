#!/usr/bin/env python3
"""Time the model stage of the desk unit.

Generates one system of 8 modules x 8 options (n_train = n_test = 1000,
training sizes 20-1000, search budget 2, all five levels, default seed)
without timing it, then times one `run_model` call over all levels
(`model_s`) and one `run_model` call per level with only that level
(`level_s`), and prints one JSON line with these seconds and the machine:

    python scripts/time_desk_unit.py
    {"model_s": 17.9, "model_s_norm": 15.2, "level_s": {"null": 0.3, ...},
     "level_s_norm": {"null": 0.26, ...},
     "counts": {"all": {"forest_calls": 15, "problems": 502, "passes": 740, ...},
                "null": {"forest_calls": 12, "problems": 60, ...}, ...},
     "all_peak_rss_mb": 90.1, "peak_rss_mb": 93.0, "nproc": 2, "python": "3.11.7", ...}

During every timed call the script counts the calls of `fit_forests`,
direct or through `fit_forest` (`forest_calls`), the forest problems passed
to them (`problems`), the forest engine's `_grow` passes (`passes`), its
split searches (`searches`, the calls of `_search_binary` and
`_search_sorted`, at most one per level of a pass) and its prediction walks
(`walks`, one per `_leaves` call), so batching and shared problems show as
exact counts beside the seconds: `counts["all"]` for the all-level call,
one entry per level for the others. `all_peak_rss_mb` is the process's peak
resident set size (`ru_maxrss`) read right after the all-level call, before
the per-level calls: the all-level call's peak, or the untimed generate
stage's if that were higher; `peak_rss_mb` is the peak after all calls.

On a shared machine the raw seconds drift with its load. So perfbench's
reference computation (`perfbench/calibrate.py`) runs before and after each
timed call, and the `_norm` figures scale each time by NOMINAL_S over the
mean of the two reference times around it, as perfbench does: seconds on
the machine the reference was calibrated on, at its fast speed.

Run it at two commits on the same machine to compare them.
"""

import collections
import contextlib
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from calibrate import NOMINAL_S, reference_seconds  # noqa: E402

from modperf import knowledge_models  # noqa: E402
from modperf.experiment import ExperimentConfig, run_generate, run_model  # noqa: E402
from modperf.influence_graph import AspectRanges  # noqa: E402
from modperf.learners import forest  # noqa: E402

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


@contextlib.contextmanager
def _counted(counts: collections.Counter):
    """Count `fit_forests` calls and the problems passed to them, `_grow`
    passes, split searches and `_leaves` walks into `counts` while open.

    `knowledge_models` holds its own reference to `fit_forests`, and
    `fit_forest` calls the forest module's, so both are wrapped.
    """
    targets = [
        (knowledge_models, "fit_forests", "forest_calls"),
        (forest, "fit_forests", "forest_calls"),
        (forest, "_grow", "passes"),
        (forest, "_search_binary", "searches"),
        (forest, "_search_sorted", "searches"),
        (forest, "_leaves", "walks"),
    ]
    originals = [getattr(owner, attr) for owner, attr, _ in targets]

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            if key == "forest_calls":
                counts["problems"] += len(args[0])
            return fn(*args, **kwargs)

        return counted

    for (owner, attr, key), fn in zip(targets, originals):
        setattr(owner, attr, counting(fn, key))
    try:
        yield
    finally:
        for (owner, attr, _), fn in zip(targets, originals):
            setattr(owner, attr, fn)


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _timed(fn, *args):
    """fn's result, its wall seconds, and those seconds normalised by the
    reference computation timed just before and just after it."""
    ref_before = reference_seconds()
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    ref_after = reference_seconds()
    return result, seconds, seconds * NOMINAL_S / ((ref_before + ref_after) / 2)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config = ExperimentConfig(
            n_systems=1,
            trials=1,
            train_sizes=(20, 50, 100, 200, 500, 1000),
            n_train=1000,
            n_test=1000,
            budget_evaluations=2,
            aspect_ranges=DESK_RANGES,
            out_dir=tmp,
        )
        run_generate(config)
        counts = {"all": collections.Counter()}
        with _counted(counts["all"]):
            docs, model_s, model_s_norm = _timed(run_model, config)
        all_peak_rss_mb = _peak_rss_mb()
        level_s, level_s_norm = {}, {}
        for level in config.levels:
            level_config = dataclasses.replace(config, levels=(level,))
            counts[level] = collections.Counter()
            with _counted(counts[level]):
                level_docs, seconds, norm = _timed(run_model, level_config)
            docs += level_docs
            level_s[level], level_s_norm[level] = round(seconds, 3), round(norm, 3)
    errors = [d["error"] for d in docs if "error" in d]
    if errors:
        print(json.dumps({"error": errors}), file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "model_s": round(model_s, 3),
                "model_s_norm": round(model_s_norm, 3),
                "level_s": level_s,
                "level_s_norm": level_s_norm,
                "counts": {key: dict(c) for key, c in counts.items()},
                "all_peak_rss_mb": all_peak_rss_mb,
                "peak_rss_mb": _peak_rss_mb(),
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
