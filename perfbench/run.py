"""Benchmark harness for modperf.

Run from the repository root:

    python3 perfbench/run.py --workload desk-unit --seed 20250801 --seconds 30 --trace 0

Workloads: desk-unit, generate-sweep, analyze-sweep (see perfbench/README.md).
The process is single-threaded: BLAS thread counts are pinned to 1 before
numpy loads. modperf is imported from ``src/`` next to this directory; the
run fails when it is missing.

Set-up runs SETUP_REPEATS times, each in a fresh interpreter that imports
modperf and runs the workload's set-up; inputs the harness synthesises
itself are written after that, untimed. The timed op then repeats until
``--seconds`` are used. A fixed reference computation (calibrate.py) runs
before and after every set-up and op; each measured time is scaled by
NOMINAL_S / (the mean of the two reference times around it), which cancels
the machine's speed drift, and the reported time is the median. Every op's
output is checked and hashed; a failed check or a hash that differs between
ops makes the run incorrect and the exit code 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics: the first half of the time
runs untraced ops, the second half traced ones.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import NOMINAL_S, reference_seconds
from measures import ok_frac
from tracer import LAYER_METRICS, OP, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_OPS = 3
MIN_OPS_PER_TRACE_PHASE = 2
DEFAULT_SEED = 20250801

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "ok_frac": "frac",
    "quality": "score",
    "rank_quality": "score",
}
# The workload-specific names of op_s, quality and the rank correlation
# behind rank_quality, printed in the summary line.
ALIASES = {
    "desk-unit": {"op_s": "model_s", "quality": "acc_mean", "rho": "scc_mean"},
    "generate-sweep": {"op_s": "generate_and_reload_s", "quality": "reload_perf_r2", "rho": "reload_perf_rho"},
    "analyze-sweep": {"op_s": "analyze_s", "quality": "stage1_r2", "rho": "stage1_rho"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ALIASES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tree_hash(files: list[Path], base: Path) -> str:
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(base)).encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def machine(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain checkout without git metadata
    src = hashlib.sha256()
    for path in sorted((SRC / "modperf").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def speed(before: float, after: float) -> float:
    """Factor that turns a wall time into seconds at the nominal machine speed."""
    return NOMINAL_S * 2.0 / (before + after)


def timed_setups(args, workdir: Path, refs: list[float]) -> tuple[list[float], list[str], Path]:
    """Run the set-up in fresh interpreters; return normalised wall times,
    input hashes and the directory of the last one, which the ops use."""
    walls, hashes = [], []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(target)]
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms and
        # quantises the measured time.
        subprocess.run(cmd, check=True)
        wall = time.perf_counter() - t0
        refs.append(reference_seconds())
        walls.append(wall * speed(refs[-2], refs[-1]))
        files = sorted(p for p in target.rglob("*") if p.is_file())
        hashes.append(tree_hash(files, target))
    # The trees are removed with the work directory at exit, not here: file
    # creation right after deleting thousands of files ran 4x slower.
    return walls, hashes, target


def measure(workload, seconds: float, min_ops: int, refs: list[float], tracer=None) -> list[dict]:
    """Repeat the op until `seconds` of wall time are used, at least min_ops
    times, timing the reference computation after each op; refs[-1] must be
    the reference time taken just before the first op."""
    ops = []
    start = time.perf_counter()
    while True:
        workload.reset()
        gc.collect()
        record = {"traced": tracer is not None}
        root = tracer.open(OP) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            record["extra"] = workload.op(tracer)
        except Exception:
            record["error"] = traceback.format_exc()
        record["wall"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            record["spans"] = tracer.take()
        ops.append(record)
        if "error" in record:
            return ops
        refs.append(reference_seconds())
        record["speed"] = speed(refs[-2], refs[-1])
        record["problems"], record["items"], record["failed_items"] = workload.check()
        files = workload.output_files()
        record["hash"] = tree_hash(files, workload.out)
        record["bytes"] = sum(p.stat().st_size for p in files)
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed * (len(ops) + 1) / len(ops) > seconds:
            return ops


def run(args, workdir: Path) -> tuple[dict, list[str]]:
    from workloads import WORKLOADS

    refs = [reference_seconds()]
    setup_walls, setup_hashes, inputs = timed_setups(args, workdir, refs)
    workload = WORKLOADS[args.workload](args.seed, inputs)
    workload.make_inputs()
    problems = []
    if len(set(setup_hashes)) != 1:
        problems.append("set-up wrote different inputs on different runs")

    if args.trace:
        ops = measure(workload, args.seconds / 2, MIN_OPS_PER_TRACE_PHASE, refs)
        if "error" not in ops[-1]:
            tracer = Tracer()
            tracer.install()
            try:
                ops += measure(workload, args.seconds / 2, MIN_OPS_PER_TRACE_PHASE, refs, tracer)
            finally:
                tracer.uninstall()
    else:
        ops = measure(workload, args.seconds, MIN_OPS, refs)

    good = [op for op in ops if "error" not in op]
    for i, op in enumerate(ops):
        if "error" in op:
            problems.append(f"op {i} raised:\n{op['error']}")
        else:
            problems += [f"op {i}: {p}" for p in op["problems"]]
    if len({op["hash"] for op in good}) > 1:
        problems.append("ops wrote different output bytes (determinism contract)")
    failed_ops = sum(1 for op in ops if "error" in op or op["failed_items"])
    result = {"correct": not problems, "attempted": len(ops), "failed": failed_ops, "metrics": {}}
    if problems:
        return result, problems

    walls = [op["wall"] * op["speed"] for op in good if not op["traced"]]
    summary = {
        "ops": len(ops),
        "op_wall_s": [round(op["wall"], 4) for op in good],
        "reference_s": [round(r, 4) for r in refs],
        "normalised_setup_s": [round(w, 4) for w in setup_walls],
    }
    if args.trace:
        traced = [op for op in good if op["traced"]]
        per_op = []
        for op in traced:
            m = layer_metrics(op["spans"], op["wall"])
            for name, unit in LAYER_METRICS.items():
                if unit in ("s", "us"):
                    m[name] *= op["speed"]
            per_op.append(m)
        values = {name: statistics.median(m[name] for m in per_op) for name in LAYER_METRICS}
        values["trace.overhead_frac"] = (
            statistics.median(op["wall"] * op["speed"] for op in traced) / statistics.median(walls)
            - 1.0
        )
        result["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()
        }
    else:
        quality, rho = workload.quality()
        values = {
            "setup_s": statistics.median(setup_walls),
            "op_s": statistics.median(walls) / workload.op_count,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "out_mb": good[0]["bytes"] / 1e6,
            "ok_frac": ok_frac(
                sum(op["failed_items"] for op in good), sum(op["items"] for op in good)
            ),
            "quality": quality,
            # A rank correlation can be 0 or negative; (1 + rho) / 2 maps it
            # onto [0, 1], where only a perfectly reversed ranking reads 0.
            "rank_quality": (1.0 + rho) / 2.0,
            "rho": rho,
        }
        result["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
        for key in good[0]["extra"]:
            summary[key] = statistics.median(op["extra"][key] * op["speed"] for op in good)
        for name, alias in ALIASES[args.workload].items():
            summary[alias] = values[name]
    print("# summary " + json.dumps(summary))
    return result, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modperf" / "__init__.py").is_file():
        print(f"error: modperf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, Path(args.setup_only)).prepare()
        return 0

    print("# machine " + json.dumps(machine(args.seed)))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, problems = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
