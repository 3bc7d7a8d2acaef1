"""The three workloads: inputs made from a seed, one timed op, and its checks.

Each workload keeps everything under its own work directory: ``prepare``
is the program's set-up (timed), ``make_inputs`` writes inputs that the
harness itself synthesises (not timed: it is not modperf's work), ``reset``
removes what an op writes, ``op`` runs the op once, and ``check`` validates
the op's output and counts the items it attempted and failed. ``quality``
gives the two quality guards of the output, which are the same for every op
of a run because every op must write byte-identical output.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

from measures import r2, spearman

from modperf import dataset, experiment
from modperf.experiment import ExperimentConfig
from modperf.influence_graph import AspectRanges, sample_aspects
from modperf.learners import SearchBudget, enumerate_candidates, forest_search_space
from modperf.seeds import derive
from modperf.semantics import Evaluator, semantics_from_json

DEFAULT_SEED = 20250801
METRICS = ("acc", "scc")


def _stage(tracer, name: str, fn, *args):
    if tracer is None:
        return fn(*args)
    index = tracer.open(name)
    try:
        return fn(*args)
    finally:
        tracer.close(index)


class Workload:
    name = ""
    outputs: tuple[str, ...] = ()  # paths under out/ that one op writes

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = Path(workdir) / "out"
        self.config = self.make_config()

    def make_config(self) -> ExperimentConfig:
        raise NotImplementedError

    @property
    def op_count(self) -> int:
        """How many units op_s divides one op's wall time by."""
        return 1

    def prepare(self):
        self.out.mkdir(parents=True, exist_ok=True)

    def make_inputs(self):
        pass

    def reset(self):
        for rel in self.outputs:
            path = self.out / rel
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()

    def output_files(self) -> list[Path]:
        files = []
        for rel in self.outputs:
            path = self.out / rel
            if path.is_dir():
                files += [p for p in path.rglob("*") if p.is_file()]
            elif path.exists():
                files.append(path)
        return sorted(files)


# ------------------------------------------------------------------ desk-unit

DESK_RANGES = AspectRanges(
    option_count=(8, 8), module_count=(3, 3), p_w=(0.75, 0.75), mu_a=(0.2, 0.2), sigma_a=(0.2, 0.2)
)
DESK_SIZES = (20, 50)
DESK_N_TEST = 100
DESK_UNITS = 2
# Hyperparameter candidates are drawn from the global seed. They are held at
# the draw of the default seed, so that every workload seed times the same
# forest sizes and the seed varies only the systems and their data.


def desk_global_seed(seed: int) -> int:
    """First seed derived from `seed` whose candidate draw matches the default seed's."""
    n_features = DESK_RANGES.option_count[0] * DESK_RANGES.module_count[0]
    space = forest_search_space(n_features, scale="desk")
    want = enumerate_candidates(space, SearchBudget(2, derive(DEFAULT_SEED, "search")))
    for k in range(1 << 16):
        candidate = derive(seed, "perfbench", k)
        if enumerate_candidates(space, SearchBudget(2, derive(candidate, "search"))) == want:
            return candidate
    raise RuntimeError(f"no global seed with the reference candidates for seed {seed}")


class DeskUnit(Workload):
    """run_model on DESK_UNITS reduced desk units; all five levels, both metrics."""

    name = "desk-unit"
    outputs = ("curves", "fairness", "model_errors.json")

    def make_config(self):
        return ExperimentConfig(
            global_seed=desk_global_seed(self.seed),
            n_systems=DESK_UNITS,
            trials=1,
            train_sizes=DESK_SIZES,
            n_train=max(DESK_SIZES),
            n_test=DESK_N_TEST,
            aspect_ranges=DESK_RANGES,
            out_dir=str(self.out),
        )

    @property
    def op_count(self) -> int:
        return self.config.n_systems

    def prepare(self):
        experiment.run_generate(self.config)

    def op(self, tracer=None) -> dict:
        docs = _stage(tracer, "experiment.run_model", experiment.run_model, self.config)
        errors = [d["error"] for d in docs if "error" in d]
        if errors:
            raise RuntimeError(f"run_model failed: {errors}")
        return {}

    def _curves(self) -> dict:
        """(unit, level, metric) -> curve document, for the files that exist."""
        out = {}
        for s in range(self.config.n_systems):
            unit = self.out / "curves" / self.config.unit_id(s, 0)
            for level in self.config.levels:
                for metric in METRICS:
                    path = unit / f"{level}_{metric}.json"
                    if path.exists():
                        out[(s, level, metric)] = json.loads(path.read_text())
        return out

    def check(self) -> tuple[list[str], int, int]:
        problems = []
        curves = self._curves()
        sizes = list(self.config.train_sizes)
        keys = [
            (s, level, metric)
            for s in range(self.config.n_systems)
            for level in self.config.levels
            for metric in METRICS
        ]
        failed = 0
        bounds = {"acc": (0.0, 1.0), "scc": (-1.0, 1.0)}
        for key in keys:
            doc = curves.get(key)
            if doc is None:
                problems.append(f"missing curve {key}")
                failed += len(sizes)
                continue
            if [p["n"] for p in doc["points"]] != sizes:
                problems.append(f"{key}: sizes {[p['n'] for p in doc['points']]}")
            lo, hi = bounds[key[2]]
            for p in doc["points"]:
                if p["error"] is not None or p["p"] is None:
                    failed += 1
                elif not lo <= p["p"] <= hi:
                    problems.append(f"{key} n={p['n']}: {p['p']} outside [{lo}, {hi}]")
        if failed:
            problems.append(f"{failed} curve points failed")
        for s in range(self.config.n_systems):
            ideal = curves.get((s, "ideal", "acc"), {}).get("points", [{}])[-1].get("p")
            null = curves.get((s, "null", "acc"), {}).get("points", [{}])[-1].get("p")
            if ideal is None or null is None or ideal < null:
                problems.append(f"unit {s}: ideal acc {ideal} < null acc {null} at n={sizes[-1]}")
        return problems, len(keys) * len(sizes), failed

    def quality(self) -> tuple[float, float]:
        """Mean ACC and mean SCC efficacy over every unit, level and size."""
        curves = self._curves()
        acc, scc = (
            float(np.mean([p["p"] for key, doc in curves.items() if key[2] == metric for p in doc["points"]]))
            for metric in METRICS
        )
        return acc, scc


# ------------------------------------------------------------- generate-sweep

GEN_RANGES = AspectRanges(
    option_count=(10, 10), module_count=(12, 12), p_w=(0.75, 0.75), mu_a=(0.2, 0.2), sigma_a=(0.2, 0.2)
)
GEN_SYSTEMS = 3
GEN_N = 1000


class GenerateSweep(Workload):
    """run_generate on a batch of systems, then load_dataset on every trial written."""

    name = "generate-sweep"
    outputs = ("config.json", "manifest.json", "systems")

    def make_config(self):
        return ExperimentConfig(
            global_seed=self.seed,
            n_systems=GEN_SYSTEMS,
            trials=1,
            n_train=GEN_N,
            n_test=GEN_N,
            aspect_ranges=GEN_RANGES,
            out_dir=str(self.out),
        )

    @property
    def op_count(self) -> int:
        return self.config.n_systems

    def _trial_dirs(self, entries) -> list[Path]:
        return [
            self.out / "systems" / e["system"] / t["dir"] for e in entries for t in e["trials"]
        ]

    def op(self, tracer=None) -> dict:
        t0 = time.perf_counter()
        entries = _stage(tracer, "experiment.run_generate", experiment.run_generate, self.config)
        t1 = time.perf_counter()
        dirs = self._trial_dirs(entries)
        self.datasets = [dataset.load_dataset(d) for d in dirs]  # module lookup, so tracing sees it
        t2 = time.perf_counter()
        return {"load_s": (t2 - t1) / len(dirs), "generate_s": (t1 - t0) / self.config.n_systems}

    def check(self) -> tuple[list[str], int, int]:
        problems = []
        manifest = json.loads((self.out / "manifest.json").read_text())
        entries = manifest["systems"]
        attempted = self.config.n_systems
        if len(entries) != attempted:
            problems.append(f"{len(entries)} systems written, {attempted} asked for")
        want_rows = self.config.n_train + self.config.n_test
        for directory, data in zip(self._trial_dirs(entries), self.datasets):
            meta = json.loads((directory / "dataset.json").read_text())
            cols = meta["columns"]
            records = data.train + data.test
            if len(records) != want_rows:
                problems.append(f"{directory}: {len(records)} records, want {want_rows}")
            if len({r.config.tobytes() for r in records}) != len(records):
                problems.append(f"{directory}: duplicate configurations")
            widths = {(len(r.config), len(r.iv_values), len(r.perf_values)) for r in records}
            if widths != {(len(cols["options"]), len(cols["ivs"]), len(cols["perfs"]))}:
                problems.append(f"{directory}: column counts {widths} do not match dataset.json")
        return problems, attempted, attempted - len(entries)

    def quality(self) -> tuple[float, float]:
        """R^2 and rank correlation of the reloaded measured performance
        against the noiseless performance recomputed from semantics.json."""
        manifest = json.loads((self.out / "manifest.json").read_text())
        measured, truth = [], []
        for directory, data in zip(self._trial_dirs(manifest["systems"]), self.datasets):
            semantics = semantics_from_json((directory / "semantics.json").read_text())
            bits = np.asarray([r.config for r in data.test], dtype=float)
            _, perf = Evaluator(semantics).noiseless(bits)
            measured += [r.perf_values[0] for r in data.test]
            truth += list(perf[:, 0])
        return r2(measured, truth), spearman(measured, truth)


# -------------------------------------------------------------- analyze-sweep

ANALYZE_UNITS = 400
ANALYZE_ALPHA_STEPS = 3
ANALYZE_DEGREES = (1, 2)


class AnalyzeSweep(Workload):
    """run_analyze + run_report over synthetic curves of ANALYZE_UNITS units."""

    name = "analyze-sweep"
    outputs = ("analysis",)

    def make_config(self):
        return ExperimentConfig(
            global_seed=self.seed,
            n_systems=ANALYZE_UNITS,
            trials=1,
            hardness_mode="empirical",
            lasso_degrees=ANALYZE_DEGREES,
            lasso_alpha_steps=ANALYZE_ALPHA_STEPS,
            out_dir=str(self.out),
        )

    def make_inputs(self):
        """manifest.json with sampled aspects and one curve file per unit,
        level and metric. The null curve's loss grows with module and option
        count, so stage 1 has signal; the other levels fill part of the gap
        to the ideal curve. The aspects are drawn from the default seed, not
        the workload seed: the lasso's sweep count depends on them and varied
        by 20% between seeds, so the seed draws only the curves (and, through
        the config, the cross-validation folds)."""
        c = self.config
        ranges = c.aspect_ranges
        sizes = np.asarray(c.train_sizes, dtype=float)
        shrink = (sizes[0] / sizes) ** 0.35
        systems = []
        for s in range(c.n_systems):
            aspects = sample_aspects(derive(DEFAULT_SEED, "system", s), ranges)
            systems.append(
                {
                    "system": c.system_id(s),
                    "index": s,
                    "seed": c.system_seed(s),
                    "aspects": aspects.as_feature_dict()
                    | {"iv_per_module": aspects.iv_per_module, "perf_count": aspects.perf_count},
                    "trials": [{"trial": 0, "seed": c.trial_seed(s, 0), "dir": "t00"}],
                }
            )
            rng = np.random.default_rng([self.seed, s])
            m = (aspects.module_count - ranges.module_count[0]) / (ranges.module_count[1] - ranges.module_count[0])
            o = (aspects.option_count - ranges.option_count[0]) / (ranges.option_count[1] - ranges.option_count[0])
            difficulty = float(np.clip(0.15 + 0.5 * m + 0.15 * o + rng.normal(0.0, 0.04), 0.02, 0.9))
            gap = rng.uniform(0.4, 0.8)
            fill = {
                "null": 0.0,
                "partial": rng.uniform(0.1, 0.5),
                "practical": rng.uniform(0.3, 0.7),
                "complete": rng.uniform(0.5, 0.95),
                "ideal": 1.0,
            }
            unit_dir = self.out / "curves" / c.unit_id(s, 0)
            unit_dir.mkdir(parents=True)
            for metric, scale, floor in (("acc", 1.0, 0.0), ("scc", 1.3, -1.0)):
                null = np.maximum(1.0 - scale * difficulty * shrink, floor)
                ideal = null + gap * (1.0 - null)
                for level in c.levels:
                    jitter = rng.normal(0.0, 0.01, size=len(sizes)) if level not in ("null", "ideal") else 0.0
                    values = null + np.clip(fill[level] + jitter, 0.0, 1.0) * (ideal - null)
                    doc = {
                        "system_id": c.unit_id(s, 0),
                        "trial": 0,
                        "level": level,
                        "metric": metric,
                        "points": [
                            {"n": int(n), "p": round(float(p), 6), "error": None}
                            for n, p in zip(c.train_sizes, values)
                        ],
                    }
                    (unit_dir / f"{level}_{metric}.json").write_text(json.dumps(doc, sort_keys=True))
        (self.out / "manifest.json").write_text(json.dumps({"systems": systems}, sort_keys=True))

    def op(self, tracer=None) -> dict:
        _stage(tracer, "experiment.run_analyze", experiment.run_analyze, self.config)
        _stage(tracer, "experiment.run_report", experiment.run_report, self.config)
        return {}

    def check(self) -> tuple[list[str], int, int]:
        problems = []
        analysis = self.out / "analysis"
        summary = json.loads((analysis / "summary.json").read_text())["metrics"]
        gaps = json.loads((analysis / "gaps.json").read_text())
        units = self.config.n_systems * self.config.trials
        attempted = failed = 0
        for metric in METRICS:
            info = summary.get(metric)
            if info is None:
                problems.append(f"no summary for {metric}")
                continue
            attempted += info["tests"]
            failed += info["skipped_tests"]
            if info["tests"] != 27 or info["skipped_tests"]:
                problems.append(f"{metric}: {info['tests']} tests, {info['skipped_tests']} skipped")
            if info["units"] != units or info["opportunity_rows"] != 3 * units:
                problems.append(
                    f"{metric}: {info['units']} units, {info['opportunity_rows']} opportunity rows"
                )
        curves = units * len(self.config.levels) * len(METRICS)
        incomplete = len(gaps["incomplete_curves"]) + len(gaps["missing_units"])
        if incomplete:
            problems.append(f"{incomplete} incomplete curves or missing units")
        if "stage-1 regression skipped" in " ".join(gaps["notes"]):
            problems.append("stage-1 regression skipped")
        return problems, attempted + curves, failed + incomplete

    def quality(self) -> tuple[float, float]:
        """R^2 and rank correlation of stage-1 predicted hardness against
        measured hardness, averaged over the two metrics."""
        analysis = self.out / "analysis"
        fits, ranks = [], []
        for metric in METRICS:
            measured = {
                row["unit"]: row["value"]
                for row in json.loads((analysis / f"hardness_{metric}.json").read_text())
            }
            predicted = json.loads((analysis / f"stage1_{metric}.json").read_text())["hardness_by_unit"]
            units = sorted(measured)
            fits.append(r2([predicted[u]["value"] for u in units], [measured[u] for u in units]))
            ranks.append(spearman([predicted[u]["value"] for u in units], [measured[u] for u in units]))
        return float(np.mean(fits)), float(np.mean(ranks))


WORKLOADS = {w.name: w for w in (DeskUnit, GenerateSweep, AnalyzeSweep)}
