"""End-to-end experiment orchestration: generate, model, analyze, report.

The whole pipeline is a pure function of the experiment configuration:
every random draw flows from the global seed through documented derivation
paths (see seeds.derive), no timestamps enter any artifact, and work units
write only their own files, so reruns produce byte-identical output trees
regardless of parallelism.

Seed derivation paths:
    system_seed = derive(global_seed, "system", s)     # aspects + graph
    trial_seed  = derive(system_seed, "trial", t)      # semantics + dataset
    model_seed  = derive(trial_seed, "model")          # one per unit, all levels
    rows seed   = derive(model_seed, "rows", n)        # every forest's bootstrap
                                                       # rows at training size n
    forest seed = derive(model_seed, target,           # a forest's split keys
                         min_samples_leaf, feature_subsample.hex())
    search seed = derive(global_seed, "search")        # shared candidate draws

A forest's target is an IV's code or "perf". Every forest of a unit's
search at one training size draws the same bootstrap rows, so its trees
leave the same rows out (the out-of-bag rows that score the candidates).
The forest seed names the problem and the candidate's family, never the
level or the candidate's index, so levels that pose one problem (the perf
forest on the measured IVs, an IV with the same parents) share one forest.

Each fact is written once. A unit's curve file per (level, metric),
`curves/<unit>/<level>_<metric>.json`, holds `system_id` (the unit id),
`trial`, `level`, `metric` and `points`; its seeds and budget are not
stored, since they follow from `config.json` by the paths above (for
example `derive(config.trial_seed(s, t), "model")`).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reporting
from .dataset import load_dataset, sample_dataset, save_dataset
from .hardness_opportunity import (
    EMPIRICAL_MIN_SCORES,
    HARDNESS_LEVELS,
    CurveTable,
    HardnessMode,
    MATRIX_LEVELS,
    build_matrix,  # noqa: F401  (not called here; perfbench's tracer wraps it under this name)
    classify_hardness,
    hardness,
    opportunity,
)
from .influence_graph import (
    AspectRanges,
    derive_knowledge,
    generate_graph,
    graph_from_json,
    graph_to_json,
    sample_aspects,
    scale_aspects,
)
from .jsonio import compact_json
# perfbench/tracer.py wraps the atomic writer under this name
from .jsonio import write_atomic as _write
from .knowledge_models import LEVELS as ALL_LEVELS
from .knowledge_models import SystemShape, level_curves, make_search
# perfbench/tracer.py wraps make_factory under this name (ROADMAP item 2)
from .knowledge_models import make_factory  # noqa: F401
from .learners import CVSpec, SearchBudget, alpha_grid, forest_search_space, mse
from .seeds import derive
from .semantics import semantics_to_json, synthesize_semantics
from .stats import (
    ASPECT_FEATURES,
    MIN_PIPELINE_RECORDS,
    group_importance,
    matrix_hypothesis_tests,  # noqa: F401  (as build_matrix)
    permutation_importance,
    shapley_importance,
    two_stage_pipeline,
)

@dataclass(frozen=True)
class ExperimentConfig:
    """Counts, seeds, and method knobs for one experiment.

    Desk-scale runs differ from paper-scale (400 systems, 40 trials,
    paper forest space) only in these counts, never in formulas.
    """

    global_seed: int = 20250801
    n_systems: int = 24
    trials: int = 1
    train_sizes: tuple[int, ...] = (20, 50, 100, 200, 500, 1000)
    n_train: int = 1000
    n_test: int = 1000
    metrics: tuple[str, ...] = ("acc", "scc")
    levels: tuple[str, ...] = ALL_LEVELS
    budget_evaluations: int = 2
    alpha_ci: float = 0.05
    test_alpha: float = 0.05
    hardness_mode: str = "fixed"
    iv_to_iv_p: float = 0.15
    noise_fraction: float = 0.05
    forest_scale: str = "desk"
    lasso_degrees: tuple[int, ...] = (1, 2, 3)
    lasso_alpha_steps: int = 40
    use_measured_hardness: bool = False
    importance_repeats: int = 10
    aspect_ranges: AspectRanges = AspectRanges()
    # Runtime-only knobs, excluded from the persisted config so output trees
    # from different target directories stay byte-identical.
    out_dir: str = "out"
    jobs: int = 1
    resume: bool = False

    def __post_init__(self):
        if self.n_systems < 1 or self.trials < 1:
            raise ValueError("n_systems and trials must be positive")
        if not self.train_sizes or max(self.train_sizes) > self.n_train:
            raise ValueError("train_sizes must be non-empty and bounded by n_train")
        if min(self.train_sizes) < 1 or len(set(self.train_sizes)) < len(self.train_sizes):
            raise ValueError(f"train_sizes must be distinct and >= 1, got {self.train_sizes}")
        # Spearman needs two test points to rank; one point scores every metric together
        if self.n_test < (2 if "scc" in self.metrics else 1):
            raise ValueError(f"n_test must be >= 1, and >= 2 with scc, got {self.n_test}")
        for name in ("metrics", "levels"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must be distinct, got {values}")
        unknown = set(self.levels) - set(ALL_LEVELS)
        if unknown:
            raise ValueError(f"unknown levels: {sorted(unknown)}")
        unknown_metrics = set(self.metrics) - {"acc", "scc"}
        if unknown_metrics:
            raise ValueError(f"unknown metrics: {sorted(unknown_metrics)}")
        if self.hardness_mode not in ("fixed", "empirical"):
            raise ValueError(f"hardness_mode must be fixed|empirical, got {self.hardness_mode}")
        if self.hardness_mode == "empirical" and self.n_systems * self.trials < EMPIRICAL_MIN_SCORES:
            raise ValueError(
                f"hardness_mode empirical needs n_systems * trials >= {EMPIRICAL_MIN_SCORES} units "
                f"for its quartiles, got {self.n_systems * self.trials}"
            )
        for name in ("alpha_ci", "test_alpha"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if not 0.0 <= self.iv_to_iv_p <= 1.0:
            raise ValueError(f"iv_to_iv_p must be in [0, 1], got {self.iv_to_iv_p}")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError(f"noise_fraction must be in [0, 1), got {self.noise_fraction}")
        if self.budget_evaluations < 1:
            raise ValueError(f"budget_evaluations must be >= 1, got {self.budget_evaluations}")
        if self.forest_scale not in ("desk", "paper"):
            raise ValueError(f"forest_scale must be desk|paper, got {self.forest_scale!r}")
        if self.lasso_alpha_steps < 1:
            raise ValueError(f"lasso_alpha_steps must be >= 1, got {self.lasso_alpha_steps}")
        if not self.lasso_degrees or not all(1 <= d <= 4 for d in self.lasso_degrees):
            raise ValueError(
                f"lasso_degrees must be non-empty and in [1, 4], got {self.lasso_degrees}"
            )

    _RUNTIME_FIELDS = ("out_dir", "jobs", "resume")

    def persisted_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for name in self._RUNTIME_FIELDS:
            doc.pop(name)
        return doc

    @staticmethod
    def from_dict(doc: dict, **runtime) -> "ExperimentConfig":
        """The config a `persisted_dict` document describes, with runtime
        knobs; a key that names no field, such as one an older version
        wrote, raises ValueError naming it."""
        kwargs = _fields_of(ExperimentConfig, _tuples(doc) | runtime)
        if "aspect_ranges" in kwargs:
            ranges = _fields_of(AspectRanges, _tuples(kwargs["aspect_ranges"]))
            kwargs["aspect_ranges"] = AspectRanges(**ranges)
        return ExperimentConfig(**kwargs)

    def system_seed(self, s: int) -> int:
        return derive(self.global_seed, "system", s)

    def trial_seed(self, s: int, t: int) -> int:
        return derive(self.system_seed(s), "trial", t)

    def system_id(self, s: int) -> str:
        return f"s{s:04d}"

    def unit_id(self, s: int, t: int) -> str:
        return f"{self.system_id(s)}_t{t:02d}"


def _fields_of(cls, kwargs: dict) -> dict:
    """`kwargs`, checked to name only fields of the dataclass `cls`."""
    unknown = sorted(kwargs.keys() - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
    return kwargs


def _tuples(doc: dict) -> dict:
    """`doc` with its JSON lists turned back into the config's tuples."""
    return {key: tuple(v) if isinstance(v, list) else v for key, v in doc.items()}


def _dump(doc, compact: bool = False) -> str:
    """`indent=2` JSON for the documents people read; `compact_json` for the
    bulk ones: curves, hardness, opportunities and stage 1. Every
    stage document is encoded here, so perfbench's `experiment.write` span
    covers them all."""
    return compact_json(doc) if compact else json.dumps(doc, sort_keys=True, indent=2)


def _map_units(config: ExperimentConfig, fn, *indices) -> list:
    """`fn(config, *index)` for each index tuple zipped from `indices`, in
    order: on a pool of `config.jobs` processes, or in this one."""
    args = (itertools.repeat(config), *indices)
    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(fn, *args))
    return list(map(fn, *args))


def _check_resume(config: ExperimentConfig):
    """Refuse to resume a tree that another config wrote: its completed
    units would be kept as if this config had made them."""
    path = Path(config.out_dir) / "config.json"
    if config.resume and path.exists() and path.read_text() != _dump(config.persisted_dict()):
        raise ValueError(f"cannot resume {config.out_dir}: {path} holds another config")


# ---------------------------------------------------------------- generate


def _generate_one(config: ExperimentConfig, s: int) -> dict:
    out = Path(config.out_dir)
    system_dir = out / "systems" / config.system_id(s)
    marker = system_dir / "system.json"
    if config.resume and marker.exists():
        return json.loads(marker.read_text())

    system_seed = config.system_seed(s)
    aspects = sample_aspects(system_seed, config.aspect_ranges)
    graph = generate_graph(aspects, system_seed, config.iv_to_iv_p)
    _write(system_dir / "graph.json", graph_to_json(graph))

    trials = []
    for t in range(config.trials):
        trial_seed = config.trial_seed(s, t)
        trial_dir = system_dir / f"t{t:02d}"
        semantics = synthesize_semantics(graph, trial_seed, config.noise_fraction)
        _write(trial_dir / "semantics.json", semantics_to_json(semantics))
        dataset = sample_dataset(semantics, trial_seed, n_train=config.n_train, n_test=config.n_test)
        save_dataset(dataset, trial_dir)
        trials.append({"trial": t, "seed": trial_seed, "dir": f"t{t:02d}"})

    entry = {
        "system": config.system_id(s),
        "index": s,
        "seed": system_seed,
        "aspects": aspects.as_feature_dict()
        | {"iv_per_module": aspects.iv_per_module, "perf_count": aspects.perf_count},
        "trials": trials,
    }
    _write(marker, _dump(entry))
    return entry


def run_generate(config: ExperimentConfig) -> list[dict]:
    """Produce aspects, graph, semantics, and datasets for every system."""
    _check_resume(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "config.json", _dump(config.persisted_dict()))
    entries = _map_units(config, _generate_one, range(config.n_systems))
    _write(out / "manifest.json", _dump({"systems": entries}))
    return entries


# ------------------------------------------------------------------- model


def _curve_paths(config: ExperimentConfig, unit: str) -> dict[tuple[str, str], str]:
    """The path of each (level, metric) curve file of `unit`, joined as strings."""
    unit_dir = os.path.join(config.out_dir, "curves", unit, "")
    return {
        (level, metric): f"{unit_dir}{level}_{metric}.json"
        for level in config.levels
        for metric in config.metrics
    }


def _read_curve_file(path: str):
    """The JSON document in the curve file at `path`, read as bytes with
    `os.read` (no file object, no text layer, no locale lookup) and parsed
    by one `json.loads`; a file that does not parse raises a ValueError
    that names it."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = b""
        while chunk := os.read(fd, 1 << 16):
            data += chunk
    finally:
        os.close(fd)
    try:
        return json.loads(data.decode())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parses(path: str) -> bool:
    """Whether `path` holds a complete JSON document."""
    try:
        _read_curve_file(path)
    except (OSError, ValueError):
        return False
    return True


def _model_one(config: ExperimentConfig, s: int, t: int) -> dict:
    out = Path(config.out_dir)
    unit = config.unit_id(s, t)
    paths = _curve_paths(config, unit)
    if config.resume and all(_parses(p) for p in paths.values()):
        return {"unit": unit, "resumed": True}

    system_dir = out / "systems" / config.system_id(s)
    graph = graph_from_json((system_dir / "graph.json").read_text())
    artifacts = derive_knowledge(graph)
    dataset = load_dataset(system_dir / f"t{t:02d}")
    shape = SystemShape.from_dataset(dataset)

    budget = SearchBudget(
        evaluations=config.budget_evaluations, seed=derive(config.global_seed, "search")
    )
    space = forest_search_space(
        max(len(shape.options), len(shape.ivs)), scale=config.forest_scale
    )

    model_seed = derive(config.trial_seed(s, t), "model")
    search = make_search(
        model_seed, config.levels, shape, artifacts, budget, space, alpha_ci=config.alpha_ci
    )
    curves = level_curves(search, dataset, config.metrics, config.train_sizes)
    for level, points in curves.items():
        for metric in config.metrics:
            doc = {
                "system_id": unit,
                "trial": t,
                "level": level,
                "metric": metric,
                "points": [
                    {"n": p.n, "p": p.efficacies.get(metric), "error": p.error}
                    for p in points
                ],
            }
            _write(Path(paths[level, metric]), _dump(doc, compact=True))
    return {"unit": unit}


def _model_worker(config: ExperimentConfig, s: int, t: int) -> dict:
    try:
        return _model_one(config, s, t)
    except Exception as exc:  # isolate unit failures; analyze reports the gap
        return {"unit": config.unit_id(s, t), "error": f"{type(exc).__name__}: {exc}"}


def run_model(config: ExperimentConfig) -> list[dict]:
    """Fit every (system, trial, level) and persist efficacy curves."""
    _check_resume(config)
    out = Path(config.out_dir)
    units = itertools.product(range(config.n_systems), range(config.trials))
    docs = _map_units(config, _model_worker, *zip(*units))
    failures = [d for d in docs if "error" in d]
    if failures:
        _write(out / "model_errors.json", _dump(failures))
    else:
        (out / "model_errors.json").unlink(missing_ok=True)  # left by an earlier run
    return docs


# ----------------------------------------------------------------- analyze


def _curve_from_doc(doc: dict) -> tuple[list[int], list[float]] | None:
    """The training sizes and efficacies of one curve document, or None when
    a point has an error or no efficacy (an incomplete curve)."""
    sizes, efficacies = [], []
    for p in doc["points"]:
        if p.get("error") or p.get("p") is None:
            return None
        sizes.append(p["n"])
        efficacies.append(p["p"])
    return sizes, efficacies


def _load_units(config: ExperimentConfig) -> tuple[list[dict], dict, list[str]]:
    """The units with at least one curve file, in (system, trial) order; the
    curve table of each configured (level, metric), one row per unit, with
    the mask of its complete rows (incomplete rows hold zeros); and every
    unit missing one or more curve files. Each file is read as bytes and
    parsed by one `json.loads` (`_read_curve_file`; a file that does not
    parse is an error that names it), reduced to its efficacy row at once,
    and its training sizes must be the config's. File paths are joined as
    strings (`_curve_paths`)."""
    sizes = tuple(sorted(config.train_sizes))
    units, missing = [], []
    # one efficacy list or None per unit, for each (level, metric)
    rows = {(level, metric): [] for level in config.levels for metric in config.metrics}
    for s in range(config.n_systems):
        for t in range(config.trials):
            unit = config.unit_id(s, t)
            found = {}
            for (level, metric), path in _curve_paths(config, unit).items():
                try:
                    doc = _read_curve_file(path)
                except FileNotFoundError:
                    continue
                curve = _curve_from_doc(doc) if doc else None
                if curve is not None and tuple(curve[0]) != sizes:
                    raise ValueError(
                        f"unit {unit}, level {level}, metric {metric}: training sizes "
                        f"{curve[0]} differ from the config's {list(sizes)}"
                    )
                found[level, metric] = None if curve is None else curve[1]
            if found:
                units.append({"unit": unit, "system": config.system_id(s), "trial": t})
                for key, row in rows.items():
                    row.append(found.get(key))
            if len(found) < len(rows):
                missing.append(unit)
    blank = [0.0] * len(sizes)
    tables = {}
    for (level, metric), row in rows.items():
        values = np.array([blank if r is None else r for r in row], dtype=float).reshape(-1, len(sizes))
        complete = np.array([r is not None for r in row], dtype=bool)
        tables[level, metric] = CurveTable(metric, sizes, values), complete
    return units, tables, missing


def _metric_rows(config: ExperimentConfig, units: list[dict], tables: dict, metric: str, gaps: dict):
    """Hardness rows, the opportunity document and the (unit, level, value)
    opportunity records of one metric, in unit order, from `_load_units`'
    tables. Each whole table is scored once; a unit reads its row wherever
    its masks say its curves are complete, which gives it the bits it would
    get alone. A level outside the config reads as all incomplete.
    Incomplete curves are appended to `gaps`. In empirical mode, 1 to 3
    units with a complete null curve is an error. The document lists the
    units with an opportunity value, each one's per-size gap once (it does
    not depend on the level), and per level the values and per-size
    fillings, None where the unit's level curve is incomplete."""
    sizes = tuple(sorted(config.train_sizes))
    opportunity_levels = [lv for lv in MATRIX_LEVELS if lv in config.levels]
    absent = CurveTable(metric, sizes, np.zeros((len(units), len(sizes)))), np.zeros(len(units), dtype=bool)
    null, has_null = tables.get(("null", metric), absent)
    ideal, has_ideal = tables.get(("ideal", metric), absent)

    n_null = int(has_null.sum())
    if config.hardness_mode == "empirical" and 0 < n_null < EMPIRICAL_MIN_SCORES:
        raise ValueError(
            f"{metric}: empirical hardness mode needs >= {EMPIRICAL_MIN_SCORES} units with a "
            f"complete null curve, got {n_null}"
        )
    score = hardness(null)
    values = score.value.tolist()
    fixed_levels = classify_hardness(score.value, HardnessMode.FIXED_RANGE)
    scores = {lv: opportunity(null, ideal, tables[lv, metric][0], lv) for lv in opportunity_levels}
    level_values = {lv: opp.value.tolist() for lv, opp in scores.items()}

    hardness_rows, records, scored = [], [], []  # scored: the row of each unit with a record
    incomplete = gaps["incomplete_curves"]
    for i, unit in enumerate(units):
        unit_id = unit["unit"]
        if not has_null[i]:
            incomplete.append({"unit": unit_id, "metric": metric, "level": "null"})
            continue
        row = {"value": values[i], "scaling_constant": score.scaling_constant, "fixed_level": fixed_levels[i]}
        hardness_rows.append(unit | row)
        if not has_ideal[i]:
            incomplete.append({"unit": unit_id, "metric": metric, "level": "ideal"})
            continue
        missing = [level for level in opportunity_levels if not tables[level, metric][1][i]]
        incomplete.extend({"unit": unit_id, "metric": metric, "level": level} for level in missing)
        records += [(unit_id, lv, level_values[lv][i]) for lv in opportunity_levels if lv not in missing]
        if len(missing) < len(opportunity_levels):
            scored.append(i)

    scored = np.array(scored, dtype=np.intp)
    unit_ids = [units[i]["unit"] for i in scored.tolist()]
    columns = {}
    for level, opp in scores.items():
        has_level = tables[level, metric][1][scored].tolist()
        columns[level] = {
            key: [x if h else None for x, h in zip(array[scored].tolist(), has_level)]
            for key, array in (("value", opp.value), ("filling", opp.filling))
        }
    gap = scores[opportunity_levels[0]].gap[scored].tolist() if len(scored) else []
    document = {"metric": metric, "sizes": list(sizes), "units": unit_ids, "gap": gap, "levels": columns}
    return hardness_rows, document, records


def _degenerate_matrix(populated: list[str]) -> str:
    """What a matrix with fewer than two populated hardness columns means:
    every hardness and cross test compares two hardness classes, so none runs."""
    names = ", ".join(populated) or "none"
    return (
        f"the matrix populates {len(populated)} of 3 hardness columns ({names}); "
        "no test compares hardness classes"
    )


def run_analyze(config: ExperimentConfig) -> dict:
    """Hardness, opportunities, stage-1 aspect regression with importances,
    and the matrix plus hypothesis battery, one set per metric.

    Each (metric, level) is scored as one curve table. Every metric reaches
    stage 2 through one `two_stage_pipeline` call, which skips stage 1 for
    a metric with too few units or systems; stage-1 folds are drawn over
    systems. Every metric is scored before the first file is written, so an
    input that empirical mode cannot bin writes nothing."""
    out = Path(config.out_dir)
    analysis = out / "analysis"
    units, tables, missing_units = _load_units(config)
    gaps: dict = {"missing_units": missing_units, "incomplete_curves": [], "notes": []}
    manifest = json.loads((out / "manifest.json").read_text())
    scaled = {e["system"]: scale_aspects(e["aspects"], config.aspect_ranges) for e in manifest["systems"]}

    rows = {metric: _metric_rows(config, units, tables, metric, gaps) for metric in config.metrics}
    tasks = {}
    for metric, (hardness_rows, opportunities, opportunity_records) in rows.items():
        _write(analysis / f"hardness_{metric}.json", _dump(hardness_rows, compact=True))
        _write(analysis / f"opportunities_{metric}.json", _dump(opportunities, compact=True))
        tasks[metric] = (
            [r["unit"] for r in hardness_rows],
            [r["system"] for r in hardness_rows],
            np.array([scaled[r["system"]] for r in hardness_rows], dtype=float),
            np.array([r["value"] for r in hardness_rows], dtype=float),
            opportunity_records,
        )
    results = two_stage_pipeline(
        tasks,
        {m: CVSpec(folds=5, shuffle_seed=derive(config.global_seed, "stage1", m)) for m in tasks},
        degrees=config.lasso_degrees,
        alphas=alpha_grid(config.lasso_alpha_steps),
        hardness_mode=HardnessMode(config.hardness_mode),
        alpha=config.test_alpha,
        use_measured_hardness=config.use_measured_hardness,
    )

    summary = {"metrics": {}}
    for metric, result in results.items():
        _, _, X, y, opportunity_records = tasks[metric]
        model, matrix, tests = result.model, result.matrix, result.tests
        if model is not None:
            perm = permutation_importance(
                model, X, y, mse,
                repeats=config.importance_repeats,
                seed=derive(config.global_seed, "perm", metric),
                feature_names=list(ASPECT_FEATURES),
            )
            shap, _ = shapley_importance(model, X, y, mse, feature_names=list(ASPECT_FEATURES))
            stage1_doc = {
                "chosen_degree": model.params.degree,
                "chosen_alpha": model.params.alpha,
                "converged": model.converged,
                "n_sweeps": model.n_sweeps,
                "cv_solves": {str(d): dataclasses.asdict(c) for d, c in model.cv_solves.items()},
                "coefficients": model.coefficient_map(),
                "importance_lasso": result.importance.weights,
                "importance_permutation": group_importance(perm).weights,
                "importance_shapley": group_importance(shap).weights,
                "hardness_source": "measured" if config.use_measured_hardness else "predicted",
            }
        else:
            n = len(y)
            why = f"only {n} units" if n < MIN_PIPELINE_RECORDS else f"all {n} units are trials of one system"
            gaps["notes"].append(
                f"{metric}: {why}; stage-1 regression skipped, matrix built from measured hardness"
            )
            stage1_doc = {"skipped": True, "hardness_source": "measured"}
        populated = [h for h in HARDNESS_LEVELS if any(not matrix.cell(lv, h).empty for lv in MATRIX_LEVELS)]
        if len(populated) < 2:
            gaps["notes"].append(f"{metric}: {_degenerate_matrix(populated)}")
        stage1_doc["metric"] = metric
        stage1_doc["hardness_by_unit"] = {
            k: {"value": v, "level": lv} for k, (v, lv) in result.hardness_by_unit.items()
        }

        _write(analysis / f"stage1_{metric}.json", _dump(stage1_doc, compact=True))
        _write(analysis / f"matrix_{metric}.json", reporting.matrix_to_json(matrix))
        _write(analysis / f"matrix_{metric}.csv", reporting.matrix_to_csv(matrix))
        _write(analysis / f"opportunity_samples_{metric}.csv", reporting.samples_to_csv(matrix))
        _write(analysis / f"heatmap_{metric}.svg", reporting.heatmap_svg(matrix))
        _write(analysis / f"tests_{metric}.json", reporting.tests_to_json(tests))
        _write(analysis / f"tests_{metric}.csv", reporting.tests_to_csv(tests))
        summary["metrics"][metric] = {
            "units": len(y),
            "opportunity_rows": len(opportunity_records),
            "tests": len(tests),
            "significant": sum(1 for t in tests if t.significant),
            "skipped_tests": sum(1 for t in tests if t.skipped),
            "populated_hardness_columns": populated,
        }

    _write(analysis / "gaps.json", _dump(gaps))
    _write(analysis / "summary.json", _dump(summary))
    return summary


# ------------------------------------------------------------------ report


def run_report(config: ExperimentConfig) -> str:
    """Human-readable markdown digest of the analysis artifacts."""
    analysis = Path(config.out_dir) / "analysis"
    lines = ["# Experiment report", ""]
    summary_path = analysis / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError("run the analyze stage before report")
    summary = json.loads(summary_path.read_text())
    for metric, info in summary["metrics"].items():
        lines += [
            f"## Metric: {metric}",
            "",
            f"- units analyzed: {info['units']}, opportunity rows: {info['opportunity_rows']}",
            f"- hypothesis tests: {info['tests']} "
            f"({info['significant']} significant, {info['skipped_tests']} skipped)",
        ]
        if len(info["populated_hardness_columns"]) < 2:
            lines.append(f"- warning: {_degenerate_matrix(info['populated_hardness_columns'])}")
        stage1 = json.loads((analysis / f"stage1_{metric}.json").read_text())
        if not stage1.get("skipped"):
            lines.append(f"- stage-1 lasso: degree {stage1['chosen_degree']}, "
                         f"alpha {stage1['chosen_alpha']:.6g}")
            importances = stage1["importance_lasso"]
            ranked = sorted(importances.items(), key=lambda kv: -kv[1])
            lines.append("- aspect importance (lasso): "
                         + ", ".join(f"{k}={v:.3f}" for k, v in ranked))
        matrix = reporting.matrix_from_json((analysis / f"matrix_{metric}.json").read_text())
        lines += ["", "| knowledge \\ hardness | low | medium | high |", "|---|---|---|---|"]
        for level in MATRIX_LEVELS:
            cells = (matrix.cell(level, h) for h in HARDNESS_LEVELS)
            row = " | ".join("-" if c.empty else f"{c.mean:.3f} (n={c.count})" for c in cells)
            lines.append(f"| {level} | {row} |")
        lines.append("")
    text = "\n".join(lines) + "\n"
    _write(analysis / "report.md", text)
    return text


def run_all(config: ExperimentConfig) -> dict:
    run_generate(config)
    run_model(config)
    summary = run_analyze(config)
    run_report(config)
    return summary
