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
    forest seed = derive(model_seed, target, *rows,    # forest bootstraps
                         min_samples_leaf, feature_subsample.hex())
    search seed = derive(global_seed, "search")        # shared candidate draws
    cv seed     = derive(trial_seed, "cv")             # shared fold splits

A forest's target is an IV's code or "perf" and its rows are ("cv", fold) or
("final",). The forest seed names the problem and the candidate's family,
never the level or the candidate's index, so levels that pose one problem
(the perf forest on the measured IVs, an IV with the same parents) share one
forest.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reporting
from .dataset import load_dataset, sample_dataset, save_dataset, training_prefix
from .hardness_opportunity import (
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
    StructuralAspects,
    derive_knowledge,
    generate_graph,
    graph_from_json,
    graph_to_json,
    sample_aspects,
    scale_aspects,
)
from .jsonio import compact_json
from .knowledge_models import LEVELS as ALL_LEVELS
from .knowledge_models import SystemShape, level_curves, make_search
# perfbench/tracer.py wraps make_factory under this name (ROADMAP item 2)
from .knowledge_models import make_factory  # noqa: F401
from .learners import CVSpec, SearchBudget, alpha_grid, enumerate_candidates, forest_search_space, mse
from .seeds import derive
from .semantics import semantics_to_json, synthesize_semantics
from .stats import (
    ASPECT_FEATURES,
    classify_and_test,
    group_importance,
    matrix_hypothesis_tests,  # noqa: F401  (as build_matrix)
    permutation_importance,
    shapley_importance,
    two_stage_pipeline,
)

MIN_PIPELINE_RECORDS = 10


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
    cv_folds: int = 2
    alpha_ci: float = 0.05
    test_alpha: float = 0.05
    hardness_mode: str = "fixed"
    iv_to_iv_p: float = 0.15
    noise_fraction: float = 0.05
    forest_scale: str = "desk"
    lasso_degrees: tuple[int, ...] = (1, 2, 3)
    lasso_alpha_steps: int = 40
    use_measured_hardness: bool = False
    shapley_samples: int = 200
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
        unknown = set(self.levels) - set(ALL_LEVELS)
        if unknown:
            raise ValueError(f"unknown levels: {sorted(unknown)}")
        unknown_metrics = set(self.metrics) - {"acc", "scc"}
        if unknown_metrics:
            raise ValueError(f"unknown metrics: {sorted(unknown_metrics)}")
        if self.hardness_mode not in ("fixed", "empirical"):
            raise ValueError(f"hardness_mode must be fixed|empirical, got {self.hardness_mode}")
        if self.hardness_mode == "empirical" and self.n_systems * self.trials < 4:
            raise ValueError(
                "hardness_mode empirical needs n_systems * trials >= 4 units for its quartiles, "
                f"got {self.n_systems * self.trials}"
            )
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
        doc["aspect_ranges"] = dataclasses.asdict(self.aspect_ranges)
        return doc

    @staticmethod
    def from_dict(doc: dict, **runtime) -> "ExperimentConfig":
        doc = dict(doc)
        ranges = doc.pop("aspect_ranges", None)
        kwargs: dict = {}
        for key, value in doc.items():
            if isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        if ranges is not None:
            kwargs["aspect_ranges"] = AspectRanges(
                **{
                    key: tuple(v) if key in ASPECT_FEATURES and isinstance(v, list) else v
                    for key, v in ranges.items()
                }
            )
        kwargs.update(runtime)
        return ExperimentConfig(**kwargs)

    def system_seed(self, s: int) -> int:
        return derive(self.global_seed, "system", s)

    def trial_seed(self, s: int, t: int) -> int:
        return derive(self.system_seed(s), "trial", t)

    def system_id(self, s: int) -> str:
        return f"s{s:04d}"

    def unit_id(self, s: int, t: int) -> str:
        return f"{self.system_id(s)}_t{t:02d}"


def _write(path: Path, text: str):
    """Write `text` to a temporary file next to `path`, then rename it into
    place, so that a crash never leaves a truncated artifact behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump(doc, compact: bool = False) -> str:
    """`indent=2` JSON for the documents people read; `compact_json` for the
    bulk ones: knowledge, curves, hardness, opportunities and stage 1. Every
    stage document is encoded here, so perfbench's `experiment.write` span
    covers them all."""
    return compact_json(doc) if compact else json.dumps(doc, sort_keys=True, indent=2)


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
    artifacts = derive_knowledge(graph)
    _write(system_dir / "graph.json", graph_to_json(graph))
    # each node encoded once: the edge sets hold thousands of endpoints
    code = {n: n.encode() for n in graph.option_nodes() + graph.iv_nodes() + graph.perf_nodes()}
    _write(
        system_dir / "knowledge.json",
        _dump(
            {
                "logical_boundaries": {
                    str(m): {
                        "options": [code[n] for n in opts],
                        "ivs": [code[n] for n in ivs],
                    }
                    for m, (opts, ivs) in artifacts.logical_boundaries.items()
                },
                "influence_edges": sorted(
                    f"{code[a]}->{code[b]}" for a, b in artifacts.influence_edges
                ),
                "potential_influence_edges": sorted(
                    f"{code[a]}->{code[b]}" for a, b in artifacts.potential_influence_edges
                ),
            },
            compact=True,
        ),
    )

    trials = []
    for t in range(config.trials):
        trial_seed = config.trial_seed(s, t)
        trial_dir = system_dir / f"t{t:02d}"
        semantics = synthesize_semantics(graph, trial_seed, config.noise_fraction)
        _write(trial_dir / "semantics.json", semantics_to_json(semantics))
        dataset = sample_dataset(
            semantics,
            trial_seed,
            n_train=config.n_train,
            n_test=config.n_test,
            train_sizes=config.train_sizes,
            system_id=config.unit_id(s, t),
        )
        save_dataset(dataset, trial_dir, semantics_file="semantics.json")
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
    indices = list(range(config.n_systems))
    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            entries = list(pool.map(_generate_worker, [(config, s) for s in indices]))
    else:
        entries = [_generate_one(config, s) for s in indices]
    entries.sort(key=lambda e: e["index"])
    _write(out / "manifest.json", _dump({"systems": entries}))
    return entries


def _generate_worker(args):
    config, s = args
    return _generate_one(config, s)


# ------------------------------------------------------------------- model


def _prefix_sha(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.config.tobytes())
    return digest.hexdigest()[:16]


def _curve_names(config: ExperimentConfig) -> dict[tuple[str, str], str]:
    """The file name of each (level, metric) curve in a unit's curve directory."""
    return {
        (level, metric): f"{level}_{metric}.json"
        for level in config.levels
        for metric in config.metrics
    }


def _curve_paths(config: ExperimentConfig, s: int, t: int) -> dict[tuple[str, str], Path]:
    unit_dir = Path(config.out_dir) / "curves" / config.unit_id(s, t)
    return {key: unit_dir / name for key, name in _curve_names(config).items()}


def _parses(path: Path) -> bool:
    """Whether `path` holds a complete JSON document."""
    try:
        json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return True


def _model_one(config: ExperimentConfig, s: int, t: int) -> dict:
    out = Path(config.out_dir)
    unit = config.unit_id(s, t)
    paths = _curve_paths(config, s, t)
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
    cv = CVSpec(folds=config.cv_folds, shuffle_seed=derive(config.trial_seed(s, t), "cv"))
    space = forest_search_space(
        max(len(shape.options), len(shape.ivs)), scale=config.forest_scale
    )

    model_seed = derive(config.trial_seed(s, t), "model")
    search = make_search(
        model_seed, config.levels, shape, artifacts, budget, cv, space, alpha_ci=config.alpha_ci
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
                "seeds": {
                    "system": config.system_seed(s),
                    "trial": config.trial_seed(s, t),
                    "model": model_seed,
                },
                "budget": config.budget_evaluations,
            }
            _write(paths[(level, metric)], _dump(doc, compact=True))

    fairness = {
        "budget": config.budget_evaluations,
        "candidates": enumerate_candidates(space, budget),
        "cv_folds": config.cv_folds,
        "prefix_sha": {
            str(n): _prefix_sha(training_prefix(dataset, n)) for n in config.train_sizes
        },
        "note": "identical training prefixes, candidate lists, and budgets across levels",
    }
    _write(out / "fairness" / f"{unit}.json", _dump(fairness))
    return {"unit": unit}


def _model_worker(args):
    config, s, t = args
    try:
        return _model_one(config, s, t)
    except Exception as exc:  # isolate unit failures; analyze reports the gap
        return {"unit": config.unit_id(s, t), "error": f"{type(exc).__name__}: {exc}"}


def run_model(config: ExperimentConfig) -> list[dict]:
    """Fit every (system, trial, level) and persist efficacy curves."""
    _check_resume(config)
    out = Path(config.out_dir)
    units = [(config, s, t) for s in range(config.n_systems) for t in range(config.trials)]
    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            docs = list(pool.map(_model_worker, units))
    else:
        docs = [_model_worker(u) for u in units]
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


def _load_units(config: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """One entry per (system, trial) with at least one curve file, holding
    its parsed curve docs by (level, metric); every unit missing one or more
    curve files is listed as a gap, and a unit missing all is left out of
    the entries. File names are joined as strings, once per unit."""
    names = _curve_names(config)
    curves = os.path.join(config.out_dir, "curves")
    units, missing = [], []
    for s in range(config.n_systems):
        for t in range(config.trials):
            unit_dir = os.path.join(curves, config.unit_id(s, t), "")
            loaded = {}
            for key, name in names.items():
                try:
                    with open(unit_dir + name) as f:
                        loaded[key] = json.loads(f.read())
                except FileNotFoundError:
                    continue
            if loaded:
                units.append(
                    {
                        "unit": config.unit_id(s, t),
                        "system": config.system_id(s),
                        "trial": t,
                        "curves": loaded,
                    }
                )
            if len(loaded) < len(names):
                missing.append(config.unit_id(s, t))
    return units, missing


def _curve_table(units: list[dict], level: str, metric: str, sizes: tuple[int, ...]):
    """The (units x sizes) table of one level's curves and a mask of the
    units whose curve is complete; other rows hold zeros."""
    values = np.zeros((len(units), len(sizes)))
    complete = np.zeros(len(units), dtype=bool)
    for i, unit in enumerate(units):
        doc = unit["curves"].get((level, metric))
        curve = _curve_from_doc(doc) if doc else None
        if curve is None:
            continue
        doc_sizes, efficacies = curve
        if tuple(doc_sizes) != sizes:
            raise ValueError(
                f"unit {unit['unit']}, level {level}, metric {metric}: training sizes "
                f"{doc_sizes} differ from the config's {list(sizes)}"
            )
        values[i] = efficacies
        complete[i] = True
    return CurveTable(metric, sizes, values), complete


def _metric_rows(config: ExperimentConfig, units: list[dict], metric: str, scaled: dict, gaps: dict):
    """Hardness rows, opportunity rows and stage-1 aspect records of one
    metric, in unit order; incomplete curves are appended to `gaps`.
    `scaled` maps each system to its scaled aspect vector."""
    sizes = tuple(sorted(config.train_sizes))
    opportunity_levels = [lv for lv in MATRIX_LEVELS if lv in config.levels]
    tables = {
        lv: _curve_table(units, lv, metric, sizes) for lv in ("null", "ideal", *opportunity_levels)
    }
    null, has_null = tables["null"]
    ideal, has_ideal = tables["ideal"]

    rows = np.flatnonzero(has_null)
    score = hardness(null.take(rows))
    fixed_levels = classify_hardness(score.value, HardnessMode.FIXED_RANGE)
    hardness_rows, aspect_records = [], {}
    for i, value, fixed_level in zip(rows.tolist(), score.value.tolist(), fixed_levels):
        unit = units[i]
        hardness_rows.append(
            {
                "unit": unit["unit"],
                "system": unit["system"],
                "trial": unit["trial"],
                "value": value,
                "scaling_constant": score.scaling_constant,
                "fixed_level": fixed_level,
            }
        )
        aspect_records[unit["unit"]] = (scaled[unit["system"]], value)

    scored = {}  # (unit index, level) -> (value, gaps, fillings)
    for level in opportunity_levels:
        table, has_level = tables[level]
        rows = np.flatnonzero(has_null & has_ideal & has_level)
        opp = opportunity(null.take(rows), ideal.take(rows), table.take(rows), level)
        entries = zip(opp.value.tolist(), opp.gap.tolist(), opp.filling.tolist())
        scored.update(((i, level), entry) for i, entry in zip(rows.tolist(), entries))
    opportunity_rows = []
    incomplete = gaps["incomplete_curves"]
    for i, unit in enumerate(units):
        unit_id = unit["unit"]
        if not has_null[i]:
            incomplete.append({"unit": unit_id, "metric": metric, "level": "null"})
            continue
        if not has_ideal[i]:
            if "ideal" in config.levels:
                incomplete.append({"unit": unit_id, "metric": metric, "level": "ideal"})
            continue
        for level in opportunity_levels:
            if (i, level) not in scored:
                incomplete.append({"unit": unit_id, "metric": metric, "level": level})
                continue
            value, gap, filling = scored[(i, level)]
            opportunity_rows.append(
                {
                    "unit": unit_id,
                    "level": level,
                    "value": value,
                    "per_size": [
                        {"n": n, "gap": g, "filling": f} for n, g, f in zip(sizes, gap, filling)
                    ],
                }
            )
    return hardness_rows, opportunity_rows, aspect_records


def run_analyze(config: ExperimentConfig) -> dict:
    """Hardness, opportunities, stage-1 aspect regression with importances,
    and the matrix plus hypothesis battery, one set per metric.

    Each (metric, level) is scored as one curve table. Stage 1 of every
    metric with enough units runs in one `two_stage_pipeline` call, on folds
    drawn over systems."""
    out = Path(config.out_dir)
    analysis = out / "analysis"
    units, missing_units = _load_units(config)
    gaps: dict = {"missing_units": missing_units, "incomplete_curves": [], "notes": []}
    manifest = json.loads((out / "manifest.json").read_text())
    scaled = {
        e["system"]: scale_aspects(
            StructuralAspects(
                option_count=int(e["aspects"]["option_count"]),
                p_w=e["aspects"]["p_w"],
                mu_a=e["aspects"]["mu_a"],
                sigma_a=e["aspects"]["sigma_a"],
                module_count=int(e["aspects"]["module_count"]),
                iv_per_module=int(e["aspects"]["iv_per_module"]),
                perf_count=int(e["aspects"]["perf_count"]),
            ),
            config.aspect_ranges,
        )
        for e in manifest["systems"]
    }
    systems = {unit["unit"]: unit["system"] for unit in units}
    mode = HardnessMode(config.hardness_mode)

    rows = {}
    for metric in config.metrics:
        rows[metric] = _metric_rows(config, units, metric, scaled, gaps)
        hardness_rows, opportunity_rows, _ = rows[metric]
        _write(analysis / f"hardness_{metric}.json", _dump(hardness_rows, compact=True))
        _write(analysis / f"opportunities_{metric}.json", _dump(opportunity_rows, compact=True))

    opportunity_records = {
        metric: [(r["unit"], r["level"], r["value"]) for r in rows[metric][1]]
        for metric in config.metrics
    }
    staged = {
        metric: aspect_records
        for metric, (_, _, aspect_records) in rows.items()
        if len(aspect_records) >= MIN_PIPELINE_RECORDS
        and len({systems[u] for u in aspect_records}) >= 2
    }
    results = {}
    if staged:
        results = two_stage_pipeline(
            staged,
            {metric: opportunity_records[metric] for metric in staged},
            {m: CVSpec(folds=5, shuffle_seed=derive(config.global_seed, "stage1", m)) for m in staged},
            degrees=config.lasso_degrees,
            alphas=alpha_grid(config.lasso_alpha_steps),
            hardness_mode=mode,
            alpha=config.test_alpha,
            use_measured_hardness=config.use_measured_hardness,
            systems=systems,
        )

    summary = {"metrics": {}}
    for metric in config.metrics:
        hardness_rows, opportunity_rows, aspect_records = rows[metric]
        if metric in results:
            result = results[metric]
            matrix, tests = result.matrix, result.tests
            X = np.asarray([aspect_records[i][0] for i in aspect_records], dtype=float)
            y = np.asarray([aspect_records[i][1] for i in aspect_records], dtype=float)
            perm = permutation_importance(
                result.model, X, y, mse,
                repeats=config.importance_repeats,
                seed=derive(config.global_seed, "perm", metric),
                feature_names=list(ASPECT_FEATURES),
            )
            shap, _ = shapley_importance(
                result.model, X, y, mse,
                samples=config.shapley_samples,
                seed=derive(config.global_seed, "shapley", metric),
                feature_names=list(ASPECT_FEATURES),
            )
            stage1_doc = {
                "metric": metric,
                "chosen_degree": result.model.params.degree,
                "chosen_alpha": result.model.params.alpha,
                "converged": result.model.converged,
                "coefficients": result.model.coefficient_map(),
                "importance_lasso": result.importance.weights,
                "importance_permutation": group_importance(perm).weights,
                "importance_shapley": group_importance(shap).weights,
                "hardness_source": "measured" if config.use_measured_hardness else "predicted",
                "hardness_by_unit": {
                    k: {"value": v, "level": lv} for k, (v, lv) in result.hardness_by_system.items()
                },
            }
        else:
            if len(aspect_records) < MIN_PIPELINE_RECORDS:
                gaps["notes"].append(
                    f"{metric}: only {len(aspect_records)} units; stage-1 regression skipped, "
                    "matrix built from measured hardness"
                )
            else:
                gaps["notes"].append(
                    f"{metric}: all {len(aspect_records)} units are trials of one system; "
                    "stage-1 regression skipped, matrix built from measured hardness"
                )
            by_unit, matrix, tests = classify_and_test(
                {r["unit"]: r["value"] for r in hardness_rows},
                opportunity_records[metric],
                metric=metric,
                hardness_mode=mode,
                alpha=config.test_alpha,
            )
            stage1_doc = {
                "metric": metric,
                "skipped": True,
                "hardness_source": "measured",
                "hardness_by_unit": {k: {"value": v, "level": lv} for k, (v, lv) in by_unit.items()},
            }

        _write(analysis / f"stage1_{metric}.json", _dump(stage1_doc, compact=True))
        _write(analysis / f"matrix_{metric}.json", reporting.matrix_to_json(matrix))
        _write(analysis / f"matrix_{metric}.csv", reporting.matrix_to_csv(matrix))
        _write(analysis / f"opportunity_samples_{metric}.csv", reporting.samples_to_csv(matrix))
        _write(analysis / f"heatmap_{metric}.svg", reporting.heatmap_svg(matrix))
        _write(analysis / f"tests_{metric}.json", reporting.tests_to_json(tests))
        _write(analysis / f"tests_{metric}.csv", reporting.tests_to_csv(tests))
        summary["metrics"][metric] = {
            "units": len(hardness_rows),
            "opportunity_rows": len(opportunity_rows),
            "tests": len(tests),
            "significant": sum(1 for t in tests if t.significant),
            "skipped_tests": sum(1 for t in tests if t.skipped),
        }

    _write(analysis / "gaps.json", _dump(gaps))
    _write(analysis / "summary.json", _dump(summary))
    return summary


# ------------------------------------------------------------------ report


def run_report(config: ExperimentConfig) -> str:
    """Human-readable markdown digest of the analysis artifacts."""
    out = Path(config.out_dir)
    analysis = out / "analysis"
    lines = ["# Experiment report", ""]
    summary_path = analysis / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError("run the analyze stage before report")
    summary = json.loads(summary_path.read_text())
    for metric, info in summary["metrics"].items():
        lines.append(f"## Metric: {metric}")
        lines.append("")
        lines.append(
            f"- units analyzed: {info['units']}, opportunity rows: {info['opportunity_rows']}"
        )
        lines.append(
            f"- hypothesis tests: {info['tests']} "
            f"({info['significant']} significant, {info['skipped_tests']} skipped)"
        )
        stage1 = json.loads((analysis / f"stage1_{metric}.json").read_text())
        if not stage1.get("skipped"):
            lines.append(f"- stage-1 lasso: degree {stage1['chosen_degree']}, "
                         f"alpha {stage1['chosen_alpha']:.6g}")
            importances = stage1["importance_lasso"]
            ranked = sorted(importances.items(), key=lambda kv: -kv[1])
            lines.append("- aspect importance (lasso): "
                         + ", ".join(f"{k}={v:.3f}" for k, v in ranked))
        matrix = reporting.matrix_from_json((analysis / f"matrix_{metric}.json").read_text())
        lines.append("")
        lines.append("| knowledge \\ hardness | low | medium | high |")
        lines.append("|---|---|---|---|")
        for level in MATRIX_LEVELS:
            cells = []
            for hardness_level in ("low", "medium", "high"):
                cell = matrix.cell(level, hardness_level)
                cells.append("-" if cell.empty else f"{cell.mean:.3f} (n={cell.count})")
            lines.append(f"| {level} | {cells[0]} | {cells[1]} | {cells[2]} |")
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
