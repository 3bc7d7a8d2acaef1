import dataclasses
import hashlib
import itertools
import json
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from modperf import experiment
from modperf.cli import main
from modperf.experiment import ExperimentConfig, run_analyze, run_generate, run_model, run_report
from modperf.hardness_opportunity import MATRIX_LEVELS
from modperf.influence_graph import (
    AspectRanges,
    CausalInfluenceGraph,
    EdgeKind,
    NodeId,
    StructuralAspects,
    graph_from_json,
)
from modperf.jsonio import compact_json
from modperf.semantics import semantics_from_json

TINY = dict(
    global_seed=424242,
    n_systems=2,
    trials=2,
    train_sizes=(20, 40),
    n_train=50,
    n_test=30,
    levels=("null", "partial", "ideal"),
    budget_evaluations=2,
    forest_scale="desk",
)


def _tiny_config(tmp_path, **overrides):
    params = dict(TINY)
    params.update(overrides)
    return ExperimentConfig(out_dir=str(tmp_path / "out"), **params)


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    config = _tiny_config(base)
    run_generate(config)
    run_model(config)
    run_analyze(config)
    run_report(config)
    return config, Path(config.out_dir)


def test_generate_writes_manifest_and_systems(tiny_run):
    config, out = tiny_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["systems"]) == 2
    seeds = {e["seed"] for e in manifest["systems"]}
    assert len(seeds) == 2
    for entry in manifest["systems"]:
        system_dir = out / "systems" / entry["system"]
        assert (system_dir / "graph.json").exists()
        assert not (system_dir / "knowledge.json").exists()
        for trial in entry["trials"]:
            assert (system_dir / trial["dir"] / "train.npy").exists()


def test_model_emits_requested_levels_only(tiny_run):
    config, out = tiny_run
    unit_dir = out / "curves" / "s0000_t00"
    names = sorted(p.name for p in unit_dir.glob("*.json"))
    assert names == sorted(
        f"{level}_{metric}.json"
        for level in ("null", "partial", "ideal")
        for metric in ("acc", "scc")
    )
    doc = json.loads((unit_dir / "null_scc.json").read_text())
    assert doc["level"] == "null" and doc["metric"] == "scc"
    assert [p["n"] for p in doc["points"]] == [20, 40]
    assert all(p["error"] is None for p in doc["points"])
    assert (doc["system_id"], doc["trial"]) == ("s0000_t00", 0)


def test_curve_files_round_trip(tiny_run):
    config, out = tiny_run
    for s in range(config.n_systems):
        for t in range(config.trials):
            unit_dir = out / "curves" / config.unit_id(s, t)
            files = list(unit_dir.glob("*.json"))
            assert len(files) == 6  # 3 levels x 2 metrics
            for path in files:
                doc = json.loads(path.read_text())
                assert (doc["system_id"], doc["trial"]) == (config.unit_id(s, t), t)
                # seeds and budget follow from config.json; no field restates them
                assert set(doc) == {"system_id", "trial", "level", "metric", "points"}
                assert json.loads(json.dumps(doc)) == doc
    assert not (out / "fairness").exists()


def test_analyze_outputs_matrix_tests_heatmap(tiny_run):
    config, out = tiny_run
    analysis = out / "analysis"
    for metric in ("acc", "scc"):
        matrix = json.loads((analysis / f"matrix_{metric}.json").read_text())
        assert len(matrix["cells"]) == 9
        tests = json.loads((analysis / f"tests_{metric}.json").read_text())
        assert len(tests) == 27
        svg = (analysis / f"heatmap_{metric}.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) >= 10  # 9 cells + background
        hardness_rows = json.loads((analysis / f"hardness_{metric}.json").read_text())
        assert len(hardness_rows) == 4
        assert all(0.0 <= r["value"] <= 1.0 for r in hardness_rows)
    gaps = json.loads((analysis / "gaps.json").read_text())
    assert gaps["missing_units"] == []


def test_report_contains_matrix_table(tiny_run):
    config, out = tiny_run
    text = (out / "analysis" / "report.md").read_text()
    assert "Metric: acc" in text and "Metric: scc" in text
    assert "| partial |" in text


def test_resume_skips_completed_units(tiny_run, capsys):
    config, out = tiny_run
    resumed = ExperimentConfig.from_dict(
        json.loads((out / "config.json").read_text()),
        out_dir=str(out), resume=True,
    )
    before = tree_hash(out / "systems")
    run_generate(resumed)
    assert tree_hash(out / "systems") == before
    curves_before = tree_hash(out / "curves")
    docs = run_model(resumed)
    assert all(d.get("resumed") for d in docs)
    assert tree_hash(out / "curves") == curves_before


@pytest.mark.parametrize("stage", ["generate", "model"])
def test_resume_refuses_another_config(tiny_run, tmp_path, capsys, stage):
    """Resuming a tree under another seed exits 1 with the error JSON and
    writes nothing, so no unit of the old config passes for the new one."""
    config, out = tiny_run
    config_file = tmp_path / "config.json"
    config_file.write_text((out / "config.json").read_text())
    before = tree_hash(out)
    argv = [stage, "--config", str(config_file), "--seed", "1", "--out", str(out), "--resume"]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError" and error["stage"] == stage
    assert tree_hash(out) == before


def test_resume_rewrites_unparsable_curve_file(tmp_path):
    config = _tiny_config(tmp_path, n_systems=1, trials=1)
    run_generate(config)
    run_model(config)
    curve = Path(config.out_dir) / "curves" / "s0000_t00" / "partial_acc.json"
    original = curve.read_bytes()
    curve.write_bytes(original[: len(original) // 2])
    docs = run_model(ExperimentConfig.from_dict(
        config.persisted_dict(), out_dir=config.out_dir, resume=True,
    ))
    assert docs == [{"unit": "s0000_t00"}]
    assert curve.read_bytes() == original


def test_resume_reruns_a_unit_whose_curve_file_holds_two_documents(tmp_path):
    config = _tiny_config(tmp_path, n_systems=1, trials=1)
    run_generate(config)
    run_model(config)
    curve = Path(config.out_dir) / "curves" / "s0000_t00" / "null_scc.json"
    original = curve.read_bytes()
    curve.write_bytes(original + b"," + original)
    docs = run_model(ExperimentConfig.from_dict(
        config.persisted_dict(), out_dir=config.out_dir, resume=True,
    ))
    assert docs == [{"unit": "s0000_t00"}]
    assert curve.read_bytes() == original


def test_config_json_omits_runtime_fields(tiny_run):
    config, out = tiny_run
    doc = json.loads((out / "config.json").read_text())
    assert "out_dir" not in doc and "jobs" not in doc and "resume" not in doc
    restored = ExperimentConfig.from_dict(doc, out_dir="elsewhere")
    assert restored.global_seed == config.global_seed
    assert restored.train_sizes == config.train_sizes


def test_full_rerun_is_byte_identical(tmp_path):
    config_a = _tiny_config(tmp_path / "a", n_systems=1, trials=1)
    config_b = _tiny_config(tmp_path / "b", n_systems=1, trials=1)
    for config in (config_a, config_b):
        run_generate(config)
        run_model(config)
        run_analyze(config)
    assert tree_hash(Path(config_a.out_dir)) == tree_hash(Path(config_b.out_dir))


def test_parallel_generation_matches_serial(tmp_path):
    serial = _tiny_config(tmp_path / "serial", n_systems=3, trials=1)
    parallel = ExperimentConfig.from_dict(
        serial.persisted_dict(), out_dir=str(tmp_path / "parallel"), jobs=2,
    )
    run_generate(serial)
    run_generate(parallel)
    assert tree_hash(Path(serial.out_dir)) == tree_hash(Path(parallel.out_dir))
    # the model stage on the pool: the same unit documents and files
    assert run_model(serial) == run_model(parallel)
    assert tree_hash(Path(serial.out_dir)) == tree_hash(Path(parallel.out_dir))


def test_model_records_an_edge_list_graph_as_a_unit_error(tmp_path):
    """A graph.json from an older modperf lists every edge and has no edge
    digest; the model stage refuses it and names the unit and the remedy in
    model_errors.json."""
    config = _tiny_config(tmp_path, n_systems=1, trials=1, levels=("null",))
    run_generate(config)
    path = Path(config.out_dir) / "systems" / "s0000" / "graph.json"
    path.write_text(_indented_graph_to_json(graph_from_json(path.read_text())))
    error = (
        "ValueError: graph document has no edges_sha256; documents that list "
        "every edge are no longer read, so regenerate the system"
    )
    assert run_model(config) == [{"unit": "s0000_t00", "error": error}]
    errors = json.loads((Path(config.out_dir) / "model_errors.json").read_text())
    assert errors == [{"unit": "s0000_t00", "error": error}]


# sha256 of the tree below, as written with compact bulk JSON, one noise
# generator per dataset, graph.json holding the generator's inputs and an
# edge digest, semantics.json holding that graph document, its seed and
# weight digest, no knowledge.json, a config.json without a Shapley sample
# count or fold count, each trial's rows as train.npy/test.npy, and a
# dataset.json of columns, row counts and file names only. The .npy and JSON
# writers must keep every byte; a change that alters output on purpose
# updates this and says so.
GENERATE_TREE_SHA = "37c6c37ee01aa8822d42a407ac668094fa0b7191a6a3618afab0669cc5906f37"


def test_generate_tree_bytes_unchanged(tmp_path):
    config = ExperimentConfig(
        global_seed=8080,
        n_systems=3,
        trials=1,
        train_sizes=(20, 50, 100, 200),
        n_train=200,
        n_test=200,
        aspect_ranges=AspectRanges(option_count=(5, 5), module_count=(4, 4)),
        out_dir=str(tmp_path),
    )
    run_generate(config)
    assert tree_hash(tmp_path) == GENERATE_TREE_SHA


# sha256 of the curves/ tree below, as written with compact curve files
# that hold no seeds or budget, one noise generator per dataset, forests
# whose split keys are seeded by their problem and whose bootstrap rows are
# shared per (unit, size), and candidates chosen by out-of-bag loss. The
# forest engine and the search must keep every byte.
MODEL_TREE_SHA = "88d9246746360e900ca2e35d6f3f3e00c96508c7ab9e46fed4137389310edad9"


def test_model_tree_bytes_unchanged(tmp_path):
    """All five levels, two candidates that differ in every forest setting,
    an odd training size and within-module edge probability at most 0.2, so
    that some IVs fall back to their mean."""
    config = ExperimentConfig(
        global_seed=3112,
        n_systems=2,
        trials=1,
        train_sizes=(21, 50),
        n_train=50,
        n_test=30,
        budget_evaluations=2,
        aspect_ranges=AspectRanges(option_count=(4, 5), module_count=(3, 3), p_w=(0.0, 0.2)),
        out_dir=str(tmp_path),
    )
    run_generate(config)
    assert all("error" not in doc for doc in run_model(config))
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "curves").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(tmp_path)).encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == MODEL_TREE_SHA


# Hand-made analyze inputs: a manifest and curve files, no model stage.
CURVE_SIZES = (20, 50, 100)


def _curve_doc(unit, level, metric, values, sizes=CURVE_SIZES, error_at=None):
    points = [{"n": n, "p": p, "error": None} for n, p in zip(sizes, values)]
    if error_at is not None:
        points[error_at] = {"n": sizes[error_at], "p": None, "error": "CapacityError: too few records"}
    return {"system_id": unit, "trial": 0, "level": level, "metric": metric, "points": points}


def _write_analyze_inputs(config):
    """Curves of every unit with the cases stage 2 must keep apart: an error
    point (s0002 acc practical, and the scc null curves of s0007-s0011, so
    scc has fewer than 10 units and skips stage 1), a missing level file
    (s0003 complete_scc), a missing ideal curve (s0004 ideal_acc), values
    outside [0, 1] (s0005), gaps of 0 and -0.0 (s0006), and a level curve
    above its ideal and below its null (s0001)."""
    out = Path(config.out_dir)
    systems = []
    for s in range(config.n_systems):
        hard = (s * 7 % 13) / 13
        systems.append({
            "system": config.system_id(s),
            "index": s,
            "seed": s,
            "aspects": {
                "option_count": 6 + s % 5, "p_w": 0.5 + 0.03 * s, "mu_a": 0.05 + 0.02 * (s % 4),
                "sigma_a": 0.1, "module_count": 5 + round(30 * hard),
                "iv_per_module": 3, "perf_count": 1,
            },
            "trials": [{"trial": t, "seed": t, "dir": f"t{t:02d}"} for t in range(config.trials)],
        })
        for t in range(config.trials):
            unit = config.unit_id(s, t)
            for metric, floor in (("acc", 0.0), ("scc", -0.3)):
                null = [round(max(0.95 - 0.8 * hard + 0.05 * j - 0.01 * t, floor), 6) for j in range(3)]
                ideal = [round(p + 0.5 * (1.0 - p), 6) for p in null]
                curves = {"null": null, "ideal": ideal}
                for k, level in enumerate(("partial", "practical", "complete")):
                    share = 0.2 + 0.3 * k + 0.01 * (s % 3)
                    curves[level] = [round(a + share * (b - a), 6) for a, b in zip(null, ideal)]
                if s == 1:
                    curves["complete"] = [ideal[0] + 0.1, null[1] - 0.1, ideal[2]]
                if s == 5:
                    curves["null"] = [-0.25, -0.1, 0.2]
                    curves["ideal"] = [1.2, 1.05, 0.9]
                if s == 6:
                    curves["ideal"] = [null[0], ideal[1], ideal[2]]
                    curves["null"][2] = 0.0
                    curves["ideal"][2] = -0.0
                for level, values in curves.items():
                    if (s, t, level, metric) in ((3, 0, "complete", "scc"), (4, 0, "ideal", "acc")):
                        continue
                    error_at = None
                    if (s, level, metric) == (2, "practical", "acc"):
                        error_at = 1
                    if metric == "scc" and level == "null" and 7 <= s <= 11:
                        error_at = 0
                    path = out / "curves" / unit / f"{level}_{metric}.json"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(json.dumps(_curve_doc(unit, level, metric, values, error_at=error_at)))
    (out / "manifest.json").write_text(json.dumps({"systems": systems}))


def _analyze_config(tmp_path, **overrides):
    params = dict(
        global_seed=5150, n_systems=14, trials=1, train_sizes=CURVE_SIZES, n_train=100,
        lasso_degrees=(1, 2), lasso_alpha_steps=4, importance_repeats=2,
        out_dir=str(tmp_path / "out"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


# sha256 of the analysis trees of the hand-made inputs above, fixed mode
# then empirical mode, with compact hardness, columnar opportunity and
# stage-1 documents (exact Shapley importances), standard-CSV test tables
# (`hypothesis_id` quoted) and each metric's populated hardness columns in
# summary.json. The array kernels and the joint stage-1 solve must keep
# every byte.
ANALYZE_TREE_SHA = "ce088dcb7ce9e99de4e4ec9b88843b7f65d2f77dddd7cb83a414d9a8a9cd404b"
# The same trees with use_measured_hardness: acc's stage 1 runs, but every
# unit is routed by its measured hardness.
ANALYZE_MEASURED_TREE_SHA = "fdfe89310b1f9ac178366c2d87780778489bf15976d9a7de354b1fece3efaa1f"


def _analyze_trees_sha(tmp_path, **overrides) -> str:
    digest = hashlib.sha256()
    for mode in ("fixed", "empirical"):
        config = _analyze_config(tmp_path / mode, hardness_mode=mode, **overrides)
        _write_analyze_inputs(config)
        run_analyze(config)
        run_report(config)
        digest.update(tree_hash(Path(config.out_dir) / "analysis").encode())
    return digest.hexdigest()


def test_analyze_tree_bytes_unchanged(tmp_path):
    assert _analyze_trees_sha(tmp_path) == ANALYZE_TREE_SHA


def test_analyze_measured_hardness_tree_bytes_unchanged(tmp_path):
    assert _analyze_trees_sha(tmp_path, use_measured_hardness=True) == ANALYZE_MEASURED_TREE_SHA


# sha256 of each opportunities_<m>.json of the hand-made inputs as it was
# written before the columnar document: one compact row per (unit, level),
# holding its value and a per-size list of {n, gap, filling}. Both hardness
# modes wrote these bytes.
OPPORTUNITY_ROWS_SHA = {
    "acc": "a4454747388164e3ed0b52c5a6d510f145c8594ba1198a4e27fcebc36e52c2d0",
    "scc": "a9baaa09779381307abc2b011e9b99cf45478a0441856e897a3d50806ea98f07",
}


def _opportunity_rows(doc):
    """The columnar opportunity document expanded to one row per (unit,
    level), unit by unit and level by level in matrix order, skipping the
    levels whose value is None."""
    rows = []
    for k, unit in enumerate(doc["units"]):
        for level in MATRIX_LEVELS:
            column = doc["levels"].get(level)
            if column is None or column["value"][k] is None:
                continue
            per_size = zip(doc["sizes"], doc["gap"][k], column["filling"][k])
            rows.append({
                "unit": unit,
                "level": level,
                "value": column["value"][k],
                "per_size": [{"n": n, "gap": g, "filling": f} for n, g, f in per_size],
            })
    return rows


@pytest.mark.parametrize("mode", ["fixed", "empirical"])
def test_opportunity_document_expands_to_the_row_list(tmp_path, mode):
    """The columnar document holds every opportunity row's bytes: expanded
    and compacted, it is the row list written before, and its arrays line
    up with its units. s0002's acc practical curve and s0003's scc complete
    curve are incomplete, so those two levels are None and the unit keeps
    its other two; s0004 has no acc ideal curve, so it is not listed for acc."""
    config = _analyze_config(tmp_path, hardness_mode=mode)
    _write_analyze_inputs(config)
    summary = run_analyze(config)
    analysis = Path(config.out_dir) / "analysis"
    incomplete = {("s0002_t00", "acc"): "practical", ("s0003_t00", "scc"): "complete"}
    for metric in config.metrics:
        doc = json.loads((analysis / f"opportunities_{metric}.json").read_text())
        rows = _opportunity_rows(doc)
        assert hashlib.sha256(compact_json(rows).encode()).hexdigest() == OPPORTUNITY_ROWS_SHA[metric]
        assert summary["metrics"][metric]["opportunity_rows"] == len(rows)
        assert doc["metric"] == metric and doc["sizes"] == list(CURVE_SIZES)
        assert sorted(doc["levels"]) == sorted(MATRIX_LEVELS)
        units = doc["units"]
        assert units == sorted(set(units)) and len(doc["gap"]) == len(units)
        assert all(len(g) == len(CURVE_SIZES) for g in doc["gap"])
        for level, column in doc["levels"].items():
            assert len(column["value"]) == len(column["filling"]) == len(units)
            for k, unit in enumerate(units):
                missing = incomplete.get((unit, metric)) == level
                assert (column["value"][k] is None) == missing, (metric, level, unit)
                assert (column["filling"][k] is None) == missing, (metric, level, unit)
        for (unit, m), level in incomplete.items():
            if m == metric:
                kept = [lv for lv in MATRIX_LEVELS if lv != level]
                assert [r["level"] for r in rows if r["unit"] == unit] == kept
        assert ("s0004_t00" in units) == (metric == "scc")


def test_degenerate_matrix_is_noted(tmp_path):
    """A matrix with fewer than two populated hardness columns gets a note
    in gaps.json naming the metric and its classes, and a warning line in the
    report; summary.json lists the populated columns either way. Twelve
    trials of one easy system all fall in the low class; the fourteen
    systems of the hand-made inputs fill all three."""
    one = _analyze_config(tmp_path / "one", n_systems=1, trials=12, metrics=("acc",))
    three = _analyze_config(tmp_path / "three", metrics=("acc",))
    degenerate = "the matrix populates 1 of 3 hardness columns (low); no test compares hardness classes"
    for config, populated in ((one, ["low"]), (three, ["low", "medium", "high"])):
        _write_analyze_inputs(config)
        summary = run_analyze(config)
        report = run_report(config)
        analysis = Path(config.out_dir) / "analysis"
        notes = json.loads((analysis / "gaps.json").read_text())["notes"]
        info = summary["metrics"]["acc"]
        assert info["populated_hardness_columns"] == populated
        assert json.loads((analysis / "summary.json").read_text())["metrics"]["acc"] == info
        if len(populated) == 1:
            assert notes[-1] == f"acc: {degenerate}"
            assert f"- warning: {degenerate}\n" in report
            # every hardness and cross test, and the knowledge tests of the two empty columns
            assert info["skipped_tests"] == 24
        else:
            assert not any("hardness columns" in note for note in notes)
            assert "warning" not in report


def _indented_dump(doc, compact=False):
    """The writers as they were before bulk documents went compact: every
    document `indent=2`, whatever the caller asks for."""
    return json.dumps(doc, sort_keys=True, indent=2)


def _edge_list_doc(graph):
    """The graph document as it was when it listed every edge."""
    return {
        "aspects": dataclasses.asdict(graph.aspects),
        "seed": graph.seed,
        "iv_to_iv_p": graph.iv_to_iv_p,
        "edges": [
            {"src": src.encode(), "dst": dst.encode(), "kind": kind.value}
            for src, dst, kind in graph.edges
        ],
    }


def _indented_graph_to_json(graph):
    return json.dumps(_edge_list_doc(graph), sort_keys=True, indent=2)


def _edge_list_graph_from_json(text):
    """The graph reader as it was: the graph of the listed edges."""
    doc = json.loads(text)
    edges = tuple(
        (NodeId.decode(e["src"]), NodeId.decode(e["dst"]), EdgeKind(e["kind"]))
        for e in doc["edges"]
    )
    return CausalInfluenceGraph(
        StructuralAspects(**doc["aspects"]), doc["seed"], doc["iv_to_iv_p"], edges
    )


def _indented_semantics_to_json(semantics):
    """The semantics writer as it was when it listed every weight, in dicts
    keyed by parent and by parent pair, and every edge of its graph."""
    iv_formulas = {}
    for iv, f in semantics.iv_formulas.items():
        linear_terms = dict(zip(f.parents, f.linear.tolist()))
        pair_terms = dict(zip(itertools.combinations(f.parents, 2), f.pairs.tolist()))
        iv_formulas[iv.encode()] = {
            "linear": {p.encode(): w for p, w in linear_terms.items()},
            "pairs": {f"{p.encode()}|{q.encode()}": w for (p, q), w in pair_terms.items()},
        }
    doc = {
        "graph": _edge_list_doc(semantics.graph),
        "iv_formulas": iv_formulas,
        "perf_formulas": {
            perf.encode(): {iv.encode(): w for iv, w in weights.items()}
            for perf, weights in semantics.perf_formulas.items()
        },
        "noise_fraction": semantics.noise_fraction,
        "noise_targets": "performance_only",
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _pipeline_trees(root):
    """A generate + model tree and a hand-made analyze tree (stage 1 run for
    acc, skipped for scc) under `root`."""
    config = _tiny_config(root, n_systems=2, trials=2, levels=("null", "ideal"))
    run_generate(config)
    run_model(config)
    analyze = _analyze_config(root / "analyze")
    _write_analyze_inputs(analyze)
    run_analyze(analyze)
    return Path(config.out_dir), Path(analyze.out_dir) / "analysis"


def test_compact_documents_parse_to_the_indented_values(tmp_path, monkeypatch):
    """Every bulk document parses to the Python values that the indented
    writers wrote, and is written compact; every other file keeps its bytes.
    graph.json holds the generator's inputs in place of the edges, so it is
    compared by the graph it describes: re-drawn, its edges are the indented
    document's edges in order. semantics.json holds seeds in place of the
    edges and the weights, so it is compared by what it describes: re-drawn,
    they are the indented document's edges and its linear, pair and perf
    weights bit for bit."""
    new_trees = _pipeline_trees(tmp_path / "compact")
    monkeypatch.setattr(experiment, "_dump", _indented_dump)
    monkeypatch.setattr(experiment, "graph_to_json", _indented_graph_to_json)
    monkeypatch.setattr(experiment, "graph_from_json", _edge_list_graph_from_json)
    monkeypatch.setattr(experiment, "semantics_to_json", _indented_semantics_to_json)
    old_trees = _pipeline_trees(tmp_path / "indented")
    bulk = re.compile(
        r"((null|ideal)_(acc|scc)|(hardness|opportunities|stage1)_(acc|scc))\.json"
    )
    kinds = set()
    for new_root, old_root in zip(new_trees, old_trees):
        new_files = sorted(p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file())
        assert new_files == sorted(p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file())
        for rel in new_files:
            if rel.suffix != ".json":
                assert (new_root / rel).read_bytes() == (old_root / rel).read_bytes(), rel
                continue
            new, old = (new_root / rel).read_text(), (old_root / rel).read_text()
            if rel.name == "graph.json":
                kinds.add("graph")
                redrawn = _indented_graph_to_json(graph_from_json(new))
                assert json.loads(redrawn) == json.loads(old), rel
                assert new == compact_json(json.loads(new)), rel
            elif rel.name == "semantics.json":
                kinds.add("semantics")
                redrawn = _indented_semantics_to_json(semantics_from_json(new))
                assert json.loads(redrawn) == json.loads(old), rel
                assert new == compact_json(json.loads(new)), rel
            elif bulk.fullmatch(rel.name):
                kinds.add(bulk.fullmatch(rel.name).group(1).split("_")[0])
                assert json.loads(new) == json.loads(old), rel
                assert new == compact_json(json.loads(old)), rel
            else:
                assert new == old, rel
    assert kinds == {"semantics", "graph", "null", "ideal", "hardness", "opportunities", "stage1"}


def test_analyze_folds_keep_each_system_on_one_side(tmp_path, monkeypatch):
    """With several trials per system, no stage-1 fold holds out a unit
    whose system also has units in the training folds."""
    from modperf import stats

    config = _analyze_config(tmp_path, n_systems=6, trials=3, metrics=("acc",))
    _write_analyze_inputs(config)
    folds_seen = []
    real = stats.cross_validate_l1_many

    def spy(tasks, degree, alphas):
        folds_seen.extend(folds for _, _, folds in tasks)
        return real(tasks, degree, alphas)

    monkeypatch.setattr(stats, "cross_validate_l1_many", spy)
    run_analyze(config)
    rows = json.loads((Path(config.out_dir) / "analysis" / "hardness_acc.json").read_text())
    systems = np.array([r["system"] for r in rows])
    assert folds_seen and len(set(systems)) == 6 and len(rows) >= 15
    for folds in folds_seen:
        assert sorted(np.concatenate(folds).tolist()) == list(range(len(rows)))
        for held_out in folds:
            train = np.setdiff1d(np.arange(len(rows)), held_out)
            assert not set(systems[held_out]) & set(systems[train])


def test_analyze_stage1_records_convergence(tmp_path, monkeypatch):
    """stage1_<metric>.json carries the final fit's sweeps and, per degree,
    how that metric's cross-validation problems ended."""
    from modperf import stats

    config = _analyze_config(tmp_path, metrics=("acc",))
    _write_analyze_inputs(config)
    solves = {}
    real = stats.cross_validate_l1_many

    def spy(tasks, degree, alphas):
        result = real(tasks, degree, alphas)
        [solves[degree]] = result.solves
        return result

    monkeypatch.setattr(stats, "cross_validate_l1_many", spy)
    run_analyze(config)
    stage1 = json.loads((Path(config.out_dir) / "analysis" / "stage1_acc.json").read_text())
    assert 1 <= stage1["n_sweeps"] <= 1000 and stage1["converged"] is True
    assert stage1["cv_solves"] == {
        str(d): {"problems": c.problems, "unconverged": c.unconverged, "max_sweeps": c.max_sweeps}
        for d, c in solves.items()
    }
    assert list(solves) == list(config.lasso_degrees)
    assert all(c.problems == 5 * config.lasso_alpha_steps for c in solves.values())


def test_analyze_skips_stage1_for_trials_of_one_system(tmp_path):
    """Stage-1 folds need two systems; one system's trials get the
    measured-hardness matrix and a note instead of an error."""
    config = _analyze_config(tmp_path, n_systems=1, trials=12, metrics=("acc",))
    _write_analyze_inputs(config)
    summary = run_analyze(config)
    analysis = Path(config.out_dir) / "analysis"
    assert summary["metrics"]["acc"]["units"] == 12
    assert json.loads((analysis / "stage1_acc.json").read_text())["skipped"]
    assert json.loads((analysis / "gaps.json").read_text())["notes"] == [
        "acc: all 12 units are trials of one system; stage-1 regression skipped, "
        "matrix built from measured hardness",
        "acc: the matrix populates 1 of 3 hardness columns (low); no test compares hardness classes",
    ]


def test_analyze_rejects_curve_sizes_outside_config(tmp_path):
    """A unit whose curves agree with each other but not with the config's
    training sizes is an error that names the unit and the level."""
    config = _analyze_config(tmp_path)
    _write_analyze_inputs(config)
    unit_dir = Path(config.out_dir) / "curves" / "s0008_t00"
    for path in unit_dir.glob("*.json"):
        doc = json.loads(path.read_text())
        for point, n in zip(doc["points"], (20, 50, 200)):
            point["n"] = n
        path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"s0008_t00, level null, metric acc.*\[20, 50, 200\]"):
        run_analyze(config)


def _reference_load_units(config):
    """`_load_units` as it read before curve files were read as bytes: text
    mode, one `json.loads` per file."""
    sizes = tuple(sorted(config.train_sizes))
    keys = [(level, metric) for level in config.levels for metric in config.metrics]
    units, rows, missing = [], {key: [] for key in keys}, []
    for s in range(config.n_systems):
        for t in range(config.trials):
            unit = config.unit_id(s, t)
            found = {}
            for level, metric in keys:
                path = Path(config.out_dir) / "curves" / unit / f"{level}_{metric}.json"
                try:
                    doc = json.loads(path.read_text())
                except FileNotFoundError:
                    continue
                curve = experiment._curve_from_doc(doc) if doc else None
                if curve is not None and tuple(curve[0]) != sizes:
                    raise ValueError(
                        f"unit {unit}, level {level}, metric {metric}: training sizes "
                        f"{curve[0]} differ from the config's {list(sizes)}"
                    )
                found[level, metric] = None if curve is None else curve[1]
            if found:
                units.append({"unit": unit, "system": config.system_id(s), "trial": t})
                for key in keys:
                    rows[key].append(found.get(key))
            if len(found) < len(keys):
                missing.append(unit)
    return units, rows, missing


def _write_reader_cases(config):
    """Curve files of four units: s0000 holds every kind of document
    `_load_units` must tell apart, s0001 has an empty directory, s0002's
    files carry whitespace around the document, s0003 is plain."""
    curves = Path(config.out_dir) / "curves"
    for s in range(config.n_systems):
        (curves / config.unit_id(s, 0)).mkdir(parents=True)
    for s in (0, 2, 3):
        unit = config.unit_id(s, 0)
        for k, (level, metric) in enumerate(itertools.product(config.levels, config.metrics)):
            values = [round(0.1 * (s + 1) + 0.05 * k + 0.01 * j, 6) for j in range(3)]
            doc = _curve_doc(unit, level, metric, values)
            text = compact_json(doc)
            if s == 2:
                text = f" \n{text}\n"
            elif s == 0 and level == "null" and metric == "scc":
                text = json.dumps(doc, sort_keys=True)  # spaces after separators
            elif s == 0 and level == "partial":
                text = compact_json(_curve_doc(unit, level, metric, values, error_at=2))
            elif s == 0 and (level, metric) == ("practical", "acc"):
                doc["points"][0]["p"] = None
                text = compact_json(doc)
            elif s == 0 and level == "complete":
                text = "{}" if metric == "acc" else "null"
            elif s == 0 and (level, metric) == ("ideal", "scc"):
                continue  # a missing file
            (curves / unit / f"{level}_{metric}.json").write_text(text)


def test_load_units_matches_a_per_file_reference(tmp_path):
    """The byte reader yields the units, tables, masks and missing list of a
    text-mode `json.loads` per file; a file one `json.loads` rejects is an
    error that names it, and a size mismatch keeps its message."""
    config = _analyze_config(tmp_path, n_systems=4)
    _write_reader_cases(config)
    units, tables, missing = experiment._load_units(config)
    ref_units, ref_rows, ref_missing = _reference_load_units(config)
    assert units == ref_units and [u["unit"] for u in units] == ["s0000_t00", "s0002_t00", "s0003_t00"]
    assert missing == ref_missing == ["s0000_t00", "s0001_t00"]
    assert set(tables) == set(ref_rows)
    for key, (table, complete) in tables.items():
        rows = ref_rows[key]
        assert complete.tolist() == [r is not None for r in rows]
        assert table.values.tolist() == [[0.0] * 3 if r is None else r for r in rows]
    incomplete = [key for key, (_, complete) in tables.items() if not complete[0]]
    assert incomplete == [
        ("partial", "acc"), ("partial", "scc"), ("practical", "acc"),
        ("complete", "acc"), ("complete", "scc"), ("ideal", "scc"),
    ]

    curves = Path(config.out_dir) / "curves" / "s0003_t00"
    path = curves / "practical_scc.json"
    doc = json.loads(path.read_text())
    doc["points"][1]["n"] = 60
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as expected:
        _reference_load_units(config)
    with pytest.raises(ValueError) as raised:
        experiment._load_units(config)
    assert str(raised.value) == str(expected.value)

    # Each case fails a per-file json.loads. Joined into one array with
    # commas, the split case (`[1`, `2]`, `3,4`) parses to one value per
    # file, so a count check on a joined parse would accept it.
    cases = {
        "two values": {"null_acc": "{},{}"},
        "BOM": {"null_acc": "\ufeff{}"},
        "truncated": {"null_acc": '{"points":[{"n":20,'},
        "split": {"null_acc": "[1", "null_scc": "2]", "partial_acc": "3,4"},
    }
    for texts in cases.values():
        for name, text in texts.items():
            (curves / f"{name}.json").write_text(text)
        with pytest.raises(ValueError):
            _reference_load_units(config)
        with pytest.raises(ValueError, match=f"^{re.escape(str(curves / 'null_acc.json'))}: "):
            experiment._load_units(config)
        for name in texts:
            (curves / f"{name}.json").write_text("{}")
    (curves / "null_acc.json").write_bytes(b'{"level":"\xff"}')
    with pytest.raises(ValueError, match="null_acc.json: 'utf-8' codec"):
        experiment._load_units(config)


def test_analyze_empirical_mode_rejects_too_few_scored_units_before_writing(tmp_path):
    """Empirical mode needs four hardness scores for its quartiles; a metric
    left with one to three units with a complete null curve is an error that
    names the metric and the count, raised before any analysis file."""
    config = _analyze_config(tmp_path, n_systems=4, hardness_mode="empirical", metrics=("acc",))
    _write_analyze_inputs(config)
    (Path(config.out_dir) / "curves" / "s0003_t00" / "null_acc.json").unlink()
    with pytest.raises(ValueError, match=r"^acc: .* got 3$"):
        run_analyze(config)
    assert not (Path(config.out_dir) / "analysis").exists()


def test_analyze_without_the_null_level(tmp_path):
    """Levels without `null` score no unit: every null curve is listed as
    incomplete, stage 1 is skipped and all 27 tests are skipped."""
    config = _analyze_config(tmp_path, levels=("partial", "ideal"))
    _write_analyze_inputs(config)
    summary = run_analyze(config)
    gaps = json.loads((Path(config.out_dir) / "analysis" / "gaps.json").read_text())
    units = [config.unit_id(s, 0) for s in range(config.n_systems)]
    for metric in config.metrics:
        null_gaps = [g["unit"] for g in gaps["incomplete_curves"] if g["metric"] == metric]
        assert null_gaps == units
        assert summary["metrics"][metric]["units"] == 0
        assert summary["metrics"][metric]["tests"] == summary["metrics"][metric]["skipped_tests"] == 27
    assert {g["level"] for g in gaps["incomplete_curves"]} == {"null"}
    assert gaps["notes"] == [
        note
        for metric in config.metrics
        for note in (
            f"{metric}: only 0 units; stage-1 regression skipped, matrix built from measured hardness",
            f"{metric}: the matrix populates 0 of 3 hardness columns (none); no test compares hardness classes",
        )
    ]


def test_analyze_without_the_ideal_level(tmp_path):
    """Levels without `ideal` score no opportunity: every unit's ideal curve
    is listed as incomplete, as a missing null curve is, and the opportunity
    document lists no unit."""
    config = _analyze_config(tmp_path, levels=("null", "partial"))
    _write_analyze_inputs(config)
    run_analyze(config)
    analysis = Path(config.out_dir) / "analysis"
    gaps = json.loads((analysis / "gaps.json").read_text())
    units = [config.unit_id(s, 0) for s in range(config.n_systems)]
    for metric in config.metrics:
        listed = [(g["unit"], g["level"]) for g in gaps["incomplete_curves"] if g["metric"] == metric]
        # the scc null curves of s0007-s0011 hold an error point, so those
        # units are listed for their null curve
        assert listed == [
            (unit, "null" if metric == "scc" and 7 <= s <= 11 else "ideal")
            for s, unit in enumerate(units)
        ]
        doc = json.loads((analysis / f"opportunities_{metric}.json").read_text())
        assert doc == {
            "metric": metric,
            "sizes": list(CURVE_SIZES),
            "units": [],
            "gap": [],
            "levels": {"partial": {"value": [], "filling": []}},
        }
        assert _opportunity_rows(doc) == []


def test_cli_error_emits_machine_readable_json(tmp_path, capsys):
    code = main(["analyze", "--out", str(tmp_path / "missing")])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.err)
    assert error["stage"] == "analyze"
    assert "error" in error


def test_cli_model_counts_failed_units_and_exits_1(tmp_path, capsys):
    """On a directory with no systems every unit fails into
    model_errors.json: `model` says how many of the units completed and
    exits 1 with the error JSON naming the count and the file."""
    out = tmp_path / "empty"
    assert main(["model", "--out", str(out), "--systems", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"model: completed 0 of 2 unit(s) -> {out}\n"
    assert json.loads(captured.err) == {
        "error": "UnitErrors", "stage": "model",
        "detail": f"2 of 2 unit(s) failed; see {out / 'model_errors.json'}",
    }
    assert len(json.loads((out / "model_errors.json").read_text())) == 2


def test_cli_all_finishes_and_exits_1_when_a_model_unit_fails(tmp_path, capsys, monkeypatch):
    """`all` analyzes the units that completed, prints the summary and
    exits 1 with the error JSON when a model unit failed."""
    real_load = experiment.load_dataset

    def refuse_s0000(directory):
        if directory.parent.name == "s0000":
            raise ValueError("unreadable trial")
        return real_load(directory)

    monkeypatch.setattr(experiment, "load_dataset", refuse_s0000)
    out = tmp_path / "out"
    argv = [
        "all", "--systems", "2", "--trials", "1", "--train-sizes", "20,40", "--n-train", "50",
        "--n-test", "25", "--levels", "null,ideal", "--budget", "2", "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["metrics"]["acc"]["units"] == 1
    assert json.loads(captured.err) == {
        "error": "UnitErrors", "stage": "all",
        "detail": f"1 of 2 unit(s) failed; see {out / 'model_errors.json'}",
    }
    assert (out / "analysis" / "report.md").exists()


def test_cli_analyze_names_a_truncated_curve_file(tiny_run, tmp_path, capsys):
    _, out = tiny_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    curve = copy / "curves" / "s0001_t01" / "partial_scc.json"
    curve.write_bytes(curve.read_bytes()[:40])
    assert main(["analyze", "--config", str(copy / "config.json"), "--out", str(copy)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError" and error["stage"] == "analyze"
    assert error["detail"].startswith(f"{curve}: Unterminated string")


def test_cli_rejects_bad_flag_values(tmp_path, capsys):
    code = main(["generate", "--systems", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().err)


def test_cli_end_to_end_subprocess(tmp_path):
    out = tmp_path / "cli_out"
    result = subprocess.run(
        [
            sys.executable, "-m", "modperf.cli", "all",
            "--systems", "1", "--trials", "1",
            "--train-sizes", "20,40", "--n-train", "50", "--n-test", "25",
            "--levels", "null,ideal", "--budget", "2",
            "--seed", "7", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "analysis" / "summary.json").exists()
    summary = json.loads(result.stdout)
    assert summary["metrics"]["acc"]["units"] == 1


def test_cli_single_metric_restricts_outputs(tmp_path):
    out = tmp_path / "scc_only"
    code = main(
        [
            "all", "--systems", "1", "--trials", "1",
            "--train-sizes", "20,40", "--n-train", "50", "--n-test", "25",
            "--levels", "null,ideal", "--budget", "2", "--metric", "scc",
            "--seed", "11", "--out", str(out),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in (out / "curves" / "s0000_t00").glob("*.json"))
    assert names == ["ideal_scc.json", "null_scc.json"]
    assert (out / "analysis" / "matrix_scc.json").exists()
    assert not (out / "analysis" / "matrix_acc.json").exists()


def test_analyze_searches_every_configured_alpha(tmp_path, monkeypatch):
    """The stage-1 lasso gets all `lasso_alpha_steps` alphas, above 500 too."""
    from modperf import stats

    config = _tiny_config(
        tmp_path, trials=5, levels=("null", "ideal"), metrics=("scc",),
        lasso_degrees=(1,), lasso_alpha_steps=600,
    )
    run_generate(config)
    run_model(config)
    seen = []
    real = stats.cross_validate_l1_many

    def spy(tasks, degree, alphas):
        seen.append(len(alphas))
        return real(tasks, degree, alphas)

    monkeypatch.setattr(stats, "cross_validate_l1_many", spy)
    run_analyze(config)
    assert seen == [600]
    stage1 = json.loads((Path(config.out_dir) / "analysis" / "stage1_scc.json").read_text())
    assert "skipped" not in stage1


def test_analyze_with_measured_hardness(tmp_path):
    """use_measured_hardness routes each unit by its measured hardness."""
    config = _tiny_config(
        tmp_path, trials=5, levels=("null", "partial", "ideal"), metrics=("scc",),
        use_measured_hardness=True,
    )
    run_generate(config)
    run_model(config)
    run_analyze(config)
    analysis = Path(config.out_dir) / "analysis"
    stage1 = json.loads((analysis / "stage1_scc.json").read_text())
    measured = json.loads((analysis / "hardness_scc.json").read_text())
    assert "skipped" not in stage1 and len(measured) >= 10
    assert stage1["hardness_source"] == "measured"
    assert {k: v["value"] for k, v in stage1["hardness_by_unit"].items()} == {
        row["unit"]: row["value"] for row in measured
    }


def test_model_failure_isolated_and_recorded(tmp_path):
    config = _tiny_config(tmp_path, n_systems=2, trials=1)
    run_generate(config)
    # corrupt one system's graph; the other unit must still complete
    graph_path = Path(config.out_dir) / "systems" / "s0000" / "graph.json"
    graph_path.write_text("{not json")
    run_model(config)
    out = Path(config.out_dir)
    errors = json.loads((out / "model_errors.json").read_text())
    assert len(errors) == 1 and errors[0]["unit"] == "s0000_t00"
    assert (out / "curves" / "s0001_t00" / "null_scc.json").exists()
    summary = run_analyze(config)
    gaps = json.loads((out / "analysis" / "gaps.json").read_text())
    assert "s0000_t00" in gaps["missing_units"]
    assert summary["metrics"]["scc"]["units"] == 1


def test_clean_rerun_removes_stale_model_errors(tmp_path):
    config = _tiny_config(tmp_path, n_systems=1, trials=1)
    run_generate(config)
    out = Path(config.out_dir)
    graph_path = out / "systems" / "s0000" / "graph.json"
    graph = graph_path.read_text()
    graph_path.write_text("{not json")
    run_model(config)
    assert (out / "model_errors.json").exists()
    graph_path.write_text(graph)
    run_model(config)
    assert not (out / "model_errors.json").exists()


def test_cli_config_file_with_flag_overrides(tmp_path):
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({**TINY, "train_sizes": [20, 40], "levels": ["null", "ideal"]}))
    out = tmp_path / "from_file"
    code = main(
        ["generate", "--config", str(config_file), "--systems", "1", "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["systems"]) == 1  # flag overrode the file's 2
    persisted = json.loads((out / "config.json").read_text())
    assert persisted["global_seed"] == TINY["global_seed"]


@pytest.mark.parametrize(
    "extra, name",
    [
        (dict(shapley_samples=200), "shapley_samples"),
        (dict(aspect_ranges=dict(modules=[3, 4])), "modules"),
        (dict(cv_folds=2), "cv_folds"),
    ],
)
def test_cli_config_file_with_unknown_field_fails_by_name(tmp_path, capsys, extra, name):
    """A config.json from before exact Shapley still holds `shapley_samples`,
    and one from before out-of-bag selection `cv_folds`; each exits 1 naming
    that key, not with a bare TypeError from __init__, and so does an
    unknown key in `aspect_ranges`."""
    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({**TINY, **extra}))
    argv = ["analyze", "--config", str(config_file), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError" and error["stage"] == "analyze"
    assert name in error["detail"]


@pytest.mark.parametrize(
    "bad",
    [
        dict(lasso_alpha_steps=0),
        dict(lasso_degrees=()),
        dict(lasso_degrees=(0, 1)),
        dict(lasso_degrees=(2, 5)),
    ],
)
def test_config_rejects_bad_lasso_settings(tmp_path, bad):
    """Caught when the config is built, not in run_analyze after the model stage."""
    with pytest.raises(ValueError, match="lasso"):
        _tiny_config(tmp_path, **bad)
    _tiny_config(tmp_path, lasso_alpha_steps=1, lasso_degrees=(1, 4))


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(train_sizes=(20, 20, 40)), "train_sizes"),
        (dict(train_sizes=(-5, 40)), "train_sizes"),
        (dict(train_sizes=(0, 40)), "train_sizes"),
        (dict(hardness_mode="empirical", n_systems=3, trials=1), "empirical"),
        (dict(hardness_mode="empirical", n_systems=1, trials=3), "empirical"),
    ],
)
def test_config_rejects_bad_sizes_and_small_empirical_populations(tmp_path, bad, match):
    """Caught when the config is built, before generate and model run; left
    to analyze, they fail only after the model stage, and a negative size
    trains on `records[:-5]`."""
    with pytest.raises(ValueError, match=match):
        _tiny_config(tmp_path, **bad)
    _tiny_config(tmp_path, train_sizes=(40, 1), hardness_mode="empirical", n_systems=2, trials=2)


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(levels=("null", "quantum")), "unknown levels"),
        (dict(budget_evaluations=0), "budget_evaluations"),
        (dict(forest_scale="huge"), "forest_scale"),
        (dict(metrics=("acc", "acc")), "metrics"),
        (dict(levels=("null", "ideal", "null")), "levels"),
        (dict(n_test=0), "n_test"),
        (dict(n_test=1), "n_test"),
    ],
)
def test_config_rejects_bad_model_settings(tmp_path, bad, match):
    """Caught when the config is built. Left unchecked, an unknown level, a
    bad forest or search setting, or a single test point that Spearman
    cannot rank, fails every unit into model_errors.json; no test point
    fails generate after config.json is written; and a repeated metric or
    level lists each incomplete curve twice in gaps.json."""
    with pytest.raises(ValueError, match=match):
        _tiny_config(tmp_path, **bad)
    _tiny_config(tmp_path, budget_evaluations=1, forest_scale="paper")
    _tiny_config(tmp_path, n_test=1, metrics=("acc",))


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(alpha_ci=0.0), "alpha_ci"),
        (dict(alpha_ci=1.0), "alpha_ci"),
        (dict(alpha_ci=float("nan")), "alpha_ci"),
        (dict(test_alpha=0.0), "test_alpha"),
        (dict(test_alpha=1.5), "test_alpha"),
        (dict(iv_to_iv_p=-0.1), "iv_to_iv_p"),
        (dict(iv_to_iv_p=1.5), "iv_to_iv_p"),
        (dict(noise_fraction=-0.01), "noise_fraction"),
        (dict(noise_fraction=1.0), "noise_fraction"),
    ],
)
def test_config_rejects_levels_and_probabilities_outside_their_range(tmp_path, capsys, bad, match):
    """Caught when the config is built. Left unchecked, `alpha_ci` 0 fails
    every `practical` and `complete` point with a StatisticsError that only
    the curve files record, `test_alpha` 1.5 is used as a test level, and a
    bad `iv_to_iv_p` or `noise_fraction` fails generate after config.json
    is written."""
    with pytest.raises(ValueError, match=match):
        _tiny_config(tmp_path, **bad)
    _tiny_config(tmp_path, alpha_ci=1e-9, test_alpha=0.999, iv_to_iv_p=0.0, noise_fraction=0.0)
    _tiny_config(tmp_path, iv_to_iv_p=1.0)
    assert main(["model", "--alpha-ci", "0", "--out", str(tmp_path / "x")]) == 1
    assert "alpha_ci must be in (0, 1)" in json.loads(capsys.readouterr().err)["detail"]


def test_failed_write_leaves_previous_artifact(tmp_path):
    from modperf.experiment import _write

    target = tmp_path / "curves" / "unit.json"
    _write(target, '{"old": 1}')
    with pytest.raises(UnicodeEncodeError):
        _write(target, '{"new": "' + "x" * 100_000 + "\udc80" + '"}')  # fails while writing
    assert target.read_text() == '{"old": 1}'
    _write(target, '{"new": 2}')
    assert target.read_text() == '{"new": 2}'
    assert [p.name for p in target.parent.iterdir()] == ["unit.json"]
