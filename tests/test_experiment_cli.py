import hashlib
import itertools
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from modperf import experiment
from modperf.cli import main
from modperf.experiment import ExperimentConfig, run_analyze, run_generate, run_model, run_report
from modperf.influence_graph import AspectRanges, graph_doc
from modperf.jsonio import compact_json

TINY = dict(
    global_seed=424242,
    n_systems=2,
    trials=2,
    train_sizes=(20, 40),
    n_train=50,
    n_test=30,
    levels=("null", "partial", "ideal"),
    budget_evaluations=2,
    cv_folds=2,
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
        assert (system_dir / "knowledge.json").exists()
        for trial in entry["trials"]:
            assert (system_dir / trial["dir"] / "train.csv").exists()


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
    assert doc["budget"] == 2


def test_curve_files_round_trip(tiny_run):
    config, out = tiny_run
    for s in range(config.n_systems):
        for t in range(config.trials):
            unit_dir = out / "curves" / config.unit_id(s, t)
            files = list(unit_dir.glob("*.json"))
            assert len(files) == 6  # 3 levels x 2 metrics
            for path in files:
                doc = json.loads(path.read_text())
                assert doc["system_id"] == config.unit_id(s, t)
                assert {"system_id", "level", "metric", "points", "seeds", "budget"} <= set(doc)
                assert json.loads(json.dumps(doc)) == doc


def test_fairness_log_identical_budget(tiny_run):
    config, out = tiny_run
    fairness = json.loads((out / "fairness" / "s0001_t01.json").read_text())
    assert fairness["budget"] == 2
    assert len(fairness["candidates"]) == 2
    assert set(fairness["prefix_sha"]) == {"20", "40"}


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


# sha256 of the tree below, as written with compact bulk JSON and one noise
# generator per dataset. The CSV and JSON writers must keep every byte; a
# change that alters output on purpose updates this and says so.
GENERATE_TREE_SHA = "2704f22ec2614dcd772da323ad26b2ab8fed5c63a9f31694ada2288726c74248"


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


# sha256 of the curves/ and fairness/ trees below, as written with compact
# curve files, one noise generator per dataset and forests seeded by their
# problem. The forest engine and the search must keep every byte.
MODEL_TREE_SHA = "a15390a86121ad1f228187897094ab089c82eab5c6eab45bd848c82ce4c4801a"


def test_model_tree_bytes_unchanged(tmp_path):
    """All five levels, two candidates that differ in every forest setting,
    an odd training size (folds of 11 and 10 rows) and within-module edge
    probability at most 0.2, so that some IVs fall back to their mean."""
    config = ExperimentConfig(
        global_seed=3112,
        n_systems=2,
        trials=1,
        train_sizes=(21, 50),
        n_train=50,
        n_test=30,
        budget_evaluations=2,
        cv_folds=2,
        aspect_ranges=AspectRanges(option_count=(4, 5), module_count=(3, 3), p_w=(0.0, 0.2)),
        out_dir=str(tmp_path),
    )
    run_generate(config)
    assert all("error" not in doc for doc in run_model(config))
    digest = hashlib.sha256()
    for path in sorted([*(tmp_path / "curves").rglob("*"), *(tmp_path / "fairness").rglob("*")]):
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
        lasso_degrees=(1, 2), lasso_alpha_steps=4, shapley_samples=8, importance_repeats=2,
        out_dir=str(tmp_path / "out"),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


# sha256 of the analysis trees of the hand-made inputs above, fixed mode
# then empirical mode, with compact hardness, opportunity and stage-1
# documents. The array kernels and the joint stage-1 solve must keep every
# byte.
ANALYZE_TREE_SHA = "196679a3089a4eba9943dd95890b49579fe9273a0d76ca8a867b0eb2f0fe83a0"


def test_analyze_tree_bytes_unchanged(tmp_path):
    digest = hashlib.sha256()
    for mode in ("fixed", "empirical"):
        config = _analyze_config(tmp_path / mode, hardness_mode=mode)
        _write_analyze_inputs(config)
        run_analyze(config)
        run_report(config)
        digest.update(tree_hash(Path(config.out_dir) / "analysis").encode())
    assert digest.hexdigest() == ANALYZE_TREE_SHA


def _indented_dump(doc, compact=False):
    """The writers as they were before bulk documents went compact: every
    document `indent=2`, whatever the caller asks for."""
    return json.dumps(doc, sort_keys=True, indent=2)


def _indented_graph_to_json(graph):
    return json.dumps(graph_doc(graph), sort_keys=True, indent=2)


def _indented_semantics_to_json(semantics):
    """The semantics writer as it was when weights were dicts keyed by parent
    and by parent pair."""
    iv_formulas = {}
    for iv, f in semantics.iv_formulas.items():
        linear_terms = dict(zip(f.parents, f.linear.tolist()))
        pair_terms = dict(zip(itertools.combinations(f.parents, 2), f.pairs.tolist()))
        iv_formulas[iv.encode()] = {
            "linear": {p.encode(): w for p, w in linear_terms.items()},
            "pairs": {f"{p.encode()}|{q.encode()}": w for (p, q), w in pair_terms.items()},
        }
    doc = {
        "graph": graph_doc(semantics.graph),
        "iv_formulas": iv_formulas,
        "perf_formulas": {
            perf.encode(): {iv.encode(): w for iv, w in weights.items()}
            for perf, weights in semantics.perf_formulas.items()
        },
        "noise_fraction": semantics.noise_fraction,
        "noise_targets": semantics.noise_targets.value,
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
    writers wrote, and is written compact; every other file keeps its bytes."""
    new_trees = _pipeline_trees(tmp_path / "compact")
    monkeypatch.setattr(experiment, "_dump", _indented_dump)
    monkeypatch.setattr(experiment, "graph_to_json", _indented_graph_to_json)
    monkeypatch.setattr(experiment, "semantics_to_json", _indented_semantics_to_json)
    old_trees = _pipeline_trees(tmp_path / "indented")
    bulk = re.compile(
        r"(semantics|graph|knowledge|(null|ideal)_(acc|scc)|(hardness|opportunities|stage1)_(acc|scc))\.json"
    )
    kinds = set()
    for new_root, old_root in zip(new_trees, old_trees):
        new_files = sorted(p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file())
        assert new_files == sorted(p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file())
        for rel in new_files:
            new, old = (new_root / rel).read_text(), (old_root / rel).read_text()
            if bulk.fullmatch(rel.name):
                kinds.add(bulk.fullmatch(rel.name).group(1).split("_")[0])
                assert json.loads(new) == json.loads(old), rel
                assert new == compact_json(json.loads(old)), rel
            else:
                assert new == old, rel
    assert kinds == {"semantics", "graph", "knowledge", "null", "ideal", "hardness", "opportunities", "stage1"}


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
        "matrix built from measured hardness"
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


def test_cli_error_emits_machine_readable_json(tmp_path, capsys):
    code = main(["analyze", "--out", str(tmp_path / "missing")])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.err)
    assert error["stage"] == "analyze"
    assert "error" in error


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
