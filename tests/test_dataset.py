import numpy as np
import pytest

from modperf.dataset import (
    CapacityError,
    load_dataset,
    records_from_csv,
    records_to_csv,
    sample_dataset,
    save_dataset,
    training_prefix,
)
from modperf.influence_graph import StructuralAspects, generate_graph
from modperf.semantics import synthesize_semantics


def _semantics(option_count=6, module_count=2, seed=31):
    aspects = StructuralAspects(
        option_count=option_count, p_w=0.8, mu_a=0.2, sigma_a=0.1, module_count=module_count
    )
    graph = generate_graph(aspects, seed=seed)
    return synthesize_semantics(graph, seed=seed + 1)


def test_requested_counts_and_disjointness():
    ds = sample_dataset(_semantics(), seed=1, n_train=120, n_test=80)
    assert len(ds.train) == 120 and len(ds.test) == 80
    seen = {r.config.tobytes() for r in ds.train + ds.test}
    assert len(seen) == 200


def test_tiny_space_yields_all_configurations():
    aspects = StructuralAspects(
        option_count=2, p_w=1.0, mu_a=0.01, sigma_a=0.0, module_count=1, iv_per_module=1
    )
    semantics = synthesize_semantics(generate_graph(aspects, seed=2, iv_to_iv_p=0.0), seed=3)
    ds = sample_dataset(semantics, seed=4, n_train=3, n_test=1)
    configs = sorted(tuple(r.config) for r in ds.train + ds.test)
    assert configs == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_capacity_error_when_space_too_small():
    aspects = StructuralAspects(
        option_count=2, p_w=1.0, mu_a=0.01, sigma_a=0.0, module_count=1, iv_per_module=1
    )
    semantics = synthesize_semantics(generate_graph(aspects, seed=5), seed=6)
    with pytest.raises(CapacityError):
        sample_dataset(semantics, seed=7, n_train=4, n_test=1)


def test_same_seed_byte_identical_serialization():
    semantics = _semantics()
    a = sample_dataset(semantics, seed=8, n_train=40, n_test=20)
    b = sample_dataset(semantics, seed=8, n_train=40, n_test=20)
    assert records_to_csv(a, a.train) == records_to_csv(b, b.train)
    assert records_to_csv(a, a.test) == records_to_csv(b, b.test)
    c = sample_dataset(semantics, seed=9, n_train=40, n_test=20)
    assert records_to_csv(a, a.train) != records_to_csv(c, c.train)


def test_training_prefixes_nest():
    ds = sample_dataset(_semantics(), seed=10, n_train=100, n_test=10)
    p20 = training_prefix(ds, 20)
    p50 = training_prefix(ds, 50)
    assert p50[:20] == p20
    assert training_prefix(ds, 100) == ds.train
    with pytest.raises(ValueError):
        training_prefix(ds, 101)


def test_marginal_option_frequency_uniform():
    ds = sample_dataset(
        _semantics(option_count=10, module_count=2), seed=12, n_train=5000, n_test=5000
    )
    bits = np.array([r.config for r in ds.train + ds.test], dtype=float)
    freq = bits.mean(axis=0)
    se = np.sqrt(0.25 / len(bits))
    assert np.all(np.abs(freq - 0.5) < 4 * se)


def test_per_record_noise_seeds_vary():
    ds = sample_dataset(_semantics(), seed=13, n_train=30, n_test=10)
    perfs = [r.perf_values[0] for r in ds.train]
    assert len(set(perfs)) == len(perfs)


def test_csv_header_shape():
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=14, n_train=5, n_test=2)
    header = records_to_csv(ds, ds.train).splitlines()[0].split(",")
    assert header[0] == "o_0_0"
    assert header[-1] == "perf_0"
    assert sum(1 for c in header if c.startswith("iv_")) == 6


def test_save_load_roundtrip(tmp_path):
    semantics = _semantics()
    ds = sample_dataset(semantics, seed=15, n_train=40, n_test=20, system_id="rt")
    manifest = save_dataset(ds, tmp_path, semantics_file="semantics.json")
    assert manifest["system_id"] == "rt"
    loaded = load_dataset(tmp_path)
    assert loaded.system_id == ds.system_id
    assert records_to_csv(loaded, loaded.train) == records_to_csv(ds, ds.train)
    np.testing.assert_array_equal(loaded.train[0].iv_values, ds.train[0].iv_values)


def _corrupt(line: str, how: str) -> str:
    cells = line.split(",")
    if how == "short":
        cells = cells[:-1]
    elif how == "long":
        cells.append("0.5")
    elif how == "nan-iv":
        cells[-2] = "nan"
    elif how == "inf-perf":
        cells[-1] = "-inf"
    elif how == "bit-2":
        cells[0] = "2"
    elif how == "text":
        cells[1] = "abc"
    return ",".join(cells)


# The header (line 1) holds names, so only its cell count is checked.
@pytest.mark.parametrize(
    "line,how",
    [(1, "short"), (1, "long")]
    + [(line, how) for line in (2, 4) for how in ("short", "long", "nan-iv", "inf-perf", "bit-2", "text")],
)
def test_csv_reader_rejects_malformed_line_by_number(line, how):
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=18, n_train=4, n_test=2)
    counts = (len(ds.option_names), len(ds.iv_names), len(ds.perf_names))
    lines = records_to_csv(ds, ds.train).splitlines()
    assert len(records_from_csv("\n".join(lines), *counts)) == 4
    lines[line - 1] = _corrupt(lines[line - 1], how)
    with pytest.raises(ValueError, match=f"^line {line}: "):
        records_from_csv("\n".join(lines), *counts)


def test_default_train_sizes_clipped():
    ds = sample_dataset(_semantics(), seed=16, n_train=100, n_test=10)
    assert ds.train_sizes == (20, 50, 100)
    with pytest.raises(ValueError):
        sample_dataset(_semantics(), seed=17, n_train=100, n_test=10, train_sizes=(20, 200))
