from pathlib import Path

import numpy as np
import pytest

from modperf.dataset import (
    CapacityError,
    MeasurementRecord,
    load_dataset,
    records_from_csv,
    records_to_csv,
    sample_dataset,
    save_dataset,
    training_prefix,
)
from modperf.influence_graph import StructuralAspects, generate_graph
from modperf.seeds import derive
from modperf.semantics import Evaluator, NoiseTargets, synthesize_semantics


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
    for n in (0, -5):  # a negative n would slice off the end: records[:-5]
        with pytest.raises(ValueError, match=">= 1"):
            training_prefix(ds, n)


def test_marginal_option_frequency_uniform():
    ds = sample_dataset(
        _semantics(option_count=10, module_count=2), seed=12, n_train=5000, n_test=5000
    )
    bits = np.array([r.config for r in ds.train + ds.test], dtype=float)
    freq = bits.mean(axis=0)
    se = np.sqrt(0.25 / len(bits))
    assert np.all(np.abs(freq - 0.5) < 4 * se)


def test_per_record_noise_seeds_vary():
    """Every record gets its own draws from the dataset's noise generator."""
    ds = sample_dataset(_semantics(), seed=13, n_train=30, n_test=10)
    perfs = [r.perf_values[0] for r in ds.train]
    assert len(set(perfs)) == len(perfs)


@pytest.mark.parametrize("targets", list(NoiseTargets))
def test_every_record_obeys_noise_bound(targets):
    """|v' - v| <= f * |v| for every value of every record, against the
    noiseless values of its configuration; IVs stay exact unless the noise
    targets all values. The draws are one (records x values) block from one
    generator seeded with derive(seed, "noise"), IVs first."""
    semantics = synthesize_semantics(
        generate_graph(
            StructuralAspects(option_count=6, p_w=0.8, mu_a=0.2, sigma_a=0.1, module_count=3),
            seed=61,
        ),
        seed=62,
        noise_fraction=0.1,
        noise_targets=targets,
    )
    ds = sample_dataset(semantics, seed=63, n_train=150, n_test=50)
    records = ds.train + ds.test
    bits = np.array([r.config for r in records], dtype=float)
    clean_iv, clean_perf = Evaluator(semantics).noiseless(bits)
    iv = np.array([r.iv_values for r in records])
    perf = np.array([r.perf_values for r in records])
    assert (np.abs(perf - clean_perf) <= 0.1 * np.abs(clean_perf)).all()
    assert (np.abs(iv - clean_iv) <= 0.1 * np.abs(clean_iv)).all()
    rng = np.random.default_rng(derive(63, "noise"))
    if targets is NoiseTargets.ALL:
        u = rng.uniform(-1.0, 1.0, size=iv.shape)
        assert np.array_equal(iv, clean_iv + u * 0.1 * np.abs(clean_iv))
        assert not np.array_equal(iv, clean_iv)
    else:
        assert np.array_equal(iv, clean_iv)
    u = rng.uniform(-1.0, 1.0, size=perf.shape)
    assert np.array_equal(perf, clean_perf + u * 0.1 * np.abs(clean_perf))


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


def test_interrupted_save_leaves_no_partial_csv(tmp_path, monkeypatch):
    """An interrupt halfway through writing test.csv leaves train.csv alone:
    no partial test.csv and no temporary file."""
    ds = sample_dataset(_semantics(), seed=15, n_train=40, n_test=20, system_id="rt")
    real_write_text = Path.write_text

    def interrupted(self, text, *args, **kwargs):
        if "test.csv" in self.name:
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt
        return real_write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_dataset(ds, tmp_path, semantics_file="semantics.json")
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]


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


# Bit cells the writer never produces; the reader used to take the first three as bits.
@pytest.mark.parametrize("cell", [" 1", "01", "+1", "1.0", ""])
@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("line", [2, 4])
def test_csv_reader_accepts_only_exact_bit_cells(line, position, cell):
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=18, n_train=4, n_test=2)
    counts = (len(ds.option_names), len(ds.iv_names), len(ds.perf_names))
    lines = records_to_csv(ds, ds.train).splitlines()
    cells = lines[line - 1].split(",")
    cells[0 if position == "first" else counts[0] - 1] = cell
    lines[line - 1] = ",".join(cells)
    with pytest.raises(ValueError, match=f"^line {line}: "):
        records_from_csv("\n".join(lines), *counts)


def test_empty_record_list_is_header_only():
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=19, n_train=4, n_test=2)
    counts = (len(ds.option_names), len(ds.iv_names), len(ds.perf_names))
    text = records_to_csv(ds, [])
    assert text == records_to_csv(ds, ds.train).splitlines()[0] + "\n"
    assert records_from_csv(text, *counts) == []


def test_csv_reader_needs_value_columns():
    with pytest.raises(ValueError, match="at least one IV and one perf column"):
        records_from_csv("o_0_0,o_0_1\n0,1\n", 2, 0, 0)


def _csv_by_cell(dataset, records):
    """The CSV format's definition, one cell at a time."""
    lines = [records_to_csv(dataset, []).rstrip("\n")]
    for rec in records:
        cells = [str(int(b)) for b in rec.config]
        cells += [repr(float(v)) for v in rec.iv_values]
        cells += [repr(float(v)) for v in rec.perf_values]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


ADVERSARIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,  # zeros, subnormals
    1e16, -1e16, 1e22, 1.7976931348623157e308, 1e-05, 1e-07,  # exponent notation
    1.0, -3.0, 2.0**52, 2.0**53 + 2, 123456789.0, 9999999999999998.0,  # integral floats
    0.1, 1 / 3, 0.1 + 0.2, 1.2345678901234567, 12345678901234567.0,  # 17 significant digits
    np.nextafter(1.0, 2.0), -np.nextafter(1e16, 0.0),
]


def _records_from_pool(rng, pool, counts):
    n_options, n_ivs, n_perfs = counts
    width = n_ivs + n_perfs
    values = rng.permutation(np.resize(pool, (len(pool) // width + 1) * width)).reshape(-1, width)
    bits = rng.integers(0, 2, size=(len(values), n_options), dtype=np.uint8)
    return [MeasurementRecord(b, v[:n_ivs], v[n_ivs:]) for b, v in zip(bits, values)]


def test_csv_writer_matches_per_cell_definition():
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=20, n_train=4, n_test=2)
    counts = (len(ds.option_names), len(ds.iv_names), len(ds.perf_names))
    rng = np.random.default_rng(20)
    raw = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    finite = np.concatenate([ADVERSARIAL_VALUES, raw[np.isfinite(raw)], rng.normal(size=2000)])
    records = _records_from_pool(rng, finite, counts)
    text = records_to_csv(ds, records)
    assert text == _csv_by_cell(ds, records)
    for rec, back in zip(records, records_from_csv(text, *counts), strict=True):
        np.testing.assert_array_equal(back.config, rec.config)
        assert back.iv_values.tobytes() == rec.iv_values.tobytes()  # bit for bit: -0.0 stays
        assert back.perf_values.tobytes() == rec.perf_values.tobytes()
    # The writer formats non-finite values as the definition does (the reader rejects them).
    non_finite = np.concatenate([finite[:50], [np.nan, np.inf, -np.inf]])
    records = _records_from_pool(rng, non_finite, counts)
    assert records_to_csv(ds, records) == _csv_by_cell(ds, records)


def test_default_train_sizes_clipped():
    ds = sample_dataset(_semantics(), seed=16, n_train=100, n_test=10)
    assert ds.train_sizes == (20, 50, 100)
    with pytest.raises(ValueError):
        sample_dataset(_semantics(), seed=17, n_train=100, n_test=10, train_sizes=(20, 200))
