import dataclasses
from pathlib import Path

import numpy as np
import pytest

from modperf import dataset as dataset_module
from modperf.dataset import (
    CapacityError,
    load_dataset,
    rows_from_csv,
    rows_to_csv,
    sample_dataset,
    save_dataset,
)
from modperf.influence_graph import StructuralAspects, generate_graph
from modperf.knowledge_models import design, level_curves
from modperf.seeds import derive
from modperf.semantics import Evaluator, NoiseTargets, synthesize_semantics


def _semantics(option_count=6, module_count=2, seed=31):
    aspects = StructuralAspects(
        option_count=option_count, p_w=0.8, mu_a=0.2, sigma_a=0.1, module_count=module_count
    )
    graph = generate_graph(aspects, seed=seed)
    return synthesize_semantics(graph, seed=seed + 1)


def _names(ds):
    return ds.option_names, ds.iv_names, ds.perf_names


def _train(ds):
    return slice(ds.n_train)


def test_requested_counts_and_disjointness():
    ds = sample_dataset(_semantics(), seed=1, n_train=120, n_test=80)
    assert ds.n_train == 120 and len(ds.bits) == len(ds.ivs) == len(ds.perf) == 200
    assert ds.bits.dtype == np.uint8
    seen = {row.tobytes() for row in ds.bits}
    assert len(seen) == 200


def test_tiny_space_yields_all_configurations():
    aspects = StructuralAspects(
        option_count=2, p_w=1.0, mu_a=0.01, sigma_a=0.0, module_count=1, iv_per_module=1
    )
    semantics = synthesize_semantics(generate_graph(aspects, seed=2, iv_to_iv_p=0.0), seed=3)
    ds = sample_dataset(semantics, seed=4, n_train=3, n_test=1)
    configs = sorted(map(tuple, ds.bits.tolist()))
    assert configs == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_capacity_error_when_space_too_small():
    aspects = StructuralAspects(
        option_count=2, p_w=1.0, mu_a=0.01, sigma_a=0.0, module_count=1, iv_per_module=1
    )
    semantics = synthesize_semantics(generate_graph(aspects, seed=5), seed=6)
    with pytest.raises(CapacityError):
        sample_dataset(semantics, seed=7, n_train=4, n_test=1)


def _reference_draw(rng, n_options, total):
    """Distinct configurations kept one row at a time, in draw order, from
    rounds of `total` draws; None when the rounds run out."""
    seen, rows = set(), []
    for _ in range(dataset_module._OVERSAMPLE_ROUNDS):
        for row in rng.integers(0, 2, size=(total, n_options), dtype=np.uint8):
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                rows.append(row)
                if len(rows) == total:
                    return np.stack(rows)
    return None


@pytest.mark.parametrize("n_options,total", [(3, 8), (6, 60), (9, 480), (12, 2000), (40, 300)])
def test_distinct_draws_equal_the_row_by_row_reference(n_options, total):
    for seed in range(3):
        want = _reference_draw(np.random.default_rng(seed), n_options, total)
        got = dataset_module._draw_distinct_configs(np.random.default_rng(seed), n_options, total)
        assert got.dtype == np.uint8 and np.array_equal(got, want)


def test_same_seed_byte_identical_serialization():
    semantics = _semantics()
    a = sample_dataset(semantics, seed=8, n_train=40, n_test=20)
    b = sample_dataset(semantics, seed=8, n_train=40, n_test=20)
    for rows in (slice(40), slice(40, None)):
        assert rows_to_csv(a, rows) == rows_to_csv(b, rows)
    c = sample_dataset(semantics, seed=9, n_train=40, n_test=20)
    assert rows_to_csv(a, slice(40)) != rows_to_csv(c, slice(40))


def test_training_prefixes_nest():
    """A training prefix is a row slice: `level_curves` hands the search the
    first n design rows at each size and the test rows at every size."""
    ds = sample_dataset(_semantics(), seed=10, n_train=100, n_test=10)
    calls = []

    def search(Z, perf, Z_held):
        calls.append((Z, perf, Z_held))
        return {}

    level_curves(search, ds, ("acc",), (50, 20, 100))
    Z, perf = design(ds)
    assert np.array_equal(Z, np.hstack([ds.bits, ds.ivs])) and np.array_equal(perf, ds.perf[:, 0])
    assert [len(z) for z, _, _ in calls] == [20, 50, 100]
    for z, p, held in calls:
        assert np.array_equal(z, Z[: len(z)]) and np.array_equal(p, perf[: len(z)])
        assert np.array_equal(held, Z[100:])
    with pytest.raises(ValueError):
        level_curves(search, ds, ("acc",), (20, 101))
    for n in (0, -5):  # a negative n would slice off the end: Z[:-5]
        with pytest.raises(ValueError, match=r"1\.\.100"):
            level_curves(search, ds, ("acc",), (n, 20))


def test_marginal_option_frequency_uniform():
    ds = sample_dataset(
        _semantics(option_count=10, module_count=2), seed=12, n_train=5000, n_test=5000
    )
    bits = ds.bits.astype(float)
    freq = bits.mean(axis=0)
    se = np.sqrt(0.25 / len(bits))
    assert np.all(np.abs(freq - 0.5) < 4 * se)


def test_per_record_noise_seeds_vary():
    """Every row gets its own draws from the dataset's noise generator."""
    ds = sample_dataset(_semantics(), seed=13, n_train=30, n_test=10)
    perfs = ds.perf[_train(ds), 0].tolist()
    assert len(set(perfs)) == len(perfs)


@pytest.mark.parametrize("targets", list(NoiseTargets))
def test_every_record_obeys_noise_bound(targets):
    """|v' - v| <= f * |v| for every value of every row, against the
    noiseless values of its configuration; IVs stay exact unless the noise
    targets all values. The draws are one (rows x values) block from one
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
    clean_iv, clean_perf = Evaluator(semantics).noiseless(ds.bits.astype(float))
    iv, perf = ds.ivs, ds.perf
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
    header = rows_to_csv(ds, _train(ds)).splitlines()[0].split(",")
    assert header[0] == "o_0_0"
    assert header[-1] == "perf_0"
    assert sum(1 for c in header if c.startswith("iv_")) == 6


def test_save_load_roundtrip(tmp_path):
    semantics = _semantics()
    ds = sample_dataset(semantics, seed=15, n_train=40, n_test=20, system_id="rt")
    manifest = save_dataset(ds, tmp_path, semantics_file="semantics.json")
    assert manifest["system_id"] == "rt"
    loaded = load_dataset(tmp_path)
    assert (loaded.system_id, loaded.seed, loaded.n_train) == (ds.system_id, ds.seed, ds.n_train)
    assert (loaded.train_sizes, _names(loaded)) == (ds.train_sizes, _names(ds))
    assert loaded.bits.dtype == np.uint8 and loaded.bits.tobytes() == ds.bits.tobytes()
    for name in ("ivs", "perf"):  # bit for bit
        assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()
    for rows in (_train(ds), slice(ds.n_train, None)):
        assert rows_to_csv(loaded, rows) == rows_to_csv(ds, rows)


def _saved(tmp_path):
    ds = sample_dataset(_semantics(), seed=15, n_train=40, n_test=30, system_id="rt")
    save_dataset(ds, tmp_path, semantics_file="semantics.json")
    return ds


@pytest.mark.parametrize(
    "name,keep,count",
    [("test.csv", 2, "n_test 30"), ("test.csv", 26, "n_test 30"), ("train.csv", 40, "n_train 40")],
)
def test_load_rejects_a_csv_whose_row_count_differs_from_the_manifest(tmp_path, name, keep, count):
    """A CSV cut short loads no rows at all: the error names the file. Its
    header plus one row once loaded as a 1-row test set that no metric can
    score, and a few rows fewer as a test set scored on fewer rows."""
    _saved(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:keep]))
    with pytest.raises(ValueError, match=f"^{name}: {keep - 1} rows, dataset.json has {count}$"):
        load_dataset(tmp_path)
    path.write_text("".join(lines + lines[-1:]))  # one row too many
    with pytest.raises(ValueError, match=f"^{name}: {len(lines)} rows"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name", ["train.csv", "test.csv"])
def test_load_rejects_a_csv_whose_header_differs_from_the_manifest(tmp_path, name):
    """Two header names swapped, a perf column labelled as an IV and the IV
    as perf, load no rows: the header must be the one the writer derives
    from dataset.json's columns."""
    _saved(tmp_path)
    path = tmp_path / name
    header, body = path.read_text().split("\n", 1)
    cells = header.split(",")
    cells[-1], cells[-2] = cells[-2], cells[-1]
    assert cells[-1].startswith("iv_") and cells[-2] == "perf_0"
    path.write_text(",".join(cells) + "\n" + body)
    with pytest.raises(ValueError, match=f"^{name}: line 1: header cell {len(cells) - 1} is 'perf_0'"):
        load_dataset(tmp_path)


def test_record_view_matches_the_rows(tmp_path):
    """`train + test` holds one record per row in row order, each the row's
    uint8 bits, IVs and perf, for a sampled and for a reloaded dataset: the
    lists perfbench reads (the `SystemDataset.train` comment)."""
    ds = _saved(tmp_path)
    for data in (ds, load_dataset(tmp_path)):
        records = data.train + data.test
        assert (len(data.train), len(records)) == (40, 70)
        for k, record in enumerate(records):
            assert record.config.dtype == np.uint8
            assert record.config.tobytes() == data.bits[k].tobytes()
            assert record.iv_values.tobytes() == data.ivs[k].tobytes()
            assert record.perf_values.tobytes() == data.perf[k].tobytes()


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


# The header (line 1) must be the one the writer derives from the column names.
@pytest.mark.parametrize(
    "line,how",
    [(1, "short"), (1, "long")]
    + [(line, how) for line in (2, 4) for how in ("short", "long", "nan-iv", "inf-perf", "bit-2", "text")],
)
def test_csv_reader_rejects_malformed_line_by_number(line, how):
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=18, n_train=4, n_test=2)
    lines = rows_to_csv(ds, _train(ds)).splitlines()
    assert len(rows_from_csv("\n".join(lines), *_names(ds))[0]) == 4
    lines[line - 1] = _corrupt(lines[line - 1], how)
    with pytest.raises(ValueError, match=f"^line {line}: "):
        rows_from_csv("\n".join(lines), *_names(ds))


# Bit cells the writer never produces; the reader used to take the first three as bits.
@pytest.mark.parametrize("cell", [" 1", "01", "+1", "1.0", ""])
@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("line", [2, 4])
def test_csv_reader_accepts_only_exact_bit_cells(line, position, cell):
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=18, n_train=4, n_test=2)
    lines = rows_to_csv(ds, _train(ds)).splitlines()
    cells = lines[line - 1].split(",")
    cells[0 if position == "first" else len(ds.option_names) - 1] = cell
    lines[line - 1] = ",".join(cells)
    with pytest.raises(ValueError, match=f"^line {line}: "):
        rows_from_csv("\n".join(lines), *_names(ds))


def test_empty_record_list_is_header_only():
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=19, n_train=4, n_test=2)
    text = rows_to_csv(ds, slice(0))
    assert text == rows_to_csv(ds, _train(ds)).splitlines()[0] + "\n"
    bits, values = rows_from_csv(text, *_names(ds))
    assert bits.shape == (0, len(ds.option_names))
    assert values.shape == (0, len(ds.iv_names) + len(ds.perf_names))


def test_csv_reader_needs_value_columns():
    with pytest.raises(ValueError, match="at least one IV and one perf column"):
        rows_from_csv("o_0_0,o_0_1\n0,1\n", ("O:0:0", "O:0:1"), (), ())


def _csv_by_cell(dataset):
    """The CSV format's definition, one cell at a time, over every row."""
    lines = [rows_to_csv(dataset, slice(0)).rstrip("\n")]
    for bits, ivs, perf in zip(dataset.bits, dataset.ivs, dataset.perf):
        cells = [str(int(b)) for b in bits]
        cells += [repr(float(v)) for v in ivs]
        cells += [repr(float(v)) for v in perf]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


ADVERSARIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,  # zeros, subnormals
    1e16, -1e16, 1e22, 1.7976931348623157e308, 1e-05, 1e-07,  # exponent notation
    1.0, -3.0, 2.0**52, 2.0**53 + 2, 123456789.0, 9999999999999998.0,  # integral floats
    0.1, 1 / 3, 0.1 + 0.2, 1.2345678901234567, 12345678901234567.0,  # 17 significant digits
    np.nextafter(1.0, 2.0), -np.nextafter(1e16, 0.0),
]


def _rows_from_pool(ds, rng, pool):
    """`ds` with its rows replaced by values drawn from `pool` and random bits."""
    n_ivs = len(ds.iv_names)
    width = n_ivs + len(ds.perf_names)
    values = rng.permutation(np.resize(pool, (len(pool) // width + 1) * width)).reshape(-1, width)
    bits = rng.integers(0, 2, size=(len(values), len(ds.option_names)), dtype=np.uint8)
    return dataclasses.replace(
        ds, bits=bits, ivs=values[:, :n_ivs], perf=values[:, n_ivs:], n_train=len(values)
    )


def test_csv_writer_matches_per_cell_definition():
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=20, n_train=4, n_test=2)
    rng = np.random.default_rng(20)
    raw = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    finite = np.concatenate([ADVERSARIAL_VALUES, raw[np.isfinite(raw)], rng.normal(size=2000)])
    pooled = _rows_from_pool(ds, rng, finite)
    text = rows_to_csv(pooled, slice(None))
    assert text == _csv_by_cell(pooled)
    bits, values = rows_from_csv(text, *_names(ds))
    assert bits.dtype == np.uint8 and bits.tobytes() == pooled.bits.tobytes()
    # bit for bit: -0.0 stays
    assert values.tobytes() == np.hstack([pooled.ivs, pooled.perf]).tobytes()
    # The writer formats non-finite values as the definition does (the reader rejects them).
    non_finite = np.concatenate([finite[:50], [np.nan, np.inf, -np.inf]])
    pooled = _rows_from_pool(ds, rng, non_finite)
    assert rows_to_csv(pooled, slice(None)) == _csv_by_cell(pooled)


def test_default_train_sizes_clipped():
    ds = sample_dataset(_semantics(), seed=16, n_train=100, n_test=10)
    assert ds.train_sizes == (20, 50, 100)
    with pytest.raises(ValueError):
        sample_dataset(_semantics(), seed=17, n_train=100, n_test=10, train_sizes=(20, 200))
