import dataclasses
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from modperf import dataset as dataset_module
from modperf.dataset import CapacityError, load_dataset, sample_dataset, save_dataset
from modperf.influence_graph import StructuralAspects, generate_graph
from modperf.knowledge_models import design, level_curves
from modperf.seeds import derive
from modperf.semantics import Evaluator, synthesize_semantics


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


def test_same_seed_byte_identical_serialization(tmp_path):
    semantics = _semantics()
    for name, seed in (("a", 8), ("b", 8), ("c", 9)):
        save_dataset(
            sample_dataset(semantics, seed=seed, n_train=40, n_test=20), tmp_path / name
        )
    for file in ("train.npy", "test.npy", "dataset.json"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert (tmp_path / "a" / "train.npy").read_bytes() != (tmp_path / "c" / "train.npy").read_bytes()


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


def test_every_record_obeys_noise_bound():
    """|v' - v| <= f * |v| for every performance value of every row, against
    the noiseless values of its configuration; IVs stay exact. The draws are
    one (rows x perfs) block from one generator seeded with
    derive(seed, "noise")."""
    semantics = synthesize_semantics(
        generate_graph(
            StructuralAspects(option_count=6, p_w=0.8, mu_a=0.2, sigma_a=0.1, module_count=3),
            seed=61,
        ),
        seed=62,
        noise_fraction=0.1,
    )
    ds = sample_dataset(semantics, seed=63, n_train=150, n_test=50)
    clean_iv, clean_perf = Evaluator(semantics).noiseless(ds.bits.astype(float))
    iv, perf = ds.ivs, ds.perf
    assert (np.abs(perf - clean_perf) <= 0.1 * np.abs(clean_perf)).all()
    assert np.array_equal(iv, clean_iv)
    rng = np.random.default_rng(derive(63, "noise"))
    u = rng.uniform(-1.0, 1.0, size=perf.shape)
    assert np.array_equal(perf, clean_perf + u * 0.1 * np.abs(clean_perf))


def test_npy_record_dtype_follows_the_columns(tmp_path):
    """One record per row: the option bits, the IVs and the perf values, as
    many of each as dataset.json names."""
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=14, n_train=5, n_test=2)
    save_dataset(ds, tmp_path)
    columns = json.loads((tmp_path / "dataset.json").read_text())["columns"]
    assert [len(columns[k]) for k in ("options", "ivs", "perfs")] == [6, 6, 1]
    records = np.load(tmp_path / "train.npy")
    assert records.shape == (5,)
    assert records.dtype == np.dtype([("bits", "u1", (6,)), ("ivs", "<f8", (6,)), ("perf", "<f8", (1,))])


def test_save_load_roundtrip(tmp_path):
    semantics = _semantics()
    ds = sample_dataset(semantics, seed=15, n_train=40, n_test=20)
    manifest = save_dataset(ds, tmp_path)
    assert manifest == json.loads((tmp_path / "dataset.json").read_text())
    assert manifest == {
        "columns": {"options": list(ds.option_names), "ivs": list(ds.iv_names), "perfs": list(ds.perf_names)},
        "n_test": 20, "n_train": 40, "test_file": "test.npy", "train_file": "train.npy",
    }
    loaded = load_dataset(tmp_path)
    assert (loaded.n_train, _names(loaded)) == (ds.n_train, _names(ds))
    assert loaded.bits.dtype == np.uint8 and loaded.bits.tobytes() == ds.bits.tobytes()
    for name in ("ivs", "perf"):  # bit for bit
        assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()
    for file, rows in (("train.npy", _train(ds)), ("test.npy", slice(ds.n_train, None))):
        records = np.load(tmp_path / file)
        for field, array in (("bits", ds.bits), ("ivs", ds.ivs), ("perf", ds.perf)):
            assert np.ascontiguousarray(records[field]).tobytes() == array[rows].tobytes()


def _saved(tmp_path):
    ds = sample_dataset(_semantics(), seed=15, n_train=40, n_test=30)
    save_dataset(ds, tmp_path)
    return ds


def _recast(records, dtype):
    """`records` copied into `dtype`'s fields where the shapes agree, zeros
    elsewhere."""
    out = np.zeros(len(records), dtype)
    for name in dtype.names:
        if name in records.dtype.names and out[name].shape == records[name].shape:
            out[name] = records[name]
    return out


@pytest.mark.parametrize(
    "name,keep,count",
    [("test.npy", 1, "n_test 30"), ("test.npy", 25, "n_test 30"), ("train.npy", 39, "n_train 40")],
)
def test_load_rejects_a_npy_whose_row_count_differs_from_the_manifest(tmp_path, name, keep, count):
    """A file of too few rows loads no rows at all: the error names the
    file. One row once loaded as a 1-row test set that no metric can score,
    and a few rows fewer as a test set scored on fewer rows."""
    _saved(tmp_path)
    path = tmp_path / name
    records = np.load(path)
    np.save(path, records[:keep])
    with pytest.raises(ValueError, match=f"^{name}: {keep} rows, dataset.json has {count}$"):
        load_dataset(tmp_path)
    np.save(path, np.concatenate([records, records[-1:]]))  # one row too many
    with pytest.raises(ValueError, match=f"^{name}: {len(records) + 1} rows"):
        load_dataset(tmp_path)


# Record dtypes that are not the one `_saved`'s dataset.json columns give
# (o options, i IVs, one perf): each differs in one way.
OTHER_DTYPES = {
    "more-ivs": lambda o, i: [("bits", "u1", (o,)), ("ivs", "<f8", (i + 1,)), ("perf", "<f8", (1,))],
    "fewer-options": lambda o, i: [("bits", "u1", (o - 1,)), ("ivs", "<f8", (i,)), ("perf", "<f8", (1,))],
    "more-perfs": lambda o, i: [("bits", "u1", (o,)), ("ivs", "<f8", (i,)), ("perf", "<f8", (2,))],
    "swapped-fields": lambda o, i: [("ivs", "<f8", (i,)), ("bits", "u1", (o,)), ("perf", "<f8", (1,))],
    "big-endian": lambda o, i: [("bits", "u1", (o,)), ("ivs", ">f8", (i,)), ("perf", "<f8", (1,))],
    "float-bits": lambda o, i: [("bits", "<f8", (o,)), ("ivs", "<f8", (i,)), ("perf", "<f8", (1,))],
    "renamed": lambda o, i: [("options", "u1", (o,)), ("ivs", "<f8", (i,)), ("perf", "<f8", (1,))],
}


@pytest.mark.parametrize("how", list(OTHER_DTYPES))
@pytest.mark.parametrize("name", ["train.npy", "test.npy"])
def test_load_rejects_a_npy_whose_dtype_differs_from_the_manifest(tmp_path, name, how):
    """The records must have exactly the dtype that dataset.json's columns
    give: column counts that differ from dataset.json, fields swapped or
    renamed, and values of another type or byte order load no rows, even
    where every value is the same."""
    ds = _saved(tmp_path)
    path = tmp_path / name
    records = np.load(path)
    other = np.dtype(OTHER_DTYPES[how](len(ds.option_names), len(ds.iv_names)))
    assert other != records.dtype
    np.save(path, _recast(records, other))
    with pytest.raises(ValueError, match=f"^{name}: dtype .* expected 1-D "):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name", ["train.npy", "test.npy"])
def test_load_rejects_a_npy_that_is_not_1_d(tmp_path, name):
    """The rows as one 2-D float table, or as a 2-D array of records, load
    no rows."""
    _saved(tmp_path)
    path = tmp_path / name
    records = np.load(path)
    for array in (
        np.hstack([records["bits"], records["ivs"], records["perf"]]).astype(float),
        records.reshape(-1, 1),
    ):
        np.save(path, array)
        with pytest.raises(ValueError, match=rf"^{name}: dtype .* of shape {re.escape(str(array.shape))}, expected 1-D "):
            load_dataset(tmp_path)


@pytest.mark.parametrize("value", [2, 255])
@pytest.mark.parametrize("column", ["first", "last"])
@pytest.mark.parametrize("name,record", [("train.npy", 0), ("train.npy", 39), ("test.npy", 7)])
def test_load_rejects_a_bit_other_than_0_or_1(tmp_path, name, record, column, value):
    ds = _saved(tmp_path)
    path = tmp_path / name
    records = np.load(path)
    records["bits"][record, 0 if column == "first" else len(ds.option_names) - 1] = value
    np.save(path, records)
    with pytest.raises(ValueError, match=f"^{name}: record {record}: an option bit is not 0 or 1$"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("field,value", [("ivs", np.nan), ("ivs", np.inf), ("perf", -np.inf), ("perf", np.nan)])
@pytest.mark.parametrize("name,record", [("train.npy", 3), ("test.npy", 29)])
def test_load_rejects_a_value_that_is_not_finite(tmp_path, name, record, field, value):
    _saved(tmp_path)
    path = tmp_path / name
    records = np.load(path)
    records[field][record, -1] = value
    np.save(path, records)
    with pytest.raises(ValueError, match=f"^{name}: record {record}: values must be finite$"):
        load_dataset(tmp_path)


# The two tests below keep the names and case ids they had when rows were
# stored as CSV, each case carried over to `train.npy`: CSV line n is record
# n - 2 (line 1, the header, is the record dtype), and a text cell stored in
# a bit is its first byte (the comma after it, for an empty cell).
def _cell_byte(cell):
    return (cell or ",").encode()[0]


def _saved_lines(tmp_path):
    """A saved 4-row train.npy, the CSV tests' dataset, and its records."""
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=18, n_train=4, n_test=2)
    save_dataset(ds, tmp_path)
    assert len(load_dataset(tmp_path).bits) == 6
    return ds, np.load(tmp_path / "train.npy")


@pytest.mark.parametrize(
    "line,how",
    [(1, "short"), (1, "long")]
    + [(line, how) for line in (2, 4) for how in ("short", "long", "nan-iv", "inf-perf", "bit-2", "text")],
)
def test_csv_reader_rejects_malformed_line_by_number(tmp_path, line, how):
    """A record dtype one IV short or long, a file cut inside a record or
    with bytes put after one, and a record holding a bad bit or a non-finite
    value load no rows; a bad value names its record."""
    ds, records = _saved_lines(tmp_path)
    path, k = tmp_path / "train.npy", line - 2
    if line == 1:
        n_ivs = len(ds.iv_names) + (-1 if how == "short" else 1)
        other = np.dtype([("bits", "u1", (len(ds.option_names),)), ("ivs", "<f8", (n_ivs,)), ("perf", "<f8", (1,))])
        np.save(path, _recast(records, other))
        match = "dtype .* expected 1-D "
    elif how in ("short", "long"):
        data = path.read_bytes()
        end = len(data) - (len(records) - k - 1) * records.dtype.itemsize  # where record k ends
        path.write_bytes(data[: end - 1] if how == "short" else data[:end] + bytes(8) + data[end:])
        match = "" if how == "short" else "bytes after the last record$"  # numpy words a cut file
    else:
        field, column, value, match = {
            "nan-iv": ("ivs", -1, np.nan, "values must be finite"),
            "inf-perf": ("perf", -1, -np.inf, "values must be finite"),
            "bit-2": ("bits", 0, 2, "an option bit is not 0 or 1"),
            "text": ("bits", 1, _cell_byte("abc"), "an option bit is not 0 or 1"),
        }[how]
        records[field][k, column] = value
        np.save(path, records)
        match = f"record {k}: {match}$"
    with pytest.raises(ValueError, match=f"^train.npy: {match}"):
        load_dataset(tmp_path)


# Bit cells the CSV writer never produced; ASCII "0" and "1" are among their bytes.
@pytest.mark.parametrize("cell", [" 1", "01", "+1", "1.0", ""])
@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("line", [2, 4])
def test_csv_reader_accepts_only_exact_bit_cells(tmp_path, line, position, cell):
    ds, records = _saved_lines(tmp_path)
    records["bits"][line - 2, 0 if position == "first" else len(ds.option_names) - 1] = _cell_byte(cell)
    np.save(tmp_path / "train.npy", records)
    with pytest.raises(ValueError, match=f"^train.npy: record {line - 2}: an option bit is not 0 or 1$"):
        load_dataset(tmp_path)


def test_load_refuses_a_trial_stored_as_csv(tmp_path):
    """A trial written before rows were stored as `.npy`: its dataset.json
    names `train.csv`. The error names the file and says to regenerate."""
    _saved(tmp_path)
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    manifest["train_file"], manifest["test_file"] = "train.csv", "test.csv"
    (tmp_path / "dataset.json").write_text(json.dumps(manifest))
    (tmp_path / "train.csv").write_text("o_0_0,iv_0_0,perf_0\n0,1.0,2.0\n")
    with pytest.raises(ValueError, match=r"^train\.csv: not a \.npy file; .*regenerate the system$"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("how", ["empty", "header-cut", "data-cut", "one-byte-short", "trailing-bytes"])
@pytest.mark.parametrize("name", ["train.npy", "test.npy"])
def test_load_rejects_an_empty_truncated_or_padded_npy(tmp_path, name, how):
    """A file cut anywhere, or with bytes after its last record, loads no
    rows; no EOFError escapes."""
    _saved(tmp_path)
    path = tmp_path / name
    data = path.read_bytes()
    path.write_bytes({
        "empty": b"",
        "header-cut": data[:20],
        "data-cut": data[: len(data) // 2 + 64],
        "one-byte-short": data[:-1],
        "trailing-bytes": data + data[-8:],
    }[how])
    with pytest.raises(ValueError, match=f"^{name}: "):
        load_dataset(tmp_path)


@pytest.mark.parametrize("how", ["pickle", "object-npy", "npz"])
@pytest.mark.parametrize("name", ["train.npy", "test.npy"])
def test_load_rejects_pickled_object_and_npz_files(tmp_path, name, how):
    """Nothing is unpickled, and an `.npz` archive is not an array."""
    _saved(tmp_path)
    path = tmp_path / name
    records = np.load(path)
    if how == "pickle":
        path.write_bytes(pickle.dumps(records))
    elif how == "object-npy":
        with path.open("wb") as f:
            np.save(f, np.array([{"bits": 1}] * len(records), dtype=object), allow_pickle=True)
    else:
        with path.open("wb") as f:
            np.savez(f, records=records)
    with pytest.raises(ValueError, match=f"^{name}: "):
        load_dataset(tmp_path)


def test_load_needs_value_columns(tmp_path):
    _saved(tmp_path)
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    manifest["columns"]["perfs"] = []
    (tmp_path / "dataset.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="at least one IV and one perf column"):
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
    """An interrupt halfway through writing test.npy's bytes leaves
    train.npy alone: no partial test.npy and no temporary file. (The name
    is from when rows were stored as CSV.)"""
    ds = sample_dataset(_semantics(), seed=15, n_train=40, n_test=20)
    real_write_bytes = Path.write_bytes

    def interrupted(self, data):
        if "test.npy" in self.name:
            real_write_bytes(self, data[: len(data) // 2])
            raise KeyboardInterrupt
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_dataset(ds, tmp_path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["train.npy"]


ADVERSARIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,  # zeros, subnormals
    1e16, -1e16, 1e22, 1.7976931348623157e308, 1e-05, 1e-07,  # exponent notation
    1.0, -3.0, 2.0**52, 2.0**53 + 2, 123456789.0, 9999999999999998.0,  # integral floats
    0.1, 1 / 3, 0.1 + 0.2, 1.2345678901234567, 12345678901234567.0,  # 17 significant digits
    np.nextafter(1.0, 2.0), -np.nextafter(1e16, 0.0),
]


def _rows_from_pool(ds, rng, pool):
    """`ds` with its rows replaced by values drawn from `pool` and random
    bits, the last 7 of them test rows."""
    n_ivs = len(ds.iv_names)
    width = n_ivs + len(ds.perf_names)
    values = rng.permutation(np.resize(pool, (len(pool) // width + 1) * width)).reshape(-1, width)
    bits = rng.integers(0, 2, size=(len(values), len(ds.option_names)), dtype=np.uint8)
    return dataclasses.replace(
        ds, bits=bits, ivs=values[:, :n_ivs], perf=values[:, n_ivs:], n_train=len(values) - 7
    )


def test_npy_round_trips_every_finite_float_bit_for_bit(tmp_path):
    """Adversarial and random finite float64 bit patterns, -0.0 and
    subnormals included, load back bit for bit; a file holding a non-finite
    value is written as it is and refused on load."""
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=20, n_train=4, n_test=2)
    rng = np.random.default_rng(20)
    raw = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    finite = np.concatenate([ADVERSARIAL_VALUES, raw[np.isfinite(raw)], rng.normal(size=2000)])
    pooled = _rows_from_pool(ds, rng, finite)
    save_dataset(pooled, tmp_path)
    loaded = load_dataset(tmp_path)
    for name in ("bits", "ivs", "perf"):
        assert getattr(loaded, name).tobytes() == getattr(pooled, name).tobytes()
    non_finite = np.concatenate([finite[:50], [np.nan, np.inf, -np.inf]])
    pooled = _rows_from_pool(ds, rng, non_finite)
    save_dataset(pooled, tmp_path)
    records = np.concatenate([np.load(tmp_path / "train.npy"), np.load(tmp_path / "test.npy")])
    assert np.ascontiguousarray(records["ivs"]).tobytes() == pooled.ivs.tobytes()
    assert np.ascontiguousarray(records["perf"]).tobytes() == pooled.perf.tobytes()
    with pytest.raises(ValueError, match="values must be finite"):
        load_dataset(tmp_path)


def test_a_file_of_no_rows_round_trips(tmp_path):
    """A split of no rows is a file of zero records that keeps the column
    widths."""
    ds = sample_dataset(_semantics(option_count=3, module_count=2), seed=19, n_train=4, n_test=2)
    save_dataset(dataclasses.replace(ds, n_train=len(ds.bits)), tmp_path)
    assert np.load(tmp_path / "test.npy").shape == (0,)
    loaded = load_dataset(tmp_path)
    assert (loaded.n_train, len(loaded.bits)) == (6, 6)
    assert loaded.bits[6:].shape == (0, len(ds.option_names)) and loaded.ivs[6:].shape == (0, len(ds.iv_names))
    for name in ("bits", "ivs", "perf"):
        assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()

