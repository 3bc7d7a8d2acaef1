"""Configuration sampling, dataset arrays, and dataset persistence.

Configurations are drawn uniformly without replacement (duplicates are
re-drawn) so train and test never overlap. A `SystemDataset` holds its rows
as arrays, training rows first in seeded-random order, so a training prefix
is a row slice and prefixes nest. The performance noise of all rows comes
from one generator seeded with `derive(seed, "noise")`, which draws a
(rows x perfs) block in row order (`Evaluator.apply_noise`).

A trial's rows are stored as `train.npy` and `test.npy` in NumPy's `.npy`
format: a 1-D structured array, one record per row, of dtype
``[("bits", "u1", (options,)), ("ivs", "<f8", (IVs,)), ("perf", "<f8",
(perfs,))]``, which keeps every float bit for bit. `dataset.json` holds
what the rows alone do not: the `columns` (option, IV and perf names), the
row counts `n_train` and `n_test`, and the `train_file` and `test_file`
names. The reader refuses a file that does not match them (`load_dataset`).
The trial's seed and id and the training sizes are not stored; they follow
from `config.json`. To look at rows: ``np.load("train.npy")["ivs"][:5]``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonio import write_atomic
from .seeds import derive, rng_for
from .semantics import SystemSemantics, Evaluator

_OVERSAMPLE_ROUNDS = 10


class CapacityError(Exception):
    """The configuration space cannot supply the requested distinct samples."""


@dataclass(frozen=True)
class MeasurementRecord:
    config: np.ndarray
    iv_values: np.ndarray
    perf_values: np.ndarray


@dataclass(frozen=True, eq=False)
class SystemDataset:
    """A system's rows, its `n_train` training rows first: `bits` (rows x
    options, uint8), `ivs` (rows x IVs) and `perf` (rows x perfs)."""

    bits: np.ndarray
    ivs: np.ndarray
    perf: np.ndarray
    n_train: int
    option_names: tuple[str, ...]
    iv_names: tuple[str, ...]
    perf_names: tuple[str, ...]

    # The record view is read only by perfbench: `GenerateSweep.check` and
    # `.quality` (perfbench/workloads.py) and `_after_sample`
    # (perfbench/tracer.py). The benchmark change of ROADMAP item 1 deletes
    # `train`, `test` and `MeasurementRecord`.
    @property
    def train(self) -> list[MeasurementRecord]:
        return self._records(slice(self.n_train))

    @property
    def test(self) -> list[MeasurementRecord]:
        return self._records(slice(self.n_train, None))

    def _records(self, rows: slice) -> list[MeasurementRecord]:
        return list(map(MeasurementRecord, self.bits[rows], self.ivs[rows], self.perf[rows]))


def _draw_distinct_configs(rng: np.random.Generator, n_options: int, total: int) -> np.ndarray:
    """The first `total` distinct rows of rounds of `total` uniform draws."""
    if 2**n_options < total:
        raise CapacityError(f"requested {total} distinct configurations from a space of {2**n_options}")
    rows = np.empty((0, n_options), dtype=np.uint8)
    for _ in range(_OVERSAMPLE_ROUNDS):
        rows = np.concatenate([rows, rng.integers(0, 2, size=(total, n_options), dtype=np.uint8)])
        keys = np.packbits(rows, axis=1)  # one bytes key per row, equal iff the rows are
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        rows = rows[np.sort(np.unique(keys, return_index=True)[1])]  # first occurrences
        if len(rows) >= total:
            return rows[:total]
    raise CapacityError(
        f"could not draw {total} distinct configurations in {_OVERSAMPLE_ROUNDS}x oversampling"
    )


def sample_dataset(
    semantics: SystemSemantics,
    seed: int,
    n_train: int = 1000,
    n_test: int = 1000,
) -> SystemDataset:
    """Draw n_train + n_test distinct configurations and measure them, with
    the noise of every row drawn from one generator (module docstring)."""
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    evaluator = Evaluator(semantics)
    rng = rng_for(seed, "configs")
    bits = _draw_distinct_configs(rng, len(evaluator.options), n_train + n_test)
    ivs, perf = evaluator.noiseless(bits.astype(float))
    perf = evaluator.apply_noise(perf, derive(seed, "noise"))
    return SystemDataset(
        bits=bits, ivs=ivs, perf=perf, n_train=n_train,
        option_names=tuple(n.encode() for n in evaluator.options),
        iv_names=tuple(n.encode() for n in evaluator.ivs),
        perf_names=tuple(n.encode() for n in evaluator.perfs),
    )


def _row_dtype(n_options: int, n_ivs: int, n_perfs: int) -> np.dtype:
    """The record of one row in `train.npy`/`test.npy` (module docstring)."""
    return np.dtype([("bits", "u1", (n_options,)), ("ivs", "<f8", (n_ivs,)), ("perf", "<f8", (n_perfs,))])


def save_dataset(dataset: SystemDataset, directory: Path) -> dict:
    """Write train/test `.npy` files plus the `dataset.json` manifest that
    names their columns, row counts and files (module docstring), each
    through `write_atomic`; return the manifest."""
    dtype = _row_dtype(len(dataset.option_names), len(dataset.iv_names), len(dataset.perf_names))
    for name, rows in (("train.npy", slice(dataset.n_train)), ("test.npy", slice(dataset.n_train, None))):
        bits = dataset.bits[rows]
        records = np.empty(len(bits), dtype)
        records["bits"], records["ivs"], records["perf"] = bits, dataset.ivs[rows], dataset.perf[rows]
        buffer = io.BytesIO()
        np.save(buffer, records, allow_pickle=False)
        write_atomic(directory / name, buffer.getvalue())
    manifest = {
        "train_file": "train.npy",
        "test_file": "test.npy",
        "n_train": dataset.n_train,
        "n_test": len(dataset.bits) - dataset.n_train,
        "columns": {
            "options": list(dataset.option_names),
            "ivs": list(dataset.iv_names),
            "perfs": list(dataset.perf_names),
        },
    }
    write_atomic(directory / "dataset.json", json.dumps(manifest, sort_keys=True, indent=2))
    return manifest


def _read_rows(path: Path, dtype: np.dtype) -> np.ndarray:
    """The records of one `.npy` file that `save_dataset` wrote: a 1-D array
    of exactly `dtype` and nothing after it, with bits 0 or 1 and finite
    values. A ValueError names the first record that is not."""
    with path.open("rb") as f:
        try:
            rows = np.load(f, allow_pickle=False)
        except EOFError:  # np.load's word for an empty file
            raise ValueError("empty file, not a .npy array") from None
        if not isinstance(rows, np.ndarray):  # an .npz archive
            raise ValueError(f"a {type(rows).__name__}, not a .npy array")
        if rows.dtype != dtype or rows.ndim != 1:
            raise ValueError(f"dtype {rows.dtype} of shape {rows.shape}, expected 1-D {dtype}")
        if f.read(1):
            raise ValueError("bytes after the last record")
    bad_bits = (rows["bits"] > 1).any(axis=1)
    if bad_bits.any():
        raise ValueError(f"record {bad_bits.argmax()}: an option bit is not 0 or 1")
    finite = np.isfinite(rows["ivs"]).all(axis=1) & np.isfinite(rows["perf"]).all(axis=1)
    if not finite.all():
        raise ValueError(f"record {finite.argmin()}: values must be finite")
    return rows


def load_dataset(directory: Path) -> SystemDataset:
    """Read what `save_dataset` wrote. Each `.npy` file must hold records of
    the dtype that dataset.json's columns give and as many rows as its
    `n_train` or `n_test`, with bits 0 or 1 and finite values; a ValueError
    names the file that does not. A trial stored as CSV, by a modperf from
    before the `.npy` format, is refused: regenerate it."""
    manifest = json.loads((directory / "dataset.json").read_text())
    cols = manifest["columns"]
    if not cols["ivs"] or not cols["perfs"]:
        raise ValueError("dataset.json: a dataset has at least one IV and one perf column")
    dtype = _row_dtype(len(cols["options"]), len(cols["ivs"]), len(cols["perfs"]))
    parts = []
    for file_key, count_key in (("train_file", "n_train"), ("test_file", "n_test")):
        path = directory / manifest[file_key]
        if path.suffix != ".npy":
            raise ValueError(
                f"{path.name}: not a .npy file; trials stored as CSV by an older modperf "
                "are no longer read, so regenerate the system"
            )
        try:
            rows = _read_rows(path, dtype)
            if len(rows) != manifest[count_key]:
                raise ValueError(f"{len(rows)} rows, dataset.json has {count_key} {manifest[count_key]}")
        except ValueError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
        parts.append(rows)
    return SystemDataset(
        bits=np.concatenate([rows["bits"] for rows in parts]),
        ivs=np.concatenate([rows["ivs"] for rows in parts]),
        perf=np.concatenate([rows["perf"] for rows in parts]),
        n_train=manifest["n_train"],
        option_names=tuple(cols["options"]),
        iv_names=tuple(cols["ivs"]),
        perf_names=tuple(cols["perfs"]),
    )
