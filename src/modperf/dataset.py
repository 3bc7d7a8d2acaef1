"""Configuration sampling, dataset arrays, and dataset persistence.

Configurations are drawn uniformly without replacement (duplicates are
re-drawn) so train and test never overlap. A `SystemDataset` holds its rows
as arrays, training rows first in seeded-random order, so a training prefix
is a row slice and prefixes nest. The noise of all rows comes from one
generator seeded with `derive(seed, "noise")`, which draws a (rows x
values) block in row order (`Evaluator.apply_noise`).

The CSV format is defined cell by cell: a header of column names, then per
row its option bits as "0"/"1" and its IV and perf values as
``repr(float(v))``, which round-trips every float exactly. The writer and
the reader work on whole arrays but keep that text byte for byte. The
reader takes only the header the writer derives from the column names and
option cells "0" or "1"; a value cell may be any literal that ``float()``
reads as a finite float, such as " 1.5", "+1.0" or "1_0".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonio import write_atomic
from .seeds import derive
from .semantics import SystemSemantics, Evaluator

DEFAULT_TRAIN_SIZES = (20, 50, 100, 200, 500, 1000)
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

    system_id: str
    seed: int
    bits: np.ndarray
    ivs: np.ndarray
    perf: np.ndarray
    n_train: int
    train_sizes: tuple[int, ...]
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
    train_sizes: tuple[int, ...] | None = None,
    system_id: str = "system",
) -> SystemDataset:
    """Draw n_train + n_test distinct configurations and measure them, with
    the noise of every row drawn from one generator (module docstring)."""
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    evaluator = Evaluator(semantics)
    rng = np.random.default_rng(derive(seed, "configs"))
    bits = _draw_distinct_configs(rng, len(evaluator.options), n_train + n_test)
    ivs, perf = evaluator.noiseless(bits.astype(float))
    ivs, perf = evaluator.apply_noise(ivs, perf, derive(seed, "noise"))

    if train_sizes is None:
        sizes = tuple(n for n in DEFAULT_TRAIN_SIZES if n <= n_train)
    else:
        sizes = tuple(sorted(train_sizes))
        if sizes and sizes[-1] > n_train:
            raise ValueError(f"max train size {sizes[-1]} exceeds n_train {n_train}")
    return SystemDataset(
        system_id=system_id, seed=seed, bits=bits, ivs=ivs, perf=perf, n_train=n_train,
        train_sizes=sizes,
        option_names=tuple(n.encode() for n in evaluator.options),
        iv_names=tuple(n.encode() for n in evaluator.ivs),
        perf_names=tuple(n.encode() for n in evaluator.perfs),
    )


def _header(names) -> list[str]:
    """The CSV column names of the node names `names`: "O:m:j" is "o_m_j",
    "IV:m:k" is "iv_m_k" and "P:q" is "perf_q"."""
    prefix = {"O": "o", "IV": "iv", "P": "perf"}
    return ["_".join([prefix[kind], *rest]) for kind, *rest in (n.split(":") for n in names)]


def rows_to_csv(dataset: SystemDataset, rows: slice) -> str:
    """The header line, then one line per row of `dataset` that `rows`
    selects: each option bit as ``str(int(b))``, then each IV and perf value
    as ``repr(float(v))``.

    The bits are written as one digit-and-comma byte array, so a line's
    bit cells are one ``tobytes().decode()``; the values go through one
    ``tolist()``, whose floats ``repr`` exactly as ``repr(float(v))``.
    """
    bits = dataset.bits[rows]
    values = np.hstack([dataset.ivs[rows], dataset.perf[rows]], dtype=float)
    digits = np.full((len(bits), 2 * bits.shape[1]), ord(","), dtype=np.uint8)
    digits[:, ::2] = bits + ord("0")
    lines = [",".join(_header(dataset.option_names + dataset.iv_names + dataset.perf_names))]
    lines += [
        prefix.tobytes().decode() + ",".join(map(repr, row))
        for prefix, row in zip(digits, values.tolist())
    ]
    return "\n".join(lines) + "\n"


def _line_error(line: str, n_options: int, width: int) -> str | None:
    """Why one body line is malformed, or None: the cell-by-cell form of the
    bulk checks in `rows_from_csv`."""
    cells = line.split(",")
    if len(cells) != width:
        return f"{len(cells)} cells, expected {width}"
    bad = [c for c in cells[:n_options] if c not in ("0", "1")]
    if bad:
        return f"option bit {bad[0]!r} is not 0 or 1"
    try:
        values = [float(c) for c in cells[n_options:]]
    except ValueError as exc:
        return str(exc)
    if not np.isfinite(values).all():
        return "values must be finite"
    return None


def rows_from_csv(text: str, options, ivs, perfs) -> tuple[np.ndarray, np.ndarray]:
    """Parse a CSV that `rows_to_csv` wrote for the columns named `options`,
    `ivs` and `perfs` into its option bits (rows x options, uint8) and its
    IV and perf values (rows x (IVs + perfs)); a header-only text gives no
    rows.

    The header must be the one `rows_to_csv` derives from the names. Every
    option cell must be exactly "0" or "1", and every value cell a literal
    that ``float()`` reads as a finite float. The lines are checked and
    parsed in bulk: every line's bit cells at once from its fixed-width
    prefix, every value with one parse. When that fails, the lines are
    checked one by one to raise a ValueError naming the first malformed
    1-based line.
    """
    n_options, n_ivs = len(options), len(ivs)
    if n_ivs < 1 or len(perfs) < 1:
        raise ValueError("a dataset has at least one IV and one perf column")
    header, *body = text.strip().split("\n")
    want = _header([*options, *ivs, *perfs])
    width = len(want)
    for k, (got_cell, want_cell) in enumerate(itertools.zip_longest(header.split(","), want)):
        if got_cell != want_cell:
            raise ValueError(f"line 1: header cell {k + 1} is {got_cell!r}, expected {want_cell!r}")
    if not body:
        return np.empty((0, n_options), np.uint8), np.empty((0, width - n_options))
    n_chars = 2 * n_options  # "b," per option bit
    try:
        if any(line.count(",") != width - 1 for line in body):
            raise ValueError
        prefixes = np.frombuffer(
            "".join([line[:n_chars] for line in body]).encode(), dtype=np.uint8
        ).reshape(len(body), n_chars)
        commas_ok = (prefixes[:, 1::2] == ord(",")).all()
        if not (commas_ok and ((prefixes[:, ::2] | 1) == ord("1")).all()):  # "0" or "1"
            raise ValueError
        cells = ",".join([line[n_chars:] for line in body]).split(",")
        values = np.fromiter(map(float, cells), float, len(cells))
        values = values.reshape(len(body), width - n_options)
        if not np.isfinite(values).all():
            raise ValueError
    except ValueError:
        for k, line in enumerate(body):
            error = _line_error(line, n_options, width)
            if error:
                raise ValueError(f"line {k + 2}: {error}") from None
        raise  # not reached: the line checks cover every bulk check
    return prefixes[:, ::2] - ord("0"), values


def save_dataset(dataset: SystemDataset, directory: Path, semantics_file: str) -> dict:
    """Write train/test CSVs plus a manifest binding them to their inputs,
    each through `write_atomic`."""
    write_atomic(directory / "train.csv", rows_to_csv(dataset, slice(dataset.n_train)))
    write_atomic(directory / "test.csv", rows_to_csv(dataset, slice(dataset.n_train, None)))
    manifest = {
        "system_id": dataset.system_id,
        "seed": dataset.seed,
        "semantics_file": semantics_file,
        "train_file": "train.csv",
        "test_file": "test.csv",
        "n_train": dataset.n_train,
        "n_test": len(dataset.bits) - dataset.n_train,
        "train_sizes": list(dataset.train_sizes),
        "columns": {
            "options": list(dataset.option_names),
            "ivs": list(dataset.iv_names),
            "perfs": list(dataset.perf_names),
        },
    }
    write_atomic(directory / "dataset.json", json.dumps(manifest, sort_keys=True, indent=2))
    return manifest


def load_dataset(directory: Path) -> SystemDataset:
    """Read what `save_dataset` wrote. Each CSV must hold the header the
    writer derives from dataset.json's columns and as many rows as
    dataset.json's `n_train` or `n_test`; a ValueError names the file that
    does not."""
    manifest = json.loads((directory / "dataset.json").read_text())
    cols = manifest["columns"]
    names = cols["options"], cols["ivs"], cols["perfs"]
    parts = []
    for file_key, count_key in (("train_file", "n_train"), ("test_file", "n_test")):
        path = directory / manifest[file_key]
        try:
            bits, values = rows_from_csv(path.read_text(), *names)
            if len(bits) != manifest[count_key]:
                raise ValueError(f"{len(bits)} rows, dataset.json has {count_key} {manifest[count_key]}")
        except ValueError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
        parts.append((bits, values))
    bits, values = (np.concatenate(arrays) for arrays in zip(*parts))
    n_ivs = len(cols["ivs"])
    return SystemDataset(
        system_id=manifest["system_id"], seed=manifest["seed"], bits=bits,
        ivs=values[:, :n_ivs], perf=values[:, n_ivs:], n_train=manifest["n_train"],
        train_sizes=tuple(manifest["train_sizes"]),
        option_names=tuple(cols["options"]),
        iv_names=tuple(cols["ivs"]),
        perf_names=tuple(cols["perfs"]),
    )
