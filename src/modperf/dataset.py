"""Configuration sampling, measurement records, and dataset persistence.

Configurations are drawn uniformly without replacement (duplicates are
re-drawn) so train and test never overlap; the train list is already in
seeded-random order, which makes nested training prefixes well defined.
The measurement noise of all records comes from one generator seeded with
`derive(seed, "noise")`, which draws a (records x values) block in record
order (`Evaluator.apply_noise`).

The CSV format is defined cell by cell: a header of column names, then per
record its option bits as "0"/"1" and its IV and perf values as
``repr(float(v))``, which round-trips every float exactly. The writer and
the reader work on whole arrays but keep that text byte for byte; the
reader accepts only the exact cells the writer produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SystemDataset:
    system_id: str
    seed: int
    train: list[MeasurementRecord]
    test: list[MeasurementRecord]
    train_sizes: tuple[int, ...]
    option_names: tuple[str, ...] = field(default=(), compare=False)
    iv_names: tuple[str, ...] = field(default=(), compare=False)
    perf_names: tuple[str, ...] = field(default=(), compare=False)


def _draw_distinct_configs(
    rng: np.random.Generator, n_options: int, total: int
) -> np.ndarray:
    if 2**n_options < total:
        raise CapacityError(
            f"requested {total} distinct configurations from a space of {2**n_options}"
        )
    seen: set[bytes] = set()
    rows: list[np.ndarray] = []
    for _ in range(_OVERSAMPLE_ROUNDS):
        batch = rng.integers(0, 2, size=(total, n_options), dtype=np.uint8)
        for row in batch:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
                if len(rows) == total:
                    return np.stack(rows)
    raise CapacityError(
        f"could not draw {total} distinct configurations in "
        f"{_OVERSAMPLE_ROUNDS}x oversampling"
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
    the noise of every record drawn from one generator (module docstring)."""
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    evaluator = Evaluator(semantics)
    rng = np.random.default_rng(derive(seed, "configs"))
    total = n_train + n_test
    bits = _draw_distinct_configs(rng, len(evaluator.options), total)

    iv_values, perf_values = evaluator.noiseless(bits.astype(float))
    iv_values, perf_values = evaluator.apply_noise(iv_values, perf_values, derive(seed, "noise"))

    records = [
        MeasurementRecord(config=bits[k], iv_values=iv_values[k], perf_values=perf_values[k])
        for k in range(total)
    ]
    if train_sizes is None:
        sizes = tuple(n for n in DEFAULT_TRAIN_SIZES if n <= n_train)
    else:
        sizes = tuple(sorted(train_sizes))
        if sizes and sizes[-1] > n_train:
            raise ValueError(f"max train size {sizes[-1]} exceeds n_train {n_train}")
    return SystemDataset(
        system_id=system_id,
        seed=seed,
        train=records[:n_train],
        test=records[n_train:],
        train_sizes=sizes,
        option_names=tuple(n.encode() for n in evaluator.options),
        iv_names=tuple(n.encode() for n in evaluator.ivs),
        perf_names=tuple(n.encode() for n in evaluator.perfs),
    )


def training_prefix(dataset: SystemDataset, n: int) -> list[MeasurementRecord]:
    """First n training records; prefixes nest (prefix(50) extends prefix(20))."""
    if n < 1:
        raise ValueError(f"prefix size must be >= 1, got {n}")
    if n > len(dataset.train):
        raise ValueError(f"prefix {n} exceeds training set size {len(dataset.train)}")
    return dataset.train[:n]


def _header(dataset: SystemDataset) -> list[str]:
    def col(name: str) -> str:
        parts = name.split(":")
        if parts[0] == "O":
            return f"o_{parts[1]}_{parts[2]}"
        if parts[0] == "IV":
            return f"iv_{parts[1]}_{parts[2]}"
        return f"perf_{parts[1]}"

    return [col(n) for n in dataset.option_names + dataset.iv_names + dataset.perf_names]


def records_to_csv(dataset: SystemDataset, records: list[MeasurementRecord]) -> str:
    """The header line, then one line per record: each option bit as
    ``str(int(b))``, then each IV and perf value as ``repr(float(v))``.

    The bits are written as one digit-and-comma byte array, so a line's
    bit cells are one ``tobytes().decode()``; the values go through one
    ``tolist()``, whose floats ``repr`` exactly as ``repr(float(v))``.
    """
    lines = [",".join(_header(dataset))]
    if records:
        bits = np.stack([r.config for r in records])
        values = np.hstack(
            [np.stack([r.iv_values for r in records]), np.stack([r.perf_values for r in records])],
            dtype=float,
        )
        digits = np.full((len(records), 2 * bits.shape[1]), ord(","), dtype=np.uint8)
        digits[:, ::2] = bits + ord("0")
        lines += [
            prefix.tobytes().decode() + ",".join(map(repr, row))
            for prefix, row in zip(digits, values.tolist())
        ]
    return "\n".join(lines) + "\n"


def _line_error(line: str, n_options: int, width: int) -> str | None:
    """Why one body line is malformed, or None: the cell-by-cell form of the
    bulk checks in `records_from_csv`."""
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


def records_from_csv(text: str, n_options: int, n_ivs: int, n_perfs: int) -> list[MeasurementRecord]:
    """Parse a CSV written by `records_to_csv`; a header-only text gives [].

    Every option cell must be exactly "0" or "1", as the writer produces,
    and every value a finite ``float()``. The lines are checked and parsed
    in bulk: every line's bit cells at once from its fixed-width prefix,
    every value with one parse. When that fails, the lines are checked one
    by one to raise a ValueError naming the first malformed 1-based line.
    """
    if n_ivs < 1 or n_perfs < 1:
        raise ValueError("a dataset has at least one IV and one perf column")
    header, *body = text.strip().split("\n")
    width = n_options + n_ivs + n_perfs
    n_header = len(header.split(","))
    if n_header != width:
        raise ValueError(f"line 1: {n_header} header cells, expected {width}")
    if not body:
        return []
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
        values = values.reshape(len(body), n_ivs + n_perfs)
        if not np.isfinite(values).all():
            raise ValueError
    except ValueError:
        for k, line in enumerate(body):
            error = _line_error(line, n_options, width)
            if error:
                raise ValueError(f"line {k + 2}: {error}") from None
        raise  # not reached: the line checks cover every bulk check
    bits = prefixes[:, ::2] - ord("0")
    return [
        MeasurementRecord(config=bits[k], iv_values=values[k, :n_ivs], perf_values=values[k, n_ivs:])
        for k in range(len(body))
    ]


def save_dataset(dataset: SystemDataset, directory: Path, semantics_file: str) -> dict:
    """Write train/test CSVs plus a manifest binding them to their inputs,
    each through `write_atomic`."""
    write_atomic(directory / "train.csv", records_to_csv(dataset, dataset.train))
    write_atomic(directory / "test.csv", records_to_csv(dataset, dataset.test))
    manifest = {
        "system_id": dataset.system_id,
        "seed": dataset.seed,
        "semantics_file": semantics_file,
        "train_file": "train.csv",
        "test_file": "test.csv",
        "n_train": len(dataset.train),
        "n_test": len(dataset.test),
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
    manifest = json.loads((directory / "dataset.json").read_text())
    cols = manifest["columns"]
    n_o, n_iv, n_p = len(cols["options"]), len(cols["ivs"]), len(cols["perfs"])
    train = records_from_csv((directory / manifest["train_file"]).read_text(), n_o, n_iv, n_p)
    test = records_from_csv((directory / manifest["test_file"]).read_text(), n_o, n_iv, n_p)
    return SystemDataset(
        system_id=manifest["system_id"],
        seed=manifest["seed"],
        train=train,
        test=test,
        train_sizes=tuple(manifest["train_sizes"]),
        option_names=tuple(cols["options"]),
        iv_names=tuple(cols["ivs"]),
        perf_names=tuple(cols["perfs"]),
    )
