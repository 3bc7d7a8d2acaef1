"""Configuration sampling, measurement records, and dataset persistence.

Configurations are drawn uniformly without replacement (duplicates are
re-drawn) so train and test never overlap; the train list is already in
seeded-random order, which makes nested training prefixes well defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    """Draw n_train + n_test distinct configurations and measure them.

    Each record gets its own derived noise seed, so records are reproducible
    individually as well as in bulk.
    """
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    evaluator = Evaluator(semantics)
    rng = np.random.default_rng(derive(seed, "configs"))
    total = n_train + n_test
    bits = _draw_distinct_configs(rng, len(evaluator.options), total)

    iv_values, perf_values = evaluator.noiseless(bits.astype(float))
    noise_seeds = [derive(seed, "noise", k) for k in range(total)]
    iv_values, perf_values = evaluator.apply_noise(iv_values, perf_values, noise_seeds)

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
    lines = [",".join(_header(dataset))]
    for rec in records:
        cells = [str(int(b)) for b in rec.config]
        cells += [repr(float(v)) for v in rec.iv_values]
        cells += [repr(float(v)) for v in rec.perf_values]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def records_from_csv(text: str, n_options: int, n_ivs: int, n_perfs: int) -> list[MeasurementRecord]:
    """Parse a CSV written by `records_to_csv`; a malformed line raises
    ValueError naming its 1-based line number."""
    header, *body = text.strip().split("\n")
    width = n_options + n_ivs + n_perfs
    n_header = len(header.split(","))
    if n_header != width:
        raise ValueError(f"line 1: {n_header} header cells, expected {width}")
    bits = np.empty((len(body), n_options), dtype=np.uint8)
    values = np.empty((len(body), n_ivs + n_perfs))
    for k, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"line {k + 2}: {len(cells)} cells, expected {width}")
        try:
            bits[k] = cells[:n_options]  # numpy parses each cell with int()
            values[k] = list(map(float, cells[n_options:]))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {k + 2}: {exc}") from None
    bad = (bits > 1).any(axis=1) | ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"line {int(np.argmax(bad)) + 2}: option bits must be 0/1 and values finite")
    return [
        MeasurementRecord(config=bits[k], iv_values=values[k, :n_ivs], perf_values=values[k, n_ivs:])
        for k in range(len(body))
    ]


def save_dataset(dataset: SystemDataset, directory: Path, semantics_file: str) -> dict:
    """Write train/test CSVs plus a manifest binding them to their inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "train.csv").write_text(records_to_csv(dataset, dataset.train))
    (directory / "test.csv").write_text(records_to_csv(dataset, dataset.test))
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
    (directory / "dataset.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
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
