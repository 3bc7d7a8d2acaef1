"""Hardness and opportunity scores over efficacy curves, plus the 3x3
knowledge-by-hardness matrix.

Hardness is the normalized, training-size-weighted loss of the black-box
(Null) curve; opportunity measures how much of the Null-to-Ideal efficacy
gap a knowledge level fills, with the same 1/n weighting. Efficacies are
clamped to [0, 1] before scoring so both values stay in [0, 1] even for
slightly negative rank correlations.

Both scores work on a `CurveTable`: the curves of many units over shared
training sizes, one row per curve; one curve is a one-row table. The size
columns are accumulated in size order with the per-value operations
(`0 + l_1/n_1 + ...`), and every clamp keeps the builtins' tie rule
(`_clamp`), so a row gets the same bits in any table as alone, down to
the sign of zero. `classify_hardness` bins a whole array against cut-offs
computed once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GAP_EPS = 1e-9
EMPIRICAL_MIN_SCORES = 4  # empirical mode's quartiles need this many scores


def _clamp(x, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """min(max(x, lo), hi) elementwise, keeping x where it ties a bound as the
    builtins do: -0.0 stays -0.0. np.maximum(-0.0, 0.0) gives 0.0 here (the
    SIMD max returns its second operand on a tie), so it is not used."""
    x = np.where(x < lo, lo, x)
    return np.where(x > hi, hi, x)


MATRIX_LEVELS = ("partial", "practical", "complete")
HARDNESS_LEVELS = ("low", "medium", "high")


@dataclass(frozen=True)
class CurveTable:
    """Efficacy curves of one metric over shared training sizes: `values`
    holds one curve per row and one size per column."""

    metric: str
    sizes: tuple[int, ...]
    values: np.ndarray  # (curves, sizes)

    def __post_init__(self):
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("training sizes must be strictly increasing")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.sizes):
            raise ValueError(f"values must be (curves, {len(self.sizes)}), got {self.values.shape}")


def scaling_constant(sizes) -> float:
    """Exact reciprocal of the harmonic sum of the training sizes."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("empty size list")
    if any(n <= 0 for n in sizes):
        raise ValueError("sizes must be positive")
    if all(isinstance(n, (int, np.integer)) for n in sizes):
        return float(1 / sum(Fraction(1, int(n)) for n in sizes))
    return float(1.0 / sum(1.0 / n for n in sizes))


def _size_weighted(per_size: np.ndarray, sizes) -> np.ndarray:
    """C * sum(per_size[:, j] / n_j) per row, summed in size order and
    clamped to [0, 1]: C * sum(1 / n) can round one ulp above 1."""
    constant = scaling_constant(sizes)
    total = 0
    for j, n in enumerate(sizes):
        total = total + per_size[:, j] / n
    return _clamp(constant * total)


@dataclass(frozen=True)
class HardnessScore:
    value: np.ndarray  # one value per row of the table
    metric: str
    scaling_constant: float


def hardness(table: CurveTable) -> HardnessScore:
    """Size-weighted normalized loss: C * sum((1 - p_i) / n_i), per curve."""
    if not table.sizes:
        raise ValueError("empty curve")
    if not np.isfinite(table.values).all():
        raise ValueError("efficacies must be finite")
    value = _size_weighted(_clamp(1.0 - table.values), table.sizes)
    return HardnessScore(value, table.metric, scaling_constant(table.sizes))


@dataclass(frozen=True)
class OpportunityScore:
    """`value` holds one score per curve; `gap` and `filling` one row per
    curve and one column per training size."""

    value: np.ndarray
    level: str
    metric: str
    sizes: tuple[int, ...]
    gap: np.ndarray  # clamped ideal minus clamped null efficacy
    filling: np.ndarray  # share of the gap the level fills, in [0, 1]


def opportunity(null: CurveTable, ideal: CurveTable, known: CurveTable, level: str) -> OpportunityScore:
    """Size-weighted filled gap between the Null and Ideal efficacy curves."""
    if not (null.sizes == ideal.sizes == known.sizes):
        raise ValueError("curves must share identical training sizes")
    if not (null.metric == ideal.metric == known.metric):
        raise ValueError("curves must share the same metric")
    if not (null.values.shape == ideal.values.shape == known.values.shape):
        raise ValueError("tables must hold the same number of curves")
    p_null = _clamp(null.values)
    gap = _clamp(ideal.values) - p_null
    open_gap = gap > GAP_EPS
    filling = np.where(
        open_gap, _clamp((_clamp(known.values) - p_null) / np.where(open_gap, gap, 1.0)), 0.0
    )
    value = _size_weighted(filling * _clamp(gap, 0.0, np.inf), null.sizes)
    return OpportunityScore(
        value=value, level=level, metric=null.metric, sizes=null.sizes, gap=gap, filling=filling
    )


class HardnessMode(str, enum.Enum):
    FIXED_RANGE = "fixed"
    EMPIRICAL_QUARTILE = "empirical"


def classify_hardness(
    value: float | np.ndarray,
    mode: HardnessMode = HardnessMode.FIXED_RANGE,
    population=None,
) -> str | list[str]:
    """Bin hardness values into low/medium/high: one label for a float, a
    list of labels for an array.

    Fixed mode partitions [0, 1] into equal quartiles: [0, 0.25) low,
    [0.25, 0.75) medium, [0.75, 1] high. Empirical mode uses the same
    quartile rule on the observed population (linear-interpolation
    quantiles), computed once per call. In both modes a value equal to a
    cut-off goes to the upper class, so an empirical population whose
    values are all equal is all `high`.
    """
    if mode is HardnessMode.FIXED_RANGE:
        q25, q75 = 0.25, 0.75
    else:
        if population is None or len(population) < EMPIRICAL_MIN_SCORES:
            raise ValueError(f"empirical mode needs a population of >= {EMPIRICAL_MIN_SCORES} scores")
        pop = np.asarray(population, dtype=float)
        q25 = float(np.quantile(pop, 0.25))
        q75 = float(np.quantile(pop, 0.75))
    values = np.asarray(value, dtype=float)
    labels = np.where(values < q25, "low", np.where(values < q75, "medium", "high"))
    return labels.tolist()


@dataclass(frozen=True)
class MatrixCell:
    level: str
    hardness_level: str
    samples: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float | None:
        return float(np.mean(self.samples)) if self.samples else None

    @property
    def empty(self) -> bool:
        return not self.samples


@dataclass(frozen=True)
class OpportunityMatrix:
    metric: str
    cells: dict[tuple[str, str], MatrixCell]

    def cell(self, level: str, hardness_level: str) -> MatrixCell:
        return self.cells[(level, hardness_level)]


def build_matrix(observations, metric: str) -> OpportunityMatrix:
    """Group (level, hardness_level, opportunity value) triples into the
    3x3 matrix; empty cells are permitted and queryable."""
    samples: dict[tuple[str, str], list[float]] = {
        (lv, hd): [] for lv in MATRIX_LEVELS for hd in HARDNESS_LEVELS
    }
    for level, hardness_level, value in observations:
        if level not in MATRIX_LEVELS:
            raise ValueError(f"level must be one of {MATRIX_LEVELS}, got {level!r}")
        if hardness_level not in HARDNESS_LEVELS:
            raise ValueError(f"hardness level must be one of {HARDNESS_LEVELS}, got {hardness_level!r}")
        samples[(level, hardness_level)].append(float(value))
    cells = {
        key: MatrixCell(level=key[0], hardness_level=key[1], samples=tuple(vals))
        for key, vals in samples.items()
    }
    return OpportunityMatrix(metric=metric, cells=cells)
