"""Hardness and opportunity scores over efficacy curves, plus the 3x3
knowledge-by-hardness matrix.

Hardness is the normalized, training-size-weighted loss of the black-box
(Null) curve; opportunity measures how much of the Null-to-Ideal efficacy
gap a knowledge level fills, with the same 1/n weighting. Efficacies are
clamped to [0, 1] before scoring so both values stay in [0, 1] even for
slightly negative rank correlations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GAP_EPS = 1e-9


def _clamp01(p: float) -> float:
    return min(max(p, 0.0), 1.0)


MATRIX_LEVELS = ("partial", "practical", "complete")
HARDNESS_LEVELS = ("low", "medium", "high")


@dataclass(frozen=True)
class EfficacyCurve:
    metric: str
    points: tuple[tuple[int, float], ...]  # (training size, efficacy), sizes increasing

    def __post_init__(self):
        sizes = [n for n, _ in self.points]
        if sizes != sorted(set(sizes)):
            raise ValueError("training sizes must be strictly increasing")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.points)

    @property
    def efficacies(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.points)


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


@dataclass(frozen=True)
class HardnessScore:
    value: float
    metric: str
    scaling_constant: float


def hardness(curve: EfficacyCurve) -> HardnessScore:
    """Size-weighted normalized loss: C * sum((1 - p_i) / n_i)."""
    if not curve.points:
        raise ValueError("empty curve")
    if not all(np.isfinite(p) for p in curve.efficacies):
        raise ValueError("efficacies must be finite")
    constant = scaling_constant(curve.sizes)
    losses = [min(max(1.0 - p, 0.0), 1.0) for p in curve.efficacies]
    # C * sum(1 / n) can round one ulp above 1, so clamp the product too
    value = _clamp01(constant * sum(l / n for l, n in zip(losses, curve.sizes)))
    return HardnessScore(value=float(value), metric=curve.metric, scaling_constant=constant)


@dataclass(frozen=True)
class OpportunityScore:
    value: float
    level: str
    metric: str
    per_size: tuple[tuple[int, float, float], ...]  # (n_i, gap, filling ratio)


def opportunity(
    null_curve: EfficacyCurve,
    ideal_curve: EfficacyCurve,
    level_curve: EfficacyCurve,
    level: str,
) -> OpportunityScore:
    """Size-weighted filled gap between the Null and Ideal efficacy curves."""
    if not (null_curve.sizes == ideal_curve.sizes == level_curve.sizes):
        raise ValueError("curves must share identical training sizes")
    if not (null_curve.metric == ideal_curve.metric == level_curve.metric):
        raise ValueError("curves must share the same metric")
    constant = scaling_constant(null_curve.sizes)
    per_size = []
    total = 0.0
    for (n, p_null), (_, p_ideal), (_, p_level) in zip(
        null_curve.points, ideal_curve.points, level_curve.points
    ):
        gap = _clamp01(p_ideal) - _clamp01(p_null)
        if gap > GAP_EPS:
            filling = min(max((_clamp01(p_level) - _clamp01(p_null)) / gap, 0.0), 1.0)
        else:
            filling = 0.0
        per_size.append((n, gap, filling))
        total += filling * max(gap, 0.0) / n
    return OpportunityScore(
        value=float(_clamp01(constant * total)),
        level=level,
        metric=null_curve.metric,
        per_size=tuple(per_size),
    )


class HardnessMode(str, enum.Enum):
    FIXED_RANGE = "fixed"
    EMPIRICAL_QUARTILE = "empirical"


def classify_hardness(
    value: float | HardnessScore,
    mode: HardnessMode = HardnessMode.FIXED_RANGE,
    population=None,
) -> str:
    """Bin a hardness value into low/medium/high.

    Fixed mode partitions [0, 1] into equal quartiles: [0, 0.25) low,
    [0.25, 0.75) medium, [0.75, 1] high. Empirical mode uses the same
    quartile rule on the observed population (linear-interpolation
    quantiles).
    """
    if isinstance(value, HardnessScore):
        value = value.value
    if mode is HardnessMode.FIXED_RANGE:
        q25, q75 = 0.25, 0.75
    else:
        if population is None or len(population) < 4:
            raise ValueError("empirical mode needs a population of >= 4 scores")
        pop = [v.value if isinstance(v, HardnessScore) else float(v) for v in population]
        q25 = float(np.quantile(pop, 0.25))
        q75 = float(np.quantile(pop, 0.75))
    if value < q25:
        return "low"
    if value < q75:
        return "medium"
    return "high"


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
        if isinstance(value, OpportunityScore):
            value = value.value
        samples[(level, hardness_level)].append(float(value))
    cells = {
        key: MatrixCell(level=key[0], hardness_level=key[1], samples=tuple(vals))
        for key, vals in samples.items()
    }
    return OpportunityMatrix(metric=metric, cells=cells)
