"""Efficacy metrics: arctangent percentage error, its scaled accuracy, and
Spearman rank correlation.

Losses used elsewhere are `1 - acc` and `1 - spearman`.
"""

from __future__ import annotations

import numpy as np

ZERO_ACTUAL_EPS = 1e-12


def maape(predicted, actual) -> float:
    """Mean arctangent of absolute percentage error, in [0, pi/2].

    Terms with a zero actual value fall back to arctan(|err| / eps), which
    keeps the metric finite (its point over plain percentage error).
    """
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("empty input")
    denom = np.where(actual == 0.0, ZERO_ACTUAL_EPS, np.abs(actual))
    return float(np.mean(np.arctan(np.abs(actual - predicted) / denom)))


def acc(predicted, actual) -> float:
    """Scaled-MAAPE accuracy: 1 - (2/pi) * maape, in [0, 1]."""
    return 1.0 - (2.0 / np.pi) * maape(predicted, actual)


def rankdata(values) -> np.ndarray:
    """Fractional ranks (1-based); ties get the mean of their rank range."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    # A tie group holds sorted positions starts+1 .. ends (1-based).
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def spearman(predicted, actual) -> float:
    """Spearman rank correlation via Pearson on fractional ranks.

    Zero rank variance on either side (a constant vector) is defined as 0:
    a constant prediction carries no ranking information.
    """
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size < 2:
        raise ValueError("need at least 2 points")
    rp = rankdata(predicted)
    ra = rankdata(actual)
    rp -= rp.mean()
    ra -= ra.mean()
    denom = np.sqrt(np.sum(rp**2) * np.sum(ra**2))
    if denom == 0.0:
        return 0.0
    return float(np.sum(rp * ra) / denom)


METRICS = {"acc": acc, "scc": spearman}


def efficacy(metric: str, predicted, actual) -> float:
    try:
        fn = METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}") from None
    return fn(predicted, actual)
