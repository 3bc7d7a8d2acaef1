"""Small statistics the harness reports; independent of modperf's own code."""

from __future__ import annotations

import numpy as np


def r2(predicted, actual) -> float:
    """Coefficient of determination of `predicted` against `actual`."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("actual values are constant")
    return 1.0 - float(((actual - predicted) ** 2).sum()) / ss_tot


def spearman(x, y) -> float:
    """Rank correlation, ties broken by average rank."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        sums = np.bincount(inverse, weights=r)
        return sums[inverse] / counts[inverse]

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0.0:
        raise ValueError("a rank vector is constant")
    return float((rx * ry).sum() / denom)


def ok_frac(failed: int, attempted: int) -> float:
    """Share of attempted items that did not fail (1 - fail_frac)."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: failed={failed}, attempted={attempted}")
    return 1.0 - failed / attempted
