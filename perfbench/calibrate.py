"""A fixed reference computation that measures how fast the machine runs right now.

The machine this benchmark was written on is shared: the same op takes up to
twice as long in one half-minute as in the next. The harness times this
reference before the first op and after every op, and scales each op's wall
time by NOMINAL_S over the mean of the two reference times around it, which
cancels most of that drift. The reference is the harness's own code and
never calls modperf, so a change to modperf cannot move it. Its mix follows the ops: small numpy calls inside a Python
loop (as in tree growing and coordinate descent), Python arithmetic, and
float-to-text formatting (as in the CSV and JSON writers).
"""

from __future__ import annotations

import time

import numpy as np

# The reference's wall time on the machine the benchmark was written on
# (2 shared vCPUs, Python 3.11, numpy 2.4) when it ran fast: normalised times
# read as seconds on that machine at that speed.
NOMINAL_S = 0.3


def _work():
    rng = np.random.default_rng(12345)
    X = rng.random((120, 6))
    y = X @ rng.random(6) + 0.1 * rng.random(120)
    total = 0.0
    for _ in range(72):
        stack = [np.arange(len(y))]
        while stack:
            rows = stack.pop()
            if len(rows) < 8:
                continue
            xs = X[rows]
            order = np.argsort(xs, axis=0, kind="stable")
            ys = y[rows][order]
            c1 = np.cumsum(ys, axis=0)[:-1]
            n_left = np.arange(1, len(rows), dtype=float)[:, None]
            score = c1 * c1 / n_left + (c1[-1] - c1) ** 2 / (len(rows) - n_left)
            pos, col = divmod(int(np.argmax(score)), score.shape[1])
            split = order[: pos + 1, col]
            mask = np.zeros(len(rows), dtype=bool)
            mask[split] = True
            stack += [rows[mask], rows[~mask]]
            total += float(score[pos, col])
    acc = 0
    for i in range(140_000):
        acc += (i * i) % 7
    text = ",".join(repr(float(v)) for v in y.tolist() * 50)
    return total + acc + len(text)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
