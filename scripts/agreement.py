#!/usr/bin/env python3
"""Compare two analysed output trees unit by unit.

    python scripts/agreement.py A B

A and B are output directories that the analyze stage has written. For
every metric both trees analysed, over the units both scored, the script
prints one JSON line holding:

- `hardness`: Spearman's rho over units of measured hardness (the null
  curve's score in `analysis/hardness_<metric>.json`), the median per-unit
  |B - A|, each tree's mean, and the share of units that both trees put in
  the same empirical hardness class (each tree binned by the quartiles of
  its own values over those units);
- `opportunity`: per matrix level, the same rho, median |B - A| and means of
  each unit's opportunity (`analysis/opportunities_<metric>.json`);
- `pooled`: the median per-unit |B - A| of hardness over every metric's
  units, and of opportunity over every (metric, level, unit), with the
  number of values each pools.

Rerunning one config gives rho 1 and |B - A| 0; comparing a tree with a
re-seeded copy of itself measures how much of a per-unit figure is seed
noise.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modperf.hardness_opportunity import (  # noqa: E402
    EMPIRICAL_MIN_SCORES,
    HardnessMode,
    classify_hardness,
)
from modperf.metrics import spearman  # noqa: E402


def _read(tree: Path, name: str):
    return json.loads((tree / "analysis" / name).read_text())


def _hardness(tree: Path, metric: str) -> dict[str, float]:
    return {row["unit"]: row["value"] for row in _read(tree, f"hardness_{metric}.json")}


def _opportunities(tree: Path, metric: str) -> dict[str, dict[str, float]]:
    """Per matrix level, each unit's opportunity; a unit whose level curve
    is incomplete has none."""
    doc = _read(tree, f"opportunities_{metric}.json")
    return {
        level: {u: v for u, v in zip(doc["units"], column["value"]) if v is not None}
        for level, column in doc["levels"].items()
    }


def _compare(a: dict[str, float], b: dict[str, float]) -> tuple[dict, np.ndarray]:
    """Agreement of two per-unit value maps over their common units, and
    each of those units' |b - a|."""
    units = sorted(a.keys() & b.keys())
    x = np.array([a[u] for u in units], dtype=float)
    y = np.array([b[u] for u in units], dtype=float)
    delta = np.abs(y - x)
    summary = {
        "units": len(units),
        "spearman": round(spearman(x, y), 4) if len(units) >= 2 else None,
        "median_abs_delta": round(float(np.median(delta)), 4) if len(units) else None,
        "mean": [round(float(v.mean()), 4) if len(units) else None for v in (x, y)],
    }
    return summary, delta


def _class_agreement(a: dict[str, float], b: dict[str, float]) -> float | None:
    """Share of common units that both trees put in the same empirical
    hardness class, each binned by its own quartiles."""
    units = sorted(a.keys() & b.keys())
    if len(units) < EMPIRICAL_MIN_SCORES:
        return None
    labels = []
    for values in (a, b):
        x = np.array([values[u] for u in units], dtype=float)
        labels.append(classify_hardness(x, HardnessMode.EMPIRICAL_QUARTILE, population=x))
    return round(sum(p == q for p, q in zip(*labels)) / len(units), 4)


def agreement(a: Path, b: Path) -> dict:
    """The agreement document of trees `a` and `b` (see the module docstring)."""
    names = [{p.stem[len("hardness_"):] for p in (t / "analysis").glob("hardness_*.json")} for t in (a, b)]
    pooled = {"hardness": [], "opportunity": []}
    metrics = {}
    for metric in sorted(names[0] & names[1]):
        ha, hb = _hardness(a, metric), _hardness(b, metric)
        hardness, delta = _compare(ha, hb)
        hardness["class_agreement"] = _class_agreement(ha, hb)
        pooled["hardness"].append(delta)
        oa, ob = _opportunities(a, metric), _opportunities(b, metric)
        opportunity = {}
        for level in sorted(oa.keys() & ob.keys()):
            opportunity[level], delta = _compare(oa[level], ob[level])
            pooled["opportunity"].append(delta)
        metrics[metric] = {"hardness": hardness, "opportunity": opportunity}
    pooled_doc = {}
    for name, deltas in pooled.items():
        values = np.concatenate(deltas) if deltas else np.zeros(0)
        median = round(float(np.median(values)), 4) if len(values) else None
        pooled_doc[name] = {"median_abs_delta": median, "values": len(values)}
    return {"a": str(a), "b": str(b), "metrics": metrics, "pooled": pooled_doc}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print(json.dumps(agreement(Path(args[0]), Path(args[1])), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
