"""Serialization of analysis artifacts: matrix JSON/CSV, hypothesis-test
tables, and a dependency-free SVG heatmap of the opportunity matrix."""

from __future__ import annotations

import csv
import dataclasses
import io
import json

from .hardness_opportunity import HARDNESS_LEVELS, MATRIX_LEVELS, OpportunityMatrix
from .stats import HypothesisTest

_BRIGHT = (247, 251, 255)
_DARK = (8, 48, 107)


def matrix_to_json(matrix: OpportunityMatrix) -> str:
    cells = {}
    for (level, hardness_level), cell in sorted(matrix.cells.items()):
        cells[f"{level},{hardness_level}"] = {
            "mean": cell.mean,
            "n": cell.count,
            "samples": list(cell.samples),
            "empty": cell.empty,
        }
    return json.dumps({"metric": matrix.metric, "cells": cells}, sort_keys=True, indent=2)


def matrix_from_json(text: str) -> OpportunityMatrix:
    from .hardness_opportunity import MatrixCell

    doc = json.loads(text)
    cells = {}
    for key, payload in doc["cells"].items():
        level, hardness_level = key.split(",")
        cells[(level, hardness_level)] = MatrixCell(
            level=level, hardness_level=hardness_level, samples=tuple(payload["samples"])
        )
    return OpportunityMatrix(metric=doc["metric"], cells=cells)


def matrix_to_csv(matrix: OpportunityMatrix) -> str:
    lines = ["level,hardness,mean,n"]
    for level in MATRIX_LEVELS:
        for hardness_level in HARDNESS_LEVELS:
            cell = matrix.cell(level, hardness_level)
            mean = "" if cell.mean is None else repr(cell.mean)
            lines.append(f"{level},{hardness_level},{mean},{cell.count}")
    return "\n".join(lines) + "\n"


def samples_to_csv(matrix: OpportunityMatrix) -> str:
    """Long-form samples for external plotting."""
    lines = ["level,hardness,opportunity"]
    for level in MATRIX_LEVELS:
        for hardness_level in HARDNESS_LEVELS:
            for value in matrix.cell(level, hardness_level).samples:
                lines.append(f"{level},{hardness_level},{value!r}")
    return "\n".join(lines) + "\n"


def tests_to_json(tests: list[HypothesisTest]) -> str:
    return json.dumps([dataclasses.asdict(t) for t in tests], sort_keys=True, indent=2)


def tests_to_csv(tests: list[HypothesisTest]) -> str:
    """Standard CSV, one column per `HypothesisTest` field: a group is written
    as ``level|hardness``, None as an empty cell, and a cell holding a comma,
    such as every `hypothesis_id`, is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in dataclasses.fields(HypothesisTest))
    for t in tests:
        writer.writerow("|".join(v) if isinstance(v, tuple) else v for v in dataclasses.astuple(t))
    return out.getvalue()


def _blend(fraction: float) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    rgb = [round(b + (d - b) * fraction) for b, d in zip(_BRIGHT, _DARK)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def heatmap_svg(matrix: OpportunityMatrix) -> str:
    """3x3 heatmap, knowledge rows by hardness columns, bright-to-dark by
    mean opportunity. Standalone SVG with no external references."""
    cell_w, cell_h = 150, 90
    left, top = 120, 70
    width = left + 3 * cell_w + 30
    height = top + 3 * cell_h + 40
    means = [
        matrix.cell(lv, hd).mean
        for lv in MATRIX_LEVELS
        for hd in HARDNESS_LEVELS
        if matrix.cell(lv, hd).mean is not None
    ]
    max_mean = max(means) if means else 1.0
    scale = max_mean if max_mean > 0 else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + 1.5 * cell_w}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">Mean opportunity ({matrix.metric})</text>',
    ]
    for col, hardness_level in enumerate(HARDNESS_LEVELS):
        x = left + col * cell_w + cell_w / 2
        parts.append(
            f'<text x="{x}" y="{top - 12}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13">{hardness_level.capitalize()}</text>'
        )
    for row, level in enumerate(MATRIX_LEVELS):
        y = top + row * cell_h + cell_h / 2
        parts.append(
            f'<text x="{left - 12}" y="{y + 4}" text-anchor="end" font-family="sans-serif" '
            f'font-size="13">{level.capitalize()}</text>'
        )
        for col, hardness_level in enumerate(HARDNESS_LEVELS):
            cell = matrix.cell(level, hardness_level)
            x = left + col * cell_w
            y0 = top + row * cell_h
            if cell.empty:
                fill = "#eeeeee"
                label = "empty"
                text_fill = "#666666"
            else:
                fraction = cell.mean / scale
                fill = _blend(fraction)
                label = f"{cell.mean:.3f}"
                text_fill = "#000000" if fraction < 0.55 else "#ffffff"
            parts.append(
                f'<rect x="{x}" y="{y0}" width="{cell_w}" height="{cell_h}" fill="{fill}" '
                f'stroke="#444444" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x + cell_w / 2}" y="{y0 + cell_h / 2}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="15" fill="{text_fill}">{label}</text>'
            )
            parts.append(
                f'<text x="{x + cell_w / 2}" y="{y0 + cell_h / 2 + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11" fill="{text_fill}">n={cell.count}</text>'
            )
    parts.append(
        f'<text x="{left + 1.5 * cell_w}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">hardness level</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
