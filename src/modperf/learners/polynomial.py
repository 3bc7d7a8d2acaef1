"""Polynomial feature expansion with binary-column deduplication.

For a binary 0/1 column, x**k equals x for any k >= 1, so monomials raising
a binary feature beyond power one would duplicate existing columns; those
are skipped. Real-valued features keep their powers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


def _is_binary(column: np.ndarray) -> bool:
    return bool(np.isin(column, (0.0, 1.0)).all())


@dataclass
class PolynomialExpansion:
    degree: int
    feature_names: list[str] = field(default_factory=list)
    terms: list[tuple[tuple[int, int], ...]] = field(default_factory=list)

    def fit(self, X: np.ndarray, feature_names: list[str] | None = None) -> "PolynomialExpansion":
        X = np.asarray(X, dtype=float)
        d = X.shape[1]
        if feature_names is None:
            feature_names = [f"x{i}" for i in range(d)]
        if len(feature_names) != d:
            raise ValueError("feature_names length mismatch")
        self.feature_names = list(feature_names)
        binary = [_is_binary(X[:, i]) for i in range(d)]
        terms: list[tuple[tuple[int, int], ...]] = []
        seen: set[tuple[tuple[int, int], ...]] = set()
        for total_degree in range(1, self.degree + 1):
            for combo in itertools.combinations_with_replacement(range(d), total_degree):
                powers: dict[int, int] = {}
                for i in combo:
                    powers[i] = powers.get(i, 0) + 1
                term = tuple(sorted((i, min(p, 1) if binary[i] else p) for i, p in powers.items()))
                if term not in seen:
                    seen.add(term)
                    terms.append(term)
        self.terms = terms
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not self.terms:
            raise RuntimeError("expansion not fitted")
        columns = []
        for term in self.terms:
            col = np.ones(X.shape[0])
            for i, power in term:
                col = col * (X[:, i] ** power)
            columns.append(col)
        return np.column_stack(columns)

    def term_names(self) -> list[str]:
        names = []
        for term in self.terms:
            parts = [
                self.feature_names[i] if p == 1 else f"{self.feature_names[i]}^{p}"
                for i, p in term
            ]
            names.append("*".join(parts))
        return names

    def term_features(self) -> list[tuple[int, ...]]:
        """Distinct base-feature indices participating in each term."""
        return [tuple(i for i, _ in term) for term in self.terms]
