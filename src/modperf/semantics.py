"""Quantitative semantics for influence graphs.

Each intermediate variable gets a random polynomial over its graph parents
(all first-order terms plus all pairwise products, uniform weights in
[0, 1]); each performance variable gets a random linear form over all IVs.
Evaluation walks the IVs in canonical order, which is topological because
every graph edge runs forward in it, and optionally perturbs performance
values by a bounded relative measurement noise.

Option parents enter polynomials as raw 0/1 bits. Parents that are
themselves IVs enter through log1p: without damping, second-order terms
square upstream magnitudes at every IV-to-IV chain step, which overflows
float64 on systems with long chains. log1p is monotone and maps 0 to 0, so
value monotonicity in the options and the all-zero fixpoint both survive.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .influence_graph import (
    CausalInfluenceGraph,
    NodeId,
    NodeKind,
    graph_doc,
    graph_from_doc,
)
from .seeds import rng_for

DEFAULT_NOISE_FRACTION = 0.05


class NoiseTargets(str, enum.Enum):
    PERFORMANCE_ONLY = "performance_only"
    ALL = "all"


@dataclass(frozen=True)
class PolynomialFunction:
    """Linear weights per parent plus one weight per unordered parent pair."""

    linear_terms: dict[NodeId, float]
    pair_terms: dict[tuple[NodeId, NodeId], float]


@dataclass(frozen=True)
class SystemSemantics:
    graph: CausalInfluenceGraph
    iv_formulas: dict[NodeId, PolynomialFunction]
    perf_formulas: dict[NodeId, dict[NodeId, float]]
    noise_fraction: float = DEFAULT_NOISE_FRACTION
    noise_targets: NoiseTargets = NoiseTargets.PERFORMANCE_ONLY

    def __post_init__(self):
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError(f"noise_fraction must be in [0, 1), got {self.noise_fraction}")
        if set(self.iv_formulas) != set(self.graph.iv_nodes()):
            raise ValueError("iv_formulas must cover exactly the graph's IV nodes")
        if set(self.perf_formulas) != set(self.graph.perf_nodes()):
            raise ValueError("perf_formulas must cover exactly the graph's performance nodes")


def synthesize_semantics(
    graph: CausalInfluenceGraph,
    seed: int,
    noise_fraction: float = DEFAULT_NOISE_FRACTION,
    noise_targets: NoiseTargets = NoiseTargets.PERFORMANCE_ONLY,
) -> SystemSemantics:
    """Attach uniform-random weights to every IV polynomial and perf form.

    Weights are drawn in canonical node order so the result is a pure
    function of (graph, seed): one draw per IV, its linear weights in
    parent order and then its pair weights in `itertools.combinations`
    order, then one draw per perf form. These are the same numbers that one
    scalar `uniform` call per weight gives.
    """
    rng = rng_for(seed, "semantics")
    parent_map = graph.parent_map()
    iv_formulas: dict[NodeId, PolynomialFunction] = {}
    for iv in graph.iv_nodes():
        parents = parent_map[iv]
        pairs = list(itertools.combinations(parents, 2))
        weights = rng.uniform(0.0, 1.0, size=len(parents) + len(pairs)).tolist()
        iv_formulas[iv] = PolynomialFunction(
            linear_terms=dict(zip(parents, weights)),
            pair_terms=dict(zip(pairs, weights[len(parents) :])),
        )
    ivs = graph.iv_nodes()
    perf_formulas = {
        perf: dict(zip(ivs, rng.uniform(0.0, 1.0, size=len(ivs)).tolist()))
        for perf in graph.perf_nodes()
    }
    return SystemSemantics(
        graph=graph,
        iv_formulas=iv_formulas,
        perf_formulas=perf_formulas,
        noise_fraction=noise_fraction,
        noise_targets=noise_targets,
    )


class Evaluator:
    """Precompiled column-indexed evaluation over batches of configurations.

    Immutable after construction; one instance can serve many batches.
    """

    def __init__(self, semantics: SystemSemantics):
        graph = semantics.graph
        self.semantics = semantics
        self.options = graph.option_nodes()
        self.ivs = graph.iv_nodes()
        self.perfs = graph.perf_nodes()
        col = {n: i for i, n in enumerate(self.options + self.ivs)}
        self.iv_steps = []
        for iv in self.ivs:
            formula = semantics.iv_formulas[iv]
            parents = sorted(formula.linear_terms)
            parent_cols = np.array([col[p] for p in parents], dtype=int)
            iv_parent_mask = np.array(
                [p.kind is NodeKind.INTERMEDIATE for p in parents], dtype=bool
            )
            w_lin = np.array([formula.linear_terms[p] for p in parents])
            w_pair = np.zeros((len(parents), len(parents)))
            pos = {p: i for i, p in enumerate(parents)}
            for (p, q), w in formula.pair_terms.items():
                w_pair[pos[p], pos[q]] = w
            self.iv_steps.append((col[iv], parent_cols, iv_parent_mask, w_lin, w_pair))
        iv_cols = np.array([col[iv] for iv in self.ivs], dtype=int)
        self.iv_cols = iv_cols
        self.perf_weights = np.array(
            [[semantics.perf_formulas[perf][iv] for iv in self.ivs] for perf in self.perfs]
        )

    def noiseless(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.zeros((bits.shape[0], len(self.options) + len(self.ivs)))
        values[:, : len(self.options)] = bits
        for iv_col, parent_cols, iv_parent_mask, w_lin, w_pair in self.iv_steps:
            if len(parent_cols) == 0:
                continue
            parents = values[:, parent_cols]  # fancy indexing: already a copy
            if iv_parent_mask.any():
                parents[:, iv_parent_mask] = np.log1p(parents[:, iv_parent_mask])
            total = parents @ w_lin
            if w_pair.any():
                total = total + ((parents @ w_pair) * parents).sum(axis=1)
            values[:, iv_col] = total
        iv_values = values[:, self.iv_cols]
        perf_values = iv_values @ self.perf_weights.T
        return iv_values, perf_values

    def apply_noise(
        self, iv_values: np.ndarray, perf_values: np.ndarray, noise_seeds: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        fraction = self.semantics.noise_fraction
        if fraction == 0.0:
            return iv_values, perf_values
        iv_values = iv_values.copy()
        perf_values = perf_values.copy()
        noise_ivs = self.semantics.noise_targets is NoiseTargets.ALL
        for row, noise_seed in enumerate(noise_seeds):
            rng = np.random.default_rng(noise_seed)
            if noise_ivs:
                u = rng.uniform(-1.0, 1.0, size=iv_values.shape[1])
                iv_values[row] += u * fraction * np.abs(iv_values[row])
            u = rng.uniform(-1.0, 1.0, size=perf_values.shape[1])
            perf_values[row] += u * fraction * np.abs(perf_values[row])
        return iv_values, perf_values


def evaluate(
    semantics: SystemSemantics,
    config: np.ndarray | list[int],
    noise_seed: int | None = None,
) -> tuple[dict[NodeId, float], dict[NodeId, float]]:
    """Evaluate one configuration into IV and performance values.

    `config` assigns 0/1 to every option node in canonical order. Noise is
    omitted when `noise_seed` is None; otherwise each noisy value v' obeys
    |v' - v| <= noise_fraction * |v|.
    """
    evaluator = Evaluator(semantics)
    bits = np.asarray(config, dtype=float).reshape(1, -1)
    if bits.shape[1] != len(evaluator.options):
        raise ValueError(
            f"configuration has {bits.shape[1]} bits, expected {len(evaluator.options)}"
        )
    if not np.isin(bits, (0.0, 1.0)).all():
        raise ValueError("configuration bits must be 0 or 1")
    iv_values, perf_values = evaluator.noiseless(bits)
    if noise_seed is not None:
        iv_values, perf_values = evaluator.apply_noise(iv_values, perf_values, [noise_seed])
    return (
        dict(zip(evaluator.ivs, iv_values[0].tolist())),
        dict(zip(evaluator.perfs, perf_values[0].tolist())),
    )


def semantics_to_json(semantics: SystemSemantics) -> str:
    iv_formulas = {}
    for iv, f in semantics.iv_formulas.items():
        # Keyed by the formula's own parent objects, which the pair keys of
        # synthesized semantics reuse, so a lookup is an identity hit; each
        # parent is encoded once per formula rather than once per pair.
        code = {p: p.encode() for p in f.linear_terms}
        iv_formulas[iv.encode()] = {
            "linear": {code[p]: w for p, w in f.linear_terms.items()},
            "pairs": {f"{code[p]}|{code[q]}": w for (p, q), w in f.pair_terms.items()},
        }
    doc = {
        "graph": graph_doc(semantics.graph),
        "iv_formulas": iv_formulas,
        "perf_formulas": {
            perf.encode(): {iv.encode(): w for iv, w in weights.items()}
            for perf, weights in semantics.perf_formulas.items()
        },
        "noise_fraction": semantics.noise_fraction,
        "noise_targets": semantics.noise_targets.value,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def semantics_from_json(text: str) -> SystemSemantics:
    doc = json.loads(text)
    graph = graph_from_doc(doc["graph"])
    iv_formulas = {}
    for iv_key, f in doc["iv_formulas"].items():
        linear = {NodeId.decode(k): w for k, w in f["linear"].items()}
        pairs = {}
        for pair_key, w in f["pairs"].items():
            a, b = pair_key.split("|")
            pairs[(NodeId.decode(a), NodeId.decode(b))] = w
        iv_formulas[NodeId.decode(iv_key)] = PolynomialFunction(linear, pairs)
    perf_formulas = {
        NodeId.decode(perf_key): {NodeId.decode(k): w for k, w in weights.items()}
        for perf_key, weights in doc["perf_formulas"].items()
    }
    return SystemSemantics(
        graph=graph,
        iv_formulas=iv_formulas,
        perf_formulas=perf_formulas,
        noise_fraction=doc["noise_fraction"],
        noise_targets=NoiseTargets(doc["noise_targets"]),
    )
