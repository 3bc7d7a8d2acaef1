"""Quantitative semantics for influence graphs.

Each intermediate variable gets a random polynomial over its graph parents
(all first-order terms plus all pairwise products, uniform weights in
[0, 1]); each performance variable gets a random linear form over all IVs.
Evaluation walks the IVs in canonical order, which is topological because
every graph edge runs forward in it, and optionally perturbs performance
values by a bounded relative measurement noise; IV values stay exact. One
noise seed seeds one generator for a whole batch of records:
`sample_dataset` passes `derive(seed, "noise")` once per dataset, and
`evaluate(..., noise_seed=s)` uses `s` for its one record.

Option parents enter polynomials as raw 0/1 bits. Parents that are
themselves IVs enter through log1p: without damping, second-order terms
square upstream magnitudes at every IV-to-IV chain step, which overflows
float64 on systems with long chains. log1p is monotone and maps 0 to 0, so
value monotonicity in the options and the all-zero fixpoint both survive.

The weights are a pure function of (graph, seed), so semantics.json stores
the graph document (the graph's generator inputs and edge digest; see
`influence_graph`), the seed, the noise fraction and `weights_sha256`, the
sha256 of the weights as little-endian float64 in draw order, but not the
weights themselves. `semantics_from_json` re-draws the graph and the
weights and checks each against its digest. NumPy does not promise the same
`Generator` stream across releases (NEP 19), so a NumPy that draws other
weights than the writer's fails that check with a ValueError instead of
silently reading a different system.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .influence_graph import (
    CausalInfluenceGraph,
    NodeId,
    NodeKind,
    graph_doc,
    graph_from_doc,
)
from .jsonio import compact_json
from .seeds import rng_for

DEFAULT_NOISE_FRACTION = 0.05


@dataclass(frozen=True, eq=False)
class PolynomialFunction:
    """Weights over an IV's parents, which are in canonical (sorted) NodeId
    order: one linear weight per parent, then one weight per unordered
    parent pair (i, j), i < j, in `itertools.combinations(range(k), 2)`
    order."""

    parents: tuple[NodeId, ...]
    linear: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        k = len(self.parents)
        object.__setattr__(self, "linear", np.array(self.linear, dtype=float))
        object.__setattr__(self, "pairs", np.array(self.pairs, dtype=float))
        if self.linear.shape != (k,) or self.pairs.shape != (k * (k - 1) // 2,):
            raise ValueError(
                f"{k} parents need {k} linear and {k * (k - 1) // 2} pair weights, got "
                f"{self.linear.shape} and {self.pairs.shape}"
            )
        if list(self.parents) != sorted(self.parents):
            raise ValueError("polynomial parents must be in canonical NodeId order")


@dataclass(frozen=True)
class SystemSemantics:
    graph: CausalInfluenceGraph
    iv_formulas: dict[NodeId, PolynomialFunction]
    perf_formulas: dict[NodeId, dict[NodeId, float]]
    noise_fraction: float = DEFAULT_NOISE_FRACTION
    # The seed the weights were drawn from. Only `synthesize_semantics` sets
    # it; a hand-built semantics keeps None and cannot be written.
    seed: int | None = field(default=None, init=False)

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
) -> SystemSemantics:
    """Attach uniform-random weights to every IV polynomial and perf form.

    Weights are drawn in canonical node order so the result is a pure
    function of (graph, seed): per IV its linear weights in parent order and
    then its pair weights in `itertools.combinations` order, then per perf
    form one weight per IV. All come from one `uniform` call, sliced in that
    order; they are the same numbers that one scalar call per weight gives.
    """
    parent_map = graph.parent_map()
    ivs = graph.iv_nodes()
    perfs = graph.perf_nodes()
    counts = [len(parent_map[iv]) for iv in ivs]
    sizes = [k + k * (k - 1) // 2 for k in counts]
    weights = rng_for(seed, "semantics").uniform(
        0.0, 1.0, size=sum(sizes) + len(perfs) * len(ivs)
    )
    iv_formulas: dict[NodeId, PolynomialFunction] = {}
    start = 0
    for iv, k, size in zip(ivs, counts, sizes):
        iv_formulas[iv] = PolynomialFunction(
            tuple(parent_map[iv]), weights[start : start + k], weights[start + k : start + size]
        )
        start += size
    perf_weights = weights[start:].reshape(len(perfs), len(ivs)).tolist()
    perf_formulas = {perf: dict(zip(ivs, row)) for perf, row in zip(perfs, perf_weights)}
    semantics = SystemSemantics(
        graph=graph,
        iv_formulas=iv_formulas,
        perf_formulas=perf_formulas,
        noise_fraction=noise_fraction,
    )
    object.__setattr__(semantics, "seed", seed)
    return semantics


def _weights_sha256(semantics: SystemSemantics) -> str:
    """The sha256 of the weights as little-endian float64, in
    `synthesize_semantics`' draw order."""
    ivs = semantics.graph.iv_nodes()
    perf_weights = [
        [semantics.perf_formulas[perf][iv] for iv in ivs] for perf in semantics.graph.perf_nodes()
    ]
    formulas = [semantics.iv_formulas[iv] for iv in ivs]
    weights = np.concatenate(
        [w for f in formulas for w in (f.linear, f.pairs)] + [np.ravel(perf_weights)]
    )
    return hashlib.sha256(weights.astype("<f8").tobytes()).hexdigest()


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
            parents = formula.parents
            parent_cols = np.array([col[p] for p in parents], dtype=int)
            iv_parent_mask = np.array(
                [p.kind is NodeKind.INTERMEDIATE for p in parents], dtype=bool
            )
            w_pair = np.zeros((len(parents), len(parents)))
            w_pair[np.triu_indices(len(parents), 1)] = formula.pairs
            self.iv_steps.append((col[iv], parent_cols, iv_parent_mask, formula.linear, w_pair))
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

    def apply_noise(self, perf_values: np.ndarray, noise_seed: int) -> np.ndarray:
        """Each performance value v becomes v + u * fraction * |v| with u
        uniform in [-1, 1], so |v' - v| <= fraction * |v|. One generator
        seeded with `noise_seed` draws one u per (record, perf), row by row;
        for a single record these are the draws of its own generator. A zero
        fraction returns the input unchanged."""
        fraction = self.semantics.noise_fraction
        if fraction == 0.0:
            return perf_values
        u = rng_for(noise_seed).uniform(-1.0, 1.0, size=perf_values.shape)
        return perf_values + u * fraction * np.abs(perf_values)


def evaluate(
    semantics: SystemSemantics,
    config: np.ndarray | list[int],
    noise_seed: int | None = None,
) -> tuple[dict[NodeId, float], dict[NodeId, float]]:
    """Evaluate one configuration into IV and performance values.

    `config` assigns 0/1 to every option node in canonical order. Noise is
    omitted when `noise_seed` is None; otherwise each noisy performance
    value v' obeys |v' - v| <= noise_fraction * |v|. The pipeline evaluates
    whole batches with `Evaluator`; this one-configuration form, with its
    bit checks, is kept for `scripts/inspect_system.py`, which prints one
    evaluated config.
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
        perf_values = evaluator.apply_noise(perf_values, noise_seed)
    return (
        dict(zip(evaluator.ivs, iv_values[0].tolist())),
        dict(zip(evaluator.perfs, perf_values[0].tolist())),
    )


def semantics_to_json(semantics: SystemSemantics) -> str:
    """The graph document, seed, noise fraction and weight digest (module
    docstring); a semantics that `synthesize_semantics` did not draw has no
    seed and raises ValueError."""
    if semantics.seed is None:
        raise ValueError(
            "only semantics drawn by synthesize_semantics can be written: "
            "semantics.json stores the seed, not the weights"
        )
    doc = {
        "graph": graph_doc(semantics.graph),
        "seed": semantics.seed,
        "noise_fraction": semantics.noise_fraction,
        "weights_sha256": _weights_sha256(semantics),
    }
    return compact_json(doc)


def semantics_from_json(text: str) -> SystemSemantics:
    """Re-draw the semantics that `semantics_to_json` wrote. Raises
    ValueError when the document has no integer seed (an older format that
    listed every weight), when its graph cannot be re-drawn
    (`graph_from_doc`) or when the re-drawn weights do not match its
    `weights_sha256`."""
    doc = json.loads(text)
    seed = doc.get("seed")
    if not isinstance(seed, int):
        raise ValueError(
            "semantics document has no integer seed; documents that list every "
            "weight are no longer read, so regenerate the system"
        )
    semantics = synthesize_semantics(graph_from_doc(doc["graph"]), seed, doc["noise_fraction"])
    if _weights_sha256(semantics) != doc["weights_sha256"]:
        raise ValueError(
            "weights re-drawn from the seed do not match weights_sha256: the document "
            "was edited, or this NumPy draws another random stream than the writer's"
        )
    return semantics
