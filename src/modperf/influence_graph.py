"""Causal influence graphs for synthetic configurable modular systems.

A system is a DAG over three node kinds: binary option variables and
real-valued intermediate variables (IVs) grouped into modules, plus
system-wide performance variables fed by every IV. Edge generation is
governed by the structural aspects: a within-module connection probability,
a truncated-normal law for cross-module connection probabilities (one draw
per ordered module pair), and an optional IV-to-IV wiring probability.

A graph is a pure function of (aspects, seed, iv_to_iv_p), so graph.json
stores those three and an edge digest (`_edges_sha256`), not the edges.
`graph_from_json` re-draws the graph and checks the digest, so an edited
file or a NumPy that draws another `Generator` stream than the writer's
(NEP 19) raises ValueError instead of silently reading a different system.
The knowledge (LB, IE, PIE) is read off the graph, not stored:
`derive_knowledge(graph_from_json(text))`.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .jsonio import compact_json
from .seeds import rng_for

TRUNC_LO, TRUNC_HI = 0.01, 0.4
_TRUNC_MAX_ATTEMPTS = 10_000
DEFAULT_IV_TO_IV_P = 0.15
# The structural aspects in regression-feature order.
ASPECT_FEATURES = ("option_count", "p_w", "mu_a", "sigma_a", "module_count")


class GraphStructureError(Exception):
    """A graph violated a structural invariant: a generator bug, or edges
    built by hand."""


class NodeKind(str, enum.Enum):
    OPTION = "O"
    INTERMEDIATE = "IV"
    PERFORMANCE = "P"


class NodeId(NamedTuple):
    """Graph node: kind, owning module (None for performance), local index.

    A tuple, so that building, hashing, comparing and sorting nodes run in
    C; nodes sort in (kind, module, index) order. A node equals the plain
    tuple of its values."""

    kind: NodeKind
    module: int | None
    index: int

    def encode(self) -> str:
        if self.kind is NodeKind.PERFORMANCE:
            return f"P:{self.index}"
        return f"{self.kind.value}:{self.module}:{self.index}"

    @staticmethod
    def decode(text: str) -> "NodeId":
        parts = text.split(":")
        if parts[0] == "P":
            return NodeId(NodeKind.PERFORMANCE, None, int(parts[1]))
        kind = NodeKind.OPTION if parts[0] == "O" else NodeKind.INTERMEDIATE
        return NodeId(kind, int(parts[1]), int(parts[2]))


def option(module: int, index: int) -> NodeId:
    return NodeId(NodeKind.OPTION, module, index)


def intermediate(module: int, index: int) -> NodeId:
    return NodeId(NodeKind.INTERMEDIATE, module, index)


def performance(index: int) -> NodeId:
    return NodeId(NodeKind.PERFORMANCE, None, index)


class EdgeKind(str, enum.Enum):
    WITHIN_OI = "within_oi"
    ACROSS_OI = "across_oi"
    IV_TO_IV = "iv_to_iv"
    IV_TO_PERF = "iv_to_perf"


Edge = tuple[NodeId, NodeId, EdgeKind]


def _edge_kind(src: NodeId, dst: NodeId) -> EdgeKind | None:
    """The one kind an edge from `src` to `dst` may have, or None if no edge
    may join them: options feed IVs (within or across modules), IVs feed
    IVs and performance nodes."""
    if src.kind is NodeKind.OPTION and dst.kind is NodeKind.INTERMEDIATE:
        return EdgeKind.WITHIN_OI if src.module == dst.module else EdgeKind.ACROSS_OI
    if src.kind is NodeKind.INTERMEDIATE and dst.kind is NodeKind.INTERMEDIATE:
        return EdgeKind.IV_TO_IV
    if src.kind is NodeKind.INTERMEDIATE and dst.kind is NodeKind.PERFORMANCE:
        return EdgeKind.IV_TO_PERF
    return None


@dataclass(frozen=True)
class StructuralAspects:
    """One system draw: option count per module, edge-probability parameters,
    and module count. IV and performance counts are held constant by default.
    """

    option_count: int
    p_w: float
    mu_a: float
    sigma_a: float
    module_count: int
    iv_per_module: int = 3
    perf_count: int = 1

    def __post_init__(self):
        if self.option_count < 1 or self.module_count < 1:
            raise ValueError("counts must be positive")
        if self.iv_per_module < 1 or self.perf_count < 1:
            raise ValueError("iv_per_module and perf_count must be >= 1")
        if not 0.0 <= self.p_w <= 1.0:
            raise ValueError(f"p_w must be a probability, got {self.p_w}")
        if self.sigma_a < 0:
            raise ValueError("sigma_a must be nonnegative")

    def as_feature_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in ASPECT_FEATURES}


@dataclass(frozen=True)
class AspectRanges:
    """Sampling bounds for structural aspects (inclusive for integer fields).

    Defaults give the standard synthetic-system parameter space: 6..16
    options, within-edge probability 0.5..1, truncated-normal parameters in
    0.01..0.4, and 5..40 modules.
    """

    option_count: tuple[int, int] = (6, 16)
    p_w: tuple[float, float] = (0.5, 1.0)
    mu_a: tuple[float, float] = (0.01, 0.4)
    sigma_a: tuple[float, float] = (0.01, 0.4)
    module_count: tuple[int, int] = (5, 40)
    iv_per_module: int = 3
    perf_count: int = 1

    def __post_init__(self):
        for name in ("option_count", "p_w", "mu_a", "sigma_a", "module_count"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"invalid range for {name}: [{lo}, {hi}]")


def scale_aspects(features: dict[str, float], ranges: AspectRanges = AspectRanges()) -> list[float]:
    """Scale the five aspect parameters of a feature mapping (`as_feature_dict`,
    or a manifest's aspects) to [0, 1] by their value-space bounds
    (regression features). Degenerate point ranges map to 0.5."""
    scaled = []
    for name in ASPECT_FEATURES:
        lo, hi = getattr(ranges, name)
        value = float(features[name])
        scaled.append(0.5 if hi == lo else (value - lo) / (hi - lo))
    return scaled


def sample_aspects(seed: int, ranges: AspectRanges = AspectRanges()) -> StructuralAspects:
    """Draw each aspect uniformly and independently from its range."""
    rng = rng_for(seed, "aspects")
    option_count = int(rng.integers(ranges.option_count[0], ranges.option_count[1] + 1))
    p_w = float(rng.uniform(*ranges.p_w))
    mu_a = float(rng.uniform(*ranges.mu_a))
    sigma_a = float(rng.uniform(*ranges.sigma_a))
    module_count = int(rng.integers(ranges.module_count[0], ranges.module_count[1] + 1))
    return StructuralAspects(
        option_count=option_count,
        p_w=p_w,
        mu_a=mu_a,
        sigma_a=sigma_a,
        module_count=module_count,
        iv_per_module=ranges.iv_per_module,
        perf_count=ranges.perf_count,
    )


def _truncated_normal(rng: np.random.Generator, mu: float, sigma: float) -> float:
    # Rejection sampling; mu always lies inside [TRUNC_LO, TRUNC_HI] for
    # Table-style draws, so acceptance is fast. Clamp after the attempt cap.
    if sigma == 0.0:
        return min(max(mu, TRUNC_LO), TRUNC_HI)
    for _ in range(_TRUNC_MAX_ATTEMPTS):
        value = rng.normal(mu, sigma)
        if TRUNC_LO <= value <= TRUNC_HI:
            return float(value)
    return min(max(value, TRUNC_LO), TRUNC_HI)


@dataclass(frozen=True)
class CausalInfluenceGraph:
    aspects: StructuralAspects
    seed: int
    iv_to_iv_p: float
    edges: tuple[Edge, ...]

    def __post_init__(self):
        """Every edge joins two of the aspects' nodes, runs forward in the
        canonical order (options, IVs, perf), which is therefore topological,
        appears once, and carries the one kind its endpoints allow."""
        nodes = self.option_nodes() + self.iv_nodes() + self.perf_nodes()
        rank = {n: i for i, n in enumerate(nodes)}
        seen = set()
        for src, dst, kind in self.edges:
            i, j = rank.get(src), rank.get(dst)
            if i is None or j is None:
                raise GraphStructureError(
                    f"edge {src.encode()}->{dst.encode()} names a node outside the aspects"
                )
            if i >= j:
                raise GraphStructureError(
                    f"edge {src.encode()}->{dst.encode()} runs against the canonical order"
                )
            if (i, j) in seen:
                raise GraphStructureError(f"edge {src.encode()}->{dst.encode()} appears twice")
            seen.add((i, j))
            allowed = _edge_kind(src, dst)
            if allowed is not kind:
                raise GraphStructureError(
                    f"edge {src.encode()}->{dst.encode()} is labelled {kind.value}, but its "
                    f"endpoints allow {allowed.value if allowed else 'no edge'}"
                )

    def option_nodes(self) -> list[NodeId]:
        a = self.aspects
        return [option(m, j) for m in range(a.module_count) for j in range(a.option_count)]

    def iv_nodes(self) -> list[NodeId]:
        a = self.aspects
        return [intermediate(m, k) for m in range(a.module_count) for k in range(a.iv_per_module)]

    def perf_nodes(self) -> list[NodeId]:
        return [performance(q) for q in range(self.aspects.perf_count)]

    def parent_map(self) -> dict[NodeId, list[NodeId]]:
        out: dict[NodeId, list[NodeId]] = {n: [] for n in self.iv_nodes() + self.perf_nodes()}
        for src, dst, _ in self.edges:
            out[dst].append(src)
        for node in out:
            out[node].sort()
        return out

    def edges_of_kind(self, kind: EdgeKind) -> list[Edge]:
        """The edges of one kind. The pipeline reads `edges` whole; this is
        kept for `scripts/inspect_system.py`, which counts edges by kind."""
        return [e for e in self.edges if e[2] is kind]


def generate_graph(
    aspects: StructuralAspects,
    seed: int,
    iv_to_iv_p: float = DEFAULT_IV_TO_IV_P,
) -> CausalInfluenceGraph:
    """Generate the causal influence graph for one system.

    Within each module, every (option, IV) pair is connected independently
    with probability p_w. For each ordered module pair a connection
    probability is drawn once from Normal(mu_a, sigma_a) truncated to
    [0.01, 0.4] and applied to all cross (option, IV) pairs. IV-to-IV edges
    go only from lower- to higher-ordered IVs, which keeps the graph acyclic
    by construction; every IV feeds every performance node.
    """
    if not 0.0 <= iv_to_iv_p <= 1.0:
        raise ValueError(f"iv_to_iv_p must be a probability, got {iv_to_iv_p}")
    rng = rng_for(seed, "graph")
    a = aspects
    edges: list[Edge] = []

    for m in range(a.module_count):
        draws = rng.random((a.option_count, a.iv_per_module))
        for j, k in zip(*np.nonzero(draws < a.p_w)):
            edges.append((option(m, int(j)), intermediate(m, int(k)), EdgeKind.WITHIN_OI))

    for src_m in range(a.module_count):
        for dst_m in range(a.module_count):
            if src_m == dst_m:
                continue
            p_a = _truncated_normal(rng, a.mu_a, a.sigma_a)
            draws = rng.random((a.option_count, a.iv_per_module))
            for j, k in zip(*np.nonzero(draws < p_a)):
                edges.append(
                    (option(src_m, int(j)), intermediate(dst_m, int(k)), EdgeKind.ACROSS_OI)
                )

    ivs = [intermediate(m, k) for m in range(a.module_count) for k in range(a.iv_per_module)]
    if iv_to_iv_p > 0.0:
        for i in range(len(ivs)):
            for j in range(i + 1, len(ivs)):
                if rng.random() < iv_to_iv_p:
                    edges.append((ivs[i], ivs[j], EdgeKind.IV_TO_IV))

    for iv in ivs:
        for q in range(a.perf_count):
            edges.append((iv, performance(q), EdgeKind.IV_TO_PERF))

    return CausalInfluenceGraph(
        aspects=aspects,
        seed=seed,
        iv_to_iv_p=iv_to_iv_p,
        edges=tuple(edges),
    )


@dataclass(frozen=True)
class KnowledgeArtifacts:
    """Structural knowledge extracted from a graph.

    logical_boundaries: module index -> (option nodes, IV nodes).
    influence_edges: the true option->IV and IV->IV edges (IE).
    potential_influence_edges: a superset of IE (PIE) standing in for what an
    execution graph would reveal: all within-module pairs, plus all cross
    pairs for ordered module pairs that contain at least one true cross edge.
    """

    logical_boundaries: dict[int, tuple[tuple[NodeId, ...], tuple[NodeId, ...]]]
    influence_edges: frozenset[tuple[NodeId, NodeId]]
    potential_influence_edges: frozenset[tuple[NodeId, NodeId]]


def derive_knowledge(graph: CausalInfluenceGraph) -> KnowledgeArtifacts:
    """Read LB/IE off the graph and build the PIE superset.

    The superset is data-driven (execution-graph adjacency emulation).
    """
    a = graph.aspects
    boundaries = {
        m: (
            tuple(option(m, j) for j in range(a.option_count)),
            tuple(intermediate(m, k) for k in range(a.iv_per_module)),
        )
        for m in range(a.module_count)
    }

    ie = frozenset(
        (src, dst)
        for src, dst, kind in graph.edges
        if kind in (EdgeKind.WITHIN_OI, EdgeKind.ACROSS_OI, EdgeKind.IV_TO_IV)
    )

    # each module with itself, and each ordered module pair with a true cross edge
    linked = {(m, m) for m in range(a.module_count)} | {
        (src.module, dst.module) for src, dst, kind in graph.edges if kind is EdgeKind.ACROSS_OI
    }
    pie = {(o, iv) for s, d in linked for o in boundaries[s][0] for iv in boundaries[d][1]}
    pie.update((src, dst) for src, dst, kind in graph.edges if kind is EdgeKind.IV_TO_IV)

    artifacts = KnowledgeArtifacts(
        logical_boundaries=boundaries,
        influence_edges=ie,
        potential_influence_edges=frozenset(pie),
    )
    if not artifacts.influence_edges <= artifacts.potential_influence_edges:
        raise GraphStructureError("IE not contained in PIE")
    return artifacts


def _edges_sha256(graph: CausalInfluenceGraph) -> str:
    """The sha256 of the edges as little-endian int64 (src position, dst
    position, `EdgeKind` index) triples in `graph.edges` order, positions
    in the canonical order: options, then IVs, then perf."""
    nodes = graph.option_nodes() + graph.iv_nodes() + graph.perf_nodes()
    rank = {n: i for i, n in enumerate(nodes)}
    kind_index = {kind: i for i, kind in enumerate(EdgeKind)}
    triples = np.array(
        [(rank[src], rank[dst], kind_index[kind]) for src, dst, kind in graph.edges], dtype="<i8"
    )
    return hashlib.sha256(triples.tobytes()).hexdigest()


def graph_doc(graph: CausalInfluenceGraph) -> dict:
    """The generator's inputs and the edge digest (module docstring), as a
    JSON-ready dict; `semantics_to_json` embeds it as is."""
    return {
        "aspects": asdict(graph.aspects),
        "seed": graph.seed,
        "iv_to_iv_p": graph.iv_to_iv_p,
        "edges_sha256": _edges_sha256(graph),
    }


def graph_to_json(graph: CausalInfluenceGraph) -> str:
    """Stable serialization; identical graphs re-serialize byte-identically."""
    return compact_json(graph_doc(graph))


def graph_from_json(text: str) -> CausalInfluenceGraph:
    return graph_from_doc(json.loads(text))


def graph_from_doc(doc: dict) -> CausalInfluenceGraph:
    """Re-draw the graph of a `graph_doc` dict. Raises ValueError when the
    document has no `edges_sha256` (an older format that listed every edge)
    or when the re-drawn edges do not match it."""
    if "edges_sha256" not in doc:
        raise ValueError(
            "graph document has no edges_sha256; documents that list every "
            "edge are no longer read, so regenerate the system"
        )
    graph = generate_graph(StructuralAspects(**doc["aspects"]), doc["seed"], doc["iv_to_iv_p"])
    if _edges_sha256(graph) != doc["edges_sha256"]:
        raise ValueError(
            "edges re-drawn from the seed do not match edges_sha256: the document "
            "was edited, or this NumPy draws another random stream than the writer's"
        )
    return graph
