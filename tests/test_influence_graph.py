import json
import pickle

import numpy as np
import pytest

from conftest import has_cycle
from modperf.influence_graph import (
    TRUNC_HI,
    TRUNC_LO,
    AspectRanges,
    EdgeKind,
    GraphStructureError,
    NodeId,
    NodeKind,
    StructuralAspects,
    _truncated_normal,
    derive_knowledge,
    generate_graph,
    graph_from_json,
    graph_to_json,
    intermediate,
    option,
    sample_aspects,
    performance,
    scale_aspects,
)

TABLE_RANGES = AspectRanges()


def test_sample_aspects_within_table_bounds():
    for seed in range(200):
        a = sample_aspects(seed, TABLE_RANGES)
        assert 6 <= a.option_count <= 16
        assert 0.5 <= a.p_w <= 1.0
        assert 0.01 <= a.mu_a <= 0.4
        assert 0.01 <= a.sigma_a <= 0.4
        assert 5 <= a.module_count <= 40


def test_sample_aspects_point_range():
    ranges = AspectRanges(option_count=(6, 6))
    assert all(sample_aspects(s, ranges).option_count == 6 for s in range(50))


def test_sample_aspects_invalid_range():
    with pytest.raises(ValueError):
        AspectRanges(option_count=(10, 6))


def test_sample_aspects_deterministic():
    assert sample_aspects(99) == sample_aspects(99)


def test_module_count_mean_matches_uniform_oracle():
    # Uniform{5..40}: mean 22.5, var (36^2 - 1)/12
    draws = np.array([sample_aspects(s).module_count for s in range(10_000)])
    sigma_mean = np.sqrt((36.0**2 - 1) / 12.0 / len(draws))
    assert abs(draws.mean() - 22.5) < 3 * sigma_mean


def test_generate_graph_p_w_one_gives_complete_within_wiring():
    a = StructuralAspects(option_count=5, p_w=1.0, mu_a=0.01, sigma_a=0.01, module_count=4)
    g = generate_graph(a, seed=5, iv_to_iv_p=0.0)
    within = g.edges_of_kind(EdgeKind.WITHIN_OI)
    assert len(within) == a.module_count * a.option_count * a.iv_per_module
    per_module = {m: 0 for m in range(a.module_count)}
    for src, _, _ in within:
        per_module[src.module] += 1
    assert all(v == a.option_count * a.iv_per_module for v in per_module.values())


def test_generate_graph_deterministic_in_inputs():
    a = StructuralAspects(option_count=8, p_w=0.7, mu_a=0.2, sigma_a=0.1, module_count=5)
    g1 = generate_graph(a, seed=11)
    g2 = generate_graph(a, seed=11)
    assert g1.edges == g2.edges
    assert generate_graph(a, seed=12).edges != g1.edges


def test_cross_probabilities_respect_truncation():
    """Every cross-module probability lies in [TRUNC_LO, TRUNC_HI]: with
    sigma 0 the mean itself (clamped), and with a mean near TRUNC_HI and a
    wide sigma, where most raw draws fall outside, the accepted draws."""
    for mu, sigma in ((0.2, 0.0), (0.5, 0.0), (0.0, 0.0), (0.39, 0.4), (TRUNC_HI, 0.05)):
        rng = np.random.default_rng(3)
        values = [_truncated_normal(rng, mu, sigma) for _ in range(500)]
        assert all(TRUNC_LO <= v <= TRUNC_HI for v in values)
        if sigma == 0.0:
            assert set(values) == {min(max(mu, TRUNC_LO), TRUNC_HI)}
        else:
            assert len(set(values)) == len(values)


def test_every_iv_feeds_every_perf():
    a = StructuralAspects(
        option_count=6, p_w=0.6, mu_a=0.1, sigma_a=0.1, module_count=3, perf_count=2
    )
    g = generate_graph(a, seed=4)
    to_perf = g.edges_of_kind(EdgeKind.IV_TO_PERF)
    assert len(to_perf) == len(g.iv_nodes()) * 2


def test_options_have_no_incoming_perf_no_outgoing():
    g = generate_graph(
        StructuralAspects(option_count=6, p_w=0.7, mu_a=0.2, sigma_a=0.1, module_count=4), seed=9
    )
    for src, dst, _ in g.edges:
        assert dst.kind is not NodeKind.OPTION
        assert src.kind is not NodeKind.PERFORMANCE


def test_acyclicity_against_dfs_oracle():
    a = StructuralAspects(option_count=6, p_w=0.8, mu_a=0.3, sigma_a=0.2, module_count=4)
    for seed in range(100):
        g = generate_graph(a, seed=seed, iv_to_iv_p=0.3)
        nodes = g.option_nodes() + g.iv_nodes() + g.perf_nodes()
        assert not has_cycle([(s, d) for s, d, _ in g.edges], nodes)


def test_within_edge_count_is_binomial():
    # Spot check at unit scale; the full 10^4-seed check runs in acceptance.
    a = StructuralAspects(option_count=10, p_w=0.4, mu_a=0.01, sigma_a=0.01, module_count=6)
    counts = [
        len(generate_graph(a, seed=s, iv_to_iv_p=0.0).edges_of_kind(EdgeKind.WITHIN_OI))
        for s in range(800)
    ]
    n_pairs = a.module_count * a.option_count * a.iv_per_module
    se = np.sqrt(n_pairs * 0.4 * 0.6 / len(counts))
    assert abs(np.mean(counts) - 72.0) < 4 * se


def _rebuilt(g, edges):
    return type(g)(aspects=g.aspects, seed=g.seed, iv_to_iv_p=g.iv_to_iv_p, edges=edges)


def test_topological_order_options_first_perf_last():
    # Canonical order puts options first and perf last, and the graph
    # rejects an edge out of a perf node or into an option.
    g = generate_graph(
        StructuralAspects(option_count=5, p_w=0.5, mu_a=0.1, sigma_a=0.1, module_count=3), seed=2
    )
    kinds = [n.kind for n in g.option_nodes() + g.iv_nodes() + g.perf_nodes()]
    n_opt, n_iv = len(g.option_nodes()), len(g.iv_nodes())
    assert all(k is NodeKind.OPTION for k in kinds[:n_opt])
    assert all(k is NodeKind.INTERMEDIATE for k in kinds[n_opt : n_opt + n_iv])
    assert all(k is NodeKind.PERFORMANCE for k in kinds[n_opt + n_iv :])
    for edge in (
        (performance(0), intermediate(2, 0), EdgeKind.IV_TO_IV),
        (intermediate(0, 0), option(1, 0), EdgeKind.WITHIN_OI),
    ):
        with pytest.raises(GraphStructureError, match="against the canonical order"):
            _rebuilt(g, g.edges + (edge,))


def test_topological_order_respects_every_edge():
    a = StructuralAspects(option_count=6, p_w=0.7, mu_a=0.2, sigma_a=0.15, module_count=5)
    for seed in range(100):
        g = generate_graph(a, seed=seed, iv_to_iv_p=0.25)
        position = {n: i for i, n in enumerate(g.option_nodes() + g.iv_nodes() + g.perf_nodes())}
        assert all(position[s] < position[d] for s, d, _ in g.edges)


def test_topological_order_detects_cycle():
    # A cycle needs a backward edge; the constructor rejects it.
    g = generate_graph(
        StructuralAspects(option_count=4, p_w=0.5, mu_a=0.1, sigma_a=0.1, module_count=2), seed=1
    )
    forward = (intermediate(0, 0), intermediate(1, 2), EdgeKind.IV_TO_IV)
    backward = (intermediate(1, 2), intermediate(0, 0), EdgeKind.IV_TO_IV)
    assert _rebuilt(g, g.edges + (forward,)).edges[-1] == forward
    for edges in ((forward, backward), (backward,)):
        with pytest.raises(GraphStructureError, match="against the canonical order"):
            _rebuilt(g, g.edges + edges)


@pytest.mark.parametrize("build", [_rebuilt])
@pytest.mark.parametrize(
    "edge",
    [
        (option(0, 4), intermediate(1, 0), EdgeKind.ACROSS_OI),  # option_count is 4
        (option(2, 0), intermediate(0, 0), EdgeKind.ACROSS_OI),  # module_count is 2
        (intermediate(0, 0), intermediate(1, 3), EdgeKind.IV_TO_IV),  # iv_per_module is 3
        (intermediate(1, 0), performance(1), EdgeKind.IV_TO_PERF),  # perf_count is 1
    ],
)
def test_graph_rejects_node_outside_aspects(build, edge):
    g = generate_graph(
        StructuralAspects(option_count=4, p_w=0.5, mu_a=0.1, sigma_a=0.1, module_count=2), seed=1
    )
    with pytest.raises(GraphStructureError, match="outside the aspects"):
        build(g, g.edges + (edge,))


def _two_by_four():
    return generate_graph(
        StructuralAspects(option_count=4, p_w=1.0, mu_a=0.1, sigma_a=0.1, module_count=2), seed=1
    )


@pytest.mark.parametrize("build", [_rebuilt])
def test_graph_rejects_repeated_edge(build):
    """A repeated edge would give its IV the same parent twice, and its
    semantics a squared term."""
    g = _two_by_four()
    edge = (option(0, 0), intermediate(0, 0), EdgeKind.WITHIN_OI)
    assert edge in g.edges  # p_w = 1 wires every within-module pair
    with pytest.raises(GraphStructureError, match="O:0:0->IV:0:0 appears twice"):
        build(g, g.edges + (edge,))


@pytest.mark.parametrize("build", [_rebuilt])
@pytest.mark.parametrize(
    "edge, allowed",
    [
        ((option(0, 0), intermediate(0, 0), EdgeKind.ACROSS_OI), "within_oi"),
        ((option(0, 1), intermediate(1, 0), EdgeKind.WITHIN_OI), "across_oi"),
        ((option(0, 0), intermediate(1, 2), EdgeKind.IV_TO_IV), "across_oi"),
        ((intermediate(0, 0), intermediate(1, 0), EdgeKind.ACROSS_OI), "iv_to_iv"),
        ((intermediate(0, 1), performance(0), EdgeKind.IV_TO_IV), "iv_to_perf"),
        ((option(0, 0), performance(0), EdgeKind.IV_TO_PERF), "no edge"),
        ((option(0, 0), option(0, 1), EdgeKind.WITHIN_OI), "no edge"),
    ],
)
def test_graph_rejects_edge_kind_its_endpoints_do_not_allow(build, edge, allowed):
    """Each edge is relabelled in place, so that it is not also a repeat."""
    g = _two_by_four()
    src, dst, _ = edge
    edges = tuple(e for e in g.edges if e[:2] != (src, dst)) + (edge,)
    with pytest.raises(GraphStructureError, match=f"endpoints allow {allowed}"):
        build(g, edges)


def test_derive_knowledge_ie_subset_of_pie():
    a = StructuralAspects(option_count=7, p_w=0.6, mu_a=0.25, sigma_a=0.2, module_count=4)
    for seed in range(60):
        art = derive_knowledge(generate_graph(a, seed=seed))
        assert art.influence_edges <= art.potential_influence_edges


def test_derive_knowledge_boundaries_partition_nodes():
    g = generate_graph(
        StructuralAspects(option_count=5, p_w=0.9, mu_a=0.1, sigma_a=0.1, module_count=3), seed=8
    )
    art = derive_knowledge(g)
    opts = [o for m in sorted(art.logical_boundaries) for o in art.logical_boundaries[m][0]]
    ivs = [v for m in sorted(art.logical_boundaries) for v in art.logical_boundaries[m][1]]
    assert opts == g.option_nodes()
    assert ivs == g.iv_nodes()


def test_pie_within_module_equals_ie_when_p_w_one():
    a = StructuralAspects(option_count=5, p_w=1.0, mu_a=0.01, sigma_a=0.01, module_count=3)
    g = generate_graph(a, seed=3, iv_to_iv_p=0.0)
    art = derive_knowledge(g)
    within_ie = {
        (s, d) for s, d, k in g.edges if k is EdgeKind.WITHIN_OI
    }
    within_pie = {
        (s, d)
        for s, d in art.potential_influence_edges
        if s.kind is NodeKind.OPTION and s.module == d.module
    }
    assert within_ie == within_pie


def test_pie_skips_unlinked_module_pairs():
    a = StructuralAspects(option_count=5, p_w=0.8, mu_a=0.01, sigma_a=0.01, module_count=5)
    g = generate_graph(a, seed=17, iv_to_iv_p=0.0)
    art = derive_knowledge(g)
    linked = {
        (s.module, d.module) for s, d, k in g.edges if k is EdgeKind.ACROSS_OI
    }
    cross_pie_pairs = {
        (s.module, d.module)
        for s, d in art.potential_influence_edges
        if s.kind is NodeKind.OPTION and s.module != d.module
    }
    assert cross_pie_pairs == linked


def test_pie_matches_its_definition():
    """PIE is every within-module (option, IV) pair, every (option, IV) pair
    of an ordered module pair that holds a true cross edge, and every IV->IV
    edge; built here node by node from that definition."""
    a = StructuralAspects(option_count=4, p_w=0.7, mu_a=0.04, sigma_a=0.05, module_count=4)
    unlinked = 0
    for seed in range(20):
        g = generate_graph(a, seed=seed, iv_to_iv_p=0.3)
        cross = {(s.module, d.module) for s, d, k in g.edges if k is EdgeKind.ACROSS_OI}
        unlinked += a.module_count * (a.module_count - 1) - len(cross)
        expected = {
            (option(src_m, j), intermediate(dst_m, k))
            for src_m in range(a.module_count)
            for dst_m in range(a.module_count)
            if src_m == dst_m or (src_m, dst_m) in cross
            for j in range(a.option_count)
            for k in range(a.iv_per_module)
        }
        iv_edges = {(s, d) for s, d, k in g.edges if k is EdgeKind.IV_TO_IV}
        assert iv_edges
        expected |= iv_edges
        assert derive_knowledge(g).potential_influence_edges == expected
    assert unlinked > 0


def test_graph_json_roundtrip_byte_identical():
    """Also on a paper-scale 40 x 16 graph: the re-drawn graph is the
    written one, edges in the same order."""
    for aspects, seed in (
        (StructuralAspects(option_count=6, p_w=0.7, mu_a=0.2, sigma_a=0.1, module_count=3), 21),
        (StructuralAspects(option_count=16, p_w=0.8, mu_a=0.3, sigma_a=0.2, module_count=40), 5),
    ):
        g = generate_graph(aspects, seed=seed)
        text = graph_to_json(g)
        again = graph_from_json(text)
        assert again == g and again.edges == g.edges
        assert graph_to_json(again) == text
    assert len(g.edges) > 10_000


@pytest.mark.parametrize(
    "key, edit",
    [
        ("edges_sha256", lambda v: "0" * 64),
        ("seed", lambda v: v + 1),
        ("iv_to_iv_p", lambda v: 0.3),
        ("aspects", lambda v: v | {"p_w": 0.6}),
        ("aspects", lambda v: v | {"module_count": 4}),
    ],
    ids=["edges_sha256", "seed", "iv_to_iv_p", "p_w", "module_count"],
)
def test_graph_json_rejects_an_edited_value(key, edit):
    """The digest catches an edited document, and a NumPy that draws another
    stream than the writer's, instead of reading another graph."""
    g = generate_graph(
        StructuralAspects(option_count=6, p_w=0.7, mu_a=0.2, sigma_a=0.1, module_count=3), seed=21
    )
    doc = json.loads(graph_to_json(g))
    with pytest.raises(ValueError, match="do not match edges_sha256"):
        graph_from_json(json.dumps(doc | {key: edit(doc[key])}))


def test_graph_json_with_an_edge_list_is_refused():
    """A document that lists every edge, as older writers did, has no digest."""
    g = generate_graph(
        StructuralAspects(option_count=4, p_w=0.5, mu_a=0.1, sigma_a=0.1, module_count=2), seed=1
    )
    doc = json.loads(graph_to_json(g))
    del doc["edges_sha256"]
    doc["edges"] = [{"src": s.encode(), "dst": d.encode(), "kind": k.value} for s, d, k in g.edges]
    with pytest.raises(ValueError, match="no edges_sha256; .* so regenerate the system"):
        graph_from_json(json.dumps(doc))


def test_node_id_encoding_roundtrip():
    for node in (option(3, 1), intermediate(0, 2), NodeId.decode("P:0")):
        assert NodeId.decode(node.encode()) == node


def test_node_ids_sort_hash_and_pickle_as_kind_module_index():
    """Sorting gives (kind, module, index) order, the one canonical parent
    order (IVs sort before options); nodes survive the pickling that sends
    them to `--jobs` workers, and hash as their fields do."""
    g = generate_graph(
        StructuralAspects(option_count=3, p_w=0.5, mu_a=0.1, sigma_a=0.1, module_count=11,
                          perf_count=2),
        seed=4,
    )
    nodes = g.option_nodes() + g.iv_nodes() + g.perf_nodes()
    shuffled = [nodes[i] for i in np.random.default_rng(0).permutation(len(nodes))]
    want = sorted(shuffled, key=lambda n: (n.kind.value, -1 if n.module is None else n.module, n.index))
    assert sorted(shuffled) == want
    assert [n.kind for n in want[:3]] == [NodeKind.INTERMEDIATE] * 3
    assert want[3 * 11 : 3 * 11 + 3] == [option(0, 0), option(0, 1), option(0, 2)]
    assert want[-2:] == [performance(0), performance(1)]
    assert want[10 * 3 : 10 * 3 + 3] == [intermediate(10, k) for k in range(3)]  # 10 after 9
    for node in nodes:
        assert NodeId.decode(node.encode()) == node
        assert pickle.loads(pickle.dumps(node)) == node
        assert hash(node) == hash(NodeId(node.kind, node.module, node.index))
    assert len(set(nodes)) == len(nodes)


def test_patched_node_id_hash_raises(monkeypatch):
    """The patch `test_search_and_prediction_never_touch_node_ids` relies on:
    a class-level `__hash__` or `__eq__` reaches every node."""

    def forbidden(*args):
        raise AssertionError("NodeId hashed or compared")

    node = option(0, 1)
    monkeypatch.setattr(NodeId, "__hash__", forbidden)
    with pytest.raises(AssertionError, match="hashed"):
        hash(node)
    with pytest.raises(AssertionError, match="hashed"):
        {node: 1}
    monkeypatch.setattr(NodeId, "__eq__", forbidden)
    with pytest.raises(AssertionError, match="compared"):
        node == option(0, 1)


def test_scale_aspects_bounds_and_degenerate():
    a = StructuralAspects(option_count=16, p_w=0.5, mu_a=0.4, sigma_a=0.01, module_count=5)
    scaled = scale_aspects(a.as_feature_dict(), TABLE_RANGES)
    assert scaled == [1.0, 0.0, 1.0, 0.0, 0.0]
    degen = scale_aspects(a.as_feature_dict(), AspectRanges(option_count=(16, 16)))
    assert degen[0] == 0.5
