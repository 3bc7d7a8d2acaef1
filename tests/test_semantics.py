import itertools
import json

import numpy as np
import pytest

from modperf.influence_graph import (
    EdgeKind,
    StructuralAspects,
    generate_graph,
    graph_doc,
    intermediate,
    option,
    performance,
)
from modperf.jsonio import compact_json
from modperf.semantics import (
    Evaluator,
    PolynomialFunction,
    SystemSemantics,
    evaluate,
    semantics_from_json,
    semantics_to_json,
    synthesize_semantics,
)
from modperf.seeds import rng_for


def _single_iv_system():
    aspects = StructuralAspects(
        option_count=2, p_w=1.0, mu_a=0.01, sigma_a=0.0, module_count=1, iv_per_module=1
    )
    return generate_graph(aspects, seed=1, iv_to_iv_p=0.0)


def test_hand_evaluated_polynomial():
    graph = _single_iv_system()
    iv = intermediate(0, 0)
    formula = PolynomialFunction((option(0, 0), option(0, 1)), [0.5, 0.25], [0.1])
    semantics = SystemSemantics(
        graph, {iv: formula}, {performance(0): {iv: 2.0}}, noise_fraction=0.0
    )
    iv_values, perf_values = evaluate(semantics, [1, 1])
    assert iv_values[iv] == pytest.approx(0.85, abs=1e-12)
    assert perf_values[performance(0)] == pytest.approx(1.7, abs=1e-12)


def test_all_zero_configuration_annihilates():
    graph = generate_graph(
        StructuralAspects(option_count=5, p_w=0.9, mu_a=0.2, sigma_a=0.1, module_count=3),
        seed=7,
        iv_to_iv_p=0.0,
    )
    semantics = synthesize_semantics(graph, seed=8)
    iv_values, perf_values = evaluate(semantics, [0] * len(graph.option_nodes()))
    assert all(v == 0.0 for v in iv_values.values())
    assert all(v == 0.0 for v in perf_values.values())


def test_term_counts_match_parent_structure():
    graph = generate_graph(
        StructuralAspects(option_count=6, p_w=0.7, mu_a=0.2, sigma_a=0.1, module_count=3),
        seed=9,
        iv_to_iv_p=0.2,
    )
    semantics = synthesize_semantics(graph, seed=10)
    parent_map = graph.parent_map()
    for iv, formula in semantics.iv_formulas.items():
        parents = parent_map[iv]
        assert list(formula.parents) == parents
        k = len(parents)
        assert len(formula.linear) == k
        assert len(formula.pairs) == k * (k - 1) // 2


def test_single_parent_iv_has_no_pair_terms():
    graph = _single_iv_system()
    # drop one within edge so the IV has exactly one parent
    edges = tuple(e for e in graph.edges if e[0] != option(0, 1) or e[2] is not EdgeKind.WITHIN_OI)
    pruned = type(graph)(aspects=graph.aspects, seed=graph.seed, iv_to_iv_p=0.0, edges=edges)
    semantics = synthesize_semantics(pruned, seed=3)
    formula = semantics.iv_formulas[intermediate(0, 0)]
    assert len(formula.linear) == 1
    assert len(formula.pairs) == 0


def test_weights_uniform_unit_interval():
    graph = generate_graph(
        StructuralAspects(option_count=8, p_w=0.9, mu_a=0.3, sigma_a=0.1, module_count=4),
        seed=11,
    )
    semantics = synthesize_semantics(graph, seed=12)
    weights = [w for f in semantics.iv_formulas.values() for w in f.linear.tolist()]
    weights += [w for f in semantics.iv_formulas.values() for w in f.pairs.tolist()]
    weights += [w for m in semantics.perf_formulas.values() for w in m.values()]
    arr = np.array(weights)
    assert arr.min() >= 0.0 and arr.max() <= 1.0
    assert abs(arr.mean() - 0.5) < 4 * np.sqrt(1 / 12 / len(arr))


def test_synthesize_deterministic_and_seed_sensitive():
    graph = _single_iv_system()
    a = semantics_to_json(synthesize_semantics(graph, seed=5))
    b = semantics_to_json(synthesize_semantics(graph, seed=5))
    c = semantics_to_json(synthesize_semantics(graph, seed=6))
    assert a == b
    assert a != c


def _scalar_draw_weights(graph, seed):
    """`synthesize_semantics`' weights drawn one scalar at a time, in its
    order: per IV its linear weights in parent order, then its pair weights
    for i < j; then per perf form one weight per IV."""
    rng = rng_for(seed, "semantics")
    parent_map = graph.parent_map()
    ivs = {}
    for iv in graph.iv_nodes():
        parents = parent_map[iv]
        linear = [(p, float(rng.uniform(0.0, 1.0))) for p in parents]
        pairs = [
            ((parents[i], parents[j]), float(rng.uniform(0.0, 1.0)))
            for i in range(len(parents))
            for j in range(i + 1, len(parents))
        ]
        ivs[iv] = (linear, pairs)
    perfs = {
        perf: [(iv, float(rng.uniform(0.0, 1.0))) for iv in graph.iv_nodes()]
        for perf in graph.perf_nodes()
    }
    return ivs, perfs


def test_synthesize_matches_scalar_draws():
    parent_counts = set()
    for p_w, mu_a, seed in [(0.0, 0.01, 1), (0.2, 0.05, 2), (0.9, 0.3, 3)]:
        graph = generate_graph(
            StructuralAspects(option_count=4, p_w=p_w, mu_a=mu_a, sigma_a=0.05, module_count=4),
            seed=seed,
        )
        semantics = synthesize_semantics(graph, seed=seed + 10)
        ivs, perfs = _scalar_draw_weights(graph, seed + 10)
        for iv, (linear, pairs) in ivs.items():
            formula = semantics.iv_formulas[iv]
            assert list(zip(formula.parents, formula.linear.tolist())) == linear
            pair_keys = list(itertools.combinations(formula.parents, 2))
            assert list(zip(pair_keys, formula.pairs.tolist())) == pairs
            parent_counts.add(len(linear))
        for perf, weights in perfs.items():
            assert list(semantics.perf_formulas[perf].items()) == weights
    assert {0, 1} <= parent_counts and max(parent_counts) >= 8


def test_noiseless_evaluation_bit_identical():
    graph = generate_graph(
        StructuralAspects(option_count=6, p_w=0.8, mu_a=0.2, sigma_a=0.1, module_count=3),
        seed=13,
        iv_to_iv_p=0.2,
    )
    semantics = synthesize_semantics(graph, seed=14)
    config = [1, 0] * (len(graph.option_nodes()) // 2)
    first = evaluate(semantics, config)
    second = evaluate(semantics, config)
    assert first == second


def test_monotone_in_options():
    graph = generate_graph(
        StructuralAspects(option_count=5, p_w=0.8, mu_a=0.2, sigma_a=0.1, module_count=2),
        seed=15,
        iv_to_iv_p=0.2,
    )
    semantics = synthesize_semantics(graph, seed=16)
    rng = np.random.default_rng(0)
    n_options = len(graph.option_nodes())
    for _ in range(30):
        config = rng.integers(0, 2, n_options)
        flip = int(rng.integers(n_options))
        config[flip] = 0
        lo_iv, lo_perf = evaluate(semantics, config)
        config[flip] = 1
        hi_iv, hi_perf = evaluate(semantics, config)
        assert all(hi_iv[k] >= lo_iv[k] - 1e-12 for k in lo_iv)
        assert all(hi_perf[k] >= lo_perf[k] - 1e-12 for k in lo_perf)


def test_noise_bound_and_coverage():
    graph = generate_graph(
        StructuralAspects(option_count=6, p_w=0.9, mu_a=0.2, sigma_a=0.1, module_count=2),
        seed=17,
    )
    semantics = synthesize_semantics(graph, seed=18, noise_fraction=0.05)
    config = [1] * len(graph.option_nodes())
    _, clean = evaluate(semantics, config)
    perf = performance(0)
    deviations = []
    for noise_seed in range(10_000):
        _, noisy = evaluate(semantics, config, noise_seed=noise_seed)
        deviations.append(abs(noisy[perf] - clean[perf]))
    deviations = np.array(deviations)
    bound = 0.05 * abs(clean[perf])
    assert deviations.max() <= bound + 1e-12
    assert deviations.max() > 0.9 * bound  # uniform noise actually fills the band


# evaluate(..., noise_seed=43) of one configuration, as the generator drew
# it when each record had a generator of its own: one record's draws from
# one generator are unchanged by drawing a dataset's noise as one block.
NOISY_PERF_ONLY = (
    [1.7111209912290515, 1.8645465634801095, 0.23712714369993193, 3.5249002870054076],
    [2.692659527494922, 2.7411536220579618],
)


def test_single_record_noise_values_pinned():
    graph = generate_graph(
        StructuralAspects(
            option_count=3, p_w=0.9, mu_a=0.3, sigma_a=0.1, module_count=2,
            iv_per_module=2, perf_count=2,
        ),
        seed=41,
    )
    semantics = synthesize_semantics(graph, seed=42, noise_fraction=0.05)
    ivs, perfs = evaluate(semantics, [1, 0, 1, 1, 1, 0], noise_seed=43)
    assert (list(ivs.values()), list(perfs.values())) == NOISY_PERF_ONLY


def test_zero_noise_fraction_returns_inputs():
    graph = _single_iv_system()
    semantics = synthesize_semantics(graph, seed=25, noise_fraction=0.0)
    evaluator = Evaluator(semantics)
    _, perf_values = evaluator.noiseless(np.ones((3, 2)))
    assert evaluator.apply_noise(perf_values, noise_seed=26) is perf_values
    assert evaluate(semantics, [1, 1], noise_seed=26) == evaluate(semantics, [1, 1])


def test_iv_chain_values_stay_finite_at_scale():
    aspects = StructuralAspects(option_count=16, p_w=1.0, mu_a=0.4, sigma_a=0.01, module_count=40)
    graph = generate_graph(aspects, seed=20, iv_to_iv_p=0.15)
    evaluator = Evaluator(synthesize_semantics(graph, seed=21))
    bits = np.ones((4, len(evaluator.options)))
    iv_values, perf_values = evaluator.noiseless(bits)
    assert np.isfinite(iv_values).all() and np.isfinite(perf_values).all()


def test_incomplete_configuration_rejected():
    graph = _single_iv_system()
    semantics = synthesize_semantics(graph, seed=22)
    with pytest.raises(ValueError):
        evaluate(semantics, [1])
    with pytest.raises(ValueError):
        evaluate(semantics, [1, 2])


def test_semantics_must_cover_all_nodes():
    graph = _single_iv_system()
    with pytest.raises(ValueError):
        SystemSemantics(graph, {}, {performance(0): {}})
    iv = intermediate(0, 0)
    formula = PolynomialFunction((option(0, 0),), [0.5], [])
    with pytest.raises(ValueError):
        SystemSemantics(graph, {iv: formula}, {})


def test_polynomial_weights_must_fit_sorted_parents():
    a, b = option(0, 0), option(0, 1)
    PolynomialFunction((a, b), [0.5, 0.25], [0.1])
    with pytest.raises(ValueError, match="canonical"):
        PolynomialFunction((b, a), [0.5, 0.25], [0.1])
    with pytest.raises(ValueError, match="pair weights"):
        PolynomialFunction((a, b), [0.5, 0.25], [])
    with pytest.raises(ValueError, match="pair weights"):
        PolynomialFunction((a,), [0.5, 0.25], [])


def _roundtrip_semantics():
    graph = generate_graph(
        StructuralAspects(option_count=6, p_w=0.8, mu_a=0.2, sigma_a=0.1, module_count=3),
        seed=23,
        iv_to_iv_p=0.2,
    )
    return synthesize_semantics(graph, seed=24)


def test_semantics_json_roundtrip_exact():
    semantics = _roundtrip_semantics()
    graph = semantics.graph
    text = semantics_to_json(semantics)
    restored = semantics_from_json(text)
    assert semantics_to_json(restored) == text
    config = [1, 0, 1] * (len(graph.option_nodes()) // 3)
    assert evaluate(restored, config) == evaluate(semantics, config)


def test_semantics_json_rejects_a_tampered_digest_or_seed():
    doc = json.loads(semantics_to_json(_roundtrip_semantics()))
    for key, value in (("weights_sha256", "0" * 64), ("seed", doc["seed"] + 1)):
        with pytest.raises(ValueError, match="do not match weights_sha256"):
            semantics_from_json(json.dumps(doc | {key: value}))


def test_semantics_json_without_seed_is_refused():
    """A document that lists every weight, as older writers did, has no seed."""
    doc = json.loads(semantics_to_json(_roundtrip_semantics()))
    del doc["seed"], doc["weights_sha256"]
    with pytest.raises(ValueError, match="no integer seed"):
        semantics_from_json(json.dumps(doc | {"iv_formulas": {}, "perf_formulas": {}}))


def test_hand_built_semantics_cannot_be_written():
    graph = _single_iv_system()
    iv = intermediate(0, 0)
    formula = PolynomialFunction((option(0, 0), option(0, 1)), [0.5, 0.25], [0.1])
    semantics = SystemSemantics(graph, {iv: formula}, {performance(0): {iv: 2.0}})
    assert semantics.seed is None
    with pytest.raises(ValueError, match="synthesize_semantics"):
        semantics_to_json(semantics)


def test_semantics_json_is_its_graph_plus_a_constant():
    """The file holds the graph document and a fixed-size tail, however
    many parent pairs the graph's IVs have."""
    overheads, pair_counts = set(), []
    for p_w, mu_a, iv_to_iv_p in ((0.1, 0.01, 0.0), (1.0, 0.4, 0.5)):
        graph = generate_graph(
            StructuralAspects(option_count=10, p_w=p_w, mu_a=mu_a, sigma_a=0.01, module_count=10),
            seed=3,
            iv_to_iv_p=iv_to_iv_p,
        )
        semantics = synthesize_semantics(graph, seed=987654321)
        pair_counts.append(sum(len(f.pairs) for f in semantics.iv_formulas.values()))
        overheads.add(len(semantics_to_json(semantics)) - len(compact_json(graph_doc(graph))))
    assert pair_counts[1] > 20 * pair_counts[0]
    assert len(overheads) == 1 and overheads.pop() < 200
