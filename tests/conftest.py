import numpy as np
import pytest

from modperf.dataset import sample_dataset
from modperf.influence_graph import StructuralAspects, derive_knowledge, generate_graph
from modperf.semantics import synthesize_semantics


@pytest.fixture
def small_system():
    """One deterministic desk-scale system: graph, knowledge, semantics, data."""
    aspects = StructuralAspects(
        option_count=6, p_w=0.8, mu_a=0.2, sigma_a=0.05, module_count=3
    )
    graph = generate_graph(aspects, seed=101)
    artifacts = derive_knowledge(graph)
    semantics = synthesize_semantics(graph, seed=102)
    dataset = sample_dataset(semantics, seed=103, n_train=300, n_test=200)
    return graph, artifacts, semantics, dataset


def brute_force_mwu_p(x, y, alternative):
    """Independent oracle: enumerate labelings, U by direct pair counting."""
    import itertools

    x = list(map(float, x))
    y = list(map(float, y))
    pooled = x + y
    n_x = len(x)

    def u_stat(xs, ys):
        u = 0.0
        for a in xs:
            for b in ys:
                if a > b:
                    u += 1.0
                elif a == b:
                    u += 0.5
        return u

    u_obs = u_stat(x, y)
    count_ge = count_le = total = 0
    for combo in itertools.combinations(range(len(pooled)), n_x):
        xs = [pooled[i] for i in combo]
        ys = [pooled[i] for i in range(len(pooled)) if i not in set(combo)]
        u = u_stat(xs, ys)
        total += 1
        if u >= u_obs - 1e-12:
            count_ge += 1
        if u <= u_obs + 1e-12:
            count_le += 1
    p_greater = count_ge / total
    p_less = count_le / total
    if alternative == "greater":
        return p_greater
    if alternative == "less":
        return p_less
    return min(1.0, 2.0 * min(p_greater, p_less))


def reference_soft_threshold(x, t):
    """Independent oracle for the lasso's scalar soft threshold
    sign(x) * max(|x| - t, 0): x - t, x + t, or exactly 0.0 in [-t, t]."""
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def has_cycle(edges, nodes):
    """Independent DFS cycle detector over (src, dst) pairs."""
    children = {n: [] for n in nodes}
    for src, dst in edges:
        children[src].append(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}

    def visit(node):
        color[node] = GRAY
        for child in children[node]:
            if color[child] == GRAY:
                return True
            if color[child] == WHITE and visit(child):
                return True
        color[node] = BLACK
        return False

    return any(color[n] == WHITE and visit(n) for n in nodes)


def rng(seed=0):
    return np.random.default_rng(seed)
