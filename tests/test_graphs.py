import dataclasses
import hashlib
import itertools
import random

import pytest

from omsim.engine import BudgetExceeded, ConfigError
from omsim.graphs import (
    GraphConfig, OverlayGraph, generate, certify,
    check_expansion, check_edge_sparsity, internal_edges,
    extract_survival_set, check_dense_neighborhood_growth, members,
    neighborhood, peel,
)


def complete(n):
    return OverlayGraph(n, [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)])


def path(n):
    return OverlayGraph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return OverlayGraph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def random_graph(n, p, rng):
    edges = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1) if rng.random() < p]
    return OverlayGraph(n, edges)


def test_from_coeff_takes_only_a_finite_positive_coeff():
    # the certify benchmark's two densities: delta = coeff * ceil(log2 200)
    assert GraphConfig.from_coeff(200, 18.0, 0).delta == 144
    assert GraphConfig.from_coeff(200, 3.0, 0).delta == 24
    for coeff in (float("nan"), -3.0, 0.0, float("inf"), 1e308):
        with pytest.raises(ConfigError):
            GraphConfig.from_coeff(200, coeff, 0)


def test_certify_takes_only_a_positive_alpha():
    g = complete(6)
    for alpha in (-1.0, 0.0, float("nan")):
        with pytest.raises(ConfigError):
            certify(g, 5, alpha=alpha, mode="exact")


# --- generation ----------------------------------------------------------

def test_generate_complete_when_delta_saturates():
    g = generate(GraphConfig(n=5, delta=4, seed=0))
    assert len(list(g.edges())) == 10
    assert all(g.degree(p) == 4 for p in range(1, 6))


def test_generate_512_with_asymptotic_default_is_complete():
    # 832 * log2(512) far exceeds n - 1, so the overlay saturates
    cfg = GraphConfig.from_coeff(512, 832.0, seed=1)
    assert cfg.delta >= 511
    g = generate(cfg)
    assert g.degree(1) == 511


def test_generate_deterministic_and_simple():
    cfg = GraphConfig(n=100, delta=20, seed=42)
    g1, g2 = generate(cfg), generate(cfg)
    assert g1.adj == g2.adj
    for p in range(1, 101):
        assert p not in g1.adj_sets[p]
        for q in g1.adj[p]:
            assert p in g1.adj_sets[q]
    g3 = generate(GraphConfig(n=100, delta=20, seed=43))
    assert g3.adj != g1.adj


# --- expansion -----------------------------------------------------------

def test_expansion_complete_true():
    assert check_expansion(complete(5), 2).ok


def test_expansion_path_false_with_witness():
    v = check_expansion(path(5), 2)
    assert not v.ok
    A, B = v.witness
    assert (A, B) == ([1, 2], [4, 5])
    # witness re-verifies: no edge crosses
    g = path(5)
    assert not any(b in g.adj_sets[a] for a in A for b in B)


def test_expansion_budget():
    with pytest.raises(BudgetExceeded):
        check_expansion(complete(40), 10)


def test_expansion_sampled_reports_rate():
    v = check_expansion(path(8), 2, mode="sampled", trials=300, seed=1)
    assert not v.ok and v.violations > 0 and v.witness is not None


def brute_expansion(g, ell):
    verts = range(1, g.n + 1)
    for A in itertools.combinations(verts, ell):
        rest = [v for v in verts if v not in A]
        for B in itertools.combinations(rest, ell):
            if not any(b in g.adj_sets[a] for a in A for b in B):
                return False
    return True


def brute_sparsity(g, ell, alpha):
    verts = range(1, g.n + 1)
    for k in range(1, ell + 1):
        for X in itertools.combinations(verts, k):
            e = sum(1 for a, b in itertools.combinations(X, 2) if b in g.adj_sets[a])
            if e > alpha * k:
                return False
    return True


def test_exact_checkers_against_brute_force():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(4, 9)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        ell = rng.randint(1, n // 2)
        assert check_expansion(g, ell).ok == brute_expansion(g, ell)
        alpha = rng.choice([0.5, 1.0, 1.5])
        assert check_edge_sparsity(g, ell, alpha).ok == brute_sparsity(g, ell, alpha)


# --- edge sparsity -------------------------------------------------------

def test_sparsity_complete_false():
    v = check_edge_sparsity(complete(5), 4, 1.0)
    assert not v.ok
    X = v.witness
    assert internal_edges(complete(5), X) > len(X)


def test_sparsity_empty_graph_true():
    g = OverlayGraph(5, [])
    assert check_edge_sparsity(g, 5, 0.1).ok


def test_sparsity_cycle_true():
    assert check_edge_sparsity(cycle(5), 5, 1.0).ok


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_sparsity_single_vertex_sets_pass(mode):
    # ell = 1 leaves no set that can span an edge
    v = check_edge_sparsity(complete(10), 1, 0.0, mode=mode, trials=5)
    assert v.ok and v.violations == 0


def test_sparsity_greedy_heuristic_finds_planted_clique():
    rng = random.Random(3)
    base = [(a, b) for a in range(1, 40) for b in range(a + 1, 41) if rng.random() < 0.02]
    clique = [(a, b) for a in range(1, 6) for b in range(a + 1, 7)]
    g = OverlayGraph(41, set(base) | set(clique))
    v = check_edge_sparsity(g, 8, 1.2, mode="sampled", trials=50, seed=1)
    assert not v.ok


# --- survival sets -------------------------------------------------------

def test_survival_complete():
    g = complete(5)
    assert extract_survival_set(g, range(1, 6), 4) == {1, 2, 3, 4, 5}


def test_survival_path_peels_to_empty():
    assert extract_survival_set(path(5), range(1, 6), 2) == set()


def test_survival_subset_of_complete_empty():
    assert extract_survival_set(complete(5), {1, 2, 3, 4}, 4) == set()


def test_survival_fixed_point_and_maximality():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(5, 14)
        g = random_graph(n, 0.5, rng)
        B = set(rng.sample(range(1, n + 1), rng.randint(2, n)))
        delta = rng.randint(1, 4)
        C = extract_survival_set(g, B, delta)
        # fixed point: every member keeps delta neighbors inside
        for v in C:
            assert sum(1 for q in g.adj[v] if q in C) >= delta
        # maximality: adding back any peeled vertex breaks the bound for it
        for v in B - C:
            assert sum(1 for q in g.adj[v] if q in C | {v}) < delta


# --- dense neighborhoods -------------------------------------------------

def test_dense_neighborhood_complete():
    assert check_dense_neighborhood_growth(complete(5), 1, 1, 4) == 5


def test_dense_neighborhood_path_center():
    assert check_dense_neighborhood_growth(path(5), 3, 1, 2) == 3


def test_dense_neighborhood_low_degree_zero():
    g = path(5)
    assert check_dense_neighborhood_growth(g, 1, 1, 2) == 0


def test_dense_neighborhood_gamma_zero():
    assert check_dense_neighborhood_growth(path(5), 1, 0, 99) == 1


def test_neighborhood_radius():
    g = path(7)
    assert neighborhood(g, 4, 0) == {4}
    assert neighborhood(g, 4, 2) == {2, 3, 4, 5, 6}


# --- the dense kernels against one-at-a-time peeling ----------------------

def reference_peel(graph, S, constrained, delta, keep=None):
    """Sequential queue-based peeling on vertex sets: remove one
    under-degree constrained member of S at a time; None once `keep` goes."""
    deg = {u: sum(1 for q in graph.adj[u] if q in S) for u in constrained}
    queue = [u for u in constrained if deg[u] < delta]
    while queue:
        u = queue.pop()
        if u not in S:
            continue
        S.discard(u)
        if u == keep:
            return None
        for q in graph.adj[u]:
            if q in S and q in constrained:
                deg[q] -= 1
                if deg[q] < delta:
                    queue.append(q)
    return S


def reference_ball(graph, v, gamma):
    seen, frontier = {v}, [v]
    for _ in range(gamma):
        frontier = [q for u in frontier for q in graph.adj[u] if q not in seen]
        seen.update(frontier)
    return seen


def reference_growth(graph, v, gamma, delta):
    if gamma <= 0:
        return 1
    S = reference_peel(graph, reference_ball(graph, v, gamma),
                       reference_ball(graph, v, gamma - 1), delta, keep=v)
    return 0 if S is None else len(S)


def test_peel_kernel_matches_sequential_peel():
    rng = random.Random(12)
    seen = {"proper": 0, "whole": 0, "keep in core": 0, "keep peeled": 0}
    for _ in range(400):
        n = rng.randint(2, 40)
        g = random_graph(n, rng.choice([0.1, 0.2, 0.35, 0.5]), rng)
        S = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
        delta = rng.randint(1, 6)
        if rng.random() < 0.5:
            C = S
            seen["whole"] += 1
            assert extract_survival_set(g, S, delta) == reference_peel(g, set(S), set(S), delta)
        else:
            C = set(rng.sample(sorted(S), rng.randint(0, len(S) - 1)))
            seen["proper"] += 1
        core = reference_peel(g, set(S), C, delta)
        assert members(peel(g, g.mask(S), g.mask(C), delta)) == core
        for keep, kind in ((min(core, default=None), "keep in core"),
                           (min(S - core, default=None), "keep peeled")):
            if keep is None:
                continue
            seen[kind] += 1
            want = reference_peel(g, set(S), C, delta, keep=keep)
            got = peel(g, g.mask(S), g.mask(C), delta, keep=keep)
            assert (None if got is None else members(got)) == want
    assert min(seen.values()) >= 100, seen


def test_ball_and_growth_kernels_match_reference():
    rng = random.Random(13)
    sizes = set()
    for _ in range(150):
        n = rng.randint(2, 40)
        g = random_graph(n, rng.choice([0.05, 0.1, 0.2, 0.35]), rng)
        v = rng.randint(1, n)
        delta = rng.randint(1, 5)
        for gamma in range(5):
            assert neighborhood(g, v, gamma) == reference_ball(g, v, gamma)
            size = check_dense_neighborhood_growth(g, v, gamma, delta)
            assert size == reference_growth(g, v, gamma, delta), (n, v, gamma, delta)
            sizes.add("zero" if size == 0 else
                      "whole ball" if size == len(reference_ball(g, v, gamma)) else "part")
    assert sizes == {"zero", "whole ball", "part"}


# --- certification bundle ------------------------------------------------

def test_certify_runs_and_reports():
    g = generate(GraphConfig(n=60, delta=18, seed=5))
    rep = certify(g, 18, mode="sampled", trials=200, seed=2)
    lo, hi = rep.degrees
    assert 0 < lo <= hi
    d = rep.to_dict()
    assert d["n"] == 60 and "expanding" in d and "edge_sparse" in d


# --- pinned certifier outputs --------------------------------------------

def certifier_outputs():
    """Both checks in both modes, and `certify`, on a seeded batch of small
    graphs and on the n = 200 overlays the benchmark certifies; the last
    cases run `certify(mode="exact")` past the exact cap, so both checks
    fall back to sampled mode."""
    def verdict(check, *args, **kw):
        try:
            return dataclasses.asdict(check(*args, **kw))
        except BudgetExceeded:
            return "budget"

    out = []
    rng = random.Random(23)
    for case in range(60):
        n = rng.randint(6, 20)
        coeff = rng.choice([1.0, 3.0, 18.0])
        cfg = GraphConfig.from_coeff(n, coeff, case)
        g = generate(cfg)
        ell_x = rng.randint(1, min(4, n // 2))
        ell_s = rng.randint(1, 5)
        alpha = rng.choice([0.5, 1.0, 1.5, cfg.delta / 15])
        for mode in ("exact", "sampled"):
            kw = dict(mode=mode, trials=50, seed=case)
            out.append((n, coeff, mode, ell_x, ell_s, alpha,
                        verdict(check_expansion, g, ell_x, **kw),
                        verdict(check_edge_sparsity, g, ell_s, alpha, **kw),
                        certify(g, cfg.delta, **kw).to_dict()))
    clique = [(a, b) for a in range(1, 6) for b in range(a + 1, 7)]
    planted = OverlayGraph(41, clique + [(7, 8), (9, 10)])
    out.append(verdict(check_edge_sparsity, planted, 8, 1.2, mode="sampled", trials=50, seed=1))
    for coeff in (3.0, 18.0):
        for seed in (0, 1):
            cfg = GraphConfig.from_coeff(200, coeff, seed)
            g = generate(cfg)
            alpha = cfg.delta / 15
            out.append((coeff, seed,
                        verdict(check_expansion, g, 20, mode="sampled", trials=400, seed=seed),
                        verdict(check_edge_sparsity, g, 20, alpha, mode="sampled",
                                trials=400, seed=seed),
                        verdict(check_expansion, g, 2, mode="exact"),
                        verdict(check_expansion, g, 3, mode="exact"),
                        verdict(check_edge_sparsity, g, 2, 0.4, mode="exact"),
                        verdict(check_edge_sparsity, g, 2, alpha, mode="exact"),
                        verdict(check_edge_sparsity, g, 3, alpha, mode="exact"),
                        certify(g, cfg.delta, mode="exact", trials=400, seed=seed).to_dict()))
    return out


def test_certifier_outputs_are_pinned():
    out = certifier_outputs()
    # the coeff-3 overlays at n = 200 fail both checks in sampled mode, the
    # coeff-18 ones pass; the fallback certify agrees with sampled mode
    assert [o[2]["violations"] for o in out[-4:]] == [17, 15, 0, 0]
    assert [o[3]["violations"] for o in out[-4:]] == [1, 3, 0, 0]
    assert all(o[5] == o[8] == "budget" for o in out[-4:])
    assert all(o[-1]["expanding"]["20"] == o[2] for o in out[-4:])
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "d370e4bc8c79555b9856bd82d2a783d52b82ce268fb007358f6abbe1b175d731"
