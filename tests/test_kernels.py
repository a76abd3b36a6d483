import itertools

import numpy as np

from hyperlim import kernels, rng
from hyperlim.combinatorics import comb_table
from hyperlim.hypergraph import Hypergraph, hom
from hyperlim.hypergraphon import _mc_constraint_arrays, builtin_w, density


def brute_hom(F, H, injective=False):
    count = 0
    for m in itertools.product(range(H.n), repeat=F.n):
        if injective and len(set(m)) < F.n:
            continue
        if all(H.is_edge(tuple(m[v] for v in e)) for e in F.edges):
            count += 1
    return count


def test_hom_matches_brute_small():
    tri = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    k4 = Hypergraph.complete(2, 4)
    assert hom(tri, k4) == brute_hom(tri, k4) == 24
    path = Hypergraph(2, 3, [(0, 1), (1, 2)])
    assert hom(path, tri) == brute_hom(path, tri)
    t3 = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
    h3 = Hypergraph.random(3, 5, 0.6, seed=4)
    assert hom(t3, h3) == brute_hom(t3, h3)


def test_injective_maps_rows_are_injective_and_seeded():
    maps = kernels.injective_maps(200, 4, 9, rng.derive(3, rng.TAG_INJECTIVE))
    assert maps.shape == (200, 4)
    assert maps.min() >= 0 and maps.max() < 9
    for row in maps:
        assert len(set(row.tolist())) == 4
    again = kernels.injective_maps(200, 4, 9, rng.derive(3, rng.TAG_INJECTIVE))
    assert np.array_equal(maps, again)


def test_injective_maps_uniform_over_pairs():
    # all 6 ordered pairs of {0,1,2} should appear about equally
    maps = kernels.injective_maps(6000, 2, 3, 77)
    counts = {}
    for a, b in maps.tolist():
        counts[(a, b)] = counts.get((a, b), 0) + 1
    assert set(counts) == {(a, b) for a in range(3) for b in range(3) if a != b}
    for c in counts.values():
        assert abs(c - 1000) < 160  # 4 sigma ~ 115


def test_uniform_maps_range_and_determinism():
    maps = kernels.uniform_maps(500, 3, 7, 123)
    assert maps.shape == (500, 3)
    assert maps.min() >= 0 and maps.max() < 7
    assert np.array_equal(maps, kernels.uniform_maps(500, 3, 7, 123))


def test_eval_maps_count_matches_python_loop():
    F = Hypergraph(2, 3, [(0, 1), (1, 2)])
    H = Hypergraph.random(2, 6, 0.5, seed=9)
    maps = kernels.uniform_maps(400, F.n, H.n, 55)
    edges = np.array(F.sorted_edges(), dtype=np.int64)
    flags = np.ones(edges.shape[0], dtype=np.int64)
    ct = comb_table(H.n, F.k)
    got = kernels.eval_maps_count(maps, edges, flags, H.member_array(), ct, F.k)
    expect = 0
    for row in maps.tolist():
        ok = True
        for e in F.edges:
            img = tuple(row[v] for v in e)
            if len(set(img)) < F.k or not H.is_edge(img):
                ok = False
                break
        if ok:
            expect += 1
    assert got == expect


def test_eval_maps_count_duplicate_image_fails_constraint():
    # a map collapsing an edge can never satisfy it, even on a complete host
    F = Hypergraph(2, 2, [(0, 1)])
    H = Hypergraph.complete(2, 3)
    maps = np.array([[0, 0], [1, 1], [0, 1]], dtype=np.int64)
    edges = np.array(F.sorted_edges(), dtype=np.int64)
    flags = np.ones(1, dtype=np.int64)
    got = kernels.eval_maps_count(maps, edges, flags, H.member_array(), comb_table(3, 2), 2)
    assert got == 1


def scalar_mc_hits(F, W, samples, seed, induced):
    """Hit count of the step Monte Carlo sweep, one scalar hash per counter."""
    simp, cidx, flags, _ = _mc_constraint_arrays(F, W.k, induced)
    nsim = len(simp)
    key = rng.derive(seed, rng.TAG_MC)
    member = W.member_table()
    hits = 0
    for s in range(samples):
        lev = [rng.level_of(rng.mix64(key, s * nsim + i), W.l) for i in range(nsim)]
        good = True
        for row, want in zip(cidx, flags):
            code = sum(lev[q] * W.l**j for j, q in enumerate(row))
            if bool(member[code]) != bool(want):
                good = False
                break
        hits += good
    return hits


def test_mc_step_count_matches_scalar_recompute():
    rs = np.random.default_rng(11)
    samples = 300
    for k in (2, 3):
        for kind in ("example1", "full"):
            W = builtin_w(kind, k)
            for induced in (False, True):
                n = int(rs.integers(k + 1, k + 3))
                F = Hypergraph.random(k, n, 0.5, seed=int(rs.integers(0, 10**6)))
                seed = int(rs.integers(0, 10**6))
                est, _ = density(F, W, mode="montecarlo", samples=samples, seed=seed, induced=induced)
                assert est == scalar_mc_hits(F, W, samples, seed, induced) / samples
