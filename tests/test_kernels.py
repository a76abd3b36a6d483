import itertools
import json
import logging
from fractions import Fraction
from math import comb, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_hyperpartition import brute_structure_density

from hyperlim import hypergraph, kernels, rng
from hyperlim.cli import main
from hyperlim.combinatorics import (
    colex_insert_ranks,
    colex_rank_rows,
    comb_table,
    falling,
    mask_bits,
    mask_image,
    mask_perms,
    position_perms,
)
from hyperlim.hypergraph import (
    Hypergraph,
    _constraints,
    _contract_count,
    _induced_kernel,
    _mobius_count,
    _search_count,
    _search_order,
    densities,
    hom,
    injective_hom_brute,
)
from hyperlim.hypergraphon import GeneralHypergraphon, builtin_w, density, step_from_structure
from hyperlim.hyperpartition import (
    CombinatorialStructure,
    Hyperpartition,
    LevelMapDistribution,
    _constraint_cells,
    empirical_level_maps,
    structure_density,
)
from hyperlim.metrics import d1


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


@st.composite
def hypergraphs(draw, k, n):
    subs = list(itertools.combinations(range(n), k))
    keep = draw(st.lists(st.booleans(), min_size=len(subs), max_size=len(subs)))
    return Hypergraph(k, n, [s for s, b in zip(subs, keep) if b])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_member_link_matches_member_keep_over_the_expanded_maps(k, data):
    # rows may repeat an image, and n may be below k
    n = data.draw(st.integers(1, k + 4))
    H = data.draw(hypergraphs(k, n))
    img = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k - 1, max_size=k - 1), max_size=8))
    img = np.array(img, dtype=np.int64).reshape(len(img), k - 1)
    flag = data.draw(st.sampled_from([0, 1]))
    got = kernels._member_link(img, flag, H.member_array(), n)
    maps = np.column_stack((np.repeat(img, n, axis=0), np.tile(np.arange(n), len(img))))
    want = kernels.member_keep(maps, [list(range(k))], [flag], H.member_array(), n)
    assert np.array_equal(got, want.reshape(len(img), n))


@st.composite
def pattern_and_host(draw):
    k = draw(st.sampled_from([2, 3]))
    F = draw(hypergraphs(k, draw(st.integers(0, 5))))
    H = draw(hypergraphs(k, draw(st.integers(1, 7))))
    return F, H


@st.composite
def structures(draw, k, l):
    cells = list(itertools.product(range(1, l + 1), repeat=(1 << k) - 1))
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return CombinatorialStructure(k, l, [c for c, b in zip(cells, keep) if b], symmetrize=True)


@settings(max_examples=200)
@given(pattern_and_host())
def test_hom_matches_brute_random(pair):
    F, H = pair
    assert hom(F, H) == brute_hom(F, H)
    assert hom(F, H, "injective") == injective_hom_brute(F, H) == brute_hom(F, H, injective=True)


# sizes keep the brute force over l**(subsets of V(F)) labelings small
@pytest.mark.parametrize("k, l, n", [(2, 2, 0), (2, 2, 1), (2, 2, 4), (2, 3, 3), (3, 2, 2), (3, 2, 4)])
@settings(max_examples=5)
@given(data=st.data())
def test_structure_density_matches_brute_random(k, l, n, data):
    F, C = data.draw(hypergraphs(k, n)), data.draw(structures(k, l))
    induced = data.draw(st.booleans())
    assert structure_density(F, C, induced=induced) == brute_structure_density(F, C, induced)


def uniform_label_maps(v, k, l):
    """Every label map of the subsets of range(v) of arity 1..k, once each."""
    simplices = tuple(s for r in range(1, k + 1) for s in itertools.combinations(range(v), r))
    total = l ** len(simplices)
    maps = np.array(list(itertools.product(range(1, l + 1), repeat=len(simplices))), dtype=np.int64)
    counts = np.ones(total, dtype=np.int64)
    return LevelMapDistribution(v, k, l, simplices, maps.reshape(total, -1), counts, total)


@st.composite
def pattern_structure_maps(draw):
    k, l = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    # at most 2**16 label maps
    sizes = [v for v in range(7) if l ** sum(comb(v, r) for r in range(1, k + 1)) <= 1 << 16]
    v = draw(st.sampled_from(sizes))
    return draw(hypergraphs(k, v)), draw(structures(k, l)), draw(st.booleans())


@settings(max_examples=60)
@given(pattern_structure_maps())
def test_structure_density_matches_uniform_distribution(case):
    F, C, induced = case
    dist = uniform_label_maps(F.n, C.k, C.l)
    assert structure_density(F, C, induced=induced) == structure_density(
        F, C, dist, induced=induced
    )


def scalar_distribution_density(F, C, dist, induced):
    """Weight of the label maps realizing F in C, one constraint and mask at
    a time, finding each subset's column by a linear search of simplices."""
    k = C.k
    cons = itertools.combinations(range(F.n), k) if induced else F.sorted_edges()
    cons = list(cons)
    hit = 0
    for row, cnt in zip(dist.maps.tolist(), dist.counts.tolist()):
        ok = True
        for c in cons:
            cell = tuple(
                row[dist.simplices.index(tuple(c[b] for b in mask_bits(m)))]
                for m in range(1, 1 << k)
            )
            if (cell in C.cells) != F.is_edge(c):
                ok = False
                break
        hit += cnt * ok
    return Fraction(hit, dist.total)


@st.composite
def sampled_distribution_cases(draw):
    k, l = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    n = draw(st.integers(k, 7))
    v = draw(st.integers(0, min(n, 5)))
    hp = Hyperpartition.uniform_random(n, k, l, seed=draw(st.integers(0, 2**32)))
    dist = empirical_level_maps(v, hp, samples=draw(st.integers(1, 200)), seed=draw(st.integers(0, 2**32)))
    # the same distribution with its simplex columns listed in another order
    perm = draw(st.permutations(range(len(dist.simplices))))
    shuffled = LevelMapDistribution(
        v, k, l, tuple(dist.simplices[i] for i in perm), dist.maps[:, list(perm)],
        dist.counts, dist.total,
    )
    return draw(hypergraphs(k, v)), draw(structures(k, l)), dist, shuffled, draw(st.booleans())


@settings(max_examples=100)
@given(sampled_distribution_cases())
def test_distribution_density_matches_scalar_lookup(case):
    F, C, dist, shuffled, induced = case
    want = scalar_distribution_density(F, C, dist, induced)
    assert structure_density(F, C, dist, induced=induced) == want
    assert structure_density(F, C, shuffled, induced=induced) == want


def scalar_induced_count(n_f, n_h, subs, flags, member, injective=False) -> int:
    """The scalar backtracking search kernels.induced_count once was, kept
    as its slow oracle (for n_f >= 1); depth d checks the rows whose
    largest vertex is d."""
    k, ct = subs.shape[1], comb_table(n_h, subs.shape[1])
    closing = [[e for e in range(subs.shape[0]) if subs[e].max() == d] for d in range(n_f)]
    assign = np.empty(n_f, dtype=np.int64)
    img = np.empty(k, dtype=np.int64)
    count = 0
    d = 0
    assign[0] = -1
    while d >= 0:
        a = assign[d] + 1
        if a >= n_h:
            d -= 1
            continue
        assign[d] = a
        ok = True
        if injective:
            for j in range(d):
                if assign[j] == a:
                    ok = False
                    break
        if ok:
            for e in closing[d]:
                for i in range(k):
                    img[i] = assign[subs[e, i]]
                dup = False
                for i in range(1, k):
                    v = img[i]
                    j = i - 1
                    while j >= 0 and img[j] > v:
                        img[j + 1] = img[j]
                        j -= 1
                    img[j + 1] = v
                for i in range(1, k):
                    if img[i] == img[i - 1]:
                        dup = True
                        break
                if dup:
                    ok = False
                    break
                rank = 0
                for i in range(k):
                    rank += ct[img[i], i + 1]
                inm = member[rank] != 0
                want = flags[e] != 0
                if inm != want:
                    ok = False
                    break
        if not ok:
            continue
        if d == n_f - 1:
            count += 1
        else:
            d += 1
            assign[d] = -1
    return count


@st.composite
def induced_search_case(draw):
    """induced_count arguments: random flags on a random set of k-subsets of
    V(F) in shuffled, ungrouped order, relabeled by a random vertex
    permutation, and a random host."""
    k = draw(st.sampled_from([2, 3]))
    n_f, H = draw(st.integers(0, 5)), draw(hypergraphs(k, draw(st.integers(0, 7))))
    subs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n_f), k))),
                         unique=True)) if n_f >= k else []
    flags = draw(st.lists(st.integers(0, 1), min_size=len(subs), max_size=len(subs)))
    perm = np.array(draw(st.permutations(range(n_f))), dtype=np.int64)
    rows = perm[np.array(subs, dtype=np.int64).reshape(-1, k)]
    args = (n_f, H.n, rows, np.array(flags, dtype=np.uint8), H.member_array())
    return args, draw(st.booleans()), draw(st.sampled_from([kernels.FRONTIER_CAP, 1, 3, 8]))


@settings(max_examples=300)
@given(induced_search_case())
def test_induced_count_matches_scalar_search(case):
    args, injective, cap = case
    want = scalar_induced_count(*args, injective) if args[0] else 1
    with mock.patch.object(kernels, "FRONTIER_CAP", cap):
        assert kernels.induced_count(*args, injective) == want


def kernel_args(F, H):
    """induced_count arguments constraining every k-subset of V(F)."""
    subs, flags = _constraints(F, induced=True)
    rows = np.argsort(_search_order(F))[np.array(subs, dtype=np.int64).reshape(-1, F.k)]
    return F.n, H.n, rows, np.array(flags, dtype=np.uint8), H.member_array()


@pytest.mark.parametrize("injective", [False, True])
def test_induced_count_edge_cases(injective, monkeypatch):
    P4 = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
    T3 = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
    # an empty pattern has the one empty map, even into an empty host
    for H in (Hypergraph(2, 0), Hypergraph(2, 3)):
        assert kernels.induced_count(*kernel_args(Hypergraph(2, 0), H), injective) == 1
    # an empty host, and hosts with fewer than k vertices (empty member table)
    for F, H in ((P4, Hypergraph(2, 0)), (P4, Hypergraph(2, 1)), (T3, Hypergraph(3, 2))):
        assert H.member_array().size == 0
        assert kernels.induced_count(*kernel_args(F, H), injective) == 0
    # fewer host vertices than pattern vertices: no injective map at all
    small = Hypergraph.complete(3, 3)
    want = scalar_induced_count(*kernel_args(T3, small), injective)
    assert kernels.induced_count(*kernel_args(T3, small), injective) == want
    assert not injective or want == 0
    # frontiers of H.n**2 rows and more run in blocks of 5, depth first
    monkeypatch.setattr(kernels, "FRONTIER_CAP", 5)
    for F, H in ((P4, Hypergraph.random(2, 9, 0.5, seed=2)), (T3, Hypergraph.random(3, 7, 0.5, seed=3))):
        args = kernel_args(F, H)
        assert kernels.induced_count(*args, injective) == scalar_induced_count(*args, injective) > 0


def test_hom_over_cap_takes_the_loop(monkeypatch):
    F = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    H = Hypergraph.random(2, 9, 0.5, seed=5)
    fast = hom(F, H), hom(F, H, "injective")
    calls = []
    loop = kernels.induced_count
    monkeypatch.setattr(kernels, "CONTRACT_CAP", 8)
    monkeypatch.setattr(kernels, "induced_count", lambda *a: calls.append(a) or loop(*a))
    assert (hom(F, H), hom(F, H, "injective")) == fast
    assert calls
    # all_cells reads no axis; this l = 3 structure reads all three
    C = CombinatorialStructure(2, 3, [(1, 2, 3), (3, 3, 1)], symmetrize=True)
    assert C.used_axes()[0] == (0, 1, 2)
    with pytest.raises(ValueError, match="too large"):
        structure_density(F, C)


def test_hom_fallback_logs_once_per_count_at_debug_only(monkeypatch, caplog):
    F = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    H = Hypergraph.random(2, 9, 0.5, seed=5)
    want = hom(F, H)
    assert caplog.records == []
    # the frontier's predicted cost is the lower at the default cap; under a
    # cap of 100 the contraction's first step (9**3) is refused, and under 8
    # the host tensor itself
    with caplog.at_level(logging.DEBUG, logger="hyperlim.hypergraph"):
        assert hom(F, H) == want
        monkeypatch.setattr(kernels, "CONTRACT_CAP", 100)
        assert hom(F, H) == want
        monkeypatch.setattr(kernels, "CONTRACT_CAP", 8)
        assert hom(F, H) == want
    assert [r.getMessage() for r in caplog.records] == [
        f"hom by frontier search, predicted cost 132692 against {other} for the contraction:"
        " n = 9, |V(F)| = 4"
        for other in ("230276", "none", "none")
    ]
    assert {(r.name, r.levelno) for r in caplog.records} == {("hyperlim.hypergraph", logging.DEBUG)}
    caplog.clear()
    # a path in a 60-vertex host: the frontier's rows grow thirtyfold per
    # vertex, so the contraction runs, and says nothing
    P7, G = Hypergraph(2, 7, [(i, i + 1) for i in range(6)]), Hypergraph.random(2, 60, 0.5, seed=1)
    monkeypatch.setattr(kernels, "CONTRACT_CAP", 1 << 24)
    with caplog.at_level(logging.DEBUG, logger="hyperlim.hypergraph"):
        got = hom(P7, G)
    assert caplog.records == []
    A = hypergraph._host_tensor(G)
    assert got == int(np.linalg.matrix_power(A, 6).sum())  # walks of length 6


def contracted_induced_count(F, H):
    """The induced count as one contraction, a factor per k-subset of V(F)
    over H's tensor (an edge of F) or its complement's (a non-edge), the
    oracle of _induced_kernel. It counts every map; at k >= 2 with
    |V(F)| >= k each of them is injective, since any two pattern vertices
    share a constrained k-subset."""
    subs, flags = _constraints(F, True)
    T = host_tensors(H)
    return kernels.contract([(s, T[f]) for s, f in zip(subs, flags)], F.n, H.n)


@st.composite
def induced_case(draw):
    """A pattern with any edge set (empty and complete among them) and a
    random host, with |V(F)| below, at and above k, and n < v and n < k
    allowed."""
    k = draw(st.integers(1, 3))
    v = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    subs = list(itertools.combinations(range(v), k))
    fill = draw(st.sampled_from(["empty", "complete", "random"]))
    if fill == "random":
        edges = [s for s in subs if draw(st.booleans())]
    else:
        edges = subs if fill == "complete" else []
    mask = draw(st.lists(st.booleans(), min_size=comb(n, k), max_size=comb(n, k)))
    return Hypergraph(k, v, edges), Hypergraph.from_member(k, n, np.array(mask, dtype=np.uint8))


@settings(max_examples=300, deadline=None)
@given(induced_case(), st.booleans())
def test_contracted_induced_counts_match_the_frontier(case, injective):
    F, H = case
    want = _search_count(F, H, True, injective)
    searched = []
    loop = kernels.induced_count
    with mock.patch.object(kernels, "induced_count", lambda *a: searched.append(a) or loop(*a)):
        assert _induced_kernel(F, H, injective) == want
        closed = searched == []
        if H.n:
            rec = densities(F, H)
    # counts at k = 1, and counts with fewer pattern vertices than k, are
    # closed forms; every other induced count is one frontier search
    assert closed == (F.k == 1 or F.n < F.k)
    if not injective or F.n >= F.k >= 2:
        assert contracted_induced_count(F, H) == want
    if H.n:
        assert rec.t_ind == Fraction(_search_count(F, H, True), H.n**F.n)
        if F.n <= H.n:
            assert rec.t0_ind == Fraction(_search_count(F, H, True, True), falling(H.n, F.n))
        else:
            assert rec.t0_ind is None


def test_densities_build_each_host_tensor_once():
    # a host keeps its tensors: a second count on it, and a second
    # densities call, build neither again
    F = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
    H = Hypergraph.random(2, 9, 0.5, seed=5)
    built = []
    make = hypergraph._host_tensor
    with mock.patch.object(hypergraph, "_host_tensor", lambda G: built.append(G) or make(G)):
        rec = densities(F, H)
        assert hom(F, H, "injective") == rec.t0 * falling(9, 4)
        assert densities(F, H) == rec
    assert sorted(G.edge_count for G in built) == sorted((H.edge_count, comb(9, 2) - H.edge_count))


def test_refused_contraction_builds_no_host_tensor(monkeypatch):
    triangle = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])
    P5 = Hypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    member = Hypergraph.random(2, 10, 0.5, seed=5).member_array()
    counts = (
        lambda F, H: hom(F, H),
        lambda F, H: hom(F, H, "injective"),
        lambda F, H: _induced_kernel(F, H, False),
    )

    def each_count():
        # a fresh host each time, since a host keeps the tensors it built
        return [count(F, Hypergraph.from_member(2, 10, member)) for F in (triangle, P5) for count in counts]

    want = each_count()
    built, early, got = [], [], []
    make = hypergraph._host_tensor
    monkeypatch.setattr(hypergraph, "_host_tensor", lambda G: built.append(G) or make(G))
    # the prediction of both hom costs reads no table: no tensor is built
    # before the path is chosen; an induced count has one path and predicts
    # nothing
    for name in ("frontier_cost", "contraction_plan", "contraction_cost"):
        predict = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, predict=predict: early.append(len(built)) or predict(*a))
    for F in (triangle, P5):
        for i, count in enumerate(counts):
            built.clear()
            early.clear()
            got.append(count(F, Hypergraph.from_member(2, 10, member)))
            assert set(early) == ({0} if i < 2 else set())
            assert built  # the host fits a tensor, and the chosen path reads it
    # a host with no tensor under a cap of 8: the frontier reads its member
    # table, and the contraction is refused before any table is built
    monkeypatch.setattr(kernels, "CONTRACT_CAP", 8)
    built.clear()
    assert got == want == each_count()
    assert built == []


def test_induced_counts_take_the_frontier_and_log_nothing(monkeypatch, caplog):
    P4 = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
    H = Hypergraph.random(2, 9, 0.5, seed=5)
    want = contracted_induced_count(P4, H)
    # the induced count is one frontier search whatever the cap: 9**2 host
    # entries fit a cap of 100, where the induced constraint graph of P4,
    # complete, would span 9**4 at a contraction's first step
    with caplog.at_level(logging.DEBUG, logger="hyperlim.hypergraph"):
        assert _induced_kernel(P4, H, False) == want
        monkeypatch.setattr(kernels, "CONTRACT_CAP", 100)
        assert _induced_kernel(P4, Hypergraph.random(2, 9, 0.5, seed=5), False) == want
        # counts at k = 1 are closed forms: no search either
        F1, H1 = Hypergraph(1, 3, [(0,), (2,)]), Hypergraph(1, 5, [(1,), (3,), (4,)])
        assert _induced_kernel(F1, H1, True) == 3 * 2 * 2
        assert _induced_kernel(F1, H1, False) == 3 * 2 * 3
    assert caplog.records == []


def test_hom_count_beyond_int64_is_exact():
    path = Hypergraph(2, 13, [(i, i + 1) for i in range(12)])
    assert hom(path, Hypergraph.complete(2, 30)) == 30 * 29**12


def test_contract_counts_free_variables_and_empty_domains():
    assert kernels.contract([], 3, 5) == 125
    assert kernels.contract([], 0, 0) == 1
    assert kernels.contract([((0,), np.array([2, 3]))], 2, 2) == 10


def test_injective_maps_rows_are_injective_and_seeded():
    maps = kernels.injective_maps(200, 4, 9, rng.derive(3, rng.TAG_INJECTIVE))
    assert maps.shape == (200, 4)
    assert maps.min() >= 0 and maps.max() < 9
    for row in maps:
        assert len(set(row.tolist())) == 4
    again = kernels.injective_maps(200, 4, 9, rng.derive(3, rng.TAG_INJECTIVE))
    assert np.array_equal(maps, again)


def test_injective_maps_uniform_over_pairs():
    # the 6 ordered pairs of {0,1,2}, and the 6 permutations of it (which
    # the delta1_upper restarts draw), should each appear about equally
    for v in (2, 3):
        maps = kernels.injective_maps(6000, v, 3, 77)
        counts = {}
        for row in maps.tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert set(counts) == set(itertools.permutations(range(3), v))
        for c in counts.values():
            assert abs(c - 1000) < 160  # 4 sigma ~ 115


def uniform_maps(budget: int, v: int, n: int, key: int) -> np.ndarray:
    """budget uniform random maps [v] -> [n] (with replacement)."""
    ctr = np.arange(budget * v, dtype=np.uint64)
    h = rng.np_mix64(key, ctr)
    return (h % np.uint64(n)).astype(np.int64).reshape(budget, v)


def test_uniform_maps_range_and_determinism():
    maps = uniform_maps(500, 3, 7, 123)
    assert maps.shape == (500, 3)
    assert maps.min() >= 0 and maps.max() < 7
    assert np.array_equal(maps, uniform_maps(500, 3, 7, 123))


def test_eval_maps_count_matches_python_loop():
    F = Hypergraph(2, 3, [(0, 1), (1, 2)])
    H = Hypergraph.random(2, 6, 0.5, seed=9)
    maps = uniform_maps(400, F.n, H.n, 55)
    edges = np.array(F.sorted_edges(), dtype=np.int64)
    flags = np.ones(edges.shape[0], dtype=np.int64)
    got = kernels.eval_maps_count(maps, edges, flags, H.member_array(), H.n)
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
    got = kernels.eval_maps_count(maps, edges, flags, H.member_array(), H.n)
    assert got == 1


def sort_and_rank_keep(maps, subs, flags, member, n):
    """Mask of the map rows that pass every (subset, flag) constraint: per
    constraint, sort the images, test that they are distinct, colex rank
    them and compare member there with the flag (the filter the frontier
    and eval_maps_count once shared)."""
    good = np.ones(maps.shape[0], dtype=bool)
    for sub, flag in zip(subs, flags):
        alive = np.flatnonzero(good)
        img = np.sort(maps[alive[:, None], sub], axis=1)
        ok = (img[:, 1:] != img[:, :-1]).all(axis=1)
        ok[ok] = (member[colex_rank_rows(img[ok], n)] != 0) == (flag != 0)
        good[alive] = ok
    return good


def sort_and_rank_count(n_f, n_h, subs, flags, member, injective=False) -> int:
    """The frontier kernels.induced_count once was, kept as its oracle:
    every candidate row of a depth, all n_h host vertices for each partial
    map, sorted and colex-ranked per constraint, in blocks of at most
    FRONTIER_CAP rows."""
    top = subs.max(axis=1)
    by = np.argsort(top, kind="stable")
    subs, flags = subs[by], flags[by]
    depth_ptr = np.searchsorted(top[by], np.arange(n_f + 1))

    def grow(maps, d):
        total = 0
        size = maps.shape[0] * n_h
        block = slice(depth_ptr[d], depth_ptr[d + 1])
        for lo in range(0, size, kernels.FRONTIER_CAP):
            idx = np.arange(lo, min(size, lo + kernels.FRONTIER_CAP))
            rows = np.column_stack((maps[idx // n_h], idx % n_h))
            if injective:
                rows = rows[(rows[:, :d] != rows[:, d:]).all(axis=1)]
            rows = rows[sort_and_rank_keep(rows, subs[block], flags[block], member, n_h)]
            total += rows.shape[0] if d == n_f - 1 else grow(rows, d + 1)
        return total

    return grow(np.zeros((1, 0), dtype=np.int64), 0) if n_f else 1


def host_tensors(H):
    return {1: hypergraph._host_tensor(H), 0: hypergraph._host_tensor(H.complement())}


@st.composite
def link_row_case(draw):
    """induced_count arguments over k = 1..3: random flags (or all 1) on a
    random set of k-subsets of V(F), relabeled by a random permutation, and
    an edgeless, complete or random host, n < k allowed."""
    k = draw(st.integers(1, 3))
    n_f, n_h = draw(st.integers(0, 5)), draw(st.integers(0, 7))
    fill = draw(st.sampled_from(["empty", "complete", "random"]))
    mask = [fill == "complete"] * comb(n_h, k)
    if fill == "random":
        mask = draw(st.lists(st.booleans(), min_size=comb(n_h, k), max_size=comb(n_h, k)))
    H = Hypergraph.from_member(k, n_h, np.array(mask, dtype=np.uint8))
    subs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n_f), k))),
                         unique=True)) if n_f >= k else []
    induced = draw(st.booleans())
    flags = draw(st.lists(st.integers(0, 1), min_size=len(subs), max_size=len(subs))) if induced else [1] * len(subs)
    perm = np.array(draw(st.permutations(range(n_f))), dtype=np.int64)
    rows = perm[np.array(subs, dtype=np.int64).reshape(-1, k)]
    args = (n_f, n_h, rows, np.array(flags, dtype=np.uint8), H.member_array())
    return args, H, draw(st.booleans()), draw(st.sampled_from([kernels.FRONTIER_CAP, 1, 2, 5, 9]))


@settings(max_examples=400, deadline=None)
@given(link_row_case())
def test_link_row_frontier_matches_the_sort_and_rank_frontier(case):
    args, H, injective, cap = case
    want = sort_and_rank_count(*args, injective)
    with mock.patch.object(kernels, "FRONTIER_CAP", cap):
        # link rows of the host tensors, and of the member table alone
        assert kernels.induced_count(*args, injective, host_tensors(H)) == want
        assert kernels.induced_count(*args, injective) == want


@st.composite
def small_pattern_and_host(draw):
    k = draw(st.integers(1, 3))
    F = draw(hypergraphs(k, draw(st.integers(0, 6))))
    H = draw(hypergraphs(k, draw(st.integers(0, 7))))
    return F, H


@settings(max_examples=200, deadline=None)
@given(small_pattern_and_host())
def test_chosen_path_matches_each_forced_path(pair):
    F, H = pair
    chosen = hypergraph._map_count(F, H)
    assert chosen == _search_count(F, H)
    contracted = _contract_count(F, H)
    assert contracted is None or contracted == chosen
    assert _induced_kernel(F, H, False) == _search_count(F, H, True)
    injective = hom(F, H, "injective")
    assert injective == _search_count(F, H, False, True) == hypergraph._mobius_count(F, H)
    # a host with no tensor: the frontier reads link rows from the member table
    with mock.patch.object(kernels, "CONTRACT_CAP", 0 if H.n else -1):
        assert _contract_count(F, H) is None
        assert hom(F, H, "injective") == injective
        assert _search_count(F, H, True) == _induced_kernel(F, H, False)


@settings(max_examples=150, deadline=None)
@given(small_pattern_and_host(), st.integers(1, 300), st.integers(0, 2**32))
def test_eval_maps_count_gather_matches_sort_and_rank(pair, budget, key):
    F, H = pair
    if not H.n:
        return
    maps = uniform_maps(budget, F.n, H.n, key)
    for induced in (False, True):
        subs, flags = _constraints(F, induced)
        want = int(sort_and_rank_keep(maps, subs, flags, H.member_array(), H.n).sum())
        assert kernels.eval_maps_count(maps, subs, flags, H.member_array(), H.n, host_tensors(H)) == want
        assert kernels.eval_maps_count(maps, subs, flags, H.member_array(), H.n) == want


def test_frontier_budget_counts_candidate_cells(monkeypatch, tmp_path, capsys):
    # a triangle into K4 examines 4 cells at depth 0, 4 * 4 at depth 1 and
    # the 12 edge-closing pairs * 4 at depth 2: 68 in all
    triangle, K4 = Hypergraph.complete(2, 3), Hypergraph.complete(2, 4)
    monkeypatch.setattr(kernels, "FRONTIER_BUDGET", 68)
    assert _search_count(triangle, K4) == 24
    monkeypatch.setattr(kernels, "FRONTIER_BUDGET", 67)
    with pytest.raises(ValueError, match="--F, --H: .* FRONTIER_BUDGET = 67 candidate cells"):
        _search_count(triangle, K4)
    # a budget of its own stops the kernel the same way, with None
    args = (3, 4, [[0, 1], [0, 2], [1, 2]], [1, 1, 1], None, False, host_tensors(K4))
    assert kernels.induced_count(*args, 68) == 24
    assert kernels.induced_count(*args, 67) is None
    # K9 into K40 has no contraction under the cap: the CLI exits 2 at the
    # budget, with the message
    paths = {}
    for name, G in (("K9", Hypergraph.complete(2, 9)), ("K40", Hypergraph.complete(2, 40))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(G.to_obj()))
    monkeypatch.setattr(kernels, "FRONTIER_BUDGET", 10**5)
    assert main(["density", "--F", str(paths["K9"]), "--H", str(paths["K40"])]) == 2
    assert capsys.readouterr().err == (
        "error: --F, --H: the exact count needs more than FRONTIER_BUDGET = 100000"
        " candidate cells of frontier search\n"
    )


def test_frontier_on_a_k1_host_wider_than_the_frontier_cap():
    # each block of a depth is then one partial map by all n host vertices
    n = kernels.FRONTIER_CAP + 4464
    H = Hypergraph(1, n, [(v,) for v in range(0, n, 7000)])  # 10 marked vertices
    F = Hypergraph(1, 3, [(0,), (2,)])
    assert n > kernels.FRONTIER_CAP and H.edge_count == 10
    assert injective_hom_brute(F, H) == falling(10, 2) * (n - 2)
    assert _search_count(F, H) == 10**2 * n


def test_clustered_host_frontier_gives_way_to_the_other_path(caplog):
    # fans (vertex 0 joined to each vertex of the path 1, ..., v - 1) in K16
    # plus 44 isolated vertices: the edge share 120 / 1770 prices the
    # frontier far below the contraction and the Mobius sum, but the
    # clustered host makes it examine over 2^28 cells; it stops at the other
    # path's predicted cost, and that path counts
    H = Hypergraph(2, 60, itertools.combinations(range(16), 2))
    fan7, fan6 = (
        Hypergraph(2, v, [(0, i) for i in range(1, v)] + [(i, i + 1) for i in range(1, v - 1)]) for v in (7, 6)
    )
    with caplog.at_level(logging.DEBUG, logger="hyperlim.hypergraph"):
        assert hom(fan7, H) == 16 * 15 * 14**5  # chromatic polynomial of the fan at 16
        assert hom(fan6, H, "injective") == falling(16, 6)
    assert [r.getMessage() for r in caplog.records] == [
        "hom by frontier search, predicted cost 253224 against 1640716 for the contraction: n = 60, |V(F)| = 7",
        "frontier search passed 1640716 candidate cells: falling back to the contraction",
        "injective hom by frontier search, predicted cost 219772 against 19896180 for the Mobius sum:"
        " n = 60, |V(F)| = 6",
        "frontier search passed 19896180 candidate cells: falling back to the Mobius sum",
    ]
    assert _contract_count(fan7, H) == 16 * 15 * 14**5
    assert _mobius_count(fan6, H) == falling(16, 6)


def scalar_mc_hits(F, W, samples, seed, induced):
    """Hit count of the step Monte Carlo sweep, one scalar hash per counter."""
    simp, cidx, flags = _constraint_cells(F, W.k, induced)
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


def random_step_structure(k, l, seed):
    """A random S_k-closed structure whose membership depends on a random
    set of masks: a random table over those axes, broadcast along the rest,
    then the union or the intersection of its coordinate permutations."""
    g = np.random.default_rng(seed)
    width = (1 << k) - 1
    shape = [l if g.random() < 0.7 else 1 for _ in range(width)]
    grid = np.broadcast_to(g.random(shape) < g.random(), (l,) * width)
    union = g.random() < 0.5
    closed = np.full(grid.shape, not union)
    for row in mask_perms(k):
        closed = closed | grid.transpose(row) if union else closed & grid.transpose(row)
    return CombinatorialStructure.from_member(k, l, closed.ravel(order="F").astype(np.uint8))


@st.composite
def mc_cases(draw):
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    C = random_step_structure(k, l, draw(st.integers(0, 2**32)))
    F = draw(hypergraphs(k, draw(st.integers(k, k + 2))))
    return F, step_from_structure(C), draw(st.integers(0, 2**32)), draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(mc_cases(), st.integers(1, 80))
def test_mc_step_count_matches_scalar_recompute_on_random_structures(case, samples):
    F, W, seed, induced = case
    est, _ = density(F, W, mode="montecarlo", samples=samples, seed=seed, induced=induced)
    assert est == scalar_mc_hits(F, W, samples, seed, induced) / samples


@settings(max_examples=40, deadline=None)
@given(mc_cases(), st.integers(1, 7), st.integers(1, 40))
def test_mc_step_count_blocks_give_the_unblocked_count(case, block, samples):
    F, W, seed, induced = case
    want = scalar_mc_hits(F, W, samples, seed, induced)
    with mock.patch.object(kernels, "MC_BLOCK", block):
        est, _ = density(F, W, mode="montecarlo", samples=samples, seed=seed, induced=induced)
    assert est == want / samples


def read_by_scalar_scan(cidx, W):
    """Simplices some constraint's code reads, one (row, used mask) at a time."""
    used, _ = W.used_axes()
    return sorted({int(row[m]) for row in cidx for m in used})


def test_mc_step_count_hashes_only_the_read_simplices(monkeypatch):
    hashed = []
    rounds = rng._rounds

    def counting(z, scratch):
        hashed.append(z.size)
        return rounds(z, scratch)

    monkeypatch.setattr(rng, "_rounds", counting)
    monkeypatch.setattr(kernels, "MC_BLOCK", 700)
    samples = 2000
    F = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4), (2, 3, 4), (0, 3, 4)])
    for kind in ("example1", "example2", "full"):
        W = builtin_w(kind, 3)
        for induced in (False, True):
            simp, cidx, flags = _constraint_cells(F, 3, induced)
            read = read_by_scalar_scan(cidx, W)
            hashed.clear()
            kernels.mc_step_count(samples, len(simp), 5, cidx, flags, W)
            assert sum(hashed) == samples * len(read)
            if kind == "example1":  # the top mask alone: one simplex per constraint
                assert len(read) == len(cidx) < len(simp)


def scalar_d1_estimate(U, W, samples, seed):
    """Monte Carlo d1 with one scalar hash per (sample, mask) counter."""
    width = (1 << U.k) - 1
    key = rng.derive(seed, rng.TAG_MC)
    differ = 0
    for s in range(samples):
        hs = [rng.mix64(key, s * width + m) for m in range(width)]
        inside = [
            V.member_table()[sum(rng.level_of(h, V.l) * V.l**m for m, h in enumerate(hs))] != 0
            for V in (U, W)
        ]
        differ += inside[0] != inside[1]
    return differ / samples


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32),
    st.integers(1, 120),
    st.one_of(st.none(), st.integers(1, 7)),
)
def test_d1_montecarlo_matches_scalar_oracle(k, lu, lw, seed, samples, block):
    U = step_from_structure(random_step_structure(k, lu, seed))
    W = step_from_structure(random_step_structure(k, lw, seed + 1))
    with mock.patch.object(kernels, "MC_BLOCK", block or kernels.MC_BLOCK):
        rep = d1(U, W, mode="montecarlo", samples=samples, seed=seed)
    assert rep.value == scalar_d1_estimate(U, W, samples, seed)


def test_every_monte_carlo_count_is_checked_alike():
    # one check for the sample counts of density, d1 and counting_experiment
    # and for check_points: bools and non-integers are refused, naming them
    from hyperlim.experiments import counting_experiment

    W, G = builtin_w("example1", 2), GeneralHypergraphon(2, lambda p: True)
    edge = Hypergraph(2, 2, [(0, 1)])
    callers = {
        "samples": [
            lambda n: density(edge, W, mode="montecarlo", samples=n, seed=1),
            lambda n: density(edge, G, mode="montecarlo", samples=n, seed=1),
            lambda n: d1(W, W, mode="montecarlo", samples=n, seed=1),
            lambda n: counting_experiment(W, edge, [4], trials=1, mc_samples=n),
        ],
        "check_points": [lambda n: GeneralHypergraphon(2, lambda p: True, check_points=n)],
    }
    least = {"samples": "positive", "check_points": "nonnegative"}
    for name, calls in callers.items():
        for call in calls:
            for bad in (2.5, 3.0, True, False, "4", Fraction(4)):
                with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                    call(bad)
            with pytest.raises(ValueError, match=f"^{name} must be {least[name]}$"):
                call(-1)
            call(np.int64(3))
    with pytest.raises(ValueError, match="^samples must be positive$"):
        d1(W, W, mode="montecarlo", samples=0, seed=1)
    assert d1(W, W, mode="montecarlo", seed=1).budget["samples"] == 20000
    assert kernels.mc_count(np.int64(0), "check_points", least=0) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 40), st.integers(1, 9), st.integers(0, 2**64 - 1), st.integers(1, 7), st.data())
def test_mc_words_are_the_strided_counters_block_by_block(samples, nsim, key, block, data):
    read = data.draw(st.lists(st.integers(0, nsim - 1), unique=True))
    with mock.patch.object(kernels, "MC_BLOCK", block):
        blocks = [h.copy() for h in kernels.mc_words(samples, nsim, key, read)]
    assert [h.shape[1] for h in blocks] == [min(block, samples - s0) for s0 in range(0, samples, block)]
    got = np.concatenate(blocks, axis=1) if blocks else np.zeros((len(read), 0), dtype=np.uint64)
    ctrs = np.arange(max(samples, 0))[None, :] * nsim + np.array(read, dtype=np.int64).reshape(-1, 1)
    assert np.array_equal(got, rng.np_mix64(key, ctrs))


def scalar_general_hits(F, W, samples, seed, induced):
    """Hit count of a general predicate's Monte Carlo sweep, one scalar hash
    and u01 per (sample, simplex) counter, stopping each sample at its first
    failed constraint."""
    simp, cidx, flags = _constraint_cells(F, W.k, induced)
    nsim = len(simp)
    key = rng.derive(seed, rng.TAG_MC)
    hits = 0
    for s in range(samples):
        vals = [rng.u01(rng.mix64(key, s * nsim + i)) for i in range(nsim)]
        good = True
        for row, flag in zip(cidx, flags):
            p = {m: vals[q] for m, q in enumerate(row, 1)}
            if W.contains_point(p) != bool(flag):
                good = False
                break
        if good:
            hits += 1
    return hits


def scalar_invariance_check(W, points, seed):
    """GeneralHypergraphon's spot check with one scalar hash and u01 per
    coordinate: point i, mask m reads counter i * (2**k - 1) + m - 1."""
    width = (1 << W.k) - 1
    key = rng.derive(seed, rng.TAG_MC)
    for i in range(points):
        p = {m: rng.u01(rng.mix64(key, i * width + m - 1)) for m in range(1, width + 1)}
        base = bool(W.membership(p))
        for perm in position_perms(W.k):
            q = {mask_image(m, perm): p[m] for m in p}
            if bool(W.membership(q)) != base:
                raise ValueError("membership predicate is not invariant under position permutations")


def recording(predicate):
    """The predicate, and the list of the points it is called with, each as
    its items in order."""
    calls = []

    def f(p):
        calls.append(list(p.items()))
        return predicate(p)

    return f, calls


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.data(),
    st.integers(0, 2**32),
    st.booleans(),
    st.integers(1, 30),
    st.one_of(st.none(), st.integers(1, 7)),
)
def test_general_density_reads_the_scalar_points_in_order(k, data, seed, induced, samples, block):
    F = data.draw(hypergraphs(k, data.draw(st.integers(k, k + 2))))
    f, calls = recording(lambda p: sum(p.values()) % 1.0 < 0.6)
    W = GeneralHypergraphon(k, f, check_points=0)
    with mock.patch.object(kernels, "MC_BLOCK", block or kernels.MC_BLOCK):
        est, stderr = density(F, W, mode="montecarlo", samples=samples, seed=seed, induced=induced)
    seen = calls[:]
    calls.clear()
    hits = scalar_general_hits(F, W, samples, seed, induced)
    assert seen == calls
    assert (est, stderr) == (hits / samples, sqrt(hits / samples * (1 - hits / samples) / samples))


def test_general_density_is_pinned():
    tri = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    W = GeneralHypergraphon(2, lambda p: (p[1] + p[2] + p[3]) % 1 < 0.5)
    assert density(tri, W, mode="montecarlo", samples=20000, seed=4) == (0.12365, 0.0023276670455630033)


_SYMMETRIC = (lambda p: sum(p.values()) % 1.0 < 0.5, lambda p: p[max(p)] < 0.5)
_ASYMMETRIC = (lambda p: p[1] < 0.5, lambda p: p[1] + p[max(p)] < 0.8)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(_SYMMETRIC + _ASYMMETRIC),
    st.integers(-3, 20),
    st.integers(0, 2**32),
    st.one_of(st.none(), st.integers(1, 7)),
)
@example(3, _ASYMMETRIC[1], 64, 0, 5)
def test_invariance_check_reads_the_scalar_points_in_order(k, predicate, points, seed, block):
    f, calls = recording(predicate)
    if points < 0:
        with pytest.raises(ValueError, match="check_points must be nonnegative"):
            GeneralHypergraphon(k, f, check_points=points, seed=seed)
        assert calls == []
        return
    outcomes = []
    for check in (
        lambda: GeneralHypergraphon(k, f, check_points=points, seed=seed),
        lambda: scalar_invariance_check(GeneralHypergraphon(k, f, check_points=0), points, seed),
    ):
        with mock.patch.object(kernels, "MC_BLOCK", block or kernels.MC_BLOCK):
            try:
                check()
                outcomes.append(None)
            except ValueError as e:
                outcomes.append(str(e))
        outcomes.append(calls[:])
        calls.clear()
    assert outcomes[:2] == outcomes[2:]
    if points <= 0:
        assert outcomes == [None, [], None, []]


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
