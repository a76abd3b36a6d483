import hashlib
import json
import logging
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlim import metrics
from hyperlim.combinatorics import cell_weights, mask_bits
from hyperlim.hypergraph import Hypergraph, blowup, densities
from hyperlim.hyperpartition import (
    CombinatorialStructure,
    Hyperpartition,
    cells_union,
)
from hyperlim.hypergraphon import StepHypergraphon, builtin_w, step_from_structure, structure_of
from hyperlim.metrics import (
    _REFINE_CAP,
    _refined_grid,
    closeness,
    d1,
    delta1_upper,
    delta_metric_estimate,
    delta_w_lower,
    hamming_density,
)
from hyperlim.regularity import refine

EDGE = Hypergraph(2, 2, [(0, 1)])
TRI = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


def rand_step(k, l, seed):
    g = np.random.default_rng(seed)
    width = (1 << k) - 1
    cells = set()
    for code in range(l**width):
        if g.random() < 0.4:
            cells.add(tuple(int((code // l**i) % l) + 1 for i in range(width)))
    return step_from_structure(CombinatorialStructure(k, l, cells, symmetrize=True))


def brute_d1(U, W):
    L = lcm(U.l, W.l)
    width = (1 << U.k) - 1
    cu_cells = structure_of(U).cells
    cw_cells = structure_of(W).cells
    diff = 0
    for digs in product(range(L), repeat=width):
        cu = tuple(d * U.l // L + 1 for d in digs)
        cw = tuple(d * W.l // L + 1 for d in digs)
        if (cu in cu_cells) != (cw in cw_cells):
            diff += 1
    return Fraction(diff, L**width)


def test_d1_matches_brute_on_mixed_levels():
    pairs = [(rand_step(2, 2, 100 + t), rand_step(2, 3, 200 + t)) for t in range(5)]
    pairs += [(rand_step(2, 3, 300 + t), rand_step(2, 3, 400 + t)) for t in range(3)]
    pairs += [(rand_step(3, 2, 500), rand_step(3, 2, 501))]
    for U, W in pairs:
        assert d1(U, W).value == brute_d1(U, W)


def coded_refined_member(structure, L):
    """The L-level refinement's member table, decoding every fine code and
    re-encoding its coarse cell."""
    width = (1 << structure.k) - 1
    total = L**width
    codes = np.arange(total, dtype=np.int64)
    l = structure.l
    coarse = np.zeros(total, dtype=np.int64)
    for i in range(width):
        d = (codes // L**i) % L
        coarse += (d * l // L) * l**i
    return structure.member_table()[coarse]


@pytest.mark.parametrize("k, l", [(2, 2), (2, 3), (3, 2)])
def test_refined_member_matches_code_oracle(k, l):
    width = (1 << k) - 1
    C = structure_of(rand_step(k, l, 40 + k * l))
    for L in range(l, _REFINE_CAP, l):
        if L**width > _REFINE_CAP:
            with pytest.raises(ValueError, match="too large"):
                _refined_grid(C, L, range(width))
            break
        grid = _refined_grid(C, L, range(width))
        assert np.array_equal(grid.ravel(order="F"), coded_refined_member(C, L))


def test_d1_frozen_examples():
    W1 = builtin_w("example1", 2)
    assert d1(W1, W1).value == 0
    assert d1(W1, builtin_w("full", 2)).value == Fraction(1, 2)
    assert d1(W1, builtin_w("empty", 2)).value == Fraction(1, 2)


def test_d1_symmetry_and_triangle_inequality():
    for t in range(20):
        A = rand_step(2, 2, 1000 + t)
        B = rand_step(2, 2, 2000 + t)
        C = rand_step(2, 2, 3000 + t)
        ab, ba = d1(A, B).value, d1(B, A).value
        assert ab == ba
        assert d1(A, C).value <= ab + d1(B, C).value


def test_d1_witness_points_at_a_real_difference():
    U = builtin_w("example1", 2)
    W = builtin_w("full", 2)
    rep = d1(U, W)
    box = rep.witness["box"]
    L = rep.witness["levels"]
    cu = tuple((b - 1) * U.l // L + 1 for b in box)
    cw = tuple((b - 1) * W.l // L + 1 for b in box)
    assert (cu in structure_of(U).cells) != (cw in structure_of(W).cells)


def test_d1_montecarlo_close_to_exact():
    U = rand_step(2, 3, 77)
    W = rand_step(2, 3, 78)
    exact = float(d1(U, W).value)
    rep = d1(U, W, mode="montecarlo", samples=20000, seed=5)
    se = rep.budget["stderr"]
    assert abs(rep.value - exact) < 4 * max(se, 1e-9)
    # replay determinism
    rep2 = d1(U, W, mode="montecarlo", samples=20000, seed=5)
    assert rep.value == rep2.value


def test_d1_montecarlo_memory_is_bounded_by_one_block():
    # the words of one MC_BLOCK-sample block, not of every sample: the
    # all-samples hash held about 79 MB here
    U, W = builtin_w("example1", 3), builtin_w("example2", 3)
    d1(U, W, mode="montecarlo", samples=10, seed=3)  # caches outside the trace
    tracemalloc.start()
    try:
        rep = d1(U, W, mode="montecarlo", samples=10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert rep.value == 0.499655


def test_d1_montecarlo_values_are_pinned():
    U, W = builtin_w("example1", 3), builtin_w("example2", 3)
    got = [d1(U, W, mode="montecarlo", samples=n, seed=3).value for n in (1, 4095, 4096, 4097, 20000)]
    assert got == [1.0, 0.48644688644688644, 0.486328125, 0.48620942152794727, 0.4952]


def test_hamming_density_frozen_and_errors():
    one = Hypergraph(2, 3, [(0, 1)])
    assert hamming_density(TRI, one) == Fraction(2, 3)
    assert hamming_density(TRI, TRI) == 0
    with pytest.raises(ValueError):
        hamming_density(TRI, EDGE)


def _host(k, n, marks, build):
    """The k-subsets of range(n) marked in marks, as a hypergraph built from
    its edges, from its member mask, or from its edges with the mask cached."""
    if build == "mask":
        return Hypergraph.from_member(k, n, np.array(marks, dtype=np.uint8))
    G = Hypergraph(k, n, [e for e, m in zip(sorted_subsets(n, k), marks) if m])
    if build == "edges+mask":
        G.member_array()
    return G


def sorted_subsets(n, k):
    """The k-subsets of range(n) in colex order."""
    return sorted(combinations(range(n), k), key=lambda e: e[::-1])


@st.composite
def host_pairs(draw):
    k, n = draw(st.integers(1, 3)), draw(st.integers(0, 7))
    rows = comb(n, k)
    builds = st.sampled_from(["edges", "mask", "edges+mask"])
    hosts = []
    for _ in range(2):
        marks = draw(st.one_of(st.just([0] * rows), st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
        hosts.append(_host(k, n, marks, draw(builds)))
    return hosts


@given(host_pairs())
def test_hamming_density_matches_edge_set_difference(pair):
    # hosts built from edges, from masks or one of each, n < k and empty ones
    H, T = pair
    got = hamming_density(H, T)
    rows = comb(H.n, H.k)
    assert got == (Fraction(len(H.edges ^ T.edges), rows) if rows else 0)


def test_hamming_density_reads_masks_without_listing_edges(monkeypatch):
    # an edgeless file, read as an edge set, against a mask-backed sample
    H = Hypergraph.from_obj({"k": 2, "n": 60, "edges": []})
    T = Hypergraph.random(2, 60, Fraction(1, 3), seed=8)
    assert H._member is None and T._edges is None
    assert hamming_density(H, T) == hamming_density(T, H) == Fraction(T.edge_count, comb(60, 2))
    assert T._edges is None
    # above the row cap only the edge sets can be compared
    monkeypatch.setattr(metrics, "ROW_CAP", 10)
    U = Hypergraph(2, 60, [(0, 1), (2, 3)])
    assert hamming_density(U, T) == Fraction(len(U.edges ^ T.edges), comb(60, 2))
    assert U._member is None


def test_hamming_bounds_per_edge_density_gap():
    for t in range(8):
        H = Hypergraph.random(2, 6, Fraction(1, 2), seed=t)
        T = Hypergraph.random(2, 6, Fraction(1, 2), seed=t + 100)
        hd = hamming_density(H, T)
        for F in (EDGE, TRI):
            gap = abs(densities(F, H).t - densities(F, T).t) / len(F.edges)
            assert gap <= hd


def test_delta_w_lower_frozen():
    W1 = builtin_w("example1", 2)
    rep = delta_w_lower(W1, builtin_w("full", 2), [EDGE])
    assert rep.value == Fraction(1, 2)
    assert rep.kind == "lower_bound"
    with pytest.raises(ValueError):
        delta_w_lower(W1, W1, [Hypergraph.empty(2, 3)])


def test_delta_w_lower_below_d1():
    for t in range(15):
        U = rand_step(2, 2, 7000 + t)
        W = rand_step(2, 2, 8000 + t)
        lo = delta_w_lower(U, W, [EDGE, TRI]).value
        assert lo <= d1(U, W).value


def test_delta_metric_estimate_frozen_grid_value():
    empty3 = Hypergraph.empty(2, 3)
    rep = delta_metric_estimate(TRI, empty3, 3)
    assert rep.value == Fraction(2, 3)
    assert rep.witness["edges"] == [[0, 1]]


def test_delta_metric_estimate_zero_for_equivalent():
    assert delta_metric_estimate(TRI, TRI, 3).value == 0
    assert delta_metric_estimate(TRI, blowup(TRI, 2), 3).value == 0


def delta_estimate_pairs(k):
    """Host pairs for the delta goldens: random hosts, a host against
    itself and against a blowup, edgeless hosts of two sizes, an edgeless
    against a complete host and two hosts without vertices."""
    A = Hypergraph.random(k, 6, Fraction(1, 2), seed=10 + k)
    B = Hypergraph.random(k, 7, Fraction(1, 2), seed=20 + k)
    small = Hypergraph.random(k, k + 1, Fraction(1, 2), seed=30 + k)
    return [
        (A, B, 0),
        (A, B, 5),
        (A, A, 0),
        (small, blowup(small, 2), 0),
        (Hypergraph.empty(k, 4), Hypergraph.empty(k, 5), 0),
        (Hypergraph.empty(k, 5), Hypergraph.complete(k, 5), 0),
        (Hypergraph(k, 0), Hypergraph(k, 0), 0),
    ]


# sha256 of the sorted-key JSON list of [max_size, pair, report] for
# max_size = k..7 (random patterns beyond 5 vertices), by k, pinned while
# the estimate walked its family once before the grid loop and again per
# grid value
DELTA_ESTIMATE_SHA256 = {
    1: "1317fd2f3d4ecd5ab95a9dda10ccdb888cd802db1bfe1b08099477f7b0dbe5f6",
    2: "68aa301f11462dbad20127d5bb54c72865c1abc5d5d08272c98b64c75c4d064d",
    3: "33251daea1b8e16fe80a6ed74c413fa294029a7f5cbe73d950afbc0f3a22fa7d",
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta_metric_estimate_reports_are_pinned(k):
    rows = []
    for i, (H1, H2, seed) in enumerate(delta_estimate_pairs(k)):
        for max_size in range(k, 8):
            rows.append([max_size, i, delta_metric_estimate(H1, H2, max_size, seed=seed).to_obj()])
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DELTA_ESTIMATE_SHA256[k]


def refined_rows(structure, L):
    """Refined boxes of the structure as 0-based digit rows, shape (m, width)."""
    width = (1 << structure.k) - 1
    step = L // structure.l
    rows = []
    for cell in sorted(structure.cells):
        axes = [range((c - 1) * step, c * step) for c in cell]
        for combo in product(*axes):
            rows.append(combo)
    if not rows:
        return np.zeros((0, width), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def sym_diff_count(memU, rowsW, perms, arities, weights):
    """|U Δ sigma(W)| by pushing W's refined boxes through the relabeling;
    weights are the cell-code digit weights at the refined level count."""
    cnt_u = int(memU.sum())
    cnt_w = rowsW.shape[0]
    if cnt_w == 0:
        return cnt_u
    codes = np.zeros(cnt_w, dtype=np.int64)
    for i, w in enumerate(weights):
        sig = perms[arities[i] - 1]
        codes += sig[rowsW[:, i]] * w
    overlap = int(memU[codes].sum())
    return cnt_u + cnt_w - 2 * overlap


@pytest.mark.parametrize(
    "k, lU, lW", [(2, 1, 2), (2, 2, 2), (2, 2, 4), (2, 3, 3), (2, 4, 4), (3, 1, 2), (3, 2, 2), (3, 3, 3)]
)
def test_delta1_upper_exhaustive_matches_box_oracle(k, lU, lW):
    # the least |U Δ sigma(W)| over every relabeling, pushing W's refined
    # boxes through sigma; the witness is the lexicographically least minimizer
    L = lcm(lU, lW)
    width = (1 << k) - 1
    arities = [len(mask_bits(m)) for m in range(1, 1 << k)]
    for t in range(3):
        U = rand_step(k, lU, 900 + 10 * t + lU)
        W = rand_step(k, lW, 950 + 10 * t + lW)
        memU = coded_refined_member(structure_of(U), L) != 0
        rowsW = refined_rows(structure_of(W), L)
        best = None
        for combo in product(permutations(range(L)), repeat=k):
            perms = [np.array(p, dtype=np.int64) for p in combo]
            v = sym_diff_count(memU, rowsW, perms, arities, cell_weights(k, L))
            if best is None or v < best[0]:
                best = (v, [list(p) for p in combo])
        rep = delta1_upper(U, W)
        assert factorial(L) ** k <= 4096 and rep.budget["mode"] == "exhaustive"
        assert rep.value == Fraction(best[0], L**width)
        assert rep.witness == {"perms": best[1], "levels": L}


def test_delta1_upper_recovers_level_swap():
    for t in range(6):
        U = rand_step(2, 2, 6000 + t)
        assert delta1_upper(U, U).value == 0
        swapped = {(a, b, 3 - c) for (a, b, c) in structure_of(U).cells}
        rep = delta1_upper(U, StepHypergraphon(2, 2, swapped))
        assert rep.value == 0
        assert rep.budget["mode"] == "exhaustive"
        # witness holds the aligning per-arity level permutations
        assert len(rep.witness["perms"]) == 2


# sha256 of the sorted-key JSON hill-climb reports below, by budget
HILL_CLIMB_SHA256 = {
    20: "ee0325ac356df9b15a808056957bcb0438c9ce054c975cb22282ddf1814dce2c",
    400: "0dc62a7ec6a253bc294800576f48e124b0ec50ddc67249ffe18a6bbea27c37c0",
}


def test_delta1_upper_hill_climb_budget():
    U = rand_step(2, 4, 42)
    swapped = {(a, b, 5 - c) for (a, b, c) in structure_of(U).cells}
    Wsw = StepHypergraphon(2, 4, swapped)
    r = delta1_upper(U, Wsw, budget=400)  # below the (4!)^2 permutation space
    assert r.budget["mode"] == "hill_climb"
    assert 0 <= r.value <= 1
    # the restarts draw from counters, so the report bytes are pinned
    for b, want in HILL_CLIMB_SHA256.items():
        blob = json.dumps(delta1_upper(U, Wsw, budget=b).to_obj(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == want
    r2 = delta1_upper(U, Wsw, budget=600)
    assert r2.budget["mode"] == "exhaustive" and r2.value == 0


# sha256 of the sorted-key JSON list of delta1_upper reports below, by k,
# pinned while the hill climb checked its budget in each of three nested
# loops; budgets on both sides of the (L!)^k exhaustive threshold
DELTA1_SHA256 = {
    1: "d829138dd35074c3824777c08a5473a6f2f6169cfdb4fe40ce49d62c3b15251f",
    2: "da03d12ab1c9ea775813c54af6a034334b8667ffedd4a7d7157c470668b71cfa",
    3: "e4e2301786ea05603d38f916e96f591c1f47e14d0a194899a88b8625a4752e72",
}
DELTA1_LEVELS = {1: [(2, 3), (4, 4), (5, 1)], 2: [(2, 2), (3, 2), (4, 4)], 3: [(2, 2), (3, 3), (2, 4)]}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta1_upper_reports_are_pinned(k):
    reports = []
    for lU, lW in DELTA1_LEVELS[k]:
        U, W = rand_step(k, lU, 900 + 10 * k + lU), rand_step(k, lW, 950 + 10 * k + lW)
        for budget in (1, 2, 5, 8, 24, 36, 100, 216, 576, 4096):
            reports.append(delta1_upper(U, W, budget=budget, seed=budget % 7).to_obj())
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DELTA1_SHA256[k]


def test_delta1_upper_restarts_log_at_debug_only(caplog):
    U = rand_step(2, 4, 42)
    Wsw = StepHypergraphon(2, 4, {(a, b, 5 - c) for (a, b, c) in structure_of(U).cells})
    quiet = delta1_upper(U, Wsw, budget=400)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="hyperlim.metrics"):
        loud = delta1_upper(U, Wsw, budget=400)
    assert json.dumps(loud.to_obj(), sort_keys=True) == json.dumps(quiet.to_obj(), sort_keys=True)
    assert {r.name for r in caplog.records} == {"hyperlim.metrics"}
    pattern = re.compile(r"delta1_upper restart (\d+) after (\d+) evaluations, best d1 (\S+)")
    rows = [pattern.fullmatch(r.getMessage()).groups() for r in caplog.records]
    assert len(rows) > 1
    assert [int(i) for i, _, _ in rows] == list(range(len(rows)))
    evals = [int(e) for _, e, _ in rows]
    assert evals[0] == 0 and evals == sorted(set(evals)) and evals[-1] < 400
    bests = [Fraction(b) for _, _, b in rows[1:]]
    assert rows[0][2] == "None" and bests == sorted(bests, reverse=True)
    assert loud.value <= bests[-1]


def test_delta1_chain_inequalities():
    for t in range(10):
        U = rand_step(2, 2, 7000 + t)
        W = rand_step(2, 2, 8000 + t)
        up = delta1_upper(U, W).value
        lo = delta_w_lower(U, W, [EDGE, TRI]).value
        assert lo <= up <= d1(U, W).value


def test_closeness_eps_is_hamming_to_cells_union():
    W1 = builtin_w("example1", 2)
    hp = Hyperpartition.uniform_random(12, 2, 2, seed=3)
    C = structure_of(W1)
    H = cells_union(hp, C)
    eps, delta = closeness(H, C, hp, seed=1)
    assert eps == 0
    assert 0 <= delta <= 1
    # flipping one edge moves eps by exactly one normalized slot
    edges = set(H.sorted_edges())
    e = next(iter(edges))
    edges.discard(e)
    H2 = Hypergraph(2, 12, edges)
    eps2, _ = closeness(H2, C, hp, seed=1)
    assert eps2 == Fraction(1, 66)


def test_closeness_refuses_a_bad_cylinder_count_up_front(monkeypatch):
    hp = Hyperpartition.round_robin(9, 2, 2)
    C = CombinatorialStructure.all_cells(2, 2)
    H = Hypergraph.random(2, 9, Fraction(1, 2), seed=1)
    monkeypatch.setattr(metrics, "cells_union", None)  # reached only past the check
    cases = [(0, "need at least one sampled cylinder"), (-1, "need at least one"), (2.5, "must be an integer, got 2.5")]
    for bad, text in cases:
        with pytest.raises(ValueError, match=text):
            closeness(H, C, hp, cylinder_samples=bad)
    monkeypatch.undo()
    # arity 1 reads no cylinder, so any count passes there
    H1, hp1 = Hypergraph.random(1, 9, Fraction(1, 2), seed=1), Hyperpartition.round_robin(9, 1, 2)
    assert closeness(H1, CombinatorialStructure.all_cells(1, 2), hp1, cylinder_samples=0)[1] == hp1.equitability_deficit()


def test_closeness_delta_is_the_refine_delta():
    # refine and closeness score a partition with the same partition_delta
    for k, l, n, s in [(2, 3, 14, 4), (3, 2, 8, 5)]:
        H = Hypergraph.random(k, n, Fraction(1, 2), seed=s)
        rep = refine(H, l, iterations=4, seed=s)
        assert closeness(H, rep.structure, rep.hp, cylinder_samples=32, seed=s)[1] == rep.delta
