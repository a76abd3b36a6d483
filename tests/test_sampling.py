import ast
import hashlib
import itertools
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from coordinate_oracle import CoordinateSystem
from test_kernels import structures

import hyperlim
from hyperlim import combinatorics, rng
from hyperlim.combinatorics import (
    arity_offsets,
    cell_codes,
    cell_digits,
    cell_weights,
    colex_rank,
    mask_bits,
    mask_image,
    position_perms,
)
from hyperlim.hypergraph import Hypergraph
from hyperlim.hyperpartition import CombinatorialStructure, Hyperpartition, cells_union
from hyperlim.hypergraphon import (
    GeneralHypergraphon,
    builtin_w,
    step_from_structure,
    structure_of,
)
from hyperlim.sampling import (
    _THRESHOLD_CAP,
    _level_bounds,
    _step_edge_mask,
    _threshold_hits,
    _top_thresholds,
    sample_vertex,
    sample_w,
    sample_w_edge_count,
)


def brute_sample_vertex(H, n, seed):
    key = rng.derive(seed, rng.TAG_VERTEX)
    picks = [rng.mix64(key, i) % H.n for i in range(n)]
    edges = []
    for e in combinations(range(n), H.k):
        imgs = [picks[v] for v in e]
        if len(set(imgs)) == H.k and tuple(sorted(imgs)) in H.edges:
            edges.append(e)
    return Hypergraph(H.k, n, edges)


def brute_sample_w(W, n, seed):
    coords = CoordinateSystem(n, W.k, seed)
    cells = structure_of(W).cells
    edges = []
    for e in combinations(range(n), W.k):
        cell = []
        for m in range(1, (1 << W.k)):
            sub = tuple(e[b] for b in mask_bits(m))
            cell.append(coords.level(sub, W.l) + 1)
        if tuple(cell) in cells:
            edges.append(e)
    return Hypergraph(W.k, n, edges)


def test_sample_vertex_matches_brute():
    for seed in range(12):
        H = Hypergraph.random(2, 7, Fraction(1, 2), seed=seed + 100)
        assert sample_vertex(H, 9, seed).edges == brute_sample_vertex(H, 9, seed).edges
    for seed in range(6):
        H = Hypergraph.random(3, 6, Fraction(1, 3), seed=seed + 500)
        assert sample_vertex(H, 7, seed).edges == brute_sample_vertex(H, 7, seed).edges


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sample_vertex_blocks_match_brute(monkeypatch, block, k):
    # the picks of each k-set are gathered CELL_BLOCK k-sets at a time
    monkeypatch.setattr(combinatorics, "CELL_BLOCK", block)
    for seed in range(3):
        H = Hypergraph.random(k, 6, Fraction(1, 2), seed=seed + 40)
        G = sample_vertex(H, 8, seed)
        assert G._member is not None
        assert G.edges == brute_sample_vertex(H, 8, seed).edges


def test_sample_vertex_host_below_arity_is_edgeless():
    # with 1 <= H.n < k every k-set repeats a pick; H's member table is empty
    for k, N, n in ((2, 1, 3), (3, 2, 5), (3, 1, 0)):
        H = Hypergraph(k, N)
        assert H.member_array().size == 0
        G = sample_vertex(H, n, 0)
        assert (G.k, G.n, G.edge_count) == (k, n, 0)
        assert G == brute_sample_vertex(H, n, 0)


def test_sample_vertex_complete_host_frequency():
    # all k picks distinct with prob prod(1 - j/N); then the edge is present
    N, k, trials = 8, 3, 8000
    H = Hypergraph.complete(k, N)
    hits = sum(len(sample_vertex(H, k, s).edges) for s in range(trials))
    want = (1 - 1 / N) * (1 - 2 / N)
    se = (want * (1 - want) / trials) ** 0.5
    assert abs(hits / trials - want) < 4 * se


def test_sample_w_step_matches_recompute():
    import numpy as np

    rs = np.random.default_rng(7)
    for trial in range(6):
        k = int(rs.integers(2, 4))
        l = int(rs.integers(2, 4))
        width = (1 << k) - 1
        seen = set()
        while len(seen) < min(l**width, 8):
            seen.add(tuple(int(x) for x in rs.integers(1, l + 1, size=width)))
        W = step_from_structure(CombinatorialStructure(k, l, seen, symmetrize=True))
        n = 8 if k == 2 else 7
        seed = int(rs.integers(0, 10**6))
        assert sample_w(W, n, seed).sample.edges == brute_sample_w(W, n, seed).edges


def test_sample_w_full_and_empty():
    assert sample_w(builtin_w("full", 3), 9, 123).sample.edges == Hypergraph.complete(3, 9).edges
    assert sample_w(builtin_w("empty", 3), 9, 123).sample.edges == frozenset()


def test_sample_w_example1_edge_frequency():
    W = builtin_w("example1", 2)
    trials = 6000
    hits = sum(sample_w_edge_count(W, 2, s) for s in range(trials))
    se = (0.25 / trials) ** 0.5
    assert abs(hits / trials - 0.5) < 4 * se


def test_restricted_sample_is_cells_union():
    # with one level interval per class the step sample is deterministic
    cases = [
        (builtin_w("example1", 2), 9),
        (builtin_w("example1", 3), 8),
        (step_from_structure(CombinatorialStructure.from_top_labels(2, 3, {1, 3})), 9),
        (step_from_structure(CombinatorialStructure.from_top_labels(3, 3, {2})), 7),
    ]
    for W, n in cases:
        for seed in range(4):
            hp = Hyperpartition.uniform_random(n, W.k, W.l, seed=seed)
            rec = sample_w(W, n, seed * 7 + 1, hp=hp)
            want = cells_union(hp, structure_of(W))
            assert rec.sample.edges == want.edges
            assert rec.source["restricted"] is True
            assert "hp_digest" in rec.source


@st.composite
def restricted_inputs(draw):
    k, l, n = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3])), draw(st.integers(0, 8))
    labels = {
        r: draw(st.lists(st.integers(1, l), min_size=comb(n, r), max_size=comb(n, r)))
        for r in range(1, k + 1)
    }
    return Hyperpartition(n, k, l, labels), draw(structures(k, l)), draw(st.integers(0, 2**32))


@settings(max_examples=150)
@given(restricted_inputs())
def test_restricted_sample_matches_label_oracle(case):
    hp, C, seed = case
    k = hp.k
    want = set()
    for e in combinations(range(hp.n), k):
        cell = tuple(hp.label(tuple(e[b] for b in mask_bits(m))) for m in range(1, 1 << k))
        if cell in C.cells:
            want.add(e)
    got = sample_w(step_from_structure(C), hp.n, seed, hp=hp).sample
    assert got.edges == want
    assert got.edge_count == len(want)


def _checksum(G):
    blob = json.dumps(G.to_obj(), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def test_sampler_golden_checksums():
    # pinned before the sampler read its levels through one hash per subset
    G = sample_w(builtin_w("example1", 2), 300, 11).sample
    assert (len(G.edges), _checksum(G)) == (22335, "df8e320ca9937f11")
    G = sample_w(builtin_w("example1", 3), 40, 12).sample
    assert (len(G.edges), _checksum(G)) == (4960, "943a8a0eb9cd3c96")
    hp = Hyperpartition.uniform_random(40, 3, 2, seed=9)
    rec = sample_w(builtin_w("example1", 3), 40, 13, hp=hp)
    assert (len(rec.sample.edges), _checksum(rec.sample)) == (4879, "8c6d1e3a2da67821")
    assert rec.source["hp_digest"] == "64973130aae8ab50"
    hp = Hyperpartition.uniform_random(300, 2, 2, seed=14)
    assert sample_w(builtin_w("example2", 2), 300, 15, hp=hp).source["hp_digest"] == "8a8a0eadb310a45c"
    assert sample_w_edge_count(builtin_w("example2", 3), 40, 5) == 1102


# hp_digest of Hyperpartition.uniform_random(n, k, l, seed), pinned while
# the digest hashed json.dumps(hp.to_obj(), sort_keys=True,
# separators=(",", ":")); at k >= 10 the arity keys sort as strings
HP_DIGESTS = {
    (300, 1, 3, 1): "76d58de172c7a45b",
    (300, 2, 2, 2): "7baf3b51ff6345e5",
    (40, 3, 2, 3): "9691a70f206a2ea7",
    (11, 10, 2, 4): "3cd04b9a20a3be83",
    (12, 11, 3, 5): "a1d221abc206bb6e",
    (0, 2, 2, 6): "778db693daf83787",
    (2, 3, 2, 7): "8ee8593e9564d8a5",
}


@pytest.mark.parametrize("shape", sorted(HP_DIGESTS))
def test_hp_digest_goldens(shape):
    hp = Hyperpartition.uniform_random(*shape)
    blob = json.dumps(hp.to_obj(), sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == HP_DIGESTS[shape]
    assert hyperlim.sampling._digest(hp) == HP_DIGESTS[shape]


def test_hp_digest_reads_labels_above_nine():
    labels = {1: [1, 10, 9, 123456789], 2: list(range(1, 7))}
    hp = Hyperpartition(4, 2, 123456789, labels)
    blob = json.dumps(hp.to_obj(), sort_keys=True, separators=(",", ":")).encode()
    assert hyperlim.sampling._digest(hp) == hashlib.sha256(blob).hexdigest()[:16]


def test_multi_block_goldens():
    # C(2000, 2) and C(120, 3) k-sets span several CELL_BLOCK blocks; pinned
    # from the whole-array sampler that came before the blocked one
    assert combinatorics.CELL_BLOCK < comb(120, 3) < comb(2000, 2)
    assert sample_w_edge_count(builtin_w("example1", 2), 2000, 0) == 999024
    assert sample_w_edge_count(builtin_w("example1", 3), 120, 4) == 140110
    hp = Hyperpartition.uniform_random(120, 3, 2, seed=5)
    assert sample_w_edge_count(builtin_w("example1", 3), 120, 6, hp=hp) == 140634


def test_multi_block_sample_keeps_its_lower_levels(monkeypatch):
    # the lower arities' levels are read once and kept across blocks, while
    # the blocks of k-sets reuse one pair of buffers: with top <= CELL_BLOCK
    # both reads could share those buffers, and the later blocks would then
    # overwrite the kept levels
    checked = 0
    for k, n, block in ((2, 12, 16), (3, 8, 40)):
        monkeypatch.setattr(combinatorics, "CELL_BLOCK", block)
        assert arity_offsets(n, k)[k - 1] <= block < comb(n, k)
        for l, wseed in itertools.product((2, 3), range(16)):
            W = on_some_arities(k, l, wseed)
            used = W.used_axes()[0]
            if not used or used[-1] != (1 << k) - 2 or len(used) < 2:
                continue  # reads no lower mask, or not the full mask
            for seed in range(2):
                got = sample_w(W, n, seed).sample
                assert got.edges == brute_sample_w(W, n, seed).edges
                assert sample_w_edge_count(W, n, seed) == got.edge_count
                checked += 1
    assert checked >= 12


def test_blocks_reuse_one_hash_buffer(monkeypatch):
    # every block of k-sets hashes into the same buffer, so no per-block
    # allocation comes back unnoticed: on example1's hash thresholds and on
    # the member gathers of a table that also reads the vertex masks
    n = 600
    top, blocks = arity_offsets(n, 2)[1], -(-comb(n, 2) // combinatorics.CELL_BLOCK)
    assert blocks > 2
    lower = on_some_arities(2, 2, 7)
    assert lower.used_axes()[0] == (0, 1, 2)
    premix, calls = rng._premix64_range, []

    def recording(key, lo, hi, out, scratch):  # every range hash passes here
        calls.append((lo, hi, out.__array_interface__["data"][0]))
        return premix(key, lo, hi, out, scratch)

    monkeypatch.setattr(rng, "_premix64_range", recording)
    for W, low in ((builtin_w("example1", 2), []), (lower, [(0, top)])):
        calls.clear()
        sample_w_edge_count(W, n, 3)
        ksets = [c for c in calls if c[0] >= top]
        assert [c[:2] for c in calls if c[0] < top] == low  # the vertices, hashed once
        assert len(ksets) == blocks
        assert len({addr for _, _, addr in ksets}) == 1


def gathered_edge_mask(W, n, key, out=None):
    """The step sample through _cell_member_count, every level read from
    np_mix64 of the counters: the member-gather oracle of the thresholds."""

    def level(lo, hi):
        return rng.np_level_of(rng.np_mix64(key, np.arange(lo, hi, dtype=np.uint64)), W.l)

    return combinatorics._cell_member_count(W, level, n, out)


@lru_cache(maxsize=None)
def top_only(k, l, tops):
    return step_from_structure(CombinatorialStructure.from_top_labels(k, l, tops))


@settings(max_examples=300)
@given(
    st.sampled_from([(1, 40), (2, 30), (3, 14)]),
    st.sampled_from([2, 3, 5, 7, 8, 16]),
    st.data(),
    st.integers(0, 2**64 - 1),
    st.sampled_from([1, 3, 7, 64, None]),
    st.booleans(),
)
def test_top_thresholds_match_member_gathers(kn, l, data, key, block, with_out):
    k, nmax = kn
    assume(k < 3 or l <= 8)  # 16**7 cells pass the member cap
    tops = data.draw(st.frozensets(st.integers(1, l), min_size=1, max_size=l - 1))
    n = data.draw(st.integers(0, nmax))
    W = top_only(k, l, tops)
    runs = _top_thresholds(W)
    flips = sum((i in tops) != (i + 1 in tops) for i in range(1, l))
    assert (runs is None) == (flips > _THRESHOLD_CAP)
    rows = comb(n, k)
    got, want = (np.full(rows, 7, dtype=np.uint8) for _ in range(2)) if with_out else (None, None)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(combinatorics, "CELL_BLOCK", block)
        count = _step_edge_mask(W, n, key, got)
    assert count == gathered_edge_mask(W, n, key, want)
    if with_out:
        assert np.array_equal(got, want)


def unmixed(h):
    """The word z before mix64's final xor-shift: z ^ (z >> 31) == h."""
    return h ^ (h >> 31) ^ (h >> 62)


@pytest.mark.parametrize(
    "l", [2, 3, 5, 8, 2**31 - 1, 2**31, 2**32, 2**32 + 1, 2**33, 3 * 2**40, 2**63 - 1, 2**63]
)
def test_level_bounds_split_words_exactly(l):
    # l <= 2**31 a power of two puts every bound on a multiple of 2**33; at
    # l = 2**32 the bound of an odd level i >= 2**31 has bits 63 and 32 set,
    # and its word before the xor-shift has bit 32 clear, so it reads low
    flips = sorted(i for i in {1, 2, l // 3, l // 2, l // 2 + 1, l - 1} if 0 < i < l)
    bounds, premixed = _level_bounds(flips, l)
    assert premixed == (l in (2, 8, 2**31))
    for i, b in zip(flips, map(int, bounds)):
        assert rng.level_of(b - 1, l) == i - 1 and rng.level_of(b, l) == rng.level_of(b + 1, l) == i
        h = np.array([b - 1, b, b + 1], dtype=np.uint64)
        z = np.array([unmixed(int(x)) for x in h], dtype=np.uint64)
        assert rng._finish(z.copy(), np.empty_like(z)).tolist() == h.tolist()
        hit = _threshold_hits(h, False, [np.uint64(b)], np.empty(3, bool), np.empty(3, bool))
        assert hit.tolist() == [False, True, True]
        pre = _threshold_hits(z, False, [np.uint64(b)], np.empty(3, bool), np.empty(3, bool))
        if b % rng.PREMIX_GRAIN == 0:
            assert pre.tolist() == hit.tolist()
        if l == 2**32 and i > l // 2 and i % 2:
            assert pre.tolist() != hit.tolist()
    # every bound at once: a word is marked when first XOR an odd number of
    # the flip levels lie at or below its level
    words = np.array([int(b) + d for b in bounds for d in (-1, 0, 1)], dtype=np.uint64)
    for first in (False, True):
        marked = [first ^ (sum(rng.level_of(int(w), l) >= i for i in flips) % 2 == 1) for w in words]
        got = _threshold_hits(words, first, bounds, np.empty(len(words), bool), np.empty(len(words), bool))
        assert got.tolist() == marked
        if premixed:
            z = np.array([unmixed(int(w)) for w in words], dtype=np.uint64)
            assert _threshold_hits(z, first, bounds, np.empty_like(got), np.empty_like(got)).tolist() == marked


@lru_cache(maxsize=None)
def half_of_the_orbits(k, l, seed):
    """Step hypergraphon of about half the S_k-orbits of cells, by seed."""
    width = (1 << k) - 1
    digits = cell_digits(np.arange(l**width), k, l)
    orbit = np.full(l**width, l**width)
    for perm in position_perms(k):
        image = [mask_image(m, perm) - 1 for m in range(1, 1 << k)]
        moved = np.empty_like(digits)
        moved[:, image] = digits
        orbit = np.minimum(orbit, moved @ cell_weights(k, l))
    keep = np.random.default_rng(seed).random(l**width) < 0.5
    return step_from_structure(CombinatorialStructure(k, l, map(tuple, digits[keep[orbit]] + 1)))


@lru_cache(maxsize=None)
def on_some_arities(k, l, seed):
    """Step hypergraphon of a random grid that reads only the masks of the
    arities r with bit r-1 of seed set, then symmetrized (S_k keeps each
    arity's masks)."""
    grid = np.random.default_rng(seed).random((l,) * ((1 << k) - 1)) < 0.5
    for m in range(1, 1 << k):
        if not seed >> (len(mask_bits(m)) - 1) & 1:
            grid = np.broadcast_to(grid.take([0], axis=m - 1), grid.shape)
    cells = map(tuple, np.argwhere(grid) + 1)
    return step_from_structure(CombinatorialStructure(k, l, cells, symmetrize=True))


def some_w(kind, k, l, seed):
    if kind == "orbits":
        return half_of_the_orbits(k, l, seed)
    if kind == "arities":
        return on_some_arities(k, l, seed)
    return builtin_w(kind, k)


def whole_array_mask(W, n, seed, hp):
    """The step sample's member entries from one pass over all subsets, with
    every level read by the scalar rng.level_of."""
    if hp is None:
        key = rng.derive(seed, rng.TAG_LEVELS)
        ctrs = range(arity_offsets(n, W.k)[-1])
        levels = np.array([rng.level_of(rng.mix64(key, c), W.l) for c in ctrs], dtype=np.int64)
    else:
        levels = hp.flat_labels() - 1
    return W.member_table()[cell_codes(levels, n, W.k, W.l)] != 0


@settings(max_examples=300)
@given(
    st.sampled_from([1, 2, 3]),
    st.integers(1, 4),
    st.integers(0, 12),
    st.sampled_from(["orbits", "arities", "example1", "example2", "full", "empty"]),
    st.integers(0, 7),
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from([1, 3, 7, None]),
)
def test_blocked_sample_matches_whole_array(k, l, n, kind, wseed, seed, restricted, block):
    # example1, example2, full and empty ignore whole arities, as do the
    # "arities" grids, so the sampler reads only some of the masks
    assume(kind != "example2" or k > 1)
    W = some_w(kind, k, l, wseed)
    hp = Hyperpartition.uniform_random(n, k, W.l, seed) if restricted else None
    want = whole_array_mask(W, n, seed, hp)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(combinatorics, "CELL_BLOCK", block)
        count = sample_w_edge_count(W, n, seed, hp=hp)
        got = sample_w(W, n, seed, hp=hp).sample.member_array()
        union = cells_union(hp, structure_of(W)).member_array() if restricted else want
    assert count == int(want.sum())
    assert np.array_equal(got, want)
    assert np.array_equal(union, want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_used_axes_are_the_masks_membership_reads(k):
    names = ["example1", "full", "empty"] + (["example2"] if k > 1 else [])
    want = {
        "example1": [(1 << k) - 2],
        "example2": [m - 1 for m in range(1, 1 << k) if len(mask_bits(m)) == k - 1],
        "full": [],
        "empty": [],
    }
    for name in names:
        W = builtin_w(name, k)
        used, reduced = W.used_axes()
        assert used == tuple(want[name])
        assert reduced.size == W.l ** len(used)
    for seed in range(8):
        W = on_some_arities(k, 3, seed)
        used, reduced = W.used_axes()
        assert all(seed >> (len(mask_bits(m + 1)) - 1) & 1 for m in used)
        # the reduced table read back at every cell gives the full table
        digits = cell_digits(np.arange(W.member_table().size), k, 3)
        assert np.array_equal(reduced[digits[:, list(used)] @ 3 ** np.arange(len(used))], W.member_table())


def test_edge_count_fast_path_agrees():
    C = CombinatorialStructure.from_top_labels(2, 3, {1, 3})
    W = step_from_structure(C)
    for seed in range(3):
        hp = Hyperpartition.uniform_random(30, 2, 3, seed=seed)
        assert sample_w_edge_count(W, 30, seed, hp=hp) == len(
            sample_w(W, 30, seed, hp=hp).sample.edges
        )
        assert sample_w_edge_count(W, 30, seed) == len(sample_w(W, 30, seed).sample.edges)


def test_general_predicate_path_matches_step():
    W1 = builtin_w("example1", 2)
    Wg = GeneralHypergraphon(2, lambda p: p[3] < 0.5)
    for seed in range(10):
        assert sample_w(W1, 7, seed).sample.edges == sample_w(Wg, 7, seed).sample.edges


# symmetric predicates: each reads every arity through a symmetric function
_PREDICATES = [
    lambda p: p[max(p)] < 0.5,
    lambda p: sum(p.values()) % 1.0 < 0.3,
    lambda p: min(p.values()) > 0.2,
    lambda p: (p[max(p)] + sum(v for m, v in p.items() if m != max(p)) ** 2) % 1.0 < 0.6,
    lambda p: len([v for v in p.values() if v < 0.5]) % 2 == 0,
]


def brute_general_sample(W, n, seed):
    """The general sample with every coordinate read by the scalar oracle."""
    coords = CoordinateSystem(n, W.k, seed)
    edges = []
    for e in combinations(range(n), W.k):
        p = {m: coords.value(tuple(e[b] for b in mask_bits(m))) for m in range(1, 1 << W.k)}
        if W.contains_point(p):
            edges.append(e)
    return Hypergraph(W.k, n, edges)


@settings(max_examples=120)
@given(st.integers(1, 3), st.integers(0, 9), st.integers(0, len(_PREDICATES) - 1), st.integers(0, 2**64 - 1))
def test_general_sample_matches_scalar_coordinates(k, n, which, seed):
    W = GeneralHypergraphon(k, _PREDICATES[which])
    got = sample_w(W, n, seed).sample
    want = brute_general_sample(W, n, seed)
    assert got.edges == want.edges and got.to_obj() == want.to_obj()


def test_general_sample_golden():
    # pinned from the sampler that read one scalar hash per (k-set, mask)
    W = GeneralHypergraphon(3, lambda p: (p[7] + p[3] * p[5] * p[6] + p[1] + p[2] + p[4]) % 1.0 < 0.5)
    rec = sample_w(W, 11, 2024)
    blob = json.dumps(rec.to_obj(), sort_keys=True, separators=(",", ":")).encode()
    assert rec.sample.edge_count == 91
    assert hashlib.sha256(blob).hexdigest() == "a01512f41ba237a76840b5badefb845aa6e285d5ad024aa1bb2fb08189d01bee"


def test_sample_record_replay_is_byte_identical():
    W1 = builtin_w("example1", 2)
    a = json.dumps(sample_w(W1, 12, 77).to_obj(), sort_keys=True)
    b = json.dumps(sample_w(W1, 12, 77).to_obj(), sort_keys=True)
    assert a == b


def test_validation_errors():
    W1 = builtin_w("example1", 2)
    with pytest.raises(ValueError):
        sample_w(W1, 9, 0, hp=Hyperpartition.uniform_random(9, 2, 3, seed=0))  # l mismatch
    Wg = GeneralHypergraphon(2, lambda p: p[3] < 0.5)
    with pytest.raises(ValueError):
        sample_w(Wg, 7, 0, hp=Hyperpartition.uniform_random(7, 2, 2, seed=0))
    with pytest.raises(ValueError):
        sample_vertex(Hypergraph(2, 0), 3, 0)


def test_coordinate_system_levels_match_rng():
    coords = CoordinateSystem(9, 2, 4242)
    offs = arity_offsets(9, 2)
    for sub in [(0,), (3,), (8,), (0, 1), (2, 7), (7, 8)]:
        ctr = offs[len(sub) - 1] + colex_rank(sub)
        h = rng.mix64(rng.derive(4242, rng.TAG_LEVELS), ctr)
        for l in (2, 3, 5):
            assert coords.level(sub, l) == rng.level_of(h, l)


def test_coordinate_system_exact_value_consistency():
    coords = CoordinateSystem(6, 2, 9)
    for sub in [(0,), (5,), (1, 4)]:
        u = coords.value(sub)
        ex = coords.exact_value(sub)
        assert 0 <= u < 1
        # float value truncates the exact rational, never rounds up
        assert u <= float(ex) and abs(u - float(ex)) < 2**-50
        for l in (2, 4, 8):
            assert coords.level(sub, l) == int(ex * l)


def test_restricted_coordinates_land_in_class_interval():
    hp = Hyperpartition.uniform_random(8, 2, 2, seed=3)
    coords = CoordinateSystem(8, 2, 11, restriction=hp)
    for sub in [(0,), (7,), (0, 3), (5, 6)]:
        g = hp.label(sub)
        ex = coords.exact_value(sub)
        assert Fraction(g - 1, 2) <= ex < Fraction(g, 2)
    # on a deterministic slice of about 512 subsets per arity of restricted
    # samples: every coordinate lies in the subinterval its label names, and
    # a k-set is an edge iff its cell of coordinate levels is a box of W
    for k, n in ((2, 300), (3, 60)):
        W = builtin_w("example2", k)
        for seed in range(2):
            hp = Hyperpartition.uniform_random(n, k, W.l, seed=seed + 40)
            sample = sample_w(W, n, seed, hp=hp).sample
            coords = CoordinateSystem(n, k, seed, restriction=hp)
            for r in range(1, k + 1):
                km = combinatorics.colex_matrix(n, r)
                for i in range(0, comb(n, r), max(1, comb(n, r) // 512)):
                    sub = tuple(int(v) for v in km[i])
                    g = hp.label(sub)
                    assert Fraction(g - 1, hp.l) <= coords.exact_value(sub) < Fraction(g, hp.l)
                    if r == k:
                        faces = [tuple(sub[b] for b in mask_bits(m)) for m in range(1, 1 << k)]
                        cell = tuple(coords.level(f, W.l) + 1 for f in faces)
                        assert (sub in sample.edges) == (cell in W.boxes)


def test_coordinate_system_is_only_a_test_oracle():
    # the samplers read coordinates through vectorized counter hashes; the
    # scalar CoordinateSystem lives in tests/coordinate_oracle.py
    files = sorted(Path(rng.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        hits = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "CoordinateSystem"]
        if hits:
            found[path.name] = hits
    assert found == {}
    oracle = ast.parse((Path(__file__).parent / "coordinate_oracle.py").read_text())
    assert any(isinstance(n, ast.ClassDef) and n.name == "CoordinateSystem" for n in ast.walk(oracle))


def test_every_exported_name_resolves():
    # the lazy export table is checked by nothing else
    for name in hyperlim.__all__:
        assert getattr(hyperlim, name) is not None, name
    assert "CoordinateSystem" not in hyperlim.__all__
    with pytest.raises(AttributeError):
        hyperlim.CoordinateSystem
