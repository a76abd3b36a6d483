import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cylinder_oracle import loop_partition_delta, loop_regularity_deficit
from measure_oracle import tv_distance
from orbit_oracle import cell_orbit
from test_combinatorics import scalar_cell_code

from hyperlim import combinatorics
from hyperlim.combinatorics import arity_offsets, colex_rank, mask_bits, subset_counters
from hyperlim.hypergraph import Hypergraph, densities
from hyperlim.hyperpartition import (
    CombinatorialStructure,
    Hyperpartition,
    LevelMapDistribution,
    _cylinder_arrays,
    cell_coordinate,
    cells_union,
    empirical_level_maps,
    partition_delta,
    regularity_deficit,
    structure_density,
)


def brute_structure_density(F, C, induced=False):
    """Enumerate every label assignment of the subsets of V(F) up to arity k."""
    k, l = C.k, C.l
    simplices = []
    for r in range(1, k + 1):
        simplices.extend(itertools.combinations(range(F.n), r))
    width = (1 << k) - 1
    all_subsets = list(itertools.combinations(range(F.n), k))
    hit = 0
    for labels in itertools.product(range(1, l + 1), repeat=len(simplices)):
        f = dict(zip(simplices, labels))
        ok = True
        for e in all_subsets:
            coord = tuple(
                f[tuple(e[i] for i in mask_bits(m))] for m in range(1, width + 1)
            )
            inside = coord in C.cells
            if F.is_edge(e):
                if not inside:
                    ok = False
                    break
            elif induced and inside:
                ok = False
                break
        if ok:
            hit += 1
    return Fraction(hit, l ** len(simplices))


def test_hyperpartition_validation_and_labels():
    hp = Hyperpartition.round_robin(6, 2, 3)
    assert hp.label((0,)) in (1, 2, 3)
    assert hp.label((2, 5)) in (1, 2, 3)
    with pytest.raises(ValueError):
        Hyperpartition(4, 2, 2, {1: [1, 1, 1], 2: [1] * comb(4, 2)})  # wrong length
    with pytest.raises(ValueError):
        Hyperpartition(4, 2, 2, {1: [1, 1, 1, 5], 2: [1] * comb(4, 2)})  # label range


def test_round_robin_is_equitable_when_divisible():
    hp = Hyperpartition.round_robin(6, 2, 3)
    # 6 vertices and 15 pairs over 3 classes: sizes 2,2,2 and 5,5,5
    assert hp.equitability_deficit() == 0
    sizes = hp.class_sizes(2)
    assert int(sizes.sum()) == 15 and sizes.max() - sizes.min() == 0


def test_class_hypergraph_partitions_subsets():
    hp = Hyperpartition.round_robin(7, 2, 2)
    total = 0
    for j in (1, 2):
        total += hp.class_hypergraph(2, j).edge_count
    assert total == comb(7, 2)


def test_cell_coordinate_oracle():
    hp = Hyperpartition.round_robin(5, 2, 2)
    for tup in itertools.permutations(range(5), 2):
        coord = cell_coordinate(hp, tup)
        expect = (
            hp.label((tup[0],)),
            hp.label((tup[1],)),
            hp.label(tuple(sorted(tup))),
        )
        assert coord == expect


def test_label_and_cell_coordinate_name_a_bad_subset():
    hp = Hyperpartition.round_robin(6, 2, 2)
    for bad in [(0, 9), (-1, 2), (6,), (1, 1), (0, 1, 2), (), (0.0, 1)]:
        with pytest.raises(ValueError, match=r"subset \(.*\) is not 1 to 2 distinct vertices in range\(6\)"):
            hp.label(bad)
    for bad in [(0, 9), (-1, 2), (1, 1), (0, 1, 2), (3,), (0.5, 1)]:
        with pytest.raises(ValueError, match=r"subset \(.*\) is not 2 distinct vertices in range\(6\)"):
            cell_coordinate(hp, bad)
    assert hp.label([np.int64(5), 2]) == hp.label((2, 5))
    assert cell_coordinate(hp, (np.int32(4), 1)) == (hp.label((4,)), hp.label((1,)), hp.label((1, 4)))


def test_structure_requires_symmetry():
    with pytest.raises(ValueError, match="not S_k-closed"):
        CombinatorialStructure(2, 2, [(1, 2, 1)])
    C = CombinatorialStructure(2, 2, [(1, 2, 1)], symmetrize=True)
    assert C.cells == cell_orbit((1, 2, 1), 2)


def test_structure_measure_and_from_top_labels():
    C = CombinatorialStructure.from_top_labels(2, 2, {2})
    assert C.measure == Fraction(1, 2)
    assert len(C.cells) == 4
    single = CombinatorialStructure(2, 2, [(1, 1, 2)])
    assert single.measure == Fraction(1, 8)
    assert CombinatorialStructure.empty(3, 2).measure == 0
    assert CombinatorialStructure.all_cells(2, 2).measure == 1


def test_member_table_agrees_with_cells():
    for k, l in itertools.product((1, 2, 3, 4), repeat=2):
        width = (1 << k) - 1
        prng = random.Random(k * 10 + l)
        chosen = set()
        for _ in range(4):
            chosen |= cell_orbit(tuple(prng.randint(1, l) for _ in range(width)), k)
        if l**width > 1 << 24:
            with pytest.raises(ValueError, match="size cap"):
                CombinatorialStructure(k, l, chosen)
            continue
        C = CombinatorialStructure(k, l, chosen)
        table = C.member_table()
        assert table.shape == (l**width,)
        assert set(np.flatnonzero(table).tolist()) == {scalar_cell_code(c, l) for c in chosen}
        assert CombinatorialStructure.empty(k, l).member_table().sum() == 0


@settings(max_examples=200)
@given(st.data())
def test_symmetrize_and_closure_match_the_tuple_oracle(data):
    k = data.draw(st.integers(1, 4))
    l = data.draw(st.integers(1, 2 if k == 4 else 4))
    cell = st.tuples(*[st.integers(1, l)] * ((1 << k) - 1))
    cells = set(data.draw(st.lists(cell, max_size=10)))
    orbits = set().union(*(cell_orbit(c, k) for c in cells))
    C = CombinatorialStructure(k, l, cells, symmetrize=True)
    assert C.cells == orbits
    assert CombinatorialStructure.from_member(k, l, C.member_table()) == C
    assert C.measure == Fraction(len(orbits), l ** ((1 << k) - 1))
    if orbits == cells:
        assert CombinatorialStructure(k, l, cells).cells == cells
        return
    with pytest.raises(ValueError, match="not S_k-closed") as exc:
        CombinatorialStructure(k, l, cells)
    # the message names a present cell whose orbit is not all present
    assert any(f"{c} present" in str(exc.value) for c in cells if not cell_orbit(c, k) <= cells)


def test_closure_error_golden_text():
    # pinned while closure was checked over all of S_k; the check over the
    # adjacent transpositions names the same cell
    cases = [
        ([(2, 1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 1, 1)], "(1, 2, 1, 1, 1, 1, 1)"),
        ([(1, 2, 1, 1, 1, 2, 2), (1, 1, 1, 2, 2, 1, 2)], "(1, 1, 1, 2, 2, 1, 2)"),
    ]
    for cells, named in cases:
        with pytest.raises(ValueError) as exc:
            CombinatorialStructure(3, 2, cells)
        assert str(exc.value) == (
            f"cells not S_k-closed: {named} present without its coordinate"
            " permutations (pass symmetrize=True)"
        )


def test_member_tables_of_the_wrong_shape_are_refused():
    with pytest.raises(ValueError, match="shape"):
        CombinatorialStructure.from_member(2, 2, np.zeros(7, dtype=np.uint8))
    with pytest.raises(ValueError, match="not S_k-closed"):
        CombinatorialStructure.from_member(2, 2, np.eye(1, 8, 2, dtype=np.uint8)[0])
    for k, l in ((0, 2), (2, 0), (True, 2), (2, 2.0), ("2", 2)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            CombinatorialStructure(k, l, [])
    for k, l in ((3, 11), (5, 2), (40, 2), (7, 1), (10**12, 1)):
        with pytest.raises(ValueError, match=f"k={k}, l={l}: .*size cap of {1 << 24}"):
            CombinatorialStructure.empty(k, l)


# sha256 of the sorted-key JSON of to_obj(), pinned while structures were
# still built from tuple orbits
STRUCTURE_GOLDENS = [
    (lambda: CombinatorialStructure.from_top_labels(3, 4, {1, 2}), "f41b947302ef635283c37e260eb7fb2c8dd86ce1a00e1efe85ca7e11fc0143ce"),
    (lambda: CombinatorialStructure.all_cells(2, 3), "973b0f7be68b1af8f1342e13376ec7b2cc8c2e0b6f8c0914efaaa082621c4006"),
]


def test_structure_serialization_goldens():
    for build, want in STRUCTURE_GOLDENS:
        blob = json.dumps(build().to_obj(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == want


def test_cells_union_matches_direct_membership():
    hp = Hyperpartition.round_robin(7, 2, 2)
    C = CombinatorialStructure.from_top_labels(2, 2, {1})
    G = cells_union(hp, C)
    for e in itertools.combinations(range(7), 2):
        assert G.is_edge(e) == (cell_coordinate(hp, e) in C.cells)
    hp3 = Hyperpartition.uniform_random(6, 3, 2, seed=5)
    C3 = CombinatorialStructure.from_top_labels(3, 2, {2})
    G3 = cells_union(hp3, C3)
    for e in itertools.combinations(range(6), 3):
        assert G3.is_edge(e) == (cell_coordinate(hp3, e) in C3.cells)


def test_structure_density_matches_brute():
    tri = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    edge = Hypergraph(2, 2, [(0, 1)])
    cases = [
        (tri, CombinatorialStructure.from_top_labels(2, 2, {2})),
        (edge, CombinatorialStructure(2, 2, [(1, 1, 2)])),
        (tri, CombinatorialStructure(2, 2, [(1, 2, 1), (2, 1, 1)], symmetrize=True)),
        (Hypergraph(2, 3, [(0, 1), (1, 2)]), CombinatorialStructure.from_top_labels(2, 3, {1, 3})),
    ]
    for F, C in cases:
        assert structure_density(F, C) == brute_structure_density(F, C)
        assert structure_density(F, C, induced=True) == brute_structure_density(
            F, C, induced=True
        )


def test_structure_density_frozen_values():
    tri = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    C = CombinatorialStructure.from_top_labels(2, 2, {2})
    assert structure_density(tri, C) == Fraction(1, 8)
    assert structure_density(tri, CombinatorialStructure.all_cells(2, 2)) == 1
    assert structure_density(tri, CombinatorialStructure.empty(2, 2)) == 0


def test_structure_density_of_large_cliques_does_not_wrap():
    # 2**(11 + 55) labelings: past int64, where a wrapped sum read 0
    for n in (11, 12):
        assert structure_density(Hypergraph.complete(2, n), CombinatorialStructure.all_cells(2, 2)) == 1


def test_empirical_level_maps_exhaustive_distribution():
    hp = Hyperpartition.round_robin(6, 2, 2)
    dist = empirical_level_maps(2, hp, exhaustive=True)
    assert dist.total == 6 * 5
    assert int(dist.counts.sum()) == dist.total
    emp = empirical_level_maps(2, hp, samples=4000, seed=3)
    assert emp.total == 4000
    # empirical should approach exhaustive in total variation
    assert tv_distance(dist, emp) < Fraction(1, 10)


def test_tv_distance_simple():
    hp = Hyperpartition.round_robin(6, 2, 2)
    d = empirical_level_maps(2, hp, exhaustive=True)
    assert tv_distance(d, d) == 0


def test_regularity_deficit_basics():
    # arity-1 cylinders are vacuous by construction
    G1 = Hypergraph(1, 5, [(0,), (2,)])
    assert regularity_deficit(G1, 8, Fraction(1, 10), seed=0) == 0
    # complete hypergraph: density 1 on every cylinder, deficit 0
    K = Hypergraph.complete(2, 8)
    assert regularity_deficit(K, 16, Fraction(1, 10), seed=1) == 0
    G = Hypergraph.random(2, 10, 0.5, seed=7)
    a = regularity_deficit(G, 16, Fraction(1, 10), seed=5)
    b = regularity_deficit(G, 16, Fraction(1, 10), seed=5)
    assert a == b
    assert 0 <= a <= 1


def brute_regularity_deficit(G, family, eps):
    r, n = G.k, G.n
    total = comb(n, r)
    g_dens = Fraction(G.edge_count, total)
    worst = Fraction(0)
    for parts in family:
        ranks = [{colex_rank(tuple(sorted(s))) for s in part} for part in parts]
        size = inter = 0
        for S in itertools.combinations(range(n), r):
            # face j drops the j-th smallest element
            faces = [colex_rank(f) for f in itertools.combinations(S, r - 1)][::-1]
            if any(
                all(faces[i] in ranks[tau[i]] for i in range(r))
                for tau in itertools.permutations(range(r))
            ):
                size += 1
                inter += S in G.edges
        if size and Fraction(size, total) >= eps:
            worst = max(worst, abs(g_dens - Fraction(inter, size)))
    return worst


def test_regularity_deficit_matches_brute_force():
    rs = random.Random(17)
    for r, n in [(2, 7), (2, 9), (3, 6), (3, 7)]:
        faces = list(itertools.combinations(range(n), r - 1))
        for trial in range(6):
            G = Hypergraph.random(r, n, Fraction(1, 2), seed=100 * r + trial)
            family = [
                tuple([f for f in faces if rs.random() < p] for _ in range(r))
                for p in (0.2, 0.4, 0.6, 0.8)
            ]
            for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 2)):
                want = brute_regularity_deficit(G, family, eps)
                assert regularity_deficit(G, family, eps) == want, (r, n, trial, eps)


# regularity_deficit as it gathered each face once per permutation, kept as
# the oracle of the per-cylinder gathers that replaced it
def permutation_regularity_deficit(G, cylinders, eps, seed=None):
    r, n = G.k, G.n
    eps = Fraction(eps)
    total = comb(n, r)
    if r == 1 or total == 0:
        return Fraction(0)
    fams = _cylinder_arrays(n, r, cylinders, seed)
    full = (1 << r) - 1
    low = arity_offsets(n, r)[r - 2]
    faces = [subset_counters(n, r)[(full ^ (1 << j)) - 1] - low for j in range(r)]
    g_mask = G.member_array() != 0
    g_dens = Fraction(G.edge_count, total)
    worst = Fraction(0)
    for parts in fams:
        in_l = np.zeros(total, dtype=bool)
        for tau in itertools.permutations(range(r)):
            conj = np.ones(total, dtype=bool)
            for i in range(r):
                conj &= parts[tau[i]][faces[i]]
                if not conj.any():
                    break
            in_l |= conj
            if in_l.all():
                break
        size = int(in_l.sum())
        if Fraction(size, total) < eps or size == 0:
            continue
        inter = int((g_mask & in_l).sum())
        worst = max(worst, abs(g_dens - Fraction(inter, size)))
    return worst


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_regularity_deficit_matches_permutation_oracle(data):
    r = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(0, {2: 14, 3: 10, 4: 8}[r]))
    G = Hypergraph.random(r, n, Fraction(data.draw(st.integers(0, 4)), 4), seed=data.draw(st.integers(0, 99)))
    eps = Fraction(data.draw(st.integers(0, 10)), 10)
    if data.draw(st.booleans()):
        family, seed = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 2**32))
    else:
        faces = list(itertools.combinations(range(n), r - 1))
        part = st.lists(st.sampled_from(faces), max_size=len(faces)) if faces else st.just([])
        family = data.draw(st.lists(st.tuples(*[part] * r), min_size=1, max_size=4))
        if data.draw(st.booleans()):  # parts as hypergraphs
            family = [tuple(Hypergraph(r - 1, n, {tuple(sorted(f)) for f in p}) for p in c) for c in family]
        seed = None
    want = permutation_regularity_deficit(G, family, eps, seed)
    assert regularity_deficit(G, family, eps, seed) == want


def test_explicit_cylinder_parts_are_checked():
    G = Hypergraph.random(2, 6, Fraction(1, 2), seed=1)
    cases = [
        ([([(0, 1), (2, 3)], [(1, 2)])], r"cylinder 0 part 0: subset \(0, 1\) is not 1 distinct vertices in range\(6\)"),
        ([([(0,)], [(1,)]), ([(2,)], [(6,)])], r"cylinder 1 part 1: subset \(6,\) is not"),
        ([([(0,)], [(-1,)])], r"cylinder 0 part 1: subset \(-1,\) is not"),
        # vertices must be integers: a float is not truncated, a string not compared
        ([([(0,)], [(1,)]), ([(0.5,), (1,)], [(2,)])], r"cylinder 1 part 0: subset \(0\.5,\) is not 1 distinct"),
        ([([("a",), (1,)], [(2,)])], r"cylinder 0 part 0: subset \('a',\) is not 1 distinct vertices in range\(6\)"),
    ]
    for family, text in cases:
        with pytest.raises(ValueError, match=text):
            regularity_deficit(G, family, 0)
    G3 = Hypergraph.random(3, 7, Fraction(1, 2), seed=2)
    with pytest.raises(ValueError, match=r"cylinder 0 part 2: subset \(4, 4\) is not 2 distinct"):
        regularity_deficit(G3, [([(0, 1)], [(1, 2)], [(4, 4)])], 0)
    # valid parts, in any order and as lists: deficits pinned before the check
    assert regularity_deficit(G, [([(0,), (2,), (3,)], [(1,), (4,)])], 0) == Fraction(2, 15)
    family = [([(0, 1), (2, 3), (1, 5), (4, 5)], [(1, 2), (4, 6), (0, 6), (3, 5)], [[5, 3], [6, 2], (0, 4), (1, 3)])]
    assert regularity_deficit(G3, family, Fraction(1, 100)) == Fraction(18, 35)


EPS_CUTS = [Fraction(0), Fraction(1, 10), Fraction(1)]
# 1 and 5 split every pass into many blocks, whatever the cylinder count
BLOCKS = [1, 5, 64, combinatorics.CELL_BLOCK]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partition_delta_matches_per_class_loop(data):
    k = data.draw(st.integers(2, 4))
    top = {2: 12, 3: 8, 4: 7}[k]
    n = top - data.draw(st.integers(0, top))  # n < k included, but drawn from the top
    l = data.draw(st.integers(1, 5))
    # labels above `used` leave their classes empty
    used = data.draw(st.integers(1, l))
    rs = random.Random(data.draw(st.integers(0, 2**32)))
    flat = np.array([rs.randint(1, used) for _ in range(arity_offsets(n, k)[k])], dtype=np.int64)
    hp = Hyperpartition._from_flat(n, k, l, flat)
    samples = data.draw(st.integers(1, 70))
    eps = data.draw(st.sampled_from(EPS_CUTS))
    seed = data.draw(st.integers(0, 2**64 - 1))
    want = loop_partition_delta(hp, samples, eps, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combinatorics, "CELL_BLOCK", data.draw(st.sampled_from(BLOCKS)))
        assert partition_delta(hp, samples, eps, seed) == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_regularity_deficit_matches_per_cylinder_loop(data):
    r = data.draw(st.integers(2, 4))
    top = {2: 14, 3: 10, 4: 8}[r]
    n = top - data.draw(st.integers(0, top))
    G = Hypergraph.random(r, n, Fraction(data.draw(st.integers(0, 4)), 4), seed=data.draw(st.integers(0, 99)))
    eps = data.draw(st.sampled_from(EPS_CUTS))
    if data.draw(st.booleans()):
        family, seed = data.draw(st.integers(1, 70)), data.draw(st.integers(0, 2**64 - 1))
    else:
        faces = list(itertools.combinations(range(n), r - 1))
        part = st.lists(st.sampled_from(faces), max_size=len(faces)) if faces else st.just([])
        family = data.draw(st.lists(st.tuples(*[part] * r), min_size=1, max_size=6))
        seed = None
    want = loop_regularity_deficit(G, family, eps, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combinatorics, "CELL_BLOCK", data.draw(st.sampled_from(BLOCKS)))
        assert regularity_deficit(G, family, eps, seed) == want


@pytest.mark.parametrize("n, k, l", [(60, 2, 3), (20, 3, 2)])
def test_partition_delta_spans_several_cell_blocks(n, k, l):
    # the refine benchmark's shapes: l * C * C(n, k) cells, more than one block
    hp = Hyperpartition.uniform_random(n, k, l, seed=4)
    assert l * 32 * comb(n, k) > combinatorics.CELL_BLOCK
    for eps in EPS_CUTS:
        assert partition_delta(hp, 32, eps, 9) == loop_partition_delta(hp, 32, eps, 9)


def test_cylinder_counts_are_checked():
    G = Hypergraph.random(2, 6, Fraction(1, 2), seed=1)
    hp = Hyperpartition.uniform_random(6, 2, 2, seed=1)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="need at least one sampled cylinder"):
            regularity_deficit(G, bad, 0, seed=1)
        with pytest.raises(ValueError, match="need at least one sampled cylinder"):
            partition_delta(hp, bad, 0, 1)
    with pytest.raises(ValueError, match="sampled cylinders need a seed"):
        regularity_deficit(G, 3, 0)
    # a numpy integer is a count, as a Python int is
    assert regularity_deficit(G, np.int64(5), 0, seed=3) == regularity_deficit(G, 5, 0, seed=3)
    assert partition_delta(hp, np.int64(5), 0, 3) == partition_delta(hp, 5, 0, 3)


def test_hyperpartition_roundtrip():
    hp = Hyperpartition.uniform_random(8, 2, 3, seed=11)
    back = Hyperpartition.from_obj(hp.to_obj())
    assert back.n == hp.n and back.k == hp.k and back.l == hp.l
    assert back.flat_labels().tolist() == hp.flat_labels().tolist()


def test_labels_are_views_of_one_flat_array():
    n, k, l = 7, 3, 3
    hp = Hyperpartition.uniform_random(n, k, l, seed=4)
    offs = arity_offsets(n, k)
    flat = hp.flat_labels()  # a fresh writable copy on every call
    assert flat.flags.writeable and not np.shares_memory(flat, hp.flat_labels())
    for r in range(1, k + 1):
        view = hp.labels[r]
        assert np.array_equal(view, flat[offs[r - 1] : offs[r]])
        assert not view.flags.writeable and np.shares_memory(view, hp._flat)
        with pytest.raises(ValueError):
            view[:1] = 1
    # the constructor copies its input; _from_flat keeps an int64 array
    given = {r: hp.labels[r].copy() for r in range(1, k + 1)}
    same = Hyperpartition(n, k, l, given)
    given[1][0] = given[1][0] % l + 1
    assert same == hp == Hyperpartition._from_flat(n, k, l, flat)
    assert Hyperpartition._from_flat(n, k, l, flat).flat_labels().tolist() == flat.tolist()
    assert hp != Hyperpartition(n, k, l, given)
    with pytest.raises(ValueError, match="need n >= 0"):
        Hyperpartition._from_flat(n, k, 0, flat)


def test_structure_roundtrip():
    C = CombinatorialStructure.from_top_labels(3, 2, {1})
    back = CombinatorialStructure.from_obj(C.to_obj())
    assert back.cells == C.cells and back.k == C.k and back.l == C.l


def test_distribution_missing_a_simplex_is_refused():
    dist = empirical_level_maps(3, Hyperpartition.round_robin(6, 2, 2), exhaustive=True)
    short = LevelMapDistribution(3, 2, 2, dist.simplices[:-1], dist.maps[:, :-1], dist.counts, dist.total)
    tri = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError, match="do not list the subset"):
        structure_density(tri, CombinatorialStructure.all_cells(2, 2), short)
