import ast
import itertools
import tracemalloc
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from coordinate_oracle import CoordinateSystem
from orbit_oracle import cell_orbit, permute_cell

import hyperlim

from hyperlim.combinatorics import (
    ROW_CAP,
    adjacent_mask_perms,
    arity_offsets,
    comb_table,
    cell_codes,
    cell_digits,
    cell_grid,
    cell_weights,
    colex_insert_ranks,
    colex_matrix,
    colex_rank,
    colex_rank_rows,
    falling,
    mask_bits,
    mask_image,
    mask_perms,
    position_perms,
    subset_counters,
)


def colex_unrank(rank: int, r: int) -> tuple:
    """Inverse of colex_rank for r-subsets."""
    out = []
    for i in range(r, 0, -1):
        a = i - 1
        while comb(a + 1, i) <= rank:
            a += 1
        out.append(a)
        rank -= comb(a, i)
    out.reverse()
    return tuple(out)


def subsets_colex(n: int, r: int):
    """Yield the r-subsets of range(n) in colex order: the oracle for
    colex_matrix."""
    if r == 0:
        yield ()
        return
    for last in range(r - 1, n):
        for rest in subsets_colex(last, r - 1):
            yield rest + (last,)


def brute_colex(n, r):
    return sorted(itertools.combinations(range(n), r), key=lambda s: tuple(reversed(s)))


def test_subsets_colex_matches_brute_order():
    for n in range(1, 9):
        for r in range(1, min(n, 4) + 1):
            got = list(subsets_colex(n, r))
            assert got == brute_colex(n, r)


def test_colex_rank_is_position_in_order():
    for n, r in [(8, 2), (8, 3), (7, 4), (6, 1)]:
        for i, s in enumerate(brute_colex(n, r)):
            assert colex_rank(s) == i


def test_colex_unrank_inverts_rank():
    for r in range(1, 5):
        for rank in range(120):
            s = colex_unrank(rank, r)
            assert len(s) == r
            assert colex_rank(s) == rank


@st.composite
def rank_sets(draw):
    """(n, k, ranks): no ranks, every rank, or a few, in any order."""
    n, k = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    total = comb(n, k)
    kind = draw(st.sampled_from(["empty", "full", "some"]))
    if kind == "empty" or total == 0:
        return n, k, []
    if kind == "full":
        return n, k, list(range(total))
    return n, k, draw(st.lists(st.integers(0, total - 1), max_size=40))


@settings(max_examples=150)
@given(rank_sets())
@example((40, 5, list(range(comb(40, 5)))))
@example((40, 5, []))
@example((0, 1, []))
@example((7, 1, [6, 0, 3]))
def test_colex_unrank_matches_colex_matrix_rows(case):
    n, k, ranks = case
    rows = colex_matrix.__wrapped__(n, k)  # uncached, so the cache stays small
    got = hyperlim.combinatorics.colex_unrank(np.array(ranks, dtype=np.int64), n, k)
    assert got.dtype == np.int64 and got.shape == (len(ranks), k)
    assert np.array_equal(got, rows[np.array(ranks, dtype=np.intp)])


def test_ascii_digits_are_decimal_text():
    values = [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 123456789, 2**62]
    width = len(str(2**62))
    got = hyperlim.combinatorics.ascii_digits(values, width)
    assert got.shape == (len(values), width) and got.dtype == np.uint8
    assert [bytes(row[row != 0]).decode() for row in got] == [str(v) for v in values]


def test_colex_rank_rows_matches_scalar():
    rows = np.array(list(itertools.combinations(range(9), 3)), dtype=np.int64)
    ranks = colex_rank_rows(rows, 9)
    for row, rank in zip(rows, ranks):
        assert colex_rank(tuple(row)) == rank


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_colex_insert_ranks_match_sort_and_rank(k, data):
    # k - 1 = 0..3 vertices per row; n = k - 1 is a host with fewer than k
    n = data.draw(st.integers(max(k - 1, 1), k + 5))
    row = st.lists(st.integers(0, n - 1), min_size=k - 1, max_size=k - 1, unique=True).map(sorted)
    rows = data.draw(st.lists(row, max_size=6))
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), k - 1)
    got = colex_insert_ranks(rows, n)
    assert got.shape == (len(rows), n)
    for r, sub in enumerate(rows.tolist()):
        for w in set(range(n)) - set(sub):
            assert got[r, w] == colex_rank_rows(np.array([sorted(sub + [w])]), n)[0]


def test_colex_matrix_matches_subsets_colex():
    for n in range(11):
        for r in range(6):
            want = list(subsets_colex(n, r))
            m = colex_matrix(n, r)
            assert m.shape == (len(want), r) and m.dtype == np.int64
            assert [tuple(row) for row in m.tolist()] == want
            assert not m.flags.writeable


def test_colex_matrix_caches_only_the_requested_matrix():
    # built from prefix rows, not from one cached matrix per prefix ground set
    colex_matrix.cache_clear()
    colex_matrix(60, 3)
    assert colex_matrix.cache_info().currsize <= 2


def test_subset_counters_match_scalar_counter():
    for k in range(1, 5):
        width = (1 << k) - 1
        for n in range(10):
            # the full mask has no row: its counters are the k-subsets' own
            table = subset_counters(n, k)
            assert table.shape == (width - 1, comb(n, k))
            assert table.dtype == np.int32 and not table.flags.writeable
            coords = CoordinateSystem(n, k, 0)
            offs = arity_offsets(n, k)
            for i, s in enumerate(subsets_colex(n, k)):
                assert coords.counter(s) == offs[k - 1] + i
                for m in range(1, width):
                    sub = tuple(s[b] for b in mask_bits(m))
                    assert table[m - 1, i] == coords.counter(sub)
                    assert table[m - 1, i] == arity_offsets(n, k)[len(sub) - 1] + colex_rank(sub)


def scalar_cell_code(cell, l: int) -> int:
    """Cell code of a tuple of 1-based levels, one digit at a time."""
    code = 0
    p = 1
    for x in cell:
        code += (x - 1) * p
        p *= l
    return code


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_cell_digits_invert_cell_weights(k, l):
    width = (1 << k) - 1
    w = cell_weights(k, l)
    assert w.tolist() == [l**i for i in range(width)]
    rs = np.random.default_rng(k * 10 + l)
    cells = rs.integers(1, l + 1, size=(50, width))
    codes = np.array([scalar_cell_code(c, l) for c in cells.tolist()], dtype=np.int64)
    assert ((cells - 1) * w).sum(axis=1).tolist() == codes.tolist()
    assert np.array_equal(cell_digits(codes, k, l), cells - 1)
    assert cell_digits(int(codes[0]), k, l).tolist() == (cells[0] - 1).tolist()
    # the top code decodes to the top level everywhere
    assert cell_digits(l**width - 1, k, l).tolist() == [l - 1] * width


def test_cell_grid_axes_are_mask_levels():
    for k, l in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        width = (1 << k) - 1
        codes = np.arange(l**width)
        grid = cell_grid(codes, k, l)
        assert grid.shape == (l,) * width
        for cell in itertools.product(range(1, l + 1), repeat=width):
            assert grid[tuple(x - 1 for x in cell)] == scalar_cell_code(cell, l)


def test_cell_codes_match_scalar_sum():
    rs = np.random.default_rng(3)
    for n, k, l in [(7, 2, 3), (6, 3, 2), (6, 3, 3), (5, 1, 4), (2, 3, 2)]:
        levels = rs.integers(0, l, size=arity_offsets(n, k)[-1])
        codes = cell_codes(levels, n, k, l)
        want = []
        for s in subsets_colex(n, k):
            code = 0
            for m in range(1, 1 << k):
                sub = tuple(s[b] for b in mask_bits(m))
                code += int(levels[arity_offsets(n, k)[len(sub) - 1] + colex_rank(sub)]) * l ** (m - 1)
            want.append(code)
        assert codes.tolist() == want


def test_oversized_ground_sets_are_refused_before_allocating():
    n = 10**6
    assert comb(n, 2) > ROW_CAP
    tracemalloc.start()
    try:
        for build in (colex_matrix, subset_counters):
            with pytest.raises(ValueError, match=f"n={n}"):
                build(n, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_arity_offsets_are_cumulative_subset_counts():
    for n in range(2, 10):
        for k in range(1, 4):
            offs = arity_offsets(n, k)
            assert len(offs) == k + 1
            for r in range(1, k + 1):
                assert offs[r - 1] == sum(comb(n, j) for j in range(1, r))
            assert offs[k] == sum(comb(n, j) for j in range(1, k + 1))


def test_comb_table_matches_math_comb():
    for n, r in [(0, 0), (0, 3), (1, 1), (9, 3), (30, 5), (2000, 2)]:
        t = comb_table(n, r)
        assert t.shape == (n + 1, r + 1)
        assert t.tolist() == [[comb(a, b) for b in range(r + 1)] for a in range(n + 1)]


def test_falling_factorial():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(4, 4) == 24
    assert falling(3, 4) == 0


def test_mask_bits():
    assert mask_bits(0b1) == (0,)
    assert mask_bits(0b101) == (0, 2)
    assert mask_bits(0b111) == (0, 1, 2)


def test_mask_image_identity_and_bijection():
    k = 3
    full = (1 << k) - 1
    ident = tuple(range(k))
    for m in range(1, full + 1):
        assert mask_image(m, ident) == m
    for perm in itertools.permutations(range(k)):
        images = {mask_image(m, perm) for m in range(1, full + 1)}
        assert images == set(range(1, full + 1))


def test_mask_image_by_element_positions():
    # mask with bit i set means position i belongs; perm moves position i to perm[i]
    perm = (2, 0, 1)
    for m in range(1, 8):
        expect = 0
        for i in mask_bits(m):
            expect |= 1 << perm[i]
        assert mask_image(m, perm) == expect


def test_permute_cell_identity_and_orbit():
    cell = (1, 2, 3)
    assert permute_cell(cell, 2, (0, 1)) == cell
    assert cell_orbit(cell, 2) == frozenset({(1, 2, 3), (2, 1, 3)})
    # diagonal cells are fixed points
    assert cell_orbit((4, 4, 9), 2) == frozenset({(4, 4, 9)})


def test_cell_orbit_size_divides_group_order():
    for k in (2, 3):
        width = (1 << k) - 1
        cell = tuple(range(1, width + 1))
        orbit = cell_orbit(cell, k)
        assert factorial(k) % len(orbit) == 0
        for other in orbit:
            assert cell_orbit(other, k) == orbit


def test_permute_cell_composition():
    k = 3
    cell = tuple(range(1, 8))
    p = (1, 2, 0)
    q = (2, 0, 1)
    pq = tuple(q[p[i]] for i in range(k))
    assert permute_cell(permute_cell(cell, k, p), k, q) == permute_cell(cell, k, pq)


def test_mask_perms_transpose_grids_like_permute_cell():
    # row p of mask_perms moves every cell of a level grid exactly as the
    # tuple oracle moves it along position_perms(k)[p]
    for k, l in ((1, 3), (2, 3), (3, 2), (3, 3), (4, 2)):
        width = (1 << k) - 1
        member = np.zeros(l**width, dtype=np.uint8)
        member[np.random.default_rng(10 * k + l).integers(0, l**width, 40)] = 1
        cells = [tuple(c) for c in (np.argwhere(cell_grid(member, k, l)) + 1).tolist()]
        assert mask_perms(k).shape == (factorial(k), width)
        for row, perm in zip(mask_perms(k), position_perms(k)):
            moved = np.zeros_like(member)
            moved[[scalar_cell_code(permute_cell(c, k, perm), l) for c in cells]] = 1
            assert np.array_equal(cell_grid(moved, k, l), cell_grid(member, k, l).transpose(row))


def test_adjacent_mask_perms_generate_the_group():
    # composing transposes composes axis orders: t(a).t(b) is t(a[b])
    for k in range(1, 6):
        gens = adjacent_mask_perms(k)
        assert gens.shape == (k - 1, (1 << k) - 1)
        seen = {tuple(range((1 << k) - 1))}
        frontier = list(seen)
        while frontier:
            row = np.array(frontier.pop())
            for g in gens:
                nxt = tuple(row[g].tolist())
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == {tuple(r) for r in mask_perms(k).tolist()}


def test_mask_perms_weights_list_orbit_codes():
    for k, l in ((1, 2), (2, 3), (3, 2), (3, 3)):
        width = (1 << k) - 1
        w = cell_weights(k, l)
        codes = np.arange(l**width)
        orbits = cell_digits(codes, k, l) @ w[mask_perms(k)].T
        for code, row in zip(codes.tolist(), orbits.tolist()):
            cell = tuple((cell_digits(code, k, l) + 1).tolist())
            assert set(row) == {scalar_cell_code(c, l) for c in cell_orbit(cell, k)}


def tuple_orbit_names(tree):
    """Lines of a module that define, import or name the tuple orbit helpers."""
    banned = {"permute_cell", "cell_orbit"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name for a in node.names] + [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if banned.intersection(n.rsplit(".", 1)[-1] for n in names):
            hits.append(node.lineno)
    return hits


def test_package_has_no_tuple_orbit_path():
    # every orbit, closure check and symmetrize reads combinatorics.mask_perms;
    # permute_cell and cell_orbit live in tests/orbit_oracle.py as the oracle
    files = sorted(Path(hyperlim.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = tuple_orbit_names(ast.parse(path.read_text(), str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}
    oracle = ast.parse((Path(__file__).parent / "orbit_oracle.py").read_text())
    assert tuple_orbit_names(oracle)


def comb_table_leaks(tree, module):
    """Lines of a module outside combinatorics that call comb_table, by name
    or as an attribute, and kernels functions with a parameter named ct."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and module != "combinatorics":
            if "comb_table" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                hits.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and module == "kernels":
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if "ct" in (a.arg for a in args):
                hits.append(node.lineno)
    return sorted(hits)


def test_package_ranks_subsets_through_combinatorics_only():
    # colex_rank_rows(rows, n) reads the binomial table itself, so no other
    # module builds one and no kernel passes one along
    files = sorted(Path(hyperlim.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = comb_table_leaks(ast.parse(path.read_text(), str(path)), path.stem)
        if hits:
            found[path.name] = hits
    assert found == {}
    leaky = "ct = comb_table(n, k)\nc.comb_table(n, k)\ndef f(maps, ct, k): pass"
    assert comb_table_leaks(ast.parse(leaky), "kernels") == [1, 2, 3]
    assert comb_table_leaks(ast.parse(leaky), "combinatorics") == []


def set_partitions(items: tuple):
    """Yield all partitions of items as tuples of tuples (the oracle for
    hypergraph._proper_partitions)."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1 :]
        yield ((first,),) + part


def test_set_partitions_bell_counts():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        parts = list(set_partitions(tuple(range(n))))
        assert len(parts) == count
        for blocks in parts:
            flat = sorted(x for b in blocks for x in b)
            assert flat == list(range(n))
