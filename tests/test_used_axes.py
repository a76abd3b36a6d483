"""The exact step quantities read a structure over its used axes alone:
structure densities, exact d1 and delta1_upper agree with the full-grid
oracles of tests/full_grid_oracle.py wherever those complete."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from full_grid_oracle import (
    full_grid_d1,
    full_grid_delta1_upper,
    full_grid_structure_density,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlim
from hyperlim.combinatorics import mask_bits
from hyperlim.hypergraph import Hypergraph
from hyperlim.hyperpartition import CombinatorialStructure, structure_density
from hyperlim.hypergraphon import builtin_w, step_from_structure
from hyperlim.metrics import _shared, d1, delta1_upper


@st.composite
def partial_structures(draw, k, l):
    """A symmetrized structure whose grid is constant along every mask of a
    random set of arities: the S_k action keeps each arity's axes together,
    so those axes stay unused."""
    width = (1 << k) - 1
    ignored = draw(st.sets(st.integers(1, k)))
    axes = [m - 1 for m in range(1, width + 1) if len(mask_bits(m)) not in ignored]
    keep = draw(st.lists(st.booleans(), min_size=l ** len(axes), max_size=l ** len(axes)))
    small = np.array(keep, dtype=bool).reshape([l] * len(axes), order="F")
    grid = small.reshape([l if m in axes else 1 for m in range(width)], order="F")
    grid = np.broadcast_to(grid, (l,) * width)
    cells = (np.argwhere(grid) + 1).tolist()
    C = CombinatorialStructure(k, l, cells, symmetrize=True)
    assert set(C.used_axes()[0]) <= set(axes)
    return C


@st.composite
def patterns(draw, k):
    n = draw(st.integers(max(k - 1, 0), k + 2))  # below, at and above k vertices
    subs = list(itertools.combinations(range(n), k))
    keep = draw(st.lists(st.booleans(), min_size=len(subs), max_size=len(subs)))
    return Hypergraph(k, n, [s for s, b in zip(subs, keep) if b])


def outcome(f, *args, **kw):
    """f's value, or its ValueError text."""
    try:
        return f(*args, **kw)
    except ValueError as e:
        return ("ValueError", str(e))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_structure_density_matches_the_full_grid(k, l, induced, data):
    C = data.draw(partial_structures(k, l))
    F = data.draw(patterns(k))
    want = outcome(full_grid_structure_density, F, C, induced)
    got = outcome(structure_density, F, C, induced=induced)
    if isinstance(want, Fraction):
        assert got == want
    else:
        # the full grid may refuse what the used axes complete
        assert isinstance(got, Fraction) or got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_d1_and_delta1_upper_match_the_full_grid(k, lU, lW, data):
    U = step_from_structure(data.draw(partial_structures(k, lU)))
    W = step_from_structure(data.draw(partial_structures(k, lW)))
    assert d1(U, W).to_obj() == full_grid_d1(U, W).to_obj()
    # (L!)^k against the budget decides exhaustive or hill climb
    budget = data.draw(st.sampled_from([1, 3, 24, 40, 4096]))
    seed = data.draw(st.integers(0, 5))
    got = delta1_upper(U, W, budget=budget, seed=seed).to_obj()
    assert got == full_grid_delta1_upper(U, W, budget=budget, seed=seed).to_obj()


def test_delta1_upper_compares_both_modes_with_the_full_grid():
    # every builtin pair at k = 2, 3 and 4, with budgets on both sides of (L!)^k
    for k in (2, 3, 4):
        kinds = [builtin_w(kind, k) for kind in ("example1", "example2", "full", "empty")]
        for U, W in itertools.product(kinds, repeat=2):
            assert d1(U, W).to_obj() == full_grid_d1(U, W).to_obj()
            for budget in (1, 4, 4096):
                want = full_grid_delta1_upper(U, W, budget=budget, seed=budget)
                assert delta1_upper(U, W, budget=budget, seed=budget).to_obj() == want.to_obj()


def test_used_axes_complete_what_the_full_grid_refused():
    # K8^(3): 2^-56 in example1 and 2^-28 in example2 (the contraction over
    # every simplex of arity 1 and 2 refused both)
    F = Hypergraph.complete(3, 8)
    for kind, want in (("example1", Fraction(1, 2**56)), ("example2", Fraction(1, 2**28))):
        W = builtin_w(kind, 3)
        with pytest.raises(ValueError, match="too large"):
            full_grid_structure_density(F, W)
        assert structure_density(F, W) == want
    # k = 4, example1 against the top-only structure at l = 3: L = 6 and
    # 6**15 cells exceed the full grid's cap; the used axes read one
    U = builtin_w("example1", 4)
    W = step_from_structure(CombinatorialStructure.from_top_labels(4, 3, {1}))
    assert _shared(U, W) == (6, [14])
    with pytest.raises(ValueError, match="too large"):
        full_grid_d1(U, W)
    rep = d1(U, W)
    assert rep.value == Fraction(1, 6)
    assert rep.witness == {"box": [1] * 14 + [3], "levels": 6}
    assert delta1_upper(U, W).value == Fraction(1, 6)


def test_a_structure_that_reads_every_axis_still_refuses():
    # K5^(3) at l = 4 and K6^(3) at l = 3: the plans join 13 and 18 variables
    for l, n in ((4, 5), (3, 6)):
        C = CombinatorialStructure(3, l, [(1, 2, 1, 3, 1, 1, l), (1, 1, 2, 1, 3, l, 2)], symmetrize=True)
        assert len(C.used_axes()[0]) == 7
        with pytest.raises(ValueError, match="instance too large"):
            structure_density(Hypergraph.complete(3, n), C)


def full_grid_reads(tree, module):
    """Lines of a module that call cell_grid or member_table where the exact
    step quantities live: anywhere in metrics, and in structure_density."""
    hits = []
    scopes = [tree] if module == "metrics" else []
    if module == "hyperpartition":
        scopes = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "structure_density"]
    banned = {"cell_grid", "member_table"} if module == "metrics" else {"cell_grid"}
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                if banned.intersection((getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                    hits.append(node.lineno)
    return sorted(hits)


def test_exact_step_quantities_read_the_used_axes_only():
    # structure_density, d1 and delta1_upper read used_axes(), as the
    # samplers do; the full grid lives in tests/full_grid_oracle.py
    root = Path(hyperlim.__file__).parent
    found = {}
    for name in ("metrics", "hyperpartition"):
        path = root / f"{name}.py"
        hits = full_grid_reads(ast.parse(path.read_text(), str(path)), name)
        if hits:
            found[path.name] = hits
    assert found == {}
    leaky = "def structure_density(F, C):\n    cell_grid(C.member_table(), 2, 2)\n"
    assert full_grid_reads(ast.parse(leaky), "hyperpartition") == [2]
    assert full_grid_reads(ast.parse(leaky), "metrics") == [2, 2]
    assert full_grid_reads(ast.parse(leaky), "kernels") == []
