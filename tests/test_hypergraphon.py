import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from measure_oracle import _levels_of, contains, grid_integral_density, projected_value

from hyperlim.hypergraph import Hypergraph
from hyperlim.hyperpartition import CombinatorialStructure, structure_density
from hyperlim.hypergraphon import (
    GeneralHypergraphon,
    StepHypergraphon,
    builtin_w,
    density,
    density_via_projection,
    step_from_structure,
    structure_of,
)

EDGE2 = Hypergraph(2, 2, [(0, 1)])
TRI = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


def test_step_membership_matches_boxes():
    W = builtin_w("example1", 2)
    # example1 at k=2: membership depends only on the top coordinate < 1/2
    for u in (0.1, 0.4, 0.6, 0.9):
        for v in (0.2, 0.8):
            for t in (0.3, 0.7):
                p = {1: u, 2: v, 3: t}
                assert contains(W, p) == (t < 0.5)


def test_step_requires_symmetric_boxes():
    with pytest.raises(ValueError, match="not S_k-closed"):
        StepHypergraphon(2, 2, [(1, 2, 1)])
    W = StepHypergraphon(2, 2, [(1, 2, 1)], symmetrize=True)
    assert len(structure_of(W).cells) == 2


def test_structure_roundtrip():
    C = CombinatorialStructure.from_top_labels(2, 3, {1, 3})
    W = step_from_structure(C)
    assert structure_of(W).cells == C.cells
    back = StepHypergraphon.from_obj(W.to_obj())
    assert structure_of(back).cells == C.cells


def test_a_step_hypergraphon_is_its_structure_retyped():
    for W in (builtin_w("example2", 3), step_from_structure(CombinatorialStructure.from_top_labels(2, 3, {1, 3}))):
        C = structure_of(W)
        assert type(W) is StepHypergraphon and type(C) is CombinatorialStructure
        assert isinstance(W, CombinatorialStructure)
        # the retyped object shares the table; equality also asks for the type
        assert C.member_table() is W.member_table()
        assert W != C and not W == C and hash(W) == hash(C)
        assert step_from_structure(C) == W and structure_of(step_from_structure(C)) == C
        assert set(W.to_obj()) == {"k", "l", "boxes"} and set(C.to_obj()) == {"k", "l", "cells"}
        assert W.to_obj()["boxes"] == C.to_obj()["cells"]
        assert type(W.complement()) is StepHypergraphon
        assert W.complement().complement() == W


def test_repr_and_immutability_goldens():
    W = builtin_w("example2", 3)
    # pinned from the parent's wrapper class
    assert repr(W) == "StepHypergraphon(k=3, l=2, boxes=16)"
    assert repr(structure_of(W)) == "CombinatorialStructure(k=3, l=2, cells=16)"
    assert repr(W.complement()) == "StepHypergraphon(k=3, l=2, boxes=112)"
    with pytest.raises(AttributeError, match="^StepHypergraphon is immutable$"):
        W.k = 3
    with pytest.raises(AttributeError, match="^CombinatorialStructure is immutable$"):
        structure_of(W).k = 3


_MALFORMED = [
    ([1, 2], "{what} object must be a mapping"),
    ({"k": 2, "l": 2}, "{what} object is missing field '{field}'"),
    ({"l": 2, "cells": [], "boxes": []}, "{what} object is missing field 'k'"),
    ({"k": 0, "l": 2, "cells": [], "boxes": []}, "{what} object: k must be an integer >= 1, got 0"),
    ({"k": 2, "l": "2", "cells": [], "boxes": []}, "{what} object: l must be an integer >= 1, got '2'"),
    ({"k": 2, "l": 2, "cells": [[1, 1, 1]], "boxes": [[1, 1, 1]]}, "{field}[0] must be a mapping of mask to label"),
    ({"k": 2, "l": 2, "cells": [{"1": 1, "3": 1}], "boxes": [{"1": 1, "3": 1}]}, "{field}[0] is missing mask 2"),
]


@pytest.mark.parametrize("obj, text", _MALFORMED)
@pytest.mark.parametrize(
    "cls, what, field",
    [(CombinatorialStructure, "structure", "cells"), (StepHypergraphon, "hypergraphon", "boxes")],
)
def test_cell_list_error_goldens(cls, what, field, obj, text):
    # texts pinned from the parent's shared cell-list codec
    with pytest.raises(ValueError) as info:
        cls.from_obj(obj)
    assert str(info.value) == text.format(what=what, field=field)


def test_builtin_kinds():
    for k in (2, 3):
        assert density(EDGE2 if k == 2 else Hypergraph.single_edge(3), builtin_w("full", k)) == 1
        assert density(EDGE2 if k == 2 else Hypergraph.single_edge(3), builtin_w("empty", k)) == 0
        assert density(
            EDGE2 if k == 2 else Hypergraph.single_edge(3), builtin_w("example1", k)
        ) == Fraction(1, 2)
    with pytest.raises(ValueError):
        builtin_w("nope", 2)


def test_exact_density_equals_projection_integral():
    # two independent evaluation paths must agree exactly (k = 2)
    cases = [
        (TRI, builtin_w("example1", 2)),
        (TRI, step_from_structure(CombinatorialStructure.from_top_labels(2, 2, {2}))),
        (Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)]),
         step_from_structure(CombinatorialStructure.from_top_labels(2, 3, {1}))),
    ]
    for F, W in cases:
        assert density(F, W) == density_via_projection(F, W)


def test_exact_density_equals_grid_integral():
    # geometric membership integral vs combinatorial enumeration, k in {2,3}
    cases = [
        (TRI, builtin_w("example1", 2)),
        (Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)]), builtin_w("example2", 3)),
        (Hypergraph.single_edge(3),
         step_from_structure(CombinatorialStructure.from_top_labels(3, 2, {2}))),
    ]
    for F, W in cases:
        assert density(F, W) == grid_integral_density(F, W)


def test_projected_value_example1():
    W = builtin_w("example1", 2)
    # top level is free: projection onto any lower assignment is 1/2
    assert projected_value(W, {1: 0.3, 2: 0.9}) == Fraction(1, 2)
    C = CombinatorialStructure(2, 2, [(1, 1, 1)])
    Wc = step_from_structure(C)
    assert projected_value(Wc, {1: 0.2, 2: 0.3}) == Fraction(1, 2)
    assert projected_value(Wc, {1: 0.2, 2: 0.7}) == 0


def test_density_montecarlo_converges():
    W = builtin_w("example1", 2)
    est, se = density(EDGE2, W, mode="montecarlo", samples=20000, seed=5)
    assert se <= 0.005
    assert abs(est - 0.5) < 4 * max(se, 1e-9)
    est2, _ = density(TRI, W, mode="montecarlo", samples=40000, seed=6)
    assert abs(est2 - 0.125) < 0.01


def test_density_montecarlo_needs_budget():
    with pytest.raises(ValueError):
        density(EDGE2, builtin_w("example1", 2), mode="montecarlo")


@pytest.mark.parametrize("samples", [0, -3])
def test_density_montecarlo_refuses_non_positive_samples(samples):
    G = GeneralHypergraphon(2, lambda p: True)
    for W in (builtin_w("example1", 2), G):
        # the empty pattern too, whose estimate needs no sample
        for F in (EDGE2, Hypergraph.empty(2, 2)):
            with pytest.raises(ValueError, match="samples must be positive"):
                density(F, W, mode="montecarlo", samples=samples, seed=1)


def test_general_hypergraphon_wraps_predicate():
    W = builtin_w("example1", 2)
    G = GeneralHypergraphon(2, lambda p: contains(W, p))
    for i in range(20):
        p = {1: (i * 7 % 10) / 10 + 0.05, 2: (i * 3 % 10) / 10 + 0.049, 3: (i % 10) / 10 + 0.02}
        assert G.contains_point(p) == contains(W, p)
    est, se = density(EDGE2, G, mode="montecarlo", samples=4000, seed=8)
    assert abs(est - 0.5) < 4 * max(se, 1e-9)


def test_general_hypergraphon_rejects_asymmetric_predicate():
    def asym(p):
        return p[1] < 0.5  # depends on one vertex coordinate only

    with pytest.raises(ValueError, match="not invariant"):
        GeneralHypergraphon(2, asym)
    GeneralHypergraphon(2, asym, check_points=0)  # checks nothing
    with pytest.raises(ValueError, match="check_points must be nonnegative"):
        GeneralHypergraphon(2, asym, check_points=-1)


def test_induced_density_step():
    C = CombinatorialStructure.from_top_labels(2, 2, {2})
    W = step_from_structure(C)
    # induced triangle density equals the structure's induced density
    assert density(TRI, W, induced=True) == structure_density(TRI, C, induced=True)


def test_example2_measures():
    W = builtin_w("example2", 3)
    e = Hypergraph.single_edge(3)
    # one 3-edge constrains its three 2-subsets
    assert density(e, W) == Fraction(1, 8)


# sha256 of the sorted-key JSON of builtin_w(kind, k).complement().to_obj(),
# pinned while complements were built by listing tuple cells
COMPLEMENT_GOLDENS = {
    ("full", 1): "543cfc7ddb9b560abd88d3b42340671221df6a47a7e4320034ca2ebabbac2a34",
    ("full", 2): "dd2157e84dc11625a5f00c2ae9c8a362af9c676d9b303dfee4799e0d4bd5bad3",
    ("full", 3): "e15710230101726ad724a99f4a13cc145c2ca2cf04fe3a8b0bf88b25ea29403e",
    ("full", 4): "7be8be27e310c9ed2af7de3ec1ae1e74c35f0ad42070bc28dcae3006cbb73a74",
    ("empty", 1): "0c210e5f80349bc0c96002fbecc985a7fc56c796c18a8657d3e0dd5de9ca26ed",
    ("empty", 2): "f8b7f2e502392214fa5a78da19b7a0c0fb54f997a171d8bb6dbc92327030e9aa",
    ("empty", 3): "d7fedf237aa5ae593f2e63fd32e3059fa24b373e41f1836ae66173247be162db",
    ("empty", 4): "c2b7ef2d82c3156f410b0052090f8b19856fd13f1d63ec5b4a910391bb7aad1f",
    ("example1", 1): "fd81678ebcdab1765bb39b46496110957cd2e206035e290b2b4a7041adc2fb3f",
    ("example1", 2): "6b1b42159bbc0816153629f22734fefdf294958f22c4572dd1afc1e0a47e4b0d",
    ("example1", 3): "f7f42a5c53fde7485b982f790378c7a4e8ce07185c7f38208e29607736cc96a9",
    ("example1", 4): "9054cef8458241851fd44dde670c973660c10cba829539907ae5a8a18552e3aa",
    ("example2", 2): "4be593cbeef4d3c993bf0035dc5adf29130e399d3718d591255608b4b0003b70",
    ("example2", 3): "737caf38c6d3c481d0b25d56df209ac17ecaab75e25118a75cd229f36d158c06",
    ("example2", 4): "b4778369ce1f8b170ee947ffa0a23937b081c72e682f08444ca05bb83a5c29a6",
}


def test_builtin_complement_goldens():
    for (kind, k), want in COMPLEMENT_GOLDENS.items():
        W = builtin_w(kind, k)
        blob = json.dumps(W.complement().to_obj(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == want, (kind, k)
        assert W.complement().complement() == W


def test_example1_boxes_are_the_full_mask_at_level_1():
    for k in range(1, 5):
        width = (1 << k) - 1
        want = {c for c in itertools.product((1, 2), repeat=width) if c[-1] == 1}
        assert builtin_w("example1", k).boxes == want


def fraction_levels(values, l):
    """The old reading: 0-based level int(Fraction(x) * l) of each coordinate."""
    out = []
    for x in values:
        fx = Fraction(x)
        if not 0 <= fx < 1:
            raise ValueError("point coordinates must lie in [0, 1)")
        out.append(int(fx * l))
    return tuple(out)


def on_boundary(l):
    return st.integers(0, l - 1).flatmap(lambda j: st.sampled_from([Fraction(j, l), j / l]))


@settings(max_examples=300)
@given(
    st.integers(1, 12).flatmap(
        lambda l: st.tuples(
            st.just(l),
            st.lists(
                st.one_of(
                    st.floats(0, 1, exclude_max=True),
                    st.fractions(0, 1, max_denominator=10**6).filter(lambda f: f < 1),
                    st.just(0),
                    on_boundary(l),
                    st.floats(-2, 2),
                ),
                min_size=1,
                max_size=7,
            ),
        )
    )
)
def test_integer_levels_match_fraction_reading(case):
    l, values = case
    try:
        want = fraction_levels(values, l)
    except ValueError:
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _levels_of(values, len(values), l, "point")
        return
    assert _levels_of(values, len(values), l, "point") == want


def test_levels_refuse_what_fractions_refuse():
    assert _levels_of(["0.25", Fraction(1, 2)], 2, 4, "point") == (1, 2)
    for bad, err in ((math.nan, ValueError), (math.inf, OverflowError), ("half", ValueError), (True, ValueError)):
        with pytest.raises(err):
            _levels_of([bad], 1, 2, "point")
