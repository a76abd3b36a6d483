import hashlib
import json
from fractions import Fraction

import pytest

from hyperlim.hypergraph import Hypergraph
from hyperlim.hyperpartition import (
    CombinatorialStructure,
    Hyperpartition,
    cells_union,
)
from hyperlim.metrics import hamming_density
from hyperlim.regularity import refine


def report_sha256(rep):
    return hashlib.sha256(json.dumps(rep.to_obj(), sort_keys=True).encode()).hexdigest()


def planted_instance(n=24):
    hp0 = Hyperpartition.round_robin(n, 2, 2)
    C0 = CombinatorialStructure(2, 2, {(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)})
    return cells_union(hp0, C0), hp0, C0


def test_single_level_is_exact_for_extremes():
    # l=1 admits only the all-or-nothing structures per cell
    K = Hypergraph.complete(2, 7)
    rep = refine(K, 1, iterations=3, seed=0)
    assert rep.eps == 0
    assert rep.structure.cells == CombinatorialStructure.all_cells(2, 1).cells
    rep = refine(Hypergraph(2, 8), 1, iterations=3, seed=0)
    assert rep.eps == 0 and len(rep.structure.cells) == 0


def test_eps_reproduces_hamming_to_reported_decomposition():
    for seed in range(4):
        H = Hypergraph.random(2, 10, Fraction(1, 2), seed=seed + 40)
        rep = refine(H, 2, iterations=8, seed=seed)
        T = cells_union(rep.hp, rep.structure)
        assert hamming_density(H, T) == rep.eps


def test_trace_best_eps_monotone():
    H = Hypergraph.random(2, 12, Fraction(1, 2), seed=9)
    rep = refine(H, 2, iterations=10, seed=2)
    prev = None
    for row in rep.trace:
        b = Fraction(row["best_eps"])
        if prev is not None:
            assert b <= prev
        prev = b
        assert isinstance(row["accepted"], int)


def test_planted_recovery_small():
    Hp, hp0, C0 = planted_instance(16)
    hit = 0
    for seed in range(3):
        rep = refine(Hp, 2, iterations=30, seed=seed)
        if rep.eps == 0:
            hit += 1
    assert hit >= 2


def test_exhaustive_reaches_zero_on_planted():
    Hs, _, _ = planted_instance(8)
    rep = refine(Hs, 2, seed=0, exhaustive=True)
    assert rep.eps == 0
    assert cells_union(rep.hp, rep.structure).edges == Hs.edges
    rep2 = refine(Hypergraph.complete(2, 6), 2, seed=0, exhaustive=True)
    assert rep2.eps == 0


def test_exhaustive_k3_unsupported():
    with pytest.raises(ValueError, match="k = 2"):
        refine(Hypergraph.complete(3, 5), 2, seed=0, exhaustive=True)


def test_replay_is_byte_identical():
    Hp, _, _ = planted_instance(12)
    a = refine(Hp, 2, iterations=10, seed=7)
    b = refine(Hp, 2, iterations=10, seed=7)
    assert json.dumps(a.to_obj(), sort_keys=True) == json.dumps(b.to_obj(), sort_keys=True)
    # restart labels come from counters, so the bytes are pinned across numpy versions
    assert report_sha256(a) == "5956ca496fc3140f96c0228f70b9a896e7ad4acdbabe17cec186e76ee0506424"


def test_k3_smoke():
    H = Hypergraph.random(3, 6, Fraction(1, 2), seed=1)
    rep = refine(H, 2, iterations=6, seed=3)
    T = cells_union(rep.hp, rep.structure)
    assert hamming_density(H, T) == rep.eps
    assert 0 <= rep.delta <= 1
    assert report_sha256(rep) == "629266dbf89aa9a098966df84640281f55926a4431b58f47c94f264c73fa8d9c"


def test_pinned_structure_is_kept():
    Hp, hp0, C0 = planted_instance(12)
    rep = refine(Hp, 2, iterations=20, seed=5, structure=C0)
    assert rep.structure.cells == C0.cells
    assert rep.eps == 0  # planted labels exist for the pinned structure


def test_pinned_structure_validation():
    Hp, _, C0 = planted_instance(12)
    wrong_l = CombinatorialStructure.from_top_labels(2, 3, {1})
    with pytest.raises(ValueError, match="match"):
        refine(Hp, 2, iterations=5, seed=0, structure=wrong_l)
    with pytest.raises(ValueError, match="exhaustive"):
        refine(Hp, 2, iterations=5, seed=0, structure=C0, exhaustive=True)


def test_argument_validation():
    H = Hypergraph.random(2, 8, Fraction(1, 2), seed=0)
    with pytest.raises(ValueError):
        refine(H, 0, seed=0)
    with pytest.raises(ValueError):
        refine(H, 2, iterations=0, seed=0)
    with pytest.raises(ValueError):
        refine(Hypergraph(3, 2), 2, seed=0)  # fewer vertices than arity
