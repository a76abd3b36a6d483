import ast
import hashlib
import json
import logging
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_oracle import cell_orbit

from hyperlim import regularity
from hyperlim.combinatorics import cell_grid
from hyperlim.hypergraph import Hypergraph
from hyperlim.hypergraphon import step_from_structure, structure_of
from hyperlim.hyperpartition import (
    CombinatorialStructure,
    Hyperpartition,
    cells_union,
)
from hyperlim.metrics import hamming_density
from hyperlim.regularity import _majority_structure, _SearchState, refine


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


# sha256 of the sorted-key JSON list of exhaustive refine reports, or the
# refusal's message, over n = 2..17, l = 1..3 and edge densities 0, 1/2, 1,
# pinned while the exhaustive mode scanned vertex labelings and structures
EXHAUSTIVE_SHA256 = "bada01bb8faf4bcf500efe2170957025a25609631c151db61dae1adbd6acb8b2"


def test_exhaustive_reports_are_pinned():
    rows = []
    for n in range(2, 18):
        for p in (0, Fraction(1, 2), 1):
            H = Hypergraph.random(2, n, p, seed=n)
            for l in (1, 2, 3):
                try:
                    rows.append(refine(H, l, seed=n, exhaustive=True).to_obj())
                except ValueError as e:
                    rows.append(str(e))
    assert "exhaustive search space exceeds the cap" in rows
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == EXHAUSTIVE_SHA256


def test_exhaustive_self_check_raises_under_optimize(monkeypatch):
    # an explicit check, not an assert, so python -O keeps it
    Hs, _, _ = planted_instance(8)
    monkeypatch.setattr(regularity, "cells_union", lambda hp, C: Hypergraph(2, hp.n))
    with pytest.raises(RuntimeError, match="exhaustive fit: eps 0 is not the edit density"):
        refine(Hs, 2, seed=0, exhaustive=True)


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
    # pinned to a step hypergraphon's structure, as the planted inverse
    # experiment does, the report still lists cells, not boxes
    W = step_from_structure(C0)
    rep = refine(Hp, 2, iterations=20, seed=5, structure=structure_of(W))
    assert rep.to_obj()["structure"] == C0.to_obj() == {"k": 2, "l": 2, "cells": W.to_obj()["boxes"]}


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


def test_cylinder_count_is_refused_before_the_search(monkeypatch):
    H = Hypergraph.random(2, 30, Fraction(1, 2), seed=0)
    monkeypatch.setattr(regularity, "_SearchState", None)  # a search would raise TypeError
    for exhaustive in (False, True):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="need at least one sampled cylinder"):
                refine(H, 2, iterations=1, cylinder_samples=bad, exhaustive=exhaustive)
        with pytest.raises(ValueError, match="cylinder_samples must be an integer, got 2.5"):
            refine(H, 2, iterations=1, cylinder_samples=2.5, exhaustive=exhaustive)
    monkeypatch.undo()
    # arity 1 reads no cylinder, so any count passes there
    rep = refine(Hypergraph.random(1, 10, Fraction(1, 2), seed=1), 2, iterations=1, cylinder_samples=0)
    assert rep.delta == rep.hp.equitability_deficit()


def test_more_report_goldens():
    # pinned with the Fraction sweep that the integer sweep replaced
    assort = CombinatorialStructure(2, 3, {(a, a, c) for a in (1, 2, 3) for c in (1, 2, 3)})
    T = cells_union(Hyperpartition.round_robin(30, 2, 3), assort)
    noise = Hypergraph.random(2, 30, Fraction(1, 10), seed=5)
    noisy = Hypergraph(2, 30, T.edges ^ noise.edges)
    rep = refine(noisy, 3, iterations=10, seed=1)
    assert report_sha256(rep) == "b4709e8716e5e9e8961d3038b95084244b10b9363e3d47d1b5f4c8703db77b38"
    rep = refine(Hypergraph.random(3, 12, Fraction(1, 2), seed=3), 3, iterations=6, seed=4)
    assert report_sha256(rep) == "ff4513c60e0b7e31b24209b33f77ee99b12147165c9ff5776cfb6a143bd4e15b"
    Hp, _, _ = planted_instance(12)
    rep = refine(Hp, 2, iterations=10, seed=7, lam=0)
    assert report_sha256(rep) == "7710587afcf06cfc0e45da680adad33802d78605a37b63f678650babc4743a97"
    rep = refine(Hp, 2, iterations=10, seed=7, lam=Fraction(1, 3))
    assert report_sha256(rep) == "949a088dc327623222bdb118445c84c80ffeeffe694f4bc67f9da7cdd5e3054c"


def test_k3_l3_report_golden():
    # pinned while _majority_structure still built its cells from tuple orbits
    T = cells_union(Hyperpartition.round_robin(12, 3, 3), CombinatorialStructure.from_top_labels(3, 3, {1}))
    noisy = Hypergraph(3, 12, T.edges ^ Hypergraph.random(3, 12, Fraction(1, 10), seed=6).edges)
    rep = refine(noisy, 3, iterations=6, seed=11)
    assert report_sha256(rep) == "43c4aa88e9f4902b37570bd638dfb4cd0835dd62123a009085be0d67bd8ffc47"


@settings(max_examples=200)
@given(st.data())
def test_majority_structure_matches_tuple_orbit_vote(data):
    k = data.draw(st.integers(1, 4))
    l = data.draw(st.integers(1, 2 if k == 4 else 4))
    width = (1 << k) - 1
    rows = data.draw(st.integers(1, 60))
    codes = np.array(data.draw(st.lists(st.integers(0, l**width - 1), min_size=rows, max_size=rows)))
    edge = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
    votes = {}
    for code, e in zip(codes.tolist(), edge.tolist()):
        cell = tuple(code // l**i % l + 1 for i in range(width))
        tally = votes.setdefault(cell_orbit(cell, k), [0, 0])
        tally[0] += 1
        tally[1] += e
    want = set().union(*(orbit for orbit, (size, hits) in votes.items() if 2 * hits > size))
    assert _majority_structure(codes, edge, k, l).cells == want


def test_restarts_log_at_debug_only(caplog):
    H = Hypergraph.random(2, 12, Fraction(1, 2), seed=9)
    quiet = refine(H, 2, iterations=10, seed=2)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="hyperlim.regularity"):
        loud = refine(H, 2, iterations=10, seed=2)
    assert report_sha256(loud) == report_sha256(quiet)
    want, best = [], None
    for i, row in enumerate(loud.trace):
        if i == 0 or row["restart"] != loud.trace[i - 1]["restart"]:
            want.append(f"refine restart {row['restart']} at iteration {row['iteration']}, best eps {best}")
        best = row["best_eps"]
    assert len(want) > 1
    assert [r.getMessage() for r in caplog.records] == want
    assert {r.name for r in caplog.records} == {"hyperlim.regularity"}


# The Fraction sweep that _SearchState.sweep replaced, kept as its slow oracle.
def arity_counts(self):
    out = []
    for r in range(1, self.k + 1):
        seg = self.labels[self.offs[r - 1] : self.offs[r]]
        out.append(np.bincount(seg, minlength=self.l + 1)[1:].astype(np.int64))
    return out


def fraction_sweep(self, lam: Fraction) -> int:
    """One colex-ordered pass of single-subset relabel moves. A move is
    accepted iff the objective eps + lam*equitability strictly drops and
    eps itself does not increase. Returns accepted-move count."""
    if self.l == 1:
        return 0
    counts = arity_counts(self)
    csizes = [comb(self.n, r) for r in range(1, self.k + 1)]

    def arity_def(r_idx):
        c = counts[r_idx]
        return Fraction(int(c.max() - c.min()), csizes[r_idx])

    defs = [arity_def(i) for i in range(self.k)]
    eps_cnt = self.eps_count()
    accepted = 0
    for r in range(1, self.k + 1):
        for g in range(self.offs[r - 1], self.offs[r]):
            a = int(self.labels[g])
            if r == self.k:  # a k-subset is digit 2**k - 2 of its own row alone
                rows = np.array([g - self.offs[r - 1]])
                wts = np.array([self.l ** ((1 << self.k) - 2)])
            else:
                lo, hi = self.indptr[g], self.indptr[g + 1]
                rows = self.csr_rows[lo:hi]
                wts = self.csr_wts[lo:hi]
            cur_codes = self.codes[rows]
            cur_bad = int((self.edge[rows] != self.member[cur_codes]).sum())
            cur_equit = max(defs)
            cur_obj = Fraction(eps_cnt, self.nrows) + lam * cur_equit
            best = None
            for b in range(1, self.l + 1):
                if b == a:
                    continue
                new_codes = cur_codes + (b - a) * wts
                new_bad = int((self.edge[rows] != self.member[new_codes]).sum())
                new_eps = eps_cnt - cur_bad + new_bad
                if new_eps > eps_cnt:
                    continue
                c = counts[r - 1].copy()
                c[a - 1] -= 1
                c[b - 1] += 1
                new_def = Fraction(int(c.max() - c.min()), csizes[r - 1])
                new_equit = max(max(d for i, d in enumerate(defs) if i != r - 1), new_def) if self.k > 1 else new_def
                new_obj = Fraction(new_eps, self.nrows) + lam * new_equit
                if new_obj < cur_obj and (best is None or new_obj < best[0]):
                    best = (new_obj, b, new_codes, new_eps, new_def)
            if best is not None:
                _, b, new_codes, new_eps, new_def = best
                self.labels[g] = b
                self.codes[rows] = new_codes
                counts[r - 1][a - 1] -= 1
                counts[r - 1][b - 1] += 1
                defs[r - 1] = new_def
                eps_cnt = new_eps
                accepted += 1
    return accepted


def random_structure(k, l, seed):
    width = (1 << k) - 1
    keep = np.random.default_rng(seed).random(l**width) < 0.5
    cells = product(range(1, l + 1), repeat=width)
    return CombinatorialStructure(k, l, [c for c, b in zip(cells, keep) if b], symmetrize=True)


@settings(max_examples=200)
@given(
    st.sampled_from([1, 2, 3]),
    st.integers(1, 4),
    st.integers(0, 5),
    st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(5, 2)]),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_integer_sweep_matches_fraction_oracle(k, l, extra, lam, seed, majority):
    n = k + extra
    H = Hypergraph.random(k, n, Fraction(1, 2), seed)
    start = Hyperpartition.uniform_random(n, k, l, seed).flat_labels()
    fast, slow = _SearchState(H, l), _SearchState(H, l)
    for state in (fast, slow):
        state.set_labels(start.copy())
    if majority:
        C = _majority_structure(fast.codes, fast.edge, k, l)
    else:
        C = random_structure(k, l, seed)
    for state in (fast, slow):
        state.set_structure(C)
    assert fast.sweep(lam.numerator, lam.denominator) == fraction_sweep(slow, lam)
    assert np.array_equal(fast.labels, slow.labels)
    assert np.array_equal(fast.codes, slow.codes)
    assert fast.eps_count() == slow.eps_count()


def top_blind_structure(k, l, seed):
    """A random structure whose membership ignores the level of the k-set
    itself: at the top arity every label mismatches equally often, so only
    moves that narrow the label spread can fire there."""
    grid = cell_grid(random_structure(k, l, seed).member_table(), k, l)
    blind = np.broadcast_to(grid[..., :1], grid.shape)
    return CombinatorialStructure.from_member(k, l, blind.reshape(-1, order="F"))


@pytest.mark.parametrize("block", [1, 2, 5, 64, regularity.SWEEP_BLOCK])
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(2, 4),
    st.data(),
    st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(5, 2)]),
    st.integers(0, 2**32),
    st.sampled_from(["majority", "random", "top-blind"]),
)
def test_blocked_sweep_matches_fraction_oracle(block, k, l, data, lam, seed, kind):
    # budgets of 1 to 64 rows cut every arity into many blocks; under the
    # default, blocks end early where a move below the top arity restarts
    # them one counter long
    n = data.draw(st.integers(k + 1, 30 if k == 2 else 12))
    H = Hypergraph.random(k, n, Fraction(1, 2), seed)
    start = Hyperpartition.uniform_random(n, k, l, seed).flat_labels()
    if data.draw(st.booleans()):
        # balanced vertices leave the spread of the k-sets' labels the
        # largest term, so moves that narrow it fire at the top arity
        start[:n] = np.arange(n) % l + 1
    fast, slow = _SearchState(H, l), _SearchState(H, l)
    for state in (fast, slow):
        state.set_labels(start.copy())
    if kind == "majority":
        C = _majority_structure(fast.codes, fast.edge, k, l)
    else:
        C = (random_structure if kind == "random" else top_blind_structure)(k, l, seed)
    for state in (fast, slow):
        state.set_structure(C)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "SWEEP_BLOCK", block)
        for _ in range(2):
            assert fast.sweep(lam.numerator, lam.denominator) == fraction_sweep(slow, lam)
            assert np.array_equal(fast.labels, slow.labels)
            assert np.array_equal(fast.codes, slow.codes)


def test_sweep_never_names_fraction():
    # the sweep and its helpers compare scaled integers; a Fraction there is
    # the slow path back
    tree = ast.parse(Path(regularity.__file__).read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_SearchState")
    sweep = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "sweep")
    helpers = [n for n in tree.body + cls.body if isinstance(n, ast.FunctionDef)]
    helpers = [n for n in helpers if n.name in ("_bad_block", "_best_label", "_movable", "_drop_table")]
    assert len(helpers) == 4
    named = set()
    for fn in [sweep] + helpers:
        named |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        named |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert "comb" in named and "Fraction" not in named
