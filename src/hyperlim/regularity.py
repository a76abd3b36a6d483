"""Heuristic regular decomposition of a finite hypergraph.

refine searches for an l-hyperpartition plus combinatorial structure whose
cell union reproduces the input up to a small edit density. The structure
step is exactly optimal for fixed labels (per-orbit majority vote); the
label step is a colex-ordered sweep of single-subset relabelings. Nothing
here certifies the existence theorems; the report carries estimates only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Optional

import numpy as np

from . import rng
from .combinatorics import (
    arity_offsets,
    cell_codes,
    cell_digits,
    cell_weights,
    mask_perms,
    subset_counters,
)
from .hypergraph import Hypergraph
from .hyperpartition import (
    CombinatorialStructure,
    Hyperpartition,
    _cylinder_count,
    cells_union,
    member_size,
    partition_delta,
)

_EXHAUSTIVE_CAP = 10**7
# most rows one block of a relabel sweep gathers (see _SearchState.sweep)
SWEEP_BLOCK = 1 << 10

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DecompositionReport:
    hp: Hyperpartition
    structure: CombinatorialStructure
    eps: Fraction
    delta: Fraction
    seed: int
    trace: list = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "hp": self.hp.to_obj(),
            "structure": self.structure.to_obj(),
            "eps": f"{self.eps.numerator}/{self.eps.denominator}",
            "delta": f"{self.delta.numerator}/{self.delta.denominator}",
            "seed": self.seed,
            "trace": list(self.trace),
        }


def _majority_structure(codes, edge, k, l):
    """Per-orbit majority vote: include an orbit iff over half of the k-sets
    landing in it are edges (ties excluded). Optimal for fixed labels. The
    orbit row of a present cell lists each orbit cell |stabilizer| times,
    which scales both sides of the vote alike."""
    cells = member_size(k, l)
    sizes = np.bincount(codes, minlength=cells)
    edges = np.bincount(codes[edge != 0], minlength=cells)
    rows = cell_digits(np.flatnonzero(sizes), k, l) @ cell_weights(k, l)[mask_perms(k)].T
    member = np.zeros(cells, dtype=np.uint8)
    member[rows[2 * edges[rows].sum(axis=1) > sizes[rows].sum(axis=1)]] = 1
    return CombinatorialStructure.from_member(k, l, member)


class _SearchState:
    """Mutable labels + derived row codes with incremental move evaluation."""

    def __init__(self, H, l):
        self.H = H
        self.n, self.k, self.l = H.n, H.k, l
        self.edge = H.member_array()
        self.offs = arity_offsets(self.n, self.k)
        # CSR of (row, digit weight) per global counter, one arity at a
        # time: a subset of arity r < k is digit m-1 of a row for masks m
        # of r bits, and a k-subset is the top digit of its own row alone
        n, k = self.n, self.k
        table = subset_counters(n, k)
        self.nrows = nrows = table.shape[1]
        weights = cell_weights(k, l)
        self.csr_rows = np.empty(nrows * len(weights), dtype=np.intp)
        self.csr_wts = np.empty(nrows * len(weights), dtype=weights.dtype)
        at = 0
        for r in range(1, k):
            masks = np.array([m for m in range(1, len(weights)) if m.bit_count() == r])
            # position i * nrows + row of the stacked masks holds mask i's digit
            digit, rows = np.divmod(np.argsort(table[masks - 1].ravel(), kind="stable"), nrows)
            self.csr_rows[at : at + rows.size] = rows
            self.csr_wts[at : at + rows.size] = weights[masks - 1][digit]
            at += rows.size
        self.csr_rows[at:] = np.arange(nrows)
        self.csr_wts[at:] = weights[-1]
        # a subset of arity r lies in comb(n - r, k - r) rows
        degree = np.repeat([comb(n - r, k - r) for r in range(1, k + 1)], np.diff(self.offs))
        self.indptr = np.concatenate(([0], np.cumsum(degree)))
        self.labels = None
        self.codes = None
        self.member = None

    def set_labels(self, labels_flat):
        self.labels = labels_flat
        self.codes = cell_codes(self.labels - 1, self.n, self.k, self.l)

    def set_structure(self, structure):
        self.member = structure.member_table()

    def eps_count(self) -> int:
        return int((self.edge != self.member[self.codes]).sum())

    def _bad_block(self, g0, g1, d):
        """(bad, a): for each counter g0..g1-1 of one arity, whose subsets
        lie in d rows each, the mismatched rows under every label, and the
        0-based current labels."""
        lo, hi = self.indptr[g0], self.indptr[g1]
        rows, wts = self.csr_rows[lo:hi], self.csr_wts[lo:hi]
        a = self.labels[g0:g1] - 1
        cand = np.multiply.outer(wts, np.arange(self.l))
        cand += (self.codes[rows] - np.repeat(a, d) * wts)[:, None]
        bad = (self.member[cand] != self.edge[rows, None]).reshape(g1 - g0, d, self.l).sum(axis=1)
        return bad, a

    def sweep(self, p: int, q: int) -> int:
        """One colex-ordered pass of single-subset relabel moves. A move is
        accepted iff the objective eps + (p/q)*equitability strictly drops
        and eps itself does not increase; ties go to the smallest label.
        Returns accepted-move count. With D the lcm of the C(n, r) and q > 0,
        objectives are compared as the integers eps*q*D + p*nrows*max_r
        (max - min label count of arity r)*D/C(n, r).

        numpy counts the mismatched rows of every label for a block of
        counters of one arity at once (at most SWEEP_BLOCK gathered rows),
        and only the subsets that can move reach the exact integer scoring
        of _best_label. eps cancels from every comparison, so a subset at
        label a can move only if another label mismatches fewer rows, or as
        many and the move lowers max(other arities' terms, this arity's
        spread term); the l x l table of _drop_table decides the latter from
        the label counts alone. Scoring any other subset would refuse every
        label and leave the labels, codes and counts as they were. A move
        below the top arity changes the codes of rows that later counters of
        the block share, so counts are gathered again from the next counter,
        in a block that starts at one counter and doubles up to the cap; a
        k-subset is its own row, so a move there only rebuilds the table
        and, if it changed, the filter."""
        n, k, l = self.n, self.k, self.l
        if l == 1:
            return 0
        sizes = [comb(n, r) for r in range(1, k + 1)]
        D = lcm(*sizes)
        eps_w, def_w = q * D, p * self.nrows
        offs, labels, codes = self.offs, self.labels, self.codes
        counts = [np.bincount(labels[lo:hi], minlength=l + 1)[1:].tolist() for lo, hi in zip(offs, offs[1:])]
        scaled = [(max(c) - min(c)) * (D // s) for c, s in zip(counts, sizes)]
        accepted = 0
        for r in range(1, k + 1):
            c, unit = counts[r - 1], D // sizes[r - 1]
            other = max(scaled[: r - 1] + scaled[r:], default=0)
            drop = _drop_table(c, unit, other)
            d = comb(n - r, k - r)  # rows that hold each subset of arity r
            cap = max(1, SWEEP_BLOCK // d)
            g, size = offs[r - 1], cap
            while g < offs[r]:
                m = min(size, offs[r] - g)
                bad, a = self._bad_block(g, g + m, d)
                cur = bad[np.arange(m), a][:, None]
                fewer, tied = (bad < cur).any(axis=1), bad == cur
                hits, h, moved = _movable(fewer, tied, a, drop, 0), 0, False
                while h < len(hits):
                    j, h = hits[h], h + 1
                    ra = int(a[j]) + 1
                    best, best_def = _best_label(bad[j].tolist(), ra, c, unit, other, scaled[r - 1], eps_w, def_w)
                    if not best:
                        continue
                    lo, hi = self.indptr[g + j], self.indptr[g + j + 1]
                    labels[g + j] = best
                    codes[self.csr_rows[lo:hi]] += (best - ra) * self.csr_wts[lo:hi]
                    c[ra - 1] -= 1
                    c[best - 1] += 1
                    scaled[r - 1] = best_def
                    accepted += 1
                    moved, was = True, drop
                    drop = _drop_table(c, unit, other)
                    if r < k:
                        m = j + 1  # the counters after it read stale codes
                        break
                    if drop != was:
                        hits, h = _movable(fewer, tied, a, drop, j + 1), 0
                g += m
                size = 1 if moved and r < k else min(2 * size, cap)
        return accepted


def _best_label(bad, a, c, unit, other, spread, eps_w, def_w):
    """(b, new spread): the label that the exact objective moves a subset
    at label a to, 0 for none, and the scaled spread term of its arity
    after the move. bad lists each label's mismatched rows, c the arity's
    label counts (left as they were), spread its current scaled term."""
    cur_bad = bad[a - 1]
    best_obj, best, best_def = def_w * max(other, spread), 0, spread
    c[a - 1] -= 1
    for b in range(1, len(c) + 1):
        if b == a or bad[b - 1] > cur_bad:
            continue
        c[b - 1] += 1
        new_def = (max(c) - min(c)) * unit
        c[b - 1] -= 1
        obj = (bad[b - 1] - cur_bad) * eps_w + def_w * max(other, new_def)
        if obj < best_obj:
            best_obj, best, best_def = obj, b, new_def
    c[a - 1] += 1
    return best, best_def


def _movable(fewer, tied, a, drop, lo):
    """Block positions from lo on whose subset can move: some label
    mismatches fewer rows, or as many and drop allows the move."""
    keep = fewer[lo:]
    if any(map(any, drop)):
        keep = keep | (tied[lo:] & np.array(drop)[a[lo:]]).any(axis=1)
    return (lo + np.flatnonzero(keep)).tolist()


def _drop_table(c, unit, other):
    """drop[a][b]: moving one subset from label a+1 to b+1 strictly lowers
    max(other, (max(c) - min(c)) * unit), c the label counts of its arity;
    an l x l tuple of bools."""
    l = len(c)
    now = max(other, (max(c) - min(c)) * unit)
    if now == other:
        return ((False,) * l,) * l  # no move takes the term below the other arities'
    drop = []
    for a in range(l):
        c[a] -= 1
        row = []
        for b in range(l):
            c[b] += 1
            row.append(b != a and max(other, (max(c) - min(c)) * unit) < now)
            c[b] -= 1
        c[a] += 1
        drop.append(tuple(row))
    return tuple(drop)


def refine(
    H: Hypergraph,
    l: int,
    iterations: int = 12,
    cylinder_samples: int = 32,
    seed: int = 0,
    *,
    lam: Fraction = Fraction(1, 10),
    eps_cut: Fraction = Fraction(1, 10),
    exhaustive: bool = False,
    structure: Optional[CombinatorialStructure] = None,
) -> DecompositionReport:
    """Search for an (hp, structure) pair approximating H in edit density.

    Alternates an exact majority choice of the structure with local
    relabeling sweeps, restarting from fresh random labels when stuck; the
    best snapshot wins. Passing structure= pins the structure and searches
    labels only. exhaustive=True (k = 2 only) returns instead the optimum
    of the scan over every vertex labeling and orbit structure with
    per-pair optimal labels, which its first labeling already reaches.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if H.n < H.k:
        raise ValueError("need n >= k")
    if structure is not None and (structure.k != H.k or structure.l != l):
        raise ValueError("pinned structure must match k and l")
    if H.k >= 2:  # partition_delta reads cylinders only at arity 2 and up
        _cylinder_count(cylinder_samples)
    if exhaustive:
        if structure is not None:
            raise ValueError("exhaustive mode searches structures itself")
        return _refine_exhaustive(H, l, cylinder_samples, seed, eps_cut)
    n, k = H.n, H.k
    lam = Fraction(lam)
    state = _SearchState(H, l)
    best = None
    trace = []
    ridx = -1
    accepted = 0
    for it in range(iterations):
        if accepted == 0:
            # first start, or a local optimum: spend remaining budget elsewhere
            ridx += 1
            best_eps = None if best is None else Fraction(best[0], state.nrows)
            _log.debug("refine restart %d at iteration %d, best eps %s", ridx, it, best_eps)
            start = Hyperpartition.uniform_random(n, k, l, rng.derive(seed, rng.TAG_INIT, ridx))
            state.set_labels(start.flat_labels())
        current = _majority_structure(state.codes, state.edge, k, l) if structure is None else structure
        state.set_structure(current)
        accepted = state.sweep(lam.numerator, lam.denominator)
        eps_cnt = state.eps_count()
        if best is None or eps_cnt < best[0]:
            best = (eps_cnt, state.labels.copy(), current)
        trace.append(
            {
                "restart": ridx,
                "iteration": it,
                "eps": f"{Fraction(eps_cnt, state.nrows)}",
                "accepted": accepted,
                "best_eps": f"{Fraction(best[0], state.nrows)}",
            }
        )
        if best[0] == 0:
            break
    eps_cnt, labels, structure = best
    hp = Hyperpartition._from_flat(n, k, l, labels)
    delta = partition_delta(hp, cylinder_samples, eps_cut, seed)
    return DecompositionReport(hp, structure, Fraction(eps_cnt, comb(n, k)), delta, seed, trace)


def _refine_exhaustive(H, l, cylinder_samples, seed, eps_cut):
    """The optimum of the scan over every vertex labeling and orbit
    structure, with per-pair optimal labels, in closed form. Pair labels are
    free, so the first labeling (every vertex at label 1) is optimal: for
    l >= 2 the cell (1, 1, 1) alone fits H exactly, edges at pair label 1
    and non-edges at 2 (the empty structure, every pair at 1, when H has no
    edge); for l = 1 the structure is full iff 2m > C(n, 2), with ties to
    empty, every label 1 and eps the misses over C(n, 2)."""
    if H.k != 2:
        raise ValueError("exhaustive mode supports k = 2 only")
    n, m, pairs = H.n, H.edge_count, comb(H.n, 2)
    n_orb = l * l * (l + 1) // 2  # cells (a, b, c) with a <= b
    if (l**n) * (1 << n_orb) > _EXHAUSTIVE_CAP:
        raise ValueError("exhaustive search space exceeds the cap")
    pair_labels = np.ones(pairs, dtype=np.int64)
    if l == 1:
        full, miss = 2 * m > pairs, min(m, pairs - m)
    else:
        full, miss = m > 0, 0
        if full:
            pair_labels[H.member_array() == 0] = 2
    structure = CombinatorialStructure(2, l, [(1, 1, 1)] if full else [], symmetrize=True)
    hp = Hyperpartition(n, 2, l, {1: np.ones(n, dtype=np.int64), 2: pair_labels})
    eps = Fraction(miss, pairs)
    if Fraction(len(cells_union(hp, structure).edges ^ H.edges), pairs) != eps:
        raise RuntimeError(f"exhaustive fit: eps {eps} is not the edit density of its cell union to H")
    trace = [{"mode": "exhaustive", "labelings": l**n, "structures": 1 << n_orb}]
    return DecompositionReport(hp, structure, eps, partition_delta(hp, cylinder_samples, eps_cut, seed), seed, trace)
