"""Distances between hypergraphs and between step hypergraphons.

Four notions live here: the box-measure distance d1 (exact on a common
refinement, or estimated), a density lower bound delta_w_lower, a searched
relabeling upper bound delta1_upper, and a grid estimate of the sampling
metric on finite hypergraphs. closeness certifies a (hypergraph, structure,
hyperpartition) triple. Every report labels its guarantee honestly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, lcm
from typing import Optional

import numpy as np

from . import kernels, rng
from .combinatorics import ROW_CAP, mask_bits
from .hypergraph import Hypergraph, density_equivalent, enumerate_canonical, hom
from .hyperpartition import CombinatorialStructure, cells_union, partition_delta
from .hypergraphon import StepHypergraphon, density

_REFINE_CAP = 1 << 22

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DistanceReport:
    value: object
    kind: str
    witness: object = None
    budget: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def to_obj(self) -> dict:
        v = self.value
        if isinstance(v, Fraction):
            v = f"{v.numerator}/{v.denominator}"
        return {
            "value": v,
            "kind": self.kind,
            "witness": self.witness,
            "budget": dict(self.budget),
            "seed": self.seed,
        }


def hamming_density(H: Hypergraph, T: Hypergraph) -> Fraction:
    """Normalized edit distance |E(H) Δ E(T)| / C(n, k)."""
    if H.k != T.k or H.n != T.n:
        raise ValueError("hypergraphs must share n and k")
    denom = comb(H.n, H.k)
    if denom == 0:
        return Fraction(0)
    if denom <= ROW_CAP:
        return Fraction(int(np.count_nonzero(H.member_array() != T.member_array())), denom)
    return Fraction(len(H.edges ^ T.edges), denom)


def _refined_grid(structure: CombinatorialStructure, L: int, axes) -> np.ndarray:
    """Membership of the L-level refinement over the mask axes in axes, a
    superset of structure.used_axes()[0], one grid axis each.

    Fine level d of a mask lies in coarse level d // (L // l), so the
    refinement repeats every coarse level L // l times along each used
    axis; membership is constant along the others.
    """
    if L ** len(axes) > _REFINE_CAP:
        raise ValueError("refined grid too large for exact mode")
    l = structure.l
    used, reduced = structure.used_axes()
    grid = reduced.reshape([l if m in used else 1 for m in axes], order="F")
    for i, m in enumerate(axes):
        grid = np.repeat(grid, L // l if m in used else L, axis=i)
    return grid


def _shared(U: StepHypergraphon, W: StepHypergraphon):
    """(L, axes): the common level count lcm(l_U, l_W) and the mask axes
    that U or W reads, ascending; every other axis moves neither."""
    if U.k != W.k:
        raise ValueError("hypergraphons must share arity k")
    return lcm(U.l, W.l), sorted(set(U.used_axes()[0]) | set(W.used_axes()[0]))


def d1(
    U: StepHypergraphon,
    W: StepHypergraphon,
    mode: str = "exact",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> DistanceReport:
    """Measure of the symmetric difference of two step hypergraphons."""
    L, read = _shared(U, W)
    width = (1 << U.k) - 1
    if mode == "exact":
        diff = _refined_grid(U, L, read) != _refined_grid(W, L, read)
        count = int(diff.sum())
        witness = None
        if count:
            # the least differing cell code keeps every unread digit at 0
            box = [1] * width
            first = int(np.flatnonzero(diff.ravel(order="F"))[0])
            for m, d in zip(read, np.unravel_index(first, diff.shape, order="F")):
                box[m] += int(d)
            witness = {"box": box, "levels": L}
        return DistanceReport(
            value=Fraction(count, L ** len(read)),
            kind="exact",
            witness=witness,
            budget={"mode": "exact", "levels": L},
        )
    if mode != "montecarlo":
        raise ValueError("mode must be exact or montecarlo")
    n = kernels.mc_count(20000 if samples is None else samples, "samples")
    key = rng.derive(0 if seed is None else seed, rng.TAG_MC)
    # coordinate m of sample s is counter s * width + m; only the masks
    # that U or W reads are hashed, one row each, a block at a time
    row = [[read.index(m) if m in read else 0 for m in range(width)]]
    differ = 0
    for h in kernels.mc_words(n, width, key, read):
        inside = kernels.cells_keep(rng.np_level_of(h, U.l), row, [1], U)
        inside ^= kernels.cells_keep(rng.np_level_of(h, W.l, out=h), row, [1], W)
        differ += int(np.count_nonzero(inside))
    est = differ / n
    stderr = (est * (1 - est) / n) ** 0.5
    return DistanceReport(
        value=est,
        kind="estimate",
        budget={"mode": "montecarlo", "samples": n, "stderr": stderr},
        seed=seed,
    )


def delta_w_lower(U, W, family) -> DistanceReport:
    """Largest per-edge density gap over a finite family: a lower bound."""
    fams = sorted(family, key=lambda F: (F.n, len(F.edges), F.sorted_edges()))
    if not fams:
        raise ValueError("family must be nonempty")
    best = None
    best_F = None
    for F in fams:
        if not F.edges:
            raise ValueError("family members need at least one edge")
        tU = density(F, U, mode="exact")
        tW = density(F, W, mode="exact")
        gap = abs(tU - tW) / len(F.edges)
        if best is None or gap > best:
            best, best_F = gap, F
    return DistanceReport(
        value=best,
        kind="lower_bound",
        witness=best_F.to_obj(),
        budget={"family_size": len(fams)},
    )


def _metric_family(k: int, v: int, seed: int) -> list:
    if v <= 5:
        return list(enumerate_canonical(k, v))
    out = []
    for i in range(20):
        out.append(
            Hypergraph.random(k, v, Fraction(1, 2), seed=rng.derive(seed, rng.TAG_TRIAL, v, i))
        )
    return out


def delta_metric_estimate(
    H1: Hypergraph, H2: Hypergraph, max_size: int, seed: int = 0
) -> DistanceReport:
    """Smallest grid value eps = j/max_size whose defining condition holds.

    The condition couples the test-pattern size to eps: every enumerated F
    with |V(F)| <= 1/eps must satisfy |t(F,H1) - t(F,H2)| <= eps. Patterns
    are exhaustive up to 5 vertices and seeded random beyond. One pass over
    v = 1..max_size records the largest gap over the patterns on at most v
    vertices (the first such pattern in family order); grid value j reads
    it at v = max_size // j. No gap exceeds 1, so j = max_size always
    qualifies. The witness is the worst pattern of the previous grid value,
    or of all patterns at j = 1.
    """
    if H1.k != H2.k:
        raise ValueError("hypergraphs must share arity k")
    if max_size < H1.k:
        raise ValueError("max_size must be at least k")
    k = H1.k
    budget = {"max_size": max_size, "grid": "j/max_size"}
    if density_equivalent(H1, H2, check_size=max_size):
        return DistanceReport(value=Fraction(0), kind="estimate", budget=budget, seed=seed)
    if H1.n == 0 or H2.n == 0:
        raise ValueError("host must have at least one vertex")
    gap, worst_F = Fraction(0), None
    gaps, worst = [], []  # entry v - 1: over the patterns on at most v vertices
    for v in range(1, max_size + 1):
        for F in _metric_family(k, v, seed):
            g = abs(Fraction(hom(F, H1), H1.n**v) - Fraction(hom(F, H2), H2.n**v))
            if g > gap:
                gap, worst_F = g, F
        gaps.append(gap)
        worst.append(worst_F)
    j = next(j for j in range(1, max_size + 1) if gaps[max_size // j - 1] <= Fraction(j, max_size))
    witness = worst[-1] if j == 1 else worst[max_size // (j - 1) - 1]
    return DistanceReport(
        value=Fraction(j, max_size),
        kind="estimate",
        witness=None if witness is None else witness.to_obj(),
        budget=budget,
        seed=seed,
    )


def delta1_upper(
    U: StepHypergraphon,
    W: StepHypergraphon,
    budget: int = 4096,
    seed: int = 0,
) -> DistanceReport:
    """min d1 over per-arity level relabelings: an upper bound for the
    relabeling-invariant distance. Exhaustive when (L!)^k fits the budget,
    else hill-climbing over transpositions from seeded restarts."""
    L, read = _shared(U, W)
    k = U.k
    if budget <= 0:
        raise ValueError("budget must be positive")
    gridU, gridW = (_refined_grid(V, L, read) for V in (U, W))
    arities = [len(mask_bits(m + 1)) for m in read]
    denom = L ** len(read)

    def value_of(perms):
        """|U Δ sigma(W)| over the read axes: sigma sends level d of mask m
        to perms[arity(m) - 1][d]. An unread axis scales every value by L."""
        return int((gridU[np.ix_(*(perms[a - 1] for a in arities))] != gridW).sum())

    total_space = factorial(L) ** k
    if total_space <= budget:
        mode, evals = "exhaustive", total_space
        # lexicographic order, so min keeps the least minimizer
        best_perms = min(product(permutations(range(L)), repeat=k), key=value_of)
        best = value_of(best_perms)
    else:
        mode, evals = "hill_climb", 0
        best = best_perms = None
        moves = [(r, a, b) for r in range(k) for a in range(L) for b in range(a + 1, L)]
        ridx = 0
        while evals < budget:
            best_d1 = None if best is None else Fraction(best, denom)
            _log.debug("delta1_upper restart %d after %d evaluations, best d1 %s", ridx, evals, best_d1)
            # a uniform injective map [L] -> [L] is a uniform permutation
            perms = kernels.injective_maps(k, L, L, rng.derive(seed, rng.TAG_RESTART, ridx))
            ridx += 1
            cur = value_of(perms)
            evals += 1
            improved = True
            while improved and evals < budget:
                improved = False
                for r, a, b in moves:
                    perms[r][a], perms[r][b] = perms[r][b], perms[r][a]
                    v = value_of(perms)
                    evals += 1
                    if v < cur:
                        cur = v
                        improved = True
                    else:
                        perms[r][a], perms[r][b] = perms[r][b], perms[r][a]
                    if evals >= budget:
                        break
            key = tuple(tuple(int(x) for x in p) for p in perms)
            if best is None or cur < best or (cur == best and key < best_perms):
                best, best_perms = cur, key
    return DistanceReport(
        value=Fraction(best, denom),
        kind="upper_bound",
        witness={"perms": [list(p) for p in best_perms], "levels": L},
        budget={"mode": mode, "evaluations": evals},
        seed=seed,
    )


def closeness(
    H: Hypergraph,
    C: CombinatorialStructure,
    hp,
    *,
    eps_cut: Fraction = Fraction(1, 10),
    cylinder_samples: int = 64,
    seed: int = 0,
):
    """Certify how well (hp, C) explains H: returns (eps, delta).

    eps is the edit density between H and the hypergraph the structure paints
    on the hyperpartition; delta bounds the partition quality, the worse of
    equitability and the sampled regularity deficit over every label class.
    """
    if H.k != C.k or hp.k != C.k or hp.n != H.n or hp.l != C.l:
        raise ValueError("hypergraph, structure and hyperpartition shapes must match")
    delta = partition_delta(hp, cylinder_samples, eps_cut, seed)  # refuses a bad count before cells_union
    return hamming_density(H, cells_union(hp, C)), delta
