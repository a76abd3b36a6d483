"""Step hypergraphons: symmetric box unions in the cube of coordinates.

A step hypergraphon at resolution l owns a permutation-closed set of boxes,
each box a choice of one of l half-open level intervals per position mask.
Points of the cube are indexed by nonempty masks over the k positions;
membership of a point is membership of its level cell. General (non-step)
objects enter through a caller-supplied predicate and only support Monte
Carlo estimates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import sqrt
from typing import Optional

import numpy as np

from . import kernels, rng
from .combinatorics import cell_grid, mask_bits, mask_image, position_perms
from .hypergraph import Hypergraph
from .hyperpartition import CombinatorialStructure, _constraint_cells, structure_density

_BUILTIN_MAX_K = 4


class StepHypergraphon(CombinatorialStructure):
    """Union of half-open level boxes, closed under position permutations:
    the combinatorial structure whose cells are its boxes. Only the JSON
    field, the noun in errors, boxes and complement differ."""

    __slots__ = ()
    _FIELD, _WHAT = "boxes", "hypergraphon"

    @property
    def boxes(self) -> frozenset:
        return self.cells

    def complement(self) -> "StepHypergraphon":
        return self.from_member(self.k, self.l, 1 - self.member_table())


def _points(samples: int, nsim: int, key: int):
    """The uniform coordinates of each Monte Carlo sample, as a list of nsim
    floats: kernels.mc_words over every simplex, through rng.np_u01."""
    for words in kernels.mc_words(samples, nsim, key, range(nsim)):
        yield from rng.np_u01(words).T.tolist()


class GeneralHypergraphon:
    """Membership predicate over points; invariance is spot-checked.

    The predicate receives a dict mapping each nonempty position mask to a
    float in [0, 1). It must not depend on the order of the k positions; a
    seeded statistical check over random points and all permutations runs at
    construction and raises on a detected violation.
    """

    __slots__ = ("k", "membership")

    def __init__(self, k: int, membership, check_points: int = 64, seed: int = 0):
        check_points = kernels.mc_count(check_points, "check_points", least=0)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "membership", membership)
        if check_points:
            self._check_invariance(check_points, seed)

    def __setattr__(self, name, value):
        raise AttributeError("GeneralHypergraphon is immutable")

    def _check_invariance(self, points: int, seed: int):
        k = self.k
        width = (1 << k) - 1
        key = rng.derive(seed, rng.TAG_MC)
        # point i is sample i of the Monte Carlo stream, mask m its coordinate m - 1
        for vals in _points(points, width, key):
            p = dict(enumerate(vals, 1))
            base = bool(self.membership(p))
            for perm in position_perms(k):
                q = {mask_image(m, perm): p[m] for m in p}
                if bool(self.membership(q)) != base:
                    raise ValueError(
                        "membership predicate is not invariant under position"
                        " permutations"
                    )

    def contains_point(self, p: dict) -> bool:
        return bool(self.membership(p))


def builtin_w(kind: str, k: int) -> StepHypergraphon:
    """Named two-level step hypergraphons used across tests and the CLI.

    example1 constrains only the full mask to level 1; example2 constrains
    every mask of k-1 positions to level 1; full and empty are as named at
    l = 1.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if kind in ("example1", "example2") and k > _BUILTIN_MAX_K:
        raise ValueError(f"builtin {kind} capped at k <= {_BUILTIN_MAX_K}")
    if kind == "full":
        return StepHypergraphon.all_cells(k, 1)
    if kind == "empty":
        return StepHypergraphon.empty(k, 1)
    if kind == "example1":
        return StepHypergraphon.from_top_labels(k, 2, {1})
    if kind == "example2":
        if k < 2:
            raise ValueError("example2 requires k >= 2")
        # level 1 on every mask of k - 1 positions, any level elsewhere
        grid = np.zeros((2,) * ((1 << k) - 1), dtype=np.uint8)
        grid[tuple(0 if len(mask_bits(m)) == k - 1 else slice(None) for m in range(1, 1 << k))] = 1
        return StepHypergraphon.from_member(k, 2, grid.ravel(order="F"))
    raise ValueError(f"unknown builtin kind {kind!r}")


def step_from_structure(structure: CombinatorialStructure) -> StepHypergraphon:
    return StepHypergraphon._retype(structure)


def structure_of(W: StepHypergraphon) -> CombinatorialStructure:
    return CombinatorialStructure._retype(W)


# ---------------------------------------------------------------------------
# densities


def density(
    F: Hypergraph,
    W,
    mode: str = "exact",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    *,
    induced: bool = False,
):
    """Density of pattern F in a hypergraphon.

    Exact mode (step only) returns the rational structure density of the box
    structure. Monte Carlo mode draws independent uniform levels for every
    simplex of the pattern's subset lattice and returns (estimate, stderr).
    With induced=True non-edges must fall outside W.
    """
    if F.k != W.k:
        raise ValueError(f"arity mismatch: pattern k={F.k}, hypergraphon k={W.k}")
    if mode == "exact":
        if not isinstance(W, StepHypergraphon):
            raise ValueError("exact densities need a step hypergraphon")
        return structure_density(F, W, induced=induced)
    if mode != "montecarlo":
        raise ValueError(f"unknown density mode {mode!r}")
    if samples is None or seed is None:
        raise ValueError("montecarlo mode needs samples and seed")
    samples = kernels.mc_count(samples, "samples")
    simp, cidx, flags = _constraint_cells(F, W.k, induced)
    nsim = len(simp)
    key = rng.derive(seed, rng.TAG_MC)
    if len(cidx) == 0:
        return 1.0, 0.0
    if isinstance(W, StepHypergraphon):
        hits = kernels.mc_step_count(samples, nsim, key, cidx, flags, W)
    else:
        hits = 0
        for vals in _points(samples, nsim, key):
            # the first failed constraint ends a sample's calls
            hits += all(
                W.contains_point({m: vals[q] for m, q in enumerate(row, 1)}) == bool(flag)
                for row, flag in zip(cidx, flags)
            )
    est = hits / samples
    stderr = sqrt(est * (1.0 - est) / samples)
    return est, stderr


def density_via_projection(F: Hypergraph, W: StepHypergraphon) -> Fraction:
    """Exact density through the projected grid; pairwise patterns only.

    Averages the product of projected fiber measures over all level
    assignments of the pattern's vertices; agrees with density() for k = 2.
    """
    if W.k != 2 or F.k != 2:
        raise ValueError("projection formula implemented for k = 2")
    l = W.l
    fibers = cell_grid(W.member_table(), 2, l).sum(axis=-1, dtype=np.int64)
    grid = [[Fraction(h, l) for h in row] for row in fibers.tolist()]
    total = Fraction(0)
    edges = sorted(F.edges)
    for assign in product(range(l), repeat=F.n):
        p = Fraction(1)
        for u, v in edges:
            p *= grid[assign[u]][assign[v]]
            if p == 0:
                break
        total += p
    return total / l**F.n
