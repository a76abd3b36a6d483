"""Exact step quantities read over every mask axis, as oracles for the
used-axes paths of the package.

full_grid_structure_density contracts over every simplex of arity below k;
full_grid_refined_member refines all 2**k - 1 axes to L levels, and
full_grid_d1 and full_grid_delta1_upper read the distance and the
relabeling bound off those refined grids. Each gives the value, witness
and report of the package on every input it accepts.
"""

from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm

import numpy as np

from hyperlim import kernels, rng
from hyperlim.combinatorics import cell_digits, cell_grid, mask_bits
from hyperlim.hyperpartition import _constraint_cells
from hyperlim.metrics import _REFINE_CAP, DistanceReport


def full_grid_structure_density(F, structure, induced=False) -> Fraction:
    """structure_density under the uniform map, one factor per constraint
    over all of its lower simplices."""
    k, l = structure.k, structure.l
    simplices, cidx, flags = _constraint_cells(F, k, induced)
    if not len(cidx):
        return Fraction(1)
    nvars = sum(len(s) < k for s in simplices)
    inside = cell_grid(structure.member_table(), k, l).sum(axis=-1, dtype=np.int64)
    tables = (l - inside, inside)
    factors = [(row[:-1], tables[flag]) for row, flag in zip(cidx.tolist(), flags)]
    count = kernels.contract(factors, nvars, l)
    if count is None:
        raise ValueError("exact structure density instance too large")
    return Fraction(count, l ** (nvars + len(cidx)))


def full_grid_refined_member(structure, L) -> np.ndarray:
    """Membership of the L-level refinement on every axis, by cell code."""
    k, l = structure.k, structure.l
    width = (1 << k) - 1
    if L**width > _REFINE_CAP:
        raise ValueError("refined grid too large for exact mode")
    grid = cell_grid(structure.member_table(), k, l)
    for i in range(width):
        grid = np.repeat(grid, L // l, axis=i)
    return grid.ravel(order="F")


def full_grid_d1(U, W) -> DistanceReport:
    """Exact d1 on the refined grids, witnessed by the least differing code."""
    L = lcm(U.l, W.l)
    width = (1 << U.k) - 1
    diff = full_grid_refined_member(U, L) != full_grid_refined_member(W, L)
    count = int(diff.sum())
    witness = None
    if count:
        code = int(np.flatnonzero(diff)[0])
        witness = {"box": (cell_digits(code, U.k, L) + 1).tolist(), "levels": L}
    return DistanceReport(
        value=Fraction(count, L**width),
        kind="exact",
        witness=witness,
        budget={"mode": "exact", "levels": L},
    )


def full_grid_delta1_upper(U, W, budget=4096, seed=0) -> DistanceReport:
    """delta1_upper with every relabeling scored on the full refined grids:
    the same exhaustive scan and seeded hill climb."""
    L = lcm(U.l, W.l)
    k = U.k
    width = (1 << k) - 1
    gridU, gridW = (cell_grid(full_grid_refined_member(V, L), k, L) for V in (U, W))
    arities = [len(mask_bits(m)) for m in range(1, 1 << k)]
    denom = L**width

    def value_of(perms):
        return int((gridU[np.ix_(*(perms[a - 1] for a in arities))] != gridW).sum())

    total_space = factorial(L) ** k
    if total_space <= budget:
        mode, evals = "exhaustive", total_space
        best_perms = min(product(permutations(range(L)), repeat=k), key=value_of)
        best = value_of(best_perms)
    else:
        mode, evals = "hill_climb", 0
        best = best_perms = None
        moves = [(r, a, b) for r in range(k) for a in range(L) for b in range(a + 1, L)]
        ridx = 0
        while evals < budget:
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
