"""Measures computed the slow, direct way, as oracles for the package.

contains reads a point's membership off the level grid, exactly at level
boundaries, and projected_value the measure of a fiber over the full mask;
grid_integral_density integrates a step hypergraphon's membership over the
level midpoints of every simplex; ordered_edge_count and tv_distance are
definitions that only the tests read.
"""

import itertools
from fractions import Fraction
from math import factorial

from hyperlim.combinatorics import cell_grid, mask_bits
from hyperlim.hypergraphon import StepHypergraphon


def _levels_of(values, count: int, l: int, what: str) -> tuple:
    """Exact 0-based levels of the first count mask coordinates of a point,
    given as a mask-indexed dict or a sequence."""
    if isinstance(values, dict):
        seq = [values[m] for m in range(1, count + 1)]
    else:
        seq = list(values)
    if len(seq) != count:
        raise ValueError(f"{what} needs {count} coordinates")
    cell = []
    for x in seq:
        p, q = (x if hasattr(x, "as_integer_ratio") else Fraction(x)).as_integer_ratio()
        if not 0 <= p < q:
            raise ValueError("point coordinates must lie in [0, 1)")
        cell.append(p * l // q)
    return tuple(cell)


def _grid(W):
    return cell_grid(W.member_table(), W.k, W.l)


def contains(W, p) -> bool:
    """Pointwise membership; half-open boxes, exact at level boundaries."""
    if isinstance(W, StepHypergraphon):
        return bool(_grid(W)[_levels_of(p, (1 << W.k) - 1, W.l, "point")])
    if not isinstance(p, dict):
        seq = list(p)
        p = {m: seq[m - 1] for m in range(1, 1 << W.k)}
    return W.contains_point(p)


def projected_value(W, q) -> Fraction:
    """Measure of the fiber over a point with every mask but the full one.

    q maps each proper mask to a coordinate; the result is the fraction of
    full-mask levels whose completed cell is a box.
    """
    levels = _levels_of(q, (1 << W.k) - 2, W.l, "projected point")
    return Fraction(int(_grid(W)[levels].sum()), W.l)


def grid_integral_density(F, W):
    """Integrate the membership indicator over level midpoints directly."""
    k, l = W.k, W.l
    simplices = []
    for r in range(1, k + 1):
        simplices.extend(itertools.combinations(range(F.n), r))
    width = (1 << k) - 1
    mid = [Fraction(2 * j - 1, 2 * l) for j in range(1, l + 1)]
    hit = 0
    for levels in itertools.product(range(l), repeat=len(simplices)):
        f = dict(zip(simplices, levels))
        ok = True
        for e in F.edges:
            e = tuple(sorted(e))
            p = {
                m: float(mid[f[tuple(e[i] for i in mask_bits(m))]])
                for m in range(1, width + 1)
            }
            if not contains(W, p):
                ok = False
                break
        if ok:
            hit += 1
    return Fraction(hit, l ** len(simplices))


def ordered_edge_count(H) -> int:
    """Size of H as a symmetric subset of n-tuples: k! per edge."""
    return factorial(H.k) * H.edge_count


def tv_distance(a, b) -> Fraction:
    """Total variation distance between two level-map distributions."""
    if (a.v, a.k, a.l) != (b.v, b.k, b.l):
        raise ValueError("distributions live on different map spaces")
    pa = {tuple(r): int(c) for r, c in zip(a.maps.tolist(), a.counts.tolist())}
    pb = {tuple(r): int(c) for r, c in zip(b.maps.tolist(), b.counts.tolist())}
    gap = Fraction(0)
    for key in set(pa) | set(pb):
        gap += abs(Fraction(pa.get(key, 0), a.total) - Fraction(pb.get(key, 0), b.total))
    return gap / 2
