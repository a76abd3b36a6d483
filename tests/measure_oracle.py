"""Measures computed the slow, direct way, as oracles for the package.

grid_integral_density integrates a step hypergraphon's membership over the
level midpoints of every simplex; ordered_edge_count and tv_distance are
definitions that only the tests read.
"""

import itertools
from fractions import Fraction
from math import factorial

from hyperlim.combinatorics import mask_bits
from hyperlim.hypergraphon import contains


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
