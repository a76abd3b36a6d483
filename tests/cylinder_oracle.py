"""Cylinder regularity as one class and one cylinder at a time.

The reference of hyperpartition's one-pass deficits: every sampled part
is hashed by its own range call, every cylinder gathers its faces and
ORs one AND per ordering of them, and partition_delta builds each label
class as a hypergraph and scores it alone.
"""

from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np

from hyperlim import rng
from hyperlim.combinatorics import arity_offsets, colex_rank_rows, subset_counters


def loop_cylinders(n, r, family, seed):
    """A family as a list of r-tuples of bool arrays over C(n, r-1): a count
    samples part i of cylinder c from the top bits of the range keyed by
    rng.derive(seed, TAG_CYLINDER, c * r + i); otherwise each part lists
    its (r-1)-subsets."""
    base = comb(n, r - 1)
    if isinstance(family, int):
        return [
            tuple(
                rng.np_mix64_range(rng.derive(seed, rng.TAG_CYLINDER, c * r + i), 0, base) >> np.uint64(63) != 0
                for i in range(r)
            )
            for c in range(family)
        ]
    fams = []
    for tup in family:
        parts = []
        for part in tup:
            arr = np.zeros(base, dtype=bool)
            rows = np.array([sorted(s) for s in part], dtype=np.int64).reshape(-1, r - 1)
            arr[colex_rank_rows(rows, n)] = True
            parts.append(arr)
        fams.append(tuple(parts))
    return fams


def loop_regularity_deficit(G, cylinders, eps, seed=None):
    r, n = G.k, G.n
    eps = Fraction(eps)
    total = comb(n, r)
    if r == 1 or total == 0:
        return Fraction(0)
    full = (1 << r) - 1
    low = arity_offsets(n, r)[r - 2]
    faces = [subset_counters(n, r)[(full ^ (1 << j)) - 1] - low for j in range(r)]
    g_mask = G.member_array() != 0
    g_dens = Fraction(G.edge_count, total)
    worst = Fraction(0)
    for parts in loop_cylinders(n, r, cylinders, seed):
        hit = [[part[face] for face in faces] for part in parts]
        in_l = np.zeros(total, dtype=bool)
        for tau in permutations(range(r)):
            in_l |= np.logical_and.reduce([hit[i][j] for j, i in enumerate(tau)])
        size = int(in_l.sum())
        if Fraction(size, total) < eps or size == 0:
            continue
        worst = max(worst, abs(g_dens - Fraction(int((g_mask & in_l).sum()), size)))
    return worst


def loop_partition_delta(hp, cylinder_samples, eps_cut, seed):
    delta = hp.equitability_deficit()
    for r in range(2, hp.k + 1):
        for j in range(1, hp.l + 1):
            d = loop_regularity_deficit(
                hp.class_hypergraph(r, j),
                cylinder_samples,
                eps_cut,
                seed=rng.derive(seed, rng.TAG_CYLINDER, r, j),
            )
            delta = max(delta, d)
    return delta
