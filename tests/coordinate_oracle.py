"""Subset coordinates one subset at a time, with exact rational values.

The package's samplers read every coordinate through vectorized hashes of
the global subset counters; this scalar form, with its restriction to a
hyperpartition's label intervals, stays here as their independent oracle.
"""

from fractions import Fraction
from typing import Optional

from hyperlim import rng
from hyperlim.combinatorics import arity_offsets, colex_rank
from hyperlim.hyperpartition import Hyperpartition


class CoordinateSystem:
    """Lazy uniform coordinates for the subsets of range(n) of arity <= k.

    With a restricting hyperpartition, the value of S is confined to the
    g(S)-th of l half-open subintervals; its level at resolution l is then
    g(S) - 1 by construction.
    """

    __slots__ = ("n", "k", "seed", "restriction", "_key", "_offsets")

    def __init__(self, n, k, seed, restriction: Optional[Hyperpartition] = None):
        if restriction is not None and (restriction.n != n or restriction.k != k):
            raise ValueError("restriction must live on the same ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "restriction", restriction)
        object.__setattr__(self, "_key", rng.derive(seed, rng.TAG_LEVELS))
        object.__setattr__(self, "_offsets", arity_offsets(n, k))

    def __setattr__(self, name, value):
        raise AttributeError("CoordinateSystem is immutable")

    def counter(self, subset) -> int:
        t = tuple(sorted(subset))
        if len(set(t)) != len(t) or not 1 <= len(t) <= self.k:
            raise ValueError("subset must have 1..k distinct vertices")
        if t[0] < 0 or t[-1] >= self.n:
            raise ValueError("subset leaves the vertex range")
        return self._offsets[len(t) - 1] + colex_rank(t)

    def exact_value(self, subset) -> Fraction:
        """The coordinate as an exact dyadic-over-l rational."""
        h = rng.mix64(self._key, self.counter(subset))
        u = Fraction(h, 1 << 64)
        if self.restriction is None:
            return u
        g = self.restriction.label(subset)
        return Fraction(g - 1 + u, self.restriction.l)

    def value(self, subset) -> float:
        # truncate like u01 so float comparisons agree with exact levels
        h = rng.mix64(self._key, self.counter(subset))
        u = rng.u01(h)
        if self.restriction is None:
            return u
        g = self.restriction.label(subset)
        return (g - 1 + u) / self.restriction.l

    def level(self, subset, l: int) -> int:
        """Exact level of the coordinate at resolution l."""
        x = self.exact_value(subset)
        return int(x * l)
