"""Layered partitions of bounded-arity subsets and cell structures.

A hyperpartition assigns one of l labels to every nonempty subset of
range(n) of size at most k, stored as one array indexed by global subset
counter (arity offset plus colex rank). Ordered k-tuples with distinct entries then acquire a cell
coordinate: the tuple of labels of their position subsets. A combinatorial
structure is a permutation-closed set of cells; its union pulled back
through a hyperpartition is an ordinary hypergraph. _constraint_cells lists
the simplex at each mask of every pattern constraint that
hypergraph._constraints builds, for both structure densities here
(uniform, and under a level-map distribution) and the Monte Carlo density
in hypergraphon.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb
from typing import Optional

import numpy as np

from . import combinatorics, kernels, rng
from .combinatorics import (
    _cell_member_count,
    _check_rows,
    _used_axes,
    adjacent_mask_perms,
    arity_offsets,
    cell_grid,
    cell_weights,
    colex_matrix,
    colex_rank,
    colex_rank_rows,
    falling,
    mask_bits,
    mask_perms,
    subset_counters,
)
from .hypergraph import Hypergraph, _constraints

_MEMBER_CAP = 1 << 24


def _check_nkl(n, k, l):
    if k < 1 or l < 1 or n < 0:
        raise ValueError("need n >= 0, k >= 1, l >= 1")


class Hyperpartition:
    """Labels in 1..l for every subset of range(n) of arity 1..k, kept in one
    read-only array by global counter; labels[r] is its r-subsets' slice."""

    __slots__ = ("n", "k", "l", "labels", "_flat")

    def __init__(self, n: int, k: int, l: int, labels):
        _check_nkl(n, k, l)
        parts = [np.zeros(0, dtype=np.int64)]  # arities with no subset may be left out
        for r in range(1, k + 1):
            want = comb(n, r)
            if r not in labels and str(r) not in labels:
                if want == 0:
                    continue
                raise ValueError(f"labels missing arity {r}")
            arr = np.asarray(labels[r] if r in labels else labels[str(r)], dtype=np.int64)
            if arr.shape != (want,):
                raise ValueError(f"labels[{r}] must have length {want}, got {arr.shape}")
            if want and (arr.min() < 1 or arr.max() > l):
                raise ValueError(f"labels[{r}] must take values in 1..{l}")
            parts.append(arr)
        self._adopt(n, k, l, np.concatenate(parts))

    @classmethod
    def _from_flat(cls, n, k, l, flat) -> "Hyperpartition":
        """Labels already in 1..l, by global counter; int64 ones are kept."""
        _check_nkl(n, k, l)
        self = object.__new__(cls)
        self._adopt(n, k, l, np.asarray(flat, dtype=np.int64))
        return self

    def _adopt(self, n, k, l, flat):
        flat.setflags(write=False)
        offs = arity_offsets(n, k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "labels", {r: flat[offs[r - 1] : offs[r]] for r in range(1, k + 1)})

    def __setattr__(self, name, value):
        raise AttributeError("Hyperpartition is immutable")

    def __eq__(self, other):
        if not isinstance(other, Hyperpartition):
            return NotImplemented
        return (self.n, self.k, self.l) == (other.n, other.k, other.l) and np.array_equal(self._flat, other._flat)

    def __repr__(self):
        return f"Hyperpartition(n={self.n}, k={self.k}, l={self.l})"

    def label(self, subset) -> int:
        t = _vertex_subset(subset, range(1, self.k + 1), self.n, f"1 to {self.k}")
        return int(self.labels[len(t)][colex_rank(t)])

    def flat_labels(self) -> np.ndarray:
        """A writable copy of all labels; index = global subset counter."""
        return self._flat.copy()

    def class_sizes(self, r: int) -> np.ndarray:
        return np.bincount(self.labels[r], minlength=self.l + 1)[1:]

    def class_hypergraph(self, r: int, j: int) -> Hypergraph:
        """The r-uniform hypergraph formed by the subsets labeled j."""
        return Hypergraph.from_member(r, self.n, self.labels[r] == j)

    def equitability_deficit(self) -> Fraction:
        """Largest normalized class-size gap over all arities."""
        totals = [(r, comb(self.n, r)) for r in range(1, self.k + 1)]
        return max((Fraction(int(np.ptp(self.class_sizes(r))), t) for r, t in totals if t), default=Fraction(0))

    @classmethod
    def uniform_random(cls, n, k, l, seed):
        """Independent uniform labels, one hash counter per subset."""
        for r in range(1, k + 1):
            _check_rows(n, r)  # before any label array is allocated
        h = rng.np_mix64_range(rng.derive(seed, rng.TAG_PARTITION), 0, arity_offsets(n, k)[k])
        return cls._from_flat(n, k, l, rng.np_level_of(h, l, out=h) + 1)

    @classmethod
    def round_robin(cls, n, k, l):
        """Deterministic equitable labels: colex rank modulo l, plus one."""
        rows = [_check_rows(n, r) for r in range(1, k + 1)]
        labels = {r: np.arange(m, dtype=np.int64) % l + 1 for r, m in enumerate(rows, 1)}
        return cls(n, k, l, labels)

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "labels": {str(r): self.labels[r].tolist() for r in range(1, self.k + 1)},
        }

    @classmethod
    def from_obj(cls, obj) -> "Hyperpartition":
        if not isinstance(obj, dict):
            raise ValueError("hyperpartition object must be a mapping")
        for field in ("n", "k", "l", "labels"):
            if field not in obj:
                raise ValueError(f"hyperpartition object is missing field {field!r}")
        return cls(obj["n"], obj["k"], obj["l"], obj["labels"])


def _vertex_subset(subset, sizes, n: int, what) -> tuple:
    """subset as a sorted tuple of ints, or a ValueError naming it unless
    it holds a number in sizes of distinct vertices of range(n)."""
    t = tuple(subset)
    if not (
        len(t) in sizes
        and all(isinstance(v, numbers.Integral) and 0 <= v < n for v in t)
        and len(set(t)) == len(t)
    ):
        raise ValueError(f"subset {t} is not {what} distinct vertices in range({n})")
    return tuple(sorted(int(v) for v in t))


def cell_coordinate(hp: Hyperpartition, tup) -> tuple:
    """Cell of an ordered tuple of k distinct vertices.

    Position mask m (bit i-1 for position i) maps to the label of the
    vertex subset sitting at those positions; entry m-1 of the result.
    """
    t = tuple(tup)
    _vertex_subset(t, (hp.k,), hp.n, hp.k)
    return tuple(hp.label([t[b] for b in mask_bits(m)]) for m in range(1, 1 << hp.k))


def member_size(k, l) -> int:
    """Length l**(2**k - 1) of the member table at arity k over l levels.

    k and l must be integers >= 1. The table holds at most _MEMBER_CAP
    cells, and cell_grid gives it one axis per mask, at most 63 of them;
    k is checked before 2**k is formed, so a huge k costs nothing.
    """
    for name, v in (("k", k), ("l", l)):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
    size = int(l) ** ((1 << int(k)) - 1) if k <= 6 else None
    if size is None or size > _MEMBER_CAP:
        raise ValueError(
            f"k={k}, l={l}: the member table of l**(2**k - 1) cells exceeds the"
            f" size cap of {_MEMBER_CAP} cells on at most 63 mask axes"
        )
    return size


class CombinatorialStructure:
    """Permutation-closed set of cells over labels 1..l at arity k.

    Stored as its member table, a read-only uint8 indicator over the
    mixed-radix cell codes; the S_k action on it is combinatorics.mask_perms.
    """

    __slots__ = ("k", "l", "_member", "_cells", "_used")
    # the JSON field that lists the cells, and the noun its errors use
    _FIELD, _WHAT = "cells", "structure"

    def __init__(self, k: int, l: int, cells, symmetrize: bool = False):
        member = np.zeros(member_size(k, l), dtype=np.uint8)
        width = (1 << k) - 1
        norm = []
        for c in cells:
            c = tuple(int(x) for x in c)
            if len(c) != width:
                raise ValueError(f"cell {c} must have {width} entries")
            if any(not 1 <= x <= l for x in c):
                raise ValueError(f"cell {c} has labels outside 1..{l}")
            norm.append(c)
        member[(np.array(norm, dtype=np.int64).reshape(-1, width) - 1) @ cell_weights(k, l)] = 1
        self._adopt(k, l, member, symmetrize)

    @classmethod
    def from_member(cls, k: int, l: int, member) -> "CombinatorialStructure":
        """Structure of a member table over cell codes; raises unless the
        table has length l**(2**k - 1) and is S_k-closed."""
        self = object.__new__(cls)
        self._adopt(k, l, np.asarray(member), False)
        return self

    def _adopt(self, k, l, member, symmetrize):
        size = member_size(k, l)
        if member.shape != (size,):
            raise ValueError(f"member table must have shape ({size},), got {member.shape}")
        grid = cell_grid(member != 0, k, l)
        if symmetrize:
            closed = np.zeros_like(grid)
            for row in mask_perms(k):
                closed |= grid.transpose(row)
            grid = closed
        elif not all(np.array_equal(grid, grid.transpose(row)) for row in adjacent_mask_perms(k)):
            # the adjacent transpositions generate S_k; the whole group is
            # scanned only to name the same cell whichever generator failed
            for row in mask_perms(k):
                moved = grid.transpose(row)
                if not np.array_equal(grid, moved):
                    c = tuple((np.argwhere(grid > moved)[0] + 1).tolist())
                    raise ValueError(
                        f"cells not S_k-closed: {c} present without its"
                        " coordinate permutations (pass symmetrize=True)"
                    )
        member = grid.ravel(order="F").astype(np.uint8)
        member.setflags(write=False)
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "l", int(l))
        object.__setattr__(self, "_member", member)
        object.__setattr__(self, "_cells", None)
        object.__setattr__(self, "_used", None)

    @classmethod
    def _retype(cls, other: "CombinatorialStructure"):
        """other as an instance of cls, sharing its member table and caches;
        the table is closed already, so closure is not checked again."""
        self = object.__new__(cls)
        for name in CombinatorialStructure.__slots__:
            object.__setattr__(self, name, getattr(other, name))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def cells(self) -> frozenset:
        """The cells as tuples of levels 1..l, one entry per mask (cached)."""
        if self._cells is None:
            object.__setattr__(self, "_cells", frozenset(map(tuple, self.sorted_cells())))
        return self._cells

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.k, self.l) == (other.k, other.l) and np.array_equal(self._member, other._member)

    def __hash__(self):
        return hash((self.k, self.l, self._member.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, l={self.l}, {self._FIELD}={np.count_nonzero(self._member)})"

    @property
    def measure(self) -> Fraction:
        return Fraction(int(np.count_nonzero(self._member)), self._member.size)

    def member_table(self) -> np.ndarray:
        """uint8 indicator over mixed-radix cell codes (read-only)."""
        return self._member

    def used_axes(self) -> tuple:
        """(used, reduced): the mask axes membership depends on, and the
        member table over them (combinatorics._used_axes; cached)."""
        if self._used is None:
            object.__setattr__(self, "_used", _used_axes(self._member, self.k, self.l))
        return self._used

    @classmethod
    def all_cells(cls, k, l):
        return cls.from_member(k, l, np.ones(member_size(k, l), dtype=np.uint8))

    @classmethod
    def empty(cls, k, l):
        return cls.from_member(k, l, np.zeros(member_size(k, l), dtype=np.uint8))

    @classmethod
    def from_top_labels(cls, k, l, top_labels):
        """Cells whose full-mask label lies in top_labels (always closed)."""
        tops = sorted({int(t) - 1 for t in top_labels})
        if not set(tops) <= set(range(l)):
            raise ValueError(f"top labels must lie in 1..{l}")
        # the full mask is the most significant digit of a cell code
        return cls.from_member(k, l, np.isin(np.arange(member_size(k, l)) // l ** ((1 << k) - 2), tops))

    def sorted_cells(self) -> list:
        """The cells in ascending order, read off the level grid."""
        return (np.argwhere(cell_grid(self._member, self.k, self.l)) + 1).tolist()

    def to_obj(self) -> dict:
        """The cells in ascending order as mask-keyed dicts under _FIELD."""
        keys = [str(m) for m in range(1, 1 << self.k)]
        return {"k": self.k, "l": self.l, self._FIELD: [dict(zip(keys, c)) for c in self.sorted_cells()]}

    @classmethod
    def from_obj(cls, obj, symmetrize: bool = False):
        """Read back to_obj's layout; errors name cls._WHAT and cls._FIELD."""
        what, field = cls._WHAT, cls._FIELD
        if not isinstance(obj, dict):
            raise ValueError(f"{what} object must be a mapping")
        for name in ("k", "l", field):
            if name not in obj:
                raise ValueError(f"{what} object is missing field {name!r}")
        try:
            member_size(obj["k"], obj["l"])
        except ValueError as exc:
            raise ValueError(f"{what} object: {exc}") from None
        width = (1 << obj["k"]) - 1
        cells = []
        for i, c in enumerate(obj[field]):
            if not isinstance(c, dict):
                raise ValueError(f"{field}[{i}] must be a mapping of mask to label")
            try:
                cells.append(tuple(c[str(m)] for m in range(1, width + 1)))
            except KeyError as exc:
                raise ValueError(f"{field}[{i}] is missing mask {exc.args[0]}") from None
        return cls(obj["k"], obj["l"], cells, symmetrize=symmetrize)


def cells_union(hp: Hyperpartition, structure: CombinatorialStructure) -> Hypergraph:
    """Hypergraph of the k-subsets whose sorted-tuple cell lies in the
    structure (well defined because the structure is permutation-closed)."""
    if hp.k != structure.k or hp.l != structure.l:
        raise ValueError("hyperpartition and structure disagree on (k, l)")
    mask = np.empty(_check_rows(hp.n, hp.k), dtype=np.uint8)
    _cell_member_count(structure, lambda lo, hi: hp._flat[lo:hi] - 1, hp.n, mask)
    return Hypergraph.from_member(hp.k, hp.n, mask)


# ---------------------------------------------------------------------------
# densities against structures


@dataclass(frozen=True)
class LevelMapDistribution:
    """Finitely supported distribution over label maps of a small base set.

    Rows of maps assign a label to every subset of range(v) of arity 1..k
    (arity-major colex order, as listed in simplices); counts carry the
    weight of each row out of total.
    """

    v: int
    k: int
    l: int
    simplices: tuple
    maps: np.ndarray
    counts: np.ndarray
    total: int


def empirical_level_maps(
    v: int,
    hp: Hyperpartition,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    exhaustive: bool = False,
) -> LevelMapDistribution:
    """Distribution of the label map pulled back along a random injection.

    A uniform injective map g of range(v) into the partition's ground set
    induces subset labels S -> label(g(S)); this returns its distribution,
    exactly (all injections) or empirically (seeded sample).
    """
    n, k, l = hp.n, hp.k, hp.l
    if v > n:
        raise ValueError("need v <= n for injective maps")
    if exhaustive:
        if falling(n, v) > 10**6:
            raise ValueError("too many injections for exhaustive enumeration")
        picks = np.array(list(permutations(range(n), v)), dtype=np.int64)
        picks = picks.reshape(-1, v)
    else:
        if samples is None or seed is None:
            raise ValueError("sampled mode needs samples and seed")
        key = rng.derive(seed, rng.TAG_MAPS)
        picks = kernels.injective_maps(samples, v, n, key)
    simplices = _level_simplices(v, k)
    cols = []
    for s in simplices:
        sub = np.sort(picks[:, list(s)], axis=1)
        cols.append(hp.labels[len(s)][colex_rank_rows(sub, n)])
    maps = np.stack(cols, axis=1) if cols else np.zeros((picks.shape[0], 0), np.int64)
    rows, counts = np.unique(maps, axis=0, return_counts=True)
    return LevelMapDistribution(
        v=v,
        k=k,
        l=l,
        simplices=simplices,
        maps=rows,
        counts=counts.astype(np.int64),
        total=int(picks.shape[0]),
    )


def _level_simplices(v: int, k: int) -> tuple:
    """Subsets of range(v) of arity 1..k, arity-major, colex within."""
    out = []
    for r in range(1, min(k, v) + 1):
        out.extend(map(tuple, colex_matrix(v, r).tolist()))
    return tuple(out)


def _constraint_cells(F: Hypergraph, k: int, induced: bool, simplices=None):
    """(simplices, cidx, flags): row c of cidx holds the index in simplices
    (by default _level_simplices) of the subset at each mask of constraint
    c of hypergraph._constraints(F, induced), and flags[c] says whether its
    cell must be inside (1) or outside."""
    if simplices is None:
        simplices = _level_simplices(F.n, k)
    index = {tuple(s): i for i, s in enumerate(simplices)}
    cons, flags = _constraints(F, induced)
    try:
        rows = [[index[tuple(c[b] for b in mask_bits(m))] for m in range(1, 1 << k)] for c in cons]
    except KeyError as exc:
        raise ValueError(f"simplices do not list the subset {exc.args[0]}") from None
    cidx = np.array(rows, dtype=np.int64).reshape(len(cons), (1 << k) - 1)
    return simplices, cidx, np.array(flags, dtype=np.uint8)


def structure_density(
    F: Hypergraph,
    structure: CombinatorialStructure,
    distribution: Optional[LevelMapDistribution] = None,
    *,
    induced: bool = False,
) -> Fraction:
    """Probability that a random label map realizes F inside the structure.

    Under the uniform map (distribution None) this is exact, one
    contraction (kernels.contract) over the labels of the proper
    sub-simplices: tops of distinct constraints are distinct, so each
    constraint contributes an independent count of admissible top labels.
    A constraint reads only the lower masks of structure.used_axes().
    Instances whose contraction exceeds the cap raise ValueError. With a
    distribution, the probability is taken under its weights instead.
    """
    if F.k != structure.k:
        raise ValueError(f"arity mismatch: pattern k={F.k}, structure k={structure.k}")
    k, l = structure.k, structure.l
    if distribution is not None:
        return _distribution_density(F, structure, distribution, induced)
    simplices, cidx, flags = _constraint_cells(F, k, induced)
    if not len(cidx):
        return Fraction(1)
    # the variables are the simplices of arity below k, listed first; those
    # that no scope holds are free variables of the contraction
    nvars = sum(len(s) < k for s in simplices)
    # admissible top labels per labelling of the used lower masks: the top
    # mask is the last axis, and l labels pass alike when it is unused
    used, reduced = structure.used_axes()
    grid = reduced.reshape((l,) * len(used), order="F")
    top = (1 << k) - 2
    inside = grid.sum(axis=-1, dtype=np.int64) if top in used else l * grid.astype(np.int64)
    tables = (l - inside, inside)
    lower = [m for m in used if m != top]
    factors = [([row[m] for m in lower], tables[flag]) for row, flag in zip(cidx.tolist(), flags)]
    count = kernels.contract(factors, nvars, l)
    if count is None:
        raise ValueError("exact structure density instance too large")
    return Fraction(count, l ** (nvars + len(cidx)))


def _distribution_density(F, structure, dist, induced):
    if dist.v != F.n or dist.k != structure.k or dist.l != structure.l:
        raise ValueError("distribution does not match the pattern and structure")
    _, cidx, flags = _constraint_cells(F, structure.k, induced, dist.simplices)
    if not len(cidx):
        return Fraction(1)
    good = kernels.cells_keep((dist.maps - 1).T, cidx, flags, structure)
    return Fraction(int(dist.counts[good].sum()), dist.total)


# ---------------------------------------------------------------------------
# cylinder regularity


def _cylinder_count(samples) -> int:
    """samples as an int, or a ValueError unless it is an integer >= 1."""
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"cylinder_samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sampled cylinder")
    return int(samples)


def _sampled_cylinders(n: int, r: int, keys, samples: int) -> np.ndarray:
    """(len(keys), samples, r, C(n, r-1)) bools: part i of cylinder c under
    key K holds the (r-1)-subsets hashed under rng.derive(K, c * r + i) to
    a word with its top bit set, hashed CELL_BLOCK words at a time."""
    base = comb(n, r - 1)
    part_keys = rng.np_mix64_keys(keys, samples * r).ravel()
    parts = np.empty((len(part_keys), base), dtype=bool)
    step = max(1, combinatorics.CELL_BLOCK // max(base, 1))
    for a in range(0, len(part_keys), step):
        np.greater_equal(rng.np_mix64_keys(part_keys[a : a + step], base), 1 << 63, out=parts[a : a + step])
    return parts.reshape(len(keys), samples, r, base)


def _cylinder_arrays(n: int, r: int, family, seed):
    """A cylinder family as bools (cylinders, r, C(n, r-1)): a count
    samples that many under seed, anything else lists the parts."""
    base = comb(n, r - 1)
    if isinstance(family, numbers.Integral):
        samples = _cylinder_count(family)
        if seed is None:
            raise ValueError("sampled cylinders need a seed")
        return _sampled_cylinders(n, r, [rng.derive(seed, rng.TAG_CYLINDER)], samples)[0]
    fams = []
    for c, tup in enumerate(family):
        tup = tuple(tup)
        if len(tup) != r:
            raise ValueError(f"each cylinder needs {r} parts")
        parts = np.zeros((r, base), dtype=bool)
        for i, part in enumerate(tup):
            if isinstance(part, Hypergraph):
                if part.k != r - 1 or part.n != n:
                    raise ValueError("cylinder part has the wrong arity or ground set")
                parts[i] = part.member_array() != 0
            else:
                try:
                    rows = [_vertex_subset(s, (r - 1,), n, r - 1) for s in part]
                except ValueError as e:
                    raise ValueError(f"cylinder {c} part {i}: {e}") from None
                parts[i, colex_rank_rows(np.array(rows, dtype=np.int64).reshape(-1, r - 1), n)] = True
        fams.append(parts)
    if not fams:
        raise ValueError("cylinder family must be nonempty")
    return np.stack(fams)


def _cylinder_deficit(labels, parts, eps, n: int, r: int) -> Fraction:
    """Worst density deviation of a label class inside its large cylinders.

    labels gives each r-subset of range(n), in colex order, a class in 1..L
    or 0 for none; parts[q, c] holds the r parts of cylinder c of class
    q + 1. Blocks of CELL_BLOCK // (L * C) subsets gather every (part,
    face) pair of every cylinder at once, OR one AND per ordering of the
    faces and count the subsets in each cylinder, and those of its class.
    """
    L, C = parts.shape[:2]
    Q, total = L * C, len(labels)
    by_face = np.ascontiguousarray(np.moveaxis(parts.reshape(Q, r, -1), 0, -1))  # [part, face, cylinder]
    # face j of a sorted subset drops the j-th smallest element: its colex
    # rank is its counter at mask full ^ (1 << j), less the arity offset
    full, low = (1 << r) - 1, arity_offsets(n, r)[r - 2]
    faces = [subset_counters(n, r)[(full ^ (1 << j)) - 1] for j in range(r)]
    sizes, inter = np.zeros(Q, dtype=np.int64), np.zeros((L, C), dtype=np.int64)
    block = max(1, combinatorics.CELL_BLOCK // Q)
    for a in range(0, total, block):
        b = min(a + block, total)
        hit = [[np.take(part, face[a:b] - low, axis=0) for face in faces] for part in by_face]
        inside = np.zeros((b - a, Q), dtype=bool)
        for tau in permutations(range(r)):
            inside |= np.logical_and.reduce([hit[i][j] for j, i in enumerate(tau)])
        sizes += np.count_nonzero(inside, axis=0)
        own = labels[a:b, None, None] == np.arange(1, L + 1)[:, None]  # [subset, class, 1]
        inter += np.count_nonzero(inside.reshape(b - a, L, C) & own, axis=0)
    # a cylinder of s subsets, i of them in its class of d, deviates by |d * s - i * total|
    # / (total * s), int64 below 2**48 (total <= ROW_CAP); floats pick the worst's candidates
    dev = np.abs(np.repeat(np.bincount(labels, minlength=L + 1)[1:], C) * sizes - inter.ravel() * total)
    large = np.flatnonzero(sizes >= max(1, -(-eps.numerator * total // eps.denominator)))
    score = dev[large] / sizes[large]
    near = large[score > score.max(initial=0) * (1 - 2.0**-40)]  # none when every score is 0
    return max((Fraction(int(dev[q]), total * int(sizes[q])) for q in near), default=Fraction(0))


def regularity_deficit(G: Hypergraph, cylinders, eps, seed=None) -> Fraction:
    """Worst density deviation of G inside large cylinder intersections.

    A cylinder is built from r parts of arity r-1: a subset S belongs to it
    when some ordering of its r faces hits the parts one each. Only
    cylinders holding at least eps * C(n, r) subsets count; arity-1 graphs
    have only trivial cylinders and report zero.
    """
    r, n = G.k, G.n
    if not 2 <= r <= n:  # arity 1, or no r-subsets
        return Fraction(0)
    return _cylinder_deficit(G.member_array(), _cylinder_arrays(n, r, cylinders, seed)[None], Fraction(eps), n, r)


def partition_delta(hp: Hyperpartition, cylinder_samples: int, eps_cut, seed) -> Fraction:
    """The worse of hp's equitability deficit and the regularity deficit of
    every label class of arity >= 2, one _cylinder_deficit pass per arity;
    class (r, j) samples its cylinders under derive(seed, TAG_CYLINDER, r, j)."""
    delta = hp.equitability_deficit()
    for r in range(2, min(hp.k, hp.n) + 1):  # no r-subsets past n
        keys = [rng.derive(seed, rng.TAG_CYLINDER, r, j, rng.TAG_CYLINDER) for j in range(1, hp.l + 1)]
        parts = _sampled_cylinders(hp.n, r, keys, _cylinder_count(cylinder_samples))
        delta = max(delta, _cylinder_deficit(hp.labels[r], parts, Fraction(eps_cut), hp.n, r))
    return delta
