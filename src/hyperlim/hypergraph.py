"""Finite k-uniform hypergraphs and the exact density calculus.

A hypergraph is a set of k-element subsets of range(n); as a symmetric
repetition-free subset of n-tuples it has k! ordered edges per set. All
densities are exact rationals: t counts arbitrary maps, t0 injective maps,
and the induced variants additionally force non-edges onto non-edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import comb, factorial, prod
from typing import Optional

import numpy as np

from . import combinatorics, kernels, rng
from .combinatorics import (
    ROW_CAP,
    _check_rows,
    colex_matrix,
    colex_rank_rows,
    colex_unrank,
    falling,
)

MAX_CANONICAL_N = 10
MAX_FAMILY_VERTICES = 5
_BLOWUP_EDGE_CAP = 10**7
_BLOWUP_VERTEX_CAP = 10**6


def _check_shape(k, n):
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")


class Hypergraph:
    """Immutable k-uniform hypergraph on vertex set range(n).

    A hypergraph built from a membership mask (from_member) keeps only the
    mask; its edge set is listed on first use. The exact counts keep its
    host tensors in _tensors (_host_tensors).
    """

    __slots__ = ("k", "n", "_edges", "_member", "_tensors")

    def __init__(self, k: int, n: int, edges=()):
        _check_shape(k, n)
        norm = set()
        for e in edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) != k:
                raise ValueError(f"edge {t} does not have {k} vertices")
            if len(set(t)) != k:
                raise ValueError(f"edge {t} has a repeated vertex")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} leaves the vertex range 0..{n - 1}")
            norm.add(t)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_edges", frozenset(norm))
        object.__setattr__(self, "_member", None)
        object.__setattr__(self, "_tensors", {})

    @classmethod
    def from_member(cls, k: int, n: int, member) -> "Hypergraph":
        """The hypergraph whose edges are the k-subsets of range(n) marked
        nonzero in member, an indicator over all k-subsets in colex order."""
        _check_shape(k, n)
        m = np.asarray(member)
        rows = _check_rows(n, k)
        if m.shape != (rows,):
            raise ValueError(f"member must have length C({n}, {k}) = {rows}, got {m.shape}")
        m = (m != 0).view(np.uint8)
        m.setflags(write=False)
        G = object.__new__(cls)
        object.__setattr__(G, "k", k)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "_edges", None)
        object.__setattr__(G, "_member", m)
        object.__setattr__(G, "_tensors", {})
        return G

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def edges(self) -> frozenset:
        """The edges as sorted vertex tuples."""
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(map(tuple, self.edge_rows().tolist())))
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if (self.k, self.n) != (other.k, other.n):
            return False
        if self._member is not None and other._member is not None:
            return np.array_equal(self._member, other._member)
        return self.edges == other.edges

    def __hash__(self):
        return hash((self.k, self.n, self.edges))

    def __repr__(self):
        return f"Hypergraph(k={self.k}, n={self.n}, edges={self.edge_count})"

    @property
    def edge_count(self) -> int:
        if self._member is not None:
            return int(np.count_nonzero(self._member))
        return len(self._edges)

    def is_edge(self, subset) -> bool:
        return tuple(sorted(subset)) in self.edges

    def member_array(self) -> np.ndarray:
        """uint8 indicator over all k-subsets in colex order (cached).

        Raises ValueError, before allocating, when C(n, k) exceeds the row
        cap of combinatorics.
        """
        if self._member is None:
            m = np.zeros(_check_rows(self.n, self.k), dtype=np.uint8)
            if self._edges:
                rows = np.array(list(self._edges), dtype=np.int64)
                m[colex_rank_rows(rows, self.n)] = 1
            m.setflags(write=False)
            object.__setattr__(self, "_member", m)
        return self._member

    def complement(self) -> "Hypergraph":
        return Hypergraph.from_member(self.k, self.n, 1 - self.member_array())

    def relabel(self, perm) -> "Hypergraph":
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        return Hypergraph(self.k, self.n, ((perm[v] for v in e) for e in self.edges))

    def edge_rows(self) -> np.ndarray:
        """The edges as the rows of an int64 (edge_count, k) array, in colex
        order."""
        if self._member is not None:
            return colex_matrix(self.n, self.k)[self._member != 0]
        return np.array(self.sorted_edges(), dtype=np.int64).reshape(-1, self.k)

    def edge_blocks(self):
        """Yield the rows of edge_rows() in colex order, a block at a time.

        A mask-backed hypergraph unranks the edges among each CELL_BLOCK
        k-sets of its mask, so no array over all edges or k-sets is made;
        a set-backed one yields CELL_BLOCK-row slices of edge_rows().
        """
        block = combinatorics.CELL_BLOCK
        if self._member is None:
            rows = self.edge_rows()
            for a in range(0, len(rows), block):
                yield rows[a : a + block]
            return
        for a in range(0, len(self._member), block):
            yield colex_unrank(a + np.flatnonzero(self._member[a : a + block]), self.n, self.k)

    def sorted_edges(self) -> list:
        """The edges in colex order."""
        # colex order on sorted k-tuples is lexicographic order from the end
        return sorted(self.edges, key=lambda e: e[::-1])

    # constructors

    @classmethod
    def empty(cls, k, n):
        return cls(k, n)

    @classmethod
    def complete(cls, k, n):
        return cls.from_member(k, n, np.ones(_check_rows(n, k), dtype=np.uint8))

    @classmethod
    def single_edge(cls, k):
        return cls(k, k, [tuple(range(k))])

    @classmethod
    def random(cls, k, n, p, seed):
        """Each k-subset kept independently with probability p (seeded)."""
        thr = int(Fraction(p) * (1 << 64))
        if thr < 0 or thr > 1 << 64:
            raise ValueError("p must lie in [0, 1]")
        key = rng.derive(seed, rng.TAG_INIT)
        m = _check_rows(n, k)
        h = rng.np_mix64_range(key, 0, m)
        if thr >= 1 << 64:
            keep = np.ones(m, dtype=bool)
        else:
            keep = h < np.uint64(thr)
        return cls.from_member(k, n, keep)

    # serialization

    def to_obj(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "edges": self.edge_rows().tolist(),
        }

    @classmethod
    def from_obj(cls, obj) -> "Hypergraph":
        if not isinstance(obj, dict):
            raise ValueError("hypergraph object must be a mapping")
        for field in ("k", "n", "edges"):
            if field not in obj:
                raise ValueError(f"hypergraph object is missing field {field!r}")
        k, n, edges = obj["k"], obj["n"], obj["edges"]
        if not isinstance(edges, list):
            raise ValueError("field 'edges' must be a list")
        member = _member_of_edges(k, n, edges)
        if member is None:
            return cls(k, n, edges)
        return cls.from_member(k, n, member)


def _member_of_edges(k, n, edges):
    """The colex indicator of an edge list that needs no per-edge check:
    an integer (m, k) array whose sorted rows are distinct vertices of
    range(n), with C(n, k) within ROW_CAP. None for any other list, which
    the constructor then reads edge by edge, raising its messages on the
    first bad edge."""
    _check_shape(k, n)
    if comb(n, k) > ROW_CAP:
        return None
    try:
        rows = np.array(edges)
    except ValueError:  # ragged
        return None
    if rows.dtype.kind not in "iu" or rows.ndim != 2 or rows.shape[1] != k or not len(rows):
        return None
    rows.sort(axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any() or rows[:, 0].min() < 0 or rows[:, -1].max() >= n:
        return None
    member = np.zeros(comb(n, k), dtype=np.uint8)
    member[colex_rank_rows(rows, n)] = 1
    return member


@dataclass(frozen=True)
class VertexPartition:
    """Partition of range(base) into disjoint nonempty blocks."""

    base: int
    blocks: tuple

    def __init__(self, base, blocks):
        blocks = tuple(
            frozenset(int(v) for v in b) for b in blocks
        )
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            if seen & b:
                raise ValueError("blocks must be disjoint")
            seen |= b
        if seen != set(range(base)):
            raise ValueError("blocks must cover range(base)")
        blocks = tuple(sorted(blocks, key=min))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "blocks", blocks)

    def mobius_weight(self) -> int:
        """Partition-lattice Mobius weight prod (-1)^(|B|-1) (|B|-1)!."""
        return _mobius_weight(len(b) for b in self.blocks)


def _mobius_weight(sizes) -> int:
    """prod (-1)^(s-1) (s-1)! over the block sizes s of a partition."""
    return prod((-1) ** (s - 1) * factorial(s - 1) for s in sizes)


@dataclass(frozen=True)
class DensityRecord:
    """The four exact map densities of a pattern in a host.

    t0 and t0_ind are None when the pattern has more vertices than the host,
    where no injective map exists and the ratios are undefined.
    """

    t: Fraction
    t0: Optional[Fraction]
    t_ind: Fraction
    t0_ind: Optional[Fraction]


def _check_arity(F: Hypergraph, H: Hypergraph):
    if F.k != H.k:
        raise ValueError(f"arity mismatch: pattern k={F.k}, host k={H.k}")


def _search_order(F: Hypergraph) -> list:
    """Vertex order that closes edges as early as possible (greedy): each
    step takes the vertex closing the most edges, then the one of highest
    degree, then the least."""
    edges = list(F.edges)
    inc = [[] for _ in range(F.n)]  # the edges at each vertex
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    missing = [F.k] * len(edges)  # vertices of each edge not yet chosen
    remaining = list(range(F.n))
    chosen = []
    while remaining:
        best = max(remaining, key=lambda v: (sum(missing[i] == 1 for i in inc[v]), len(inc[v]), -v))
        chosen.append(best)
        remaining.remove(best)
        for i in inc[best]:
            missing[i] -= 1
    return chosen


def _constraints(F: Hypergraph, induced: bool = False):
    """(subs, flags), two Python lists: F's edges in colex order, each
    flagged 1 (onto an edge), or, induced, every k-subset of V(F) in colex
    order, flagged 1 or 0 (onto a non-edge) by F's member table."""
    if induced:
        return colex_matrix(F.n, F.k).tolist(), F.member_array().tolist()
    edges = F.sorted_edges()
    return edges, [1] * len(edges)


def _search_rows(F: Hypergraph, subs) -> list:
    """subs with each vertex renamed by its place in _search_order(F), the
    frontier's vertex order."""
    depth = [0] * F.n
    for d, v in enumerate(_search_order(F)):
        depth[v] = d
    return [[depth[v] for v in s] for s in subs]


def _induced_kernel(F: Hypergraph, H: Hypergraph, injective: bool) -> int:
    # for k >= 2 every map meeting all k-subset constraints is injective and
    # found by the frontier; at k = 1 marked pattern vertices go onto marked
    # host vertices (the edges), the others onto the others
    if F.k == 1 or F.n < F.k:
        a, e = (F.edge_count, int(np.count_nonzero(H.member_array()))) if F.n >= F.k else (0, 0)
        count = falling if injective else pow
        return count(e, a) * count(H.n - e, F.n - a)
    return _search_count(F, H, True, injective)


def _host_tensor(H: Hypergraph) -> np.ndarray:
    """H as a read-only symmetric 0/1 tensor over k-tuples: zero on every
    tuple that repeats a vertex."""
    T = np.zeros((H.n,) * H.k, dtype=np.int64)
    E = H.edge_rows()
    if E.size:
        for p in permutations(range(H.k)):
            T[tuple(E[:, p].T)] = 1
    T.setflags(write=False)
    return T


def _host_tensors(H: Hypergraph, flags) -> dict:
    """The host tensors H keeps, of H (flag 1) and of its complement (flag
    0), each flag listed built on first use."""
    for flag in set(flags) - H._tensors.keys():
        H._tensors[flag] = _host_tensor(H if flag else H.complement())
    return H._tensors


def _has_tensor(H: Hypergraph) -> bool:
    return H.n**H.k <= kernels.CONTRACT_CAP


def _eval_maps_count(H: Hypergraph, maps, subs, flags) -> int:
    """kernels.eval_maps_count over H's tensors if no larger than the map checks, else its member table."""
    if H.n**H.k <= maps.shape[0] * len(subs):
        return kernels.eval_maps_count(maps, subs, flags, None, H.n, _host_tensors(H, flags))
    return kernels.eval_maps_count(maps, subs, flags, H.member_array(), H.n)


def _frontier(F, H, rows, flags, injective, budget=None) -> Optional[int]:
    """kernels.induced_count over F's constraint rows in search order,
    reading the host tensors when they fit and the member table otherwise:
    None past budget candidate cells, or, with no budget given, a
    ValueError past FRONTIER_BUDGET."""
    if _has_tensor(H):
        member, tensors = None, _host_tensors(H, flags)
    else:
        member, tensors = H.member_array(), None  # refuses an oversized host before allocating
    got = kernels.induced_count(F.n, H.n, rows, flags, member, injective, tensors, budget)
    if got is None and budget is None:
        raise ValueError(
            f"--F, --H: the exact count needs more than FRONTIER_BUDGET = {kernels.FRONTIER_BUDGET}"
            " candidate cells of frontier search"
        )
    return got


def _search_count(F: Hypergraph, H: Hypergraph, induced=False, injective=False) -> int:
    """Count of maps, injective if asked, meeting _constraints(F, induced), by frontier search."""
    subs, flags = _constraints(F, induced)
    return _frontier(F, H, _search_rows(F, subs), flags, injective)


def _contract_count(F: Hypergraph, H: Hypergraph, steps=None):
    """hom(F, H) by kernels.contract alone, one factor per edge of F; None
    when the host has no tensor or the plan refuses, before the tensor is
    built."""
    subs, _ = _constraints(F)
    if steps is None:
        steps = kernels.contraction_plan(subs, H.n) if _has_tensor(H) else None
        if steps is None:
            return None
    T = _host_tensors(H, (1,))[1]
    return kernels.contract([(s, T) for s in subs], F.n, H.n, steps)


def _proper_partitions(F: Hypergraph):
    """Yield, as restricted growth strings (vertex v's block, numbered in
    order of first use), the partitions of V(F) that put no two vertices of
    one edge in a block: v joins an open block that holds none of its
    earlier neighbours in F's 2-shadow, or opens the next one."""
    earlier = [set() for _ in range(F.n)]
    for e in F.edges:
        for a, b in combinations(e, 2):
            earlier[b].add(a)
    lab = [0] * F.n

    def grow(v, blocks):
        if v == F.n:
            yield tuple(lab)
            return
        for b in range(blocks + 1):
            if all(lab[u] != b for u in earlier[v]):
                lab[v] = b
                yield from grow(v + 1, max(blocks, b + 1))

    return grow(0, 0)


def _mobius_count(F: Hypergraph, H: Hypergraph) -> int:
    """The injective count as the partition-lattice Mobius sum: over the
    proper partitions P of V(F), mobius_weight(P) times hom(F/P, H), each
    contracted as _map_count's cost model priced it, or by _map_count when
    its plan refuses; a partition merging two vertices of an edge has no
    homomorphism and is never built."""
    total = 0
    for lab in _proper_partitions(F):
        size = [0] * (max(lab, default=-1) + 1)
        for b in lab:
            size[b] += 1
        Q = _quotient_of_labels(F, lab, len(size))
        got = _contract_count(Q, H)
        total += _mobius_weight(size) * (_map_count(Q, H) if got is None else got)
    return total


def _map_count(F: Hypergraph, H: Hypergraph, injective=False) -> int:
    """hom(F, H), of injective maps if asked, by the path of lower
    predicted cost: the frontier search (kernels.frontier_cost) against one
    contraction (kernels.contraction_cost), or, for an injective count,
    against the Mobius sum, whose cost is F's contraction cost times its
    number of proper partitions. The prediction reads no table; the host
    tensor is built, and kept on H, once the path is chosen. A frontier
    search writes one debug record with both predicted costs. It examines
    at most as many candidate cells as the other path's predicted cost, or
    FRONTIER_BUDGET, and past them gives way to that path, with a second
    record; with no other path it raises a ValueError instead."""
    subs, flags = _constraints(F)
    if not subs:  # no constraints at all
        return falling(H.n, F.n) if injective else H.n**F.n
    if injective and F.n > H.n:
        return 0
    rows = _search_rows(F, subs)
    edge_share = H.edge_count / comb(H.n, H.k) if H.n >= H.k else 0.0
    frontier = kernels.frontier_cost(F.n, H.n, rows, edge_share, injective)
    steps = kernels.contraction_plan(subs, H.n) if _has_tensor(H) else None
    other = None if steps is None else kernels.contraction_cost(steps, H.n)
    if injective and other is not None:
        # proper partitions are counted only as far as the product passes
        # FRONTIER_BUDGET, past which the frontier could not finish anyway
        other *= sum(1 for _ in islice(_proper_partitions(F), kernels.FRONTIER_BUDGET // other + 1))
    if other is None or frontier < other:
        import logging  # here, not at the top: a CLI call that never searches skips its import

        log = logging.getLogger(__name__)
        log.debug(
            "%s by frontier search, predicted cost %.0f against %s for the %s: n = %d, |V(F)| = %d",
            "injective hom" if injective else "hom",
            frontier, "none" if other is None else "%.0f" % other,
            "Mobius sum" if injective else "contraction", H.n, F.n,
        )
        # the edge-share model can price a clustered host's frontier far
        # too low: past the other path's whole predicted cost it gives way
        budget = None if other is None else min(other, kernels.FRONTIER_BUDGET)
        got = _frontier(F, H, rows, flags, injective, budget)
        if got is not None:
            return got
        log.debug(
            "frontier search passed %d candidate cells: falling back to the %s",
            budget, "Mobius sum" if injective else "contraction",
        )
    if injective:
        return _mobius_count(F, H)
    return _contract_count(F, H, steps)


def hom(F: Hypergraph, H: Hypergraph, mode: str = "all") -> int:
    """Count maps V(F) -> V(H) sending every edge of F onto an edge of H.

    mode "all" counts arbitrary maps, mode "injective" injective ones, each
    by the path _map_count predicts cheaper: the frontier search of
    kernels.induced_count, or else one tensor contraction with a factor per
    edge of F (mode "all") or the partition-lattice inversion, the sum over
    the partitions P of V(F) that merge no two vertices of an edge of
    mobius_weight(P) times hom(F/P, H) (mode "injective").
    """
    _check_arity(F, H)
    if mode not in ("all", "injective"):
        raise ValueError(f"unknown hom mode {mode!r}")
    return _map_count(F, H, mode == "injective")


def injective_hom_brute(F: Hypergraph, H: Hypergraph) -> int:
    """Injective homomorphisms by the frontier search alone (inversion
    oracle)."""
    _check_arity(F, H)
    return _search_count(F, H, injective=True)


def quotient(F: Hypergraph, partition) -> Optional[Hypergraph]:
    """Merge each block of the partition to a single vertex.

    Returns None (the degenerate marker) when some edge loses a vertex to a
    merge; such collapses carry no homomorphisms.
    """
    if not isinstance(partition, VertexPartition):
        partition = VertexPartition(F.n, partition)
    if partition.base != F.n:
        raise ValueError("partition base does not match the vertex count")
    lab = [0] * F.n
    for i, b in enumerate(partition.blocks):
        for v in b:
            lab[v] = i
    return _quotient_of_labels(F, lab, len(partition.blocks))


def _quotient_of_labels(F: Hypergraph, lab, blocks: int) -> Optional[Hypergraph]:
    """quotient of F by the partition putting vertex v in block lab[v] of
    range(blocks); None when some edge loses a vertex to a merge."""
    edges = set()
    for e in F.edges:
        im = tuple(sorted(lab[v] for v in e))
        if len(set(im)) != F.k:
            return None
        edges.add(im)
    return Hypergraph(F.k, blocks, edges)


def densities(F: Hypergraph, H: Hypergraph) -> DensityRecord:
    """Exact t, t0, t_ind, t0_ind of pattern F in host H."""
    _check_arity(F, H)
    if H.n == 0:
        raise ValueError("host must have at least one vertex")
    v = F.n
    t = Fraction(_map_count(F, H), H.n**v)
    ind = _induced_kernel(F, H, False)
    t_ind = Fraction(ind, H.n**v)
    if v <= H.n:
        fall = falling(H.n, v)
        t0 = Fraction(_map_count(F, H, True), fall)
        if F.k == 1 or v < F.k:  # otherwise the count above is already injective
            ind = _induced_kernel(F, H, True)
        t0_ind = Fraction(ind, fall)
    else:
        t0 = None
        t0_ind = None
    return DensityRecord(t=t, t0=t0, t_ind=t_ind, t0_ind=t0_ind)


def blowup(H: Hypergraph, t: int) -> Hypergraph:
    """Replace each vertex with t clones; each edge becomes t**k edges."""
    if not isinstance(t, int) or t < 1:
        raise ValueError("blowup factor must be a positive integer")
    if H.n * t > _BLOWUP_VERTEX_CAP or H.edge_count * t**H.k > _BLOWUP_EDGE_CAP:
        raise ValueError("blowup exceeds the size cap")
    edges = []
    for e in H.edges:
        for clones in product(range(t), repeat=H.k):
            edges.append(tuple(sorted(v * t + c for v, c in zip(e, clones))))
    return Hypergraph(H.k, H.n * t, edges)


# ---------------------------------------------------------------------------
# isomorphism and canonical forms

def _encode(H: Hypergraph, perm) -> tuple:
    return tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in H.edges))


@lru_cache(maxsize=1024)
def canonical_form(H: Hypergraph) -> tuple:
    """Lexicographically minimal edge encoding over all relabelings.

    Brute force over n! permutations, cached by (k, n, edges) for the most
    recent hypergraphs; capped at n <= 10.
    """
    if H.n > MAX_CANONICAL_N:
        raise ValueError(f"canonical form capped at n <= {MAX_CANONICAL_N}")
    best = None
    for perm in permutations(range(H.n)):
        enc = _encode(H, perm)
        if best is None or enc < best:
            best = enc
    return best


def is_isomorphic(H1: Hypergraph, H2: Hypergraph) -> bool:
    """Backtracking vertex-bijection search with degree pruning."""
    if H1.k != H2.k or H1.n != H2.n or H1.edge_count != H2.edge_count:
        return False
    n = H1.n
    deg1 = [0] * n
    deg2 = [0] * n
    for e in H1.edges:
        for v in e:
            deg1[v] += 1
    for e in H2.edges:
        for v in e:
            deg2[v] += 1
    if sorted(deg1) != sorted(deg2):
        return False
    order = _search_order(H1)
    depth_of = {v: i for i, v in enumerate(order)}
    closing = [[] for _ in range(n)]
    for e in H1.edges:
        closing[max(depth_of[v] for v in e)].append(e)

    mapping = [-1] * n
    used = [False] * n

    def rec(d):
        if d == n:
            return True
        v = order[d]
        for w in range(n):
            if used[w] or deg1[v] != deg2[w]:
                continue
            mapping[v] = w
            used[w] = True
            ok = True
            for e in closing[d]:
                im = tuple(sorted(mapping[x] for x in e))
                if im not in H2.edges:
                    ok = False
                    break
            if ok and rec(d + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    return rec(0)


@lru_cache(maxsize=None)
def enumerate_canonical(k: int, v: int) -> tuple:
    """All isomorphism classes of k-uniform hypergraphs on v vertices.

    Canonical representatives, sorted by (edge count, encoding); capped at
    v <= 5 where exhaustive enumeration stays cheap. The edge-set bitmasks
    are walked in ascending order, and canonical_form runs once per class:
    the first bitmask of a class marks its whole S_v orbit as seen.
    """
    if v > MAX_FAMILY_VERTICES:
        raise ValueError(f"enumeration capped at v <= {MAX_FAMILY_VERTICES}")
    subs = list(combinations(range(v), k))
    index = {e: i for i, e in enumerate(subs)}
    # moves[p][i]: the index of k-subset i's image under relabeling p
    moves = [[index[tuple(sorted(p[x] for x in e))] for e in subs] for p in permutations(range(v))]
    seen, forms = set(), []
    for bits in range(1 << len(subs)):
        if bits in seen:
            continue
        on = [i for i in range(len(subs)) if bits >> i & 1]
        forms.append(canonical_form(Hypergraph(k, v, [subs[i] for i in on])))
        seen.update(sum(1 << mv[i] for i in on) for mv in moves)
    return tuple(Hypergraph(k, v, f) for f in sorted(forms, key=lambda f: (len(f), f)))


def canonical_family(k: int, max_vertices: int) -> list:
    """Concatenated canonical classes on 1..max_vertices vertices."""
    fam = []
    for v in range(1, min(max_vertices, MAX_FAMILY_VERTICES) + 1):
        fam.extend(enumerate_canonical(k, v))
    return fam


def density_equivalent(H1: Hypergraph, H2: Hypergraph, check_size: int = 10) -> bool:
    """Whether the two hosts have a common blowup (same limit object).

    Builds the cross blowups and tests isomorphism when they fit inside
    check_size vertices; otherwise falls back to comparing exact densities
    t(F, .) over every canonical pattern with at most min(check_size, 5)
    vertices, a necessary condition at any size.
    """
    _check_arity(H1, H2)
    if H1.n == 0 or H2.n == 0:
        return H1.n == H2.n
    cross = H1.n * H2.n
    if cross <= min(check_size, MAX_CANONICAL_N):
        return is_isomorphic(blowup(H1, H2.n), blowup(H2, H1.n))
    for F in canonical_family(H1.k, check_size):
        tF1 = Fraction(hom(F, H1), H1.n**F.n)
        tF2 = Fraction(hom(F, H2), H2.n**F.n)
        if tF1 != tF2:
            return False
    return True
