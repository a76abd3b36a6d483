"""Seeded sampling of finite hypergraphs from hosts and hypergraphons.

Every coordinate is a pure function of (seed, subset counter), so samples
are reproducible byte for byte and independent of evaluation order. For a
step hypergraphon the edge decision is exact integer arithmetic on hashed
levels; floats only surface for general membership predicates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from . import combinatorics, kernels, rng
from .combinatorics import (
    _cell_member_count,
    _check_rows,
    arity_offsets,
    ascii_digits,
    colex_matrix,
    subset_counters,
)
from .hypergraph import Hypergraph
from .hyperpartition import Hyperpartition, cells_union
from .hypergraphon import GeneralHypergraphon, StepHypergraphon

_GENERAL_SUBSET_CAP = 2 * 10**5


@dataclass(frozen=True)
class SampleRecord:
    """A sampled hypergraph together with what produced it."""

    sample: Hypergraph
    seed: int
    source: dict

    def to_obj(self) -> dict:
        return {
            "sample": self.sample.to_obj(),
            "seed": self.seed,
            "source": self.source,
        }


def _label_text(labels: np.ndarray) -> bytes:
    """Positive int labels as comma-separated decimal text, built as bytes."""
    if not len(labels):
        return b""
    width = len(str(int(labels.max())))
    text = np.full((len(labels), width + 1), ord(","), dtype=np.uint8)
    text[:, :width] = ascii_digits(labels, width)
    return text[text != 0][:-1].tobytes()


def _digest(hp: Hyperpartition) -> str:
    """The first 16 hex digits of the sha256 of hp.to_obj() as compact
    sorted-key JSON; the labels are written by _label_text, not json.dumps."""
    arities = sorted(map(str, range(1, hp.k + 1)))  # as JSON sorts the keys: "10" before "2"
    labels = b",".join(b'"%s":[%s]' % (r.encode(), _label_text(hp.labels[int(r)])) for r in arities)
    k, l, n = (json.dumps(x).encode() for x in (hp.k, hp.l, hp.n))
    return hashlib.sha256(b'{"k":%s,"l":%s,"labels":{%s},"n":%s}' % (k, l, labels, n)).hexdigest()[:16]


def sample_vertex(H: Hypergraph, n: int, seed: int) -> Hypergraph:
    """Random vertex sample: n iid uniform picks from V(H), with replacement.

    The k-set {i_1..i_k} is an edge iff the picked vertices are distinct and
    form an edge of H; k-sets hitting a repeated pick are non-edges, so a
    host with fewer than k vertices gives the edgeless sample.
    """
    if H.n == 0:
        raise ValueError("host must have at least one vertex")
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = H.k
    member = H.member_array()  # refuses an oversized host before allocating
    if comb(n, k) == 0 or H.n < k:
        return Hypergraph(k, n)
    key = rng.derive(seed, rng.TAG_VERTEX)
    h = rng.np_mix64_range(key, 0, n)
    picks = (h % np.uint64(H.n)).astype(np.int64)
    ksets = colex_matrix(n, k)
    out = np.empty(len(ksets), dtype=bool)
    block = combinatorics.CELL_BLOCK
    for a in range(0, len(ksets), block):  # the picks of CELL_BLOCK k-sets at a time
        rows = picks[ksets[a : a + block]]
        out[a : a + block] = kernels.member_keep(rows, [list(range(k))], [1], member, H.n)
    return Hypergraph.from_member(k, n, out)


# most level changes the full-mask thresholds take: each costs a compare and
# an xor pass, and past four the level shift and member gather of a
# power-of-two l cost less
_THRESHOLD_CAP = 4


def _level_bounds(flips, l: int):
    """(bounds, premixed): the least word of level i for each i in flips,
    as uint64, and whether all of them are multiples of rng.PREMIX_GRAIN,
    so that words need no final xor-shift to be compared with them."""
    bounds = [rng.level_start(int(i), l) for i in flips]
    return [np.uint64(b) for b in bounds], all(b % rng.PREMIX_GRAIN == 0 for b in bounds)


def _threshold_hits(words, first: bool, bounds, out, tmp):
    """Into the bool array out: first XOR whether an odd number of bounds
    lie at or below each word; tmp is a bool array of words' shape."""
    (np.less if first else np.greater_equal)(words, bounds[0], out=out)
    for b in bounds[1:]:
        out ^= np.greater_equal(words, b, out=tmp)
    return out


def _top_thresholds(W):
    """(first, bounds, premixed) of the hash thresholds of W's member table
    when that table reads the full mask alone, through at most
    _THRESHOLD_CAP level changes; None otherwise.

    level_of is monotone in the hash, so the marked levels are runs of
    hash words between rng.level_start bounds: first is whether level 0 is
    marked, and a word's mark flips at every bound at or below it.
    """
    used, member = W.used_axes()
    if used != ((1 << W.k) - 2,):
        return None
    flips = np.flatnonzero(member[1:] != member[:-1]) + 1
    if len(flips) > _THRESHOLD_CAP:
        return None
    return (bool(member[0]),) + _level_bounds(flips, W.l)


def _step_edge_mask(W: StepHypergraphon, n: int, key: int, out=None) -> int:
    """Edge count of the step sample; with out, its edge mask is written there.

    Each block of k-subsets may be evaluated alone: a subset's level is a
    pure function of (key, global counter), so a block reads the same
    counters and the same levels as a whole-array pass would, and gives the
    same bytes at any block size and thread count. Blocks of k-subsets are
    hashed into one pair of CELL_BLOCK buffers that this call owns, so a
    sample allocates nothing per block.

    A member table with _top_thresholds computes no level: a k-subset is an
    edge when its hash word lies in a marked run, and bounds that are
    multiples of rng.PREMIX_GRAIN (those of every power-of-two l <= 2**31)
    are compared before the final xor-shift. Other tables go through
    combinatorics._cell_member_count.
    """
    k, l = W.k, W.l
    top = arity_offsets(n, k)[k - 1]
    rows, block = _check_rows(n, k), combinatorics.CELL_BLOCK
    h = np.empty(min(block, rows), dtype=np.uint64)
    scratch = np.empty_like(h)
    runs = _top_thresholds(W)
    if runs is not None:
        first, bounds, premixed = runs
        mix = rng._premix64_range if premixed else rng.np_mix64_range
        hits, tmp = np.empty(len(h), dtype=bool), np.empty(len(h), dtype=bool)
        count = 0
        for a in range(0, rows, block):
            m = min(block, rows - a)
            words = mix(key, top + a, top + a + m, h[:m], scratch[:m])
            dst = hits[:m] if out is None else out[a : a + m].view(np.bool_)
            count += int(np.count_nonzero(_threshold_hits(words, first, bounds, dst, tmp[:m])))
        return count

    def level(lo, hi):  # one hash per subset, at its global counter
        if lo < top:  # the lower arities, kept across blocks: their own array
            return rng.np_level_of(rng.np_mix64_range(key, lo, hi), l)
        words = rng.np_mix64_range(key, lo, hi, h[: hi - lo], scratch[: hi - lo])
        return rng.np_level_of(words, l, out=words)  # read before the next block

    return _cell_member_count(W, level, n, out)


def sample_w_edge_count(
    W: StepHypergraphon, n: int, seed: int, hp: Optional[Hyperpartition] = None
) -> int:
    """Edge count of the step sample; unrestricted, it materializes nothing."""
    _validate_sample_w(W, n, hp)
    if hp is not None:
        return cells_union(hp, W).edge_count
    return _step_edge_mask(W, n, rng.derive(seed, rng.TAG_LEVELS))


def _validate_sample_w(W, n, hp):
    if n < 0:
        raise ValueError("n must be nonnegative")
    if hp is not None:
        if not isinstance(W, StepHypergraphon):
            raise ValueError("hyperpartition restriction needs a step hypergraphon")
        if hp.n != n or hp.k != W.k or hp.l != W.l:
            raise ValueError("hyperpartition shape does not match (W, n)")


def sample_w(
    W,
    n: int,
    seed: int,
    hp: Optional[Hyperpartition] = None,
) -> SampleRecord:
    """Random hypergraph from a hypergraphon: one uniform per subset.

    Each subset S of arity <= k receives an independent coordinate (confined
    to its hyperpartition subinterval when hp is given, which fixes its level
    at W's resolution: the sample is then cells_union(hp, W)); a k-set is an
    edge iff the point assembled from its subset coordinates lies in W.
    """
    _validate_sample_w(W, n, hp)
    k = W.k
    if isinstance(W, StepHypergraphon):
        if hp is None:
            mask = np.empty(_check_rows(n, k), dtype=np.uint8)
            _step_edge_mask(W, n, rng.derive(seed, rng.TAG_LEVELS), mask)
            sample = Hypergraph.from_member(k, n, mask)
        else:
            sample = cells_union(hp, W)
        source = {
            "kind": "step",
            "n": n,
            "w": W.to_obj(),
            "restricted": hp is not None,
        }
        if hp is not None:
            source["hp_digest"] = _digest(hp)
        return SampleRecord(sample=sample, seed=seed, source=source)
    if not isinstance(W, GeneralHypergraphon):
        raise ValueError("W must be a step or general hypergraphon")
    offs = arity_offsets(n, k)
    if offs[k] > _GENERAL_SUBSET_CAP:
        raise ValueError("general-predicate sampling capped at small n")
    # the coordinate of every subset, read at its global counter
    u = rng.np_u01(rng.np_mix64_range(rng.derive(seed, rng.TAG_LEVELS), 0, offs[k])).tolist()
    rows = np.vstack([subset_counters(n, k), np.arange(offs[k - 1], offs[k])]).T
    member = [W.contains_point({m: u[c] for m, c in enumerate(row, 1)}) for row in rows.tolist()]
    sample = Hypergraph.from_member(k, n, np.array(member, dtype=np.uint8))
    source = {"kind": "general", "n": n, "k": k, "restricted": False}
    return SampleRecord(sample=sample, seed=seed, source=source)
