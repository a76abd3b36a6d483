"""Subset indexing, position masks, and small-group combinatorics.

Vertex subsets are identified with their colex rank so label data can live
in flat numpy arrays; colex_rank_rows(rows, n) ranks rows of subsets of
range(n) and colex_unrank turns ranks back into rows. Both read the cached
binomial table comb_table, which no other module builds. Offset by the
number of subsets of smaller arity (arity_offsets), a rank becomes a global
counter over every subset of arity <= k, the one index of a
hyperpartition's labels. subset_counters lists those counters for the
proper sub-subsets of every k-subset, and cell_codes reads per-subset
levels through them and the k-subsets' own counters;
_cell_member_count does the same in cache-sized blocks of k-subsets, reads
only the masks its member table depends on, and looks each block's codes
up in that table. Subsets of the position set {1..k} are bitmasks: bit i-1
set means position i is in the subset, so masks run from 1 to 2**k - 1 and
cell coordinates are tuples indexed by mask - 1. This module alone knows
the cell code that indexes every member table: digit m-1 is the 0-based
level of mask m. mask_perms holds the action of permuting the k positions
on those digits, the one orbit layer for closure checks, symmetrizing and
orbit codes.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import permutations
from math import comb

import numpy as np


def falling(n: int, r: int) -> int:
    """Falling factorial n (n-1) ... (n-r+1)."""
    out = 1
    for i in range(r):
        out *= n - i
    return out


def colex_rank(subset) -> int:
    """Rank of a strictly increasing vertex tuple in colex order."""
    r = 0
    for i, a in enumerate(subset):
        r += comb(a, i + 1)
    return r


@lru_cache(maxsize=None)
def comb_table(n: int, r: int) -> np.ndarray:
    """Binomial table, shape (n+1, r+1); entry [a, b] is C(a, b)."""
    t = np.zeros((n + 1, r + 1), dtype=np.int64)
    t[:, 0] = 1
    for b in range(1, r + 1):
        # C(a, b) is the sum of C(x, b - 1) over x < a
        np.cumsum(t[:-1, b - 1], out=t[1:, b])
    t.setflags(write=False)
    return t


# most subsets one colex_matrix or subset_counters call may list; samples
# at n=2000, k=2 (C(2000, 2), about 2.0e6 rows) stay well below it
ROW_CAP = 1 << 24


def _check_rows(n: int, r: int) -> int:
    rows = comb(n, r)
    if rows > ROW_CAP:
        raise ValueError(
            f"n={n}: the {rows} subsets of arity {r} exceed the {ROW_CAP}-row cap"
        )
    return rows


@lru_cache(maxsize=None)
def colex_matrix(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) as rows in colex order, shape (C(n,r), r).

    The (j-1)-subsets of range(a) are the first C(a, j-1) rows of the colex
    list over any larger ground set, so column by column the j-subsets of
    range(n-r+j) are prefix rows of the previous matrix plus a last element.
    """
    rows = _check_rows(n, r)
    m = np.zeros((min(rows, 1), 0), dtype=np.int64)
    for j in range(1, r + 1 if rows else 0):
        g = n - r + j
        nxt = np.empty((comb(g, j), j), dtype=np.int64)
        at = 0
        for a in range(j - 1, g):
            c = comb(a, j - 1)
            nxt[at : at + c, :-1] = m[:c]
            nxt[at : at + c, -1] = a
            at += c
        m = nxt
    m = m.reshape(rows, r)
    m.setflags(write=False)
    return m


def colex_rank_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Vectorized colex_rank over the rows of a sorted-subset matrix whose
    entries lie in range(n), through the cached comb_table(n, width)."""
    ct = comb_table(n, rows.shape[1])
    out = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(rows.shape[1]):
        out += ct[rows[:, i], i + 1]
    return out


def colex_insert_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """Colex ranks, among the subsets of range(n) one wider than the rows of
    a sorted-subset matrix, of each row with one vertex w of range(n)
    inserted, as a (len(rows), n) array, with no sort: with j elements s_i
    below w, the rank is the sum of C(s_i, i + 1) over i < j, C(w, j + 1)
    and the sum of C(s_i, i + 2) over i >= j. Entries whose w is already in
    the row are meaningless."""
    m = rows.shape[1]
    ct = comb_table(n, m + 1)
    w = np.arange(n)
    below = (rows[:, :, None] < w).sum(axis=1)
    # below[r, x] = j picks the sums over i < j and over i >= j
    lower = np.zeros((rows.shape[0], m + 1), dtype=np.int64)
    np.cumsum(ct[rows, np.arange(1, m + 1)], axis=1, out=lower[:, 1:])
    upper = np.zeros_like(lower)
    np.cumsum(ct[rows, np.arange(2, m + 2)][:, ::-1], axis=1, out=upper[:, -2::-1])
    return np.take_along_axis(lower, below, 1) + ct[w, below + 1] + np.take_along_axis(upper, below, 1)


def colex_unrank(ranks, n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) with the given colex ranks, as the rows of
    an int64 (len(ranks), k) array; the inverse of colex_rank_rows.

    Element j of a subset is the largest a with C(a, j) at most what is
    left of its rank once the elements above j are taken off, so each arity
    above 1 is one searchsorted over a comb_table column, and the first
    element is what is left at the end (C(a, 1) = a).
    """
    left = np.array(ranks, dtype=np.int64)
    out = np.empty((len(left), k), dtype=np.int64)
    ct = comb_table(n, k)
    for j in range(k, 1, -1):
        col = np.ascontiguousarray(ct[:, j])
        a = np.searchsorted(col, left, side="right") - 1
        out[:, j - 1] = a
        left -= col[a]
    out[:, 0] = left
    return out


def arity_offsets(n: int, k: int) -> list:
    """offsets[r-1] = number of subsets of arity < r; one slot per subset."""
    out = []
    acc = 0
    for r in range(1, k + 1):
        out.append(acc)
        acc += comb(n, r)
    out.append(acc)
    return out


_counters_lock = threading.Lock()


def subset_counters(n: int, k: int) -> np.ndarray:
    """Counters of the proper sub-subsets of every k-subset, shape
    (2**k - 2, C(n, k)).

    Row m-1 holds, for the k-subsets of range(n) in colex order, the global
    counter (arity offset plus colex rank) of the subset at the positions
    of mask m < 2**k - 1. The full mask has no row: its counters are
    offs[k-1] .. offs[k]-1 in order (arity_offsets). Rows are contiguous so
    that each mask is one gather; entries are int32 while the subset total
    allows. Cached and read-only.
    """
    with _counters_lock:  # lru_cache builds unlocked, so each thread that missed would build
        return _subset_counters(n, k)


@lru_cache(maxsize=4)
def _subset_counters(n: int, k: int) -> np.ndarray:
    rows = _check_rows(n, k)
    offs = arity_offsets(n, k)
    table = np.empty(((1 << k) - 2, rows), dtype=np.int32 if offs[k] < 1 << 31 else np.int64)
    km = colex_matrix(n, k)
    for m in range(1, (1 << k) - 1):
        bits = list(mask_bits(m))
        table[m - 1] = offs[len(bits) - 1] + colex_rank_rows(km[:, bits], n)
    table.setflags(write=False)
    return table


subset_counters.cache_info = _subset_counters.cache_info
subset_counters.cache_clear = _subset_counters.cache_clear


def cell_weights(k: int, l: int) -> np.ndarray:
    """Digit weights of the mixed-radix cell code: mask m weighs l**(m-1)."""
    return np.array([l**i for i in range((1 << k) - 1)], dtype=np.int64)


def cell_digits(codes, k: int, l: int) -> np.ndarray:
    """0-based levels of cell codes, shape codes.shape + (2**k - 1,)."""
    return np.asarray(codes, dtype=np.int64)[..., None] // cell_weights(k, l) % l


def ascii_digits(values, width: int) -> np.ndarray:
    """Decimal digits of nonnegative ints as ASCII bytes, shape
    values.shape + (width,), right-aligned. Leading zeros are zero bytes,
    so dropping every zero byte leaves the decimal text; the JSON writers
    build their number text this way."""
    v = np.asarray(values, dtype=np.int64)
    out = np.empty(v.shape + (width,), dtype=np.uint8)
    for j in range(width):
        place = 10 ** (width - 1 - j)
        out[..., j] = np.where((v >= place) | (place == 1), 48 + v // place % 10, 0)
    return out


def cell_grid(member: np.ndarray, k: int, l: int) -> np.ndarray:
    """A member table as the level grid: axis m-1 holds the level of mask m."""
    return member.reshape((l,) * ((1 << k) - 1), order="F")


def cell_codes(levels: np.ndarray, n: int, k: int, l: int) -> np.ndarray:
    """Cell code of every k-subset of range(n), in colex order.

    levels holds a level in 0..l-1 for every subset of arity <= k, indexed
    by global counter; digit m-1 of a code is the level of the subset at
    the positions of mask m.
    """
    offs, weights = arity_offsets(n, k), cell_weights(k, l)
    code = levels[offs[k - 1] : offs[k]] * weights[-1]  # the k-subsets in colex order
    for row, w in zip(subset_counters(n, k), weights):
        code += levels[row] * w
    return code


# k-subsets per block of _cell_member_count: a block's int64 codes (512 KB)
# and its gathers stay in cache, where whole C(n, k) arrays do not
CELL_BLOCK = 1 << 16


def _used_axes(member: np.ndarray, k: int, l: int):
    """(used, reduced): the 0-based mask axes on which membership can change,
    ascending, and the member table over those axes alone.

    Axis m-1 is unused when the level grid equals its slice at level 0 of
    mask m broadcast along that axis; such a digit never moves a cell in or
    out. The reduced table is the grid with every unused axis dropped, read
    as a cell code whose i-th used axis weighs l**i.
    """
    grid = cell_grid(member, k, l)
    used = []
    for m in range(grid.ndim):
        first = grid[(slice(None),) * m + (slice(0, 1),)]
        if (grid == first).all():
            grid = first  # the later axes are then checked on this slice alone
        else:
            used.append(m)
    reduced = grid.ravel(order="F")  # unused axes now have length 1
    reduced.setflags(write=False)
    return tuple(used), reduced


def _cell_member_count(cells, level, n: int, out=None) -> int:
    """Count the k-subsets of range(n) whose cell code is marked in cells.

    cells is anything with k, l and used_axes(), which caches _used_axes of
    its member table (a step hypergraphon or a combinatorial structure), so
    repeated samples check the table once. level(lo, hi) gives the
    0-based levels of the subsets with global counters lo..hi-1.

    Only the masks on which membership can change are read, and the codes
    index the member table reduced to their axes (_used_axes). When a lower
    mask is used, the levels of arity < k are read once and subset_counters
    is built; otherwise neither happens. The k-subsets go by in colex
    order, CELL_BLOCK at a time: a block reads its own top-arity levels
    only when the full mask is used, and gathers each used lower mask
    through its subset_counters row. With out, the member entry of every
    k-subset is written there.
    """
    k, l = cells.k, cells.l
    used, member = cells.used_axes()
    weights = {m: l**i for i, m in enumerate(used)}
    top_w = weights.pop((1 << k) - 2, None)  # the full mask's axis is the last
    top = arity_offsets(n, k)[k - 1]
    if weights:
        table = subset_counters(n, k)  # refuses an oversized n before any level is read
        rows = table.shape[1]
        low = level(0, top)
        gathers = [(table[m], wm) for m, wm in weights.items()]
    else:
        rows = _check_rows(n, k)
        gathers = []
    count = 0
    for a in range(0, rows, CELL_BLOCK):
        b = min(a + CELL_BLOCK, rows)
        if top_w is None:
            code = np.zeros(b - a, dtype=np.int64)
        elif gathers:
            code = level(top + a, top + b) * top_w
        else:  # the top mask alone: its level is the code
            code = level(top + a, top + b)
        for row, wm in gathers:
            code += np.take(low, row[a:b]) * wm
        hit = np.take(member, code)
        count += int(np.count_nonzero(hit))
        if out is not None:
            out[a:b] = hit
    return count


def mask_bits(mask: int) -> tuple:
    """0-based positions set in a mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_image(mask: int, perm) -> int:
    """Image of a position mask under a permutation of range(k)."""
    im = 0
    i = 0
    while mask >> i:
        if mask >> i & 1:
            im |= 1 << perm[i]
        i += 1
    return im


@lru_cache(maxsize=None)
def position_perms(k: int) -> tuple:
    return tuple(permutations(range(k)))


@lru_cache(maxsize=None)
def mask_perms(k: int) -> np.ndarray:
    """The S_k action on mask digits, shape (k!, 2**k - 1), read-only.

    Row p is the axis order for which cell_grid(member).transpose(row)
    pushes every cell along position permutation p: the image gives mask
    mask_image(m, p) the level the original gave mask m. The rows run over
    the whole group, so cell_digits(codes) @ w[mask_perms(k)].T lists the
    orbit codes of each cell (w the cell_weights).
    """
    rows = np.empty((len(position_perms(k)), (1 << k) - 1), dtype=np.intp)
    for row, perm in zip(rows, position_perms(k)):
        for m in range(1, 1 << k):
            row[mask_image(m, perm) - 1] = m - 1
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def adjacent_mask_perms(k: int) -> np.ndarray:
    """The rows of mask_perms(k) for the k-1 adjacent transpositions (i i+1).

    They generate S_k, so a level grid equal to its transposes by these rows
    is equal to its transposes by every row.
    """
    perms = position_perms(k)
    swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, k)) for i in range(k - 1)]
    rows = mask_perms(k)[[perms.index(p) for p in swaps]]
    rows.setflags(write=False)
    return rows

