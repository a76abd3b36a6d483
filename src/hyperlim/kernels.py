"""Hot counting kernels, all integer-exact: one tensor contraction for
hom counts and structure densities; one frontier search for hom and
induced counts, which extends partial maps by the AND of link rows read
from the host's 0/1 tensors or, for a host with no tensor, from its member
table (combinatorics.colex_insert_ranks); the cost model that picks a hom
count's path before any table is built (contraction_cost, frontier_cost);
one sort-and-rank member filter (member_keep), which the map-evaluation
sweep counts when it has no tensors and the vertex sampler writes into its
edge mask; one constraint-cell filter (cells_keep for simplex levels, one
row per simplex, against a structure, read over its used_axes() as
combinatorics._cell_member_count reads them, and shared by mc_step_count,
the Monte Carlo d1 and the densities under a level-map distribution); one
blocked stream of Monte Carlo points (mc_words), the only hash of them,
which mc_step_count, the Monte Carlo d1, the general-predicate density and
GeneralHypergraphon's invariance check read, with one check of their
counts (mc_count); and the random injective-map
generator. Randomness enters only through splitmix64 counter ranges and
strided ranges (see rng), which keeps results independent of evaluation
order.
"""

from __future__ import annotations

import numbers
from math import prod

import numpy as np

from . import rng
from .combinatorics import colex_insert_ranks, colex_rank_rows

# most entries any one elimination step of contract may span
CONTRACT_CAP = 1 << 24
# most candidate cells (partial maps x host vertices) one block of the
# induced_count frontier may hold
FRONTIER_CAP = 1 << 16
# most candidate cells one induced_count call may examine in all, unless
# given a budget of its own
FRONTIER_BUDGET = 1 << 28
# the cost model's fixed price of one numpy call, in table entries
CALL_COST = 1 << 15


# ---------------------------------------------------------------------------
# exact counts


def contraction_plan(scopes, dom):
    """The elimination steps of contract for factors over these variable
    scopes, or None when a step would span more than CONTRACT_CAP entries.

    Variables go fewest neighbours first (ties to the lower index); a step
    (bucket, out) multiplies the factors in bucket, which hold its
    variable, and sums that variable out into a new factor over out,
    numbered after every earlier one. Reads no table, so a caller can
    build its tables only once the plan accepts.
    """
    scopes = [tuple(v) for v in scopes]
    live = set(range(len(scopes)))
    todo = {x for s in scopes for x in s}
    steps = []
    while todo:
        spans = {x: {y for i in live if x in scopes[i] for y in scopes[i]} for x in todo}
        x = min(todo, key=lambda x: (len(spans[x]), x))
        joint = spans[x]
        if dom ** len(joint) > CONTRACT_CAP:
            return None
        bucket = sorted(i for i in live if x in scopes[i])
        live.difference_update(bucket)
        live.add(len(scopes))
        scopes.append(tuple(sorted(joint - {x})))
        steps.append((bucket, scopes[-1]))
        todo.discard(x)
    return steps


def contraction_cost(steps, dom) -> int:
    """Predicted cost of contract under the steps of contraction_plan: the
    span of each step, dom**len(joint), plus CALL_COST per factor in its
    bucket."""
    return sum(dom ** (len(out) + 1) + CALL_COST * len(bucket) for bucket, out in steps)


def frontier_cost(n_f, n_h, subs, p, injective=False) -> float:
    """Predicted cost of induced_count over these rows, each onto an edge:
    the sum over depths d of rows_d * n_h + CALL_COST, where rows_0 = 1 and
    depth d multiplies the rows by its candidates, n_h (n_h - d if
    injective), and by p for each row closing there; p is the host's edge
    share. Reads no table."""
    closing = [0] * n_f  # rows closing at each depth
    for row in subs:
        closing[max(row)] += 1
    rows, cost = 1.0, 0.0
    for d, edges in enumerate(closing):
        cost += rows * n_h + CALL_COST
        rows *= max(n_h - d if injective else n_h, 0) * p**edges
    return cost


def contract(factors, nvars, dom, steps=None):
    """Exact sum over all maps [nvars] -> [dom] of the product of factors.

    Each factor is (vars, table): distinct variable indices and a
    nonnegative integer table of shape (dom,) * len(vars). Variables are
    summed out one at a time in the order of contraction_plan (passed as
    steps, or planned here), each step multiplying the factors that hold
    its variable by two-operand einsum calls. The arithmetic is int64 when
    dom**nvars times the product of the table maxima, which bounds every
    partial sum, is below 2**63, and Python ints (object dtype) otherwise.
    Returns None, before reading any table, when the plan refuses.
    """
    if dom < 2:
        # at most one map, the constant one
        return prod(int(t.flat[0]) for _, t in factors) if dom or not nvars else 0
    if steps is None:
        steps = contraction_plan([v for v, _ in factors], dom)
        if steps is None:
            return None
    free = nvars - len({x for v, _ in factors for x in v})
    uniq = {id(t): t for _, t in factors}
    top = {i: int(t.max()) for i, t in uniq.items()}
    bound = dom**nvars * prod(top[id(t)] for _, t in factors)
    dtype = np.int64 if bound < 1 << 63 else object
    work = {i: t.astype(dtype, copy=False) for i, t in uniq.items()}
    ops = [(work[id(t)], tuple(v)) for v, t in factors]
    for bucket, out in steps:
        acc, vs = ops[bucket[0]]
        for i in bucket[1:-1]:
            both = tuple(sorted(set(vs) | set(ops[i][1])))
            acc, vs = _einsum(both, (acc, vs), ops[i]), both
        # the last product also sums the variable out
        last = [ops[bucket[-1]]] if len(bucket) > 1 else []
        ops.append((np.asarray(_einsum(out, (acc, vs), *last), dtype=dtype), out))
    used = {i for bucket, _ in steps for i in bucket}
    return prod(int(t) for i, (t, _) in enumerate(ops) if i not in used) * dom**free


def _einsum(out, *operands):
    """np.einsum over (table, vars) operands, renumbering the variables
    from 0 because einsum accepts at most 52 subscripts."""
    ren = {}
    args = []
    for t, vs in operands:
        args += [t, [ren.setdefault(v, len(ren)) for v in vs]]
    return np.einsum(*args, [ren[v] for v in out])


class _OverBudget(Exception):
    pass


def induced_count(n_f, n_h, subs, flags, member, injective=False, tensors=None, budget=None):
    """Count maps [n_f] -> [n_h], injective ones if asked, under which every
    row of subs, k-subsets of [n_f] in any order (lists or an int64 array),
    lands distinctly on an edge (flag 1) or a non-edge (flag 0) of an
    n_h-vertex host: of tensors[flag], its 0/1 tensors (zero on every tuple
    that repeats a vertex), when given, and of member, its colex indicator,
    otherwise.

    Partial maps grow one vertex at a time, in index order, as in Generic
    Join: at depth d each row whose largest vertex is d selects the link
    row of its earlier images, an n_h-vector over the next image, and the
    candidates are the AND of those rows, less the used images if
    injective. Each depth is cut into blocks of max(1, FRONTIER_CAP // n_h)
    partial maps, run depth-first. A count that would examine more than
    budget candidate cells (partial maps x host vertices) in all
    (FRONTIER_BUDGET when not given) returns None before it does.
    """
    if not n_f:
        return 1
    if not n_h:
        return 0
    closing = [[] for _ in range(n_f)]  # (earlier vertices, flag) per depth
    for row, flag in zip(subs, flags):
        d = max(row)
        closing[d].append(([v for v in row if v != d], flag))
    height = max(1, FRONTIER_CAP // n_h)
    budget = FRONTIER_BUDGET if budget is None else budget
    spent = 0

    def grow(maps, d):
        nonlocal spent
        total = 0
        for r0 in range(0, maps.shape[0], height):
            part = maps[r0 : r0 + height]
            spent += part.shape[0] * n_h
            if spent > budget:
                raise _OverBudget
            cand = np.ones((part.shape[0], n_h), dtype=bool)
            for cols, flag in closing[d]:
                if tensors is not None:
                    # at k = 1 the link of the empty prefix is the whole
                    # tensor, broadcast over the rows
                    np.logical_and(cand, tensors[flag][tuple(part[:, c] for c in cols)], out=cand)
                else:
                    cand &= _member_link(part[:, cols], flag, member, n_h)
            if injective:
                cand[np.arange(part.shape[0])[:, None], part] = False
            if d == n_f - 1:
                total += int(np.count_nonzero(cand))
            else:
                r, c = np.nonzero(cand)
                total += grow(np.column_stack((part[r], c)), d + 1)
        return total

    try:
        return grow(np.zeros((1, 0), dtype=np.int64), 0)
    except _OverBudget:
        return None


def _member_link(img, flag, member, n) -> np.ndarray:
    """The link rows of an n-vertex host's member table: entry (r, w) says
    whether row r of img, k - 1 host vertices, joined by vertex w, is a set
    of k distinct vertices forming an edge (flag 1) or a non-edge (flag 0).
    Ranks by combinatorics.colex_insert_ranks, with no sort per candidate."""
    img = np.sort(img, axis=1)
    bad = (img[:, :, None] == np.arange(n)).any(axis=1)
    bad |= (img[:, 1:] == img[:, :-1]).any(axis=1)[:, None]
    if not member.size:  # fewer than k host vertices
        return np.zeros(bad.shape, dtype=bool)
    ranks = colex_insert_ranks(img, n)
    ranks[bad] = 0
    return ~bad & ((member[ranks] != 0) == (flag != 0))


# ---------------------------------------------------------------------------
# vectorized kernels, and the injective-map generator


# samples per block of mc_words: a block's hash rows and the int64 codes
# read from them stay in cache
MC_BLOCK = 1 << 12


def mc_count(value, name: str, least: int = 1) -> int:
    """value as a count of Monte Carlo points: its int, or a ValueError
    naming it unless it is an integer, not a bool, and no less than least
    (1 for sample counts, 0 where no point may be asked for)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}")
    return int(value)


def mc_words(samples, nsim, key, read):
    """Yield the hash words of Monte Carlo samples 0 .. samples - 1 (none
    when samples <= 0), MC_BLOCK samples a block: one row per simplex of
    read, one column per sample. Simplex j of sample s is counter
    s * nsim + j, so in a block each simplex is one strided progression.
    Every block is written into one pair of buffers, so a reader is done
    with a block, which it may overwrite, before it asks for the next."""
    if samples <= 0:
        return
    read = np.asarray(read, dtype=np.int64)
    bufs = np.empty((2, len(read) * min(samples, MC_BLOCK)), dtype=np.uint64)
    for s0 in range(0, samples, MC_BLOCK):
        m = min(samples - s0, MC_BLOCK)
        out, scratch = (b[: len(read) * m].reshape(len(read), m) for b in bufs)
        yield rng.np_mix64_strided(key, read + s0 * nsim, nsim, m, out, scratch)


def mc_step_count(samples, nsim, key, cidx, flags, cells) -> int:
    """Count samples whose hashed level assignment satisfies every
    constraint of cells_keep, reading the words of mc_words. Only the
    simplices some code reads, those at the masks of cells.used_axes(), are
    hashed and levelled.
    """
    cidx = np.asarray(cidx, dtype=np.int64)
    read = np.unique(cidx[:, list(cells.used_axes()[0])])
    at = np.zeros(nsim, dtype=np.int64)
    at[read] = np.arange(len(read))
    rows = at[cidx]  # cidx over the hashed rows
    cnt = 0
    for h in mc_words(samples, nsim, key, read):
        lev = rng.np_level_of(h, cells.l, out=h)
        cnt += int(np.count_nonzero(cells_keep(lev, rows, flags, cells)))
    return cnt


def cells_keep(levels, cidx, flags, cells) -> np.ndarray:
    """Mask of the samples that pass every (cell, flag) constraint.

    levels holds 0-based levels column-major: row j is simplex j's level in
    every sample. Row c of cidx names the simplex at each mask of
    constraint c; the cell those levels spell must lie in cells, a
    structure (flag 1), or outside it (flag 0). As in
    combinatorics._cell_member_count, a code reads only the masks of
    cells.used_axes(), summed one simplex row at a time, and indexes the
    member table reduced to them; with no mask used every code is 0.
    """
    used, member = cells.used_axes()
    keep = (member == 0, member != 0)
    cols = np.asarray(cidx, dtype=np.int64)[:, list(used)].tolist()
    good = np.ones(levels.shape[1], dtype=bool)
    code = np.zeros(levels.shape[1], dtype=np.int64)
    term = np.empty_like(code)
    for row, flag in zip(cols, flags):
        code[:] = levels[row[0]] if row else 0
        for i, j in enumerate(row[1:], 1):
            code += np.multiply(levels[j], cells.l**i, out=term)
        good &= np.take(keep[bool(flag)], code)
    return good


def eval_maps_count(maps, subs, flags, member, n, tensors=None) -> int:
    """Count the map rows that member_keep keeps, gathering from
    tensors[flag], the host's 0/1 tensors, when given."""
    if tensors is None:
        return int(np.count_nonzero(member_keep(maps, subs, flags, member, n)))
    good = np.ones(maps.shape[0], dtype=bool)
    for sub, flag in zip(subs, flags):
        np.logical_and(good, tensors[flag][tuple(maps[:, c] for c in sub)], out=good)
    return int(np.count_nonzero(good))


def member_keep(maps, subs, flags, member, n) -> np.ndarray:
    """Mask of the map rows under which every listed k-subset lands
    distinctly on an edge (flag 1) or a non-edge (flag 0) of an n-vertex
    host: per constraint, each row's images are sorted, tested for distinct
    vertices and colex-ranked into member, its indicator, with rank 0 read
    for the rows already out."""
    good = np.ones(maps.shape[0], dtype=bool)
    for sub, flag in zip(subs, flags):
        if not member.size:  # fewer than k host vertices: no k distinct images
            return np.zeros_like(good)
        img = np.sort(maps[:, sub], axis=1)
        good &= (img[:, 1:] != img[:, :-1]).all(axis=1)
        ranks = colex_rank_rows(img, n)
        ranks[~good] = 0
        good &= (member[ranks] != 0) == (flag != 0)
    return good


def injective_maps(budget: int, v: int, n: int, key: int) -> np.ndarray:
    """budget uniform random injective maps [v] -> [n], one row each.

    Row s consumes counters s*v .. s*v+v-1, all hashed as one range. Draw j
    picks an offset in the complement of the previous picks (ascending
    adjustment), matching the classic sequential algorithm exactly.
    """
    if v > n:
        raise ValueError("injective maps need v <= n")
    picks = np.empty((budget, v), dtype=np.int64)
    hs = rng.np_mix64_range(key, 0, budget * v).reshape(budget, v)
    for j in range(v):
        d = (hs[:, j] % np.uint64(n - j)).astype(np.int64)
        if j:
            srt = np.sort(picks[:, :j], axis=1)
            for t in range(j):
                d += d >= srt[:, t]
        picks[:, j] = d
    return picks

