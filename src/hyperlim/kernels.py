"""Hot counting and sampling kernels: backtracking exact counts and
vectorized numpy sweeps, all integer-exact. Randomness enters only through
splitmix64 counters (see rng), which keeps results independent of
evaluation order.
"""

from __future__ import annotations

import numpy as np

from . import rng


# ---------------------------------------------------------------------------
# exact backtracking counts


def hom_count(n_f, k, n_h, edges, depth_ptr, member, ct, injective=False) -> int:
    """Backtracking count of maps [n_f] -> [n_h] sending edges onto edges.

    edges rows are index tuples into the F vertex order; they are grouped so
    that rows [depth_ptr[d], depth_ptr[d+1]) touch only vertices <= d and
    include vertex d, letting each level of the search check exactly the
    newly closed constraints.
    """
    assign = np.empty(n_f, dtype=np.int64)
    img = np.empty(k, dtype=np.int64)
    count = 0
    d = 0
    assign[0] = -1
    while d >= 0:
        a = assign[d] + 1
        if a >= n_h:
            d -= 1
            continue
        assign[d] = a
        ok = True
        if injective:
            for j in range(d):
                if assign[j] == a:
                    ok = False
                    break
        if ok:
            for e in range(depth_ptr[d], depth_ptr[d + 1]):
                for i in range(k):
                    img[i] = assign[edges[e, i]]
                dup = False
                for i in range(1, k):
                    v = img[i]
                    j = i - 1
                    while j >= 0 and img[j] > v:
                        img[j + 1] = img[j]
                        j -= 1
                    img[j + 1] = v
                for i in range(1, k):
                    if img[i] == img[i - 1]:
                        dup = True
                        break
                if dup:
                    ok = False
                    break
                rank = 0
                for i in range(k):
                    rank += ct[img[i], i + 1]
                if member[rank] == 0:
                    ok = False
                    break
        if not ok:
            continue
        if d == n_f - 1:
            count += 1
        else:
            d += 1
            assign[d] = -1
    return count


def induced_count(n_f, k, n_h, subs, flags, depth_ptr, member, ct, injective=False) -> int:
    """Like hom_count but every listed k-subset must land distinctly
    on an edge (flag 1) or a non-edge (flag 0)."""
    assign = np.empty(n_f, dtype=np.int64)
    img = np.empty(k, dtype=np.int64)
    count = 0
    d = 0
    assign[0] = -1
    while d >= 0:
        a = assign[d] + 1
        if a >= n_h:
            d -= 1
            continue
        assign[d] = a
        ok = True
        if injective:
            for j in range(d):
                if assign[j] == a:
                    ok = False
                    break
        if ok:
            for e in range(depth_ptr[d], depth_ptr[d + 1]):
                for i in range(k):
                    img[i] = assign[subs[e, i]]
                dup = False
                for i in range(1, k):
                    v = img[i]
                    j = i - 1
                    while j >= 0 and img[j] > v:
                        img[j + 1] = img[j]
                        j -= 1
                    img[j + 1] = v
                for i in range(1, k):
                    if img[i] == img[i - 1]:
                        dup = True
                        break
                if dup:
                    ok = False
                    break
                rank = 0
                for i in range(k):
                    rank += ct[img[i], i + 1]
                inm = member[rank] != 0
                want = flags[e] != 0
                if inm != want:
                    ok = False
                    break
        if not ok:
            continue
        if d == n_f - 1:
            count += 1
        else:
            d += 1
            assign[d] = -1
    return count


# ---------------------------------------------------------------------------
# vectorized kernels, and the map generators that feed eval_maps_count


def structure_count(n_low, l, cidx, wtab) -> int:
    """Sum over label assignments of the lower simplices of the product of
    per-constraint weights; weights are indexed by the mixed-radix code of
    the constraint's lower labels."""
    nc, t = cidx.shape
    tpow = l ** np.arange(t, dtype=np.int64)
    total = l**n_low
    lp = l ** np.arange(n_low, dtype=np.int64)
    acc = 0
    chunk = 1 << 18
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        prod = np.ones(stop - start, dtype=np.int64)
        for c in range(nc):
            q = np.zeros(stop - start, dtype=np.int64)
            for j in range(t):
                q += ((codes // lp[cidx[c, j]]) % l) * tpow[j]
            prod *= wtab[c, q]
        acc += int(prod.sum())
    return acc


def sample_w_mask(ksubs, ct, offsets, key, l, member, labels_flat, bits, nbits, lpow):
    """Membership mask over all k-subsets for a step-function sample.

    Level of subset S comes from labels_flat when restriction labels are
    given (nonempty), else from the hash of S's global counter.
    """
    m_rows = ksubs.shape[0]
    restricted = labels_flat.shape[0] > 0
    code = np.zeros(m_rows, dtype=np.int64)
    for mi in range(bits.shape[0]):
        r = int(nbits[mi])
        rank = np.zeros(m_rows, dtype=np.int64)
        for j in range(r):
            rank += ct[ksubs[:, bits[mi, j]], j + 1]
        ctr = offsets[r - 1] + rank
        if restricted:
            lev = labels_flat[ctr] - 1
        else:
            lev = rng.np_level_of(rng.np_mix64(int(key), ctr), l)
        code += lev * lpow[mi]
    return member[code]


def mc_step_count(samples, nsim, l, key, cidx, flags, member, lpow) -> int:
    """Count samples whose hashed level assignment satisfies every
    constraint; one counter per (sample, simplex)."""
    cnt = 0
    chunk = max(1, (1 << 22) // max(nsim, 1))
    for s0 in range(0, samples, chunk):
        s1 = min(samples, s0 + chunk)
        ctr = np.arange(s0 * nsim, s1 * nsim, dtype=np.uint64)
        lev = rng.np_level_of(rng.np_mix64(int(key), ctr), l)
        lev = lev.reshape(s1 - s0, nsim)
        good = np.ones(s1 - s0, dtype=bool)
        for c in range(cidx.shape[0]):
            code = (lev[:, cidx[c]] * lpow[None, :]).sum(axis=1)
            inm = member[code] != 0
            good &= inm == (flags[c] != 0)
        cnt += int(good.sum())
    return cnt


def eval_maps_count(maps, edges, flags, member, ct, k) -> int:
    """Count map rows for which every listed k-subset lands distinctly on an
    edge (flag 1) or non-edge (flag 0) of the member table."""
    b = maps.shape[0]
    good = np.ones(b, dtype=bool)
    for e in range(edges.shape[0]):
        sub = np.sort(maps[:, edges[e]], axis=1)
        if k > 1:
            distinct = np.all(sub[:, 1:] != sub[:, :-1], axis=1)
        else:
            distinct = np.ones(b, dtype=bool)
        rank = np.zeros(b, dtype=np.int64)
        for i in range(k):
            rank += ct[sub[:, i], i + 1]
        rank[~distinct] = 0
        inm = member[rank] != 0
        good &= distinct & (inm == (flags[e] != 0))
    return int(good.sum())


def injective_maps(budget: int, v: int, n: int, key: int) -> np.ndarray:
    """budget uniform random injective maps [v] -> [n], one row each.

    Row s consumes counters s*v .. s*v+v-1. Draw j picks an offset in the
    complement of the previous picks (ascending adjustment), matching the
    classic sequential algorithm exactly.
    """
    if v > n:
        raise ValueError("injective maps need v <= n")
    picks = np.empty((budget, v), dtype=np.int64)
    base = np.arange(budget, dtype=np.uint64) * np.uint64(v)
    for j in range(v):
        h = rng.np_mix64(key, base + np.uint64(j))
        d = (h % np.uint64(n - j)).astype(np.int64)
        if j:
            srt = np.sort(picks[:, :j], axis=1)
            for t in range(j):
                d += d >= srt[:, t]
        picks[:, j] = d
    return picks


def uniform_maps(budget: int, v: int, n: int, key: int) -> np.ndarray:
    """budget uniform random maps [v] -> [n] (with replacement)."""
    ctr = np.arange(budget * v, dtype=np.uint64)
    h = rng.np_mix64(key, ctr)
    return (h % np.uint64(n)).astype(np.int64).reshape(budget, v)
