"""Counter-based random streams.

Every random decision in the package is a pure function of (seed, counter)
through the splitmix64 output mix, so samplers have no sequential state:
any subset of a stream can be evaluated in any order, on any thread count,
with bit-identical results. Scalar and vectorized forms agree exactly.
The restarts of the local searches are counters too: refine draws its start
labels with Hyperpartition.uniform_random, and delta1_upper its start
permutations with kernels.injective_maps, so seeded output does not depend
on numpy's Generator streams.
"""

from __future__ import annotations

import threading

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# stream tags: distinct constants so consumers never share counters
TAG_VERTEX = 0x01
TAG_LEVELS = 0x02
TAG_MC = 0x03
TAG_INJECTIVE = 0x04
TAG_TRIAL = 0x05
TAG_INIT = 0x06
TAG_CYLINDER = 0x07
TAG_PARTITION = 0x08
TAG_MAPS = 0x09
TAG_RESTART = 0x0A


def mix64(key: int, ctr: int) -> int:
    """splitmix64 word at position ctr of the stream keyed by key."""
    z = (key + (ctr + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive(seed: int, *tags: int) -> int:
    """Child key from a root seed and a path of stream tags."""
    s = seed & MASK64
    for t in tags:
        s = mix64(s, t & MASK64)
    return s


def u01(h: int) -> float:
    """Map a 64-bit word to [0, 1) using its top 53 bits."""
    return (h >> 11) * 2.0**-53


def level_of(h: int, l: int) -> int:
    """Exact floor(l * h / 2**64); the half-open level index in 0..l-1."""
    return (h * l) >> 64


def level_start(i: int, l: int) -> int:
    """Least word h with level_of(h, l) >= i, for 0 <= i <= l: the exact
    ceil(i * 2**64 / l), so 2**64 for i = l. level_of is monotone in h, so
    each run of levels is one half-open interval of words."""
    return -((-i << 64) // l)


def np_mix64(key: int, ctrs: np.ndarray) -> np.ndarray:
    """Vectorized mix64; ctrs is any integer array, result uint64. The
    reference of np_mix64_range, np_mix64_strided and np_mix64_keys, by
    which the package hashes its counters."""
    out = np.empty(np.shape(ctrs), dtype=np.uint64)
    # key + (c + 1) * G, with the + 1 folded into the constant; the unsafe
    # cast wraps signed counters like astype(uint64)
    np.multiply(ctrs, np.uint64(_GOLDEN), out=out, dtype=np.uint64, casting="unsafe")
    out += np.uint64((key + _GOLDEN) & MASK64)
    scratch = np.empty_like(out)
    return _finish(_rounds(out, scratch), scratch)


def _rounds(z, scratch):
    """The two multiply rounds of mix64, in place on the uint64 array z."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    return z


def _finish(z, scratch):
    """The final xor-shift z ^ (z >> 31) of mix64, in place."""
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


# longest table of i * G that ranges of counters hash from
_STEP_CAP = 1 << 16
_steps_lock = threading.Lock()
_steps_table = np.zeros(0, dtype=np.uint64)


def _steps(m: int) -> np.ndarray:
    """The read-only table of i * G for i below a power of two >= min(m,
    _STEP_CAP). One table serves every thread; it is replaced by a longer
    one only when a longer range asks, so a process that hashes short
    ranges alone holds a short one."""
    global _steps_table
    with _steps_lock:  # threads that ask at once get the same table
        if len(_steps_table) < min(m, _STEP_CAP):
            table = np.arange(min(1 << (m - 1).bit_length(), _STEP_CAP), dtype=np.uint64)
            table *= np.uint64(_GOLDEN)
            table.setflags(write=False)
            _steps_table = table
        return _steps_table


# the final xor-shift of mix64 leaves the top 31 bits of a word alone, so a
# word before it compares with a multiple of PREMIX_GRAIN as its hash does
PREMIX_GRAIN = 1 << 33


def np_mix64_range(key: int, lo: int, hi: int, out=None, scratch=None) -> np.ndarray:
    """np_mix64(key, arange(lo, hi)) without the counter array. Every pass
    writes into out and scratch, two distinct uint64 arrays of length
    hi - lo, allocated when not given: a caller that hashes block after
    block passes one pair each time and allocates nothing per block."""
    if out is None:
        out = np.empty(hi - lo, dtype=np.uint64)
    if scratch is None:
        scratch = np.empty_like(out)
    return _finish(_premix64_range(key, lo, hi, out, scratch), scratch)


def _premix64_range(key, lo, hi, out, scratch):
    """np_mix64_range into out up to its final xor-shift: against a multiple
    of PREMIX_GRAIN each word compares as its hash does.

    The words before the rounds are key + (c + 1) * G for c = lo + i, so
    every _STEP_CAP counters take one added constant on a slice of _steps.
    """
    steps = _steps(hi - lo)
    for s in range(0, hi - lo, _STEP_CAP):
        e = min(s + _STEP_CAP, hi - lo)
        np.add(steps[: e - s], np.uint64((key + (lo + s + 1) * _GOLDEN) & MASK64), out=out[s:e])
    return _rounds(out, scratch)


def np_mix64_strided(key: int, starts, step: int, m: int, out=None, scratch=None) -> np.ndarray:
    """np_mix64(key, c + step * arange(m)) for each start c, one row each:
    a (len(starts), m) uint64 array hashing counters strided by step.
    out and scratch are as in np_mix64_range, of shape (len(starts), m)."""
    firsts = [(key + (int(c) + 1) * _GOLDEN) & MASK64 for c in starts]
    return _mix64_rows(np.array(firsts, dtype=np.uint64), step, m, out, scratch)


def np_mix64_keys(keys, m: int) -> np.ndarray:
    """np_mix64(key, arange(m)) for each key, one row each: a (len(keys), m)
    uint64 array whose row i holds rng.derive(keys[i], c) at column c."""
    return _mix64_rows(np.array(keys, dtype=np.uint64) + np.uint64(_GOLDEN), 1, m)


def _mix64_rows(firsts, step, m, out=None, scratch=None):
    """Hashes whose words before the rounds are firsts[row] + i * (step * G)
    for i < m: one table of i * (step * G) is added to every first word."""
    out = np.empty((len(firsts), m), dtype=np.uint64) if out is None else out
    scratch = np.empty_like(out) if scratch is None else scratch
    np.add(np.arange(m, dtype=np.uint64) * np.uint64(step * _GOLDEN & MASK64), firsts[:, None], out=out)
    return _finish(_rounds(out, scratch), scratch)


def np_level_of(h: np.ndarray, l: int, out=None) -> np.ndarray:
    """Vectorized level_of as int64; exact via 32-bit split (no float rounding).

    With out, a uint64 array of h's shape (h itself allowed), the levels are
    written there, read as int64; a level past 2**63 - 1, which only
    l > 2**63 gives, reads as its uint64 bits. For l = 2**j the level is the
    top j bits of h, taken by one shift. Other l are split like h,
    l = lh * 2**32 + ll, so no product overflows; for l < 2**32 (lh = 0)
    that takes one temporary for the low half of h, and two more otherwise.
    """
    np.uint64(l)  # refuses l >= 2**64
    if l & (l - 1) == 0:
        j = l.bit_length() - 1
        if j <= 0:  # l = 1: every level is 0
            return np.bitwise_and(h, np.uint64(0), out=out).view(np.int64)
        return np.right_shift(h, np.uint64(64 - j), out=out).view(np.int64)
    s32, m32 = np.uint64(32), np.uint64(0xFFFFFFFF)
    lh, ll = np.uint64(l >> 32), np.uint64(l & 0xFFFFFFFF)
    lo = h & m32
    if lh:  # read h before out, which may be h, overwrites it
        mid, high = lo * lh, (h >> s32) * lh
    lo *= ll
    lo >>= s32
    lev = np.right_shift(h, s32, out=out)
    lev *= ll
    lev += lo  # a = hh * ll + (hl * ll >> 32), below 2**64
    if lh:  # floor(l * h / 2**64) = hh * lh + (a >> 32) + ((hl * lh + a % 2**32) >> 32)
        mid += np.bitwise_and(lev, m32, out=lo)
        mid >>= s32
        high += mid
    lev >>= s32
    if lh:
        lev += high
    return lev.view(np.int64)


def np_u01(h: np.ndarray) -> np.ndarray:
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
