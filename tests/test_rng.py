import ast
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlim import rng


def test_mix64_reference_vectors():
    # first outputs of the splitmix64 stream for seeds 0 and 1
    assert rng.mix64(0, 0) == 0xE220A8397B1DCDAF
    assert rng.mix64(0, 1) == 0x6E789E6AA1B965F4
    assert rng.mix64(1, 0) == 0x910A2DEC89025CC1


def test_mix64_range_and_determinism():
    for key in (0, 1, 2**63, 2**64 - 1):
        for ctr in (0, 1, 17, 2**32):
            h = rng.mix64(key, ctr)
            assert 0 <= h < 2**64
            assert h == rng.mix64(key, ctr)


def test_u01_truncates_53_bits():
    for h in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEFCAFEBABE):
        u = rng.u01(h)
        assert u == (h >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_level_of_matches_exact_fraction():
    for l in (1, 2, 3, 5, 7, 64):
        for i in range(200):
            h = rng.mix64(42, i)
            lev = rng.level_of(h, l)
            assert lev == int(Fraction(h, 2**64) * l)
            assert 0 <= lev < l


def test_derive_order_sensitivity():
    assert rng.derive(3, 1, 2) != rng.derive(3, 2, 1)
    assert rng.derive(3, 1) != rng.derive(4, 1)
    assert rng.derive(7, rng.TAG_TRIAL, 3) == rng.derive(7, rng.TAG_TRIAL, 3)


def test_numpy_variants_match_scalar():
    ctrs = np.arange(1000, dtype=np.uint64)
    key = rng.derive(11, rng.TAG_MC)
    hs = rng.np_mix64(key, ctrs)
    for i in range(0, 1000, 37):
        assert int(hs[i]) == rng.mix64(key, i)
    us = rng.np_u01(hs)
    for i in range(0, 1000, 37):
        assert float(us[i]) == rng.u01(rng.mix64(key, i))
    before = hs.copy()
    # powers of two take the shift path, which must leave its input alone
    for l in (1, 2, 3, 4, 8, 10, 1000, 2**31 - 1, 2**32, 3 * 2**32 + 1, 2**63):
        levs = rng.np_level_of(hs, l)
        assert levs.dtype == np.int64
        assert levs.tolist() == [rng.level_of(rng.mix64(key, i), l) for i in range(1000)]
        assert np.array_equal(hs, before)
    with pytest.raises(OverflowError):
        rng.np_level_of(hs, 2**64)


# l >= 2**32 that is not a power of two splits l as well as h
_BUFFER_LEVELS = (1, 2, 3, 4, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**32 + 1, 2**63, 2**64 - 1)


@settings(max_examples=200)
@given(
    st.sampled_from([np.int32, np.int64, np.uint64]),
    st.integers(0, 2**31 - 41),
    st.integers(0, 40),
    st.integers(0, 2**64 - 1),
    st.one_of(st.sampled_from(_BUFFER_LEVELS), st.integers(2**32, 2**64 - 1)),
)
def test_buffered_variants_match_scalar(dtype, lo, m, key, l):
    want = [rng.mix64(key, c) for c in range(lo, lo + m)]
    # the reference form wraps signed counters like astype(uint64)
    assert rng.np_mix64(key, np.arange(lo, lo + m).astype(dtype)).tolist() == want
    out, scratch = np.full(m, 7, dtype=np.uint64), np.empty(m, dtype=np.uint64)
    assert rng.np_mix64_range(key, lo, lo + m, out, scratch) is out
    assert out.tolist() == want
    levs = np.full(m, 7, dtype=np.uint64)
    got = rng.np_level_of(out, l, out=levs)
    assert got.dtype == np.int64
    assert got.__array_interface__["data"][0] == levs.__array_interface__["data"][0]
    want_levels = [rng.level_of(h, l) for h in want]
    # a level of l > 2**63 may pass 2**63 - 1: its int64 bits are its uint64 bits
    assert got.view(np.uint64).tolist() == want_levels
    assert l > 2**63 or got.tolist() == want_levels
    assert out.tolist() == want  # the hashes stay when out is another array
    # in place: the hashes become their levels
    assert rng.np_level_of(out, l, out=out).view(np.uint64).tolist() == want_levels


@settings(max_examples=200)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**62), st.integers(0, 300), st.booleans())
def test_range_form_matches_counter_array(key, lo, m, buffers):
    want = rng.np_mix64(key, np.arange(lo, lo + m, dtype=np.uint64))
    out, scratch = (np.full(m, 7, dtype=np.uint64) for _ in range(2)) if buffers else (None, None)
    got = rng.np_mix64_range(key, lo, lo + m, out, scratch)
    assert got.dtype == np.uint64 and np.array_equal(got, want)
    assert not buffers or got is out
    if m:
        assert int(got[0]) == rng.mix64(key, lo) and int(got[-1]) == rng.mix64(key, lo + m - 1)
    # before the final xor-shift a word already holds its hash's top 31 bits
    pre = rng._premix64_range(key, lo, lo + m, np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.uint64))
    assert np.array_equal(pre >> np.uint64(33), want >> np.uint64(33))


# counters anywhere, and counters whose progression wraps past 2**64
counters = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 600, 2**64 - 1))


@settings(max_examples=200)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(counters, max_size=4),
    st.one_of(st.integers(0, 40), counters),
    st.integers(0, 300),
)
def test_strided_form_matches_counter_array(key, starts, step, m):
    got = rng.np_mix64_strided(key, starts, step, m)
    ctrs = [[(c + i * step) % 2**64 for i in range(m)] for c in starts]
    want = rng.np_mix64(key, np.array(ctrs, dtype=np.uint64).reshape(len(starts), m))
    assert got.dtype == np.uint64 and got.shape == (len(starts), m)
    assert np.array_equal(got, want)
    for c, row in zip(starts, got):
        if m:
            assert int(row[-1]) == rng.mix64(key, c + (m - 1) * step)
    # step 1 is the range form
    if starts and starts[0] + m <= 2**64:
        lo = starts[0]
        assert np.array_equal(rng.np_mix64_strided(key, [lo], 1, m)[0], rng.np_mix64_range(key, lo, lo + m))


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=5), st.one_of(st.integers(0, 1), st.integers(0, 300)))
def test_keys_form_matches_counter_array_row_by_row(keys, m):
    got = rng.np_mix64_keys(keys, m)
    assert got.dtype == np.uint64 and got.shape == (len(keys), m)
    for key, row in zip(keys, got):
        assert np.array_equal(row, rng.np_mix64(key, np.arange(m, dtype=np.uint64)))
        if m:
            assert int(row[-1]) == rng.derive(key, m - 1)
    # a uint64 array of keys reads as the list does
    assert np.array_equal(rng.np_mix64_keys(np.array(keys, dtype=np.uint64), m), got)


def test_range_form_spans_slices_of_one_shared_table():
    step = rng._STEP_CAP
    assert not rng._steps(step).flags.writeable
    key, lo, m = 2**64 - 3, 2**40 + 5, 2 * step + 9
    got = rng.np_mix64_range(key, lo, lo + m)
    assert len(rng._steps(m)) == step
    assert np.array_equal(got, rng.np_mix64(key, np.arange(lo, lo + m, dtype=np.uint64)))
    for i in (0, step - 1, step, 2 * step, m - 1):
        assert int(got[i]) == rng.mix64(key, lo + i)


def test_step_table_grows_only_when_a_longer_range_asks(monkeypatch):
    monkeypatch.setattr(rng, "_steps_table", np.zeros(0, dtype=np.uint64))
    short = rng._steps(10)
    assert len(short) == 16 and rng._steps(3) is short and rng._steps(16) is short
    assert len(rng._steps(1000)) == 1024
    assert len(rng._steps(10**7)) == rng._STEP_CAP and len(rng._steps(5)) == rng._STEP_CAP
    assert short.tolist() == [i * 0x9E3779B97F4A7C15 % 2**64 for i in range(16)]


def test_threads_that_miss_at_once_share_one_step_table(monkeypatch):
    # more threads than cores, released together onto an empty table, with
    # a short switch interval: an unlocked build would hand some their own
    threads, seen = 8, []
    barrier = threading.Barrier(threads)

    def first_use():
        barrier.wait(timeout=10)
        seen.append(rng._steps(rng._STEP_CAP))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(rng, "_steps_table", np.zeros(0, dtype=np.uint64))
            seen.clear()
            workers = [threading.Thread(target=first_use) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)
            assert len(seen) == threads and len({id(t) for t in seen}) == 1
    finally:
        sys.setswitchinterval(interval)


def test_level_start_is_the_least_word_of_its_level():
    for l in (1, 2, 3, 7, 2**32 + 1, 2**63, 2**64 - 1):
        for i in sorted({0, 1, l // 2, l - 1, l}):
            b = rng.level_start(i, l)
            assert b == -(-i * 2**64 // l)
            assert b == 2**64 or rng.level_of(b, l) == i
            assert b == 0 or rng.level_of(b - 1, l) == i - 1


def test_u01_mean_sane():
    ctrs = np.arange(20000, dtype=np.uint64)
    us = rng.np_u01(rng.np_mix64(5, ctrs))
    # mean of 2e4 uniforms: stderr ~ 0.002
    assert abs(float(us.mean()) - 0.5) < 0.01


def test_level_of_uniform_over_levels():
    l = 8
    counts = np.bincount(rng.np_level_of(rng.np_mix64(9, np.arange(8000, dtype=np.uint64)), l), minlength=l)
    assert counts.sum() == 8000
    # each level ~1000, 4 sigma ~ 120
    assert np.all(np.abs(counts - 1000) < 150)


def numpy_or_stdlib_random_uses(tree):
    """Lines of a module that import random, or reach numpy.random."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(n == "random" or n.split(".")[:2] in (["numpy", "random"], ["np", "random"]) for n in names):
            hits.append(node.lineno)
    return hits


def test_package_draws_only_from_counters():
    # every random decision comes from splitmix64 counters, never from the
    # random module or numpy's Generator streams
    files = sorted(Path(rng.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = numpy_or_stdlib_random_uses(ast.parse(path.read_text(), str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}


def np_mix64_calls(tree):
    """Lines of a module that call np_mix64, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "np_mix64" or getattr(node.func, "attr", None) == "np_mix64")
    ]


def test_package_hashes_counter_ranges_only():
    # every counter set the package hashes is a range or a strided range,
    # so callers use np_mix64_range or np_mix64_strided; np_mix64 stays in
    # rng as the tests' reference
    files = sorted(Path(rng.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = np_mix64_calls(ast.parse(path.read_text(), str(path)))
        if hits and path.name != "rng.py":
            found[path.name] = hits
    assert found == {}
    assert np_mix64_calls(ast.parse("rng.np_mix64(k, c)\nnp_mix64(k, c)\nrng.np_mix64_range(k, 0, 1)")) == [1, 2]


def range_calls_in_loops(tree):
    """Lines of a module that call np_mix64_range inside a for or while
    loop or a comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return sorted(
        {
            node.lineno
            for loop in ast.walk(tree)
            if isinstance(loop, loops)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "np_mix64_range"
        }
    )


def test_hyperpartition_hashes_no_range_per_part():
    # the cylinder parts of every class of an arity are hashed together by
    # np_mix64_keys, never one range call per part, class or cylinder
    path = Path(rng.__file__).parent / "hyperpartition.py"
    assert range_calls_in_loops(ast.parse(path.read_text(), str(path))) == []
    probe = "for c in cs:\n    rng.np_mix64_range(k, 0, 9)\n[np_mix64_range(k, 0, m) for m in ms]\nrng.np_mix64_range(k, 0, 1)"
    assert range_calls_in_loops(ast.parse(probe)) == [2, 3]


RNG_INTERNALS = {"_GOLDEN", "_MIX1", "_MIX2", "_rounds", "_finish", "_steps"}


def rng_internal_names(tree):
    """Lines of a module that name one of rng's internals: as a name, an
    attribute or an imported alias."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in RNG_INTERNALS:
            hits.append(getattr(node, "lineno", None))
    return hits


def test_only_rng_names_its_mixing_internals():
    # the mixing constants and rounds live behind np_mix64_range and
    # np_mix64_strided; sampling's one _premix64_range call is the
    # sanctioned way to compare words before the final xor-shift
    files = sorted(Path(rng.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = rng_internal_names(ast.parse(path.read_text(), str(path)))
        if hits and path.name != "rng.py":
            found[path.name] = hits
    assert found == {}
    probe = "rng._rounds(z, s)\nfrom .rng import _GOLDEN\nx = _steps(3)\nrng._premix64_range(k, 0, 1, o, s)"
    assert len(rng_internal_names(ast.parse(probe))) == 3


# every Monte Carlo point comes from kernels.mc_words, and scalar words stay
# inside rng (derive) and the tests' oracles
STREAM_OWNERS = {"np_mix64_strided": "kernels.py", "mix64": "rng.py", "u01": "rng.py"}


def stream_calls(tree, module):
    """Lines of a module that call a name of STREAM_OWNERS, by name or as an
    attribute, outside the module that owns it."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and STREAM_OWNERS.get(getattr(node.func, "id", None) or getattr(node.func, "attr", None), module) != module
    )


def test_one_block_loop_hashes_every_monte_carlo_point():
    files = sorted(Path(rng.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = stream_calls(ast.parse(path.read_text(), str(path)), path.name)
        if hits:
            found[path.name] = hits
    assert found == {}
    probe = "rng.np_mix64_strided(k, r, 3, 9)\nrng.u01(rng.mix64(k, 0))\nmix64(k, 1)\nrng.np_u01(h)\nrng.derive(s, 1)"
    assert stream_calls(ast.parse(probe), "metrics.py") == [1, 2, 2, 3]
    assert stream_calls(ast.parse(probe), "rng.py") == [1]
    assert stream_calls(ast.parse(probe), "kernels.py") == [2, 2, 3]
