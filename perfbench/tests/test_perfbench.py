"""Self-tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


class SmallConcentration(wl.Concentration):
    CALLS, TRIALS, N = 2, 2, 200


class SmallRefine(wl.Refine):
    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.noisy = [x for x in self.noisy if x[0] == "k3n20"]


def test_tail_stat_is_the_highest_rank_with_ten_samples_above():
    vals = list(range(1, 101))
    value, pct, n = run.tail_stat(vals)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in vals) == 10
    value, pct, n = run.tail_stat(list(range(11)))
    assert value == 0 and n == 11 and pct == pytest.approx(100 / 11)


def test_tail_stat_falls_back_to_the_maximum_below_eleven_samples():
    assert run.tail_stat([0.3, 0.1, 0.2]) == (0.3, 100.0, 3)


def test_self_time_subtracts_nested_spans_on_the_same_thread():
    t = tr.Tracer()
    leaf = t.span("leaf", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.05)
        leaf()

    outer = t.span("outer", body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    # each thread: 0.05 s own sleep in outer, 0.05 s in its child leaf
    assert 0.1 <= t.totals["leaf.s"] < 0.16
    assert 0.1 <= t.totals["outer.s"] < 0.16


def test_a_span_on_another_thread_is_not_subtracted():
    t = tr.Tracer()
    leaf = t.span("leaf", lambda: time.sleep(0.05))

    def body():
        th = threading.Thread(target=leaf)
        th.start()
        th.join(timeout=10)
        assert not th.is_alive()

    t.span("outer", body)()
    assert t.totals["outer.s"] >= 0.05
    assert t.totals["leaf.s"] >= 0.05


def test_wrapping_covers_every_lookup_and_uninstall_restores_it():
    import hyperlim.combinatorics as combinatorics
    import hyperlim.sampling as sampling

    orig = combinatorics.colex_matrix
    t = tr.Tracer()
    patches = tr.install(t)
    try:
        assert sampling.colex_matrix is combinatorics.colex_matrix is not orig
        sampling.colex_matrix(30, 2)
    finally:
        patches.uninstall()
    assert sampling.colex_matrix is combinatorics.colex_matrix is orig
    assert t.totals["combinatorics.colex_matrix.calls"] >= 1
    assert tr.colex_cache_mb() > 0


@pytest.mark.parametrize("make", [SmallConcentration, SmallRefine])
def test_traced_and_untraced_jobs_give_identical_digests(make, tmp_path):
    work = make(3, str(tmp_path))
    _, fails, results = worker.run_job(work)
    assert fails == []
    plain = work.digest(results)
    t = tr.Tracer()
    patches = tr.install(t)
    try:
        _, fails, results = worker.run_job(work)
    finally:
        patches.uninstall()
    assert fails == []
    assert work.digest(results) == plain
    if make is SmallConcentration:
        # one hash per (k-set, position mask): 3 C(200, 2) per trial
        assert t.totals["rng.mix.hashes"] == 3 * 19900 * 2 * 2
        assert t.totals["sampling.sample_w_edge_count.calls"] == 4
    else:
        assert t.totals["regularity.sweeps"] > 0


def test_a_wrong_golden_value_counts_as_a_failure(monkeypatch, tmp_path):
    monkeypatch.setitem(wl.GOLDEN, "t_w", "1/3")
    monkeypatch.setitem(wl.GOLDEN, "triangle_top2", "1/7")
    work = SmallConcentration(3, str(tmp_path))
    lat, fails, _ = worker.run_job(work)
    assert len(fails) == len(lat) == 2
    n, fails = worker.run_checks(wl.golden_checks())
    assert n == 3 and len(fails) == 2


def test_failures_make_the_result_incorrect_and_the_exit_nonzero(monkeypatch, capsys, tmp_path):
    canned = {
        "setup_s": 0.5,
        "latencies": [0.1, 0.2],
        "walls": [0.3],
        "attempted": 4,
        "failures": ["golden.t_w: CheckFailed"],
        "digest": "",
        "peak_rss_mb": 10.0,
        "provenance": {},
    }
    monkeypatch.setattr(run, "spawn", lambda *a: dict(canned))
    monkeypatch.setattr(run, "HERE", str(tmp_path))
    assert run.main(["--workload", "refine", "--seed", "1", "--seconds", "1"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    last = json.loads(out[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 4
    assert set(last["metrics"]) == {"wall_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"}
    assert any(line.startswith("refine failed_ratio 0.25 ") for line in out)


def test_a_tree_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refine", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
