"""One workload in a fresh process: set up, run jobs, print one JSON line.

Started by run.py, never by hand. ``--t-spawn`` is the parent's monotonic
clock when it started this process, so set-up time covers interpreter start,
import, input generation and one warm op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import hyperlim  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def run_job(work, tracer=None):
    """Run every op once, closed loop. Returns (latencies, failures, results).

    Checks run untraced: tracer, if given, is paused while they run.
    """
    lat, failures = [], []
    results = {}
    for label, call, chk in work.ops():
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as e:  # noqa: BLE001 - an op that raises is a failed op
            lat.append(time.perf_counter() - t0)
            failures.append(f"{label}: {type(e).__name__}: {e}")
            continue
        lat.append(time.perf_counter() - t0)
        results[label] = out
        if tracer is not None:
            tracer.paused = True
        try:
            chk(out)
        except Exception as e:  # noqa: BLE001 - includes CheckFailed
            failures.append(f"{label}: {type(e).__name__}: {e}")
        finally:
            if tracer is not None:
                tracer.paused = False
    return lat, failures, results


def run_checks(checks):
    failures = []
    for name, thunk in checks:
        try:
            thunk()
        except Exception as e:  # noqa: BLE001
            failures.append(f"{name}: {type(e).__name__}: {e}")
    return len(checks), failures


def cpu_seconds(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def startup_seconds(workdir, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "hyperlim", "--help"], cwd=workdir, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        work = wl.WORKLOADS[args.workload](args.seed, args.workdir)
        work.warm()
    except Exception:  # noqa: BLE001 - report the set-up failure to run.py
        traceback.print_exc()
        return 1
    setup_s = time.monotonic() - args.t_spawn
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    children = args.workload == "cli-roundtrip"
    jobs = 1 if args.trace else max(1, int(args.seconds // work.nominal_job_s))
    latencies, walls, failures, digests = [], [], [], []
    attempted = 0
    cpu0 = cpu_seconds(False) + cpu_seconds(True)
    for _ in range(jobs):
        lat, fails, results = run_job(work)
        latencies += lat
        walls.append(sum(lat))
        failures += fails
        attempted += len(lat)
        n, fails = run_checks(work.job_checks(results))
        attempted += n
        failures += fails
        digests.append(work.digest(results))
    cpu = cpu_seconds(False) + cpu_seconds(True) - cpu0

    if args.trace:
        tracer = tr.Tracer()
        patches = tr.install(tracer)
        try:
            work.tracer = tracer
            work.out_bytes = 0
            lat, fails, results = run_job(work, tracer)
        finally:
            work.tracer = None
            patches.uninstall()
        attempted += len(lat)
        failures += fails
        digests.append(work.digest(results))
        layers = tr.layer_values(tracer.totals)
        layers["combinatorics.colex_cache.mb"] = tr.colex_cache_mb()
        layers["trace.overhead_ratio"] = sum(lat) / walls[0]
        layers["process.cpu_s"] = cpu / jobs
        if children:
            layers["cli.startup.s"] = startup_seconds(args.workdir)
            layers["cli.out.bytes"] = work.out_bytes
        out["layers"] = layers

    if len(set(digests)) > 1:
        failures.append("replay: jobs with the same inputs gave different outputs")
    attempted += 1
    n, fails = run_checks(work.final_checks())
    attempted += n
    failures += fails

    rss_who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    out.update(
        {
            "latencies": latencies,
            "walls": walls,
            "attempted": attempted,
            "failures": failures,
            "digest": digests[0],
            "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
            "provenance": {
                "hyperlim": getattr(hyperlim, "__version__", "unknown"),
                "numpy": np.__version__,
                "numba_in_use": bool(getattr(sys.modules.get("hyperlim.kernels"), "USING_NUMBA", False)),
                "threads": 2 if args.workload in ("concentration", "cli-roundtrip") else 1,
                "jobs": jobs,
            },
        }
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
