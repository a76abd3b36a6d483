"""hyperlim benchmark: one workload per call, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload concentration --seed 1 --seconds 24 --trace 0

Workloads: concentration, exact-density, refine, cli-roundtrip (see
perfbench/README.md). Each run sets the workload up SETUP_REPEATS times in
fresh processes and reports the median set-up time, then runs the measured
jobs in the last of those processes. ``--seconds`` fixes the work: a run does
as many jobs as fit in it at the nominal job time (at least one), so a faster
program does the same work sooner and every percentile keeps its rank.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced job. The command exits 1
when an op fails or a check finds a wrong output, and 2 when the checkout
has no hyperlim sources; then it prints no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
DEADLINE_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the names in workloads.py, which this file does not import: it imports
# hyperlim, and a checkout without sources must still exit cleanly
WORKLOADS = ("concentration", "exact-density", "refine", "cli-roundtrip")

sys.path.insert(0, HERE)
from tracer import LAYER_METRICS  # noqa: E402


def tail_stat(values, beyond=10):
    """Highest nearest-rank percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count). With `beyond` or fewer
    samples no such percentile exists, and the maximum is returned as p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def spawn(args, env, workdir, deadline, setup_only):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t-spawn", repr(t_spawn)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hyperlim", "__init__.py")):
        print(f"error: no hyperlim sources under {src}", file=sys.stderr)
        return 2
    # a fixed hash seed gives every workload process the same set and dict
    # layouts, so that runs differ by their seed's inputs and the host only
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", **{v: "1" for v in BLAS_VARS})
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    try:
        setups = [
            spawn(args, env, workdir, deadline, True)["setup_s"] for _ in range(SETUP_REPEATS - 1)
        ]
        res = spawn(args, env, workdir, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    lat = res["latencies"]
    tail, tail_pct, n_ops = tail_stat(lat)
    e2e = {
        "wall_s": (statistics.median(res["walls"]), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    failed = len(res["failures"])
    attempted = res["attempted"]
    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    provenance = dict(
        res["provenance"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_commit=git_commit(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        cpu_model=cpu_model(),
        blas_threads={v: env[v] for v in BLAS_VARS},
        python_hash_seed=env["PYTHONHASHSEED"],
        op_tail_percentile=tail_pct,
        op_count=n_ops,
        setup_samples=setups,
    )
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "provenance": provenance,
        "metrics": metrics,
        "failed_ratio": failed / attempted,
        "failures": res["failures"],
        "digest": res["digest"],
        "op_latencies_s": lat,
        "job_walls_s": res["walls"],
    }
    result_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for name, (value, unit) in e2e.items():
        note = f"  (p{tail_pct:.1f} of {n_ops} ops)" if name == "op_tail_s" else ""
        print(f"{args.workload} {name} {value:.6g} {unit}{note}")
    print(f"{args.workload} failed_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} attempts)")
    for f in res["failures"]:
        print(f"FAILED {f}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
