"""Spans around hyperlim's layer boundaries, recorded from outside the package.

A span wraps one public function. The wrapper replaces the function under
every name a caller looks it up by: each module global, in any ``hyperlim``
module, that is bound to the same object, plus class attributes for methods.
So ``experiments.sample_w_edge_count`` and ``sampling.colex_matrix`` are
timed as well as ``combinatorics.colex_matrix``.

Each thread keeps its own span stack. A span's self time is its duration
minus the time its child spans on the same thread cover; totals from all
threads are added under one lock. Counters are recorded at the same
boundaries. Nothing here changes what a wrapped function returns.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from math import comb

import numpy as np


class Tracer:
    """Per-name totals of self seconds and counters, safe across threads."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.paused = False  # set while the benchmark checks an op's output
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def add(self, name, value):
        with self._lock:
            self.totals[name] += value

    def span(self, name, fn, counters=None):
        """Wrap fn so each call records a span called name.

        counters(args, kwargs, result) returns {suffix: amount}; each amount
        is added to the total called name + "." + suffix.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [0.0]  # child seconds
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tracer.add(name + ".s", dur - frame[0])
            if counters is not None:
                for suffix, amount in counters(args, kwargs, result).items():
                    tracer.add(name + "." + suffix, amount)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _hyperlim_modules():
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "hyperlim" or n.startswith("hyperlim."))
    ]


class Patches:
    """Replaced bindings, so that uninstall puts every original back."""

    def __init__(self):
        self._undo = []

    def rebind_function(self, module_name, attr, make_wrapper):
        """Wrap hyperlim.<module_name>.<attr> under every global bound to it.

        Returns False, changing nothing, when the function does not exist.
        """
        mod = importlib.import_module("hyperlim." + module_name)
        orig = getattr(mod, attr, None)
        if orig is None:
            return False
        wrapped = make_wrapper(orig)
        for m in _hyperlim_modules():
            for name, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, name, wrapped)
                    self._undo.append((m, name, orig))
        return True

    def rebind_method(self, cls, attr, make_wrapper):
        """Wrap a method (plain or classmethod) on its class."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))
        self._undo.append((cls, attr, raw))
        return True

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()


def _calls(args, kwargs, result):
    return {"calls": 1}


def _rows(args, kwargs, result):
    return {"rows": int(args[0].shape[0])}


def _hashes(args, kwargs, result):
    return {"hashes": int(np.size(result))}


def _ksets(args, kwargs, result):
    return {"ksets": int(args[0].shape[0])}


def _samples(args, kwargs, result):
    return {"samples": int(args[0])}


def _maps(args, kwargs, result):
    return {"maps": int(args[0].shape[0])}


def _assignments(args, kwargs, result):
    n_low, l = int(args[0]), int(args[1])
    return {"assignments": l**n_low}


def _construct_edges(args, kwargs, result):
    return {"edges": len(args[0].edges)}


# (module, function, span name, counters): functions called by module lookup
FUNCTION_SPANS = [
    ("combinatorics", "colex_matrix", "combinatorics.colex_matrix", _calls),
    ("combinatorics", "colex_rank_rows", "combinatorics.rank_rows", _rows),
    ("rng", "np_mix64", "rng.mix", _hashes),
    ("rng", "np_level_of", "rng.level", None),
    ("kernels", "sample_w_mask", "kernels.sample_w_mask", _ksets),
    ("kernels", "mc_step_count", "kernels.mc_step_count", _samples),
    ("kernels", "eval_maps_count", "kernels.eval_maps_count", _maps),
    ("kernels", "injective_maps", "kernels.injective_maps", None),
    ("kernels", "hom_count", "kernels.hom_count", _calls),
    ("kernels", "induced_count", "kernels.induced_count", _calls),
    ("kernels", "structure_count", "kernels.structure_count", _assignments),
    ("hypergraph", "densities", "hypergraph.densities", None),
    ("hypergraph", "hom", "hypergraph.hom", None),
    ("hyperpartition", "cells_union", "hyperpartition.cells_union", None),
    ("hyperpartition", "structure_density", "hyperpartition.structure_density", None),
    ("hyperpartition", "regularity_deficit", "hyperpartition.regularity_deficit", None),
    ("sampling", "sample_w_edge_count", "sampling.sample_w_edge_count", _calls),
    ("sampling", "sample_w", "sampling.sample_w", None),
    ("cli", "main", "cli.main", None),
]

# every per-layer metric a traced run reports; a layer a workload never
# enters reports 0
LAYER_METRICS = {
    "combinatorics.colex_matrix.s": "s",
    "combinatorics.colex_matrix.calls": "count",
    "combinatorics.colex_cache.mb": "MB",
    "combinatorics.rank_rows.s": "s",
    "combinatorics.rank_rows.rows": "count",
    "rng.mix.s": "s",
    "rng.mix.hashes": "count",
    "rng.level.s": "s",
    "kernels.sample_w_mask.s": "s",
    "kernels.sample_w_mask.ksets": "count",
    "kernels.mc_step_count.s": "s",
    "kernels.mc_step_count.samples": "count",
    "kernels.eval_maps_count.s": "s",
    "kernels.eval_maps_count.maps": "count",
    "kernels.injective_maps.s": "s",
    "kernels.hom_count.s": "s",
    "kernels.hom_count.calls": "count",
    "kernels.induced_count.s": "s",
    "kernels.induced_count.calls": "count",
    "kernels.structure_count.s": "s",
    "kernels.structure_count.assignments": "count",
    "hypergraph.densities.s": "s",
    "hypergraph.hom.s": "s",
    "hypergraph.construct.s": "s",
    "hypergraph.construct.edges": "count",
    "hypergraph.to_obj.s": "s",
    "hypergraph.from_obj.s": "s",
    "hyperpartition.cells_union.s": "s",
    "hyperpartition.structure_density.s": "s",
    "hyperpartition.regularity_deficit.s": "s",
    "hypergraphon.density_exact.s": "s",
    "hypergraphon.density_mc.s": "s",
    "sampling.sample_w_edge_count.s": "s",
    "sampling.sample_w_edge_count.calls": "count",
    "sampling.sample_w.s": "s",
    "regularity.refine.s": "s",
    "regularity.sweeps": "count",
    "regularity.restarts": "count",
    "regularity.moves_accepted": "count",
    "regularity.accept_ratio": "ratio",
    "experiments.trial_busy.s": "s",
    "experiments.pool_util": "ratio",
    "experiments.report_write.s": "s",
    "experiments.report_write.bytes": "bytes",
    "cli.startup.s": "s",
    "cli.main.s": "s",
    "cli.out.bytes": "bytes",
    "process.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _density_wrapper(tracer, orig):
    exact = tracer.span("hypergraphon.density_exact", orig)
    mc = tracer.span("hypergraphon.density_mc", orig)

    def density(F, W, *args, **kwargs):
        mode = args[0] if args else kwargs.get("mode", "exact")
        return (mc if mode == "montecarlo" else exact)(F, W, *args, **kwargs)

    return density


def _refine_wrapper(tracer, orig):
    timed = tracer.span("regularity.refine", orig)

    def refine(H, l, *args, **kwargs):
        rep = timed(H, l, *args, **kwargs)
        sweeps = [t for t in rep.trace if "iteration" in t]
        if sweeps and not tracer.paused:
            subsets = sum(comb(H.n, r) for r in range(1, H.k + 1))
            tracer.add("regularity.sweeps", len(sweeps))
            tracer.add("regularity.restarts", sweeps[-1]["restart"])
            tracer.add("regularity.moves_accepted", sum(t["accepted"] for t in sweeps))
            tracer.add("regularity.moves_tried", len(sweeps) * subsets * (l - 1))
        return rep

    return refine


def _run_trials_wrapper(tracer, orig):
    def _run_trials(fn, trials, *args, **kwargs):
        if tracer.paused:
            return orig(fn, trials, *args, **kwargs)

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                tracer.add("experiments.trial_busy.s", time.perf_counter() - t0)

        threads = kwargs.get("threads", args[1] if len(args) > 1 else None)
        workers = threads if threads else (os.cpu_count() or 1)
        workers = 1 if trials <= 1 else max(1, min(workers, trials))
        t0 = time.perf_counter()
        try:
            return orig(timed, trials, *args, **kwargs)
        finally:
            tracer.add("experiments.pool_capacity.s", (time.perf_counter() - t0) * workers)

    return _run_trials


def _report_write_wrapper(tracer, orig):
    timed = tracer.span("experiments.report_write", orig)

    def write(self, path):
        timed(self, path)
        if not tracer.paused:
            tracer.add("experiments.report_write.bytes", os.path.getsize(path))

    return write


def install(tracer):
    """Wrap every layer boundary; returns the Patches to uninstall them."""
    for name in ("cli", "experiments", "metrics", "regularity", "sampling"):
        importlib.import_module("hyperlim." + name)
    p = Patches()
    for module, attr, span_name, counters in FUNCTION_SPANS:
        p.rebind_function(
            module, attr, lambda f, n=span_name, c=counters: tracer.span(n, f, c)
        )
    p.rebind_function("hypergraphon", "density", lambda f: _density_wrapper(tracer, f))
    p.rebind_function("regularity", "refine", lambda f: _refine_wrapper(tracer, f))
    p.rebind_function("experiments", "_run_trials", lambda f: _run_trials_wrapper(tracer, f))
    from hyperlim.experiments import ExperimentReport
    from hyperlim.hypergraph import Hypergraph

    p.rebind_method(
        Hypergraph,
        "__init__",
        lambda f: tracer.span("hypergraph.construct", f, _construct_edges),
    )
    p.rebind_method(Hypergraph, "to_obj", lambda f: tracer.span("hypergraph.to_obj", f))
    p.rebind_method(Hypergraph, "from_obj", lambda f: tracer.span("hypergraph.from_obj", f))
    for attr in ("write_json", "write_csv"):
        p.rebind_method(ExperimentReport, attr, lambda f: _report_write_wrapper(tracer, f))
    return p


def colex_cache_mb():
    """Megabytes of arrays held by the colex_matrix cache right now (call it
    with the spans uninstalled: the cache is a referent of the lru wrapper)."""
    from hyperlim import combinatorics

    held = 0
    for ref in gc.get_referents(combinatorics.colex_matrix):
        if isinstance(ref, dict):
            held += sum(v.nbytes for v in ref.values() if isinstance(v, np.ndarray))
    return held / 2**20


def layer_values(totals):
    """The LAYER_METRICS values from raw totals (ratios derived here)."""
    out = {name: float(totals.get(name, 0.0)) for name in LAYER_METRICS}
    tried = totals.get("regularity.moves_tried", 0)
    out["regularity.accept_ratio"] = (
        totals.get("regularity.moves_accepted", 0) / tried if tried else 0.0
    )
    cap = totals.get("experiments.pool_capacity.s", 0.0)
    out["experiments.pool_util"] = totals.get("experiments.trial_busy.s", 0.0) / cap if cap else 0.0
    return out
