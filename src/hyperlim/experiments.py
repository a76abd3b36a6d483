"""Seeded experiment harnesses for the quantitative limit statements.

Each experiment runs independent trials from derived per-trial seeds,
aggregates records in trial order (so the artifacts are identical at any
thread count), and emits verdicts that can be recomputed from the stored
records. Verdict names say what was checked, never more.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, exp
from statistics import median
from typing import Optional

from . import kernels, rng
from .combinatorics import falling
from .hypergraph import Hypergraph, _constraints, _eval_maps_count, _induced_kernel, hom
from .hyperpartition import CombinatorialStructure, Hyperpartition, cells_union
from .hypergraphon import StepHypergraphon, density
from .regularity import refine
from .sampling import sample_w, sample_w_edge_count

_EXACT_T0_CAP = 10**8
# most vertex subsets C(n, |V(F)|) a constrained hereditary pattern may span
_SCAN_CAP = 10**6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict
    seed: int
    trials: list
    summary: dict
    verdicts: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "seed": self.seed,
            "trials": list(self.trials),
            "summary": self.summary,
            "verdicts": self.verdicts,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n")

    def write_csv(self, path) -> None:
        rows = self.trials
        if not rows:
            with open(path, "w") as fh:
                fh.write("")
            return
        cols = sorted({c for row in rows for c in row})
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for row in rows:
                w.writerow(row)


def _run_trials(fn, trials: int, seed: int, threads: Optional[int]):
    """Map fn over derived per-trial seeds; results come back in index order
    whatever the thread count."""
    seeds = [rng.derive(seed, rng.TAG_TRIAL, i) for i in range(trials)]
    workers = threads if threads else (os.cpu_count() or 1)
    if workers <= 1 or trials <= 1:
        return [fn(i, s) for i, s in enumerate(seeds)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials), seeds))


def _is_single_full_edge(F: Hypergraph) -> bool:
    return F.n == F.k and len(F.edges) == 1


def _injective_hits(F, H, trial_seed, budget) -> int:
    """How many of budget seeded injective maps of F into the host H send
    every edge of F onto an edge (hypergraph._eval_maps_count)."""
    maps = kernels.injective_maps(budget, F.n, H.n, rng.derive(trial_seed, rng.TAG_INJECTIVE))
    return _eval_maps_count(H, maps, *_constraints(F))


def _t0_of_sample(F, W, n, trial_seed, budget):
    """(t0 estimate or exact value, stderr or 0.0) for one sample of W."""
    k = W.k
    if _is_single_full_edge(F):
        cnt = sample_w_edge_count(W, n, trial_seed)
        return cnt / comb(n, k) if comb(n, k) else 0.0, 0.0
    G = sample_w(W, n, trial_seed).sample
    if n**F.n <= _EXACT_T0_CAP:
        return hom(F, G, "injective") / falling(n, F.n), 0.0
    if budget <= 0:
        raise ValueError("t0_sample_budget must be positive")
    _log.debug("t0 by Monte Carlo: n**|V(F)| = %d**%d exceeds the exact cap %d", n, F.n, _EXACT_T0_CAP)
    est = _injective_hits(F, G, trial_seed, budget) / budget
    return est, (est * (1 - est) / budget) ** 0.5


def concentration_experiment(
    W: StepHypergraphon,
    F: Hypergraph,
    n: int,
    eps: float,
    trials: int,
    t0_sample_budget: int = 10**5,
    seed: int = 0,
    threads: Optional[int] = None,
) -> ExperimentReport:
    """Tail frequency of |t0(F, sample) - t(F, W)| >= eps against the
    martingale bound 2 exp(-eps^2 n / (2 v^2))."""
    if F.k != W.k:
        raise ValueError("pattern and hypergraphon must share arity k")
    if n < F.n or trials < 1 or eps <= 0:
        raise ValueError("need n >= |V(F)|, trials >= 1, eps > 0")
    t_w = density(F, W, mode="exact")
    v = F.n
    bound = 2.0 * exp(-(eps**2) * n / (2.0 * v * v))
    vacuous = bound >= 1.0

    def one(i, s):
        t0, stderr = _t0_of_sample(F, W, n, s, t0_sample_budget)
        dev = abs(t0 - float(t_w))
        return {
            "trial": i,
            "seed": s,
            "t0": t0,
            "stderr": stderr,
            "deviation": dev,
            "hit": int(dev >= eps),
        }

    records = _run_trials(one, trials, seed, threads)
    tail = sum(r["hit"] for r in records) / trials
    binom_se = (tail * (1 - tail) / trials) ** 0.5
    summary = {
        "t_w": f"{t_w.numerator}/{t_w.denominator}",
        "tail_frequency": tail,
        "bound": bound,
        "binomial_stderr": binom_se,
    }
    verdicts = {
        "tail_within_bound": bool(tail <= bound + 3 * binom_se),
        "vacuous_bound": bool(vacuous),
    }
    return ExperimentReport(
        name="concentration",
        parameters={
            "n": n,
            "eps": eps,
            "trials": trials,
            "t0_sample_budget": t0_sample_budget,
            "pattern_vertices": v,
            "k": W.k,
        },
        seed=seed,
        trials=records,
        summary=summary,
        verdicts=verdicts,
    )


def counting_experiment(
    C: CombinatorialStructure,
    F: Hypergraph,
    n_list,
    trials: int,
    seed: int = 0,
    threads: Optional[int] = None,
    mc_samples: int = 20000,
    tolerance: float = 0.05,
) -> ExperimentReport:
    """Densities of F in cell unions over random hyperpartitions converge to
    the exact structure density as n grows."""
    if F.k != C.k:
        raise ValueError("pattern and structure must share arity k")
    n_list = list(n_list)
    if not n_list or trials < 1:
        raise ValueError("need a nonempty n_list and trials >= 1")
    mc_samples = kernels.mc_count(mc_samples, "samples")
    from .hyperpartition import structure_density

    t_exact = structure_density(F, C)
    k, l, v = C.k, C.l, F.n

    def one_at(n):
        def one(i, s):
            T = cells_union(Hyperpartition.uniform_random(n, k, l, seed=s), C)
            est = _injective_hits(F, T, s, mc_samples) / mc_samples
            return {
                "trial": i,
                "seed": s,
                "n": n,
                "t_hat": est,
                "stderr": (est * (1 - est) / mc_samples) ** 0.5,
                "deviation": abs(est - float(t_exact)),
            }

        return _run_trials(one, trials, rng.derive(seed, rng.TAG_TRIAL, n), threads)

    records = []
    medians = {}
    for n in n_list:
        if n < v:
            raise ValueError("every n must be at least |V(F)|")
        rows = one_at(n)
        records.extend(rows)
        medians[n] = median(r["deviation"] for r in rows)
    summary = {
        "t_exact": f"{t_exact.numerator}/{t_exact.denominator}",
        "median_deviation": {str(n): medians[n] for n in n_list},
    }
    verdicts = {
        "final_within_tolerance": bool(medians[n_list[-1]] <= tolerance),
        "trend_non_increasing": bool(medians[n_list[-1]] <= medians[n_list[0]]),
    }
    return ExperimentReport(
        name="counting",
        parameters={
            "n_list": n_list,
            "trials": trials,
            "mc_samples": mc_samples,
            "tolerance": tolerance,
            "k": k,
            "l": l,
        },
        seed=seed,
        trials=records,
        summary=summary,
        verdicts=verdicts,
    )


def inverse_counting_experiment(
    W: StepHypergraphon,
    n: int,
    trials: int,
    seed: int = 0,
    threads: Optional[int] = None,
    threshold: float = 0.2,
    refine_iterations: int = 30,
    use_planted: bool = False,
) -> ExperimentReport:
    """Two independent samples of the same hypergraphon should admit close
    decompositions over one shared structure.

    The shared structure is recovered from the first sample (or taken from W
    itself with use_planted); the second sample is then fitted with that
    structure pinned, so the verdict really asks one structure to explain
    both samples. Independently recovered structures are generally distinct
    eps-equivalent representations, which is why plain witness equality is
    not the test here.
    """
    if n < W.k or trials < 1:
        raise ValueError("need n >= k and trials >= 1")
    l = W.l
    from .hypergraphon import structure_of

    def one(i, s):
        h1 = sample_w(W, n, rng.derive(s, 1)).sample
        h2 = sample_w(W, n, rng.derive(s, 2)).sample
        if use_planted:
            shared = structure_of(W)
            r1 = refine(
                h1, l, iterations=refine_iterations, seed=rng.derive(s, 3), structure=shared
            )
        else:
            r1 = refine(h1, l, iterations=refine_iterations, seed=rng.derive(s, 3))
            shared = r1.structure
        r2 = refine(
            h2, l, iterations=refine_iterations, seed=rng.derive(s, 4), structure=shared
        )
        ok = float(r1.eps) <= threshold and float(r2.eps) <= threshold
        return {
            "trial": i,
            "seed": s,
            "eps1": float(r1.eps),
            "eps2": float(r2.eps),
            "shared_cells": len(shared.cells),
            "pass": int(ok),
        }

    records = _run_trials(one, trials, seed, threads)
    frac = sum(r["pass"] for r in records) / trials
    summary = {"pass_fraction": frac, "threshold": threshold}
    verdicts = {"all_trials_pass": bool(frac == 1.0)}
    return ExperimentReport(
        name="inverse",
        parameters={
            "n": n,
            "trials": trials,
            "threshold": threshold,
            "l": l,
            "k": W.k,
            "refine_iterations": refine_iterations,
            "use_planted": use_planted,
        },
        seed=seed,
        trials=records,
        summary=summary,
        verdicts=verdicts,
    )


def removal_experiment(H: Hypergraph, K: Hypergraph) -> ExperimentReport:
    """Greedy edge removal until no homomorphic copy of K survives.

    Explores how many edges must go to kill every copy; no claim about the
    optimal count. Ties break to the lowest colex edge, so the run is
    deterministic.
    """
    if H.k != K.k:
        raise ValueError("hypergraphs must share arity k")
    if not K.edges:
        raise ValueError("pattern K needs at least one edge")
    if H.n == 0:
        raise ValueError("host must have at least one vertex")
    if H.n**K.n > 10**7 or len(H.edges) > 64:
        raise ValueError("instance exceeds the enumeration caps")
    removed = []
    cur = H
    steps = []
    total = hom(K, cur)
    t_initial = Fraction(total, H.n**K.n)
    while total > 0:
        best = None
        for e in cur.sorted_edges():
            nxt = Hypergraph(cur.k, cur.n, cur.edges - {e})
            cover = total - hom(K, nxt)
            if best is None or cover > best[0]:
                best = (cover, e, nxt)
        cover, e, cur = best
        total -= cover
        removed.append(e)
        steps.append(
            {
                "step": len(removed),
                "edge": list(e),
                "coverage": cover,
                "remaining_hom": total,
            }
        )
    final = hom(K, cur)
    if final:
        raise RuntimeError(f"greedy removal stopped with {final} homomorphisms of K left")
    denom = comb(H.n, H.k)
    summary = {
        "t_initial": f"{t_initial.numerator}/{t_initial.denominator}",
        "removed": len(removed),
        "removed_density": f"{Fraction(len(removed), denom)}" if denom else "0",
    }
    verdicts = {"terminated_zero": final == 0}
    return ExperimentReport(
        name="removal",
        parameters={"n": H.n, "k": H.k, "pattern_vertices": K.n},
        seed=0,
        trials=steps,
        summary=summary,
        verdicts=verdicts,
    )


def _has_induced_copy(G: Hypergraph, F: Hypergraph) -> bool:
    return _induced_kernel(F, G, True) > 0


def hereditary_experiment(
    W: StepHypergraphon,
    F_list,
    n: int,
    trials: int,
    seed: int = 0,
    threads: Optional[int] = None,
) -> ExperimentReport:
    """Patterns with zero induced density in W must never appear induced in
    hyperpartition-restricted samples. Such a pattern over more than
    _SCAN_CAP vertex subsets of a sample is refused before any sampling.

    The restriction is the round-robin hyperpartition at W's resolution,
    which fixes every level, so every trial draws the same sample: the cell
    union of that hyperpartition and W, whatever the trial seed.
    """
    F_list = list(F_list)
    if not F_list or trials < 1 or n < W.k:
        raise ValueError("need patterns, trials >= 1 and n >= k")
    hp = Hyperpartition.round_robin(n, W.k, W.l)
    info = []
    for fi, F in enumerate(F_list):
        t_ind = density(F, W, mode="exact", induced=True)
        if t_ind == 0 and comb(n, F.n) > _SCAN_CAP:
            raise ValueError(
                f"n={n}, pattern F{fi} on {F.n} vertices: induced scan exceeds the cap"
            )
        info.append((F, t_ind))

    def one(i, s):
        G = sample_w(W, n, s, hp=hp).sample
        row = {"trial": i, "seed": s, "edges": G.edge_count}
        for fi, (F, t_ind) in enumerate(info):
            if t_ind == 0:
                row[f"hits_F{fi}"] = int(_has_induced_copy(G, F))
        return row

    records = _run_trials(one, trials, seed, threads)
    per_f = {}
    for fi, (F, t_ind) in enumerate(info):
        if t_ind == 0:
            per_f[f"F{fi}"] = {
                "constrained": True,
                "t_ind": "0",
                "total_hits": sum(r[f"hits_F{fi}"] for r in records),
            }
        else:
            per_f[f"F{fi}"] = {
                "constrained": False,
                "t_ind": f"{t_ind.numerator}/{t_ind.denominator}",
            }
    zero = all(v["total_hits"] == 0 for v in per_f.values() if v["constrained"])
    constrained_any = any(v["constrained"] for v in per_f.values())
    return ExperimentReport(
        name="hereditary",
        parameters={"n": n, "trials": trials, "k": W.k, "l": W.l},
        seed=seed,
        trials=records,
        summary={"patterns": per_f},
        verdicts={
            "zero_hits": bool(zero),
            "any_constrained": bool(constrained_any),
        },
    )


def strong_convergence_report(
    sequence,
    l: int,
    eps: float,
    seed: int = 0,
    threads: Optional[int] = None,
    refine_iterations: int = 30,
) -> ExperimentReport:
    """Check the strong-convergence clauses on a finite sequence: one shared
    structure (up to level relabeling) fitting every member within eps, with
    non-increasing estimated deficits."""
    sequence = list(sequence)
    if len(sequence) < 2:
        raise ValueError("sequence needs at least two members")
    if any(b.n < a.n for a, b in zip(sequence, sequence[1:])):
        raise ValueError("vertex counts must be non-decreasing")
    # the structure recovered from the largest member must explain them all
    last = refine(
        sequence[-1],
        l,
        iterations=refine_iterations,
        seed=rng.derive(seed, rng.TAG_TRIAL, len(sequence) - 1),
    )
    target = last.structure

    def one(i, s):
        if i == len(sequence) - 1:
            return last
        return refine(sequence[i], l, iterations=refine_iterations, seed=s, structure=target)

    reports = _run_trials(one, len(sequence), seed, threads)
    records = []
    shared = True
    for i, rep in enumerate(reports):
        ok = float(rep.eps) <= eps
        shared = shared and ok
        records.append(
            {
                "member": i,
                "n": sequence[i].n,
                "eps": float(rep.eps),
                "delta": float(rep.delta),
                "within_eps": int(ok),
            }
        )
    deltas = [r["delta"] for r in records]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
    return ExperimentReport(
        name="sequence",
        parameters={
            "l": l,
            "eps": eps,
            "members": len(sequence),
            "refine_iterations": refine_iterations,
        },
        seed=seed,
        trials=records,
        summary={"deltas": deltas},
        verdicts={
            "shared_structure": bool(shared),
            "deficits_non_increasing": bool(non_increasing),
        },
    )
