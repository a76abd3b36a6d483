"""The four benchmark workloads: inputs from a seed, ops, and their checks.

Every workload is a closed loop of ops, one public hyperlim call (or, for
cli-roundtrip, one ``python -m hyperlim`` subprocess) at a time. A job is a
fixed list of ops; every job of a run repeats the same inputs, so two jobs
must give identical results. Inputs come only from the workload seed through
numpy's SeedSequence, never from hyperlim's own generators.

An op's check runs after its timer stops. A failed check, like an op that
raises, counts as a failed attempt.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb, exp, sqrt

import numpy as np

import hyperlim.experiments as experiments
import hyperlim.hypergraph as hypergraph
import hyperlim.hypergraphon as hypergraphon
import hyperlim.hyperpartition as hyperpartition
import hyperlim.metrics as metrics
import hyperlim.regularity as regularity
import hyperlim.sampling as sampling
from hyperlim.combinatorics import falling

HERE = os.path.dirname(os.path.abspath(__file__))

# Values this commit produces for fixed inputs; later changes must keep them.
GOLDEN = {
    # t(single edge, example1 at k=2)
    "t_w": "1/2",
    # structure density of the triangle when only top label 2 is allowed
    "triangle_top2": "1/8",
    # densities(P4, Hypergraph.random(2, 12, 1/2, seed=7)): t, t0, t_ind, t0_ind
    "p4_in_random12": ["1315/10368", "833/5940", "103/10368", "103/5940"],
    # sha256 of concentration_experiment(example1, edge, 2000, 0.08,
    # trials=4, seed=0) as written by write_json, at threads 1 and 2
    "concentration_seed0": "f7abb58c4b82f8e8d42c872420ff8895b66960bdb8b2275eb44457d1e60c3c24",
    # sha256 of the JSON list ExactDensity.exact_values makes: every exact
    # density and injective hom count of an exact-density job
    "exact_values": "0edb836f960c9746a2c0c0e42ec6a1732e93b3191d8dcf3319aba9d8f538170d",
    # sample_w_edge_count(example1, 2000, seed=0)
    "sample_seed0_edges": 999024,
}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def seeds(seed, count, tag):
    """count seeds below 2**63 for one purpose (tag) of one workload seed."""
    ss = np.random.SeedSequence([seed & (2**63 - 1), tag])
    return [int(s) >> 1 for s in ss.generate_state(count, dtype=np.uint64)]


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def random_structure(k, l, g, p=0.4):
    width = (1 << k) - 1
    cells = set()
    for code in range(l**width):
        if g.random() < p:
            cells.add(tuple(int((code // l**i) % l) + 1 for i in range(width)))
    return hyperpartition.CombinatorialStructure(k, l, cells, symmetrize=True)


def random_pattern(k, v, p, g):
    subs = list(combinations(range(v), k))
    return hypergraph.Hypergraph(k, v, [s for s in subs if g.random() < p])


def relabeled(k, v, edges, g):
    perm = g.permutation(v)
    return hypergraph.Hypergraph(k, v, [tuple(int(perm[x]) for x in e) for e in edges])


def host_with_m_edges(k, n, m, g):
    subs = list(combinations(range(n), k))
    pick = g.choice(len(subs), size=m, replace=False)
    return hypergraph.Hypergraph(k, n, [subs[i] for i in pick])


def spread(*groups):
    """Merge op lists so that each list's ops are spaced evenly over the job,
    each list keeping its own order. Ops of one kind run back to back would
    time the host during only a second or two, and this host's speed drifts
    by a quarter over seconds."""
    keyed = [((i + 0.5) / len(g), gi, op) for gi, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def golden_checks():
    """Seed-independent exact values; each entry is (name, thunk)."""
    W = hypergraphon.builtin_w("example1", 2)
    edge = hypergraph.Hypergraph.single_edge(2)
    tri = hypergraph.Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    top2 = hyperpartition.CombinatorialStructure.from_top_labels(2, 2, {2})
    p4 = hypergraph.Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])

    def t_w():
        check(frac(hypergraphon.density(edge, W)) == GOLDEN["t_w"], "t(edge, example1)")

    def triangle():
        got = frac(hyperpartition.structure_density(tri, top2))
        check(got == GOLDEN["triangle_top2"], f"triangle in top-2 structure: {got}")

    def p4_densities():
        rec = hypergraph.densities(p4, hypergraph.Hypergraph.random(2, 12, Fraction(1, 2), 7))
        got = [frac(x) for x in (rec.t, rec.t0, rec.t_ind, rec.t0_ind)]
        check(got == GOLDEN["p4_in_random12"], f"P4 densities: {got}")

    return [("golden.t_w", t_w), ("golden.triangle", triangle), ("golden.p4", p4_densities)]


class Workload:
    """Inputs for one seed; ops() lists (label, call, check) triples."""

    name = ""
    nominal_job_s = 1.0
    warm_label = None  # the op set-up runs once; None means the first
    tracer = None  # the Tracer during a traced job

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def ops(self):
        raise NotImplementedError

    def warm(self):
        ops = self.ops()
        label, call, chk = next((op for op in ops if op[0] == self.warm_label), ops[0])
        chk(call())

    def job_checks(self, results):
        """Checks over one job's results (label -> result); (name, thunk)."""
        return []

    def final_checks(self):
        """Untimed oracle and golden checks, run once per run."""
        return []

    def digest(self, results):
        """Digest of a job's outputs, equal across jobs and trace modes."""
        h = hashlib.sha256()
        for label in sorted(results):
            h.update(label.encode())
            h.update(repr(self.canonical(results[label])).encode())
        return h.hexdigest()

    @staticmethod
    def canonical(result):
        return result


# ---------------------------------------------------------------------------


class Concentration(Workload):
    """Criterion 7's shape: 100 count-only step-sample trials at n=2000,
    split over 25 concentration_experiment calls of 4 trials on 2 threads."""

    name = "concentration"
    nominal_job_s = 12.0
    CALLS, TRIALS, N, EPS = 25, 4, 2000, 0.08

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.W = hypergraphon.builtin_w("example1", 2)
        self.F = hypergraph.Hypergraph.single_edge(2)
        self.master = seeds(seed, self.CALLS, 1)
        self.bound = 2 * exp(-(self.EPS**2) * self.N / 8)

    def call(self, s, threads=2):
        return experiments.concentration_experiment(
            self.W, self.F, n=self.N, eps=self.EPS, trials=self.TRIALS, seed=s, threads=threads
        )

    def check_report(self, rep):
        check(rep.summary["t_w"] == GOLDEN["t_w"], f"t_w {rep.summary['t_w']}")
        check(abs(rep.summary["bound"] - self.bound) < 1e-12, "bound")
        check(len(rep.trials) == self.TRIALS, "trial count")
        check(all(0.0 <= r["t0"] <= 1.0 for r in rep.trials), "t0 outside [0, 1]")

    def ops(self):
        return [
            (f"call{j:02d}", lambda s=s: self.call(s), self.check_report)
            for j, s in enumerate(self.master)
        ]

    @staticmethod
    def canonical(rep):
        return sha(json.dumps(rep.to_obj(), sort_keys=True).encode())

    def job_checks(self, results):
        def tail():
            hits = sum(r["hit"] for rep in results.values() for r in rep.trials)
            total = self.CALLS * self.TRIALS
            freq = hits / total
            se = sqrt(freq * (1 - freq) / total)
            check(freq <= self.bound + 3 * se, f"tail {freq} above bound {self.bound}")

        return [("job.tail_within_bound", tail)]

    def final_checks(self):
        def replay_seed0():
            path = os.path.join(self.workdir, "seed0.json")
            for threads in (1, 2):
                self.call(0, threads).write_json(path)
                with open(path, "rb") as fh:
                    got = sha(fh.read())
                check(got == GOLDEN["concentration_seed0"], f"seed-0 report at threads={threads}")

        def edges_seed0():
            got = sampling.sample_w_edge_count(self.W, self.N, 0)
            check(got == GOLDEN["sample_seed0_edges"], f"seed-0 edge count {got}")

        return [("golden.replay_seed0", replay_seed0), ("golden.edges_seed0", edges_seed0)]


# ---------------------------------------------------------------------------

# (name, vertices, edges, host vertices, host edge share): pattern shapes
# and the size of the random host each goes into
_K2_SHAPES = [
    ("P4", 4, [(0, 1), (1, 2), (2, 3)], 20, 0.2),
    ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)], 20, 0.2),
    ("paw", 4, [(0, 1), (1, 2), (0, 2), (2, 3)], 24, 0.2),
    ("star", 4, [(0, 1), (0, 2), (0, 3)], 20, 0.2),
    ("P5", 5, [(0, 1), (1, 2), (2, 3), (3, 4)], 20, 0.15),
    ("C5", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 18, 0.2),
    ("P6", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 18, 0.1),
]
_K3_SHAPES = [
    ("two3", 4, [(0, 1, 2), (1, 2, 3)], 14, 0.2),
    ("three3", 4, [(0, 1, 2), (1, 2, 3), (0, 2, 3)], 12, 0.3),
    ("tight5", 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], 12, 0.15),
]
# Hosts, structures and step patterns are drawn once from this fixed seed;
# the workload seed relabels their vertices. The inputs differ per seed, the
# counting work and the exact values do not.
_BASE_SEED = 20081024
# k=3 pattern on 5 vertices covering 8 of its 10 pairs: 3**13 label maps
_BRUTE_EDGES = [(0, 1, 2), (2, 3, 4), (0, 1, 3)]


class ExactDensity(Workload):
    """Exact counting: densities and injective hom counts of seeded pairs,
    criterion 5's cross-path batch, one brute-force structure count, a
    Monte Carlo twin of every step pattern, and one counting_experiment
    (sampled maps into cell unions against the exact structure density)."""

    name = "exact-density"
    # six jobs per 24 s run. Host sizes give the five costliest kinds of op
    # (densities.C5, .P5, .two3, hom_inj.P6, .P5) 0.3-0.4 s each, so the
    # tail percentile, ten places from the top, lands inside their 30
    # samples; two kinds set well apart from the rest would put it at the
    # fastest of their 12 samples, which moved by a fifth between runs
    nominal_job_s = 4.0
    warm_label = "densities.C4"
    # Step counts put the median op inside the Monte Carlo twins: 22
    # criterion-5 calls of under 2 ms lie below it, 22 calls of 50 ms or
    # more above. With many more structures the median falls among the
    # fastest calls' sparse upper end, where it moved by a quarter from run
    # to run.
    K2_STEPS, K3_STEPS = 4, 5
    MC_SAMPLES = 20000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        g = np.random.default_rng(seeds(seed, 1, 2)[0])
        base = np.random.default_rng(_BASE_SEED)
        self.pairs = []
        for name, v, edges, n, p in _K2_SHAPES + _K3_SHAPES:
            k = len(edges[0])
            H = host_with_m_edges(k, n, round(p * comb(n, k)), base)
            F = hypergraph.Hypergraph(k, v, edges)
            self.pairs.append((name, F, relabeled(k, n, sorted(H.edges), g)))
        self.steps = []
        for i in range(self.K2_STEPS):
            l = 2 if i % 2 == 0 else 3
            C, F = random_structure(2, l, base), random_pattern(2, 3 + i % 3, 0.6, base)
            self.steps.append((f"s2_{i:02d}", C, relabeled(2, F.n, sorted(F.edges), g)))
        for i in range(self.K3_STEPS):
            C, F = random_structure(3, 2, base), random_pattern(3, 4, 0.7, base)
            self.steps.append((f"s3_{i:02d}", C, relabeled(3, F.n, sorted(F.edges), g)))
        self.brute = (random_structure(3, 3, base), relabeled(3, 5, _BRUTE_EDGES, g))
        self.mc_seeds = seeds(seed, len(self.steps) + 1, 3)
        # Monte Carlo over a finite host: triangles in cell unions at n=200
        self.top2 = hyperpartition.CombinatorialStructure.from_top_labels(2, 2, {2})
        self.tri = hypergraph.Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])

    def ops(self):
        pairs, steps, tail = [], [], []
        dens = {}

        def keep(name):
            def chk(rec):
                check(rec.t_ind <= rec.t, f"{name}: t_ind > t")
                dens[name] = rec

            return chk

        def inj_check(name, F, H):
            def chk(count):
                rec = dens.get(name)
                check(rec is not None, f"{name}: densities missing")
                check(count == rec.t0 * falling(H.n, F.n), f"{name}: hom injective != t0 * (n)_v")

            return chk

        for name, F, H in self.pairs:
            pairs.append((f"densities.{name}", lambda F=F, H=H: hypergraph.densities(F, H), keep(name)))
            pairs.append(
                (f"hom_inj.{name}", lambda F=F, H=H: hypergraph.hom(F, H, "injective"), inj_check(name, F, H))
            )
        exact = {}
        for (name, C, F), mc_seed in zip(self.steps, self.mc_seeds):
            W = hypergraphon.step_from_structure(C)

            def first(val, name=name):
                exact[name] = val

            def same(val, name=name, what=""):
                check(val == exact[name], f"{name}: {what} disagrees with density(F, W)")

            steps.append((f"density.{name}", lambda F=F, W=W: hypergraphon.density(F, W), first))
            steps.append(
                (
                    f"structure_density.{name}",
                    lambda F=F, C=C: hyperpartition.structure_density(F, C),
                    lambda v, name=name: same(v, name, "structure_density"),
                )
            )
            if C.k == 2:
                steps.append(
                    (
                        f"projection.{name}",
                        lambda F=F, W=W: hypergraphon.density_via_projection(F, W),
                        lambda v, name=name: same(v, name, "density_via_projection"),
                    )
                )
            steps.append(
                (
                    f"mc.{name}",
                    lambda F=F, W=W, s=mc_seed: hypergraphon.density(
                        F, W, mode="montecarlo", samples=self.MC_SAMPLES, seed=s
                    ),
                    lambda est, name=name: self.check_mc(est, exact[name], name),
                )
            )
        tail.append(
            (
                "counting",
                lambda: experiments.counting_experiment(
                    self.top2, self.tri, [200], trials=2, seed=self.mc_seeds[-1], threads=1
                ),
                self.check_counting,
            )
        )
        C, F = self.brute
        W = hypergraphon.step_from_structure(C)
        tail.append(
            (
                "structure_density.brute",
                lambda: hyperpartition.structure_density(F, C),
                lambda v: exact.__setitem__("brute", v),
            )
        )
        tail.append(
            (
                "mc.brute",
                lambda: hypergraphon.density(
                    F, W, mode="montecarlo", samples=self.MC_SAMPLES, seed=self.mc_seeds[-1]
                ),
                lambda est: self.check_mc(est, exact["brute"], "brute"),
            )
        )
        return spread(pairs, steps, tail)

    def job_checks(self, results):
        def exact_values():
            got = sha(json.dumps(self.exact_values(results)).encode())
            check(got == GOLDEN["exact_values"], "exact values differ from the golden digest")

        return [("golden.exact_values", exact_values)]

    def exact_values(self, results):
        """Every exact output of a job: the same for every seed."""
        rows = []
        for name, F, H in self.pairs:
            rec = results[f"densities.{name}"]
            rows.append([name] + [frac(x) for x in (rec.t, rec.t0, rec.t_ind, rec.t0_ind)])
            rows[-1].append(str(results[f"hom_inj.{name}"]))
        for name, C, F in self.steps:
            rows.append([name, frac(results[f"density.{name}"])])
        rows.append(["brute", frac(results["structure_density.brute"])])
        return rows

    def check_counting(self, rep):
        check(rep.summary["t_exact"] == GOLDEN["triangle_top2"], f"counting t_exact {rep.summary['t_exact']}")
        check(rep.verdicts["final_within_tolerance"], "counting: sampled density off the exact value")

    def check_mc(self, est_se, p, name):
        est, _ = est_se
        p = float(p)
        se = sqrt(p * (1 - p) / self.MC_SAMPLES)
        check(abs(est - p) <= 5 * se + 1e-12, f"{name}: Monte Carlo {est} vs exact {p}")

    def final_checks(self):
        def brute():
            for name, F, H in self.pairs:
                if F.k == 2 and F.n == 4:
                    got = hypergraph.hom(F, H, "injective")
                    check(got == hypergraph.injective_hom_brute(F, H), f"{name}: inversion vs brute")

        return golden_checks() + [("oracle.injective_brute", brute)]


# ---------------------------------------------------------------------------


class Refine(Workload):
    """Local search: refine on three noisy planted k=2 inputs (n=60, l=3,
    10 iterations) and one k=3 input (n=20, l=2, 20 iterations);
    criterion 12's planted n=24 recovery is checked once per run.

    Local search costs differ from input to input, so one job holds several
    distinct inputs rather than repeating one. Calls take about a second
    each, so that a run times a few dozen of them rather than a handful,
    and the median and tail fall inside one cluster of similar calls."""

    name = "refine"
    nominal_job_s = 3.4
    warm_label = "refine.k3n20"
    PLANTED = hyperpartition.CombinatorialStructure(
        2, 2, {(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)}
    )
    # Assortative planted structures (in iff the vertex labels agree), fixed
    # for every seed: with noise no search reaches eps 0, so every call runs
    # all its sweeps. A random structure would change the edge count, and
    # an early exact fit would end the search, both moving the cost by seed.
    ASSORT2 = hyperpartition.CombinatorialStructure(
        2, 3, {(a, a, c) for a in (1, 2, 3) for c in (1, 2, 3)}
    )
    ASSORT3 = hyperpartition.CombinatorialStructure(
        3, 2, {c for c in product((1, 2), repeat=7) if c[0] == c[1] == c[3]}
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        g = np.random.default_rng(seeds(seed, 1, 4)[0])
        k2 = [(f"k2n60.{i}", self.noisy_planted(self.ASSORT2, 60, g), 3, 10) for i in range(3)]
        self.noisy = k2[:1] + [("k3n20", self.noisy_planted(self.ASSORT3, 20, g), 2, 20)] + k2[1:]
        self.h24 = hyperpartition.cells_union(
            hyperpartition.Hyperpartition.round_robin(24, 2, 2), self.PLANTED
        )
        self.run_seeds = seeds(seed, len(self.noisy), 5)

    @staticmethod
    def noisy_planted(C, n, g):
        """cells_union of the round-robin hyperpartition XOR a p=0.1 random
        hypergraph."""
        k, l = C.k, C.l
        T = hyperpartition.cells_union(hyperpartition.Hyperpartition.round_robin(n, k, l), C)
        noise = [s for s in combinations(range(n), k) if g.random() < 0.1]
        return hypergraph.Hypergraph(k, n, T.edges ^ set(noise))

    @staticmethod
    def eps_consistent(H, name):
        def chk(rep):
            T = hyperpartition.cells_union(rep.hp, rep.structure)
            check(rep.eps == metrics.hamming_density(H, T), f"{name}: eps != hamming(H, cells_union)")

        return chk

    def ops(self):
        return [
            (
                f"refine.{name}",
                lambda H=H, l=l, iters=iters, s=s: regularity.refine(H, l, iterations=iters, seed=s),
                self.eps_consistent(H, name),
            )
            for (name, H, l, iters), s in zip(self.noisy, self.run_seeds)
        ]

    @staticmethod
    def canonical(rep):
        return sha(json.dumps(rep.to_obj(), sort_keys=True).encode())

    def final_checks(self):
        # Criterion 12, untimed: its searches take 10-60 ms each, and as
        # timed ops their jitter set the median op time, which moved by a
        # third between runs of the same code on a 2-vCPU host.
        def recovery():
            good = 0
            for s in range(20):
                rep = regularity.refine(self.h24, 2, iterations=40, seed=s)
                self.eps_consistent(self.h24, f"planted seed {s}")(rep)
                good += rep.eps <= Fraction(1, 20)
            check(good >= 16, f"planted structure recovered on only {good}/20 seeds")

        return [("planted_recovery", recovery)]


# ---------------------------------------------------------------------------


class CliRoundtrip(Workload):
    """Real ``python -m hyperlim`` subprocesses, one at a time: import, JSON
    I/O and building a million-edge Hypergraph from a sample."""

    name = "cli-roundtrip"
    nominal_job_s = 15.0
    SAMPLE_N = 2000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.s = seeds(seed, 4, 6)
        W = hypergraphon.builtin_w("example1", 2)
        U = hypergraphon.builtin_w("example2", 2)
        tri = hypergraph.Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
        host = sampling.sample_w(W, 30, self.s[3]).sample
        self.files = {}
        for name, obj in (
            ("W", W.to_obj()),
            ("U", U.to_obj()),
            ("edge", hypergraph.Hypergraph.single_edge(2).to_obj()),
            ("tri", tri.to_obj()),
            ("host", host.to_obj()),
        ):
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as fh:
                fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
            self.files[name] = path
        self.W, self.host = W, host
        self.t_tri = float(hypergraphon.density(tri, W))
        self.d1_obj = metrics.d1(U, W).to_obj()
        self.out_bytes = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def run(self, *args):
        env = None
        command = [sys.executable, "-m", "hyperlim"]
        trace_out = os.path.join(self.workdir, "child-trace.json")
        if self.tracer is not None:
            # same CLI, with the spans of tracer.py installed in the child
            command = [sys.executable, os.path.join(HERE, "cli_traced.py")]
            env = dict(os.environ, PERFBENCH_TRACE_OUT=trace_out)
        proc = subprocess.run(
            command + list(args), cwd=self.workdir, env=env, capture_output=True, text=True, timeout=170
        )
        if self.tracer is not None and os.path.exists(trace_out):
            with open(trace_out) as fh:
                for name, value in json.load(fh).items():
                    self.tracer.add(name, value)
            os.remove(trace_out)
        self.out_bytes += len(proc.stdout.encode())
        if proc.returncode != 0:
            raise CheckFailed(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def file_text(self, name):
        with open(self.path(name)) as fh:
            text = fh.read()
        self.out_bytes += len(text.encode())
        return text

    def ops(self):
        f = self.files
        s_sample, s_exp, s_misc = self.s[:3]
        exp_dir = self.path("exp")

        def builtin(out):
            check(json.loads(self.file_text("bw.json")) == self.W.to_obj(), "builtin-w output differs from to_obj")

        def sample(out):
            obj = json.loads(self.file_text("sample.json"))
            self.file_text("sample.meta.json")
            self.sample_edges = len(obj["edges"])
            check(obj["n"] == self.SAMPLE_N and obj["k"] == 2, "sample shape")
            os.remove(self.path("sample.json"))

        def experiment(out):
            rep = json.loads(self.file_text(os.path.join("exp", f"concentration-{s_exp}.json")))
            self.file_text(os.path.join("exp", f"concentration-{s_exp}.csv"))
            check(rep["summary"]["t_w"] == GOLDEN["t_w"], "experiment t_w")
            check(len(rep["trials"]) == 10, "experiment trial count")
            check("tail_within_bound=True" in out, "experiment verdict")

        def mc(out):
            m = re.fullmatch(r"(\S+) \+- (\S+)\n", out)
            check(m is not None, f"density output {out!r}")
            est, p = float(m.group(1)), self.t_tri
            se = sqrt(p * (1 - p) / 20000)
            check(abs(est - p) <= 5 * se + 1e-6, f"Monte Carlo {est} vs exact {p}")

        def distance(out):
            check(json.loads(out) == self.d1_obj, "d1 report differs from the library")

        def regularize(out):
            rep = json.loads(self.file_text("reg.json"))
            hp = hyperpartition.Hyperpartition.from_obj(rep["hp"])
            C = hyperpartition.CombinatorialStructure.from_obj(rep["structure"])
            T = hyperpartition.cells_union(hp, C)
            check(
                out.startswith(f"eps={rep['eps']} ")
                and Fraction(rep["eps"]) == metrics.hamming_density(self.host, T),
                "regularize eps != hamming(H, cells_union)",
            )

        def validate(out):
            check(out == "ok\n", f"validate printed {out!r}")

        n = str(self.SAMPLE_N)
        # cheap and costly ops alternate, so that the median op samples the
        # whole job rather than a second or two of it
        return [
            ("builtin-w", lambda: self.run("builtin-w", "--kind", "example1", "--k", "2", "--out", "bw.json"), builtin),
            ("sample", lambda: self.run("sample", "--W", f["W"], "--n", n, "--seed", str(s_sample), "--out", "sample.json"), sample),
            (
                "density-mc",
                lambda: self.run("density", "--F", f["tri"], "--W", f["W"], "--mode", "montecarlo", "--samples", "20000", "--seed", str(s_misc)),
                mc,
            ),
            (
                "experiment",
                lambda: self.run(
                    "experiment", "concentration", "--W", f["W"], "--F", f["edge"], "--n", n,
                    "--eps", "0.08", "--trials", "10", "--seed", str(s_exp), "--threads", "2", "--out", exp_dir,
                ),
                experiment,
            ),
            ("distance-d1", lambda: self.run("distance", "--metric", "d1", "--U", f["U"], "--W", f["W"]), distance),
            (
                "regularize",
                lambda: self.run("regularize", "--H", f["host"], "--l", "2", "--seed", str(s_misc), "--out", "reg.json"),
                regularize,
            ),
            ("validate", lambda: self.run("validate", "--W", f["W"], "--H", f["host"]), validate),
        ]

    @staticmethod
    def canonical(out):
        return out

    def job_checks(self, results):
        def edges():
            want = sampling.sample_w_edge_count(self.W, self.SAMPLE_N, self.s[0])
            check(self.sample_edges == want, f"sample has {self.sample_edges} edges, expected {want}")

        return [("job.sample_edge_count", edges)]

    def final_checks(self):
        def thread_replay():
            s_exp = self.s[1]
            one = self.path("exp1")
            self.run(
                "experiment", "concentration", "--W", self.files["W"], "--F", self.files["edge"], "--n",
                str(self.SAMPLE_N), "--eps", "0.08", "--trials", "10", "--seed", str(s_exp), "--threads", "1",
                "--out", one,
            )
            for ext in ("json", "csv"):
                with open(os.path.join(one, f"concentration-{s_exp}.{ext}"), "rb") as a, open(
                    os.path.join(self.path("exp"), f"concentration-{s_exp}.{ext}"), "rb"
                ) as b:
                    check(a.read() == b.read(), f"experiment .{ext} differs between threads 1 and 2")

        return [("replay.threads", thread_replay)]


WORKLOADS = {w.name: w for w in (Concentration, ExactDensity, Refine, CliRoundtrip)}
