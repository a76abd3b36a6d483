"""Acceptance battery: thirteen go/no-go checks at stated tolerances.

Each test asserts one numbered criterion and prints a single PASS line on
success (a pytest failure is the FAIL signal). Runtime budgets are enforced
with wall-clock asserts; kernels are pre-warmed by the session fixture so
compilation does not eat into them.
"""

import itertools
import json
import os
import time
from fractions import Fraction
from math import exp, sqrt
from statistics import median

import numpy as np
from measure_oracle import grid_integral_density
from test_kernels import uniform_maps

from hyperlim import rng, kernels
from hyperlim.hypergraph import (
    Hypergraph,
    blowup,
    canonical_family,
    densities,
    hom,
    injective_hom_brute,
)
from hyperlim.hyperpartition import (
    CombinatorialStructure,
    Hyperpartition,
    cells_union,
    empirical_level_maps,
    structure_density,
)
from hyperlim.hypergraphon import (
    builtin_w,
    density,
    density_via_projection,
    step_from_structure,
)
from hyperlim.sampling import sample_w, sample_w_edge_count
from hyperlim.metrics import d1, delta_w_lower, delta1_upper
from hyperlim.regularity import refine
from hyperlim.experiments import concentration_experiment
from hyperlim.cli import main


HALF = Fraction(1, 2)
TRIANGLE = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


class budget:
    """Context manager asserting the block finishes inside its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"
        return False


def rand_structure(k, l, seed, p=0.4):
    g = np.random.default_rng(seed)
    width = (1 << k) - 1
    cells = set()
    for code in range(l**width):
        if g.random() < p:
            cells.add(tuple(int((code // l**i) % l) + 1 for i in range(width)))
    return CombinatorialStructure(k, l, cells, symmetrize=True)


def test_criterion_01_corner_hypergraphon_densities():
    with budget(10):
        for k in (2, 3):
            W = builtin_w("example1", k)
            patterns = [Hypergraph.single_edge(k)]
            if k == 2:
                patterns += [TRIANGLE, Hypergraph.complete(2, 4)]
            else:
                patterns.append(Hypergraph.complete(3, 4))
            patterns += [Hypergraph.random(k, 5, 0.5, seed) for seed in (11, 12, 13)]
            for F in patterns:
                assert density(F, W) == HALF ** F.edge_count, (k, F)
    print("PASS criterion 1: corner hypergraphon gives (1/2)^{edges} exactly for k=2,3")


def test_criterion_02_pair_coordinate_hypergraphon_densities():
    with budget(10):
        W = builtin_w("example2", 3)
        patterns = [
            Hypergraph.single_edge(3),
            Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)]),
            Hypergraph.complete(3, 4),
        ]
        expected_exponents = []
        for F in patterns:
            pairs = {p for e in F.edges for p in itertools.combinations(sorted(e), 2)}
            expected_exponents.append(len(pairs))
        assert expected_exponents == [3, 5, 6]
        for F, m in zip(patterns, expected_exponents):
            assert density(F, W) == HALF**m, (F, m)
    print("PASS criterion 2: pair-coordinate hypergraphon gives (1/2)^{2-subsets} exactly")


def test_criterion_03_injective_inversion_identity():
    with budget(60):
        g = np.random.default_rng(301)
        for trial in range(100):
            k = 2 if trial % 2 == 0 else 3
            nf = int(g.integers(k, 6))
            nh = int(g.integers(k, 7))
            F = Hypergraph.random(k, nf, float(g.uniform(0.2, 0.9)), int(g.integers(1 << 30)))
            H = Hypergraph.random(k, nh, float(g.uniform(0.2, 0.9)), int(g.integers(1 << 30)))
            assert hom(F, H, "injective") == injective_hom_brute(F, H), (F, H)
    print("PASS criterion 3: partition-lattice inversion matches brute injective counts on 100 pairs")


def test_criterion_04_blowup_invariance():
    with budget(30):
        g = np.random.default_rng(401)
        for trial in range(50):
            k = 2 if trial % 2 == 0 else 3
            F = Hypergraph.random(k, int(g.integers(k, 5)), 0.6, int(g.integers(1 << 30)))
            H = Hypergraph.random(k, int(g.integers(k, 6)), 0.5, int(g.integers(1 << 30)))
            t = densities(F, H).t
            for factor in (2, 3):
                assert densities(F, blowup(H, factor)).t == t, (F, H, factor)
    print("PASS criterion 4: t(F,H) invariant under 2x and 3x equitable blowups on 50 pairs")


def test_criterion_05_cross_path_density_equality():
    with budget(120):
        checked = 0
        for i in range(15):
            l = 2 if i % 2 == 0 else 3
            C = rand_structure(2, l, 500 + i)
            W = step_from_structure(C)
            F = Hypergraph.random(2, 3 + i % 3, 0.6, 550 + i)
            exact = structure_density(F, C)
            assert density(F, W) == exact
            assert density_via_projection(F, W) == exact
            checked += 1
        for i in range(15):
            l = 2 if i < 10 else 3
            C = rand_structure(3, l, 600 + i)
            W = step_from_structure(C)
            F = Hypergraph.random(3, 4 if l == 2 else 3, 0.7, 650 + i)
            exact = structure_density(F, C)
            assert density(F, W) == exact
            assert grid_integral_density(F, W) == exact
            checked += 1
        assert checked == 30
    print("PASS criterion 5: step-hypergraphon and structure densities agree on 30 random structures")


def test_criterion_06_injective_density_from_level_maps():
    with budget(60):
        g = np.random.default_rng(601)
        for i in range(10):
            k = 3 if i in (4, 9) else 2
            n = 4 + i % 4
            if n < k + 1:
                n = k + 1
            hp = Hyperpartition.uniform_random(n, k, 2, seed=int(g.integers(1 << 30)))
            C = rand_structure(k, 2, int(g.integers(1 << 30)), p=0.5)
            G = cells_union(hp, C)
            F = Hypergraph.single_edge(k) if i % 2 else TRIANGLE
            if F.k != k:
                F = Hypergraph.single_edge(k)
            dist = empirical_level_maps(F.n, hp, exhaustive=True)
            assert densities(F, G).t0 == structure_density(F, C, dist), (i, k, n)
    print("PASS criterion 6: injective density equals structure density under exhaustive level maps")


def test_criterion_07_concentration_tail_bound():
    with budget(300):
        W = builtin_w("example1", 2)
        F = Hypergraph.single_edge(2)
        passes = 0
        for s in range(20):
            rep = concentration_experiment(W, F, n=2000, eps=0.08, trials=100, seed=s)
            assert abs(rep.summary["bound"] - 2 * exp(-1.6)) < 1e-12
            passes += rep.verdicts["tail_within_bound"]
        assert passes >= 19, f"bound held on only {passes}/20 master seeds"
    print(f"PASS criterion 7: concentration tail within 2e^-1.6 + 3se on {passes}/20 master seeds")


def test_criterion_08_desk_scale_counting():
    with budget(120):
        C = CombinatorialStructure.from_top_labels(2, 2, {2})
        t_exact = structure_density(TRIANGLE, C)
        assert t_exact == Fraction(1, 8)
        n, samples = 200, 20000
        edges = np.array(TRIANGLE.sorted_edges(), dtype=np.int64)
        flags = np.ones(edges.shape[0], dtype=np.int64)
        devs = []
        for s in range(10):
            hp = Hyperpartition.uniform_random(n, 2, 2, seed=s)
            T = cells_union(hp, C)
            maps = uniform_maps(samples, 3, n, rng.derive(s, rng.TAG_INJECTIVE))
            est = kernels.eval_maps_count(maps, edges, flags, T.member_array(), n) / samples
            stderr = sqrt(est * (1 - est) / samples)
            assert stderr <= 0.01
            devs.append(abs(est - float(t_exact)))
        assert median(devs) <= 0.05, devs
    print(f"PASS criterion 8: triangle density 1/8 recovered at n=200, median deviation {median(devs):.4f}")


def test_criterion_09_sampler_edge_frequency():
    from scipy.stats import binom

    diag = CombinatorialStructure(2, 2, {(1, 1, 2)})
    hosts = [
        step_from_structure(diag),
        builtin_w("example1", 2),
        step_from_structure(diag).complement(),
    ]
    trials = 10**4
    for W, m in zip(hosts, [Fraction(1, 8), HALF, Fraction(7, 8)]):
        assert W.measure == m
        hits = sum(sample_w_edge_count(W, 2, s) for s in range(trials))
        lo = binom.ppf(0.0005, trials, float(m))
        hi = binom.ppf(0.9995, trials, float(m))
        assert lo <= hits <= hi, (m, hits, lo, hi)
    print("PASS criterion 9: edge frequencies at n=k inside 99.9% binomial intervals for 1/8, 1/2, 7/8")


def test_criterion_10_zero_induced_density_preserved():
    # singleton labels always differ: bipartite, so no triangle ever appears
    C = CombinatorialStructure(2, 2, {(1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2)})
    W = step_from_structure(C)
    assert density(TRIANGLE, W, induced=True) == 0
    hits = 0
    for s in range(200):
        G = sample_w(W, 20, s).sample
        es = G.edges
        for tri in itertools.combinations(range(20), 3):
            a, b, c = tri
            if (a, b) in es and (a, c) in es and (b, c) in es:
                hits += 1
    assert hits == 0
    print("PASS criterion 10: zero induced-triangle density yields zero hits over 200 samples at n=20")


def test_criterion_11_metric_properties():
    with budget(240):
        def rs(i, l):
            return step_from_structure(rand_structure(2, l, 1100 + i))

        for i in range(200):
            l1, l2, l3 = 2 + i % 2, 2 + (i + 1) % 2, 2
            U, V, W = rs(3 * i, l1), rs(3 * i + 1, l2), rs(3 * i + 2, l3)
            assert d1(U, W).value <= d1(U, V).value + d1(V, W).value
        family = [F for F in canonical_family(2, 3) if F.edge_count > 0]
        for i in range(200):
            U, W = rs(701 + 2 * i, 2), rs(702 + 2 * i, 3)
            assert delta_w_lower(U, W, family).value <= d1(U, W).value
        for i in range(100):
            U, W = rs(901 + 2 * i, 2), rs(902 + 2 * i, 2)
            lo = delta_w_lower(U, W, family).value
            up = delta1_upper(U, W, budget=64).value
            assert lo <= up, (i, lo, up)
        for i in range(5):
            C = rand_structure(2, 2, 1500 + i, p=0.5)
            swapped = CombinatorialStructure(
                2, 2, {(3 - a, 3 - b, c) for (a, b, c) in C.cells}
            )
            rep = delta1_upper(step_from_structure(C), step_from_structure(swapped), budget=64)
            assert rep.value == 0
            assert rep.witness is not None and len(rep.witness["perms"]) == 2
    print("PASS criterion 11: triangle inequality, lower<=d1, lower<=upper, swap recovered at 0")


def test_criterion_12_planted_decomposition_recovery():
    with budget(240):
        C = CombinatorialStructure(2, 2, {(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)})

        def planted(n):
            return cells_union(Hyperpartition.round_robin(n, 2, 2), C)

        H = planted(24)
        good = sum(
            refine(H, 2, iterations=40, seed=s).eps <= Fraction(1, 20) for s in range(20)
        )
        assert good >= 16, f"recovered on only {good}/20 seeds"
        assert refine(planted(8), 2, exhaustive=True).eps == 0
    print(f"PASS criterion 12: planted structure recovered on {good}/20 seeds; exhaustive reaches 0")


def test_criterion_13_replay_byte_determinism(tmp_path, capsys):
    w1 = tmp_path / "w1.json"
    w1.write_text(json.dumps(builtin_w("example1", 2).to_obj()))
    w1 = str(w1)
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps(Hypergraph.single_edge(2).to_obj()))
    edge = str(edge)
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(TRIANGLE.to_obj()))
    tri = str(tri)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(CombinatorialStructure.from_top_labels(2, 2, {2}).to_obj()))
    cpath = str(cpath)
    hp12 = Hyperpartition.round_robin(12, 2, 2)
    C12 = CombinatorialStructure(2, 2, {(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)})
    hpath = tmp_path / "h12.json"
    hpath.write_text(json.dumps(cells_union(hp12, C12).to_obj()))
    hpath = str(hpath)
    hppath = tmp_path / "hp12.json"
    hppath.write_text(json.dumps(hp12.to_obj()))
    hppath = str(hppath)
    c12path = tmp_path / "c12.json"
    c12path.write_text(json.dumps(C12.to_obj()))
    c12path = str(c12path)

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    # stdout-only stochastic subcommands: identical text on replay
    for argv in (
        ["density", "--F", edge, "--W", w1, "--mode", "montecarlo", "--samples", "3000", "--seed", "9"],
        ["distance", "--metric", "d1", "--U", w1, "--W", w1, "--mode", "montecarlo", "--samples", "2000", "--seed", "9"],
        ["closeness", "--H", hpath, "--C", c12path, "--HP", hppath, "--seed", "9"],
    ):
        assert run(list(argv)) == run(list(argv)), argv

    # file artifacts: byte-identical on replay
    for tag, argv_of in {
        "sample": lambda out: ["sample", "--W", w1, "--n", "30", "--seed", "9", "--out", out + "/g.json"],
        "regularize": lambda out: ["regularize", "--H", hpath, "--l", "2", "--iterations", "6",
                                   "--seed", "9", "--out", out + "/dec.json"],
    }.items():
        dirs = [str(tmp_path / f"{tag}{j}") for j in (1, 2)]
        for d in dirs:
            os.makedirs(d, exist_ok=True)
            run(argv_of(d))
        files = sorted(os.listdir(dirs[0]))
        assert files
        for f in files:
            assert (
                open(dirs[0] + "/" + f, "rb").read() == open(dirs[1] + "/" + f, "rb").read()
            ), (tag, f)

    # experiments: byte-identical on replay and across thread counts 1 vs 4
    batteries = {
        "concentration": ["experiment", "concentration", "--W", w1, "--F", edge,
                          "--n", "60", "--eps", "0.2", "--trials", "6", "--seed", "9"],
        "counting": ["experiment", "counting", "--C", cpath, "--F", tri,
                     "--n-list", "12,16", "--trials", "3", "--seed", "9"],
        "inverse": ["experiment", "inverse", "--W", w1, "--n", "16", "--trials", "2",
                    "--use-planted", "--seed", "9"],
        "hereditary": ["experiment", "hereditary", "--W", w1, "--F", tri,
                       "--n", "10", "--trials", "3", "--seed", "9"],
    }
    for tag, argv in batteries.items():
        outs = []
        for j, threads in ((1, "1"), (2, "4"), (3, "1")):
            d = str(tmp_path / f"{tag}-{j}")
            os.makedirs(d, exist_ok=True)
            run(argv + ["--threads", threads, "--out", d])
            outs.append(d)
        names = sorted(os.listdir(outs[0]))
        assert {n.split(".")[-1] for n in names} == {"json", "csv"}
        for name in names:
            blobs = [open(o + "/" + name, "rb").read() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2], (tag, name)
    print("PASS criterion 13: stochastic subcommands replay byte-identical across threads 1 and 4")
