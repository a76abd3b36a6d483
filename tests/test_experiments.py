import csv
import hashlib
import itertools
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import hypergraphs

from hyperlim import experiments
from hyperlim.combinatorics import subset_counters
from hyperlim.hypergraph import Hypergraph, is_isomorphic
from hyperlim.hyperpartition import CombinatorialStructure, structure_density
from hyperlim.hypergraphon import builtin_w, density, step_from_structure, structure_of
from hyperlim.sampling import sample_w_edge_count
from hyperlim.experiments import (
    concentration_experiment,
    counting_experiment,
    hereditary_experiment,
    inverse_counting_experiment,
    removal_experiment,
    strong_convergence_report,
)

EDGE2 = Hypergraph(2, 2, [(0, 1)])
TRI = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


def test_concentration_bound_formula_and_replay():
    W1 = builtin_w("example1", 2)
    rep = concentration_experiment(W1, EDGE2, n=200, eps=0.1, trials=20, seed=9)
    # bound = 2 exp(-eps^2 n / (2 v^2)) with v = |V(F)| = 2
    want = 2 * math.exp(-(0.1**2) * 200 / 8)
    assert abs(rep.summary["bound"] - want) < 1e-12
    assert set(rep.verdicts) == {"tail_within_bound", "vacuous_bound"}
    again = concentration_experiment(W1, EDGE2, n=200, eps=0.1, trials=20, seed=9)
    assert json.dumps(rep.to_obj(), sort_keys=True) == json.dumps(again.to_obj(), sort_keys=True)
    threaded = concentration_experiment(W1, EDGE2, n=200, eps=0.1, trials=20, seed=9, threads=4)
    assert json.dumps(rep.to_obj(), sort_keys=True) == json.dumps(threaded.to_obj(), sort_keys=True)


def test_monte_carlo_t0_logs_at_debug_only(caplog):
    W1 = builtin_w("example1", 2)

    def report(n):
        rep = concentration_experiment(W1, TRI, n=n, eps=0.1, trials=2, t0_sample_budget=500, seed=3, threads=2)
        return json.dumps(rep.to_obj(), sort_keys=True)

    quiet = report(470)  # 470**3 is just over the exact cap of 10**8
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="hyperlim.experiments"):
        loud = report(470)
        report(40)  # exact t0: nothing to say
    assert loud == quiet
    want = "t0 by Monte Carlo: n**|V(F)| = 470**3 exceeds the exact cap 100000000"
    assert [r.getMessage() for r in caplog.records] == [want, want]
    assert {r.name for r in caplog.records} == {"hyperlim.experiments"}


@pytest.mark.parametrize("budget", [0, -2])
def test_monte_carlo_t0_refuses_a_non_positive_budget(budget):
    # 465**3 is over the exact cap, so t0 would be estimated from budget maps
    W1 = builtin_w("example1", 2)
    with pytest.raises(ValueError, match="t0_sample_budget must be positive"):
        concentration_experiment(W1, TRI, n=465, eps=0.1, trials=1, t0_sample_budget=budget, seed=3)


def test_exact_t0_ignores_a_zero_budget():
    # sha256 of the sorted-key JSON report, pinned before the budget check
    W1 = builtin_w("example1", 2)
    rep = concentration_experiment(W1, TRI, n=40, eps=0.1, trials=3, t0_sample_budget=0, seed=3)
    blob = json.dumps(rep.to_obj(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == "95cc79df88c1de75e2f283e919843882f788ce49bc9aee5fc206feea63511fcb"


def test_trial_threads_build_the_counters_once():
    # example2 reads the singleton masks, so both trial threads need
    # subset_counters(2000, 2) at once; one builds it and the other waits
    # for the cached table
    subset_counters.cache_clear()
    W2 = builtin_w("example2", 2)
    rep = concentration_experiment(W2, EDGE2, n=2000, eps=0.08, trials=4, seed=0, threads=2)
    assert subset_counters.cache_info().misses == 1
    serial = concentration_experiment(W2, EDGE2, n=2000, eps=0.08, trials=4, seed=0, threads=1)
    assert json.dumps(rep.to_obj(), sort_keys=True) == json.dumps(serial.to_obj(), sort_keys=True)


def test_top_only_sampler_builds_no_counters():
    # example1 reads only the full mask, so no lower mask is gathered
    subset_counters.cache_clear()
    assert sample_w_edge_count(builtin_w("example1", 2), 2000, 0) == 999024
    assert subset_counters.cache_info().misses == 0


def test_counter_builds_under_thread_stress():
    subset_counters.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = [f.result(timeout=60) for f in [pool.submit(subset_counters, 90, 3) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert subset_counters.cache_info().misses == 1
    assert all(t is tables[0] for t in tables)


def test_concentration_huge_eps_has_empty_tail():
    W1 = builtin_w("example1", 2)
    rep = concentration_experiment(W1, EDGE2, n=50, eps=1.0, trials=10, seed=1)
    assert rep.summary["tail_frequency"] == 0.0
    assert rep.verdicts["tail_within_bound"]


def test_counting_full_structure_is_exact_one():
    C_all = CombinatorialStructure.all_cells(2, 2)
    rep = counting_experiment(C_all, TRI, [20, 40], trials=4, seed=0)
    assert rep.summary["t_exact"] == "1/1"
    assert all(r["deviation"] == 0.0 for r in rep.trials)


@pytest.mark.parametrize("mc_samples", [0, -4])
def test_counting_refuses_non_positive_samples(mc_samples):
    C_all = CombinatorialStructure.all_cells(2, 2)
    with pytest.raises(ValueError, match="samples must be positive"):
        counting_experiment(C_all, TRI, [20], trials=1, seed=0, mc_samples=mc_samples)


def test_counting_eighth_structure_converges():
    C8 = CombinatorialStructure.from_top_labels(2, 2, {2})
    assert structure_density(TRI, C8) == Fraction(1, 8)
    rep = counting_experiment(C8, TRI, [40, 80], trials=6, seed=3)
    assert rep.summary["t_exact"] == "1/8"
    assert rep.verdicts["final_within_tolerance"], rep.summary


def test_inverse_full_w_trivially_passes():
    Wf = builtin_w("full", 2)
    rep = inverse_counting_experiment(Wf, 30, trials=3, seed=0)
    assert rep.verdicts["all_trials_pass"]
    assert all(r["eps1"] == "0/1" or r["eps1"] == 0 for r in rep.trials) or all(
        Fraction(str(r["eps1"])) == 0 for r in rep.trials
    )


def test_inverse_cross_fit_recovers_shared_structure():
    C = CombinatorialStructure(2, 2, {(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)})
    Wsame = step_from_structure(C)
    rep = inverse_counting_experiment(Wsame, 48, trials=3, seed=1, threshold=0.2)
    passed = sum(1 for r in rep.trials if r["pass"])
    assert passed >= 2
    rep2 = inverse_counting_experiment(
        Wsame, 48, trials=3, seed=2, threshold=0.2, use_planted=True
    )
    assert rep2.verdicts["all_trials_pass"]
    assert all("shared_cells" in r for r in rep2.trials)


def test_removal_k4_triangle_frozen_steps():
    K4 = Hypergraph.complete(2, 4)
    rep = removal_experiment(K4, TRI)
    assert rep.summary["removed"] == 2
    assert rep.verdicts["terminated_zero"]
    assert [s["edge"] for s in rep.trials] == [[0, 1], [2, 3]]
    assert rep.trials[-1]["remaining_hom"] == 0
    # independent re-check: deleting those edges kills every triangle hom
    from hyperlim.hypergraph import hom

    kept = [e for e in K4.sorted_edges() if list(e) not in [[0, 1], [2, 3]]]
    assert hom(TRI, Hypergraph(2, 4, kept)) == 0


def test_removal_trivial_cases_and_errors():
    H = Hypergraph.random(2, 5, Fraction(1, 2), seed=4)
    rep = removal_experiment(H, EDGE2)
    assert rep.summary["removed"] == H.edge_count
    assert removal_experiment(Hypergraph(2, 5), TRI).summary["removed"] == 0
    with pytest.raises(ValueError):
        removal_experiment(H, Hypergraph.empty(2, 3))


def test_removal_refuses_a_nonzero_final_count(monkeypatch):
    # one edge, one candidate: the initial count, the candidate's count and
    # the final count, which is checked without assert
    counts = iter([2, 0, 1])
    monkeypatch.setattr(experiments, "hom", lambda K, G: next(counts))
    with pytest.raises(RuntimeError, match="1 homomorphisms of K left"):
        removal_experiment(EDGE2, EDGE2)


def test_hereditary_zero_density_never_sampled():
    Wbip = step_from_structure(
        CombinatorialStructure(2, 2, {(1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2)})
    )
    assert density(TRI, Wbip, mode="exact", induced=True) == 0
    rep = hereditary_experiment(Wbip, [TRI, EDGE2], n=14, trials=10, seed=2)
    assert rep.summary["patterns"]["F0"]["constrained"]
    assert rep.summary["patterns"]["F0"]["total_hits"] == 0
    assert rep.verdicts["zero_hits"]
    # the edge pattern is realizable, so it is reported unconstrained
    assert not rep.summary["patterns"]["F1"]["constrained"]


def test_hereditary_unconstrained_pattern_records_density():
    W1 = builtin_w("example1", 2)
    rep = hereditary_experiment(W1, [EDGE2], n=12, trials=4, seed=0)
    assert rep.summary["patterns"]["F0"]["t_ind"] == "1/2"
    assert not rep.summary["patterns"]["F0"]["constrained"]


def scan_has_induced_copy(G, F):
    """The per-subset scan the hereditary check once was, kept as its slow
    oracle: F is isomorphic to the sub-hypergraph G induces on some
    |V(F)|-subset of its vertices."""
    for verts in itertools.combinations(range(G.n), F.n):
        remap = {v: i for i, v in enumerate(verts)}
        sub = Hypergraph(
            G.k,
            F.n,
            (
                tuple(sorted(remap[v] for v in e))
                for e in G.edges
                if all(v in remap for v in e)
            ),
        )
        if len(sub.edges) != len(F.edges):
            continue
        if is_isomorphic(F, sub):
            return True
    return False


@st.composite
def host_and_pattern(draw):
    """A random (G, F) pair; half the time F is a relabeled induced
    sub-hypergraph of G, so a copy exists."""
    k = draw(st.sampled_from([2, 3]))
    G = draw(hypergraphs(k, draw(st.integers(0, 8))))
    if G.n and draw(st.booleans()):
        verts = draw(st.lists(st.sampled_from(range(G.n)), min_size=1, max_size=5, unique=True))
        pos = {v: i for i, v in enumerate(verts)}
        F = Hypergraph(k, len(verts), [[pos[v] for v in e] for e in G.edges if set(e) <= set(verts)])
        return G, F, True
    return G, draw(hypergraphs(k, draw(st.integers(0, 5)))), False


@settings(max_examples=200)
@given(host_and_pattern())
def test_hereditary_check_matches_subset_scan(case):
    G, F, planted = case
    assert experiments._has_induced_copy(G, F) == scan_has_induced_copy(G, F) >= planted


def test_hereditary_refuses_oversized_scan_before_sampling(monkeypatch):
    Wbip = step_from_structure(
        CombinatorialStructure(2, 2, {(1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2)})
    )
    drawn = []
    monkeypatch.setattr(experiments, "sample_w", lambda *a, **kw: drawn.append(a))
    # C(200, 3) = 1313400 vertex triples exceed the cap for the constrained triangle
    with pytest.raises(ValueError, match="induced scan exceeds the cap") as exc:
        hereditary_experiment(Wbip, [EDGE2, TRI], n=200, trials=3, seed=0)
    assert "n=200" in str(exc.value) and "F1 on 3 vertices" in str(exc.value)
    assert not drawn
    # only constrained patterns are measured: C(200, 4) exceeds it too
    C4 = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert density(C4, Wbip, mode="exact", induced=True) > 0
    monkeypatch.undo()
    rep = hereditary_experiment(Wbip, [C4], n=200, trials=1, seed=0)
    assert not rep.verdicts["any_constrained"]


def test_sequence_shared_structure_verdicts():
    seq = [Hypergraph.complete(2, n) for n in (6, 8, 10)]
    rep = strong_convergence_report(seq, 1, 0.1, seed=0)
    assert rep.verdicts["shared_structure"]
    alt = [Hypergraph.complete(2, 6), Hypergraph(2, 8), Hypergraph.complete(2, 10)]
    rep2 = strong_convergence_report(alt, 1, 0.1, seed=0)
    assert not rep2.verdicts["shared_structure"]


def test_report_files_roundtrip(tmp_path):
    W1 = builtin_w("example1", 2)
    rep = concentration_experiment(W1, EDGE2, n=100, eps=0.2, trials=8, seed=5)
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    rep.write_json(str(jpath))
    rep.write_csv(str(cpath))
    obj = json.loads(jpath.read_text())
    assert obj["name"] == rep.name and obj["seed"] == 5
    assert jpath.read_text().endswith("\n")
    rows = list(csv.DictReader(cpath.open()))
    assert len(rows) == 8
