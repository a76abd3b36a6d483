import hashlib
import io
import json
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from test_hypergraph import written

from hyperlim import combinatorics, hypergraph
from hyperlim.cli import main
from hyperlim.hypergraph import Hypergraph, densities
from hyperlim.hyperpartition import CombinatorialStructure, Hyperpartition
from hyperlim.hypergraphon import builtin_w
from hyperlim.metrics import d1


TRI = {"k": 2, "n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
EDGE = {"k": 2, "n": 2, "edges": [[0, 1]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [("tri", TRI), ("k3", TRI), ("edge", EDGE)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def test_density_hypergraph_host(files, capsys):
    assert main(["density", "--F", files["tri"], "--H", files["k3"]]) == 0
    assert capsys.readouterr().out.strip() == "2/9"


def test_density_induced_host_counts_only_t_ind(files, capsys, monkeypatch):
    P3 = Hypergraph(2, 3, [(0, 1), (1, 2)])
    host = Hypergraph.random(2, 7, 0.5, seed=4)
    paths = {}
    for name, G in (("p3", P3), ("host", host), ("empty", Hypergraph(2, 0)), ("t3", Hypergraph(3, 0))):
        paths[name] = f"{files['dir']}/{name}.json"
        with open(paths[name], "w") as fh:
            json.dump(G.to_obj(), fh)
    want = densities(P3, host).t_ind

    def refuse(F, H, injective=False):
        raise AssertionError("neither hom count is printed")

    monkeypatch.setattr(hypergraph, "_map_count", refuse)
    assert main(["density", "--F", paths["p3"], "--H", paths["host"], "--induced"]) == 0
    assert capsys.readouterr().out == f"{want.numerator}/{want.denominator}\n"
    # the errors densities raised: arity first, then the empty host
    errors = {"t3": "arity mismatch: pattern k=2, host k=3", "empty": "host must have at least one vertex"}
    for name, err in errors.items():
        assert main(["density", "--F", paths["p3"], "--H", paths[name], "--induced"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_density_from_piped_builtin(files, capsys, monkeypatch):
    assert main(["builtin-w", "--kind", "example1", "--k", "2"]) == 0
    wjson = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(wjson))
    assert main(["density", "--F", files["edge"], "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_exact_step_density_of_k8_in_the_builtins_exits_0(files, capsys):
    # K8^(3) over the used axes; the full-grid contraction refused both (exit 2)
    path = f"{files['dir']}/k8.json"
    with open(path, "w") as fh:
        json.dump(Hypergraph.complete(3, 8).to_obj(), fh)
    for kind, want in (("example1", "1/72057594037927936"), ("example2", "1/268435456")):
        assert main(["builtin-w", "--kind", kind, "--k", "3", "--out", f"{files['dir']}/{kind}.json"]) == 0
        capsys.readouterr()
        assert main(["density", "--F", path, "--W", f"{files['dir']}/{kind}.json"]) == 0
        assert capsys.readouterr().out == want + "\n"


def test_density_montecarlo_prints_estimate(files, capsys):
    rc = main(
        ["density", "--F", files["edge"], "--W", files_w(files), "--mode", "montecarlo",
         "--samples", "4000", "--seed", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "+-" in out
    est = float(out.split("+-")[0])
    assert abs(est - 0.5) < 0.05


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_density_montecarlo_exits_2_on_non_positive_samples(files, capsys, samples):
    rc = main(
        ["density", "--F", files["edge"], "--W", files_w(files), "--mode", "montecarlo",
         "--samples", samples, "--seed", "3"]
    )
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "samples must be positive" in captured.err


def test_density_montecarlo_defaults_to_20000_samples(files, capsys):
    args = ["density", "--F", files["edge"], "--W", files_w(files), "--mode", "montecarlo", "--seed", "3"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main(args + ["--samples", "20000"]) == 0
    assert capsys.readouterr().out == default


def files_w(files):
    p = files["dir"] + "/w1.json"
    with open(p, "w") as fh:
        json.dump(builtin_w("example1", 2).to_obj(), fh)
    return p


def test_structure_density_frozen(files, capsys):
    C = CombinatorialStructure.from_top_labels(2, 2, {2})
    cpath = files["dir"] + "/c.json"
    with open(cpath, "w") as fh:
        json.dump(C.to_obj(), fh)
    assert main(["structure-density", "--F", files["tri"], "--C", cpath]) == 0
    assert capsys.readouterr().out.strip() == "1/8"


def test_validate_asymmetric_structure_exits_2(files, capsys):
    bad = files["dir"] + "/bad.json"
    with open(bad, "w") as fh:
        json.dump({"k": 2, "l": 2, "cells": [{"1": 1, "2": 2, "3": 1}]}, fh)
    rc = main(["validate", "--structure", bad])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not S_k-closed" in err


@pytest.mark.parametrize(
    "header, named",
    [
        ({"k": "2", "l": 2}, "k must be an integer >= 1, got '2'"),
        ({"k": True, "l": 2}, "k must be an integer >= 1, got True"),
        ({"k": 2, "l": 2.5}, "l must be an integer >= 1, got 2.5"),
        ({"k": 2, "l": 0}, "l must be an integer >= 1, got 0"),
        ({"k": 40, "l": 2}, f"k=40, l=2: the member table of l**(2**k - 1) cells exceeds the size cap of {1 << 24}"),
        ({"k": 3, "l": 11}, f"k=3, l=11: the member table of l**(2**k - 1) cells exceeds the size cap of {1 << 24}"),
    ],
)
@pytest.mark.parametrize("flag, field", [("--structure", "cells"), ("--W", "boxes")])
def test_validate_malformed_header_exits_2_naming_it(files, capsys, header, named, flag, field):
    bad = files["dir"] + "/header.json"
    with open(bad, "w") as fh:
        json.dump({**header, field: []}, fh)
    assert main(["validate", flag, bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_validate_good_inputs(files, capsys):
    good = files["dir"] + "/good.json"
    with open(good, "w") as fh:
        json.dump(
            {"k": 2, "l": 2, "cells": [{"1": 1, "2": 2, "3": 1}, {"1": 2, "2": 1, "3": 1}]},
            fh,
        )
    assert main(["validate", "--structure", good, "--H", files["tri"]]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_malformed_json_exits_2_naming_file(files, capsys):
    bad = files["dir"] + "/broken.json"
    with open(bad, "w") as fh:
        fh.write("{nope")
    rc = main(["density", "--F", bad, "--H", files["k3"]])
    assert rc == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--H", "H: expected a hypergraph object with an edges field"),
        ("--W", "W: expected a step hypergraphon object with a boxes field"),
        ("--structure", "structure: expected a structure object with a cells field"),
        ("--HP", "HP: expected a hyperpartition object with a labels field"),
    ],
)
@pytest.mark.parametrize("obj", [[1, 2], "edges", {"k": 2, "n": 3}])
def test_each_loader_refuses_a_non_object_or_a_missing_key(files, capsys, flag, text, obj):
    bad = files["dir"] + "/bad.json"
    with open(bad, "w") as fh:
        json.dump(obj, fh)
    assert main(["validate", flag, bad]) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")


@pytest.mark.parametrize("obj", [[1, 2], {"k": 2, "n": 3}, {"cells": [], "k": 2, "l": 2}])
def test_auto_host_refuses_what_is_neither_hypergraph_nor_hypergraphon(files, capsys, obj):
    bad = files["dir"] + "/host.json"
    with open(bad, "w") as fh:
        json.dump(obj, fh)
    assert main(["density", "--F", files["tri"], "--W", bad]) == 2
    assert capsys.readouterr() == ("", "error: host: expected a hypergraph (edges) or step hypergraphon (boxes)\n")


def test_unknown_flag_exits_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--F", files["tri"], "--bogus"])
    assert exc.value.code == 2


def test_missing_required_input_exits_2(files, capsys):
    rc = main(["distance", "--metric", "d1", "--U", files_w(files)])
    assert rc == 2
    assert "W:" in capsys.readouterr().err


def _main_peak(argv):
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, peak


def test_sample_oversized_n_exits_2_before_allocating(files, capsys):
    rc, peak = _main_peak(["sample", "--W", files_w(files), "--n", "200000", "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "n=200000" in err
    assert peak < 1 << 24


def test_sample_writes_without_whole_edge_arrays(files):
    # the n=2000 sample (1,999,000 k-sets) is written one block of k-sets
    # at a time, and no colex_matrix(2000, 2) (30.5 MB) is built for it
    out = files["dir"] + "/big.json"
    combinatorics.colex_matrix.cache_clear()
    rc, peak = _main_peak(["sample", "--W", files_w(files), "--n", "2000", "--seed", "3", "--out", out])
    assert rc == 0
    assert peak < 1 << 24
    assert combinatorics.colex_matrix.cache_info().currsize == 0


def test_oversized_host_exits_2_before_allocating(files, capsys):
    big = files["dir"] + "/big.json"
    with open(big, "w") as fh:
        json.dump({"k": 2, "n": 1000000, "edges": [[0, 1]]}, fh)
    for argv in (
        ["density", "--F", files["edge"], "--H", big],
        ["density", "--F", files["edge"], "--H", big, "--induced"],
        ["sample", "--H", big, "--n", "10", "--seed", "1"],
    ):
        rc, peak = _main_peak(argv)
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "n=1000000" in err
        assert peak < 1 << 24


def test_oversized_experiments_exit_2_before_allocating(files, capsys):
    cpath = files["dir"] + "/c.json"
    with open(cpath, "w") as fh:
        json.dump(CombinatorialStructure.from_top_labels(2, 2, {2}).to_obj(), fh)
    for argv in (
        ["experiment", "hereditary", "--W", files_w(files), "--F", files["tri"],
         "--n", "1000000", "--trials", "1", "--seed", "1", "--out", files["dir"]],
        ["experiment", "counting", "--C", cpath, "--F", files["tri"],
         "--n-list", "1000000", "--trials", "1", "--seed", "1", "--out", files["dir"]],
    ):
        rc, peak = _main_peak(argv)
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "n=1000000" in err
        assert peak < 1 << 24


def _writes_like_json_dumps(G):
    """G set-backed, and mask-backed where its k-sets fit the row cap, is
    written as the sorted-key indent-2 JSON of to_obj(), plus a newline."""
    want = json.dumps(G.to_obj(), sort_keys=True, indent=2) + "\n"
    assert written(Hypergraph(G.k, G.n, G.edges)) == want
    if comb(G.n, G.k) <= combinatorics.ROW_CAP:
        assert written(Hypergraph.from_member(G.k, G.n, G.member_array())) == want


@pytest.mark.parametrize("block", [1, 3, 7, combinatorics.CELL_BLOCK])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_writer_matches_json_dumps(monkeypatch, k, block):
    monkeypatch.setattr(combinatorics, "CELL_BLOCK", block)
    for n in range(13):  # n < k included
        _writes_like_json_dumps(Hypergraph.random(k, n, Fraction(1, 2), seed=10 * n + k))
        _writes_like_json_dumps(Hypergraph.complete(k, n))
        _writes_like_json_dumps(Hypergraph.empty(k, n))


@pytest.mark.parametrize("n", [9, 10, 11, 99, 100, 101, 999, 1000, 1001])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_writer_matches_json_dumps_at_digit_boundaries(k, n):
    if comb(n, k) <= 10**6:  # about 300 random edges over the whole vertex range
        _writes_like_json_dumps(Hypergraph.random(k, n, Fraction(min(300, comb(n, k)), comb(n, k)), seed=n + k))
    ends = [tuple(range(k)), tuple(range(n - k, n)), tuple(range(n // 2 - 1, n // 2 - 1 + k))]
    _writes_like_json_dumps(Hypergraph(k, n, ends))


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_sample_artifact_golden_bytes(files, capsys):
    # sha256 of the files the CLI wrote before hypergraph artifacts got
    # their own writer; the host is a fixed 12-vertex graph
    out = files["dir"] + "/s.json"
    assert main(["sample", "--W", files_w(files), "--n", "300", "--seed", "11", "--out", out]) == 0
    assert _sha(out) == "e514f6e289949cb8ce1909f468471666d393e3651df50fcef5fd56f7170c1af4"
    assert _sha(files["dir"] + "/s.meta.json") == (
        "64c8f8f68d7016f2c1e6cdcac8b45388a588c20f50d2d73599527f82d93c7af9"
    )
    host = files["dir"] + "/host12.json"
    with open(host, "w") as fh:
        edges = [[i, j] for i in range(12) for j in range(i + 1, 12) if (i + 2 * j) % 5 < 2]
        json.dump({"k": 2, "n": 12, "edges": edges}, fh)
    out = files["dir"] + "/v.json"
    assert main(["sample", "--H", host, "--n", "20", "--seed", "3", "--out", out]) == 0
    assert _sha(out) == "3b72014e423a81ad19256e50844e5a5018d89e4ef13a269525a63f4414e041c7"


def test_sample_from_host_below_arity_is_edgeless(files):
    host, out = files["dir"] + "/one.json", files["dir"] + "/v1.json"
    with open(host, "w") as fh:
        json.dump({"k": 2, "n": 1, "edges": []}, fh)
    assert main(["sample", "--H", host, "--n", "3", "--seed", "0", "--out", out]) == 0
    with open(out) as fh:
        assert json.load(fh) == {"edges": [], "k": 2, "n": 3}


def test_sample_writes_artifact_and_sidecar(files, capsys):
    out = files["dir"] + "/s.json"
    rc = main(["sample", "--W", files_w(files), "--n", "10", "--seed", "7", "--out", out])
    assert rc == 0
    G = Hypergraph.from_obj(json.load(open(out)))
    assert G.n == 10
    meta = json.load(open(files["dir"] + "/s.meta.json"))
    assert meta["seed"] == 7
    assert meta["source"]["kind"] == "step"


def test_sample_auto_seed_goes_to_stderr(files, capsys):
    rc = main(["sample", "--W", files_w(files), "--n", "6"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed=")
    json.loads(captured.out)


def test_stochastic_replay_byte_identical(files):
    out1 = files["dir"] + "/a.json"
    out2 = files["dir"] + "/b.json"
    for out in (out1, out2):
        assert main(["sample", "--W", files_w(files), "--n", "15", "--seed", "42", "--out", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_distance_report_matches_library(files, capsys):
    wpath = files_w(files)
    epath = files["dir"] + "/we.json"
    with open(epath, "w") as fh:
        json.dump(builtin_w("empty", 2).to_obj(), fh)
    assert main(["distance", "--metric", "d1", "--U", wpath, "--W", epath]) == 0
    got = json.loads(capsys.readouterr().out)
    want = d1(builtin_w("example1", 2), builtin_w("empty", 2)).to_obj()
    assert got == json.loads(json.dumps(want))
    assert got["value"] == "1/2"


def test_distance_delta_grid(files, capsys):
    epath = files["dir"] + "/empty3.json"
    with open(epath, "w") as fh:
        json.dump({"k": 2, "n": 3, "edges": []}, fh)
    assert main(["distance", "--metric", "delta", "--H", files["tri"], "--T", epath, "--max-size", "3"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["value"] == "2/3"
    assert got["witness"]["edges"] == [[0, 1]]


def test_delta_w_family_must_be_a_list(files, capsys):
    wpath = files_w(files)
    fpath = files["dir"] + "/family.json"
    for text in ("3", "null", json.dumps(EDGE)):
        with open(fpath, "w") as fh:
            fh.write(text)
        assert main(["distance", "--metric", "delta-w", "--U", wpath, "--W", wpath, "--family", fpath]) == 2
        assert capsys.readouterr().err == "error: family: expected a JSON list of hypergraph objects\n"


# sha256 of the files the CLI wrote, pinned while the delta estimate walked
# its family twice, delta1_upper nested its budget checks and the exhaustive
# fit scanned labelings
CLI_METRIC_SHA256 = {
    "delta2": "c277f89ec67f201d6d274aa24eed2e6587a416149b6ca4fd622f94419e07b0b5",
    "delta3": "8e077d4453f53819b6bb4807541355e28a8f7415caf4261c3abf794e763ce8aa",
    "delta1": "ea838e0f1dd27d6d8167191f3fb673a40c99839a4e2be83cf3581c8aa3609856",
    "exhaustive": "d5af2c4bb1390ba33eaba9ae6f67dcd382f575bb1cc0a67a42a951d96a48e9b0",
}


def test_distance_and_exhaustive_fit_outputs_are_pinned(files, capsys):
    d = files["dir"]
    objs = {
        "a2": Hypergraph.random(2, 9, Fraction(1, 2), seed=1).to_obj(),
        "b2": Hypergraph.random(2, 10, Fraction(1, 2), seed=2).to_obj(),
        "a3": Hypergraph.random(3, 7, Fraction(1, 2), seed=3).to_obj(),
        "b3": Hypergraph.random(3, 8, Fraction(1, 2), seed=4).to_obj(),
        "u": builtin_w("example1", 2).to_obj(),
        "w": builtin_w("example2", 2).to_obj(),
    }
    for name, obj in objs.items():
        with open(f"{d}/{name}.json", "w") as fh:
            json.dump(obj, fh)
    runs = {
        "delta2": ["distance", "--metric", "delta", "--H", f"{d}/a2.json", "--T", f"{d}/b2.json", "--seed", "3"],
        "delta3": ["distance", "--metric", "delta", "--H", f"{d}/a3.json", "--T", f"{d}/b3.json", "--max-size", "6"],
        "delta1": ["distance", "--metric", "delta1", "--U", f"{d}/u.json", "--W", f"{d}/w.json", "--budget", "50"],
        "exhaustive": ["regularize", "--H", f"{d}/b2.json", "--l", "2", "--exhaustive", "--seed", "1"],
    }
    for name, argv in runs.items():
        out = f"{d}/{name}.out.json"
        assert main(argv + ["--out", out]) == 0
        assert _sha(out) == CLI_METRIC_SHA256[name], name
    capsys.readouterr()


def test_regularize_and_closeness_roundtrip(files, capsys, tmp_path):
    import itertools

    hp0 = Hyperpartition.round_robin(12, 2, 2)
    C0 = CombinatorialStructure(2, 2, {(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)})
    from hyperlim.hyperpartition import cells_union

    H = cells_union(hp0, C0)
    hpath = str(tmp_path / "h.json")
    with open(hpath, "w") as fh:
        json.dump(H.to_obj(), fh)
    dpath = str(tmp_path / "dec.json")
    rc = main(["regularize", "--H", hpath, "--l", "2", "--iterations", "20", "--seed", "3", "--out", dpath])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("eps=") and "delta=" in line
    rep = json.load(open(dpath))
    cpath = str(tmp_path / "c.json")
    ppath = str(tmp_path / "hp.json")
    with open(cpath, "w") as fh:
        json.dump(rep["structure"], fh)
    with open(ppath, "w") as fh:
        json.dump(rep["hp"], fh)
    rc = main(["closeness", "--H", hpath, "--C", cpath, "--HP", ppath, "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("eps=") and rep["eps"] == out.split()[0].split("=")[1]


def test_regularize_refuses_no_cylinders_before_the_search(tmp_path, capsys, monkeypatch):
    from hyperlim import regularity

    hpath = str(tmp_path / "h.json")
    with open(hpath, "w") as fh:
        json.dump(Hypergraph.random(2, 30, Fraction(1, 2), seed=1).to_obj(), fh)
    monkeypatch.setattr(regularity, "_SearchState", None)  # a search would exit 1
    assert main(["regularize", "--H", hpath, "--l", "2", "--cylinder-samples", "0", "--seed", "1"]) == 2
    assert "need at least one sampled cylinder" in capsys.readouterr().err


def test_experiment_artifacts_thread_independent(files, tmp_path, capsys):
    cpath = str(tmp_path / "c.json")
    with open(cpath, "w") as fh:
        json.dump(CombinatorialStructure.from_top_labels(2, 2, {2}).to_obj(), fh)
    outs = []
    for tag, threads in (("t1", "1"), ("t4", "4")):
        od = str(tmp_path / tag)
        rc = main(
            ["experiment", "counting", "--C", cpath, "--F", files["tri"],
             "--n-list", "20,30", "--trials", "4", "--seed", "11",
             "--threads", threads, "--out", od]
        )
        assert rc == 0
        outs.append(od)
    capsys.readouterr()
    for name in ("counting-11.json", "counting-11.csv"):
        a = open(outs[0] + "/" + name, "rb").read()
        b = open(outs[1] + "/" + name, "rb").read()
        assert a == b


def test_experiment_out_dir_env_default(files, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERLIM_OUT", str(tmp_path / "envdir"))
    k4 = str(tmp_path / "k4.json")
    with open(k4, "w") as fh:
        json.dump(Hypergraph.complete(2, 4).to_obj(), fh)
    rc = main(["experiment", "removal", "--H", k4, "--K", files["tri"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "removal-0.json" in out
    assert (tmp_path / "envdir" / "removal-0.json").exists()


def test_builtin_w_rejects_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["builtin-w", "--kind", "nope", "--k", "2"])
    assert exc.value.code == 2
