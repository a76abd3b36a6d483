import ast
import hashlib
import io
import itertools
import json
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from measure_oracle import ordered_edge_count
from test_combinatorics import set_partitions, subsets_colex

import hyperlim
from hyperlim.cli import _write_hypergraph
from hyperlim.hypergraph import (
    Hypergraph,
    VertexPartition,
    _constraints,
    _mobius_count,
    _proper_partitions,
    blowup,
    canonical_family,
    canonical_form,
    densities,
    density_equivalent,
    enumerate_canonical,
    hom,
    injective_hom_brute,
    is_isomorphic,
    quotient,
)

TRI = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


def written(G) -> str:
    """What the CLI writes for G, through cli._write_hypergraph."""
    buf = io.BytesIO()
    _write_hypergraph(G, buf)
    return buf.getvalue().decode()


def brute_record(F, H):
    v, n = F.n, H.n
    t = t_ind = t0 = t0_ind = 0
    for m in itertools.product(range(n), repeat=v):
        edges_ok = all(H.is_edge(tuple(m[x] for x in e)) for e in F.edges)
        # induced: every k-subset must land distinctly, on an edge iff F has one
        ind_ok = edges_ok
        if edges_ok:
            for s in itertools.combinations(range(v), F.k):
                img = tuple(m[x] for x in s)
                if F.is_edge(s):
                    continue  # edges_ok already enforced a distinct edge image
                if len(set(img)) < F.k or H.is_edge(img):
                    ind_ok = False
                    break
        inj = len(set(m)) == v
        t += edges_ok
        t_ind += edges_ok and ind_ok
        t0 += edges_ok and inj
        t0_ind += edges_ok and ind_ok and inj
    return t, t0, t_ind, t0_ind


def test_constructor_validation():
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [(0, 0)])  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [(0, 3)])  # out of range
    with pytest.raises(ValueError):
        Hypergraph(2, 3, [(0,)])  # wrong arity
    H = Hypergraph(2, 3, [(1, 0), (0, 1)])
    assert H.edge_count == 1  # unordered, deduplicated


def test_edge_queries():
    assert TRI.is_edge((2, 0))
    assert not TRI.is_edge((0, 0))
    assert ordered_edge_count(TRI) == 6
    assert Hypergraph.complete(3, 5).edge_count == 10
    assert Hypergraph.empty(2, 4).edge_count == 0
    assert Hypergraph.single_edge(3).sorted_edges() == [(0, 1, 2)]
    assert TRI.complement().edge_count == 0
    assert Hypergraph.empty(2, 3).complement().edge_count == 3


def test_densities_match_brute_force():
    cases = []
    for seed in range(8):
        cases.append((Hypergraph.random(2, 3, 0.6, seed=seed), Hypergraph.random(2, 4, 0.5, seed=100 + seed)))
    for seed in range(4):
        cases.append((Hypergraph.random(3, 4, 0.5, seed=seed), Hypergraph.random(3, 4, 0.6, seed=50 + seed)))
    for seed in range(3):
        cases.append((Hypergraph.random(1, 3, 0.5, seed=seed), Hypergraph.random(1, 5, 0.5, seed=70 + seed)))
    # fewer pattern vertices than k: no constraint at all
    cases.append((Hypergraph(2, 1), Hypergraph.random(2, 4, 0.5, seed=1)))
    cases.append((Hypergraph(3, 2), Hypergraph.random(3, 5, 0.5, seed=2)))
    for F, H in cases:
        t, t0, t_ind, t0_ind = brute_record(F, H)
        rec = densities(F, H)
        assert rec.t == Fraction(t, H.n**F.n)
        assert rec.t_ind == Fraction(t_ind, H.n**F.n)
        fall = 1
        for j in range(F.n):
            fall *= H.n - j
        assert rec.t0 == Fraction(t0, fall)
        assert rec.t0_ind == Fraction(t0_ind, fall)


def test_densities_pattern_larger_than_host():
    rec = densities(Hypergraph.complete(2, 4), TRI)
    assert rec.t0 is None and rec.t0_ind is None
    assert rec.t == 0


def test_hom_injective_mode_is_mobius_inversion():
    for seed in range(10):
        F = Hypergraph.random(2, 4, 0.5, seed=seed)
        H = Hypergraph.random(2, 5, 0.5, seed=200 + seed)
        assert hom(F, H, mode="injective") == injective_hom_brute(F, H) == _mobius_count(F, H)
    F = Hypergraph.random(3, 4, 0.6, seed=1)
    H = Hypergraph.random(3, 5, 0.5, seed=2)
    assert hom(F, H, mode="injective") == injective_hom_brute(F, H) == _mobius_count(F, H)


def proper_partitions_by_filter(F):
    """Every partition of V(F) whose quotient keeps each edge, as restricted
    growth strings, from all Bell(v) of them."""
    out = set()
    for blocks in set_partitions(tuple(range(F.n))):
        part = VertexPartition(F.n, blocks)
        if quotient(F, part) is not None:
            lab = [0] * F.n
            for i, b in enumerate(part.blocks):
                for v in b:
                    lab[v] = i
            out.add(tuple(lab))
    return out


def test_proper_partitions_are_the_nondegenerate_quotients():
    path = [(i, i + 1) for i in range(5)]
    shapes = {
        "P6": (Hypergraph(2, 6, path), 52),
        "P5": (Hypergraph(2, 5, path[:4]), 15),
        "C5": (Hypergraph(2, 5, path[:4] + [(0, 4)]), 11),
        "tight5": (Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)]), 5),
        "points": (Hypergraph(1, 4, [(0,), (2,)]), 15),
        "empty": (Hypergraph(2, 0), 1),
    }
    for name, (F, proper) in shapes.items():
        got = list(_proper_partitions(F))
        assert len(got) == len(set(got)) == proper, name
        assert set(got) == proper_partitions_by_filter(F), name
    for seed in range(20):
        F = Hypergraph.random(2 + seed % 2, 6, 0.3, seed=seed)
        assert set(_proper_partitions(F)) == proper_partitions_by_filter(F)


def test_blowup_shape_and_density_invariance():
    B = blowup(TRI, 2)
    assert B.n == 6
    assert B.edge_count == 12  # 3 edges times 2*2 clone pairs
    assert densities(TRI, B).t == densities(TRI, TRI).t
    F = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
    H = Hypergraph.random(3, 4, 0.5, seed=3)
    assert densities(F, blowup(H, 3)).t == densities(F, H).t


def test_quotient_identity_and_collapse():
    ident = VertexPartition(3, [(0,), (1,), (2,)])
    Q = quotient(TRI, ident)
    assert is_isomorphic(Q, TRI)
    # merging the two endpoints of an edge collapses it: no valid quotient
    merged = VertexPartition(3, [(0, 1), (2,)])
    assert quotient(TRI, merged) is None
    # merging non-adjacent vertices of a path keeps all edges
    path = Hypergraph(2, 3, [(0, 1), (1, 2)])
    Q2 = quotient(path, VertexPartition(3, [(0, 2), (1,)]))
    assert Q2 is not None and Q2.n == 2 and Q2.edge_count == 1


def test_mobius_weights_partition_lattice():
    # block of size b contributes (-1)^(b-1) * (b-1)!
    assert VertexPartition(3, [(0, 1, 2)]).mobius_weight() == 2
    assert VertexPartition(3, [(0, 1), (2,)]).mobius_weight() == -1
    assert VertexPartition(4, [(0, 1, 2, 3)]).mobius_weight() == -6
    assert VertexPartition(4, [(0, 1), (2, 3)]).mobius_weight() == 1


def test_canonical_form_invariant_under_relabeling():
    for seed in range(6):
        H = Hypergraph.random(2, 5, 0.5, seed=seed)
        perm = [(i * 3 + 1) % 5 for i in range(5)]  # a 5-cycle relabeling
        P = H.relabel(perm)
        assert canonical_form(H) == canonical_form(P)
        assert is_isomorphic(H, P)
    assert not is_isomorphic(TRI, Hypergraph(2, 3, [(0, 1), (1, 2)]))


def test_canonical_family_counts_match_known_values():
    # unlabeled graph counts: 2 on 2 vertices, 4 on 3, 11 on 4
    fam4 = canonical_family(2, 4)
    by_n = {}
    for G in fam4:
        by_n[G.n] = by_n.get(G.n, 0) + 1
    assert by_n[2] == 2 and by_n[3] == 4 and by_n[4] == 11
    keyed = {(G.n, canonical_form(G)) for G in fam4}
    assert len(keyed) == len(fam4)


# sha256 of the JSON list of [n, edges in colex order] over canonical_family(k, 5),
# pinned while canonical_form kept every result in an unbounded module dict
FAMILY_SHA256 = {
    2: "0008c6517e53e45f1971eff5e236f3cd3e84a12d4e1b1ca75cda52e9ca0fbf7e",
    3: "a2b2e1bc7d7bbc325e0dbe7e4c81fd6e7bca31c9b737bfd1e3367015cbe67016",
}


def test_canonical_families_keep_their_order_under_a_bounded_cache():
    for k, want in FAMILY_SHA256.items():
        fam = canonical_family(k, 5)
        blob = json.dumps([[G.n, [list(e) for e in G.sorted_edges()]] for G in fam]).encode()
        assert hashlib.sha256(blob).hexdigest() == want, k
    info = canonical_form.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def canonical_classes_by_brute_force(k, v):
    """Every isomorphism class on v vertices: canonize each of the
    2^C(v, k) edge sets, sorted by (edge count, encoding)."""
    subs = list(itertools.combinations(range(v), k))
    seen = {}
    for bits in range(1 << len(subs)):
        edges = [subs[i] for i in range(len(subs)) if bits >> i & 1]
        form = canonical_form(Hypergraph(k, v, edges))
        if form not in seen:
            seen[form] = Hypergraph(k, v, form)
    return tuple(seen[f] for f in sorted(seen, key=lambda f: (len(f), f)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumerated_classes_match_canonizing_every_edge_set(k):
    for v in range(1, 6):
        fam, want = enumerate_canonical(k, v), canonical_classes_by_brute_force(k, v)
        assert [(G.k, G.n, G.sorted_edges()) for G in fam] == [(G.k, G.n, G.sorted_edges()) for G in want], v


def test_density_equivalent_blowups_and_distinct():
    assert density_equivalent(TRI, blowup(TRI, 2))
    assert not density_equivalent(TRI, Hypergraph.empty(2, 3))


def test_serialization_roundtrip():
    H = Hypergraph.random(3, 6, 0.4, seed=12)
    obj = H.to_obj()
    back = Hypergraph.from_obj(obj)
    assert back.k == H.k and back.n == H.n and back.sorted_edges() == H.sorted_edges()


@st.composite
def masks(draw):
    """(k, n, mask) with mask an indicator over the k-subsets in colex order;
    n < k and the empty mask are included."""
    k = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 9))
    bits = st.booleans() if draw(st.booleans()) else st.just(False)
    m = comb(n, k)
    return k, n, draw(st.lists(bits, min_size=m, max_size=m))


@settings(max_examples=300)
@given(masks(), st.randoms(use_true_random=False))
def test_from_member_matches_edge_constructor(case, rnd):
    k, n, mask = case
    rows = [s for s, b in zip(subsets_colex(n, k), mask) if b]
    shuffled = [rnd.sample(e, k) for e in rnd.sample(rows, len(rows))]
    A = Hypergraph.from_member(k, n, np.array(mask, dtype=bool))
    B = Hypergraph(k, n, shuffled)
    assert A == B and B == A and hash(A) == hash(B)
    assert (A == A.complement()) == (comb(n, k) == 0)
    assert A.edges == B.edges == frozenset(rows)
    assert A.edge_count == B.edge_count == len(rows)
    assert A.sorted_edges() == B.sorted_edges() == rows
    assert np.array_equal(A.member_array(), np.array(mask, dtype=np.uint8))
    assert np.array_equal(B.member_array(), A.member_array())
    assert A.to_obj() == B.to_obj() == {"k": k, "n": n, "edges": [list(e) for e in rows]}
    for G in (A, B, Hypergraph(k, n, rows)):
        assert written(G) == json.dumps(G.to_obj(), sort_keys=True, indent=2) + "\n"


def read_by_loop(obj):
    """The reader before from_obj ranked edges with numpy: the constructor,
    one edge at a time."""
    return Hypergraph(obj["k"], obj["n"], obj["edges"])


def outcome(read, obj):
    """The hypergraph read, or the type and message of the error raised."""
    try:
        return read(obj)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


def same_outcome(obj):
    new, old = outcome(Hypergraph.from_obj, obj), outcome(read_by_loop, obj)
    assert type(new) is type(old)
    if isinstance(new, Hypergraph):
        assert new == old and new.edges == old.edges and (new.k, new.n) == (old.k, old.n)
        assert written(new) == written(old)
    else:
        assert new == old
    return new


@settings(max_examples=300)
@given(masks(), st.randoms(use_true_random=False))
def test_from_obj_ranks_valid_edges_into_a_mask(case, rnd):
    k, n, mask = case
    rows = [s for s, b in zip(subsets_colex(n, k), mask) if b]
    edges = [rnd.sample(e, k) for e in rnd.sample(rows, len(rows))]
    edges += [rnd.sample(e, k) for e in rows[: rnd.randrange(3)]]  # repeated edges are one edge
    G = same_outcome({"k": k, "n": n, "edges": edges})
    assert G.sorted_edges() == rows
    assert (G._member is not None) == bool(rows)  # an empty list takes the loop


ENTRIES = st.one_of(  # small ints twice, so that many lists are valid or nearly so
    st.integers(-2, 9),
    st.integers(-2, 9),
    st.integers(2**63 - 1, 2**70),
    st.floats(allow_nan=True),
    st.booleans(),
    st.sampled_from(["1", "x", ""]),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=400)
@given(st.integers(1, 3), st.integers(0, 8), st.lists(st.lists(ENTRIES, max_size=4), max_size=5))
def test_from_obj_matches_the_loop_on_any_entries(k, n, edges):
    same_outcome({"k": k, "n": n, "edges": edges})


@pytest.mark.parametrize(
    "edges",
    [
        [[0, 1], [0]],  # ragged
        [[0, 1], [1, 2, 3]],
        [[0, 1], [2, 2]],  # repeated vertex
        [[0, 1], [1, 5]],  # out of range
        [[0, 1], [-1, 2]],
        [[0, 1], [0, 1.5]],  # float
        [[0, 1], [0, 2.0]],
        [[0, 1], [True, 2]],  # bool
        [[True, False]],
        [[0, 1], ["1", "2"]],  # string
        [[0, 1], ["a", "2"]],
        [[0, 1], [0, 2**63]],  # beyond int64
        [[0, 1], [0, 2**64 + 1]],
        [[0, 1], [[0], 1]],  # nested
        [[[0, 1]]],
        [[0, None]],
    ],
)
def test_from_obj_matches_the_loop_on_malformed_edges(edges):
    same_outcome({"k": 2, "n": 5, "edges": edges})


def test_from_obj_takes_the_mask_only_within_the_row_cap():
    assert Hypergraph.from_obj({"k": 2, "n": 5, "edges": [[1, 0], [4, 2]]})._member is not None
    G = same_outcome({"k": 2, "n": 10**6, "edges": [[0, 1]]})
    assert G._member is None
    for k, n in [("2", 5), (0, 5), (2, -1), (2, 5.0)]:
        same_outcome({"k": k, "n": n, "edges": [[0, 1]]})


def test_from_member_checks_its_mask():
    with pytest.raises(ValueError, match="length"):
        Hypergraph.from_member(2, 4, np.ones(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="n=1000000"):
        Hypergraph.from_member(2, 10**6, np.ones(3, dtype=np.uint8))
    mask = np.array([0, 2, 1], dtype=np.int64)
    G = Hypergraph.from_member(2, 3, mask)
    mask[0] = 1  # the hypergraph keeps its own read-only 0/1 copy
    assert G.member_array().tolist() == [0, 1, 1]
    assert not G.member_array().flags.writeable
    with pytest.raises(AttributeError):
        G.edges = frozenset()


def test_member_array_of_oversized_host_is_refused_before_allocating():
    H = Hypergraph(2, 10**6, [(0, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n=1000000"):
            H.member_array()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def patterns(draw):
    """(k, n, rows): rows a set of k-subsets of range(n), empty, complete or
    random, with n < k included."""
    k = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 7))
    subs = list(itertools.combinations(range(n), k))
    fill = draw(st.sampled_from(["empty", "complete", "random"]))
    if fill == "random":
        return k, n, [s for s in subs if draw(st.booleans())]
    return k, n, subs if fill == "complete" else []


@settings(max_examples=300)
@given(patterns(), st.booleans(), st.booleans())
def test_constraints_match_the_edge_and_subset_builders(case, induced, masked):
    k, n, rows = case

    def fresh():
        if masked:
            mask = np.zeros(comb(n, k), dtype=np.uint8)
            mask[[list(subsets_colex(n, k)).index(e) for e in rows]] = 1
            return Hypergraph.from_member(k, n, mask)
        return Hypergraph(k, n, rows)

    subs, flags = _constraints(fresh(), induced)
    F = fresh()
    if induced:  # every k-subset, flagged by whether it is an edge
        want = {c: int(F.is_edge(c)) for c in itertools.combinations(range(n), k)}
    else:  # the edges, each flagged 1
        want = dict.fromkeys(sorted(F.edges), 1)
    got = [tuple(s) for s in subs]
    assert dict(zip(got, flags)) == want and len(got) == len(flags)
    assert got == [e for e in subsets_colex(n, k) if e in want]  # colex order
    assert all(type(f) is int for f in flags)


def edge_query_leaks(tree, module):
    """Lines of a module other than hypergraph that call is_edge, by name or
    as an attribute, and a depth_ptr parameter of kernels.induced_count."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and module != "hypergraph":
            if "is_edge" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                hits.append(node.lineno)
        elif isinstance(node, ast.FunctionDef) and module == "kernels" and node.name == "induced_count":
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if "depth_ptr" in (a.arg for a in args):
                hits.append(node.lineno)
    return sorted(hits)


def test_package_reads_pattern_constraints_from_one_builder():
    # every count reads F's constrained k-subsets from hypergraph._constraints,
    # and the frontier groups its rows by depth itself
    files = sorted(Path(hyperlim.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = edge_query_leaks(ast.parse(path.read_text(), str(path)), path.stem)
        if hits:
            found[path.name] = hits
    assert found == {}
    leaky = "F.is_edge(c)\nis_edge(c)\ndef induced_count(n_f, n_h, subs, flags, depth_ptr, member): pass"
    assert edge_query_leaks(ast.parse(leaky), "kernels") == [1, 2, 3]
    assert edge_query_leaks(ast.parse(leaky), "hypergraph") == []


def host_tensor_leaks(tree, module):
    """Lines of a module that pass host tensors around: a hypergraph function
    with a tensors parameter, a _map_count with an induced one, and, outside
    hypergraph, any name of _host_tensor or of the tensor cache."""
    banned = {"_host_tensor", "_host_tensors", "_tensors"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and module == "hypergraph":
            args = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
            if "tensors" in args or (node.name == "_map_count" and "induced" in args):
                hits.append(node.lineno)
        elif module != "hypergraph":
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name for a in node.names] + [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            if banned.intersection(n.rsplit(".", 1)[-1] for n in names):
                hits.append(node.lineno)
    return sorted(set(hits))


def test_host_tensors_stay_inside_hypergraph():
    # a host keeps its own tensors, so no count passes a tensor dict along,
    # and _map_count counts homomorphisms only (induced counts have one path)
    files = sorted(Path(hyperlim.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {}
    for path in files:
        hits = host_tensor_leaks(ast.parse(path.read_text(), str(path)), path.stem)
        if hits:
            found[path.name] = hits
    assert found == {}
    leaky = (
        "def _frontier(F, H, rows, tensors): pass\n"
        "def _map_count(F, H, induced): pass\n"
        "from .hypergraph import _host_tensor\n"
        "T = hypergraph._host_tensors(H, (1,))\n"
        "H._tensors\n"
        "getattr(H, '_tensors')\n"
        "def induced_count(n_f, n_h, subs, flags, member, tensors): pass"
    )
    assert host_tensor_leaks(ast.parse(leaky), "hypergraph") == [1, 2, 7]
    # the kernels read whatever tensors they are given
    assert host_tensor_leaks(ast.parse(leaky), "kernels") == [3, 4, 5, 6]
