"""Command-line interface: one subcommand per library operation.

Conventions: rationals print as "p/q", estimates as "value +- stderr",
structured results as sorted-key JSON. Validation problems exit 2 with a
one-line diagnostic naming the offending input; unexpected failures exit 1.
Stochastic subcommands echo their seed to stderr when it was auto-chosen,
so every artifact can be replayed byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .combinatorics import ascii_digits
from .hypergraph import Hypergraph, _check_arity, _induced_kernel, hom
from .hyperpartition import CombinatorialStructure, Hyperpartition, structure_density
from .hypergraphon import StepHypergraphon, builtin_w, density

OUT_DIR_ENV = "HYPERLIM_OUT"


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON ({e.msg} at line {e.lineno})")
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_hypergraph(G: Hypergraph, fh):
    """Write the bytes of _dump_json(G.to_obj()) to the binary file fh.

    Each nonempty block of G.edge_blocks() is one write. Each edge fills a
    row of a byte template whose digit slots take rows of one per-vertex
    digit table (ascii_digits, built at the first edge), and one boolean
    mask drops the zero bytes that pad the shorter numbers. Every edge
    starts with a separating comma, which the first edge drops. So no text
    or list over all edges is ever held.
    """
    k = G.k
    fh.write(b'{\n  "edges": [')
    table = None
    first = True
    for rows in G.edge_blocks():
        if not len(rows):
            continue
        if table is None:  # built at the first edge, so an edgeless G needs none
            width = len(str(G.n - 1))
            table = ascii_digits(np.arange(G.n), width)  # the digits of each vertex
            slot = b"      " + b"\0" * width
            template = np.frombuffer(b",\n    [\n" + b",\n".join([slot] * k) + b"\n    ]", dtype=np.uint8)
            starts = [8 + 6 + i * (8 + width) for i in range(k)]
        buf = np.empty((len(rows), len(template)), dtype=np.uint8)
        buf[:] = template
        for i, at in enumerate(starts):
            buf[:, at : at + width] = np.take(table, rows[:, i], axis=0)
        text = buf[buf != 0]
        fh.write(text[1:] if first else text)
        first = False
    fh.write((b"]" if first else b"\n  ]") + b',\n  "k": %d,\n  "n": %d\n}\n' % (k, G.n))


def _write_out(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _require(value, field: str):
    if value is None:
        raise ValueError(f"{field}: required for this subcommand")
    return value


# each object the CLI reads: its class, the JSON key it must have, and what
# a refusal says was expected
_OBJECTS = {
    Hypergraph: ("edges", "a hypergraph object with an edges field"),
    StepHypergraphon: ("boxes", "a step hypergraphon object with a boxes field"),
    CombinatorialStructure: ("cells", "a structure object with a cells field"),
    Hyperpartition: ("labels", "a hyperpartition object with a labels field"),
}


def _load(cls, path, field):
    obj = _read_json(_require(path, field))
    key, expected = _OBJECTS[cls]
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{field}: expected {expected}")
    return cls.from_obj(obj)


def _auto_host(path):
    """Read a host that may be a hypergraph or a step hypergraphon."""
    obj = _read_json(path)
    for kind, cls in (("w", StepHypergraphon), ("h", Hypergraph)):
        if isinstance(obj, dict) and _OBJECTS[cls][0] in obj:
            return kind, cls.from_obj(obj)
    raise ValueError("host: expected a hypergraph (edges) or step hypergraphon (boxes)")


def _need_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(8), "big") & ((1 << 63) - 1)
    print(f"seed={seed}", file=sys.stderr)
    return seed


def _out_dir(args) -> str:
    return args.out or os.environ.get(OUT_DIR_ENV) or "."


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_density(args) -> int:
    F = _load(Hypergraph, args.F, "F")
    if args.H:
        host_kind, host = "h", _load(Hypergraph, args.H, "H")
    elif args.W:
        host_kind, host = _auto_host(args.W)
    else:
        host_kind, host = _auto_host("-")
    mode = "exact" if args.exact else args.mode
    if host_kind == "h":
        if args.induced:
            _check_arity(F, host)
        if host.n == 0:
            raise ValueError("host must have at least one vertex")
        count = _induced_kernel(F, host, False) if args.induced else hom(F, host)
        print(_frac(Fraction(count, host.n**F.n)))
        return 0
    if mode == "exact":
        val = density(F, host, mode="exact", induced=args.induced)
        print(_frac(val))
        return 0
    seed = _need_seed(args)
    est, stderr = density(
        F,
        host,
        mode="montecarlo",
        samples=20000 if args.samples is None else args.samples,
        seed=seed,
        induced=args.induced,
    )
    print(f"{est:.6g} +- {stderr:.3g}")
    return 0


def _cmd_structure_density(args) -> int:
    F = _load(Hypergraph, args.F, "F")
    C = _load(CombinatorialStructure, args.C, "C")
    val = structure_density(F, C, induced=args.induced)
    print(_frac(val))
    return 0


def _cmd_builtin_w(args) -> int:
    W = builtin_w(args.kind, args.k)
    _write_out(_dump_json(W.to_obj()), args.out)
    return 0


def _cmd_sample(args) -> int:
    from .sampling import sample_vertex, sample_w

    seed = _need_seed(args)
    if args.H:
        H = _load(Hypergraph, args.H, "H")
        G = sample_vertex(H, args.n, seed)
        meta = {"seed": seed, "source": {"kind": "vertex", "n": args.n, "host_n": H.n}}
    else:
        if not args.W:
            raise ValueError("sample: need --W or --H")
        W = _load(StepHypergraphon, args.W, "W")
        hp = _load(Hyperpartition, args.HP, "HP") if args.HP else None
        rec = sample_w(W, args.n, seed, hp=hp)
        G, meta = rec.sample, {"seed": rec.seed, "source": rec.source}
    if args.out:
        with open(args.out, "wb") as fh:
            _write_hypergraph(G, fh)
        side = args.out[:-5] + ".meta.json" if args.out.endswith(".json") else args.out + ".meta.json"
        with open(side, "w") as fh:
            fh.write(_dump_json(meta))
    else:
        sys.stdout.flush()
        _write_hypergraph(G, sys.stdout.buffer)
    return 0


def _cmd_distance(args) -> int:
    from . import metrics

    if args.metric == "hamming":
        H = _load(Hypergraph, args.H, "H")
        T = _load(Hypergraph, args.T, "T")
        print(_frac(metrics.hamming_density(H, T)))
        return 0
    if args.metric == "d1":
        U = _load(StepHypergraphon, args.U, "U")
        W = _load(StepHypergraphon, args.W, "W")
        if args.mode == "montecarlo":
            seed = _need_seed(args)
            rep = metrics.d1(U, W, mode="montecarlo", samples=args.samples, seed=seed)
        else:
            rep = metrics.d1(U, W)
    elif args.metric == "delta-w":
        U = _load(StepHypergraphon, args.U, "U")
        W = _load(StepHypergraphon, args.W, "W")
        if not args.family:
            raise ValueError("family: required for delta-w")
        objs = _read_json(args.family)
        if not isinstance(objs, list):
            raise ValueError("family: expected a JSON list of hypergraph objects")
        fam = [Hypergraph.from_obj(o) for o in objs]
        rep = metrics.delta_w_lower(U, W, fam)
    elif args.metric == "delta1":
        U = _load(StepHypergraphon, args.U, "U")
        W = _load(StepHypergraphon, args.W, "W")
        rep = metrics.delta1_upper(U, W, budget=args.budget, seed=args.seed or 0)
    elif args.metric == "delta":
        H = _load(Hypergraph, args.H, "H")
        T = _load(Hypergraph, args.T, "T")
        rep = metrics.delta_metric_estimate(H, T, args.max_size, seed=args.seed or 0)
    else:
        raise ValueError(f"metric: unknown choice {args.metric}")
    _write_out(_dump_json(rep.to_obj()), args.out)
    return 0


def _cmd_regularize(args) -> int:
    from .regularity import refine

    H = _load(Hypergraph, args.H, "H")
    seed = _need_seed(args)
    rep = refine(
        H,
        args.l,
        iterations=args.iterations,
        cylinder_samples=args.cylinder_samples,
        seed=seed,
        exhaustive=args.exhaustive,
    )
    print(f"eps={_frac(rep.eps)} delta={_frac(rep.delta)}")
    if args.out:
        _write_out(_dump_json(rep.to_obj()), args.out)
    return 0


def _cmd_closeness(args) -> int:
    from .metrics import closeness

    H = _load(Hypergraph, args.H, "H")
    C = _load(CombinatorialStructure, args.C, "C")
    hp = _load(Hyperpartition, args.HP, "HP")
    seed = _need_seed(args)
    eps, delta = closeness(H, C, hp, seed=seed)
    print(f"eps={_frac(eps)} delta={_frac(delta)}")
    return 0


def _one_pattern(args) -> str:
    if not args.F:
        raise ValueError("F: pattern hypergraph required")
    return args.F[0]


def _split_ints(text: str, field: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ValueError(f"{field}: expected comma-separated integers")


def _cmd_experiment(args) -> int:
    from . import experiments as ex

    name = args.which
    stochastic = name != "removal"
    seed = _need_seed(args) if stochastic else 0
    if name == "concentration":
        W = _load(StepHypergraphon, args.W, "W")
        F = _load(Hypergraph, _one_pattern(args), "F")
        rep = ex.concentration_experiment(
            W, F, _require(args.n, "n"), _require(args.eps, "eps"), args.trials, seed=seed, threads=args.threads
        )
    elif name == "counting":
        C = _load(CombinatorialStructure, args.C, "C")
        F = _load(Hypergraph, _one_pattern(args), "F")
        rep = ex.counting_experiment(
            C, F, _split_ints(_require(args.n_list, "n-list"), "n-list"), args.trials, seed=seed, threads=args.threads
        )
    elif name == "inverse":
        W = _load(StepHypergraphon, args.W, "W")
        rep = ex.inverse_counting_experiment(
            W,
            _require(args.n, "n"),
            args.trials,
            seed=seed,
            threads=args.threads,
            threshold=args.threshold,
            use_planted=args.use_planted,
        )
    elif name == "removal":
        H = _load(Hypergraph, args.H, "H")
        K = _load(Hypergraph, args.K, "K")
        rep = ex.removal_experiment(H, K)
    elif name == "hereditary":
        W = _load(StepHypergraphon, args.W, "W")
        if not args.F:
            raise ValueError("F: at least one pattern required")
        fl = [_load(Hypergraph, p, "F") for p in args.F]
        rep = ex.hereditary_experiment(
            W, fl, _require(args.n, "n"), args.trials, seed=seed, threads=args.threads
        )
    elif name == "sequence":
        if not args.sequence:
            raise ValueError("sequence: list of hypergraph files required")
        seq = [_load(Hypergraph, p, "sequence") for p in args.sequence.split(",")]
        rep = ex.strong_convergence_report(
            seq, _require(args.l, "l"), _require(args.eps, "eps"), seed=seed, threads=args.threads
        )
    else:
        raise ValueError(f"experiment: unknown kind {name}")
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{rep.name}-{rep.seed}")
    rep.write_json(base + ".json")
    rep.write_csv(base + ".csv")
    print(f"wrote {base}.json")
    for key in sorted(rep.verdicts):
        print(f"{key}={rep.verdicts[key]}")
    return 0


def _cmd_validate(args) -> int:
    checked = False
    if args.structure:
        _load(CombinatorialStructure, args.structure, "structure")
        checked = True
    if args.H:
        _load(Hypergraph, args.H, "H")
        checked = True
    if args.HP:
        _load(Hyperpartition, args.HP, "HP")
        checked = True
    if args.W:
        _load(StepHypergraphon, args.W, "W")
        checked = True
    if not checked:
        raise ValueError("validate: pass at least one of --structure/--H/--HP/--W")
    print("ok")
    return 0


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperlim",
        description="Dense hypergraph limits: densities, sampling, distances, decompositions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="pattern density in a host hypergraph or hypergraphon")
    d.add_argument("--F", required=True, help="pattern hypergraph JSON")
    d.add_argument("--H", help="host hypergraph JSON")
    d.add_argument("--W", help="host step hypergraphon JSON ('-' for stdin)")
    d.add_argument("--mode", choices=["exact", "montecarlo"], default="exact")
    d.add_argument("--exact", action="store_true", help="force exact mode")
    d.add_argument("--induced", action="store_true")
    d.add_argument("--samples", type=int, default=None)
    d.add_argument("--seed", type=int, default=None)
    d.set_defaults(fn=_cmd_density)

    sd = sub.add_parser("structure-density", help="exact density of a pattern in a structure")
    sd.add_argument("--F", required=True)
    sd.add_argument("--C", required=True)
    sd.add_argument("--induced", action="store_true")
    sd.set_defaults(fn=_cmd_structure_density)

    b = sub.add_parser("builtin-w", help="emit a named step hypergraphon")
    b.add_argument("--kind", required=True, choices=["example1", "example2", "full", "empty"])
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_builtin_w)

    s = sub.add_parser("sample", help="random hypergraph from a hypergraphon or host")
    s.add_argument("--W", help="step hypergraphon JSON")
    s.add_argument("--H", help="host hypergraph JSON (vertex sampling)")
    s.add_argument("--HP", help="restricting hyperpartition JSON")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_sample)

    di = sub.add_parser("distance", help="distances between hypergraphs or hypergraphons")
    di.add_argument("--metric", required=True, choices=["d1", "hamming", "delta-w", "delta", "delta1"])
    di.add_argument("--U")
    di.add_argument("--W")
    di.add_argument("--H")
    di.add_argument("--T")
    di.add_argument("--family", help="JSON list of pattern hypergraphs (delta-w)")
    di.add_argument("--mode", choices=["exact", "montecarlo"], default="exact")
    di.add_argument("--samples", type=int, default=None)
    di.add_argument("--budget", type=int, default=4096)
    di.add_argument("--max-size", type=int, default=5)
    di.add_argument("--seed", type=int, default=None)
    di.add_argument("--out")
    di.set_defaults(fn=_cmd_distance)

    r = sub.add_parser("regularize", help="decompose a hypergraph into hyperpartition + structure")
    r.add_argument("--H", required=True)
    r.add_argument("--l", type=int, required=True)
    r.add_argument("--iterations", type=int, default=12)
    r.add_argument("--cylinder-samples", type=int, default=32)
    r.add_argument("--exhaustive", action="store_true")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--out")
    r.set_defaults(fn=_cmd_regularize)

    c = sub.add_parser("closeness", help="certify (eps, delta) closeness of a decomposition")
    c.add_argument("--H", required=True)
    c.add_argument("--C", required=True)
    c.add_argument("--HP", required=True)
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(fn=_cmd_closeness)

    e = sub.add_parser("experiment", help="seeded experiment harnesses")
    e.add_argument("which", choices=["concentration", "counting", "inverse", "removal", "hereditary", "sequence"])
    e.add_argument("--W")
    e.add_argument("--C")
    e.add_argument("--H")
    e.add_argument("--K")
    e.add_argument("--F", action="append", help="pattern JSON (repeatable)")
    e.add_argument("--sequence", help="comma-separated hypergraph JSON paths")
    e.add_argument("--n", type=int, default=None)
    e.add_argument("--n-list", dest="n_list", default=None)
    e.add_argument("--l", type=int, default=None)
    e.add_argument("--eps", type=float, default=None)
    e.add_argument("--trials", type=int, default=20)
    e.add_argument("--threshold", type=float, default=0.2)
    e.add_argument("--use-planted", action="store_true")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--threads", type=int, default=None)
    e.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    e.set_defaults(fn=_cmd_experiment)

    v = sub.add_parser("validate", help="parse and validate serialized objects")
    v.add_argument("--structure")
    v.add_argument("--H")
    v.add_argument("--HP")
    v.add_argument("--W")
    v.set_defaults(fn=_cmd_validate)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as e:  # noqa: BLE001 - boundary: report and exit nonzero
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
