"""Command line front end.

Subcommands: gen, decompose, prove, verify, stats, fuzz, bench.  Exit codes:
0 on success / all-accept, 1 on reject, refusal, or fuzz counterexample,
2 on usage errors (bad flags, unreadable or malformed files, unknown names).
Only the input errors in USAGE_ERRORS are usage errors; any other exception,
such as a ValueError from the bit codec, is a bug and propagates.
"""

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict
from typing import Optional, Sequence

from .bench import SECTIONS, bench_label_size
from .certify import (
    CertifyError,
    all_accept,
    check_witness,
    label_size_stats,
    prove,
    read_label_file,
    verify_all,
    write_label_file,
    write_verdict_file,
)
from .encoding import DecodeError
from .generators import FAMILIES, GeneratorError, GeneratorSpec, generate
from .fuzz import fuzz_soundness
from .graph import GraphError, read_graph_file, write_graph_file
from .intervals import IntervalError, read_interval_file, width, write_interval_file
from .lanes import build_lane_partition, write_lane_file
from .properties import PropertyError
from .recursive import (
    build_hierarchical_decomposition,
    completion_to_op_sequence,
    dump_decomposition,
    write_op_file,
)

USAGE_ERRORS = (
    DecodeError,
    GeneratorError,
    GraphError,
    IntervalError,
    PropertyError,
    OSError,
)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_instance(args):
    g = read_graph_file(_read(args.graph))
    ir = None
    if getattr(args, "intervals", None):
        ir = read_interval_file(_read(args.intervals), g.n)
    return g, ir


def cmd_gen(args) -> int:
    spec = GeneratorSpec(args.family, args.n, args.k, args.density)
    g, ir = generate(spec, args.seed)
    _write(args.out_graph, write_graph_file(g))
    if args.out_intervals:
        _write(args.out_intervals, write_interval_file(ir))
    _emit(
        args,
        {"family": args.family, "n": g.n, "edges": len(g.edges), "width": width(ir)},
        "",
    )
    return 0


def cmd_decompose(args) -> int:
    g, ir = _load_instance(args)
    try:
        ir = check_witness(g, args.k, ir)
    except CertifyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    lp, _ = build_lane_partition(g, ir)
    ops = completion_to_op_sequence(g, ir, lp)
    hd = build_hierarchical_decomposition(ops)
    if args.out_lanes:
        _write(args.out_lanes, write_lane_file(lp))
    if args.out_ops:
        _write(args.out_ops, write_op_file(ops))
    if args.dump:
        print(dump_decomposition(hd))
    _emit(
        args,
        {
            "n": g.n,
            "lanes": lp.k,
            "ops": len(ops.ops),
            "depth": hd.depth_stats()[0],
        },
        "lanes=%d ops=%d" % (lp.k, len(ops.ops)),
    )
    return 0


def cmd_prove(args) -> int:
    g, ir = _load_instance(args)
    try:
        labels = prove(g, args.property, args.k, ir=ir)
    except CertifyError as exc:
        _emit(args, {"refused": True, "reason": str(exc)}, "refused: %s" % exc)
        return 1
    _write(args.out, write_label_file(labels))
    stats = label_size_stats(labels)
    _emit(
        args,
        {"refused": False, "edges": stats.count, "max_bits": stats.max_bits},
        "labeled %d edges, max %d bits" % (stats.count, stats.max_bits),
    )
    return 0


def cmd_verify(args) -> int:
    g, _ = _load_instance(args)
    labels = read_label_file(_read(args.labels))
    stray = sorted(set(labels) - g.edge_set())
    if stray:
        raise DecodeError("bad label line for %d %d: not an edge of the graph" % stray[0])
    verdicts = verify_all(g, labels, args.property, args.k)
    ok = all_accept(verdicts)
    report = write_verdict_file(verdicts)
    if args.out:
        _write(args.out, report)
    rejects = [v for v in verdicts.values() if not v.accept]
    _emit(
        args,
        {
            "accept": ok,
            "vertices": len(verdicts),
            "rejects": len(rejects),
            "reasons": dict(Counter(v.reason for v in rejects)),
        },
        "all-accept" if ok else "reject at %d vertices" % len(rejects),
    )
    return 0 if ok else 1


def cmd_stats(args) -> int:
    labels = read_label_file(_read(args.labels))
    stats = label_size_stats(labels)
    _emit(
        args,
        asdict(stats),
        "edges=%d max=%d mean=%.1f total=%d"
        % (stats.count, stats.max_bits, stats.mean_bits, stats.total_bits),
    )
    return 0


def cmd_fuzz(args) -> int:
    g, ir = _load_instance(args)
    report = fuzz_soundness(g, args.property, args.k, args.trials, args.seed, ir=ir)
    _emit(
        args,
        asdict(report),
        "trials=%d rejects=%d counterexamples=%d"
        % (report.trials, report.rejects, len(report.counterexamples)),
    )
    return 1 if report.counterexamples else 0


def _sizes(text: str):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers: %r" % text)


def _k(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected an integer >= 0: %r" % text)
    return int(text)


def cmd_bench(args) -> int:
    try:
        rows = bench_label_size(
            args.family, args.sizes, args.property, args.k, seed=args.seed
        )
    except CertifyError as exc:
        _emit(args, {"refused": True, "reason": str(exc)}, "refused: %s" % exc)
        return 1
    if args.json:
        print(json.dumps([asdict(r) for r in rows]))
    else:
        print("family n w edges max_bits mean_bits ratio " + " ".join(SECTIONS))
        for r in rows:
            print(
                "%s %d %d %d %d %.1f %.2f " % (r.family, r.n, r.w, r.edges, r.max_bits, r.mean_bits, r.ratio)
                + " ".join("%.1f" % r.mean_bits_by_section[name] for name in SECTIONS)
            )
    if len(rows) > 1 and rows[-1].ratio > 1.25 * rows[0].ratio:
        print("ratio growth exceeds 1.25x", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lanecert",
        description="Local certification of graph properties on low-pathwidth graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="generate an instance with a width witness")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--out-graph")
    p.add_argument("--out-intervals")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="lanes, op sequence, decomposition dump")
    p.add_argument("--graph", required=True)
    p.add_argument("--intervals")
    p.add_argument("--k", type=_k, required=True)
    p.add_argument("--out-lanes")
    p.add_argument("--out-ops")
    p.add_argument("--dump", action="store_true")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("prove", help="emit per-edge certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--intervals")
    p.add_argument("--property", required=True)
    p.add_argument("--k", type=_k, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="run the local verifier at every vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--property", required=True)
    p.add_argument("--k", type=_k, required=True)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="label size accounting")
    p.add_argument("--labels", required=True)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fuzz", help="mutation campaign against the verifier")
    p.add_argument("--graph", required=True)
    p.add_argument("--intervals")
    p.add_argument("--property", required=True)
    p.add_argument("--k", type=_k, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("bench", help="label size versus log n sweep")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--sizes", required=True, type=_sizes, help="comma-separated n values")
    p.add_argument("--property", required=True)
    p.add_argument("--k", type=_k, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
