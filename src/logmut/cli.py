"""Command-line interface.

Subcommands: validate, mutate, decide, enumerate, render, report.

A DATUM argument is resolved in this order: "-" reads JSON from stdin; an
existing file path is read as JSON; otherwise it must be a named datum
(Tom, Jerry, or An(n)).

With --json, validate and mutate print a datum document (datum_to_obj, with
their other fields beside "edges"), which a DATUM argument reads back; decide
prints the verdict document (Verdict.to_obj), and each enumerate result is
that document beside its "partitions".

Exit codes:
  0  success (decide: verdict Yes)
  1  I/O or parse error (bad JSON, JSON nested too deeply to parse, unknown
     name, bad polynomial text, an integer option other than ASCII digits
     with an optional leading minus),
     render --scale below 1, render --lattice-points over a bounding box of
     more than 10**5 lattice points
  2  invalid datum or edge list (An(n) with n > 10**6 too), wall assignment
     ill-shaped or over the degree cap, refused --gen-walls, negative search limit
  3  illegal mutation (mutate on rank-one data exits 2: not rank two)
  4  decide: verdict No
  5  decide: verdict Unknown
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict

from .decider import (
    MAX_DEPTH,
    MAX_STATES,
    canonicalize,
    check_limits,
    enumerate_zero_mutable,
    is_zero_mutable,
)
from .errors import IllegalMutation, InvalidDatum, LogMutError, TooFewEdges
from .lattice import sort_ccw
from .logdatum import (
    LogDatum,
    component_types,
    datum_from_obj,
    datum_to_obj,
    fan_presentation,
    named,
    rank,
)
from .mutation import mutate_with_trace, part_index
from .render import RenderSpec, render_svg
from .wallfn import (
    WallAssignment,
    format_bipoly,
    generic_wall_assignment,
    is_generic,
    is_subordinate,
    joint_compatible,
    kinks,
)


def load_datum(token: str) -> LogDatum:
    if token == "-":
        return datum_from_obj(json.load(sys.stdin))
    if os.path.exists(token):
        with open(token) as fh:
            return datum_from_obj(json.load(fh))
    try:
        return named(token)
    except KeyError:
        raise ValueError(
            f"{token!r} is neither a file nor a named datum (Tom, Jerry, An(n))"
        )


def _print_datum(S: LogDatum) -> None:
    for i, edge in enumerate(S.edges, start=1):
        print(f"  {i}: e={edge.e} nu={edge.nu}")


def cmd_validate(args) -> int:
    S = load_datum(args.datum)
    try:
        rank_label = rank(S).value
    except TooFewEdges:
        rank_label = "none (fewer than 2 edges)"
    if args.json:
        print(
            json.dumps(
                {
                    "ok": True,
                    **datum_to_obj(S),
                    "rank": rank_label,
                    "total_length": S.total_length,
                    "canonical_class": canonicalize(S),
                }
            )
        )
    else:
        print(f"valid log datum with {len(S)} edges (counterclockwise):")
        _print_datum(S)
        print(f"rank: {rank_label}   total length: {S.total_length}")
    return 0


def cmd_mutate(args) -> int:
    S = load_datum(args.datum)
    k = args.part
    if args.part_value is not None:
        k = part_index(S, args.edge, args.part_value)
    T, trace = mutate_with_trace(S, args.edge, k)
    if args.json:
        out = datum_to_obj(T)
        if args.trace:
            out["trace"] = trace
        print(json.dumps(out))
    else:
        if args.trace:
            for line in trace:
                print(f"# {line}")
        print(f"mutated datum ({len(T)} edges, counterclockwise):")
        _print_datum(T)
    return 0


def _limits(args) -> dict:
    limits = {"max_depth": args.max_depth, "max_states": args.max_states}
    check_limits(**limits, names=("--max-depth", "--max-states"))
    return limits


def cmd_decide(args) -> int:
    limits = _limits(args)
    S = load_datum(args.datum)
    verdict = is_zero_mutable(S, **limits)
    cert = verdict.certificate
    if args.certificate and cert is not None:
        with open(args.certificate, "w") as fh:
            json.dump(cert.to_obj(), fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(verdict.to_obj()))
    else:
        if verdict.is_yes:
            print(
                f"Yes: zero-mutable in {len(cert.steps)} steps "
                f"(explored {verdict.explored} classes)"
            )
            for n, step in enumerate(cert.steps, start=1):
                print(f"  step {n}: edge {step.edge}, part {step.part}")
            print("terminal:")
            _print_datum(cert.terminal)
        elif verdict.is_no:
            print(
                f"No: not zero-mutable (explored all {verdict.explored} "
                f"reachable classes, depth {verdict.depth})"
            )
        else:
            print(
                f"Unknown: search limits reached (explored {verdict.explored} "
                f"classes, depth {verdict.depth})"
            )
    return {"yes": 0, "no": 4, "unknown": 5}[verdict.kind]


def cmd_enumerate(args) -> int:
    limits = _limits(args)
    if os.path.exists(args.edges):
        with open(args.edges) as fh:
            raw = json.load(fh)
    else:
        raw = json.loads(args.edges)
    if type(raw) is not list:
        raise InvalidDatum(f"edge list {raw!r} is not a JSON array")
    results = enumerate_zero_mutable(raw, **limits)  # checks each edge vector
    # The assignments list partitions in counterclockwise edge order.
    vectors = sort_ccw(map(tuple, raw), lambda v: v)
    if args.json:
        print(
            json.dumps(
                {
                    "edges": [list(v) for v in vectors],
                    "results": [
                        {"partitions": [list(p) for p in assignment], **verdict.to_obj()}
                        for assignment, verdict in results
                    ],
                }
            )
        )
    else:
        yes = sum(1 for _, v in results if v.is_yes)
        print(
            f"{len(results)} partition assignments over edges "
            f"{vectors}: {yes} zero-mutable"
        )
        for assignment, verdict in results:
            extra = (
                f" in {len(verdict.certificate.steps)} steps"
                if verdict.is_yes
                else ""
            )
            print(f"  {assignment} -> {verdict}{extra}")
    return 0


def cmd_render(args) -> int:
    S = load_datum(args.datum)
    spec = RenderSpec(
        scale=args.scale,
        label_edges=args.labels,
        show_lattice_points=args.lattice_points,
    )
    text = render_svg(S, spec)
    if args.svg == "-":
        print(text)
    else:
        with open(args.svg, "w") as fh:
            fh.write(text)
        print(f"wrote {len(text)} bytes to {args.svg}")
    return 0


def _wall_checks(S: LogDatum, W: WallAssignment) -> dict:
    checks: dict = {"joint_compatible": joint_compatible(S, W)}
    sub = is_subordinate(S, W)
    checks["subordinate"] = asdict(sub)
    checks["generic"] = asdict(is_generic(S, W)) if sub else None
    return checks


def _print_wall_checks(checks: dict) -> None:
    print("wall checks:")
    print(f"  joint compatible: {'yes' if checks['joint_compatible'] else 'no'}")
    for name in ("subordinate", "generic"):
        check = checks[name]
        if check is None:
            print(f"  {name}: skipped (requires a subordinate assignment)")
            continue
        print(f"  {name}: {'yes' if check['ok'] else 'no'}")
        for p in check["problems"]:
            print(f"    - {p}")


def cmd_report(args) -> int:
    S = load_datum(args.datum)
    fan = fan_presentation(S)
    report = component_types(S)
    kink_values = kinks(S)

    W = None
    if args.walls:
        with open(args.walls) as fh:
            W = WallAssignment.from_obj(json.load(fh))
    elif args.gen_walls is not None:
        W = generic_wall_assignment(S, args.gen_walls)
    checks = _wall_checks(S, W) if W is not None else None

    if args.json:
        out = {
            "fan": {
                "maximal_cones": [[list(g) for g in cone] for cone in fan.maximal_cones],
                "walls": [[list(g) for g in wall] for wall in fan.walls],
                "joint": list(fan.joint),
            },
            "components": [
                {"index": c.index, "label": c.label} for c in report.components
            ],
            "kinks": list(kink_values),
        }
        if W is not None:
            out["walls_input"] = W.to_obj()
            out["wall_checks"] = checks
        print(json.dumps(out))
        return 0

    print(f"datum ({len(S)} edges, counterclockwise):")
    _print_datum(S)
    print("fan presentation in L + Z (joint ray {}):".format(fan.joint))
    for i, cone in enumerate(fan.maximal_cones, start=1):
        print(f"  cone {i}: generated by {cone[0]}, {cone[1]}, {cone[2]}")
    print("  walls:", ", ".join(f"<{w[0]}, {w[1]}>" for w in fan.walls))
    print("boundary components:")
    for i, c in enumerate(report.components, start=1):
        print(f"  {i}: index {c.index}, {c.label}")
    print(f"kinks (one per wall): {kink_values}")
    if W is not None:
        if args.walls:
            print(f"wall functions from {args.walls}:")
        else:
            print(f"synthesized wall functions (seed {args.gen_walls}):")
        for i, wall in enumerate(W.factors, start=1):
            for km, f in enumerate(wall, start=1):
                print(f"  f[{i},{km}] = {format_bipoly(f)}")
        _print_wall_checks(checks)
    return 0


def _integer(text: str) -> int:
    """The argparse type of every integer option: ASCII digits with an
    optional leading minus, nothing else (no spaces, underscores or other
    scripts' digits, which int() would take)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmut",
        description="Exact mutation calculus for log data on an oriented "
        "rank-2 lattice.",
        epilog="exit codes: 0 ok/Yes, 1 I/O or parse error, 2 invalid input, "
        "3 illegal mutation, 4 No, 5 Unknown",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, datum=True):
        if datum:
            p.add_argument(
                "datum",
                help="datum JSON file, '-' for stdin, or a name: Tom, Jerry, An(n)",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_limits(p):
        p.add_argument("--max-depth", type=_integer, default=MAX_DEPTH, metavar="N")
        p.add_argument("--max-states", type=_integer, default=MAX_STATES, metavar="N")

    p = sub.add_parser("validate", help="check and normalize a datum")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mutate", help="apply one mutation")
    add_common(p)
    p.add_argument("--edge", type=_integer, required=True, metavar="J",
                   help="1-based counterclockwise edge index")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--part", type=_integer, default=1, metavar="K",
                       help="1-based index into the edge's partition (default 1)")
    group.add_argument("--part-value", type=_integer, metavar="V",
                       help="select the first part with this value instead")
    p.add_argument("--trace", action="store_true",
                   help="print which branch each edge followed")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("decide", help="decide zero-mutability")
    add_common(p)
    add_limits(p)
    p.add_argument("--certificate", metavar="PATH",
                   help="write the certificate JSON here on Yes")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser(
        "enumerate",
        help="decide all partition assignments over fixed edge vectors",
    )
    p.add_argument("--edges", required=True, metavar="JSON",
                   help='edge vectors as JSON, e.g. "[[3,0],[0,2],[-3,-2]]", '
                   "or a file containing them")
    add_common(p, datum=False)
    add_limits(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("render", help="render the polygon as SVG")
    add_common(p)
    p.add_argument("--svg", required=True, metavar="PATH",
                   help="output file, '-' for stdout")
    p.add_argument("--scale", type=_integer, default=40, metavar="N",
                   help="pixels per lattice unit (default 40)")
    p.add_argument("--labels", action="store_true", help="label each edge")
    p.add_argument("--lattice-points", action="store_true",
                   help="draw lattice points in the bounding box "
                        "(at most 10**5 of them)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "report",
        help="fan presentation, component types, kinks, wall-function checks",
    )
    add_common(p)
    wall_group = p.add_mutually_exclusive_group()
    wall_group.add_argument("--walls", metavar="FILE",
                            help="wall-assignment JSON to check")
    wall_group.add_argument("--gen-walls", type=_integer, metavar="SEED",
                            help="synthesize a generic assignment")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except IllegalMutation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LogMutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # str() of a KeyError is the repr of its argument; print it bare
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
