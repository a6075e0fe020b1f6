"""Command-line interface.

Subcommands: rmatrix | sdim | invariant | fft | relations | brauer.

The algebra is given positionally as in "gl 2|1" or "osp 3|2" (for osp the
second number is the full odd dimension 2n and must be even), optionally
followed by "order=e1,d1,e2"; there is no flag form.  Output is a text
table by default and machine JSON with --json; JSON is byte-deterministic
for a fixed configuration (timings only appear with --timing).

Relations run in the distinguished ordering, hecke and walledbmw on gl,
bmw and brauer on osp.  bmw is checked in a spectral model with no strands,
so it takes -r 2 only and no budget applies; --z applies to walledbmw only.
Only commands that build tensor powers take --budget.

Exit codes follow the error's type (`qschur.errors`): 0 success, 1
verification failure (also a failed internal identity check), 2 usage
error (also a malformed or too deeply nested --ribbon-json or --z, an
empty order=, an -r out of range for the command, a relation family on the
wrong algebra, --z without walledbmw, a --budget below 1), 3 budget
exceeded (also an -r or -s too large).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import centralizer, functor, qgl
from .diagrams import brauer_basis, parse_braid
from .errors import QschurError, UsageError
from .rootdata import RootDatum, admissible_orderings, distinguished, sdim_q
from .superspace import DEFAULT_POINTS

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _parse_symbols(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if len(tok) < 2 or tok[0] not in "ed" or not tok[1:].isdigit():
            raise UsageError(f"bad ordering symbol {tok!r} (want e.g. e1,d1)")
        out.append((tok[0], int(tok[1:])))
    return tuple(out)


def parse_datum(tokens: list[str]) -> RootDatum:
    """Root datum literal: 'gl 2|1 [order=e1,d1,e2]' / 'osp 3|2 [order=d1,e1]'."""
    if len(tokens) < 2:
        raise UsageError("algebra spec needs a type and a size, e.g. gl 2|1")
    algebra = tokens[0]
    if algebra not in ("gl", "osp"):
        raise UsageError(f"unknown algebra type {algebra!r}")
    size = tokens[1]
    if "|" not in size:
        raise UsageError(f"bad size {size!r}; want m|n as in 2|1")
    ms, ns = size.split("|", 1)
    try:
        m, second = int(ms), int(ns)
    except ValueError as exc:
        raise UsageError(f"bad size {size!r}") from exc
    if algebra == "osp":
        if second % 2:
            raise UsageError("osp odd dimension must be even (osp m|2n)")
        n = second // 2
    else:
        n = second
    order = None
    for extra in tokens[2:]:
        if extra.startswith("order=") and order is None:
            order = extra[len("order="):]
        else:
            raise UsageError(f"unexpected token {extra!r}")
    if m + n < 1 or m < 0 or n < 0:
        raise UsageError("need m, n >= 0 and m + n >= 1")
    if order is None:
        return distinguished(algebra, m, n)
    return RootDatum(algebra, m, n, _parse_symbols(order))


def _at_least(low: int):
    """argparse type: an int that is at least `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    parse.__name__ = "int"  # argparse says "invalid int value" on a ValueError
    return parse


def _parse_points(text: str):
    """Comma-separated rationals; `fft_report` rejects repeated points and
    points among 0 and +-1."""
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --points {text!r}: {exc}") from exc


def _parse_powers(text: str) -> list[int]:
    try:
        rs = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad -r {text!r}; want e.g. 2 or 1,2,3") from exc
    if min(rs) < 1:
        raise UsageError("tensor powers -r must be at least 1")
    return rs


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    try:
        print(json.dumps(payload, sort_keys=True) if args.json
              else "\n".join(text_lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the rest, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_rmatrix(args) -> int:
    datum = parse_datum(args.algebra)
    if datum.algebra != "gl":
        raise UsageError("rmatrix is defined for gl data")
    mat = qgl.braiding(datum) if args.braiding else qgl.rmatrix_vv(datum)
    name = "braiding" if args.braiding else "rmatrix"
    payload = {
        "command": name, "datum": datum.describe(),
        "rows": mat.rows, "cols": mat.cols,
        "entries": [[r, c, str(mat.entries[(r, c)])]
                    for (r, c) in sorted(mat.entries)],
    }
    _emit(args, payload, [mat.dump()])
    return EXIT_OK


def cmd_sdim(args) -> int:
    datum = parse_datum(args.algebra)
    value = sdim_q(datum)
    payload = {"command": "sdim", "datum": datum.describe(), "sdim": str(value)}
    lines = [str(value)]
    if args.all_orderings:
        data = admissible_orderings(datum.algebra, datum.m, datum.n)
        invariant = all(sdim_q(d) == value for d in data)
        payload["orderings_checked"] = len(data)
        payload["invariant"] = invariant
        lines.append(f"invariant across {len(data)} orderings"
                     if invariant else "NOT invariant across orderings")
    _emit(args, payload, lines)
    return EXIT_OK if payload.get("invariant", True) else EXIT_VERIFY


def cmd_invariant(args) -> int:
    datum = parse_datum(args.algebra)
    if datum.algebra != "gl":
        raise UsageError("link invariants use the gl flavor")
    ctx = functor.make_context("glq", datum=datum, budget=args.budget)
    if args.ribbon_json:
        if args.braid:
            raise UsageError("give either --braid or --ribbon-json, not both")
        if args.r is not None:
            raise UsageError("-r applies to --braid; a ribbon word fixes "
                             "its own strands")
        from .diagrams import RibbonWord
        word = RibbonWord.from_json(args.ribbon_json)
        if word.source or word.target:
            raise UsageError("the ribbon word must be closed (empty source "
                             "and target) to evaluate to a scalar")
        value = functor.evaluate(word, ctx).scalar_value()
        from .scalar import RatFunc
        if not isinstance(value, RatFunc):
            value = RatFunc(value)
        payload = {"command": "invariant", "datum": datum.describe(),
                   "ribbon": args.ribbon_json, "value": str(value)}
    else:
        word = parse_braid(args.braid or "", strands=args.r)
        value = functor.invariant(word, ctx)
        payload = {"command": "invariant", "datum": datum.describe(),
                   "braid": args.braid or "", "strands": word.strands,
                   "value": str(value)}
    _emit(args, payload, [str(value)])
    return EXIT_OK


def cmd_fft(args) -> int:
    datum = parse_datum(args.algebra)
    if not datum.is_distinguished():
        raise UsageError("fft reports run on the distinguished ordering")
    points = (DEFAULT_POINTS if args.points is None
              else _parse_points(args.points))
    rs = _parse_powers(args.r)
    reports = []
    for r in rs:
        reports.append(centralizer.fft_report(
            datum.algebra, datum.m, datum.n, r, s=args.s,
            points=points, budget=args.budget))
    payload = {"command": "fft",
               "cells": [rep.to_dict(with_timing=args.timing) for rep in reports]}
    lines = []
    for rep in reports:
        lines.append(f"{rep.flavor}({rep.m}|{rep.n if rep.flavor == 'gl' else 2 * rep.n}) "
                     f"r={rep.r} s={rep.s}: commutant={rep.commutant_dim} "
                     f"span={rep.span_rank} verdict={rep.verdict}")
        if rep.bound is not None:
            lines.append(f"  even-m spanning bound: {rep.bound_lhs} < {rep.bound}"
                         f" -> {'within' if rep.bound_ok else 'outside'}")
    _emit(args, payload, lines)
    return EXIT_OK if all(rep.equal for rep in reports) else EXIT_VERIFY


def _relation_datum(args, kind: str) -> RootDatum:
    """The algebra of a relation check: of the family's type, distinguished."""
    datum = parse_datum(args.algebra)
    want = centralizer.RELATION_ALGEBRA[kind]
    if datum.algebra != want:
        raise UsageError(f"{kind} relations are checked on {want} algebras, "
                         f"not {datum.describe()}")
    if not datum.is_distinguished():
        raise UsageError("relations are checked on the distinguished ordering")
    return datum


def cmd_relations(args) -> int:
    kind = args.kind
    datum = _relation_datum(args, kind)
    z = None
    if args.z is not None:
        if kind != "walledbmw":
            raise UsageError("--z is the walled loop parameter; it applies "
                             "to --kind walledbmw only")
        from .scalar import parse as parse_scalar
        try:
            z = parse_scalar(args.z)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --z: {exc}") from exc
    report = centralizer.relation_check(kind, datum.m, datum.n, r=args.r, z=z,
                                        budget=args.budget)
    payload = {"command": "relations", "datum": datum.describe(),
               **report.to_dict()}
    lines = [f"[{'ok' if ok else 'FAIL'}] {name}" + ("" if ok else f" residual {res}")
             for name, ok, res in report.items]
    lines.append(f"all zero: {report.all_zero}")
    _emit(args, payload, lines)
    return EXIT_OK if report.all_zero else EXIT_VERIFY


def cmd_brauer(args) -> int:
    r = args.r
    datum = _relation_datum(args, "brauer") if args.algebra else None
    diagrams_list = brauer_basis(r)
    payload = {"command": "brauer", "r": r, "count": len(diagrams_list),
               "diagrams": [list(d.match) for d in diagrams_list]}
    lines = [f"{len(diagrams_list)} diagrams on {r} strands"]
    if datum:
        report = centralizer.relation_check("brauer", datum.m, datum.n, r=r,
                                            budget=args.budget)
        payload.update(report.to_dict())
        lines += [f"[{'ok' if ok else 'FAIL'}] {name}"
                  for name, ok, _ in report.items]
        lines.append(f"all relations hold: {report.all_zero}")
    _emit(args, payload, lines)
    return EXIT_OK if payload.get("all_zero", True) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qschur",
        description="Exact R-matrices, superdimensions, link invariants and "
                    "centralizer checks for quantum supergroups.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algebra_required=True, budget=None):
        p.add_argument("algebra", nargs="*",
                       help="algebra spec, e.g. 'gl 2|1' or 'osp 3|2 order=d1,e1'")
        p.set_defaults(algebra_required=algebra_required)
        p.add_argument("--json", action="store_true", help="emit JSON")
        if budget is not None:
            p.add_argument("--budget", type=_at_least(1), default=budget,
                           help="dimension/unknown budget (default %(default)s)")

    p = sub.add_parser("rmatrix", help="print R or the braiding on V (x) V")
    common(p)
    p.add_argument("--braiding", action="store_true",
                   help="print g-check = tau o R instead of R")
    p.set_defaults(func=cmd_rmatrix)

    p = sub.add_parser("sdim", help="quantum superdimension of V")
    common(p)
    p.add_argument("--all-orderings", action="store_true",
                   help="verify invariance across all admissible orderings")
    p.set_defaults(func=cmd_sdim)

    p = sub.add_parser("invariant", help="framed invariant of a braid closure")
    common(p, budget=functor.DEFAULT_BUDGET)
    p.add_argument("--braid", default="", help="braid word, e.g. 's1 s2^-1 s1'")
    p.add_argument("--ribbon-json", default="",
                   help='closed ribbon word, e.g. \'{"mode": "directed", '
                        '"layers": [["U+"], ["Om-"]]}\'')
    p.add_argument("-r", type=_at_least(1), default=None,
                   help="strand count override")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("fft", help="centralizer dimension vs diagram span")
    common(p, budget=centralizer.DEFAULT_UNKNOWN_BUDGET)
    p.add_argument("-r", default="2", help="tensor power(s), e.g. 2 or 1,2,3")
    p.add_argument("-s", type=int, default=0, help="dual tensor factors (gl)")
    p.add_argument("--points", help="specialisation points, e.g. 7/5,13/9")
    p.add_argument("--timing", action="store_true",
                   help="include wall_clock_ms (breaks byte determinism)")
    p.set_defaults(func=cmd_fft)

    p = sub.add_parser("relations", help="verify quotient relations")
    common(p, budget=4096)
    p.add_argument("--kind", choices=("hecke", "walledbmw", "bmw", "brauer"),
                   required=True)
    p.add_argument("-r", type=_at_least(2), default=2,
                   help="strands; a relation spans two (bmw: 2 only)")
    p.add_argument("--z", help="walled loop parameter (defaults to [m-n]_q)")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("brauer", help="enumerate Brauer diagrams, optionally "
                                      "verifying the osp matrix model")
    common(p, algebra_required=False, budget=4096)
    p.add_argument("-r", type=_at_least(1), default=2)
    p.set_defaults(func=cmd_brauer)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "algebra_required", False) and not args.algebra:
            raise UsageError("an algebra spec is required, e.g. gl 2|1")
        return args.func(args)
    except QschurError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
