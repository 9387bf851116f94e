"""Command line front end.

Three subcommands cover the library surface: `center` prints the
canonical invariant and weighted center of an ideal at a point,
`principalize` runs iterated weighted blowups until the weighted
transform is trivial at every studied rational point, and `resolve`
does the same with strict transforms of a hypersurface.

Input comes either from flags (--vars, --gens, --point) or from a JSON
file with fields variables, generators, point and max_steps.  Exit
codes: 0 on success, 2 on input errors, 3 when the step budget ran out
before the run finished, 4 when the input is valid but outside what the
construction supports (a contact element without coordinate graph form),
5 when an internal check failed (a center that does not dominate its
ideal, or a blowup after which the invariant does not drop).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .arith import VARIABLE_NAME, ParseError, VariableMismatchError, parse_polynomial
from .canonical import InadmissibleCenterError, canonical_center
from .center import TriangularizationError, format_rational
from .driver import DescentError, embedded_resolve, principalize
from .ideals import LocalIdeal


class InputError(Exception):
    pass


def format_invariant(invariant) -> str:
    return "(" + ", ".join(format_rational(d) for d in invariant) + ")"


def _parse_point(text_or_list, dim: int) -> Tuple[Fraction, ...]:
    if isinstance(text_or_list, str):
        parts = [p.strip() for p in text_or_list.split(",")]
    elif isinstance(text_or_list, list):
        parts = text_or_list
    else:
        raise InputError("point must be a string or a list of coordinates")
    try:
        point = tuple(Fraction(str(p)) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad point: {exc}") from exc
    if len(point) != dim:
        raise InputError(
            f"point has {len(point)} coordinates, the ring has {dim}"
        )
    return point


def _string_list(data: dict, field: str) -> Optional[list]:
    value = data.get(field)
    if value is not None and not (
        isinstance(value, list) and all(isinstance(v, str) for v in value)
    ):
        raise InputError(f"{field} must be a list of strings")
    return value


def _load_problem(args) -> Tuple[LocalIdeal, Optional[Tuple[Fraction, ...]], int]:
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.input} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"{args.input} does not hold a JSON object")
        mode = data.get("mode")
        if mode is not None and mode != args.command:
            raise InputError(
                f"input file is for mode {mode!r}, not {args.command!r}"
            )
        variables = _string_list(data, "variables")
        generators = _string_list(data, "generators")
        raw_point = data.get("point")
        max_steps = data.get("max_steps", args.max_steps)
    else:
        variables = args.vars.split(",") if args.vars else None
        generators = args.gens
        raw_point = args.point
        max_steps = args.max_steps

    if not variables:
        raise InputError("no variables given (use --vars or an input file)")
    variables = tuple(v.strip() for v in variables)
    for name in variables:
        if not re.fullmatch(VARIABLE_NAME, name):
            raise InputError(f"bad variable name {name!r}")
    if not generators:
        raise InputError("no generators given (use --gens or an input file)")
    try:
        polys = [parse_polynomial(g, variables) for g in generators]
    except (ParseError, VariableMismatchError) as exc:
        raise InputError(str(exc)) from exc
    ideal = LocalIdeal(variables, polys)
    point = None
    if raw_point is not None:
        point = _parse_point(raw_point, len(variables))
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 0:
        raise InputError("max_steps must be a non negative integer")
    return ideal, point, max_steps


def _write_json(path: Optional[str], payload: dict) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_center(args) -> int:
    ideal, point, _ = _load_problem(args)
    if point is not None:
        ideal = ideal.translate(point)
    result = canonical_center(ideal)
    print("invariant:", format_invariant(result.invariant))
    if result.center is None:
        print("center: none")
        payload_center = None
    else:
        print("center:", repr(result.center))
        payload_center = [
            [str(p), format_rational(d)] for p, d in result.center.parameters()
        ]
    _write_json(
        args.json,
        {
            "variables": list(ideal.variables),
            "generators": [str(g) for g in ideal.generators],
            "invariant": [format_rational(d) for d in result.invariant],
            "center": payload_center,
        },
    )
    return 0


def _trace(tree) -> None:
    for n in tree.nodes.values():
        where = f" [chart {n.chart_variable}]" if n.chart_variable else ""
        point = "(" + ", ".join(format_rational(c) for c in n.point) + ")"
        print(
            f"{n.id}{where} at {point}: "
            f"invariant {format_invariant(n.invariant)} -> {n.status}"
        )


def _cmd_tree(args, runner) -> int:
    ideal, point, max_steps = _load_problem(args)
    tree = runner(ideal, point, max_steps)
    if args.trace:
        _trace(tree)
    print("status:", tree.status)
    print("blowups:", tree.steps)
    print("studied points:", len(tree.nodes))
    _write_json(args.json, tree.report())
    return 3 if tree.status == "exhausted" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wblow",
        description="canonical weighted centers and principalization over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("center", "print the canonical invariant and weighted center"),
        ("principalize", "blow up until the weighted transform is trivial"),
        ("resolve", "blow up until the strict transform is smooth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="JSON problem description")
        p.add_argument("--vars", help="comma separated variable names")
        p.add_argument(
            "--gens",
            action="append",
            help="generator polynomial, repeat for several",
        )
        p.add_argument("--point", help="comma separated rational coordinates")
        p.add_argument("--max-steps", type=int, default=64)
        p.add_argument("--json", help="write a JSON report to this file")
        p.add_argument(
            "--trace", action="store_true", help="print one line per node"
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "center":
            return _cmd_center(args)
        if args.command == "principalize":
            return _cmd_tree(args, principalize)
        return _cmd_tree(args, embedded_resolve)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TriangularizationError as exc:
        print(f"error: unsupported input: {exc}", file=sys.stderr)
        return 4
    except (DescentError, InadmissibleCenterError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
