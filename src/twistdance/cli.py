"""Command-line surface: validate diagrams, run dance plans, solve minima.

The CLI is a thin shell over the library: parsing and formatting only.
Exit codes: 0 feasible/valid, 1 infeasible/invalid/exhausted, 2 usage or
I/O error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .codec import LexError, parse, serialize, trace_to_json
from .facing import Facing
from .model import Diagram, DiagramError
from .scheduler import (
    CrossingRule,
    DancePlan,
    Infeasible,
    RuleKind,
    Schedule,
    schedule_search,
)
from .solver import min_dancers
from .timeline import svg_timeline

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistdance",
        description="Danceability of twisted virtual knot diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a Gauss code and print its canonical form")
    p_validate.add_argument("diagram", nargs="?", default=None, help="diagram string")
    p_validate.add_argument("--file", default=None, help="read the diagram from a file")
    p_validate.set_defaults(func=cmd_validate)

    p_dance = sub.add_parser("dance", help="decide one dance plan and optionally dump its trace")
    _plan_flags(p_dance)
    p_dance.add_argument("--points", required=True, help="comma-separated gap indices, e.g. 0,3")
    p_dance.add_argument("--k", type=int, required=True, help="paths each dancer traverses")
    p_dance.add_argument("--facings", default=None, help="comma-separated F/B per point (matching rule)")
    p_dance.add_argument("--json", default=None, metavar="PATH", help="write the JSON trace here")
    p_dance.add_argument("--svg", default=None, metavar="PATH", help="write an SVG timeline here")
    p_dance.set_defaults(func=cmd_dance)

    p_solve = sub.add_parser("solve", help="minimal dancers (then laps) for a diagram")
    _plan_flags(p_solve)
    p_solve.add_argument("--max-n", type=int, required=True, help="largest dancer count to try")
    p_solve.add_argument("--max-k", type=int, required=True, help="largest lap count to try")
    p_solve.add_argument("--json", default=None, metavar="PATH", help="write the winning trace here")
    p_solve.set_defaults(func=cmd_solve)
    return parser


def _plan_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--diagram", help="diagram string")
    group.add_argument("--file", help="read the diagram from a file")
    sub.add_argument("--rule", choices=[r.value for r in RuleKind], default=RuleKind.FORWARD.value)
    sub.add_argument(
        "--crossing",
        choices=[c.value for c in CrossingRule],
        default=CrossingRule.OVER_FIRST.value,
    )


def _read_text(args: argparse.Namespace) -> str:
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    return args.diagram


def _format_error(err: Exception) -> str:
    span = getattr(err, "span", None)
    where = f" at bytes {span.byte_start}..{span.byte_end}" if span is not None else ""
    return f"{type(err).__name__}{where}: {err}"


def _load_diagram(args: argparse.Namespace, parser_exit_usage: bool) -> Diagram:
    """Parse the diagram input; raises _CliExit with the proper code."""
    try:
        text = _read_text(args)
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        raise _CliExit(2)
    try:
        return parse(text)
    except (LexError, DiagramError) as err:
        print(_format_error(err), file=sys.stderr)
        raise _CliExit(2 if parser_exit_usage else 1)


class _CliExit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


def cmd_validate(args: argparse.Namespace) -> int:
    if args.diagram is not None and args.file is not None:
        raise _CliExit(_usage("give a diagram string or --file, not both"))
    if args.diagram is None and args.file is None:
        raise _CliExit(_usage("nothing to validate: pass a diagram string or --file"))
    diagram = _load_diagram(args, parser_exit_usage=False)
    print(serialize(diagram))
    return 0


def _parse_points(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise _CliExit(_usage(f"bad --points value {text!r}"))


def _parse_facings(text: str) -> tuple[Facing, ...]:
    try:
        return tuple(Facing.from_letter(part) for part in text.split(",") if part.strip() != "")
    except ValueError as err:
        raise _CliExit(_usage(str(err)))


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        raise _CliExit(2)


def cmd_dance(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args, parser_exit_usage=True)
    points = _parse_points(args.points)
    facings = _parse_facings(args.facings) if args.facings is not None else None
    try:
        plan = DancePlan(
            diagram, points, args.k, RuleKind(args.rule), facings, CrossingRule(args.crossing)
        )
    except ValueError as err:
        raise _CliExit(_usage(str(err)))

    result = schedule_search(plan)
    if isinstance(result, Infeasible):
        print(f"INFEASIBLE({result.reason.value})")
        schedule = Schedule((), False, plan)
        code = 1
    else:
        print("FEASIBLE")
        schedule = result
        code = 0
    if args.json:
        _write(args.json, trace_to_json(schedule) + "\n")
    if args.svg:
        _write(args.svg, svg_timeline(schedule))
    return code


def cmd_solve(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args, parser_exit_usage=True)
    try:
        report = min_dancers(
            diagram,
            RuleKind(args.rule),
            CrossingRule(args.crossing),
            k_max=args.max_k,
            n_max=args.max_n,
        )
    except ValueError as err:
        raise _CliExit(_usage(str(err)))
    if not report.feasible:
        print(
            f"EXHAUSTED (n={report.n_searched[0]}..{report.n_searched[1]}, "
            f"k={report.k_searched[0]}..{report.k_searched[1]}, "
            f"{report.placements_tried} placements tried)"
        )
        if args.json:
            _write(args.json, trace_to_json(Schedule((), False, None)) + "\n")
        return 1
    plan = report.plan
    line = (
        f"n={plan.n} k={plan.k} points={','.join(str(p) for p in plan.points)}"
    )
    if plan.facings is not None:
        line += f" facings={','.join(f.letter for f in plan.facings)}"
    print(line)
    if args.json:
        _write(args.json, trace_to_json(report.schedule) + "\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliExit as stop:
        return stop.code


if __name__ == "__main__":
    sys.exit(main())
