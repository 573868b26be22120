"""Command-line surface: validate diagrams, run dance plans, solve minima.

The CLI is a thin shell over the library: parsing and formatting only.
Exit codes: 0 feasible/valid, 1 infeasible/invalid/exhausted, 2 usage or
I/O error.  A command that fails raises ``_CliExit(code, line)`` where it
fails, after whatever it has already printed to stdout; ``main`` alone
prints that one line to stderr and returns the code.  The line is
``usage error: ...``, ``error: ...`` (a file that cannot be read or
written, the empty path included) or ``<ErrorClass> at bytes a..b: ...``
(a diagram that does not parse).  A flag that argparse refuses (missing,
unknown or of the wrong type) stops before any command runs, with
argparse's usage text on stderr, and ``main`` returns its exit code, 2
(0 for ``--help``), so ``main(argv)`` never raises ``SystemExit``.

``dance`` writes ``--json`` before ``--svg``, and the first write that
fails stops the command: with ``--json ok.json --svg missing/x.svg`` a
complete ``ok.json`` is left behind and the exit code is 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .codec import LexError, parse, serialize, svg_timeline, trace_to_json
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
    p_dance.add_argument("--k", type=_count, required=True, help="paths each dancer traverses")
    p_dance.add_argument("--facings", default=None, help="comma-separated F/B per point (matching rule)")
    p_dance.add_argument("--json", default=None, metavar="PATH", help="write the JSON trace here")
    p_dance.add_argument("--svg", default=None, metavar="PATH", help="write an SVG timeline here")
    p_dance.set_defaults(func=cmd_dance)

    p_solve = sub.add_parser("solve", help="minimal dancers (then laps) for a diagram")
    _plan_flags(p_solve)
    p_solve.add_argument("--max-n", type=_count, required=True, help="largest dancer count to try")
    p_solve.add_argument("--max-k", type=_count, required=True, help="largest lap count to try")
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


def _count(text: str) -> int:
    """A count flag's value or one ``--points`` index: ASCII digits only,
    since ``int`` also reads signs, underscores, surrounding space and
    every Unicode digit (``int("1_0")`` is 10, ``int("\u0662")`` is 2)."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # more digits than the interpreter's int-string limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _CliExit(Exception):
    """``_CliExit(code, line)`` stops a command: ``main`` prints ``line`` to
    stderr and returns ``code``."""


def _usage(message: str) -> _CliExit:
    return _CliExit(2, f"usage error: {message}")


def _load_diagram(args: argparse.Namespace, invalid_code: int) -> Diagram:
    """Parse the diagram input; an invalid diagram exits with ``invalid_code``."""
    text = args.diagram
    try:
        if args.file is not None:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _CliExit(2, f"error: {err}")
    try:
        return parse(text)
    except (LexError, DiagramError) as err:
        where = f"bytes {err.span.byte_start}..{err.span.byte_end}"
        raise _CliExit(invalid_code, f"{type(err).__name__} at {where}: {err}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise _CliExit(2, f"error: {err}")


def cmd_validate(args: argparse.Namespace) -> int:
    if args.diagram is not None and args.file is not None:
        raise _usage("give a diagram string or --file, not both")
    if args.diagram is None and args.file is None:
        raise _usage("nothing to validate: pass a diagram string or --file")
    print(serialize(_load_diagram(args, invalid_code=1)))
    return 0


def cmd_dance(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args, invalid_code=2)
    try:
        points = tuple(_count(part.strip()) for part in args.points.split(",") if part.strip() != "")
    except argparse.ArgumentTypeError:
        raise _usage(f"bad --points value {args.points!r}")
    try:
        facings = None
        if args.facings is not None:
            facings = tuple(
                Facing.from_letter(part) for part in args.facings.split(",") if part.strip() != ""
            )
        plan = DancePlan(
            diagram, points, args.k, RuleKind(args.rule), facings, CrossingRule(args.crossing)
        )
    except ValueError as err:
        raise _usage(str(err))

    schedule = schedule_search(plan)
    if isinstance(schedule, Infeasible):
        print(f"INFEASIBLE({schedule.reason.value})")
        schedule = Schedule((), False, plan)
    else:
        print("FEASIBLE")
    if args.json is not None:
        _write(args.json, trace_to_json(schedule) + "\n")
    if args.svg is not None:
        _write(args.svg, svg_timeline(schedule))
    return 0 if schedule.feasible else 1


def cmd_solve(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args, invalid_code=2)
    try:
        report = min_dancers(
            diagram,
            RuleKind(args.rule),
            CrossingRule(args.crossing),
            k_max=args.max_k,
            n_max=args.max_n,
        )
    except ValueError as err:
        raise _usage(str(err))
    if report.feasible:
        plan = report.plan
        line = f"n={plan.n} k={plan.k} points={','.join(str(p) for p in plan.points)}"
        if plan.facings is not None:
            line += f" facings={','.join(f.letter for f in plan.facings)}"
        print(line)
    else:
        print(
            f"EXHAUSTED (n={report.n_searched[0]}..{report.n_searched[1]}, "
            f"k={report.k_searched[0]}..{report.k_searched[1]}, "
            f"{report.placements_tried} placements tried)"
        )
    if args.json is not None:
        schedule = report.schedule if report.feasible else Schedule((), False, None)
        _write(args.json, trace_to_json(schedule) + "\n")
    return 0 if report.feasible else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # argparse has printed its usage text, or the help
        return stop.code
    try:
        return args.func(args)
    except _CliExit as stop:
        code, line = stop.args
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
