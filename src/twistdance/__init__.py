"""Danceability of twisted virtual knot diagrams.

Parse extended Gauss codes (classical and virtual crossings plus twist
bars), decide whether n dancers can trace the diagram in k-path routes under
the forward or matching rule with an over-first / under-first crossing
discipline, produce witness schedules, and minimize dancer counts.
"""

from .codec import LexError, SourceSpan, parse, serialize, token, trace_to_json
from .facing import (
    Facing,
    forward_rule_ok,
    matching_check,
    matching_solve,
    parity_vector,
    window_parity,
)
from .model import (
    ClassicalPass,
    CrossingSign,
    Diagram,
    DiagramError,
    DuplicateBar,
    DuplicateGap,
    DuplicateStrand,
    Event,
    SignMismatch,
    Strand,
    TwistBar,
    UnpairedCrossing,
    VirtualPass,
    paths_of,
    validate,
)
from .scheduler import (
    ORACLE_STEP_LIMIT,
    CrossingRule,
    DancePlan,
    Infeasible,
    InfeasibleReason,
    InstanceTooLarge,
    RuleKind,
    Schedule,
    Step,
    oracle_schedule,
    retrograde,
    retrograde_points,
    routes_of,
    schedule_search,
    verify_schedule,
)
from .solver import SURVEY_ROW_LIMIT, SolveReport, SurveyRow, min_dancers, survey
from .timeline import svg_timeline

__version__ = "0.1.0"

__all__ = [
    "ClassicalPass",
    "CrossingRule",
    "CrossingSign",
    "DancePlan",
    "Diagram",
    "DiagramError",
    "DuplicateBar",
    "DuplicateGap",
    "DuplicateStrand",
    "Event",
    "Facing",
    "Infeasible",
    "InfeasibleReason",
    "InstanceTooLarge",
    "LexError",
    "ORACLE_STEP_LIMIT",
    "RuleKind",
    "SURVEY_ROW_LIMIT",
    "Schedule",
    "SignMismatch",
    "SolveReport",
    "SourceSpan",
    "Step",
    "Strand",
    "SurveyRow",
    "TwistBar",
    "UnpairedCrossing",
    "VirtualPass",
    "forward_rule_ok",
    "matching_check",
    "matching_solve",
    "min_dancers",
    "oracle_schedule",
    "parity_vector",
    "parse",
    "paths_of",
    "retrograde",
    "retrograde_points",
    "routes_of",
    "schedule_search",
    "serialize",
    "survey",
    "svg_timeline",
    "token",
    "trace_to_json",
    "validate",
    "verify_schedule",
    "window_parity",
]
