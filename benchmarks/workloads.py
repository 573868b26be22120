"""The timed work for one item of each workload, and its untimed checks.

``*_work`` is what a user of the library or CLI pays for one request and is
the only code inside the timed region.  ``*_check`` runs after it, outside
the timed region, and returns a list of problems (empty when the item is
correct).  Checks compare the program against the benchmark's own text-side
model (``inputs``), against the brute-force oracle, the independent verifier
and retrograde duality.  Every span is opened here, around a call to a public
``twistdance`` function; the caller puts ``./src`` on ``sys.path`` first.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from math import comb

from twistdance import (
    ORACLE_STEP_LIMIT,
    CrossingRule,
    DancePlan,
    Facing,
    Infeasible,
    InfeasibleReason,
    RuleKind,
    Schedule,
    forward_rule_ok,
    matching_check,
    matching_solve,
    min_dancers,
    oracle_schedule,
    parity_vector,
    parse,
    retrograde,
    retrograde_points,
    routes_of,
    schedule_search,
    survey,
    svg_timeline,
    trace_to_json,
    verify_schedule,
)
from twistdance.model import path_event_indices

from inputs import (
    DanceItem,
    SOLVE_K_MAX,
    SOLVE_N_MAX,
    SolveItem,
    arcs,
    forward_ok,
    least_matching_facings,
    matching_ok,
    path_parities,
)

FACING = {"F": Facing.FORWARD, "B": Facing.BACKWARD}
MIRROR = {
    CrossingRule.OVER_FIRST: CrossingRule.UNDER_FIRST,
    CrossingRule.UNDER_FIRST: CrossingRule.OVER_FIRST,
}
VERDICT_COUNTER = {
    None: "scheduler.feasible",
    InfeasibleReason.DEADLOCK: "scheduler.deadlock",
    InfeasibleReason.FACING_PARITY: "scheduler.facing_parity",
}


def _letters(facings) -> tuple[str, ...] | None:
    return None if facings is None else tuple("FB"[int(f)] for f in facings)


def _verdict(result) -> str:
    return "feasible" if isinstance(result, Schedule) else result.reason.value


# ------------------------------------------------------------ dance requests


def dance_work(item: DanceItem, tr):
    """One ``dance`` request, as the CLI serves it: parse, plan, search, then
    the JSON trace and SVG timeline (of an empty schedule when infeasible)."""
    with tr.span("codec.parse"):
        diagram = parse(item.text)
    with tr.span("model.plan"):
        facings = None if item.facings is None else tuple(FACING[f] for f in item.facings)
        plan = DancePlan(
            diagram, item.points, item.k, RuleKind(item.rule), facings, CrossingRule(item.crossing)
        )
    with tr.span("scheduler.search"):
        result = schedule_search(plan)
    if isinstance(result, Infeasible) and result.reason is InfeasibleReason.DEADLOCK:
        tr.add_time("scheduler.deadlock_search", tr.last_ns())
    schedule = result if isinstance(result, Schedule) else Schedule((), False, plan)
    with tr.span("codec.json"):
        trace = trace_to_json(schedule)
    with tr.span("timeline.svg"):
        svg = svg_timeline(schedule)
    return plan, result, schedule, trace, svg


def dance_check(item: DanceItem, out, tr, digest) -> list[str]:
    plan, result, schedule, trace, svg = out
    problems: list[str] = []
    tokens = item.text.split()
    verdict = _verdict(result)
    tr.count(VERDICT_COUNTER[getattr(result, "reason", None)])
    expected = "feasible" if item.expect_feasible else "Deadlock"
    if verdict != expected:
        problems.append(f"verdict {verdict}, expected {expected}")

    problems += _check_layers(item, plan, tr)
    if isinstance(result, Schedule):
        tr.count("scheduler.witness_steps", len(result.steps))
        with tr.span("scheduler.verify"):
            problems += verify_schedule(result)
    elif result.reason is InfeasibleReason.DEADLOCK:
        tr.count("scheduler.deadlock_states", result.states_explored)
        if result.states_explored > 10**item.cap_log10 + 0.5:
            problems.append(f"{result.states_explored} states exceed the position-vector space")
    if item.k * len(tokens) <= ORACLE_STEP_LIMIT:
        problems += _check_oracle(plan, result, tr)
    if not item.expect_feasible:  # deadlock-tail
        problems += _check_retrograde(plan, verdict, tr)

    problems += _check_trace(trace, schedule, tokens)
    problems += _check_svg(svg, schedule)
    tr.count("codec.json_bytes", len(trace))
    tr.count("timeline.svg_bytes", len(svg))
    digest.update(f"{verdict}\n{trace}\n{svg}".encode())
    return problems


def _check_layers(item: DanceItem, plan: DancePlan, tr) -> list[str]:
    """Paths, routes, the facing gate and matching facings, each against the
    benchmark's own computation from the text."""
    problems = []
    m, n, k = len(item.text.split()), len(item.points), item.k
    own_arcs = [tuple(j % m for j in arc) for arc in arcs(m, item.points)]
    with tr.span("model.paths"):
        paths = path_event_indices(plan.diagram, plan.points)
    if [tuple(p) for p in paths] != own_arcs:
        problems.append("path_event_indices disagrees with the text")
    with tr.span("scheduler.routes"):
        routes = routes_of(plan)
    own_routes = [sum((own_arcs[(i + lap) % n] for lap in range(k)), ()) for i in range(n)]
    if [tuple(r) for r in routes] != own_routes:
        problems.append("routes_of disagrees with the text")
    own_t = path_parities(item.text, item.points)
    with tr.span("facing.gate"):
        t = parity_vector(plan.diagram, plan.points)
        if plan.rule is RuleKind.FORWARD:
            gate = forward_rule_ok(t, k)
        else:
            gate = matching_check(t, plan.facings, k)
    if not gate:
        tr.count("facing.gate_rejects")
    own_gate = forward_ok(own_t, k) if item.rule == "forward" else matching_ok(own_t, item.facings, k)
    if list(t) != own_t or gate != own_gate:
        problems.append("facing gate disagrees with the text")
    if item.rule == "matching":
        with tr.span("facing.matching_solve"):
            solved = matching_solve(t, k)
        if _letters(solved) != item.facings:
            problems.append("matching_solve disagrees with the text")
    return problems


def _check_oracle(plan: DancePlan, result, tr) -> list[str]:
    with tr.span("scheduler.oracle"):
        oracle = oracle_schedule(plan)
    if _verdict(oracle) != _verdict(result):
        return [f"oracle says {_verdict(oracle)}, search says {_verdict(result)}"]
    if isinstance(result, Schedule) and oracle.steps != result.steps:
        return ["oracle and search disagree on the lex-least witness"]
    return []


def _check_retrograde(plan: DancePlan, verdict: str, tr) -> list[str]:
    """Over-first on D must agree with under-first on retrograde(D), and the
    other way round.  A matching-rule facing designates a point, so it moves
    with the point to (m - p) mod m."""
    m = len(plan.diagram.events)
    points = retrograde_points(plan.diagram, plan.points)
    facings = None
    if plan.facings is not None:
        at = dict(zip(plan.points, plan.facings))
        facings = tuple(at[(m - q) % m] for q in points)
    mirror = DancePlan(
        retrograde(plan.diagram), points, plan.k, plan.rule, facings, MIRROR[plan.crossing_rule]
    )
    with tr.span("scheduler.retrograde"):
        dual = _verdict(schedule_search(mirror))
    return [] if dual == verdict else [f"retrograde dual says {dual}, search says {verdict}"]


def _check_trace(trace: str, schedule: Schedule, tokens: list[str]) -> list[str]:
    """The JSON trace must spell out exactly the schedule, with event tokens
    taken from the input text."""
    want: dict = {
        "steps": [
            {
                "t": t,
                "dancer": s.dancer,
                "event_index": s.event_index,
                "event": tokens[s.event_index],
                "facing": ("forward", "backward")[int(s.facing_after)],
            }
            for t, s in enumerate(schedule.steps)
        ],
        "feasible": schedule.feasible,
    }
    plan = schedule.plan
    if plan is not None:
        want["plan"] = {"points": list(plan.points), "k": plan.k, "rule": plan.rule.value}
        if plan.facings is not None:
            want["plan"]["facings"] = [("forward", "backward")[int(f)] for f in plan.facings]
    return [] if json.loads(trace) == want else ["JSON trace does not match the schedule"]


def _check_svg(svg: str, schedule: Schedule) -> list[str]:
    ok = (
        svg.startswith('<?xml version="1.0"')
        and svg.endswith("</svg>\n")
        and svg.count("<circle ") == len(schedule.steps)
        and svg.count(">dancer ") == schedule.plan.n
    )
    return [] if ok else ["SVG timeline does not match the schedule"]


# ------------------------------------------------------------ solve requests


def solve_work(item: SolveItem, tr):
    """One ``solve`` request: least (n, k, placement) under the forward and
    the matching rule, every facing assignment at one (n, k), and the JSON
    traces of both minima (an empty trace when the bounds are exhausted)."""
    with tr.span("codec.parse"):
        diagram = parse(item.text)
    crossing = CrossingRule(item.crossing)
    reports = []
    for rule in (RuleKind.FORWARD, RuleKind.MATCHING):
        with tr.span("solver.min_dancers"):
            reports.append(min_dancers(diagram, rule, crossing, k_max=SOLVE_K_MAX, n_max=SOLVE_N_MAX))
    with tr.span("solver.survey"):
        rows = survey(
            diagram, RuleKind.MATCHING, crossing, item.survey_n, item.survey_k, enumerate_facings=True
        )
    with tr.span("codec.json"):
        traces = [
            trace_to_json(r.schedule if r.feasible else Schedule((), False, None)) for r in reports
        ]
    return diagram, reports, rows, traces


def solve_check(item: SolveItem, out, tr, digest) -> list[str]:
    diagram, reports, rows, traces = out
    problems: list[str] = []
    tokens = item.text.split()
    m = len(tokens)
    for report, trace in zip(reports, traces):
        tr.count("solver.placements_tried", report.placements_tried)
        tr.count("codec.json_bytes", len(trace))
        digest.update(f"{report.placements_tried}\n{trace}\n".encode())
        if not report.feasible:
            exhausted = SOLVE_K_MAX * sum(comb(m, n) for n in range(1, SOLVE_N_MAX + 1))
            if report.placements_tried != exhausted:
                problems.append(f"exhausted after {report.placements_tried} placements, not {exhausted}")
            if json.loads(trace) != {"steps": [], "feasible": False}:
                problems.append("JSON trace of an exhausted search is not empty")
            continue
        plan, schedule = report.plan, report.schedule
        tr.count("scheduler.witness_steps", len(schedule.steps))
        if not (plan.n <= SOLVE_N_MAX and plan.k <= SOLVE_K_MAX):
            problems.append("minimum outside the bounds")
        if plan.facings is not None:
            own = least_matching_facings(path_parities(item.text, plan.points), plan.k)
            if _letters(plan.facings) != own:
                problems.append("minimum's facings are not the least matching facings")
        with tr.span("scheduler.verify"):
            problems += verify_schedule(schedule)
        if plan.k * m <= ORACLE_STEP_LIMIT:
            problems += _check_oracle(plan, schedule, tr)
        problems += _check_trace(trace, schedule, tokens)
    problems += _check_survey(item, diagram, rows, tr, digest)
    return problems


def _check_survey(item: SolveItem, diagram, rows, tr, digest) -> list[str]:
    """Rows come in placement-then-facings order; each row's facing verdict
    matches the benchmark's own parity check, and every row that passes it
    within the oracle's guard matches the oracle's verdict."""
    problems: list[str] = []
    n, k, m = item.survey_n, item.survey_k, len(item.text.split())
    crossing = CrossingRule(item.crossing)
    expected = [
        (placement, facings)
        for placement in combinations(range(m), n)
        for facings in product("FB", repeat=n)
    ]
    tr.count("solver.survey_rows", len(rows))
    if len(rows) != len(expected):
        return [f"{len(rows)} survey rows, expected {len(expected)}"]
    own_t = None
    for row, (placement, facings) in zip(rows, expected):
        reason = row.reason.value if row.reason else "feasible"
        tr.count(VERDICT_COUNTER[row.reason])
        if row.reason is InfeasibleReason.FACING_PARITY:
            tr.count("solver.parity_rejected")
        digest.update(f"{placement}{facings}{reason}\n".encode())
        if row.placement != placement or _letters(row.facings) != facings:
            problems.append(f"survey row {row.placement} out of order")
            continue
        if facings == ("F",) * n:  # first row of each placement
            own_t = path_parities(item.text, placement)
            own_arcs = [tuple(j % m for j in arc) for arc in arcs(m, placement)]
            with tr.span("model.paths"):
                paths = path_event_indices(diagram, placement)
            if [tuple(p) for p in paths] != own_arcs:
                problems.append(f"path_event_indices disagrees at {placement}")
            with tr.span("facing.matching_solve"):
                solved = matching_solve(parity_vector(diagram, placement), k)
            if _letters(solved) != least_matching_facings(own_t, k):
                problems.append(f"matching_solve disagrees at {placement}")
        own_gate = matching_ok(own_t, facings, k)
        if (row.reason is InfeasibleReason.FACING_PARITY) != (not own_gate):
            problems.append(f"facing verdict disagrees at {placement} {facings}")
        # parity refusals are already checked against the text just above
        oracle_due = own_gate and k * m <= ORACLE_STEP_LIMIT
        if not (tr.enabled or oracle_due):
            continue
        with tr.span("model.plan"):
            plan = DancePlan(
                diagram, placement, k, RuleKind.MATCHING, tuple(FACING[f] for f in facings), crossing
            )
        if tr.enabled:  # time the gate the survey ran inside schedule_search
            with tr.span("facing.gate"):
                gate = matching_check(parity_vector(diagram, placement), plan.facings, k)
            if not gate:
                tr.count("facing.gate_rejects")
            if gate != own_gate:
                problems.append(f"facing gate disagrees at {placement} {facings}")
        if oracle_due:
            with tr.span("scheduler.oracle"):
                oracle = _verdict(oracle_schedule(plan))
            if oracle != reason:
                problems.append(f"oracle says {oracle}, survey says {reason} at {placement} {facings}")
    return problems
