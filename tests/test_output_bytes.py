"""The bytes of ``trace_to_json`` and ``svg_timeline`` are pinned.

Fixed schedules cover every token form (O/U with either sign, V, explicit
and bare T), backward start and end facings under the matching rule, seven
dancers so the SVG palette wraps, a bare schedule with no plan and the
infeasible placeholder.  A hypothesis property compares both functions with
the straightforward per-step formatting kept below as a reference: one
``json.dumps`` of a dict per step, and one f-string per SVG element.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from twistdance.codec import parse, serialize, svg_timeline, token, trace_to_json
from twistdance.facing import Facing, _bar_prefix
from twistdance.model import ClassicalPass, TwistBar, VirtualPass, validate
from twistdance.scheduler import (
    CrossingRule,
    DancePlan,
    RuleKind,
    Schedule,
    Step,
    _from_moves,
    retrograde,
    routes_of,
    schedule_search,
    verify_schedule,
)

from strategies import plan_geometries

F, B = Facing.FORWARD, Facing.BACKWARD

SIGNED = "O1- V1 U2+ T O2+ V1 U1- T5 O3- U3-"  # bare T reads as T1
TWISTED = "O1- T U1- V2 O2+ T7 V2 U2+ T"
SEVEN = "O1- U1- V1 T V1 T3 O2+ U2+ V4 V4"


def _witness(plan: DancePlan) -> Schedule:
    schedule = schedule_search(plan)
    assert isinstance(schedule, Schedule)
    assert verify_schedule(schedule) == []
    return schedule


def _schedules() -> dict[str, Schedule]:
    seven = (0, 1, 2, 4, 5, 7, 8)
    return {
        "signed forward": _witness(DancePlan(parse(SIGNED), (0, 3), 2)),
        "backward ends, matching": _witness(
            DancePlan(
                parse(TWISTED), (0, 1, 6), 2, RuleKind.MATCHING, (B, F, B),
                CrossingRule.UNDER_FIRST,
            )
        ),
        "seven dancers": _witness(
            DancePlan(
                parse(SEVEN), seven, 2, RuleKind.MATCHING, (F, F, F, B, B, F, F),
            )
        ),
        "no plan": Schedule((), True, None),
        "infeasible placeholder": Schedule(
            (), False, DancePlan(parse(TWISTED), (0, 4, 7), 3, RuleKind.MATCHING, (B, F, B))
        ),
    }


GOLDEN = {  # name -> (SHA-256 of trace_to_json, SHA-256 of svg_timeline)
    "backward ends, matching": (
        "6df6e98a0ca55926f58b42bdf905856fda2afcf25e22be9fd1f1e0e09cddc69f",
        "36ecac1a7b73c7908e0047175420b7abab7e35974b20b177da5854a198de06c0",
    ),
    "infeasible placeholder": (
        "77642f83f2028108135cb29b22b52825c24981d03d94df79852a9103cce08ca4",
        "75a28ddb4ea4bd1a6d2355c748b8a4a08c9de2c5a88b4387083ba90ca4f64989",
    ),
    "no plan": (
        "fa97169d9f1ac49bc644bf1d54ed6b6389b43fc953ad495a36d868a5457d57c9",
        "8c9ed0330664477d7ab2e366c47e4e8a67d8e1e816a39ac536edf065decff019",
    ),
    "seven dancers": (
        "0a03002837ebe8b393e5ac0d0a012d63bf2bf0a911d002eae6b4552e38dc224b",
        "ed159e425f9642bf64965479fb8d7bb74bc85c4b42e012e38ffb3e356e666b9d",
    ),
    "signed forward": (
        "fe9d38b2994c8fc70702bcff1ad23ecec7073657a1da9e86a1fe3f51f56f724b",
        "ee96ef40e34e3f197eb823efb2999d5fa10d7cf97a61e9fdc8f959412ce134a2",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name):
    schedule = _schedules()[name]
    assert (_sha(trace_to_json(schedule)), _sha(svg_timeline(schedule))) == GOLDEN[name]


def test_a_dance_request_builds_the_token_table_once(monkeypatch):
    import twistdance.codec

    calls = 0

    def counted(event):
        nonlocal calls
        calls += 1
        return token(event)

    monkeypatch.setattr(twistdance.codec, "token", counted)
    for name, schedule in _schedules().items():
        if schedule.plan is None:
            continue
        d = schedule.plan.diagram
        m = len(d.events)
        unread = hash(d), repr(d), pickle.dumps(d)
        calls = 0
        outputs = trace_to_json(schedule), svg_timeline(schedule)
        assert (_sha(outputs[0]), _sha(outputs[1])) == GOLDEN[name]
        serialize(d)
        assert calls == 0, name  # a parsed diagram holds its table from the lexed text
        assert (hash(d), repr(d), pickle.dumps(d)) == unread, name
        # a diagram built by validate builds its table once, on first read
        built = validate(d.events)
        plan = replace(schedule.plan, diagram=built)
        moves = schedule._move_columns[0]
        if moves:
            rebuilt = _from_moves(plan, routes_of(plan), moves, _bar_prefix(built))
        else:
            rebuilt = replace(schedule, plan=plan)
        outputs = trace_to_json(rebuilt), svg_timeline(rebuilt)
        assert (_sha(outputs[0]), _sha(outputs[1])) == GOLDEN[name]
        assert calls == (m if moves else 0), name  # m, not 2m
        serialize(built)
        assert calls == m, name  # kept on the diagram once read
        assert (hash(built), repr(built), pickle.dumps(built)) == unread, name
        # copies carry the events alone, and a new event sequence gets a new table
        rotated = replace(d, events=d.events[1:] + d.events[:1])
        for other, events in [
            (deepcopy(d), d.events),
            (pickle.loads(pickle.dumps(d)), d.events),
            (replace(d), d.events),
            (rotated, rotated.events),
            (retrograde(d), d.events[::-1]),
        ]:
            assert (other == d) is (events == d.events), name
            if events == d.events:
                assert (hash(other), repr(other), pickle.dumps(other)) == unread, name
            calls = 0
            assert serialize(other) == " ".join(token(ev) for ev in events), name
            assert calls == m, name


def test_the_fixed_schedules_reach_every_case():
    schedules = _schedules()
    signed = schedules["signed forward"]
    assert {type(ev) for ev in signed.plan.diagram.events} == {ClassicalPass, VirtualPass, TwistBar}
    assert {'"event":"T1"', '"event":"T5"', '"event":"U1-"'} <= set(
        trace_to_json(signed).replace("}", ",").split(",")
    )
    twisted = schedules["backward ends, matching"]
    assert twisted.plan.designated[0] is B
    assert B in {s.dancer: s.facing_after for s in twisted.steps}.values()  # last facings
    assert "stroke-dasharray" in svg_timeline(twisted)
    assert svg_timeline(schedules["seven dancers"]).count('fill="#1f77b4"') > 1


# ---------------------------------------------------------------- reference


def _ref_token(ev) -> str:
    if isinstance(ev, ClassicalPass):
        return f"{ev.strand.value}{ev.crossing_id}{ev.sign.value}"
    if isinstance(ev, VirtualPass):
        return f"V{ev.crossing_id}"
    return f"T{ev.bar_id}"


def _ref_json(schedule: Schedule) -> str:
    steps = []
    for t, step in enumerate(schedule.steps):
        ev = schedule.plan.diagram.events[step.event_index]
        steps.append(
            {
                "t": t,
                "dancer": step.dancer,
                "event_index": step.event_index,
                "event": _ref_token(ev),
                "facing": step.facing_after.name.lower(),
            }
        )
    payload: dict = {"steps": steps, "feasible": schedule.feasible}
    if schedule.plan is not None:
        plan = schedule.plan
        plan_obj: dict = {"points": list(plan.points), "k": plan.k, "rule": plan.rule.value}
        if plan.facings is not None:
            plan_obj["facings"] = [f.name.lower() for f in plan.facings]
        payload["plan"] = plan_obj
    return json.dumps(payload, separators=(",", ":"))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _ref_svg(schedule: Schedule) -> str:
    plan = schedule.plan
    lanes = plan.n if plan is not None else 0
    total = len(schedule.steps)
    width = 2 * 16 + 72 + max(total, 1) * 46
    height = 2 * 16 + lanes * 44
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    by_lane: list[list] = [[] for _ in range(lanes)]
    for t, step in enumerate(schedule.steps):
        label = _ref_token(plan.diagram.events[step.event_index]).rstrip("+-")
        by_lane[step.dancer].append((16 + 72 + t * 46 + 23, label, step.facing_after))
    for d, mine in enumerate(by_lane):
        color = _PALETTE[d % len(_PALETTE)]
        cy = 16 + d * 44 + 22
        out.append(
            f'<text x="16" y="{cy + 6}" font-family="monospace" font-size="12" '
            f'fill="{color}">dancer {d}</text>'
        )
        facing_before = plan.designated[d]
        prev_x = 16 + 72
        for x, _, facing_after in mine:
            dash = ' stroke-dasharray="6,4"' if facing_before is Facing.BACKWARD else ""
            out.append(
                f'<line x1="{prev_x}" y1="{cy}" x2="{x}" y2="{cy}" '
                f'stroke="{color}" stroke-width="2"{dash}/>'
            )
            facing_before = facing_after
            prev_x = x
        for x, label, _ in mine:
            out.append(f'<circle cx="{x}" cy="{cy}" r="4" fill="{color}"/>')
            out.append(
                f'<text x="{x}" y="{cy - 8}" text-anchor="middle" '
                f'font-family="monospace" font-size="12" fill="#333333">{label}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_reference_matches_the_golden_schedules(name):
    schedule = _schedules()[name]
    assert _ref_json(schedule) == trace_to_json(schedule)
    assert _ref_svg(schedule) == svg_timeline(schedule)


@st.composite
def plans(draw):
    """Plans of any rule on diagrams of at most 10 events."""
    diagram, points, k = draw(plan_geometries(max_events=10, n_max=7, k_max=3))
    rule = draw(st.sampled_from(RuleKind))
    facings = (
        tuple(draw(st.lists(st.sampled_from(Facing), min_size=len(points), max_size=len(points))))
        if rule is RuleKind.MATCHING else None
    )
    return DancePlan(diagram, points, k, rule, facings, draw(st.sampled_from(CrossingRule)))


@st.composite
def schedules(draw):
    """Plans of any rule, each with an arbitrary step list: any dancer id
    of the plan, any route position, any event index, any facings.  The
    constructor refuses a dancer id outside the lanes (see
    ``test_output_layers_refuse_an_event_index_outside_the_diagram``)."""
    plan = draw(plans())
    m = len(plan.diagram.events)
    step = st.builds(
        Step,
        st.integers(0, plan.n - 1),
        st.integers(0, 40),
        st.integers(0, m - 1) if m else st.nothing(),
        st.sampled_from(Facing),
    )
    steps = tuple(draw(st.lists(step, max_size=30))) if m else ()
    return Schedule(steps, draw(st.booleans()), plan)


@given(schedules())
def test_outputs_match_per_step_formatting(schedule):
    assert trace_to_json(schedule) == _ref_json(schedule)
    assert svg_timeline(schedule) == _ref_svg(schedule)


@given(schedules())
def test_witnesses_match_per_step_formatting(schedule):
    result = schedule_search(schedule.plan)
    if isinstance(result, Schedule):
        assert trace_to_json(result) == _ref_json(result)
        assert svg_timeline(result) == _ref_svg(result)


@st.composite
def constructor_inputs(draw):
    """A plan, or one time in four none, and steps whose dancers, route
    positions and event indices are any ints and whose facings are any
    facing.  Seven steps in eight have their dancer and event index drawn
    from the plan's ranges, so that schedules with several steps are
    accepted too."""
    plan = draw(plans()) if draw(st.integers(0, 3)) else None
    facing = st.sampled_from(Facing)
    loose = st.builds(Step, st.integers(), st.integers(), st.integers(), facing)
    step = loose
    if plan is not None and plan.diagram.events:
        lanes, events = st.integers(0, plan.n - 1), st.integers(0, len(plan.diagram.events) - 1)
        in_range = st.builds(Step, lanes, st.integers(), events, facing)
        step = st.integers(0, 7).flatmap(lambda i: in_range if i else loose)
    return draw(st.lists(step, max_size=12)), draw(st.booleans()), plan


@given(constructor_inputs())
def test_every_schedule_the_constructor_accepts_is_written_and_verified(inputs):
    try:
        schedule = Schedule(*inputs)
    except ValueError:
        reject()
    trace, svg = trace_to_json(schedule), svg_timeline(schedule)
    assert len(json.loads(trace)["steps"]) == svg.count("<circle ") == len(schedule.steps)
    problems = verify_schedule(schedule)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
