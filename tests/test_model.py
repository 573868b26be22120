from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistdance.model import (
    ClassicalPass,
    CrossingSign,
    Diagram,
    DiagramError,
    DuplicateBar,
    DuplicateGap,
    DuplicateStrand,
    SignMismatch,
    Strand,
    TwistBar,
    UnpairedCrossing,
    VirtualPass,
    check_points,
    path_event_indices,
    paths_of,
    validate,
)
from twistdance.facing import parity_vector
from twistdance.codec import serialize
from twistdance.scheduler import CrossingRule, DancePlan, RuleKind, retrograde, retrograde_points
from twistdance.solver import min_dancers, survey

from strategies import arbitrary_events, diagrams, plan_geometries

O = Strand.OVER
U = Strand.UNDER
POS = CrossingSign.POSITIVE
NEG = CrossingSign.NEGATIVE

TREFOIL = [
    ClassicalPass(1, O, POS),
    ClassicalPass(2, U, POS),
    ClassicalPass(3, O, POS),
    ClassicalPass(1, U, POS),
    ClassicalPass(2, O, POS),
    ClassicalPass(3, U, POS),
]


def test_trefoil_validates():
    d = validate(TREFOIL)
    assert d.events == tuple(TREFOIL)
    assert d.gap_count == 6


def test_empty_diagram_is_the_unknot():
    d = validate([])
    assert d.events == ()
    assert d.gap_count == 1


def test_duplicate_strand():
    with pytest.raises(DuplicateStrand) as exc:
        validate([ClassicalPass(1, O, POS), ClassicalPass(1, O, POS)])
    assert exc.value.event_index == 1


def test_sign_mismatch():
    with pytest.raises(SignMismatch) as exc:
        validate([ClassicalPass(1, O, POS), ClassicalPass(1, U, NEG)])
    assert exc.value.event_index == 1


def test_unpaired_classical():
    with pytest.raises(UnpairedCrossing) as exc:
        validate([ClassicalPass(1, O, POS)])
    assert exc.value.event_index == 0


def test_unpaired_virtual_once_and_thrice():
    with pytest.raises(UnpairedCrossing):
        validate([VirtualPass(1)])
    with pytest.raises(UnpairedCrossing) as exc:
        validate([VirtualPass(1)] * 3)
    assert exc.value.event_index == 2


def test_duplicate_bar():
    with pytest.raises(DuplicateBar) as exc:
        validate([TwistBar(1), TwistBar(1)])
    assert exc.value.event_index == 1


def test_check_order_strand_duplication_first():
    # both a strand duplication and a bar duplication present
    events = [ClassicalPass(1, O, POS), ClassicalPass(1, O, POS), TwistBar(2), TwistBar(2)]
    with pytest.raises(DuplicateStrand):
        validate(events)


def test_virtual_and_classical_ids_are_separate_namespaces():
    d = validate(
        [ClassicalPass(1, O, POS), VirtualPass(1), VirtualPass(1), ClassicalPass(1, U, POS)]
    )
    assert len(d.events) == 4


@pytest.mark.parametrize(
    "events, at",
    [
        ([1, "x"], 0),
        ([None], 0),
        ([ClassicalPass(1, U, POS), ClassicalPass(True, O, POS)], 1),
        ([VirtualPass(True), VirtualPass(1)], 0),
        ([TwistBar(0)], 0),
        ([VirtualPass(-1), VirtualPass(-1)], 0),
        ([TwistBar(1.0)], 0),
        ([ClassicalPass(1, "O"), ClassicalPass(1, U)], 0),
        ([ClassicalPass(1, O), ClassicalPass(1, U, "+")], 1),
        # malformed outranks an earlier structural failure
        ([ClassicalPass(1, O, POS), ClassicalPass(1, O, POS), TwistBar(0)], 2),
        (None, None),  # not an iterable, which raised TypeError
        (3, None),
    ],
)
def test_malformed_events_are_refused_first_with_the_base_class(events, at):
    with pytest.raises(DiagramError) as exc:
        validate(events)
    assert type(exc.value) is DiagramError
    assert exc.value.event_index == at


def test_paths_of_trefoil_two_points():
    d = validate(TREFOIL)
    a, b = paths_of(d, (0, 3))
    assert a == tuple(TREFOIL[:3])
    assert b == tuple(TREFOIL[3:])


def test_paths_of_single_point_is_whole_code():
    d = validate(TREFOIL)
    (whole,) = paths_of(d, (0,))
    assert whole == d.events


def test_paths_of_rotated_start():
    d = validate(TREFOIL)
    a, b = paths_of(d, (3, 0))
    assert a == tuple(TREFOIL[3:])
    assert b == tuple(TREFOIL[:3])


def test_paths_of_bar_trefoil():
    events = TREFOIL[:3] + [TwistBar(1)] + TREFOIL[3:]
    d = validate(events)
    a, b = paths_of(d, (0, 4))
    assert a == tuple(events[:4])
    assert b == tuple(events[4:])


def test_paths_of_empty_diagram():
    d = validate([])
    assert paths_of(d, (0,)) == [()]


def test_duplicate_gap_rejected():
    d = validate(TREFOIL)
    with pytest.raises(DuplicateGap):
        paths_of(d, (2, 2))


def test_gap_out_of_range_rejected():
    d = validate(TREFOIL)
    with pytest.raises(ValueError):
        paths_of(d, (0, 6))


def test_points_must_be_cyclically_ordered():
    d = validate(TREFOIL)
    with pytest.raises(ValueError):
        check_points(d, (0, 4, 2))
    # a rotation is in cyclic order
    assert check_points(d, (4, 5, 2)) == (4, 5, 2)


def test_points_must_be_ints():
    d = validate(TREFOIL)
    for points in ((0.0,), ("1",), (True,), (0, None), 5, None):
        with pytest.raises(ValueError, match="gap index"):
            check_points(d, points)
        with pytest.raises(ValueError, match="gap index"):
            DancePlan(d, points, 1)


@pytest.mark.parametrize("diagram", ["O1+ U1+", None], ids=["str", "None"])
@pytest.mark.parametrize(
    "call",
    [
        lambda d: DancePlan(d, (0,), 1),
        lambda d: min_dancers(d, k_max=1, n_max=1),
        lambda d: survey(d, RuleKind.FORWARD, CrossingRule.OVER_FIRST, 1, 1),
        lambda d: paths_of(d, (0,)),
        lambda d: path_event_indices(d, (0,)),
        lambda d: parity_vector(d, (0,)),
        lambda d: retrograde_points(d, (0,)),
    ],
    ids=[
        "DancePlan", "min_dancers", "survey", "paths_of", "path_event_indices",
        "parity_vector", "retrograde_points",
    ],
)
def test_a_diagram_that_is_not_a_diagram_is_refused(call, diagram):
    with pytest.raises(ValueError, match="diagram must be a Diagram"):
        call(diagram)


@pytest.mark.parametrize("diagram", ["O1+ U1+", None], ids=["str", "None"])
@pytest.mark.parametrize("call", [retrograde, serialize], ids=["retrograde", "serialize"])
def test_retrograde_and_serialize_refuse_a_diagram_that_is_not_a_diagram(call, diagram):
    with pytest.raises(ValueError, match="diagram must be a Diagram"):
        call(diagram)


def test_no_points_rejected():
    with pytest.raises(ValueError):
        paths_of(validate(TREFOIL), ())


@given(plan_geometries(k_max=1))
def test_concatenating_paths_reproduces_the_cycle(geometry):
    d, points, _ = geometry
    m = len(d.events)
    joined = [ev for path in paths_of(d, points) for ev in path]
    start = points[0] if m else 0
    expected = [d.events[(start + j) % m] for j in range(m)]
    assert joined == expected


@given(diagrams())
def test_validate_idempotent(d):
    assert validate(d.events) == d


@given(arbitrary_events())
def test_validation_is_total(events):
    try:
        d = validate(events)
    except DiagramError as err:
        assert err.event_index is not None
        assert 0 <= err.event_index < len(events)
    else:
        assert isinstance(d, Diagram)
        assert d.events == tuple(events)


def _four_pass_validate(events):
    """The checks one at a time, each over the whole sequence, in the
    documented order: the reference the one-pass ``validate`` must match."""
    evs = tuple(events)
    seen_strand = set()
    for i, ev in enumerate(evs):
        if isinstance(ev, ClassicalPass):
            if (ev.crossing_id, ev.strand) in seen_strand:
                raise DuplicateStrand(
                    f"crossing {ev.crossing_id} passed twice on the "
                    f"{ev.strand.name.lower()} strand",
                    i,
                )
            seen_strand.add((ev.crossing_id, ev.strand))
    classical, virtual = {}, {}
    for i, ev in enumerate(evs):
        if isinstance(ev, ClassicalPass):
            classical[ev.crossing_id] = classical.get(ev.crossing_id, 0) + 1
        elif isinstance(ev, VirtualPass):
            virtual[ev.crossing_id] = virtual.get(ev.crossing_id, 0) + 1
            if virtual[ev.crossing_id] > 2:
                raise UnpairedCrossing(
                    f"virtual crossing {ev.crossing_id} appears more than twice", i
                )
    for i, ev in enumerate(evs):
        if isinstance(ev, ClassicalPass) and classical[ev.crossing_id] != 2:
            raise UnpairedCrossing(f"classical crossing {ev.crossing_id} appears only once", i)
        if isinstance(ev, VirtualPass) and virtual[ev.crossing_id] != 2:
            raise UnpairedCrossing(f"virtual crossing {ev.crossing_id} appears only once", i)
    first_sign = {}
    for i, ev in enumerate(evs):
        if isinstance(ev, ClassicalPass):
            sign = first_sign.setdefault(ev.crossing_id, ev.sign)
            if ev.sign is not sign:
                raise SignMismatch(
                    f"crossing {ev.crossing_id} has one pass signed "
                    f"{sign.value} and one signed {ev.sign.value}",
                    i,
                )
    bars = set()
    for i, ev in enumerate(evs):
        if isinstance(ev, TwistBar):
            if ev.bar_id in bars:
                raise DuplicateBar(f"twist bar {ev.bar_id} appears twice", i)
            bars.add(ev.bar_id)
    return Diagram(evs)


def _outcome(check, events):
    try:
        return check(events)
    except DiagramError as err:
        return type(err), err.event_index, str(err)


@st.composite
def _spliced(draw):
    """A valid sequence, maybe with a pass or two re-signed, and maybe with a
    few events cut out and a few arbitrary ones put in their place, so that
    each check, and none, gets to fail."""
    events = list(draw(diagrams(max_events=10)).events)
    signed = [i for i, ev in enumerate(events) if isinstance(ev, ClassicalPass)]
    for i in draw(st.sets(st.sampled_from(signed), max_size=2)) if signed else ():
        events[i] = replace(events[i], sign=NEG if events[i].sign is POS else POS)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(events)))
        events[at : at + draw(st.integers(0, 2))] = draw(arbitrary_events(max_size=2))
    return events


_BARS_ONLY = st.lists(st.builds(TwistBar, st.integers(1, 3)), max_size=6)  # repeats any id


@given(arbitrary_events(max_size=12) | _spliced() | _BARS_ONLY)
def test_validate_raises_what_the_four_checks_raise_in_turn(events):
    assert _outcome(validate, events) == _outcome(_four_pass_validate, events)
