import json
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistdance import codec
from twistdance.codec import LexError, SourceSpan, _tokens, parse, serialize, token, trace_to_json
from twistdance.model import (
    ClassicalPass,
    CrossingSign,
    DiagramError,
    DuplicateBar,
    SignMismatch,
    Strand,
    TwistBar,
    VirtualPass,
    validate,
)
from twistdance.scheduler import (
    DancePlan,
    RuleKind,
    Schedule,
    retrograde,
    routes_of,
    schedule_search,
)
from twistdance.facing import Facing

from strategies import diagrams, loose_events

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"


def test_parse_trefoil():
    d = parse(TREFOIL)
    assert len(d.events) == 6
    assert d.events[0] == ClassicalPass(1, Strand.OVER, CrossingSign.POSITIVE)
    assert d.events[3] == ClassicalPass(1, Strand.UNDER, CrossingSign.POSITIVE)


def test_parse_bare_twist_bar():
    d = parse("T")
    assert d.events == (TwistBar(1),)


def test_parse_auto_bar_ids_in_reading_order():
    d = parse("T O1+ T U1+ T3")
    bars = [ev for ev in d.events if isinstance(ev, TwistBar)]
    assert [b.bar_id for b in bars] == [1, 2, 3]


def test_parse_auto_bar_collides_with_explicit():
    with pytest.raises(DuplicateBar):
        parse("T1 T")


def test_parse_separators_and_default_sign():
    d = parse("O1,U2-\tO3\n U1 O2- U3")
    assert d.events[0].sign is CrossingSign.POSITIVE
    assert d.events[1].sign is CrossingSign.NEGATIVE
    assert serialize(d) == "O1+ U2- O3+ U1+ O2- U3+"


def test_parse_virtual_pair():
    d = parse("V1 V1")
    assert d.events == (VirtualPass(1), VirtualPass(1))


def test_lex_error_span():
    with pytest.raises(LexError) as exc:
        parse("O1+ X9 U1+")
    assert exc.value.span == SourceSpan(4, 6)


@pytest.mark.parametrize("head", ["O", "U", "V", "T"])
def test_overlong_id_is_a_lex_error(head):
    # 5,000 digits is past CPython's default int-string limit of 4,300
    with pytest.raises(LexError) as exc:
        parse("V1 V1 " + head + "9" * 5000)
    assert exc.value.span == SourceSpan(6, 5007)


def test_a_lone_surrogate_is_a_lex_error():
    with pytest.raises(LexError) as exc:
        parse("O1+ U1+ \ud800")
    assert exc.value.span == SourceSpan(8, 11)


def test_an_escaped_byte_is_lexed_as_that_byte():
    # a command-line argument carries an undecodable byte as a surrogate escape
    with pytest.raises(LexError, match=r"b'\\xff'") as exc:
        parse("O1+ \udcff U1+")
    assert exc.value.span == SourceSpan(4, 5)


@pytest.mark.parametrize("bad", ["O0+", "O01+", "T0", "V0", "o1+", "O1++", "O1 +"])
def test_grammar_rejections(bad):
    with pytest.raises((LexError, DiagramError)):
        parse(bad)


def test_validation_error_annotated_with_span():
    with pytest.raises(SignMismatch) as exc:
        parse("O1+ U1-")
    assert exc.value.span == SourceSpan(4, 7)


def test_parse_empty_and_whitespace():
    assert parse("").events == ()
    assert parse(" \t\n,").events == ()


def test_parse_accepts_bytes():
    assert parse(b"T1 T2").events == (TwistBar(1), TwistBar(2))


@pytest.mark.parametrize("text", [0, 123, True, None, 1.5, [79, 49, 32, 85, 49]])
def test_parse_refuses_what_is_neither_text_nor_bytes(text):
    # ``bytes(text)`` read an int as that many NUL bytes and a list of ints
    # as their bytes; neither is converted now
    with pytest.raises(ValueError, match="str or a bytes-like object") as exc:
        parse(text)
    assert not isinstance(exc.value, (LexError, DiagramError))


def test_parse_accepts_any_bytes_like_object():
    for text in bytearray(b"O1 U1"), memoryview(b"O1 U1"):
        assert serialize(parse(text)) == "O1+ U1+"


def test_serialize_examples():
    assert serialize(parse(TREFOIL)) == TREFOIL
    assert serialize(parse("")) == ""
    assert serialize(parse("T T")) == "T1 T2"


@given(diagrams())
def test_roundtrip(d):
    assert parse(serialize(d)) == d


@given(loose_events())
def test_every_diagram_validate_accepts_survives_a_round_trip(events):
    try:
        d = validate(events)
    except DiagramError as err:
        assert 0 <= err.event_index < len(events)
    else:
        assert parse(serialize(d)) == d


_SEPARATORS = st.sampled_from([" ", ",", "\t", "\n", ", ", " ,\t", "\n\n", ",,"])


@st.composite
def written_diagrams(draw):
    """A diagram's text with bare signs, bare ``T`` bars and mixed separators.

    A positive sign may be left out, and a bar may be written bare, the
    bare ones taking 1, 2, ... in reading order; the others keep their ids,
    raised past the bar count so that none collides with a bare one."""
    d = draw(diagrams(max_events=10))
    bars = sum(isinstance(ev, TwistBar) for ev in d.events)
    runs = []
    for ev in d.events:
        run = token(ev)
        if isinstance(ev, TwistBar):
            run = "T" if draw(st.booleans()) else f"T{ev.bar_id + bars}"
        elif run.endswith("+") and draw(st.booleans()):
            run = run[:-1]
        runs.append(run)
    ends = draw(st.lists(st.sampled_from(["", " ", ",", "\n"]), min_size=2, max_size=2))
    separators = draw(st.lists(_SEPARATORS, min_size=len(runs), max_size=len(runs)))
    return ends[0] + "".join(r + sep for r, sep in zip(runs, separators)).rstrip(" \t\n,") + ends[1]


@given(written_diagrams())
def test_parse_keeps_the_token_table_and_copies_build_their_own(text):
    d = parse(text)
    table = d.__dict__["_token_table"]  # set by parse, not by a first read
    assert table == tuple(token(ev) for ev in d.events)
    assert serialize(d) == " ".join(table)
    plain = validate(d.events)  # the same diagram with no table kept
    assert "_token_table" not in plain.__dict__
    unread = hash(plain), repr(plain), pickle.dumps(plain)
    assert (hash(d), repr(d), pickle.dumps(d)) == unread
    for copy in plain, replace(d), deepcopy(d), pickle.loads(pickle.dumps(d)), retrograde(d):
        assert "_token_table" not in copy.__dict__
        assert _tokens(copy) == tuple(token(ev) for ev in copy.events)
        if copy.events == d.events:
            assert (hash(copy), repr(copy), pickle.dumps(copy)) == unread


# ``pickle.dumps(parse(BAR_TREFOIL), protocol=4)``, the events alone: the
# same bytes under CPython 3.10 to 3.13, and the bytes a Diagram wrote when
# it paired its crossings lazily, so those pickles still load
BAR_TREFOIL_PICKLE = bytes.fromhex(
    "800495f1000000000000008c10747769737464616e63652e6d6f64656c948c0744696167"
    "72616d9493942981947d948c066576656e7473942868008c0d436c6173736963616c5061"
    "73739493942981945d94284b0168008c06537472616e649493948c014f94859452946800"
    "8c0c43726f7373696e675369676e9493948c012b9485945294656268072981945d94284b"
    "02680b8c015594859452946813656268072981945d94284b03680e6813656268008c0854"
    "776973744261729493942981945d944b01616268072981945d94284b0168186813656268"
    "072981945d94284b02680e6813656268072981945d94284b03681868136562749473622e"
)
BAR_TREFOIL = "O1+ U2+ O3+ T1 U1+ O2+ U3+"


def test_a_pinned_pickle_loads_into_a_diagram_that_holds_its_crossings():
    d = parse(BAR_TREFOIL)
    assert pickle.dumps(d, protocol=4) == BAR_TREFOIL_PICKLE
    loaded = pickle.loads(BAR_TREFOIL_PICKLE)
    assert loaded == d and hash(loaded) == hash(d)
    assert set(loaded.__dict__) == {"events", "_crossings"}
    assert loaded._crossings == d._crossings == {1: [0, 4], 2: [1, 5], 3: [2, 6]}


# Runs that are no token: the id too long for an int, and runs holding a
# byte that ``bytes.split()`` or ``str.split()`` would cut at but the grammar
# does not, included.
_NON_TOKENS = [
    "X9", "O0", "O01+", "o1", "O1++", "T0", "V", "V1+", "O", "+", "\xff", "\udcff",
    "O1\r", "\x0bT", "U1\x0c", "\x1cV1", "T1\x1f", "O1\x85", "O" + "9" * 5000,
]


@st.composite
def texts_with_a_stray_run(draw):
    """A written diagram with at most one of its runs replaced by a non-token
    or by a token that may break the diagram's structure, and the byte span
    of the non-token, if any."""
    text = draw(written_diagrams())
    runs = list(re.finditer(r"[^ \t\n,]+", text))
    if not runs or draw(st.booleans()):
        return text, None
    run = runs[draw(st.integers(0, len(runs) - 1))]
    stray = draw(st.sampled_from(_NON_TOKENS + ["O1+", "U1-", "V1", "T1", "T", "O2"]))
    text = text[: run.start()] + stray + text[run.end() :]
    if stray not in _NON_TOKENS:
        return text, None
    start = len(text[: run.start()].encode("utf-8", "surrogateescape"))
    return text, SourceSpan(start, start + len(stray.encode("utf-8", "surrogateescape")))


def _outcome(text):
    try:
        d = parse(text)
    except (LexError, DiagramError) as err:
        return type(err), str(err), err.span
    return d.events, d.__dict__["_token_table"]


@given(texts_with_a_stray_run())
def test_parse_reads_the_same_whatever_the_event_table_holds(case):
    text, stray = case
    with patch.dict(codec._EVENTS, clear=True):
        empty = _outcome(text)
        if stray is not None:  # the one run that is no token is the error
            assert empty[0] is LexError and empty[2] == stray
        assert _outcome(text) == empty  # the text's own tokens in the table
        for cap in 0, 3:
            with patch.object(codec, "_EVENT_CAP", cap):
                codec._EVENTS.clear()
                assert _outcome(text) == empty
                assert _outcome(text) == empty  # the table as full as the cap lets it be
                assert len(codec._EVENTS) <= cap


def test_the_event_table_never_grows_past_its_cap():
    with patch.dict(codec._EVENTS, clear=True), patch.object(codec, "_EVENT_CAP", 10):
        for i in range(1, 40):
            parse(f"O{i}+ U{i}+ O{i + 40} U{i + 40} V{i} V{i} T{i + 1} T")
            assert len(codec._EVENTS) <= 10
        assert len(codec._EVENTS) == 10


def test_threads_parsing_new_tokens_at_once_each_get_the_serial_diagrams():
    # four threads parse texts the event table lacks into one table at once,
    # each from its own place in the list so that they add different tokens,
    # also with caps they reach; each gets a serial parse's diagrams and
    # token tables, and the table never holds more than its cap
    texts = [f"O{i}+ U{i + 1}- V{i} T O{i + 1}- V{i} U{i}+ T" for i in range(1, 30)]
    texts += [f"O{i} U{i} T{i}" for i in range(1, 30)]  # bare signs, and bars by id
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads often
    try:
        for cap in (codec._EVENT_CAP, *range(10, 170, 10)):  # each cap they reach is one more race
            with patch.dict(codec._EVENTS, clear=True), patch.object(codec, "_EVENT_CAP", cap):
                expected = [_outcome(text) for text in texts]
                assert all(type(tokens) is tuple for _, tokens in expected)  # every text a diagram
                codec._EVENTS.clear()
                start = threading.Barrier(4)

                def run(shift):
                    start.wait(timeout=60)
                    outcomes = {}
                    for at in [*range(shift, len(texts)), *range(shift)]:
                        outcomes[at] = _outcome(texts[at])
                        assert len(codec._EVENTS) <= cap
                    return [outcomes[at] for at in range(len(texts))]

                shifts = [len(texts) * j // 4 for j in range(4)]
                with ThreadPoolExecutor(max_workers=4) as pool:
                    answers = [f.result(timeout=60) for f in [pool.submit(run, shift) for shift in shifts]]
                assert all(answer == expected for answer in answers), cap
                assert len(codec._EVENTS) == min(cap, len({t for _, tokens in expected for t in tokens}))
    finally:
        sys.setswitchinterval(switch)


def test_the_event_table_spends_its_room_only_on_tokens_it_lacks():
    # a text's tokens already kept, or repeated in it, take no room from its new ones
    with patch.dict(codec._EVENTS, clear=True), patch.object(codec, "_EVENT_CAP", 4):
        parse("O1+ U1+")
        parse("O1+ U1+ O2+ U2+")
        assert list(codec._EVENTS) == ["O1+", "U1+", "O2+", "U2+"]
        codec._EVENTS.clear()
        parse("V1 V1 O1+ U1+ V2 V2")
        assert list(codec._EVENTS) == ["V1", "O1+", "U1+", "V2"]


def test_a_bare_sign_or_bar_shares_the_event_of_its_canonical_token():
    # events are frozen values, so two diagrams may hold the same one
    with patch.dict(codec._EVENTS, clear=True):
        bare, signed = parse("O1 U1 T"), parse("O1+ U1+ T1")
        assert all(a is b for a, b in zip(bare.events, signed.events, strict=True))
        assert _tokens(bare) == _tokens(signed) == ("O1+", "U1+", "T1")


def test_parse_finds_the_runs_the_table_misses_without_comparing_events():
    # a text whose tokens the table holds is read without comparing any
    # event, to None or anything else
    text = "O1+ U2- V1 T1 O2- V1 U1+ T2"
    with patch.dict(codec._EVENTS, clear=True):
        expected = _outcome(text)  # its tokens now in the table

        def refuse(self, other):
            raise AssertionError(f"{self!r} compared with {other!r}")

        with patch.object(ClassicalPass, "__eq__", refuse), patch.object(
            VirtualPass, "__eq__", refuse
        ), patch.object(TwistBar, "__eq__", refuse):
            events, tokens = _outcome(text)
    assert (events, tokens) == expected


@given(diagrams())
def test_serialize_parse_is_canonicalizing(d):
    canon = serialize(d)
    assert serialize(parse(canon)) == canon


@given(st.binary(max_size=40))
def test_parse_never_panics(data):
    try:
        parse(data)
    except (LexError, DiagramError):
        pass


@given(st.text(st.sampled_from("OUVT019+- ,\xff") | st.integers(0xD800, 0xDFFF).map(chr), max_size=12))
def test_parse_never_panics_on_text_with_surrogates(text):
    try:
        parse(text)
    except (LexError, DiagramError):
        pass


def _trefoil_witness():
    plan = DancePlan(parse(TREFOIL), (0, 3), 1)
    schedule = schedule_search(plan)
    assert isinstance(schedule, Schedule)
    return schedule


def test_trace_empty_schedule_exact():
    assert trace_to_json(Schedule((), True, None)) == '{"steps":[],"feasible":true}'


def test_trace_trefoil_witness():
    schedule = _trefoil_witness()
    payload = json.loads(trace_to_json(schedule))
    assert payload["feasible"] is True
    assert len(payload["steps"]) == 6
    assert {s["dancer"] for s in payload["steps"]} == {0, 1}
    assert [s["t"] for s in payload["steps"]] == list(range(6))
    assert payload["plan"] == {"points": [0, 3], "k": 1, "rule": "forward"}
    first = payload["steps"][0]
    assert set(first) == {"t", "dancer", "event_index", "event", "facing"}
    assert first["event"] == "O1+"
    assert first["facing"] == "forward"


def test_trace_projection_matches_routes():
    schedule = _trefoil_witness()
    payload = json.loads(trace_to_json(schedule))
    routes = routes_of(schedule.plan)
    for d, route in enumerate(routes):
        mine = [s["event_index"] for s in payload["steps"] if s["dancer"] == d]
        assert mine == list(route)


def test_trace_includes_matching_facings():
    d = parse("T1 T2")
    plan = DancePlan(
        d, (0, 1), 1, RuleKind.MATCHING, (Facing.FORWARD, Facing.BACKWARD)
    )
    schedule = schedule_search(plan)
    assert isinstance(schedule, Schedule)
    payload = json.loads(trace_to_json(schedule))
    assert payload["plan"]["facings"] == ["forward", "backward"]
    assert payload["plan"]["rule"] == "matching"


def test_trace_with_steps_requires_plan():
    # refused when the schedule is built, so no output is ever handed one
    schedule = _trefoil_witness()
    with pytest.raises(ValueError, match="needs its plan"):
        Schedule(schedule.steps, True, None)


def test_token_forms():
    assert token(ClassicalPass(2, Strand.UNDER, CrossingSign.NEGATIVE)) == "U2-"
    assert token(VirtualPass(7)) == "V7"
    assert token(TwistBar(3)) == "T3"


@pytest.mark.parametrize(
    "event",
    [
        None,
        "O1+",
        3,
        Strand.OVER,
        validate([]),
        ClassicalPass(1, "O"),
        ClassicalPass(True, Strand.OVER, CrossingSign.POSITIVE),
    ],
)
def test_token_refuses_what_is_not_an_event(event):
    # None and a token string used to raise AttributeError, as did a string
    # strand, and a bool id was written as 'OTrue+'
    with pytest.raises(ValueError, match="event must be a ClassicalPass"):
        token(event)
