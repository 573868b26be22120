"""Hypothesis strategies shared across test modules."""

from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st

from twistdance.model import (
    ClassicalPass,
    CrossingSign,
    Strand,
    TwistBar,
    VirtualPass,
    validate,
)

_SIGNS = (CrossingSign.POSITIVE, CrossingSign.NEGATIVE)


@st.composite
def diagrams(draw, max_events: int = 8, allow_empty: bool = True):
    """Valid diagrams built from classical pairs, virtual pairs and bars."""
    c = draw(st.integers(0, max_events // 2))
    v = draw(st.integers(0, (max_events - 2 * c) // 2))
    b_min = 0 if (allow_empty or c or v) else 1
    b = draw(st.integers(b_min, max_events - 2 * c - 2 * v))
    base = []
    for i in range(1, c + 1):
        sign = draw(st.sampled_from(_SIGNS))
        base += [ClassicalPass(i, Strand.OVER, sign), ClassicalPass(i, Strand.UNDER, sign)]
    base += [VirtualPass(j) for j in range(1, v + 1) for _ in (0, 1)]
    base += [TwistBar(b_id) for b_id in range(1, b + 1)]
    events = draw(st.permutations(base)) if base else []
    return validate(events)


@st.composite
def plan_geometries(draw, max_events: int = 8, n_max: int = 3, k_max: int = 2):
    """(diagram, points, k) triples with a valid placement."""
    d = draw(diagrams(max_events))
    gaps = d.gap_count
    n = draw(st.integers(1, min(n_max, gaps)))
    points = draw(st.sampled_from(list(combinations(range(gaps), n))))
    k = draw(st.integers(1, k_max))
    return d, points, k


def arbitrary_events(max_size: int = 8):
    """Event sequences that may violate any structural invariant."""
    classical = st.builds(
        ClassicalPass,
        st.integers(1, 3),
        st.sampled_from((Strand.OVER, Strand.UNDER)),
        st.sampled_from(_SIGNS),
    )
    virtual = st.builds(VirtualPass, st.integers(1, 3))
    bar = st.builds(TwistBar, st.integers(1, 3))
    return st.lists(st.one_of(classical, virtual, bar), max_size=max_size)


@st.composite
def loose_events(draw, max_events: int = 8):
    """A valid sequence, maybe with a few events cut out and a few loose ones
    put in their place: ids from -1, 0, 1, 2, 3 and ``True``, strands and
    signs as members or as their string values, and now and then an object
    that is no event at all."""
    ident = st.sampled_from((-1, 0, 1, 2, 3, True))
    classical = st.builds(
        ClassicalPass,
        ident,
        st.sampled_from((*Strand, *(s.value for s in Strand))),
        st.sampled_from((*CrossingSign, *(s.value for s in CrossingSign))),
    )
    virtual, bar = st.builds(VirtualPass, ident), st.builds(TwistBar, ident)
    loose = st.one_of(classical, virtual, bar, st.sampled_from((None, 1, "V1", Strand.OVER)))
    events = list(draw(diagrams(max_events)).events)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(events)))
        events[at : at + draw(st.integers(0, 2))] = draw(st.lists(loose, min_size=1, max_size=3))
    return events


def parity_vectors(n_max: int = 5):
    return st.lists(st.integers(0, 1), min_size=1, max_size=n_max).map(tuple)
