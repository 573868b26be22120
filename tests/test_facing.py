from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistdance.codec import parse
from twistdance.facing import (
    Facing,
    _matching_solutions,
    forward_rule_ok,
    matching_check,
    matching_solve,
    parity_vector,
    window_parity,
)
from twistdance.model import TwistBar, paths_of

from strategies import parity_vectors, plan_geometries

F = Facing.FORWARD
B = Facing.BACKWARD

BAR_TREFOIL = "O1+ U2+ O3+ T1 U1+ O2+ U3+"


def brute_solutions(t, k):
    return [
        f
        for f in product((F, B), repeat=len(t))
        if matching_check(t, f, k)
    ]


def test_flip_is_an_involution():
    for f in (F, B):
        assert f.flipped().flipped() is f
        assert f.flipped() is not f


def test_facing_letters():
    assert F.letter == "F" and B.letter == "B"
    assert Facing.from_letter("f") is F
    assert Facing.from_letter("BACKWARD") is B
    for text in ("x", 5, None, b"F"):  # a non-str raised AttributeError
        with pytest.raises(ValueError):
            Facing.from_letter(text)


def test_parity_vector_bar_trefoil():
    assert parity_vector(parse(BAR_TREFOIL), (0, 4)) == (1, 0)


def test_parity_vector_no_bars():
    d = parse("O1+ U2+ O3+ U1+ O2+ U3+")
    assert parity_vector(d, (0, 3)) == (0, 0)
    assert parity_vector(d, (1, 2, 5)) == (0, 0, 0)


def test_parity_vector_two_bars_one_path_cancel():
    assert parity_vector(parse("T1 T2"), (0,)) == (0,)


@given(plan_geometries())
def test_parity_vector_total_matches_bar_count(geometry):
    d, points, _ = geometry
    bars = sum(isinstance(ev, TwistBar) for ev in d.events)
    assert sum(parity_vector(d, points)) % 2 == bars % 2


def test_window_parity_values():
    assert window_parity((1, 0), 0, 4) == 0
    assert window_parity((1, 0), 1, 3) == 1
    assert window_parity((1, 0), 0, 1) == 1
    assert window_parity((1, 1, 0), 2, 2) == 1  # wraps: t[2] ^ t[0]


def test_window_parity_rejects_bad_args():
    with pytest.raises(ValueError):
        window_parity((1,), 0, 0)
    with pytest.raises(ValueError):
        window_parity((), 0, 1)
    for i in (1.0, True, None, "0"):  # a path index that is not an int
        with pytest.raises(ValueError, match="path index"):
            window_parity((0, 1), i, 1)


@given(parity_vectors())
def test_full_window_is_total_parity(t):
    total = sum(t) % 2
    for i in range(len(t)):
        assert window_parity(t, i, len(t)) == total


@given(parity_vectors(), st.integers(0, 4), st.integers(1, 6), st.integers(1, 6))
def test_window_parity_composes(t, i, k1, k2):
    n = len(t)
    i %= n
    left = window_parity(t, i, k1) ^ window_parity(t, (i + k1) % n, k2)
    assert window_parity(t, i, k1 + k2) == left


def test_forward_rule_bar_trefoil_needs_four_laps():
    t = (1, 0)
    assert [forward_rule_ok(t, k) for k in (1, 2, 3, 4)] == [False, False, False, True]


def test_forward_rule_trivial_cases():
    assert forward_rule_ok((0,), 1)
    assert not forward_rule_ok((1,), 1)
    assert forward_rule_ok((1,), 2)


@given(parity_vectors(), st.integers(1, 8))
def test_forward_rule_is_matching_with_all_forward(t, k):
    f = tuple(F for _ in t)
    assert forward_rule_ok(t, k) == matching_check(t, f, k)


@given(parity_vectors(6), st.integers(1, 13))
def test_forward_rule_passes_exactly_when_the_least_matching_solution_is_all_forward(t, k):
    solved = matching_solve(t, k)
    assert forward_rule_ok(t, k) == (solved is not None and not any(solved))


def test_matching_check_examples():
    assert matching_check((1, 1, 0), (F, B, F), 1)
    assert not matching_check((1, 0), (F, F), 1)


@given(parity_vectors())
def test_matching_check_k_equals_n_with_even_total(t):
    if sum(t) % 2 == 0:
        for f in product((F, B), repeat=len(t)):
            assert matching_check(t, f, len(t))


def test_matching_check_length_mismatch():
    with pytest.raises(ValueError):
        matching_check((1, 0), (F,), 1)


def test_matching_solve_examples():
    assert matching_solve((1, 1, 0), 1) == (F, B, F)
    assert matching_solve((1, 0), 1) is None
    assert matching_solve((0, 0, 0), 1) == (F, F, F)


def test_matching_solve_brute_force_agreement():
    for n in range(1, 4):
        for bits in product((0, 1), repeat=n):
            for k in range(1, 9):
                solved = matching_solve(bits, k)
                sols = brute_solutions(bits, k)
                if solved is None:
                    assert sols == []
                else:
                    assert sols, f"solver found {solved} but brute force found none"
                    assert solved == min(sols)
                    assert matching_check(bits, solved, k)


@given(plan_geometries(), st.integers(0, 2))
def test_parity_vector_counts_the_bars_on_each_path(geometry, r):
    d, points, _ = geometry
    r %= len(points)
    pts = points[r:] + points[:r]  # any rotation of a cyclic order is one too
    expected = tuple(sum(isinstance(ev, TwistBar) for ev in path) % 2 for path in paths_of(d, pts))
    assert parity_vector(d, pts) == expected


@given(parity_vectors(), st.integers(1, 8))
def test_matching_solutions_are_the_assignments_matching_check_accepts(t, k):
    assert _matching_solutions(t, k) == set(brute_solutions(t, k))


@given(parity_vectors(6), st.integers(1, 19), st.data())
def test_the_facing_gate_has_period_2n_in_k(t, k, data):
    # a window of k + 2n parities adds two whole traversals, an even flip,
    # and the endpoint map i -> (i + k) mod n is unchanged
    f = tuple(data.draw(st.lists(st.sampled_from((F, B)), min_size=len(t), max_size=len(t))))
    later = k + 2 * len(t)
    assert matching_check(t, f, later) == matching_check(t, f, k)
    assert matching_solve(t, later) == matching_solve(t, k)
    assert forward_rule_ok(t, later) == forward_rule_ok(t, k)


def test_the_facing_functions_refuse_an_empty_vector_or_a_k_that_is_not_a_count():
    # an empty t used to pass forward_rule_ok and matching_check, whose loops
    # never reached window_parity's check; True was read as k = 1, and a float
    # k raised TypeError; a t of other entries than 0 and 1 was answered
    # ((0, 2) by matching_solve, as all forward), and a t of None raised
    # TypeError
    calls = [
        lambda t, k: window_parity(t, 0, k),
        forward_rule_ok,
        lambda t, k: matching_check(t, (F, F), k),
        matching_solve,
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call((), 1)
        for k in (0, -1, True, False, 1.0, 2.5, "1", None):
            with pytest.raises(ValueError):
                call((0, 1), k)
        for t in ((0, 2), (1, -1), (0, 1.0), (0, "1"), (None, 0), "01", None, 3, {0, 1}, iter((0, 1))):
            with pytest.raises(ValueError, match="tuple or list of 0/1 ints"):
                call(t, 1)
        assert call([0, True], 1) == call((0, 1), 1)  # bools are ints


def test_matching_check_refuses_facings_that_are_not_facing_members():
    # plain ints, letters and None used to raise AttributeError or pass
    for f in (("F", "F"), (0, 0), (F, 1), (None, B)):
        with pytest.raises(ValueError, match="Facing"):
            matching_check((0, 1), f, 1)


def test_facts_1_and_2_hold_for_every_vector_of_at_most_eight_paths():
    # Fact 1: matching_solve(t, k) is None iff (k/g)*T is odd, g = gcd(n, k),
    # and otherwise there are 2**g solutions; Fact 2: the forward gate passes
    # at k = 2n, and at k = n iff T = 0 (proofs in the facing docstring)
    pairs = 0
    for n in range(1, 9):
        for t in product((0, 1), repeat=n):
            total = sum(t) % 2
            assert forward_rule_ok(t, 2 * n), t
            assert forward_rule_ok(t, n) == (total == 0), t
            for k in range(1, 3 * n + 3):
                pairs += 1
                g = gcd(n, k)
                solved = matching_solve(t, k)
                assert (solved is None) == (k // g * total % 2 == 1), (t, k)
                if solved is not None:
                    assert matching_check(t, solved, k), (t, k)
                    solutions = _matching_solutions(t, k)
                    assert len(solutions) == 2**g, (t, k)
                    if n <= 4:
                        assert solutions == set(brute_solutions(t, k)), (t, k)
    assert pairs == 11_778


def test_matching_solve_refuses_before_it_walks_an_orbit(monkeypatch):
    import twistdance.facing

    def no_walk(t, i, k):
        raise AssertionError("a refusal reads no window")

    monkeypatch.setattr(twistdance.facing, "_window_parity", no_walk)
    assert matching_solve((1, 0), 1) is None
    assert matching_solve((1, 0, 0), 3) is None
    assert matching_solve((0, 1, 1, 1), 6) is None
    assert matching_solve((1,), 2) == (F,)  # one orbit of one index: no walk
