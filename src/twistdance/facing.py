"""Facing algebra over twist-bar parities.

A dancer's facing is a bit (forward = 0) and every twist bar flips it, so
once a placement is fixed all facing questions reduce to XORs of per-path
twist-bar parities.  The dance rules then have closed-form predicates
instead of step-by-step simulation; the scheduler's property tests tie the
two views together.

Write t for the path parities of an n-placement, T = sum(t) mod 2 for the
diagram's total twist-bar parity (the same for every placement), and W(i)
for ``window_parity(t, i, k)``, the XOR of the k consecutive path parities
from path i on.  Let g = gcd(n, k).

Fact 1 (matching).  ``matching_solve(t, k)`` is None iff (k/g)*T is odd;
otherwise the rule admits exactly 2**g facing assignments, the
``_matching_solutions(t, k)``.  Proof: the endpoint map i -> (i + k) mod n
splits the indices into g orbits, the orbit of i being the indices
congruent to i mod g, each of n/g indices.  An assignment f passes iff
f[i + k] = f[i] XOR W(i) for every i.  Along the orbit of i these n/g
equations fix every f[j] from f[i], and going once round the orbit they
return to f[i] iff the XOR of its n/g windows is 0.  Those windows are
consecutive: together they cover (n/g)*k = (k/g)*n consecutive paths,
which is k/g whole traversals of the cycle, so their XOR telescopes to
(k/g)*T mod 2, the same for every orbit.  So if it is odd no assignment
passes, and if it is even each orbit has exactly two assignments, one per
value of its least index, chosen independently: 2**g in all.

Fact 2 (forward).  ``forward_rule_ok(t, 2n)`` always holds, and
``forward_rule_ok(t, n)`` holds iff T = 0.  Proof: the forward rule asks
W(i) = 0 for every i.  A window of n paths is one whole traversal, with
parity T, and a window of 2n paths is two, with parity 2T = 0 mod 2.

The public functions refuse with ``ValueError`` a t that is not a
non-empty tuple or list of 0/1 ints, a k that is not an ``int`` >= 1 (a
``bool`` included), a path index i that is not an ``int`` (a ``bool``
included) and facings that are not ``Facing`` members.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import product
from math import gcd
from typing import Iterable, Sequence

from .model import Diagram, TwistBar, _check_bound, check_points

__all__ = [
    "Facing",
    "parity_vector",
    "window_parity",
    "forward_rule_ok",
    "matching_check",
    "matching_solve",
]


class Facing(IntEnum):
    """Dancer orientation along the curve; flipping twice is the identity."""

    FORWARD = 0
    BACKWARD = 1

    def flipped(self) -> "Facing":
        return _FLIPPED[self]

    @property
    def letter(self) -> str:
        return "F" if self is Facing.FORWARD else "B"

    @classmethod
    def from_letter(cls, text: str) -> "Facing":
        cleaned = text.strip().upper() if isinstance(text, str) else None
        if cleaned in ("F", "FORWARD"):
            return cls.FORWARD
        if cleaned in ("B", "BACKWARD"):
            return cls.BACKWARD
        raise ValueError(f"facing must be F or B, got {text!r}")


_FLIPPED = (Facing.BACKWARD, Facing.FORWARD)  # indexed by the facing bit


def parity_vector(diagram: Diagram, points: Iterable[int]) -> tuple[int, ...]:
    """Per-path twist-bar counts mod 2, one bit per initial point."""
    pts = check_points(diagram, points)
    return _parities(_bar_prefix(diagram), pts)


def _bar_prefix(diagram: Diagram) -> list[int]:
    """``prefix[j]``: the parity of the twist bars among the first j events."""
    prefix = [0]
    bit = 0
    for ev in diagram.events:
        bit ^= isinstance(ev, TwistBar)
        prefix.append(bit)
    return prefix


def _parities(prefix: Sequence[int], pts: Sequence[int]) -> tuple[int, ...]:
    """``parity_vector`` of checked points, read from a diagram's bar prefix.

    Path i runs from gap ``pts[i]`` to gap ``pts[i + 1]``; a path that wraps
    past the last event (a single point's path always does) adds the parity
    of the whole cycle.
    """
    total = prefix[-1]
    ends = (*pts[1:], pts[0])
    return tuple(prefix[a] ^ prefix[b] ^ (total if b <= a else 0) for a, b in zip(pts, ends))


def _check_laps(t: Sequence[int], k: int, i: int = 0) -> int:
    """``len(t)``, refusing with ``ValueError`` a k that is not an ``int``
    >= 1, a path index i that is not an ``int``, a t that is not a tuple or
    list of 0/1 ints, and an empty t.  A tuple or a list, not any
    ``Sequence``: the ABC's ``isinstance`` would more than double the cost
    of the check, which the solver pays for each parity vector it gates."""
    _check_bound("k", k)
    if isinstance(i, bool) or not isinstance(i, int):
        raise ValueError(f"path index must be an int, got {i!r}")
    if not isinstance(t, (tuple, list)) or not all(isinstance(x, int) and x in (0, 1) for x in t):
        raise ValueError(f"path parities must be a tuple or list of 0/1 ints, got {t!r}")
    if not len(t):
        raise ValueError("need at least one path parity")
    return len(t)


def window_parity(t: Sequence[int], i: int, k: int) -> int:
    """Net facing flip over the k paths starting at path i, wrapping cyclically."""
    _check_laps(t, k, i)
    return _window_parity(t, i, k)


def _window_parity(t: Sequence[int], i: int, k: int) -> int:
    """``window_parity`` of checked arguments.  Whole traversals of the
    vector contribute its total parity; only the remainder is summed term
    by term."""
    n = len(t)
    full, rem = divmod(k, n)
    parity = (full * sum(t)) % 2
    for j in range(rem):
        parity ^= t[(i + j) % n]
    return parity


def forward_rule_ok(t: Sequence[int], k: int) -> bool:
    """True iff every dancer's k-path route flips its facing an even number
    of times, i.e. everyone who starts forward also ends forward."""
    return not any(_window_parity(t, i, k) for i in range(_check_laps(t, k)))


def matching_check(t: Sequence[int], f: Sequence[Facing], k: int) -> bool:
    """True iff each dancer, starting at point i with facing f[i], arrives at
    point (i + k) mod n showing that point's designated facing.

    Only the endpoint constrains a dancer; initial points passed mid-route
    impose nothing.
    """
    n = _check_laps(t, k)
    if len(f) != n:
        raise ValueError(f"facing assignment has length {len(f)}, expected {n}")
    if not all(isinstance(x, Facing) for x in f):
        raise ValueError(f"facings must be Facing values, got {tuple(f)!r}")
    # a Facing is the int of its bit, so the members are XORed and compared as
    # ints; ``.value`` would be an Enum property call per read
    return all((f[i] ^ _window_parity(t, i, k)) == f[(i + k) % n] for i in range(n))


def matching_solve(t: Sequence[int], k: int) -> tuple[Facing, ...] | None:
    """Find a designated-facing assignment satisfying the matching rule.

    By Fact 1 there is none when (k/g)*T is odd, g = gcd(n, k), and that is
    answered before any orbit is walked.  Otherwise the lexicographically
    least solution (forward < backward, index order) seeds the least index
    0..g-1 of each orbit forward and walks the rest of the orbit from it.
    """
    n = _check_laps(t, k)
    g = gcd(n, k)
    if k // g * sum(t) % 2:
        return None
    f = [Facing.FORWARD] * n
    for start in range(g):
        i, bit = start, 0
        for _ in range(n // g - 1):
            bit ^= _window_parity(t, i, k)
            i = (i + k) % n
            f[i] = Facing(bit)
    return tuple(f)


def _matching_solutions(t: Sequence[int], k: int) -> set[tuple[int, ...]]:
    """Every assignment ``matching_check`` accepts, as tuples of facing bits.

    The orbit of index i under the endpoint map is the indices congruent to
    i mod gcd(n, k), and flipping a whole orbit of a solution gives another,
    so the solutions are ``matching_solve``'s with any set of orbits flipped.
    """
    least = matching_solve(t, k)
    if least is None:
        return set()
    g = gcd(len(t), k)
    return {
        tuple(f ^ flips[i % g] for i, f in enumerate(least))
        for flips in product((0, 1), repeat=g)
    }
