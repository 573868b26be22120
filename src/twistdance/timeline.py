"""SVG timeline rendering of a schedule.

One horizontal lane per dancer, x position equal to the linearization index.
Forward-facing travel is drawn solid, backward-facing travel dashed; colors
distinguish dancers.  Output is plain SVG 1.1 text, byte-identical across
runs for identical inputs so it can be golden-file tested.

Steps are read from the schedule's move columns (see ``scheduler``), never
from ``Step`` objects, and labels from the diagram's token table, which the
JSON trace of the same diagram shares (see ``codec._tokens``).  Each lane's
constant fragments (its colour, its y position and the dash pattern) are
formatted once, so a step adds one line segment and one dot-and-label
entry, each joined from those fragments and the step's x position.
"""

from __future__ import annotations

from .codec import _tokens
from .scheduler import Schedule

__all__ = ["svg_timeline"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_DASH = "6,4"  # backward-facing stroke pattern; forward is solid
# layout, in SVG user units
_LANE_HEIGHT = 44
_STEP_WIDTH = 46
_MARGIN = 16
_LABEL_WIDTH = 72
_FONT_SIZE = 12


def svg_timeline(schedule: Schedule) -> str:
    """Render a schedule as an SVG timeline string.

    As in ``trace_to_json``, a schedule with steps needs its plan, which
    gives the lanes, the start facings and the event labels, int dancer ids
    and event indices, event indices in ``0..m-1`` and ``Facing`` facings;
    otherwise ``ValueError``.  A step whose dancer has no lane is left out.
    """
    dancers, events, facings = schedule._columns()
    plan = schedule.plan
    lanes = plan.n if plan is not None else 0

    total = len(dancers)
    width = 2 * _MARGIN + _LABEL_WIDTH + max(total, 1) * _STEP_WIDTH
    height = 2 * _MARGIN + lanes * _LANE_HEIGHT
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    labels = [tok.rstrip("+-") for tok in _tokens(plan.diagram)] if total else []
    by_lane: list[list[tuple[str, str, int]]] = [[] for _ in range(lanes)]
    step_x = _MARGIN + _LABEL_WIDTH + _STEP_WIDTH // 2  # each step's x, made text once
    for d, e, f in zip(dancers, events, facings):
        if 0 <= d < lanes:
            by_lane[d].append((str(step_x), labels[e], f))
        step_x += _STEP_WIDTH

    for d, mine in enumerate(by_lane):
        color = _PALETTE[d % len(_PALETTE)]
        cy = _MARGIN + d * _LANE_HEIGHT + _LANE_HEIGHT // 2
        out.append(
            f'<text x="{_MARGIN}" y="{cy + _FONT_SIZE // 2}" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" '
            f'fill="{color}">dancer {d}</text>'
        )
        if not mine:
            continue
        # the lane's constant fragments: a segment's middle and its end, solid
        # after a forward facing and dashed after a backward one (indexed by
        # the facing bit), and a dot's middle and the start of its label
        line_mid = f'" y1="{cy}" x2="'
        stroke = f'" y2="{cy}" stroke="{color}" stroke-width="2"'
        line_end = (f"{stroke}/>", f'{stroke} stroke-dasharray="{_DASH}"/>')
        dot_mid = f'" cy="{cy}" r="4" fill="{color}"/>\n<text x="'
        label_start = (
            f'" y="{cy - 8}" text-anchor="middle" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" fill="#333333">'
        )
        facing_before = plan.designated[d]
        prev_x = str(_MARGIN + _LABEL_WIDTH)
        for x, _, facing_after in mine:
            out.append(f'<line x1="{prev_x}{line_mid}{x}{line_end[facing_before]}')
            facing_before = facing_after
            prev_x = x
        out += [f'<circle cx="{x}{dot_mid}{x}{label_start}{label}</text>' for x, label, _ in mine]

    out.append("</svg>")
    return "\n".join(out) + "\n"
