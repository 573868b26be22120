"""SVG timeline rendering of a schedule.

One horizontal lane per dancer, x position equal to the linearization index.
Forward-facing travel is drawn solid, backward-facing travel dashed; colors
distinguish dancers.  Output is plain SVG 1.1 text, byte-identical across
runs for identical inputs so it can be golden-file tested.

Steps are read from the schedule's move columns (see ``scheduler``), never
from ``Step`` objects, and labels from the diagram's token table, which the
JSON trace of the same diagram shares and which a parsed diagram already
holds (see ``codec._tokens``).  Each lane's constant fragments (its colour,
its y position and the dash pattern) are formatted once, before any step.
Then one pass over the steps formats each step once, straight into its
lane's lists: one line segment, from the x position and facing the lane's
previous step left, and one dot-and-label entry, each joined from those
fragments and the step's x position.  The lanes' lists are then joined in
lane order, each lane's segments before its dots.
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
    # per lane: its label and segments, its dots and its constant fragments
    lines: list[list[str]] = []
    dots: list[list[str]] = []
    fragments = []
    for d in range(lanes):
        color = _PALETTE[d % len(_PALETTE)]
        cy = _MARGIN + d * _LANE_HEIGHT + _LANE_HEIGHT // 2
        lines.append([
            f'<text x="{_MARGIN}" y="{cy + _FONT_SIZE // 2}" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" '
            f'fill="{color}">dancer {d}</text>'
        ])
        dots.append([])
        if not total:  # the fragments serve steps only
            continue
        # a segment's middle and its end, solid after a forward facing and
        # dashed after a backward one (indexed by the facing bit), and a
        # dot's middle and the start of its label
        stroke = f'" y2="{cy}" stroke="{color}" stroke-width="2"'
        fragments.append((
            f'" y1="{cy}" x2="',
            (f"{stroke}/>", f'{stroke} stroke-dasharray="{_DASH}"/>'),
            f'" cy="{cy}" r="4" fill="{color}"/>\n<text x="',
            f'" y="{cy - 8}" text-anchor="middle" '
            f'font-family="monospace" font-size="{_FONT_SIZE}" fill="#333333">',
        ))

    prev_x = [str(_MARGIN + _LABEL_WIDTH)] * lanes  # where each lane's next segment starts
    before = list(plan.designated) if lanes else []  # and the facing it starts from
    step_x = _MARGIN + _LABEL_WIDTH + _STEP_WIDTH // 2
    for d, e, f in zip(dancers, events, facings):
        if 0 <= d < lanes:
            x = str(step_x)  # made text once, for both of the step's entries
            line_mid, line_end, dot_mid, label_start = fragments[d]
            lines[d].append(f'<line x1="{prev_x[d]}{line_mid}{x}{line_end[before[d]]}')
            dots[d].append(f'<circle cx="{x}{dot_mid}{x}{label_start}{labels[e]}</text>')
            prev_x[d] = x
            before[d] = f
        step_x += _STEP_WIDTH
    for mine, my_dots in zip(lines, dots):
        out += mine
        out += my_dots

    out.append("</svg>")
    return "\n".join(out) + "\n"
