"""Minimal grouped-bar SVG emitter.

Pure string assembly, so identical inputs always produce identical
bytes. Values below zero are clamped to zero-height bars; the y axis
always starts at 0 and tops out at the largest value in any series.
"""

from __future__ import annotations

import math
from functools import lru_cache
from html import escape
from itertools import chain

PALETTE = ("#4878a8", "#e8923c", "#6aa84f", "#a84848", "#7a5aa8")

_WIDTH = 960
_HEIGHT = 360
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_BASELINE = _MARGIN_TOP + _PLOT_H


@lru_cache(maxsize=1)
def _bar_layout(labels: tuple[str, ...], n_series: int) -> str:
    """Bar and label lines with ``%.2f`` slots for each bar's y and height, ``%`` doubled."""
    group_w = _PLOT_W / max(len(labels), 1)
    bar_w = group_w * 0.8 / max(n_series, 1)
    width, label_y = f"{bar_w:.2f}", f"{_BASELINE + 14:.2f}"
    lines = []
    for gi, label in enumerate(labels):
        gx = _MARGIN_LEFT + gi * group_w
        for si in range(n_series):
            lines.append(
                f'<rect x="{gx + group_w * 0.1 + si * bar_w:.2f}" y="%.2f" '
                f'width="{width}" height="%.2f" fill="{PALETTE[si % len(PALETTE)]}"/>\n'
            )
        lines.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{label_y}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="9">'
            f'{escape(label, quote=False).replace("%", "%%")}</text>\n'
        )
    return "".join(lines)


def grouped_bar_svg(
    title: str, labels: list[str], series: list[tuple[str, list[float]]]
) -> str:
    """Render one grouped-bar chart: one group per label, one bar per series.

    ``series`` is an ordered list of (name, values) pairs; every values
    list must have one entry per label, and every value must be finite.
    """
    for name, values in series:
        if len(values) != len(labels):
            raise ValueError(f"series {name!r} has {len(values)} values for {len(labels)} labels")
        if not math.isfinite(sum(values)):  # a finite sum proves every value finite
            for label, value in zip(labels, values):
                if not math.isfinite(value):
                    raise ValueError(
                        f"series {name!r} has non-finite value {value!r} for label {label!r}")
    x0 = _MARGIN_LEFT
    peak = max((max(values) for _, values in series if values), default=0.0)
    if peak <= 0:
        peak = 1.0
    if not math.isfinite(_PLOT_H * peak):  # below this, every height and tick is finite
        raise ValueError(f"peak value {peak!r} is too large to chart")

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>',
    ]

    # y axis with five gridline ticks, 0 through peak
    for step in range(5):
        y = _BASELINE - _PLOT_H * step / 4
        head += [
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x0 + _PLOT_W}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>',
            f'<text x="{x0 - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{peak * step / 4:.3g}</text>',
        ]

    # bars: per label, each series' y then height, filled into the layout that
    # every chart with these labels and series count shares (a sweep's 16 do)
    columns = []
    for _, values in series:
        heights = [_PLOT_H * (v if v >= 0.0 else 0.0) / peak for v in values]  # max(v, 0.0)
        columns += ([_BASELINE - h for h in heights], heights)
    bars = _bar_layout(tuple(labels), len(series)) % tuple(chain.from_iterable(zip(*columns)))

    # axis lines on top of the bars
    tail = [
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{_BASELINE}" '
        f'stroke="#333333" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{_BASELINE}" x2="{x0 + _PLOT_W}" y2="{_BASELINE}" '
        f'stroke="#333333" stroke-width="1"/>',
    ]

    # legend, bottom-left under the axis
    lx, ly = x0, _BASELINE + 30
    for si, (name, _) in enumerate(series):
        tail += [
            f'<rect x="{lx:.2f}" y="{ly - 9}" width="10" height="10" '
            f'fill="{PALETTE[si % len(PALETTE)]}"/>',
            f'<text x="{lx + 14:.2f}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(name, quote=False)}</text>',
        ]
        lx += 20 + 7 * len(name)
    return "\n".join(head) + "\n" + bars + "\n".join(tail) + "\n</svg>\n"
