"""Minimal grouped-bar SVG emitter.

Pure string assembly, so identical inputs always produce identical
bytes. Values below zero are clamped to zero-height bars; the y axis
always starts at 0 and tops out at the largest value in any series.
"""

from __future__ import annotations

from html import escape

PALETTE = ("#4878a8", "#e8923c", "#6aa84f", "#a84848", "#7a5aa8")

_WIDTH = 960
_HEIGHT = 360
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def grouped_bar_svg(
    title: str,
    labels: list[str],
    series: list[tuple[str, list[float]]],
) -> str:
    """Render one grouped-bar chart: one group per label, one bar per series.

    ``series`` is an ordered list of (name, values) pairs; every values
    list must have one entry per label.
    """
    for name, values in series:
        if len(values) != len(labels):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(labels)} labels"
            )
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    baseline = y0 + plot_h
    peak = max(
        (max(values) for _, values in series if values),
        default=0.0,
    )
    if peak <= 0:
        peak = 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>',
    ]

    # y axis with five gridline ticks, 0 through peak
    for step in range(5):
        value = peak * step / 4
        y = baseline - plot_h * step / 4
        parts.append(
            f'<line x1="{x0}" y1="{_fmt(y)}" x2="{x0 + plot_w}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{value:.3g}</text>'
        )

    # bars
    if labels:
        group_w = plot_w / len(labels)
        bar_w = group_w * 0.8 / max(len(series), 1)
        for gi, label in enumerate(labels):
            gx = x0 + gi * group_w
            for si, (_, values) in enumerate(series):
                v = max(values[gi], 0.0)
                bar_h = plot_h * v / peak
                bx = gx + group_w * 0.1 + si * bar_w
                parts.append(
                    f'<rect x="{_fmt(bx)}" y="{_fmt(baseline - bar_h)}" '
                    f'width="{_fmt(bar_w)}" height="{_fmt(bar_h)}" '
                    f'fill="{PALETTE[si % len(PALETTE)]}"/>'
                )
            parts.append(
                f'<text x="{_fmt(gx + group_w / 2)}" y="{_fmt(baseline + 14)}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="9">'
                f"{escape(label, quote=False)}</text>"
            )

    # axis lines on top of the bars
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{baseline}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{baseline}" x2="{x0 + plot_w}" y2="{baseline}" '
        f'stroke="#333333" stroke-width="1"/>'
    )

    # legend, bottom-left under the axis
    lx = x0
    ly = baseline + 30
    for si, (name, _) in enumerate(series):
        parts.append(
            f'<rect x="{_fmt(lx)}" y="{ly - 9}" width="10" height="10" '
            f'fill="{PALETTE[si % len(PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 14)}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(name, quote=False)}</text>'
        )
        lx += 20 + 7 * len(name)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
