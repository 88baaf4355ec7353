"""SVG emitter tests: well-formedness, geometry, determinism, and a
differential test against the emitter as it was before the bar layout was
shared between charts."""

import math
import re
import xml.etree.ElementTree as ET
from html import escape

import pytest
from hypothesis import given, settings, strategies as st

from trustconnect import svgchart
from trustconnect.svgchart import PALETTE, grouped_bar_svg

LABELS = ["E0", "E1", "E2"]
SERIES = [
    ("btv", [2.0, 3.0, 1.0]),
    ("trust", [1.5, 3.0, 0.5]),
    ("eatv", [1.9, 3.0, 0.8]),
]


def test_is_well_formed_xml():
    svg = grouped_bar_svg("demo", LABELS, SERIES)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_one_bar_per_label_per_series():
    svg = grouped_bar_svg("demo", LABELS, SERIES)
    root = ET.fromstring(svg)
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    # background + 9 bars + 3 legend swatches
    assert len(rects) == 1 + 9 + 3


def test_title_labels_and_legend_present():
    svg = grouped_bar_svg("k=0.5 alpha=0.1", LABELS, SERIES)
    for needle in ["k=0.5 alpha=0.1", "E0", "E1", "E2", "btv", "trust", "eatv"]:
        assert needle in svg


def test_tallest_bar_fills_plot_height():
    svg = grouped_bar_svg("demo", ["a"], [("s", [4.0])])
    root = ET.fromstring(svg)
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    bar = rects[1]
    assert float(bar.get("height")) == 360 - 34 - 46


def test_all_zero_values_do_not_crash():
    svg = grouped_bar_svg("demo", ["a", "b"], [("s", [0.0, 0.0])])
    root = ET.fromstring(svg)
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    assert float(rects[1].get("height")) == 0.0


def test_negative_values_clamp_to_zero_height():
    svg = grouped_bar_svg("demo", ["a", "b"], [("s", [-1.0, 2.0])])
    root = ET.fromstring(svg)
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    assert float(rects[1].get("height")) == 0.0
    assert float(rects[2].get("height")) > 0.0


def test_label_escaping():
    svg = grouped_bar_svg("a <b> & c", ["x<y"], [("s&t", [1.0])])
    ET.fromstring(svg)
    assert "a &lt;b&gt; &amp; c" in svg


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        grouped_bar_svg("demo", ["a", "b"], [("s", [1.0])])


def test_deterministic():
    a = grouped_bar_svg("demo", LABELS, SERIES)
    b = grouped_bar_svg("demo", LABELS, SERIES)
    assert a == b


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_rejected_naming_series_and_label(bad):
    with pytest.raises(ValueError, match=r"series 'trust' has non-finite value .* label 'E1'"):
        grouped_bar_svg("demo", LABELS, [SERIES[0], ("trust", [1.5, bad, 0.5])])


def test_rejected_chart_does_no_layout_work():
    before = svgchart._bar_layout.cache_info()
    for series in ([("s", [1.0])], [("s", [1.0, math.nan])], [("s", [1e308, 1.0])]):
        with pytest.raises(ValueError):
            grouped_bar_svg("demo", ["never", "drawn"], series)
    assert svgchart._bar_layout.cache_info() == before


def test_finite_values_whose_sum_overflows_are_accepted():
    # the bulk finite check is a sum: this one overflows, yet every bar is finite
    labels = [f"E{i}" for i in range(400)]
    series = [("s", [6e305] * 400)]
    assert math.isinf(sum(series[0][1]))
    assert grouped_bar_svg("demo", labels, series) == _reference_svg("demo", labels, series)


def test_a_peak_whose_bar_height_overflows_is_rejected_naming_it():
    with pytest.raises(ValueError, match=r"^peak value 1e\+308 is too large to chart$"):
        grouped_bar_svg("demo", ["a", "b"], [("s", [1e308, 1e308])])


def _reference_svg(title, labels, series):
    """``grouped_bar_svg`` as it was when every chart formatted every bar itself."""
    fmt = "{:.2f}".format
    width, height = 960, 360
    plot_w, plot_h = width - 56 - 16, height - 34 - 46
    x0, y0 = 56, 34
    baseline = y0 + plot_h
    peak = max((max(values) for _, values in series if values), default=0.0)
    if peak <= 0:
        peak = 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{fmt(width / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>',
    ]
    for step in range(5):
        value = peak * step / 4
        y = baseline - plot_h * step / 4
        parts.append(
            f'<line x1="{x0}" y1="{fmt(y)}" x2="{x0 + plot_w}" y2="{fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{value:.3g}</text>'
        )
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
                    f'<rect x="{fmt(bx)}" y="{fmt(baseline - bar_h)}" '
                    f'width="{fmt(bar_w)}" height="{fmt(bar_h)}" '
                    f'fill="{PALETTE[si % len(PALETTE)]}"/>'
                )
            parts.append(
                f'<text x="{fmt(gx + group_w / 2)}" y="{fmt(baseline + 14)}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="9">'
                f"{escape(label, quote=False)}</text>"
            )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{baseline}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{baseline}" x2="{x0 + plot_w}" y2="{baseline}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    lx, ly = x0, baseline + 30
    for si, (name, _) in enumerate(series):
        parts.append(
            f'<rect x="{fmt(lx)}" y="{ly - 9}" width="10" height="10" '
            f'fill="{PALETTE[si % len(PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{fmt(lx + 14)}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(name, quote=False)}</text>'
        )
        lx += 20 + 7 * len(name)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# text that the % template and the XML escape both have to get right
_texts = st.text(alphabet=["a", "%", "s", "d", "(", ")", "&", "<", ">", '"', "'", " ",
                           "\u00e9", "\u6f22", "\U0001f697"], max_size=5)
# a non-finite number as an attribute value or a tick label (no text draws "i", "n" or "f")
_NON_FINITE = re.compile(r'"-?(inf|nan)"|>-?(inf|nan)<')
_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 0, 1, -1]),
    st.integers(-10, 10),
)


@settings(max_examples=150)
@given(data=st.data(), label_lists=st.lists(st.lists(_texts, max_size=6), min_size=1, max_size=3))
def test_every_chart_matches_the_reference_byte_for_byte(data, label_lists):
    # a run of charts that reuse a label list (a cache hit), switch lists or
    # series counts (an eviction), or repeat a count with new values
    for _ in range(data.draw(st.integers(1, 6), label="charts")):
        labels = data.draw(st.sampled_from(label_lists), label="labels")
        names = data.draw(st.lists(_texts, max_size=5), label="series names")
        series = [(name, data.draw(st.lists(_values, min_size=len(labels),
                                            max_size=len(labels)), label="values"))
                  for name in names]
        title = data.draw(_texts, label="title")
        reference = _reference_svg(title, labels, series)
        if _NON_FINITE.search(reference):  # the tallest bar's height overflowed
            with pytest.raises(ValueError, match="too large to chart"):
                grouped_bar_svg(title, labels, series)
        else:
            assert grouped_bar_svg(title, labels, series) == reference
