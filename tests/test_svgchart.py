"""SVG emission: well-formed XML, stable output."""

import xml.etree.ElementTree as ET

from interestprof.svgchart import heatmap, line_chart
from interestprof.taxonomy import TOPICS


def test_line_chart_is_well_formed_xml():
    svg = line_chart(
        [("occ", [(5, 0.85), (10, 0.75), (50, 0.95)]), ("prob", [(5, 0.6), (50, 0.7)])],
        title="accuracy", x_label="images", y_label="accuracy",
    )
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_line_chart_escapes_labels():
    svg = line_chart([("a<b&c", [(0, 0), (1, 1)])], title="t<1>")
    ET.fromstring(svg)
    assert "a<b&c" not in svg
    assert ">a&lt;b&amp;c</text>" in svg and ">t&lt;1&gt;</text>" in svg


def test_line_chart_deterministic():
    series = [("s", [(1, 0.25), (2, 0.5)])]
    assert line_chart(series) == line_chart(series)


def test_heatmap_renders_nan_as_gray():
    values = [[None for _ in TOPICS] for _ in TOPICS]
    values[0][1] = 0.75
    values[1][0] = -0.75
    svg = heatmap(values, TOPICS, title="rho")
    root = ET.fromstring(svg)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == len(TOPICS) ** 2 + 1  # background + one per cell
    assert "#dddddd" in svg
