"""SVG rendering: structure, determinism, filtering, and file output."""

import math
import re
import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

from fockpr import render
from fockpr.lattice import Lattice
from fockpr.pointset import IndexedPointSet
from fockpr.render import TAG_COLORS, render_points_svg, render_svg
from fockpr.sampler import opt_real_lattices


def circle_count(svg: str) -> int:
    return svg.count("<circle")


def test_document_structure():
    svg = render_points_svg({"A": [0.5 + 0.5j]}, radius=2.0, title="demo")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert 'width="1000.00"' in svg
    assert ">demo</text>" in svg
    # white background, frame, two axes
    assert svg.count("<rect") == 2
    assert svg.count('stroke="#bbbbbb"') == 2


def test_circle_counts_and_window_filter():
    groups = {"A": [0.0, 1.0 + 1.0j], "B": [-1.0j, 10.0, 1.0 + 3.0j]}
    svg = render_points_svg(groups, radius=2.0)
    # 3 points inside the window plus one legend marker per tag
    assert circle_count(svg) == 3 + 2
    assert svg.count(TAG_COLORS["A"]) >= 2
    assert svg.count(TAG_COLORS["B"]) >= 1


def test_determinism_and_group_order_independence():
    a = {"A": [0.3, -0.4j], "B": [1.0]}
    b = {"B": [1.0], "A": [0.3, -0.4j]}
    r1 = render_points_svg(a, radius=1.5)
    r2 = render_points_svg(a, radius=1.5)
    r3 = render_points_svg(b, radius=1.5)
    assert r1 == r2 == r3


def test_mesh_lines_present_only_when_requested():
    lat = Lattice(1.0, 1.0j)
    with_mesh = render_points_svg({"1": [0.2]}, 2.0, mesh_lattice=lat)
    without = render_points_svg({"1": [0.2]}, 2.0)
    assert with_mesh.count('stroke="#dddddd"') > 10
    assert without.count('stroke="#dddddd"') == 0


def test_tags_and_titles_are_escaped():
    svg = render_points_svg({"a&b": [0.1j], "<c>": [0.2]}, 1.0, title="x < y & z > w")
    texts = [el.text for el in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["<c>", "a&b", "x < y & z > w"]


def test_unknown_tags_get_fallback_colors():
    svg = render_points_svg({"points": [0.1], "extra": [0.2]}, radius=1.0)
    assert "#ff7f0e" in svg and "#17becf" in svg


def test_validation():
    with pytest.raises(ValueError, match="radius"):
        render_points_svg({"A": [0.0]}, radius=0.0)
    with pytest.raises(ValueError, match="nothing"):
        render_svg(np.array([], dtype=complex))
    with pytest.raises(ValueError, match="no lattice"):
        render_svg(np.array([1.0 + 1.0j]), mesh=True)


def test_array_route_autoscales():
    pts = np.array([3.0 + 0.0j, -1.0 + 2.0j])
    svg = render_svg(pts)
    # both points plus the single legend marker
    assert circle_count(svg) == 3


def test_point_set_route_with_mesh_and_file(tmp_path):
    lat = Lattice(1.0, 1.0j)
    ps = IndexedPointSet(lat, window_radius=2.0)
    ps.add((0, 0), "1", 0.01 + 0.02j)
    ps.add((1, 0), "2", -0.01j)
    out = tmp_path / "set.svg"
    text = render_svg(ps, path=out, mesh=True, title="window")
    assert out.read_text(encoding="ascii") == text
    assert circle_count(text) == 2 + 2
    assert TAG_COLORS["1"] in text and TAG_COLORS["2"] in text
    assert text.count('stroke="#dddddd"') > 10


def _mesh_lines_loop(lat, radius, to):
    """The per-point mesh loop render used before it drew one segment per lattice line (the oracle)."""
    lines = []
    _, pts = render.window_arrays(lat, radius * 1.5)
    for direction in (lat.omega1, lat.omega2):
        unit = direction / abs(direction)
        half = 0.75 * abs(direction)
        seen = set()
        for p in pts:
            a, b = complex(p) - half * unit, complex(p) + half * unit
            (x1, y1), (x2, y2) = to(a), to(b)
            key = (round(x1, 2), round(y1, 2), round(x2, 2), round(y2, 2))
            if key in seen:
                continue
            seen.add(key)
            lines.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="#dddddd" stroke-width="0.5"/>'
            )
    return sorted(lines)


_LINE_ENDS = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"')


def _segment_ends(lines):
    """The printed endpoints of ``<line>`` elements, as two complex arrays."""
    xy = np.array([[float(v) for v in _LINE_ENDS.match(line).groups()] for line in lines])
    return xy[:, 0] + 1j * xy[:, 1], xy[:, 2] + 1j * xy[:, 3]


@pytest.mark.parametrize(
    "lat, radius",
    [
        (Lattice(1.0, 1.0j), 3.0),
        # the lattice row at Im = 5 maps to y = 960 - (5 + 4.6) * 100, just below 0
        (Lattice(1.0, 0.3 + 1.0j), 4.6),
        (opt_real_lattices(0.45)[1], 12.0),
    ],
    ids=["square", "skew", "optreal_frame"],
)
def test_mesh_lines_cover_the_per_point_segments(lat, radius):
    to = render._Mapper(radius)
    # _mesh_lines gives blocks of lines joined by newlines
    start, stop = _segment_ends("\n".join(render._mesh_lines(lat, radius, to)).split("\n"))
    old = np.concatenate(_segment_ends(_mesh_lines_loop(lat, radius, to)))
    # every old endpoint lies on a new segment; each printed coordinate is
    # within 0.005 of its exact value, on both sides, so the printed points
    # lie within 2 * 0.005 * sqrt(2) of the printed segments
    d = stop - start
    t = np.clip(((old[:, None] - start) * d.conj()).real / np.abs(d) ** 2, 0.0, 1.0)
    gap = np.abs(old[:, None] - (start + t * d)).min(axis=1)
    assert gap.max() <= 0.01 * math.sqrt(2) + 1e-9
    # every new endpoint is an old one, as printed (-0.00 reads as 0.00)
    assert set(np.concatenate([start, stop]).tolist()) <= set(old.tolist())
    # one segment per lattice line through the window, in either direction
    idx, _ = render.window_arrays(lat, 1.5 * radius)
    assert len(start) == len(np.unique(idx[:, 0])) + len(np.unique(idx[:, 1]))


def test_circles_match_the_per_point_route():
    pts = [0.5, -1.0 + 0.25j, 2.5 + 0.1j, complex(-2.0, 2.0), 1e-9 - 2.0j]
    svg = render_points_svg({"A": pts, "B": iter(pts[:2])}, radius=2.0)
    to = render._Mapper(2.0)
    for tag, group in (("A", pts), ("B", pts[:2])):
        for z in group:
            x, y = to(complex(z))
            circle = (
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.00" '
                f'fill="{TAG_COLORS[tag]}" fill-opacity="0.85"/>'
            )
            assert (circle in svg) == (abs(z.real) <= 2.0 and abs(z.imag) <= 2.0)


def test_render_with_mesh_peaks_near_twice_its_text():
    # each block is appended to the text as it is formed; joining a list of
    # all the blocks at the end held both, and peaked at 2.27 times the text
    lat = Lattice(0.45, 0.45j)
    ps = IndexedPointSet(lat, window_radius=25.0)
    idx, _ = render.window_arrays(lat, 25.0)
    for k, tag in enumerate("ABC"):
        for index in idx.tolist():
            ps.add(index, tag, 0.1 * k * (1 + 1j))
    render_svg(ps.points()[:3])  # numpy's lazy imports outside the trace
    ps.points()  # the columns are packed before the trace starts
    tracemalloc.start()
    try:
        text = render_svg(ps, mesh=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 167 lattice lines through the window in each direction, and the two axes
    assert text.count("<line") == 336
    assert peak < 2.0 * len(text)
