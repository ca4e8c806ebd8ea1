"""Static SVG scatter plots of point sets.

Fixed 1000 x 1000 canvas; the square window ``[-R, R]^2`` maps linearly
onto it with the imaginary axis pointing up.  Entries are colored by
tag; the underlying lattice can be drawn as a mesh with one segment
per lattice line along each basis direction.  Output is a pure function
of the inputs (coordinates are formatted to fixed precision), so
identical runs produce identical bytes.  Circles and mesh lines are
formatted into one string per block of ``_BLOCK`` elements, each block is
appended to the document as it is formed, and the file is written in
slices.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import jsonio
from .lattice import Lattice, window_arrays
from .pointset import IndexedPointSet

__all__ = ["TAG_COLORS", "render_svg", "render_points_svg"]

CANVAS = 1000.0
MARGIN = 40.0

TAG_COLORS: dict[str, str] = {
    "A": "#d62728",
    "B": "#1f77b4",
    "C": "#2ca02c",
    "1": "#9467bd",
    "2": "#8c564b",
    "3": "#e377c2",
}
# radius of each sample's circle, in canvas units
_POINT_RADIUS = 3.0
_FALLBACK_COLORS = ("#ff7f0e", "#17becf", "#bcbd22", "#7f7f7f")
# circles or mesh lines formatted into one string together
_BLOCK = 1 << 12


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _escape(text: str) -> str:
    """``text`` as SVG character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Mapper:
    """Window coordinates to canvas coordinates, for a complex scalar or array."""

    def __init__(self, radius: float):
        self.radius = radius
        self.scale = (CANVAS - 2.0 * MARGIN) / (2.0 * radius)

    def __call__(self, z):
        return (
            MARGIN + (z.real + self.radius) * self.scale,
            CANVAS - MARGIN - (z.imag + self.radius) * self.scale,
        )


def _fill(template: str, *columns: np.ndarray) -> Iterator[str]:
    """``template % row`` for each row of the equally long ``columns``, in blocks.

    Each block of ``_BLOCK`` rows is one string, its rows joined by ``"\n"``;
    a block is formatted when it is asked for.
    """
    rows = np.stack(columns, axis=1)
    for chunk in (rows[s : s + _BLOCK] for s in range(0, len(rows), _BLOCK)):
        yield "\n".join([template] * len(chunk)) % tuple(chunk.ravel().tolist())


def _mesh_lines(lat: Lattice, radius: float, to: _Mapper) -> Iterator[str]:
    """One segment along each lattice line through the window points, in blocks.

    The lines along ``omega1`` come first, then those along ``omega2``, each
    set in order of the index that stays fixed along them.  A line runs from
    its least window point ``- 0.75 * omega`` to its greatest ``+ 0.75 * omega``;
    the window is a disk, so its points on one line are one contiguous run.
    """
    idx, pts = window_arrays(lat, radius * 1.5)
    starts, stops = [], []
    for k, direction in enumerate((lat.omega1, lat.omega2)):
        # 0.75 |omega| along the unit vector, so each end is bit for bit an end
        # of the 1.5 |omega| segment centred on its window point
        step = 0.75 * abs(direction) * (direction / abs(direction))
        # by line, then along it
        order = np.lexsort((idx[:, k], idx[:, 1 - k]))
        _, first, count = np.unique(idx[order, 1 - k], return_index=True, return_counts=True)
        starts.append(pts[order[first]] - step)
        stops.append(pts[order[first + count - 1]] + step)
    return _fill(
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" stroke-width="0.5"/>',
        *to(np.concatenate(starts)),
        *to(np.concatenate(stops)),
    )


def _color_for(tag: str, assigned: dict[str, str]) -> str:
    if tag not in assigned:
        pool = [c for c in _FALLBACK_COLORS if c not in assigned.values()]
        assigned[tag] = pool[0] if pool else "#000000"
    return assigned[tag]


def render_points_svg(
    groups: Mapping[str, Iterable[complex]],
    radius: float,
    mesh_lattice: Lattice | None = None,
    title: str | None = None,
) -> str:
    """SVG document for tagged point groups on the window ``[-R, R]^2``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    # each line or block is appended as it is formed, not joined from a list at
    # the end: CPython grows a string only this name holds in place, so the
    # blocks are not held beside the document
    text = ""
    for line in _document(groups, radius, mesh_lattice, title):
        text += line
        text += "\n"
    return text


def _document(
    groups: Mapping[str, Iterable[complex]],
    radius: float,
    mesh_lattice: Lattice | None,
    title: str | None,
) -> Iterator[str]:
    """The lines and line blocks of the document, in order, each to be ended by a newline."""
    to = _Mapper(radius)
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(CANVAS)}" '
        f'height="{_fmt(CANVAS)}" viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">'
    )
    yield f'<rect x="0" y="0" width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="#ffffff"/>'
    if mesh_lattice is not None:
        yield from _mesh_lines(mesh_lattice, radius, to)
    # window frame and axes
    lo, hi = to(complex(-radius, radius)), to(complex(radius, -radius))
    yield (
        f'<rect x="{_fmt(lo[0])}" y="{_fmt(lo[1])}" width="{_fmt(hi[0] - lo[0])}" '
        f'height="{_fmt(hi[1] - lo[1])}" fill="none" stroke="#888888" stroke-width="1"/>'
    )
    cx, cy = to(0j)
    yield (
        f'<line x1="{_fmt(lo[0])}" y1="{_fmt(cy)}" x2="{_fmt(hi[0])}" y2="{_fmt(cy)}" '
        f'stroke="#bbbbbb" stroke-width="0.7"/>'
    )
    yield (
        f'<line x1="{_fmt(cx)}" y1="{_fmt(lo[1])}" x2="{_fmt(cx)}" y2="{_fmt(hi[1])}" '
        f'stroke="#bbbbbb" stroke-width="0.7"/>'
    )
    assigned = dict(TAG_COLORS)
    legend_y = MARGIN
    for tag in sorted(groups):
        color = _color_for(tag, assigned)
        z = groups[tag]
        z = np.asarray(z if isinstance(z, np.ndarray) else list(z), dtype=complex).ravel()
        z = z[~((np.abs(z.real) > radius) | (np.abs(z.imag) > radius))]
        yield from _fill(
            f'<circle cx="%.2f" cy="%.2f" r="{_fmt(_POINT_RADIUS)}" '
            f'fill="{color}" fill-opacity="0.85"/>',
            *to(z),
        )
        yield (
            f'<circle cx="{_fmt(CANVAS - 3 * MARGIN)}" cy="{_fmt(legend_y)}" r="5.00" fill="{color}"/>'
        )
        yield (
            f'<text x="{_fmt(CANVAS - 3 * MARGIN + 12)}" y="{_fmt(legend_y + 4)}" '
            f'font-family="monospace" font-size="14">{_escape(tag)}</text>'
        )
        legend_y += 22.0
    if title:
        yield (
            f'<text x="{_fmt(MARGIN)}" y="{_fmt(MARGIN - 14)}" '
            f'font-family="monospace" font-size="16">{_escape(title)}</text>'
        )
    yield "</svg>"


def render_svg(
    obj: IndexedPointSet | np.ndarray,
    path: str | Path | None = None,
    mesh: bool = False,
    title: str | None = None,
) -> str:
    """Render a point set (tag colors, optional lattice mesh) or plain point array (one color)."""
    if isinstance(obj, IndexedPointSet):
        groups = {tag: obj.points([tag]) for tag in obj.tags()}
        radius = obj.window_radius
        mesh_lat = obj.lattice if mesh else None
    else:
        if mesh:
            raise ValueError("a plain point array has no lattice to draw a mesh of")
        pts = np.asarray(obj, dtype=complex).ravel()
        if len(pts) == 0:
            raise ValueError("nothing to render")
        radius = float(np.max(np.maximum(np.abs(pts.real), np.abs(pts.imag)))) * 1.05
        radius = max(radius, 1e-6)
        groups = {"points": pts}
        mesh_lat = None
    text = render_points_svg(groups, radius, mesh_lattice=mesh_lat, title=title)
    if path is not None:
        jsonio.write_text(text, path)
    return text
