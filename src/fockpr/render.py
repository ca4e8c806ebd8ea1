"""Static SVG scatter plots of point sets.

Fixed 1000 x 1000 canvas; the square window ``[-R, R]^2`` maps linearly
onto it with the imaginary axis pointing up.  Entries are colored by
tag; the underlying lattice can be drawn as a mesh of basis-direction
lines.  Output is a pure function of the inputs (coordinates are
formatted to fixed precision), so identical runs produce identical
bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

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
_FALLBACK_COLORS = ("#ff7f0e", "#17becf", "#bcbd22", "#7f7f7f")


def _fmt(x: float) -> str:
    return format(x, ".2f")


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


def _fill(template: str, *columns: np.ndarray) -> list[str]:
    """``template % row`` for each row of the equally long ``columns``, in bulk."""
    if not len(columns[0]):
        return []
    values = np.stack(columns, axis=1).ravel().tolist()
    return ("\0".join([template] * len(columns[0])) % tuple(values)).split("\0")


def _mesh_lines(lat: Lattice, radius: float, to: _Mapper) -> list[str]:
    """Segments through every window point along both basis directions."""
    lines: list[str] = []
    _, pts = window_arrays(lat, radius * 1.5)
    for direction in (lat.omega1, lat.omega2):
        unit = direction / abs(direction)
        half = 0.75 * abs(direction)
        (x1, y1), (x2, y2) = to(pts - half * unit), to(pts + half * unit)
        texts = _fill(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" stroke-width="0.5"/>',
            x1, y1, x2, y2,
        )
        # segments that print alike are drawn once, the first as it printed;
        # a coordinate printing as -0.00 counts as 0.00
        keys = [t.replace('"-0.00"', '"0.00"') for t in texts]
        lines.extend(dict(zip(reversed(keys), reversed(texts))).values())
    return sorted(lines)


def _color_for(tag: str, assigned: dict[str, str]) -> str:
    if tag not in assigned:
        pool = [c for c in _FALLBACK_COLORS if c not in assigned.values()]
        assigned[tag] = pool[0] if pool else "#000000"
    return assigned[tag]


def render_points_svg(
    groups: Mapping[str, Iterable[complex]],
    radius: float,
    mesh_lattice: Lattice | None = None,
    point_radius: float = 3.0,
    title: str | None = None,
) -> str:
    """SVG document for tagged point groups on the window ``[-R, R]^2``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    to = _Mapper(radius)
    body: list[str] = [
        f'<rect x="0" y="0" width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="#ffffff"/>'
    ]
    if mesh_lattice is not None:
        body.extend(_mesh_lines(mesh_lattice, radius, to))
    # window frame and axes
    lo, hi = to(complex(-radius, radius)), to(complex(radius, -radius))
    body.append(
        f'<rect x="{_fmt(lo[0])}" y="{_fmt(lo[1])}" width="{_fmt(hi[0] - lo[0])}" '
        f'height="{_fmt(hi[1] - lo[1])}" fill="none" stroke="#888888" stroke-width="1"/>'
    )
    cx, cy = to(0j)
    body.append(
        f'<line x1="{_fmt(lo[0])}" y1="{_fmt(cy)}" x2="{_fmt(hi[0])}" y2="{_fmt(cy)}" '
        f'stroke="#bbbbbb" stroke-width="0.7"/>'
    )
    body.append(
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
        body.extend(
            _fill(
                f'<circle cx="%.2f" cy="%.2f" r="{_fmt(point_radius)}" '
                f'fill="{color}" fill-opacity="0.85"/>',
                *to(z),
            )
        )
        body.append(
            f'<circle cx="{_fmt(CANVAS - 3 * MARGIN)}" cy="{_fmt(legend_y)}" r="5.00" fill="{color}"/>'
        )
        body.append(
            f'<text x="{_fmt(CANVAS - 3 * MARGIN + 12)}" y="{_fmt(legend_y + 4)}" '
            f'font-family="monospace" font-size="14">{tag}</text>'
        )
        legend_y += 22.0
    if title:
        body.append(
            f'<text x="{_fmt(MARGIN)}" y="{_fmt(MARGIN - 14)}" '
            f'font-family="monospace" font-size="16">{title}</text>'
        )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(CANVAS)}" '
        f'height="{_fmt(CANVAS)}" viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">'
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def render_svg(
    obj: IndexedPointSet | np.ndarray,
    path: str | Path | None = None,
    mesh: bool = False,
    title: str | None = None,
) -> str:
    """Render a point set (tag colors) or plain point array (one color)."""
    if isinstance(obj, IndexedPointSet):
        groups = {tag: obj.points([tag]) for tag in obj.tags()}
        radius = obj.window_radius
        mesh_lat = obj.lattice if mesh else None
    else:
        pts = np.asarray(obj, dtype=complex).ravel()
        if len(pts) == 0:
            raise ValueError("nothing to render")
        radius = float(np.max(np.maximum(np.abs(pts.real), np.abs(pts.imag)))) * 1.05
        radius = max(radius, 1e-6)
        groups = {"points": pts}
        mesh_lat = None
    text = render_points_svg(groups, radius, mesh_lattice=mesh_lat, title=title)
    if path is not None:
        Path(path).write_text(text, encoding="ascii")
    return text
