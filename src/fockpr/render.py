"""Static SVG scatter plots of point sets.

Fixed 1000 x 1000 canvas; the square window ``[-R, R]^2`` maps linearly
onto it with the imaginary axis pointing up.  Entries are colored by
tag; the underlying lattice can be drawn as a mesh of basis-direction
lines.  Output is a pure function of the inputs (coordinates are
formatted to fixed precision), so identical runs produce identical
bytes.  Circles and mesh segments are formatted into one string per
block of ``_BLOCK`` elements, the document is joined once, and the file
is written in slices.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

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
_MESH_LINE = b'<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#dddddd" stroke-width="0.5"/>'
# circles or mesh segments formatted into one string together
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


def _chunks(values: np.ndarray, size: int = _BLOCK):
    return (values[s : s + size] for s in range(0, len(values), size))


def _fill(template: str, *columns: np.ndarray) -> list[str]:
    """``template % row`` for each row of the equally long ``columns``, in blocks.

    Each block of ``_BLOCK`` rows is one string, its rows joined by ``"\n"``.
    """
    return [
        "\n".join([template] * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in _chunks(np.stack(columns, axis=1))
    ]


def _tokens(values: np.ndarray) -> np.ndarray:
    """``%.2f`` tokens of a float array, as a bytes array of its shape.

    A block of tokens is formatted at once, each padded to the width of
    the longest; the padding becomes the NUL bytes a bytes array pads with.
    """
    finite = np.abs(values[np.isfinite(values)])
    # the longest token: a sign, the digits of the largest magnitude, two decimals
    width = len("%.2f" % -finite.max(initial=0.0))
    text = b"".join(
        (f"%-{width}.2f" * len(chunk) % tuple(chunk.tolist())).encode("ascii").replace(b" ", b"\0")
        for chunk in _chunks(values.ravel(), 4 * _BLOCK)
    )
    return np.frombuffer(text, dtype=f"S{width}").reshape(values.shape)


def _mesh_lines(lat: Lattice, radius: float, to: _Mapper) -> list[str]:
    """Segments through every window point along both basis directions, sorted, in blocks."""
    kept = []
    _, pts = window_arrays(lat, radius * 1.5)
    for direction in (lat.omega1, lat.omega2):
        unit = direction / abs(direction)
        half = 0.75 * abs(direction)
        (x1, y1), (x2, y2) = to(pts - half * unit), to(pts + half * unit)
        tokens = _tokens(np.stack([x1, y1, x2, y2], axis=1))
        # segments that print alike are drawn once, the first as it printed;
        # a coordinate printing as -0.00 counts as 0.00
        keys = np.where(tokens == b"-0.00", b"0.00", tokens)
        _, first = np.unique(keys, axis=0, return_index=True)
        kept.append(tokens[first])
    tokens = np.concatenate(kept)
    # a token ends in exactly two decimals, so none is a prefix of another
    # and the order of the token rows is the order of the lines
    tokens = tokens[np.lexsort(tokens.T[::-1])]
    return [
        (b"\n".join([_MESH_LINE] * len(chunk)) % tuple(chunk.ravel().tolist())).decode("ascii")
        for chunk in _chunks(tokens)
    ]


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
    to = _Mapper(radius)
    # the document is joined once from its lines and line blocks
    body: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(CANVAS)}" '
        f'height="{_fmt(CANVAS)}" viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">',
        f'<rect x="0" y="0" width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="#ffffff"/>',
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
                f'<circle cx="%.2f" cy="%.2f" r="{_fmt(_POINT_RADIUS)}" '
                f'fill="{color}" fill-opacity="0.85"/>',
                *to(z),
            )
        )
        body.append(
            f'<circle cx="{_fmt(CANVAS - 3 * MARGIN)}" cy="{_fmt(legend_y)}" r="5.00" fill="{color}"/>'
        )
        body.append(
            f'<text x="{_fmt(CANVAS - 3 * MARGIN + 12)}" y="{_fmt(legend_y + 4)}" '
            f'font-family="monospace" font-size="14">{_escape(tag)}</text>'
        )
        legend_y += 22.0
    if title:
        body.append(
            f'<text x="{_fmt(MARGIN)}" y="{_fmt(MARGIN - 14)}" '
            f'font-family="monospace" font-size="16">{_escape(title)}</text>'
        )
    body.append("</svg>\n")
    return "\n".join(body)


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
        jsonio.write_text(text, path)
    return text
