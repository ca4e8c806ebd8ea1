"""Planar lattices: enumeration, density, and growth classification.

A lattice is ``{m*omega1 + n*omega2 + shift : m, n integers}`` with the
basis oriented so the fundamental cell has positive area
``s = Im(conj(omega1) * omega2)``.  Against the Gaussian weight
``exp(-alpha*|z|^2)`` a lattice is *Liouville* when ``s < pi/alpha``
(every entire function of order-two type ``alpha/2`` that is bounded on
the lattice in the weighted sense is forced to be trivial along it) and
a *uniqueness threshold* case when ``s <= pi/alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "LatticeIndex",
    "Lattice",
    "square_lattice",
    "enumerate_window",
    "window_arrays",
]


class LatticeIndex(NamedTuple):
    m: int
    n: int


@dataclass(frozen=True)
class Lattice:
    """Oriented lattice ``omega1*Z + omega2*Z + shift``; the three are stored as ``complex``."""

    omega1: complex
    omega2: complex
    shift: complex = 0j

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "shift"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if not (self.area > 0.0):
            raise ValueError(
                f"basis must be positively oriented: Im(conj(omega1)*omega2) = {self.area}"
            )

    @property
    def area(self) -> float:
        """Fundamental cell area ``Im(conj(omega1) * omega2)``."""
        return (self.omega1.conjugate() * self.omega2).imag

    @property
    def density(self) -> float:
        """Points per unit area, ``1/area``."""
        return 1.0 / self.area

    def point(self, index: tuple[int, int]) -> complex:
        m, n = index
        return m * self.omega1 + n * self.omega2 + self.shift

    def coords(self, z: complex) -> tuple[float, float]:
        """Real coordinates (x, y) with ``z = x*omega1 + y*omega2 + shift``."""
        w = z - self.shift
        s = self.area
        # Cramer solve of the 2x2 real system.
        x = (w.real * self.omega2.imag - w.imag * self.omega2.real) / s
        y = (w.imag * self.omega1.real - w.real * self.omega1.imag) / s
        return (x, y)

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
        x, y = self.coords(z)
        m, n = round(x), round(y)
        return abs(z - self.point((m, n))) <= tol

    def index_of(self, z: complex, tol: float = 1e-9) -> LatticeIndex:
        m, n = self.indices_of([z], tol)[0].tolist()
        return LatticeIndex(m, n)

    def indices_of(self, z, tol: float = 1e-9) -> np.ndarray:
        """Indices of the lattice points ``z`` as a (k, 2) int array.

        Raises when any point is farther than ``tol`` from the lattice.
        """
        z = np.asarray(z, dtype=complex).ravel()
        x, y = self.coords(z)
        m, n = np.rint(x).astype(np.int64), np.rint(y).astype(np.int64)
        off = np.flatnonzero(np.abs(z - self.point((m, n))) > tol)
        if off.size:
            raise ValueError(f"{complex(z[off[0]])} is not a lattice point (tol={tol})")
        return np.stack([m, n], axis=1)

    def is_liouville(self, alpha: float) -> bool:
        """Strict growth domination: cell area below ``pi/alpha``."""
        if alpha <= 0:
            raise ValueError("weight alpha must be positive")
        return self.area < math.pi / alpha

    def is_uniqueness(self, alpha: float) -> bool:
        """Zero-set uniqueness: cell area at most ``pi/alpha`` (equality included)."""
        if alpha <= 0:
            raise ValueError("weight alpha must be positive")
        return self.area <= math.pi / alpha

    def is_conjugation_closed(self, tol: float = 1e-9) -> bool:
        """True when the unshifted lattice is closed under complex conjugation.

        Closure under negation is automatic for ``shift == 0``.  The check
        verifies the conjugated generators are members and then confirms
        closure pointwise on a window of five basis lengths.
        """
        if self.shift != 0:
            raise ValueError("conjugation closure is defined for unshifted lattices only")
        for w in (self.omega1, self.omega2):
            if not self.contains(np.conj(w), tol):
                return False
        radius = 5.0 * max(abs(self.omega1), abs(self.omega2))
        for _, p in enumerate_window(self, radius):
            if not self.contains(np.conj(p), tol):
                return False
        return True

    def liouville_after_shift(self, alpha: float, w: complex) -> bool:
        """Growth classification of the translate ``lattice - w``.

        Translation preserves the fundamental cell, so this always agrees
        with :meth:`is_liouville`; the translate is materialized and
        re-measured as a consistency check.
        """
        translated = Lattice(self.omega1, self.omega2, self.shift - w)
        assert translated.area == self.area
        return translated.is_liouville(alpha)

    @classmethod
    def from_json(cls, data: dict) -> "Lattice":
        def c(pair) -> complex:
            return complex(pair[0], pair[1])

        return cls(c(data["omega1"]), c(data["omega2"]), c(data.get("shift", [0.0, 0.0])))


def square_lattice(beta: float) -> Lattice:
    """Square lattice ``sqrt(pi/beta) * (Z + iZ)`` with cell area ``pi/beta``."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    v = math.sqrt(math.pi / beta)
    return Lattice(v, v * 1j)


def window_arrays(lat: Lattice, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All lattice points with ``|point| <= radius`` as arrays.

    Returns ``(indices, points)`` where ``indices`` has shape (k, 2) and
    ``points`` shape (k,), ordered by increasing modulus with principal
    argument breaking ties.  A 1e-9 slack keeps points that sit on the
    window boundary up to rounding.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    reach = radius + abs(lat.shift)
    s = lat.area
    # rows of the inverse basis matrix give index bounds |m|, |n| on the disk
    row_m = np.hypot(lat.omega2.imag, lat.omega2.real) / s
    row_n = np.hypot(lat.omega1.imag, lat.omega1.real) / s
    m_max = int(math.floor(row_m * reach)) + 1
    n_max = int(math.floor(row_n * reach)) + 1
    m, n = np.meshgrid(
        np.arange(-m_max, m_max + 1), np.arange(-n_max, n_max + 1), indexing="ij"
    )
    m = m.ravel()
    n = n.ravel()
    pts = m * lat.omega1 + n * lat.omega2 + lat.shift
    keep = np.abs(pts) <= radius + 1e-9
    m, n, pts = m[keep], n[keep], pts[keep]
    order = np.lexsort((np.angle(pts), np.abs(pts)))
    return np.stack([m[order], n[order]], axis=1), pts[order]


def enumerate_window(lat: Lattice, radius: float) -> list[tuple[LatticeIndex, complex]]:
    """Window enumeration as a list of ``(index, point)`` pairs."""
    idx, pts = window_arrays(lat, radius)
    return [
        (LatticeIndex(int(a), int(b)), complex(p)) for (a, b), p in zip(idx, pts)
    ]
