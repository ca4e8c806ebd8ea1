"""Gabor transform with Gaussian window, Bargmann lift, Hermite signals.

The transform used throughout is

    G f(x, omega) = integral of f(t) exp(-pi (t-x)^2) exp(-2 pi i omega t) dt

with the *unnormalized* Gaussian window ``exp(-pi t^2)``, and its entire
lift

    B f(z) = G f(Re z, -Im z) * exp(-pi i Re(z) Im(z) + pi |z|^2 / 2).

Signals are finite expansions in the L2-normalized Hermite functions
``h_0 .. h_N`` (real-valued, ``h_0(t) = 2**0.25 * exp(-pi t^2)``).  With
these conventions ``B h_n`` is proportional to the weight-pi Fock basis
monomial of degree n, and ``B`` is unitary up to one overall constant
(recorded, not normalized away).

Quadrature: Gauss-Hermite recentered at the joint Gaussian peak; the
polynomial part of the integrand is evaluated directly so no large
exponentials are ever formed.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import fock
from .lattice import Lattice, window_arrays

__all__ = [
    "HermiteSignal",
    "gabor_transform",
    "bargmann",
    "HardyReport",
    "hardy_check",
    "symmetry_class",
    "fock_inner_quad",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_QUARTER = 2.0 ** 0.25
# (point, Gauss-Hermite node) pairs per block of ``bargmann_grid``: 64 KiB
# per complex temporary, 32 points at the default 128 nodes.  Below the
# allocator's 128 KiB mmap threshold, the temporaries reuse heap memory in
# place of fresh pages mapped (and faulted in) on every block.
_LIFT_BLOCK = 1 << 12


@functools.lru_cache(maxsize=8)
def _hermgauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _hermite_rows(nmax: int, u: np.ndarray) -> Iterator[np.ndarray]:
    """Yield P_n(u) = H_n(u)/sqrt(2^n n!) for n = 0..nmax, one row at a time.

    Three-term recurrence in the normalized scaling, which keeps values
    O(exp(u^2/2)) instead of the raw Hermite overflow.  Only the last two
    rows are held, so memory does not grow with the degree.  Accepts real
    or complex arguments (complex nodes arise from the shifted contour in
    the transform quadrature).
    """
    dtype = np.result_type(u.dtype, float)
    prev = np.ones(u.size, dtype=dtype)
    yield prev
    if nmax < 1:
        return
    cur = (math.sqrt(2.0) * u).astype(dtype, copy=False)
    yield cur
    for n in range(1, nmax):
        prev, cur = cur, (
            math.sqrt(2.0 / (n + 1.0)) * u * cur - math.sqrt(n / (n + 1.0)) * prev
        )
        yield cur


def _hermite_series(coeffs: Sequence[complex], u: np.ndarray) -> np.ndarray:
    """sum coeffs[n] * P_n(u), adding each term as its row is formed."""
    acc = np.zeros(u.size, dtype=complex)
    for c, row in zip(coeffs, _hermite_rows(len(coeffs) - 1, u)):
        acc += c * row
    return acc


class _HermiteSignalFields(NamedTuple):
    coeffs: tuple[complex, ...]


class HermiteSignal(_HermiteSignalFields):
    """Finite expansion sum coeffs[n] * h_n in normalized Hermite functions.

    Evaluation runs the normalized Hermite recurrence over the flattened
    argument and adds each term as its row is formed, so the working set
    is two recurrence rows and one accumulator, whatever the degree.
    """

    __slots__ = ()

    def __new__(cls, coeffs) -> "HermiteSignal":
        coeffs = tuple(complex(c) for c in coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def norm(self) -> float:
        """L2 norm; the h_n are orthonormal so it is the coefficient norm."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs))

    def __call__(self, t) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        u = _SQRT_2PI * tt.ravel()
        vals = _QUARTER * _hermite_series(self.coeffs, u) * np.exp(-0.5 * u * u)
        res = vals.reshape(tt.shape)
        if tt.ndim == 0:
            return complex(res)
        return res

    def poly_part(self, t: np.ndarray) -> np.ndarray:
        """f(t) * exp(pi t^2): the polynomial factor, safe at any real or complex t."""
        tt = np.asarray(t)
        u = (_SQRT_2PI * tt).ravel()
        vals = _QUARTER * _hermite_series(self.coeffs, u)
        if tt.ndim == 0:
            return complex(vals[0])
        return vals.reshape(tt.shape)

    @staticmethod
    def gaussian() -> "HermiteSignal":
        """The unnormalized Gaussian exp(-pi t^2) = 2^{-1/4} h_0."""
        return HermiteSignal((2.0 ** -0.25,))


def gabor_transform(
    f: HermiteSignal, x: float, omega: float, quad_points: int = 128
) -> complex:
    """Windowed transform of f at time x and frequency omega.

    Completing the square moves all Gaussian and oscillatory factors into
    an explicit prefactor exp(-pi x^2/2 - pi omega^2/2 - pi i omega x);
    what remains is the signal polynomial integrated against exp(-u^2)
    along a shifted contour through (x - i omega)/2.  Gauss-Hermite on
    the shifted nodes is then exact up to rounding for polynomial
    signals, with no cancellation even deep in the Gaussian tail.
    """
    nodes, weights = _hermgauss(quad_points)
    t = 0.5 * (x - 1j * omega) + nodes / _SQRT_2PI
    prefactor = np.exp(
        -0.5 * math.pi * (x * x + omega * omega) - 1j * math.pi * omega * x
    )
    return complex(prefactor / _SQRT_2PI * np.sum(weights * f.poly_part(t)))


def bargmann(f: HermiteSignal, z: complex, quad_points: int = 128) -> complex:
    """Entire lift: G f(Re z, -Im z) e^{-pi i Re(z) Im(z)} e^{pi |z|^2 / 2}."""
    z = complex(z)
    x, y = z.real, z.imag
    g = gabor_transform(f, x, -y, quad_points=quad_points)
    return g * np.exp(-1j * math.pi * x * y + 0.5 * math.pi * (x * x + y * y))


def bargmann_grid(
    f: HermiteSignal, z: np.ndarray, quad_points: int = 128
) -> np.ndarray:
    """Vectorized entire lift over an array of points.

    In the lift, the Gaussian prefactor of the windowed transform cancels
    the growth factor exactly and the two phases are opposite, so what
    survives is the bare contour integral of the signal polynomial
    centered at z/2.  Agrees pointwise with the scalar route.

    The points are taken in blocks of about ``_LIFT_BLOCK`` (point, node)
    pairs, so the working set is fixed whatever the size of ``z``; each
    value is still the quadrature sum over its own row of nodes.
    """
    z = np.asarray(z, dtype=complex)
    nodes, weights = _hermgauss(quad_points)
    shift = nodes / _SQRT_2PI
    flat = z.ravel()
    out = np.empty(flat.size, dtype=complex)
    step = max(1, _LIFT_BLOCK // quad_points)
    for start in range(0, flat.size, step):
        t = 0.5 * flat[start : start + step, None] + shift
        out[start : start + step] = np.sum(weights * f.poly_part(t), axis=-1) / _SQRT_2PI
    return out.reshape(z.shape) if z.ndim else out[0]


class HardyReport(NamedTuple):
    c_value: float
    max_ratio: float
    worst_point: complex
    passed: bool
    points: tuple[complex, ...]
    ratios: tuple[float, ...]

    def violations_within(self, radius: float) -> list[complex]:
        return [
            p
            for p, r in zip(self.points, self.ratios)
            if r > self.c_value and abs(p) <= radius
        ]


def hardy_check(
    f: HermiteSignal,
    lat: Lattice,
    c_value: float,
    window_radius: float = 5.0,
    quad_points: int = 128,
) -> HardyReport:
    """Gaussian-decay test on a lattice window.

    Checks |G f(lambda)| <= c_value * exp(-pi |lambda|^2 / 2) at every
    lattice point of the window, reporting the worst ratio
    |G f(lambda)| exp(pi |lambda|^2 / 2).  Only a Gaussian multiple can
    pass with a small constant on a dense enough lattice; the check is
    window evidence, not a proof.
    """
    if c_value < 0:
        raise ValueError("c_value must be nonnegative")
    if not lat.area < 1.0:
        raise ValueError(
            f"cell area {lat.area:.6g} >= 1: the lattice is not dense enough "
            "for the decay test to be discriminating"
        )
    _idx, pts = window_arrays(lat, window_radius)
    ratios_arr = np.abs(bargmann_grid(f, np.conj(pts), quad_points=quad_points))
    worst = int(np.argmax(ratios_arr))
    return HardyReport(
        c_value=float(c_value),
        max_ratio=float(ratios_arr[worst]),
        worst_point=complex(pts[worst]),
        passed=bool(ratios_arr[worst] <= c_value),
        points=tuple(pts.tolist()),
        ratios=tuple(float(r) for r in ratios_arr),
    )


def symmetry_class(f: HermiteSignal | fock.FockPoly, tol: float = 1e-12) -> str:
    """Classify by the coefficients: ``even_real``, ``real``, ``even`` or ``none``.

    A :class:`HermiteSignal` is real-valued on the line iff every Hermite
    coefficient is real (the h_n are real), and even iff every odd-index
    coefficient vanishes.  For a :class:`fock.FockPoly` the same two tests
    mean ``F(conj z) = conj(F(z))`` and ``F(-z) = F(z)``: the Fock-side
    images of the two signal classes under the Bargmann lift, so one
    vocabulary names both.
    """
    coeffs = np.asarray(f.coeffs, dtype=complex)
    scale = max(float(np.linalg.norm(coeffs)), 1e-300)
    is_real = bool(np.all(np.abs(coeffs.imag) <= tol * scale))
    is_even = bool(np.all(np.abs(coeffs[1::2]) <= tol * scale))
    if is_real and is_even:
        return "even_real"
    if is_real:
        return "real"
    if is_even:
        return "even"
    return "none"


def fock_inner_quad(
    F: Callable[[np.ndarray], np.ndarray],
    G: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    rmax: float = 6.0,
    radial_order: int = 96,
    angular_points: int = 256,
) -> complex:
    """Polar-quadrature inner product <F, G>: the two-function ``fock.fock_gram``."""
    gram = fock.fock_gram((F, G), alpha, rmax, radial_order, angular_points)
    return complex(gram[0, 1])
