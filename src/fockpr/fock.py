"""Polynomials in the Gaussian-weighted space of entire functions.

The space with weight ``alpha`` carries the probability measure
``(alpha/pi) * exp(-alpha*|z|^2) dA``, so constants have norm equal to
their modulus and ``e_n(z) = sqrt(alpha^n/n!) z^n`` is an orthonormal
basis.  A :class:`FockPoly` stores basis coefficients; the natural
operations (evaluation, derivative, Wronskian, products re-expanded at a
new weight) all reduce to stable coefficient arithmetic.

Key analytic facts exercised here:

* reproducing kernel ``k_w(z) = exp(alpha*z*conj(w))`` and the kernel
  distance ``dist(z, w) = ||k_z - k_w||``;
* pointwise growth ``|F(z)| <= ||F|| * exp(alpha*|z|^2/2)`` and its
  derivative analogue;
* the Wronskian ``F H' - F' H`` lives naturally at weight ``2*alpha``;
* the polyanalytic identity expressing the Wronskian restriction through
  ``H'(z) - alpha*conj(z)*H(z)``;
* the two-variable extension ``G(z1, z2) = F'(z1+i z2) F*(z1-i z2)``
  whose restriction to real arguments is ``F'(z)*conj(F(z))`` and whose
  norm at weight ``beta > 2*alpha`` is controlled by
  ``beta^2/(beta-2*alpha)^(3/2) * ||F||^2``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "FockPoly",
    "TwoVarFockPoly",
    "basis_scales",
    "dist",
    "close_pair_bound_check",
    "wronskian",
    "polyanalytic_residual",
    "two_var_extension",
    "extension_norm_bound_check",
    "GrowthReport",
    "growth_check",
    "derivative_growth_check",
    "shift",
    "quad_norm",
    "fock_gram",
]

_LOG_SWITCH_DEGREE = 30


def basis_scales(alpha: float, n_max: int) -> np.ndarray:
    """``sqrt(alpha^n / n!)`` for n = 0..n_max.

    Exact factorial ratios up to degree 30, log-domain accumulation
    beyond (both branches agree to machine precision on the overlap).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    n = np.arange(n_max + 1)
    if n_max <= _LOG_SWITCH_DEGREE:
        fact = np.array([math.factorial(int(k)) for k in n], dtype=float)
        return np.sqrt(alpha ** n.astype(float) / fact)
    logs = 0.5 * (n * math.log(alpha) - np.array([math.lgamma(k + 1) for k in n]))
    return np.exp(logs)


class _FockPolyFields(NamedTuple):
    alpha: float
    coeffs: np.ndarray


class FockPoly(_FockPolyFields):
    """Polynomial with coefficients in the orthonormal basis at ``alpha``."""

    __slots__ = ()

    def __new__(cls, alpha: float, coeffs) -> "FockPoly":
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        return super().__new__(cls, alpha, arr)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if len(nz) else 0

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "FockPoly") -> complex:
        if other.alpha != self.alpha:
            raise ValueError("inner product requires matching weights")
        k = min(len(self.coeffs), len(other.coeffs))
        return complex(np.sum(self.coeffs[:k] * np.conj(other.coeffs[:k])))

    def __call__(self, z) -> complex | np.ndarray:
        """Evaluate via the stable basis recurrence ``t_n = t_{n-1} z sqrt(alpha/n)``."""
        zarr = np.asarray(z, dtype=complex)
        t = np.ones_like(zarr)
        acc = self.coeffs[0] * t
        for n in range(1, len(self.coeffs)):
            t = t * zarr * math.sqrt(self.alpha / n)
            acc = acc + self.coeffs[n] * t
        return acc if zarr.shape else complex(acc)

    def derivative(self) -> "FockPoly":
        """d/dz in the same basis: coefficient n-1 picks up ``sqrt(alpha*n) c_n``."""
        if len(self.coeffs) == 1:
            return FockPoly(self.alpha, np.zeros(1, dtype=complex))
        n = np.arange(1, len(self.coeffs))
        return FockPoly(self.alpha, self.coeffs[1:] * np.sqrt(self.alpha * n))

    def monomial_coeffs(self) -> np.ndarray:
        """Coefficients of the monomial expansion ``sum a_n z^n``."""
        return self.coeffs * basis_scales(self.alpha, len(self.coeffs) - 1)

    @classmethod
    def from_monomial(cls, alpha: float, mono: Sequence[complex]) -> "FockPoly":
        mono = np.atleast_1d(np.asarray(mono, dtype=complex))
        return cls(alpha, mono / basis_scales(alpha, len(mono) - 1))


# -- kernel geometry ----------------------------------------------------------


def dist(alpha: float, z, w) -> float | np.ndarray:
    """Kernel distance ``||k_z - k_w||`` at weight ``alpha``, elementwise.

    With ``delta = z - w``, ``s = alpha|delta|^2/2``,
    ``d = alpha Re(delta conj(z+w))/2`` and ``theta = alpha Im(z conj(w-z))``
    the radicand ``e^{alpha|z|^2} - 2 Re e^{alpha z conj(w)} + e^{alpha|w|^2}``
    equals ``e^{alpha Re(z conj(w))} [2 expm1(s) cosh d + 4 sinh^2(d/2) + 4 sin^2(theta/2)]``,
    a sum of nonnegative terms that keeps full relative accuracy for
    close pairs and vanishes exactly on the diagonal.
    """
    # a trailing axis of length 1 runs scalars through the loops arrays take,
    # which differ from numpy's scalar paths in the last bit
    z = np.asarray(z, dtype=complex)[..., None]
    w = np.asarray(w, dtype=complex)[..., None]
    delta = z - w
    s = 0.5 * alpha * np.abs(delta) ** 2
    d = 0.5 * alpha * (delta * np.conj(z + w)).real
    theta = alpha * (z * np.conj(w - z)).imag
    bracket = (
        2.0 * np.expm1(s) * np.cosh(d)
        + 4.0 * np.sinh(0.5 * d) ** 2
        + 4.0 * np.sin(0.5 * theta) ** 2
    )
    out = np.sqrt(np.exp(alpha * (z * np.conj(w)).real) * bracket)[..., 0]
    return out if out.shape else float(out)


def close_pair_bound_check(alpha: float, z, w) -> np.ndarray:
    """Linearized distance bound for nearby points.

    For ``|z - w| <= min(alpha^{-1/2}, alpha^{-1} |z|^{-1})`` the kernel
    distance is controlled by
    ``4 |z-w| exp(alpha|z|^2/2) (alpha|z| + sqrt(alpha))``.  Returns a
    boolean array: True where the hypothesis holds and the bound is
    satisfied, also True (vacuously) where the hypothesis fails.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    gap = np.abs(z - w)
    az = np.abs(z)
    with np.errstate(divide="ignore", over="ignore"):
        cap = np.minimum(alpha ** -0.5, 1.0 / (alpha * np.where(az > 0, az, np.inf)))
        cap = np.where(az > 0, cap, alpha ** -0.5)
    applicable = gap <= cap
    lhs = dist(alpha, z, w)
    rhs = 4.0 * gap * np.exp(0.5 * alpha * az**2) * (alpha * az + math.sqrt(alpha))
    ok = lhs <= rhs * (1.0 + 1e-12)
    return np.where(applicable, ok, True)


# -- growth -------------------------------------------------------------------


class GrowthReport(NamedTuple):
    passed: bool
    max_ratio: float
    worst_point: complex


def growth_check(F: FockPoly, points, norm_value: float | None = None) -> GrowthReport:
    """Verify ``|F(z)| <= M exp(alpha|z|^2/2)`` at the given points.

    ``M`` defaults to the true norm (then the bound is a theorem, with
    equality for normalized kernels at their center); passing a smaller
    claimed norm turns this into a consistency detector.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    m = F.norm() if norm_value is None else float(norm_value)
    vals = np.abs(F(pts))
    envelope = m * np.exp(0.5 * F.alpha * np.abs(pts) ** 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(envelope > 0, vals / envelope, np.inf)
    worst = int(np.argmax(ratios))
    return GrowthReport(
        passed=bool(ratios[worst] <= 1.0 + 1e-9),
        max_ratio=float(ratios[worst]),
        worst_point=complex(pts[worst]),
    )


def derivative_growth_check(F: FockPoly, points) -> GrowthReport:
    """Verify ``|F'(w)| <= sqrt(alpha(1 + alpha|w|^2)) exp(alpha|w|^2/2) ||F||``."""
    pts = np.asarray(points, dtype=complex).ravel()
    a = F.alpha
    vals = np.abs(F.derivative()(pts))
    aw = np.abs(pts) ** 2
    envelope = np.sqrt(a * (1.0 + a * aw)) * np.exp(0.5 * a * aw) * F.norm()
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(envelope > 0, vals / envelope, np.inf)
    worst = int(np.argmax(ratios))
    return GrowthReport(
        passed=bool(ratios[worst] <= 1.0 + 1e-9),
        max_ratio=float(ratios[worst]),
        worst_point=complex(pts[worst]),
    )


# -- Wronskian and the polyanalytic identity ----------------------------------


def wronskian(F: FockPoly, H: FockPoly) -> FockPoly:
    """``F H' - F' H`` re-expanded at weight ``2*alpha``.

    The product of two weight-``alpha`` polynomials has finite norm at
    any weight above ``2*alpha``; the doubled weight is the natural home
    used throughout (norms at ``2*alpha`` remain finite for polynomials).
    """
    if F.alpha != H.alpha:
        raise ValueError("weights must match")
    npoly = np.polynomial.polynomial  # loaded on first use, not at import
    a = F.monomial_coeffs()
    b = H.monomial_coeffs()
    da = npoly.polyder(a) if len(a) > 1 else np.zeros(1, dtype=complex)
    db = npoly.polyder(b) if len(b) > 1 else np.zeros(1, dtype=complex)
    w = npoly.polysub(npoly.polymul(a, db), npoly.polymul(da, b))
    return FockPoly.from_monomial(2.0 * F.alpha, w)


def polyanalytic_residual(F: FockPoly, H: FockPoly, z) -> float:
    """Residual of the identity ``(F H' - F' H)(z) = F Ht - Ft H`` at z,
    where ``Ht(z) = H'(z) - alpha conj(z) H(z)`` (the conjugate-weight
    lowering of H) and ``Ft`` likewise: the ``alpha*conj(z)`` terms
    cancel exactly, so the residual is pure rounding noise."""
    if F.alpha != H.alpha:
        raise ValueError("weights must match")
    z = np.asarray(z, dtype=complex)
    a = F.alpha
    f, h = F(z), H(z)
    fp, hp = F.derivative()(z), H.derivative()(z)
    lhs = f * hp - fp * h
    ht = hp - a * np.conj(z) * h
    ft = fp - a * np.conj(z) * f
    rhs = f * ht - ft * h
    return float(np.max(np.abs(lhs - rhs)))


# -- two-variable extension ----------------------------------------------------


class _TwoVarFockPolyFields(NamedTuple):
    beta: float
    coeffs: np.ndarray


class TwoVarFockPoly(_TwoVarFockPolyFields):
    """Polynomial in two variables at weight ``beta``; ``coeffs[a, b]``
    multiplies ``z1^a z2^b`` (monomial form)."""

    __slots__ = ()

    def __new__(cls, beta: float, coeffs) -> "TwoVarFockPoly":
        if beta <= 0:
            raise ValueError("beta must be positive")
        return super().__new__(cls, beta, np.atleast_2d(np.asarray(coeffs, dtype=complex)))

    def __call__(self, z1, z2):
        a, b = np.broadcast_arrays(
            np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
        )
        return np.polynomial.polynomial.polyval2d(a, b, self.coeffs)

    def norm(self) -> float:
        """``||z1^a z2^b||^2 = a! b! / beta^(a+b)`` summed against |c|^2."""
        na, nb = self.coeffs.shape
        la = np.array([math.lgamma(k + 1) for k in range(na)])
        lb = np.array([math.lgamma(k + 1) for k in range(nb)])
        logw = la[:, None] + lb[None, :] - (np.arange(na)[:, None] + np.arange(nb)[None, :]) * math.log(self.beta)
        return math.sqrt(float(np.sum(np.abs(self.coeffs) ** 2 * np.exp(logw))))


def two_var_extension(F: FockPoly, beta: float) -> TwoVarFockPoly:
    """``G(z1, z2) = F'(z1 + i z2) * F*(z1 - i z2)`` at weight ``beta > 2*alpha``.

    ``F*`` conjugates the monomial coefficients, so on real arguments
    ``G(x, y) = F'(z) * conj(F(z))`` with ``z = x + iy``: the extension
    is the entire (polyanalytic-splitting) representative of
    ``F' conj(F)``.
    """
    if beta <= 2.0 * F.alpha:
        raise ValueError("beta must exceed 2*alpha")
    p = FockPoly(F.alpha, F.derivative().coeffs).monomial_coeffs()
    q = np.conj(F.monomial_coeffs())
    np1, nq1 = len(p), len(q)
    # bivariate factors: sum_j p_j (z1 + i z2)^j and sum_k q_k (z1 - i z2)^k
    P1 = np.zeros((np1, np1), dtype=complex)
    for j in range(np1):
        for r in range(j + 1):
            P1[r, j - r] += p[j] * math.comb(j, r) * (1j) ** (j - r)
    P2 = np.zeros((nq1, nq1), dtype=complex)
    for k in range(nq1):
        for s in range(k + 1):
            P2[s, k - s] += q[k] * math.comb(k, s) * (-1j) ** (k - s)
    out = np.zeros((np1 + nq1 - 1, np1 + nq1 - 1), dtype=complex)
    for r in range(np1):
        for c in range(np1):
            if P1[r, c] == 0:
                continue
            out[r : r + nq1, c : c + nq1] += P1[r, c] * P2
    return TwoVarFockPoly(beta, out)


def extension_norm_bound_check(F: FockPoly, beta: float) -> tuple[bool, float, float]:
    """Check ``||G|| <= beta^2/(beta - 2*alpha)^(3/2) * ||F||^2``.

    Returns (ok, norm, bound).
    """
    G = two_var_extension(F, beta)
    lhs = G.norm()
    rhs = beta**2 / (beta - 2.0 * F.alpha) ** 1.5 * F.norm() ** 2
    return bool(lhs <= rhs * (1.0 + 1e-12)), lhs, rhs


# -- re-expansion and quadrature ------------------------------------------------


def shift(F: FockPoly, s: complex) -> FockPoly:
    """``z -> F(z + s)`` expanded in the same basis (binomial re-centering)."""
    mono = F.monomial_coeffs()
    n = len(mono)
    out = np.zeros(n, dtype=complex)
    spow = np.ones(n, dtype=complex)
    for k in range(1, n):
        spow[k] = spow[k - 1] * s
    for k in range(n):
        for j in range(k + 1):
            out[j] += mono[k] * math.comb(k, j) * spow[k - j]
    return FockPoly.from_monomial(F.alpha, out)


# grid points per block of radial rows in ``fock_gram``: 64 KiB per complex
# temporary, below the allocator's 128 KiB mmap threshold (see ``gabor._LIFT_BLOCK``)
_GRAM_BLOCK = 1 << 12


def fock_gram(
    funcs: Sequence[Callable[[np.ndarray], np.ndarray]],
    alpha: float,
    rmax: float = 6.0,
    radial_order: int = 96,
    angular_points: int = 256,
    rmin: float = 0.0,
) -> np.ndarray:
    """Gram matrix ``G[m, n] = <funcs[m], funcs[n]>`` with Gaussian weight alpha.

    The package's one polar rule for ``(alpha/pi) exp(-alpha |z|^2) dA`` on
    ``rmin <= |z| <= rmax``: Gauss-Legendre in radius, trapezoid in angle.
    Accurate for functions of order-two growth strictly below the weight.
    The grid is evaluated in blocks of radial rows of about ``_GRAM_BLOCK``
    points, so the working set is fixed; a row's angular mean does not
    depend on its block.
    """
    if not 0.0 <= rmin < rmax < math.inf:
        raise ValueError(f"need 0 <= rmin < rmax < inf, got rmin={rmin}, rmax={rmax}")
    nodes, weights = np.polynomial.legendre.leggauss(radial_order)
    r = rmin + 0.5 * (rmax - rmin) * (nodes + 1.0)
    wr = 0.5 * (rmax - rmin) * weights
    phase = np.exp(1j * (2.0 * math.pi * np.arange(angular_points) / angular_points))
    means = np.empty((len(funcs), len(funcs), radial_order), dtype=complex)
    step = max(1, _GRAM_BLOCK // angular_points)
    for start in range(0, radial_order, step):
        grid = r[start : start + step, None] * phase
        vals = np.stack([np.broadcast_to(F(grid), grid.shape) for F in funcs])
        means[..., start : start + step] = (vals[:, None] * np.conj(vals)[None, :]).mean(axis=-1)
    radial = means * np.exp(-alpha * r * r) * r
    return 2.0 * alpha * np.sum(wr * radial, axis=-1)


def quad_norm(F: FockPoly, radius: float | None = None, nr: int = 400, ntheta: int = 400) -> float:
    """Norm by polar quadrature of ``|F|^2``: the one-function :func:`fock_gram`.

    R defaults to 6 + degree, ample for the Gaussian tail at any weight
    >= 1/4.  An independent cross-check of the coefficient norm.
    """
    if radius is None:
        radius = 6.0 + F.degree
    gram = fock_gram([F], F.alpha, radius, nr, ntheta)
    return math.sqrt(max(gram[0, 0].real, 0.0))
