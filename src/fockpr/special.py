"""Weierstrass sigma machinery on planar lattices.

This module builds numerically validated evaluators for:

* the Weierstrass sigma function of a lattice, truncated to a finite
  window with a compensated tail so that evaluation stays accurate on a
  documented disk,
* its quasi-periods ``eta1, eta2`` (solved from the functional equation,
  cross-checked against the Legendre relation),
* the growth-corrected variant ``sigma_mod(z) = sigma(z) * exp(a z^2)``
  whose modulus grows like ``exp(pi |z|^2 / (2 s))`` with ``s`` the
  lattice cell area,
* a bounded-but-nonconstant quotient with two lattice zeros removed
  (the critical-density counterexample),
* an interpolation kernel ``g`` built from a perturbed square lattice,
  its derivative on the node set, and Lagrange-type reconstruction,
* a small report describing union-of-lines witness sets whose planar
  density vanishes.

Evaluators are immutable after construction; all validation happens
eagerly in ``__init__``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .lattice import Lattice, window_arrays
from .pointset import IndexedPointSet, DensityReport, density_estimate

__all__ = [
    "SigmaEvaluator",
    "tail_coefficients",
    "CriticalQ",
    "critical_counterexample",
    "fock_annulus_increments",
    "GGammaEvaluator",
    "DerivativeBoundProbe",
    "LagrangeResult",
    "lagrange_interpolate",
    "three_lines_liouville_note",
]

_EVAL_CHUNK = 2048


def _reduce_tau(w1: complex, w2: complex) -> tuple[complex, complex, complex]:
    """Move the period ratio into the standard fundamental domain."""
    for _ in range(256):
        tau = w2 / w1
        shift = round(tau.real)
        if shift != 0:
            w2 = w2 - shift * w1
            tau = w2 / w1
        if abs(tau) < 1.0 - 1e-12:
            w1, w2 = w2, -w1
            continue
        return w1, w2, tau
    raise ArithmeticError("period reduction did not converge")


def _eisenstein_g4_g6(w1: complex, w2: complex) -> tuple[complex, complex]:
    """Absolutely convergent lattice sums sum(lam^-4), sum(lam^-6).

    Computed through the weight-4 and weight-6 modular q-expansions on a
    reduced period pair, where |q| <= exp(-pi*sqrt(3)) makes a 60-term
    series accurate to machine precision.
    """
    r1, _r2, tau = _reduce_tau(complex(w1), complex(w2))
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, 60):
        qn *= q
        common = qn / (1.0 - qn)
        e4 += 240.0 * (n ** 3) * common
        e6 -= 504.0 * (n ** 5) * common
    g4 = (math.pi ** 4 / 45.0) * e4 / r1 ** 4
    g6 = (2.0 * math.pi ** 6 / 945.0) * e6 / r1 ** 6
    return g4, g6


def _annulus(lat: Lattice, r_lo: float, r_hi: float) -> np.ndarray:
    """Unsorted lattice points with r_lo < |point| <= r_hi (shift ignored)."""
    w1, w2 = complex(lat.omega1), complex(lat.omega2)
    inv = np.linalg.inv(np.array([[w1.real, w2.real], [w1.imag, w2.imag]]))
    reach = r_hi * float(np.abs(inv).sum(axis=1).max()) + 2.0
    bound = int(math.ceil(reach))
    ms = np.arange(-bound, bound + 1)
    m, n = np.meshgrid(ms, ms, indexing="ij")
    pts = (m * w1 + n * w2).ravel()
    mod = np.abs(pts)
    return pts[(mod > r_lo) & (mod <= r_hi)]


def tail_coefficients(
    lat: Lattice,
    radius: float,
    kmax: int = 24,
    zmax: float | None = None,
    eps_log: float = 1e-9,
) -> dict[int, complex]:
    """Power sums S_k = sum over |lam| > radius of lam^(-k), even k in [4, kmax].

    Used to compensate the truncation of Hadamard products: the discarded
    factors contribute ``exp(-sum_k S_k z^k / k)``.  Accuracy target: the
    error of each S_k stays below ``eps_log * k / zmax**k`` so that the
    compensated log-error at ``|z| <= zmax`` is about ``eps_log`` per term.

    The slowly decaying k = 4, 6 sums come from closed-form full-lattice
    sums minus the in-window part (the difference is large relative to
    rounding noise).  For k >= 8 the same subtraction would be pure
    cancellation noise, which ``z**k`` then amplifies; those sums are
    instead taken directly over a finite annulus sized so the analytic
    remainder meets the target.
    """
    if zmax is None:
        zmax = radius / 3.0
    if kmax < 6 or kmax % 2:
        raise ValueError("kmax must be an even integer >= 6")
    area = lat.area
    g4, g6 = _eisenstein_g4_g6(lat.omega1, lat.omega2)
    window = _annulus(lat, 0.0, radius)
    coeffs: dict[int, complex] = {
        4: g4 - complex(np.sum(window ** -4.0)),
        6: g6 - complex(np.sum(window ** -6.0)),
    }
    if kmax >= 8:
        cut: dict[int, float] = {}
        for k in range(8, kmax + 1, 2):
            need = eps_log * k / zmax ** k
            raw = ((2.0 * math.pi / area) / ((k - 2) * need)) ** (1.0 / (k - 2))
            cut[k] = max(1.5 * radius, raw)
        ring = _annulus(lat, radius, max(cut.values()))
        mod = np.abs(ring)
        inv2 = ring ** -2.0
        power = inv2 ** 3
        for k in range(8, kmax + 1, 2):
            power = power * inv2
            coeffs[k] = complex(np.sum(np.where(mod <= cut[k], power, 0.0)))
    return coeffs


def _branch_solve(
    values: Callable[[np.ndarray], np.ndarray], omega: complex
) -> complex:
    """Solve sigma(z+omega) = -sigma(z) exp(eta (z + omega/2)) for eta.

    The principal log leaves an unknown multiple of 2*pi*i per probe
    point; the multiple is fixed by demanding agreement between two
    generic probes (the reconciled pair with the smallest mismatch wins).
    """
    probes = np.array([0.3131 + 0.2213j, -0.1709 + 0.4471j])
    num = values(probes + omega)
    den = values(probes)
    if np.any(np.abs(num) < 1e-12) or np.any(np.abs(den) < 1e-12):
        probes = probes + (0.101 + 0.0733j)
        num = values(probes + omega)
        den = values(probes)
    raw = np.log(-num / den)
    half = probes + omega / 2.0
    best: tuple[float, complex] | None = None
    for k0 in range(-4, 5):
        eta0 = (raw[0] + 2j * math.pi * k0) / half[0]
        for k1 in range(-4, 5):
            eta1 = (raw[1] + 2j * math.pi * k1) / half[1]
            mismatch = abs(eta0 - eta1)
            if best is None or mismatch < best[0]:
                best = (mismatch, (eta0 + eta1) / 2.0)
    assert best is not None
    if best[0] > 1e-6 * max(1.0, abs(best[1])):
        raise RuntimeError(
            f"quasi-period branch reconciliation failed (mismatch {best[0]:.3e})"
        )
    return best[1]


class SigmaEvaluator:
    """Windowed Weierstrass sigma with compensated truncation tail.

    The product runs over lattice points with 0 < |lam| <= truncation_radius;
    the discarded tail is restored through the power sums of
    :func:`tail_coefficients`, keeping relative accuracy around 1e-9 on
    the disk |z| <= truncation_radius / 3 (the accuracy domain).

    Quasi-periods, the Legendre relation, the growth-correction constant
    ``a_const`` and a functional-equation residual are computed eagerly;
    construction fails if validation exceeds ``tol``.
    """

    def __init__(
        self,
        lat: Lattice,
        truncation_radius: float = 30.0,
        kmax: int = 24,
        tol: float = 1e-6,
    ) -> None:
        if lat.shift != 0:
            raise ValueError("sigma evaluators require an unshifted lattice")
        gen_reach = max(abs(lat.omega1), abs(lat.omega2))
        if truncation_radius < 3.0 * (gen_reach + 1.0):
            raise ValueError(
                "truncation_radius must be at least 3*(max generator length + 1) "
                f"(got {truncation_radius}, need {3.0 * (gen_reach + 1.0):.3g})"
            )
        self.lattice = lat
        self.truncation_radius = float(truncation_radius)
        self.kmax = int(kmax)
        self.tol = float(tol)
        _idx, pts = window_arrays(lat, truncation_radius)
        self._points = pts[np.abs(pts) > 0.0]
        self._tail = tail_coefficients(
            lat, truncation_radius, kmax=kmax, zmax=self.accuracy_radius
        )
        self._tail_ks = np.array(sorted(self._tail), dtype=float)
        self._tail_vals = np.array([self._tail[int(k)] for k in self._tail_ks])

        self.eta1 = _branch_solve(self._eval, complex(lat.omega1))
        self.eta2 = _branch_solve(self._eval, complex(lat.omega2))
        self.legendre_residual = abs(
            self.eta1 * lat.omega2 - self.eta2 * lat.omega1 - 2j * math.pi
        )
        if self.legendre_residual > tol:
            raise RuntimeError(
                f"Legendre residual {self.legendre_residual:.3e} exceeds {tol:.1e}"
            )
        w1b, w2b = np.conj(lat.omega1), np.conj(lat.omega2)
        self.a_const = 0.5 * (self.eta2 * w1b - self.eta1 * w2b) / (
            lat.omega1 * w2b - lat.omega2 * w1b
        )
        # The same constant solved from each generator separately;
        # disagreement indicates an inconsistent eta pair.
        per_gen = [
            ((math.pi / lat.area) * np.conj(w) - eta) / (2.0 * w)
            for w, eta in ((lat.omega1, self.eta1), (lat.omega2, self.eta2))
        ]
        self.a_consistency_residual = abs(per_gen[0] - per_gen[1])
        if self.a_consistency_residual > tol:
            raise RuntimeError(
                "growth-correction constant disagrees between generators "
                f"({self.a_consistency_residual:.3e})"
            )
        self.quasi_period_residual = self._functional_residual()
        if self.quasi_period_residual > tol:
            raise RuntimeError(
                f"quasi-periodicity residual {self.quasi_period_residual:.3e} "
                f"exceeds {tol:.1e}"
            )

    # -- evaluation -----------------------------------------------------

    @property
    def accuracy_radius(self) -> float:
        return self.truncation_radius / 3.0

    def _eval(self, z: np.ndarray) -> np.ndarray:
        flat = np.asarray(z, dtype=complex).ravel()
        out = np.empty_like(flat)
        lam = self._points[None, :]
        for i in range(0, flat.size, _EVAL_CHUNK):
            zz = flat[i : i + _EVAL_CHUNK]
            x = zz[:, None] / lam
            with np.errstate(divide="ignore", invalid="ignore"):
                log_sum = np.sum(np.log1p(-x) + x + 0.5 * x * x, axis=1)
            correction = -np.sum(
                self._tail_vals[None, :]
                * zz[:, None] ** self._tail_ks[None, :]
                / self._tail_ks[None, :],
                axis=1,
            )
            with np.errstate(over="ignore", invalid="ignore"):
                out[i : i + _EVAL_CHUNK] = zz * np.exp(log_sum + correction)
        return out

    def _guard(self, z: np.ndarray) -> None:
        limit = self.accuracy_radius * (1.0 + 1e-9) + 1e-9
        worst = float(np.max(np.abs(z))) if np.asarray(z).size else 0.0
        if worst > limit:
            raise ValueError(
                f"|z| = {worst:.6g} outside the accuracy domain "
                f"(radius {self.accuracy_radius:.6g})"
            )

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        self._guard(arr)
        res = self._eval(arr).reshape(arr.shape)
        if arr.ndim == 0:
            return complex(res)
        return res

    def sigma_mod(self, z):
        """sigma(z) * exp(a_const z^2): modulus grows like exp(pi|z|^2/(2 area))."""
        arr = np.asarray(z, dtype=complex)
        res = np.asarray(self(arr)) * np.exp(self.a_const * arr ** 2)
        if arr.ndim == 0:
            return complex(res)
        return res

    def derivatives_at(
        self, center: complex, count: int = 2, radius: float = 0.3, points: int = 64
    ) -> list[complex]:
        """First ``count`` derivatives at ``center`` via a circle of samples.

        Contour sampling keeps full accuracy at lattice zeros, where
        direct finite differences would divide cancellation noise.
        """
        if abs(center) + radius > self.accuracy_radius * (1.0 + 1e-9):
            raise ValueError("derivative circle leaves the accuracy domain")
        angles = 2.0 * math.pi * np.arange(points) / points
        ring = center + radius * np.exp(1j * angles)
        coeffs = np.fft.fft(self._eval(ring)) / points
        return [
            complex(coeffs[k] * math.factorial(k) / radius ** k)
            for k in range(1, count + 1)
        ]

    # -- validation helpers ---------------------------------------------

    def _functional_residual(self) -> float:
        """Max relative residual of the translation equation at held-out points."""
        zs = np.array([0.41 - 0.27j, -0.33 + 0.18j, 0.22 + 0.39j])
        worst = 0.0
        for omega, eta in ((self.lattice.omega1, self.eta1), (self.lattice.omega2, self.eta2)):
            lhs = self._eval(zs + omega)
            rhs = -self._eval(zs) * np.exp(eta * (zs + omega / 2.0))
            scale = np.maximum(np.abs(lhs), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
        return worst

    def raw_tail_estimate(self, r: float) -> float:
        """Uncompensated log-tail scale: count * (r/R)^3 heuristic."""
        return float(self._points.size) * (r / self.truncation_radius) ** 3

    def compensated_tail_estimate(self, r: float) -> float:
        """Log-domain bound on the remainder left after compensation."""
        t = r / self.truncation_radius
        if t >= 1.0:
            return math.inf
        k = self.kmax + 2
        lead = (2.0 * math.pi / self.lattice.area) * self.truncation_radius ** 2
        return lead * t ** k / (k * (k - 2)) / (1.0 - t * t)


class CriticalQ:
    """sigma_mod with two lattice zeros divided out.

    ``Q(z) = sigma_mod(z) / ((z - lam) (z - lam_prime))`` is entire (the
    removed zeros are simple), vanishes at every other lattice point, and
    is bounded on the lattice without being constant.  Within
    ``patch_radius`` of a removed zero the quotient is replaced by a
    first-order expansion of the numerator to avoid 0/0 cancellation.
    """

    def __init__(
        self,
        ev: SigmaEvaluator,
        lam: complex,
        lam_prime: complex,
        patch_radius: float = 1e-3,
    ) -> None:
        lam = complex(lam)
        lam_prime = complex(lam_prime)
        if abs(lam - lam_prime) <= 1e-12:
            raise ValueError("the two removed lattice points must differ")
        for point in (lam, lam_prime):
            if not ev.lattice.contains(point):
                raise ValueError(f"{point} is not a lattice point")
            if abs(point) + 0.35 > ev.accuracy_radius:
                raise ValueError("removed zeros sit too close to the domain edge")
        self.ev = ev
        self.lam = lam
        self.lam_prime = lam_prime
        self.patch_radius = float(patch_radius)
        self._expansions = {}
        for point in (lam, lam_prime):
            d1, d2 = ev.derivatives_at(point, count=2)
            scale = cmath.exp(ev.a_const * point ** 2)
            # sigma vanishes at the point, so the chain rule collapses.
            mod_d1 = d1 * scale
            mod_d2 = (d2 + 4.0 * ev.a_const * point * d1) * scale
            self._expansions[point] = (mod_d1, mod_d2)

    def value_at_removed(self, point: complex) -> complex:
        """Q at a removed zero: derivative of the numerator over the other factor."""
        d1, _ = self._expansions[complex(point)]
        other = self.lam_prime if complex(point) == self.lam else self.lam
        return d1 / (complex(point) - other)

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        flat = arr.ravel()
        out = np.empty_like(flat)
        d_lam = np.abs(flat - self.lam)
        d_prime = np.abs(flat - self.lam_prime)
        near_lam = d_lam <= self.patch_radius
        near_prime = ~near_lam & (d_prime <= self.patch_radius)
        plain = ~near_lam & ~near_prime
        if np.any(plain):
            vals = np.asarray(self.ev.sigma_mod(flat[plain]))
            out[plain] = vals / (
                (flat[plain] - self.lam) * (flat[plain] - self.lam_prime)
            )
        for mask, center, other in (
            (near_lam, self.lam, self.lam_prime),
            (near_prime, self.lam_prime, self.lam),
        ):
            if np.any(mask):
                d1, d2 = self._expansions[center]
                t = flat[mask] - center
                out[mask] = (d1 + 0.5 * d2 * t) / (flat[mask] - other)
        res = out.reshape(arr.shape)
        if arr.ndim == 0:
            return complex(res)
        return res


def critical_counterexample(
    ev: SigmaEvaluator, lam: complex, lam_prime: complex
) -> CriticalQ:
    return CriticalQ(ev, lam, lam_prime)


def fock_annulus_increments(
    func: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    radii: Sequence[float],
    radial_order: int = 32,
    angular_points: int = 128,
) -> np.ndarray:
    """Gaussian-weighted squared-mass increments over concentric annuli.

    Returns, for each consecutive pair of radii, the integral of
    ``|func|^2 exp(-alpha |z|^2) (alpha/pi)`` over the annulus, using
    Gauss-Legendre in radius and the trapezoid rule in angle (exact for
    trigonometric polynomials on a periodic interval).
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing with >= 2 entries")
    nodes, weights = np.polynomial.legendre.leggauss(radial_order)
    angles = 2.0 * math.pi * np.arange(angular_points) / angular_points
    phase = np.exp(1j * angles)
    increments = np.empty(radii.size - 1)
    for j in range(radii.size - 1):
        lo, hi = radii[j], radii[j + 1]
        r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        wr = 0.5 * (hi - lo) * weights
        grid = r[:, None] * phase[None, :]
        vals = np.abs(np.asarray(func(grid))) ** 2
        radial = vals.mean(axis=1) * np.exp(-alpha * r * r) * r
        increments[j] = 2.0 * alpha * float(np.sum(wr * radial))
    return increments


def _is_square_lattice(lat: Lattice) -> bool:
    ratio = lat.omega2 / lat.omega1
    return abs(abs(ratio) - 1.0) < 1e-12 and abs(ratio.real) < 1e-12


class GGammaEvaluator:
    """Interpolation kernel built from a (possibly perturbed) square lattice.

    Given nodes ``gamma`` close to the square lattice of cell area
    ``pi/beta``, the kernel is the Hadamard-type product

        g(z) = (z - gamma00) * prod over other nodes of
               (1 - z/gamma) exp(z/gamma + z^2 / (2 lam^2)),

    where ``lam`` is the home lattice point of each node (the quadratic
    convergence factor intentionally uses the unperturbed point) and
    ``gamma00`` is the stored node of smallest modulus (ties broken by
    smallest principal argument).  Beyond the stored node window the
    product continues over unperturbed lattice points up to
    ``product_radius``, and the remaining tail is compensated exactly as
    in :class:`SigmaEvaluator`.  Values are reliable for
    ``|z| <= product_radius / 3``.
    """

    def __init__(
        self,
        gamma_set: IndexedPointSet,
        tag: str | None = None,
        product_radius: float | None = None,
        kmax: int = 24,
    ) -> None:
        lat = gamma_set.lattice
        if lat.shift != 0 or not _is_square_lattice(lat):
            raise ValueError("node sets must live over an unshifted square lattice")
        tags = gamma_set.tags()
        if tag is None:
            if len(tags) != 1:
                raise ValueError(f"tag must be given when several exist: {tags}")
            tag = tags[0]
        elif tag not in tags:
            raise ValueError(f"tag {tag!r} not present (have {tags})")
        self.gamma_set = gamma_set
        self.tag = tag
        self.beta = math.pi / lat.area
        self.truncation_radius = float(
            product_radius if product_radius is not None else 3.0 * gamma_set.window_radius
        )
        if self.truncation_radius < gamma_set.window_radius:
            raise ValueError("product_radius cannot be smaller than the node window")

        indices = gamma_set.indices((tag,))
        self._gam = np.asarray(gamma_set.points((tag,)), dtype=complex)
        self._lam = np.array([lat.point(ix) for ix in indices], dtype=complex)
        order = np.lexsort((np.angle(self._gam), np.round(np.abs(self._gam), 12)))
        self._gam = self._gam[order]
        self._lam = self._lam[order]
        self._indices = [indices[i] for i in order]
        self.gamma00 = complex(self._gam[0])
        self.gamma00_index = self._indices[0]

        _idx, ring = window_arrays(lat, self.truncation_radius)
        mod = np.abs(ring)
        self._ring = ring[mod > gamma_set.window_radius + 1e-9]
        tail = tail_coefficients(
            lat, self.truncation_radius, kmax=kmax, zmax=self.accuracy_radius
        )
        self._tail_ks = np.array(sorted(tail), dtype=float)
        self._tail_vals = np.array([tail[int(k)] for k in self._tail_ks])
        self._node_log_derivatives: np.ndarray | None = None

    @property
    def accuracy_radius(self) -> float:
        return self.truncation_radius / 3.0

    @classmethod
    def from_lattice(
        cls,
        beta: float,
        sample_radius: float,
        product_radius: float | None = None,
        kmax: int = 24,
    ) -> "GGammaEvaluator":
        """Unperturbed instance: nodes are exactly the square lattice of area pi/beta."""
        step = math.sqrt(math.pi / beta)
        lat = Lattice(step, step * 1j)
        ps = IndexedPointSet(lat, window_radius=sample_radius, meta={"beta": beta})
        idx, pts = window_arrays(lat, sample_radius)
        ps.add_many(idx, "G", pos=pts)
        return cls(ps, tag="G", product_radius=product_radius, kmax=kmax)

    # -- log-domain evaluation -------------------------------------------

    def _guard(self, z: np.ndarray) -> None:
        limit = self.accuracy_radius * (1.0 + 1e-9) + 1e-9
        worst = float(np.max(np.abs(z))) if np.asarray(z).size else 0.0
        if worst > limit:
            raise ValueError(
                f"|z| = {worst:.6g} outside the accuracy domain "
                f"(radius {self.accuracy_radius:.6g})"
            )

    def _log_factors(self, zz: np.ndarray, skip: int | None) -> np.ndarray:
        """Sum of log factors over nodes (minus anchor, minus ``skip``), ring, tail."""
        gam = self._gam[1:][None, :]
        lam = self._lam[1:][None, :]
        x = zz[:, None] / gam
        # division rounding can miss the exact zero at a node; force it
        hit = zz[:, None] == gam
        if skip is not None and skip > 0:
            hit[:, skip - 1] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log1p(-x) + x + zz[:, None] ** 2 / (2.0 * lam ** 2)
            if skip is not None and skip > 0:
                terms[:, skip - 1] = 0.0
            total = np.sum(terms, axis=1)
            total = np.where(hit.any(axis=1), complex(-math.inf, 0.0), total)
            y = zz[:, None] / self._ring[None, :]
            total += np.sum(np.log1p(-y) + y + 0.5 * y * y, axis=1)
        total -= np.sum(
            self._tail_vals[None, :]
            * zz[:, None] ** self._tail_ks[None, :]
            / self._tail_ks[None, :],
            axis=1,
        )
        return total

    def log_g(self, z) -> np.ndarray:
        """Complex log of the kernel (imaginary part meaningful mod 2*pi).

        Returns -inf real part at the nodes themselves.
        """
        arr = np.asarray(z, dtype=complex)
        self._guard(arr)
        flat = arr.ravel()
        out = np.empty_like(flat)
        for i in range(0, flat.size, _EVAL_CHUNK):
            zz = flat[i : i + _EVAL_CHUNK]
            with np.errstate(divide="ignore", invalid="ignore"):
                out[i : i + _EVAL_CHUNK] = self._log_factors(zz, skip=None) + np.log(
                    zz - self.gamma00
                )
        res = out.reshape(arr.shape)
        if arr.ndim == 0:
            return complex(res)
        return res

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        logs = np.asarray(self.log_g(arr))
        with np.errstate(over="ignore", invalid="ignore"):
            res = np.where(np.isneginf(logs.real), 0.0, np.exp(logs))
        if arr.ndim == 0:
            return complex(res)
        return res

    def _locate(self, gamma_pt: complex) -> int:
        gaps = np.abs(self._gam - complex(gamma_pt))
        j = int(np.argmin(gaps))
        if gaps[j] > 1e-9 * max(1.0, abs(gamma_pt)):
            raise ValueError(f"{gamma_pt} is not a stored node")
        return j

    def log_g_derivative(self, gamma_pt: complex) -> complex:
        """Complex log of g'(gamma) at a stored node.

        At a simple zero the derivative equals the product of all other
        factors times the local factor's own slope; every piece is
        available in closed form, so no differencing is involved.
        """
        j = self._locate(gamma_pt)
        gj = complex(self._gam[j])
        zz = np.array([gj])
        if j == 0:
            total = complex(self._log_factors(zz, skip=None)[0])
        else:
            total = complex(self._log_factors(zz, skip=j)[0])
            total += cmath.log(gj - self.gamma00)
            # slope of (1 - z/gamma) exp(z/gamma + z^2/(2 lam^2)) at z = gamma
            lamj = complex(self._lam[j])
            total += cmath.log(-1.0 / gj) + gj / gj + gj ** 2 / (2.0 * lamj ** 2)
        return total

    def g_derivative(self, gamma_pt: complex) -> complex:
        return cmath.exp(self.log_g_derivative(gamma_pt))

    def node_log_derivatives(self) -> np.ndarray:
        """log g' at every stored node, in the (modulus, argument) node order."""
        if self._node_log_derivatives is None:
            self._node_log_derivatives = np.array(
                [self.log_g_derivative(g) for g in self._gam]
            )
        return self._node_log_derivatives

    def derivative_lower_probe(self) -> "DerivativeBoundProbe":
        """Fit log|g'(gamma)| - beta|gamma|^2/2 against -|gamma| log|gamma|.

        A positive finite margin over the whole window is evidence for a
        derivative lower bound of the form C exp(-c|gamma| log|gamma|)
        exp(beta |gamma|^2 / 2); the constants are fitted, not proven.
        """
        logs = self.node_log_derivatives().real
        mods = np.abs(self._gam)
        keep = mods >= 1.0
        y = logs[keep] - 0.5 * self.beta * mods[keep] ** 2
        t = mods[keep] * np.log(mods[keep])
        design = np.column_stack([-t, np.ones_like(t)])
        (c_fit, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
        margin = float(np.min(y + c_fit * t)) if y.size else math.inf
        return DerivativeBoundProbe(
            c=float(c_fit),
            intercept=float(intercept),
            min_log_margin=margin,
            count=int(y.size),
            passed=bool(np.isfinite(logs).all() and math.isfinite(margin)),
        )


@dataclass(frozen=True)
class DerivativeBoundProbe:
    c: float
    intercept: float
    min_log_margin: float
    count: int
    passed: bool


@dataclass(frozen=True)
class LagrangeResult:
    value: complex
    last_increment: float
    terms: int
    increments: tuple[float, ...] | None = None


def lagrange_interpolate(
    ev: GGammaEvaluator,
    samples: Mapping[complex, complex],
    z: complex,
    alpha: float,
    return_trace: bool = False,
) -> LagrangeResult:
    """Reconstruct a Gaussian-weighted entire function from node samples.

    Computes the partial sums of ``sum samples[gamma] * g(z) /
    (g'(gamma) (z - gamma))`` in increasing node modulus.  Convergence
    requires the sampled function to live at a strictly smaller weight
    than the node density provides (``alpha < beta``).
    """
    if not alpha < ev.beta:
        raise ValueError(f"alpha must be below beta = {ev.beta:.6g}")
    missing = sum(1 for g in ev._gam if complex(g) not in samples)
    if missing:
        raise ValueError(f"{missing} stored nodes have no sample value")
    z = complex(z)
    for g in ev._gam:
        if abs(z - g) <= 1e-12 * max(1.0, abs(g)):
            return LagrangeResult(
                value=complex(samples[complex(g)]),
                last_increment=0.0,
                terms=0,
                increments=() if return_trace else None,
            )
    log_gz = complex(np.asarray(ev.log_g(z)))
    log_dg = ev.node_log_derivatives()
    total = 0.0 + 0.0j
    increments: list[float] = []
    for j, g in enumerate(ev._gam):
        term = samples[complex(g)] * cmath.exp(
            log_gz - complex(log_dg[j]) - cmath.log(z - complex(g))
        )
        total += term
        increments.append(abs(term))
    return LagrangeResult(
        value=total,
        last_increment=increments[-1] if increments else 0.0,
        terms=len(increments),
        increments=tuple(increments) if return_trace else None,
    )


def three_lines_liouville_note(
    angles: Iterable[float] = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0),
    pitch: float = 1.0,
    radius: float = 50.0,
) -> dict:
    """Report on a union-of-lines point family with vanishing planar density.

    The family of equally spaced points on finitely many lines through
    the origin splits the plane into sectors; when every sector opening
    stays below pi/2, order-two growth bounded on the boundary rays
    propagates to each sector, while the point count inside radius r
    grows only linearly.  The report records the sector geometry and a
    measured density trend; it makes no claim beyond density -> 0.
    """
    from .sampler import three_lines

    ang = sorted(a % math.pi for a in angles)
    boundaries = sorted(ang + [a + math.pi for a in ang])
    openings = [
        (boundaries[(i + 1) % len(boundaries)] - boundaries[i]) % (2.0 * math.pi)
        for i in range(len(boundaries))
    ]
    pts = three_lines(angles=tuple(angles), pitch=pitch, radius=radius)
    arr = np.asarray(pts, dtype=complex)
    radii = [radius / 5.0, radius / 2.5, radius]
    densities = [
        float(np.count_nonzero(np.abs(arr) <= r)) / (math.pi * r * r) for r in radii
    ]
    return {
        "line_angles": tuple(ang),
        "sector_boundaries": tuple(boundaries),
        "sector_openings": tuple(openings),
        "sector_count": len(openings),
        "max_sector_opening": max(openings),
        "all_openings_below_half_pi": max(openings) < math.pi / 2.0,
        "pitch": pitch,
        "radius": radius,
        "point_count": int(arr.size),
        "density_radii": tuple(radii),
        "densities": tuple(densities),
        "density_trend_decreasing": all(
            densities[i + 1] < densities[i] for i in range(len(densities) - 1)
        ),
    }
