"""Weierstrass sigma machinery on planar lattices.

This module builds numerically validated evaluators for:

* the Weierstrass sigma function of a lattice, from the Jacobi theta
  series of a reduced basis after reducing ``z`` into the fundamental
  cell (DLMF 23.6.9 and 20.2.1), with no domain limit but the range of
  floating point,
* its quasi-periods ``eta1, eta2`` (each reduced generator from
  theta_1'''(0) / theta_1'(0) of its own period ratio, cross-checked
  against the Legendre relation and the translation equation),
* the growth-corrected variant ``sigma_mod(z) = sigma(z) * exp(a z^2)``
  whose modulus grows like ``exp(pi |z|^2 / (2 s))`` with ``s`` the
  lattice cell area,
* a bounded-but-nonconstant quotient with two lattice zeros removed
  (the critical-density counterexample),
* an interpolation kernel ``g`` built from a perturbed square lattice,
  given as the lattice, a window radius and one offset per window point,
  as sigma times a finite correction over the nodes that moved off the
  lattice (anchored at the node homed at 0, no truncation, no domain
  radius but sigma's overflow), its derivative on the node set in closed
  form, and Lagrange-type reconstruction.

Evaluators are immutable after construction; all validation happens
eagerly in ``__init__``.  The module imports only ``fock`` and
``lattice``, never the set layer (``pointset``, ``sampler``).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fock import fock_gram
from .lattice import Lattice, modulus_order, square_lattice, window_arrays

__all__ = [
    "SigmaEvaluator",
    "CriticalQ",
    "fock_annulus_increments",
    "GGammaEvaluator",
    "DerivativeBoundProbe",
    "LagrangeResult",
    "lagrange_interpolate",
]

# Bound on the eager sigma residuals; breaching it is an internal fault.
_CHECK_TOL = 1e-6
# Circle of samples SigmaEvaluator.derivatives_at reads derivatives from.
_CONTOUR_RADIUS = 0.3
_CONTOUR_POINTS = 64


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


def _theta1_coefficients(tau: complex) -> np.ndarray:
    """Coefficients c_n = 2 (-1)^n q^((n + 1/2)^2) with q = exp(i pi tau).

    Then ``theta_1(v) = sum_n c_n sin((2n+1) v)`` (DLMF 20.2.1).  The
    count keeps the dropped terms below 1e-17 of the sum while
    ``|Im v| <= 3 pi Im(tau) / 2``, i.e. up to one period outside the
    centred cell.
    """
    count = int(math.ceil(2.0 + math.sqrt(40.0 / (math.pi * tau.imag))))
    n = np.arange(count + 1)
    return 2.0 * (-1.0) ** n * np.exp(1j * math.pi * tau * (n + 0.5) ** 2)


def _theta_eta(coeffs: np.ndarray, w: complex) -> complex:
    """Quasi-period of the generator ``w``: -pi^2 theta_1'''(0) / (3 w theta_1'(0)).

    ``coeffs`` belong to the ratio (other generator) / ``w`` (DLMF 23.6.8).
    """
    odd = 2.0 * np.arange(coeffs.size) + 1.0
    d1 = complex(np.sum(coeffs * odd))
    d3 = -complex(np.sum(coeffs * odd ** 3))
    return -(math.pi ** 2) * d3 / (3.0 * w * d1)


def _finite(values, what: str) -> None:
    """Raise ValueError when any of ``values`` is inf or nan."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite here (overflow or non-finite input)")


class SigmaEvaluator:
    """Weierstrass sigma of an unshifted lattice from the Jacobi theta series.

    With the reduced basis ``(r1, r2)``, ``tau = r2 / r1`` and
    ``q = exp(i pi tau)`` (``|q| <= exp(-pi sqrt(3) / 2)``), DLMF 23.6.9
    reads, for full periods,

        sigma(z) = (r1 / pi) exp(eta_r1 z^2 / (2 r1)) theta_1(pi z / r1) / theta_1'(0).

    A point ``z = z0 + lam`` with ``lam = m r1 + n r2`` is reduced into
    the centred cell first and brought back by quasi-periodicity,
    ``sigma(z0 + lam) = (-1)^(m+n+mn) sigma(z0) exp(eta(lam) (z0 + lam/2))``,
    so the series only ever runs at ``|Im v| <= pi Im(tau) / 2``.  Each
    reduced generator takes its quasi-period from its own theta series
    (``r2`` from the ratio ``-r1 / r2``); ``eta1, eta2`` are the additive
    combinations for the lattice's own generators.  The Legendre relation,
    the growth constant ``a_const`` and a translation residual are
    validated eagerly.  Values that overflow (past ``|z|`` of about 21 on
    ``Z + iZ``) raise ValueError.
    """

    def __init__(self, lat: Lattice) -> None:
        if lat.shift != 0:
            raise ValueError("sigma evaluators require an unshifted lattice")
        self.lattice = lat
        r1, r2, tau = _reduce_tau(lat.omega1, lat.omega2)
        self._r1, self._r2, self._tau = r1, r2, tau
        self._coeffs = _theta1_coefficients(tau)
        self._odd = 2.0 * np.arange(self._coeffs.size) + 1.0
        self._scale = r1 / (math.pi * complex(np.sum(self._coeffs * self._odd)))
        self._eta_r = (
            _theta_eta(self._coeffs, r1),
            _theta_eta(_theta1_coefficients(-r1 / r2), r2),
        )
        self.eta1, self.eta2 = (self._eta_of(w) for w in (lat.omega1, lat.omega2))

        self.legendre_residual = abs(
            self.eta1 * lat.omega2 - self.eta2 * lat.omega1 - 2j * math.pi
        )
        if self.legendre_residual > _CHECK_TOL:
            raise RuntimeError(
                f"Legendre residual {self.legendre_residual:.3e} exceeds {_CHECK_TOL:.1e}"
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
        if self.a_consistency_residual > _CHECK_TOL:
            raise RuntimeError(
                "growth-correction constant disagrees between generators "
                f"({self.a_consistency_residual:.3e})"
            )
        self.quasi_period_residual = self._functional_residual()
        if self.quasi_period_residual > _CHECK_TOL:
            raise RuntimeError(
                f"quasi-periodicity residual {self.quasi_period_residual:.3e} "
                f"exceeds {_CHECK_TOL:.1e}"
            )

    # -- evaluation -----------------------------------------------------

    def _reduce(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduced coordinates (m, n) of the lattice point whose cell holds z, and that point."""
        t = z / self._r1
        n = np.rint(t.imag / self._tau.imag)
        m = np.rint(t.real - n * self._tau.real)
        return m, n, m * self._r1 + n * self._r2

    def _eta_of(self, w: complex) -> complex:
        """Quasi-period of a lattice vector, additive over the reduced pair."""
        m, n, _ = self._reduce(np.asarray(w, dtype=complex))
        return complex(m * self._eta_r[0] + n * self._eta_r[1])

    def _series(self, z: np.ndarray) -> np.ndarray:
        """The theta formula at z itself, with no reduction into the cell."""
        v = (math.pi / self._r1) * z
        theta = np.zeros_like(v)
        for c, k in zip(self._coeffs, self._odd):
            theta += c * np.sin(k * v)
        return self._scale * theta * np.exp(self._eta_r[0] * z * z / (2.0 * self._r1))

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            m, n, lam = self._reduce(arr)
            z0 = arr - lam
            eta = m * self._eta_r[0] + n * self._eta_r[1]
            sign = np.where(np.mod(m + n + m * n, 2.0) == 0.0, 1.0, -1.0)
            res = sign * self._series(z0) * np.exp(eta * (z0 + 0.5 * lam))
        _finite(res, "sigma")
        if arr.ndim == 0:
            return complex(res)
        return res

    def sigma_mod(self, z):
        """sigma(z) * exp(a_const z^2): modulus grows like exp(pi|z|^2/(2 area))."""
        arr = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            res = np.asarray(self(arr)) * np.exp(self.a_const * arr ** 2)
        _finite(res, "sigma_mod")
        if arr.ndim == 0:
            return complex(res)
        return res

    def log_derivative_on_lattice(self, lam) -> np.ndarray:
        """log sigma'(lam) at lattice points ``lam``, in closed form.

        Differentiating the translation rule at ``z0 = 0`` gives
        ``sigma'(lam) = (-1)^(m+n+mn) exp(eta(lam) lam / 2)`` with
        ``sigma'(0) = 1``; the sign is +1 exactly on ``2 * lattice``, so
        the reduced coordinates give it as well as any others.
        """
        lam = np.asarray(lam, dtype=complex)
        m, n, _ = self._reduce(lam)
        eta = m * self._eta_r[0] + n * self._eta_r[1]
        odd = np.mod(m + n + m * n, 2.0) != 0.0
        return 0.5 * eta * lam + 1j * math.pi * odd

    def derivatives_at(self, center: complex, count: int = 2) -> list[complex]:
        """First ``count`` derivatives at ``center`` via a circle of samples.

        Contour sampling keeps full accuracy at lattice zeros, where
        direct finite differences would divide cancellation noise.
        """
        angles = 2.0 * math.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS
        ring = center + _CONTOUR_RADIUS * np.exp(1j * angles)
        coeffs = np.fft.fft(self(ring)) / _CONTOUR_POINTS
        out = [
            complex(coeffs[k] * math.factorial(k) / _CONTOUR_RADIUS ** k)
            for k in range(1, count + 1)
        ]
        _finite(out, "sigma derivative")
        return out

    # -- validation helpers ---------------------------------------------

    def _functional_residual(self) -> float:
        """Max relative residual of the translation equation at held-out points.

        The left side runs the series at ``z + r`` directly; the right side
        reduces ``z`` into the cell and applies the quasi-period of ``r``.
        """
        r1, r2 = self._r1, self._r2
        zs = np.array([0.31, -0.17, 0.41]) * r1 + np.array([0.22, 0.45, -0.38]) * r2
        worst = 0.0
        for omega, eta in zip((r1, r2), self._eta_r):
            lhs = self._series(zs + omega)
            rhs = -np.asarray(self(zs)) * np.exp(eta * (zs + omega / 2.0))
            scale = np.maximum(np.abs(lhs), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
        return worst


class CriticalQ:
    """sigma_mod with two lattice zeros divided out.

    ``Q(z) = sigma_mod(z) / ((z - lam) (z - lam_prime))`` is entire (the
    removed zeros are simple), vanishes at every other lattice point, and
    is bounded on the lattice without being constant.  ``lam`` and
    ``lam_prime`` are snapped to the lattice points exactly as sigma's
    cell reduction computes them, so near a removed zero the numerator and
    the divisor share one float offset and the quotient keeps full
    relative accuracy.  Exactly at a removed zero ``Q`` takes the closed
    form ``sigma'(lam) exp(a lam^2) / (lam - lam_prime)``.
    """

    def __init__(self, ev: SigmaEvaluator, lam: complex, lam_prime: complex) -> None:
        # raises ValueError naming any point off the lattice
        idx = ev.lattice.indices_of([lam, lam_prime])
        if np.array_equal(idx[0], idx[1]):
            raise ValueError("the two removed lattice points must differ")
        _, _, zeros = ev._reduce(np.array([lam, lam_prime], dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.exp(
                ev.log_derivative_on_lattice(zeros) + ev.a_const * zeros ** 2
            ) / (zeros - zeros[::-1])
        _finite(values, "sigma_mod derivative")
        self.ev = ev
        self.lam, self.lam_prime = complex(zeros[0]), complex(zeros[1])
        self._at_removed = {tuple(i): complex(v) for i, v in zip(idx.tolist(), values)}

    def value_at_removed(self, point: complex) -> complex:
        """Q at a removed zero, which ``point`` names up to the lattice tolerance."""
        key = tuple(self.ev.lattice.indices_of([point])[0].tolist())
        if key not in self._at_removed:
            raise ValueError(f"{complex(point)} is not a removed zero of this quotient")
        return self._at_removed[key]

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            res = np.asarray(self.ev.sigma_mod(arr)) / (
                (arr - self.lam) * (arr - self.lam_prime)
            )
        for point, value in zip((self.lam, self.lam_prime), self._at_removed.values()):
            res = np.where(arr == point, value, res)
        if arr.ndim == 0:
            return complex(res)
        return res


def fock_annulus_increments(
    func: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    radii: Sequence[float],
    radial_order: int = 32,
    angular_points: int = 128,
) -> np.ndarray:
    """Gaussian-weighted squared-mass increments over concentric annuli.

    Returns, for each consecutive pair of radii, the integral of
    ``|func|^2 exp(-alpha |z|^2) (alpha/pi)`` over the annulus, each the
    one-function ``fock.fock_gram`` with ``rmin`` and ``rmax`` its radii.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing with >= 2 entries")
    return np.array([
        fock_gram([func], alpha, hi, radial_order, angular_points, rmin=lo)[0, 0].real
        for lo, hi in zip(radii[:-1], radii[1:])
    ])


def _is_square_lattice(lat: Lattice) -> bool:
    ratio = lat.omega2 / lat.omega1
    return abs(abs(ratio) - 1.0) < 1e-12 and abs(ratio.real) < 1e-12


class GGammaEvaluator:
    """Interpolation kernel built from a (possibly perturbed) square lattice.

    The nodes are ``gamma = lam + offset``, one for each point ``lam`` of
    the unshifted square ``lattice`` within ``window_radius``; ``offsets``
    is aligned with the points of ``window_arrays(lattice,
    window_radius)``, and a scalar moves every node alike.  The kernel is
    the Hadamard-type product

        g(z) = (z - gamma00) * prod over the other nodes of
               (1 - z/gamma) exp(z/gamma + z^2 / (2 lam^2)),

    continued over the unperturbed lattice beyond the window, where the
    anchor ``gamma00`` is the node homed at 0, the first one
    :func:`~fockpr.lattice.window_arrays` lists.  ``nodes`` holds the node
    positions, read-only, ordered by modulus and then by argument
    (:func:`~fockpr.lattice.modulus_order`); node values, as
    :meth:`node_log_derivatives` returns and :func:`lagrange_interpolate`
    takes them, are arrays aligned with it.  The quadratic convergence
    factor uses the home ``lam``, so it cancels against the same factor
    of sigma's product, and what is left is sigma times a finite
    correction:

        g(z) = sigma(z) * (z - gamma00)/z * prod over moved nodes of
               (1 - z/gamma) e^(z/gamma) / ((1 - z/lam) e^(z/lam)).

    A node has moved when its position differs from its home as floats;
    every other factor, including every lattice point beyond the window,
    is exactly 1.  Sigma is :class:`SigmaEvaluator`'s theta series, so
    there is no truncation and no domain radius: evaluation raises
    ValueError only where sigma overflows.
    """

    def __init__(self, lattice: Lattice, window_radius: float, offsets=0.0) -> None:
        if lattice.shift != 0 or not _is_square_lattice(lattice):
            raise ValueError("the kernel needs an unshifted square lattice")
        _, lam = window_arrays(lattice, window_radius)
        offsets = np.asarray(offsets, dtype=complex)
        if offsets.ndim and offsets.shape != lam.shape:
            raise ValueError(
                f"offsets has shape {offsets.shape}, but the window has {lam.size} lattice points"
            )
        self.lattice = lattice
        self.beta = math.pi / lattice.area

        gam = lam + offsets
        self.sigma = SigmaEvaluator(lattice)
        self.gamma00 = complex(gam[0])
        order = modulus_order(gam)
        self.nodes, self._lam = gam[order], lam[order]
        self.nodes.setflags(write=False)
        self._moved = self.nodes != self._lam

        # Each moved factor as (z - gamma)/(z - lam) * c * exp(z * rate),
        # with c = lam/gamma and rate = 1/gamma - 1/lam; the anchor, homed
        # at 0, has no convergence factor (c = 1, rate = 0).
        gm, lm = self.nodes[self._moved], self._lam[self._moved]
        with np.errstate(divide="ignore", invalid="ignore"):
            self._log_c = np.where(lm != 0, np.log(lm / gm), 0.0)
            self._rate = np.where(lm != 0, 1.0 / gm - 1.0 / lm, 0.0)
        self._log_dsigma_at_moved_homes = self.sigma.log_derivative_on_lattice(lm)
        self._node_log_derivatives: np.ndarray | None = None

    @classmethod
    def from_lattice(cls, beta: float, sample_radius: float) -> "GGammaEvaluator":
        """Unperturbed instance: nodes are exactly the square lattice of area pi/beta."""
        return cls(square_lattice(beta), sample_radius)

    # -- log-domain evaluation -------------------------------------------

    def _correction_terms(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log of every moved factor at each z, as a (len(z), moved) matrix.

        Where z sits exactly on a moved home the factor's pole is left
        out; the second array marks those entries.
        """
        d = z[:, None]
        rel = d - self._lam[self._moved]
        at_home = rel == 0
        with np.errstate(divide="ignore"):
            terms = (
                np.log(d - self.nodes[self._moved])
                - np.log(np.where(at_home, 1.0, rel))
                + self._log_c
                + d * self._rate
            )
        return terms, at_home

    def log_g(self, z) -> np.ndarray:
        """Complex log of the kernel (imaginary part meaningful mod 2*pi).

        Returns -inf real part at the nodes themselves.
        """
        arr = np.asarray(z, dtype=complex)
        flat = arr.ravel()
        terms, at_home = self._correction_terms(flat)
        with np.errstate(divide="ignore"):
            log_sigma = np.log(np.asarray(self.sigma(flat)))
        # on a moved home sigma's zero cancels the pole: sigma(z)/(z - lam) -> sigma'(lam)
        row, col = np.nonzero(at_home)
        log_sigma[row] = self._log_dsigma_at_moved_homes[col]
        res = (log_sigma + terms.sum(axis=1)).reshape(arr.shape)
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

    def node_log_derivatives(self) -> np.ndarray:
        """log g' at every node, aligned with ``nodes``.

        At a simple zero the derivative is the slope of the vanishing
        factor times all the others, each in closed form.  At an unmoved
        node ``lam`` the vanishing factor is sigma's, whose slope
        :meth:`SigmaEvaluator.log_derivative_on_lattice` gives; at a moved
        node ``gamma`` it is the node's own factor, whose slope
        ``c exp(gamma * rate) / (gamma - lam)`` multiplies ``sigma(gamma)``.
        """
        if self._node_log_derivatives is None:
            moved = self._moved
            terms, _ = self._correction_terms(self.nodes)
            gm, lm = self.nodes[moved], self._lam[moved]
            terms[np.flatnonzero(moved), np.arange(gm.size)] = (
                self._log_c + gm * self._rate - np.log(gm - lm)
            )
            out = np.empty_like(self.nodes)
            out[~moved] = self.sigma.log_derivative_on_lattice(self._lam[~moved])
            out[moved] = np.log(np.asarray(self.sigma(gm)))
            self._node_log_derivatives = out + terms.sum(axis=1)
        return self._node_log_derivatives

    def derivative_lower_probe(self) -> "DerivativeBoundProbe":
        """Fit log|g'(gamma)| - beta|gamma|^2/2 against -|gamma| log|gamma|.

        A positive finite margin over the whole window is evidence for a
        derivative lower bound of the form C exp(-c|gamma| log|gamma|)
        exp(beta |gamma|^2 / 2); the constants are fitted, not proven.
        """
        logs = self.node_log_derivatives().real
        mods = np.abs(self.nodes)
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


class DerivativeBoundProbe(NamedTuple):
    c: float
    intercept: float
    min_log_margin: float
    count: int
    passed: bool


class LagrangeResult(NamedTuple):
    value: complex
    last_increment: float
    terms: int
    increments: tuple[float, ...] | None = None


def lagrange_interpolate(
    ev: GGammaEvaluator,
    values: np.ndarray,
    z: complex,
    alpha: float,
    return_trace: bool = False,
) -> LagrangeResult:
    """Reconstruct a Gaussian-weighted entire function from node samples.

    ``values[j]`` is the sample at ``ev.nodes[j]``.  Computes the partial
    sums of ``sum values[j] * g(z) / (g'(gamma_j) (z - gamma_j))`` in
    increasing node modulus.  Convergence requires the sampled function
    to live at a strictly smaller weight than the node density provides
    (``alpha < beta``).
    """
    if not alpha < ev.beta:
        raise ValueError(f"alpha must be below beta = {ev.beta:.6g}")
    nodes = ev.nodes
    vals = np.asarray(values, dtype=complex)
    if vals.shape != nodes.shape:
        raise ValueError(
            f"values has shape {vals.shape}, but the nodes have shape {nodes.shape}"
        )
    z = complex(z)
    hit = np.flatnonzero(np.abs(z - nodes) <= 1e-12 * np.maximum(1.0, np.abs(nodes)))
    if hit.size:
        return LagrangeResult(
            value=complex(vals[hit[0]]),
            last_increment=0.0,
            terms=0,
            increments=() if return_trace else None,
        )
    terms = vals * np.exp(ev.log_g(z) - ev.node_log_derivatives() - np.log(z - nodes))
    increments = np.abs(terms)
    return LagrangeResult(
        value=complex(np.sum(terms)),
        last_increment=float(increments[-1]),
        terms=int(terms.size),
        increments=tuple(increments.tolist()) if return_trace else None,
    )

