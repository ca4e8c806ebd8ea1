"""Per-module invariant suites behind ``fockpr verify``.

Each suite runs a battery of fast, deterministic checks of the module's
analytic identities and bounds and returns one :class:`CheckResult` per
check.  The suites are diagnostic instruments: thresholds are set a few
decades above observed rounding noise, far below the scale where the
identities would fail if the implementation were wrong.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import fock, gabor, phaseless, special
from .fock import FockPoly
from .lattice import Lattice, modulus_order, window_arrays
from .rng import keyed_disk
from .sampler import GeneratorConfig, random_triple

__all__ = [
    "CheckResult",
    "verify_fock",
    "verify_special",
    "verify_gabor",
    "verify_phaseless",
    "pinned_injectivity_points",
    "SUITES",
    "run_suite",
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    value: float
    tolerance: float | None = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tol = "" if self.tolerance is None else f"  tol={self.tolerance:.3g}"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: value={self.value:.6g}{tol}{detail}"

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "value": self.value}
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.detail:
            out["detail"] = self.detail
        return out


def _below(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(value <= tol), float(value), tol, detail)


def _flag(name: str, ok: bool, value: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), float(value), None, detail)


def _random_poly(rng: np.random.Generator, alpha: float, degree: int) -> FockPoly:
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return FockPoly(alpha, c / np.linalg.norm(c))


def _random_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


# -- fock ---------------------------------------------------------------------


def _series_dist(alpha: float, z: np.ndarray, w: np.ndarray, n_max: int = 80) -> np.ndarray:
    """Kernel distance through the orthonormal expansion (independent of
    the closed form): ||k_z - k_w||^2 = sum |e_n(z) - e_n(w)|^2."""
    scales = fock.basis_scales(alpha, n_max)
    n = np.arange(n_max + 1)
    ez = scales[None, :] * z[:, None] ** n[None, :]
    ew = scales[None, :] * w[:, None] ** n[None, :]
    return np.sqrt(np.sum(np.abs(ez - ew) ** 2, axis=1))


def verify_fock(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    alpha = 1.0
    out: list[CheckResult] = []

    z = _random_points(rng, 400, 1.5)
    w = _random_points(rng, 400, 1.5)
    closed = fock.dist(alpha, z, w)
    series = _series_dist(alpha, z, w)
    out.append(
        _below(
            "kernel distance: closed form vs orthonormal series",
            float(np.max(np.abs(closed - series))),
            1e-12,
            "400 random pairs, |z| <= 1.5",
        )
    )

    zc = _random_points(rng, 2000, 2.0)
    gap = np.minimum(alpha**-0.5, 1.0 / (alpha * np.maximum(np.abs(zc), 1e-9)))
    wc = zc + gap * rng.random(2000) * np.exp(2j * np.pi * rng.random(2000))
    ok = fock.close_pair_bound_check(alpha, zc, wc)
    out.append(
        _flag(
            "close-pair linearized distance bound",
            bool(np.all(ok)),
            float(np.count_nonzero(~ok)),
            "2000 hypothesis-satisfying pairs, violations counted",
        )
    )

    F = _random_poly(rng, alpha, 8)
    H = _random_poly(rng, alpha, 8)
    grid = _random_points(rng, 300, 3.0)
    g0 = fock.growth_check(F, grid)
    g1 = fock.derivative_growth_check(F, grid)
    out.append(
        _flag(
            "pointwise growth envelope",
            g0.passed and g1.passed,
            max(g0.max_ratio, g1.max_ratio),
            "value = worst ratio to envelope",
        )
    )

    res = max(
        fock.polyanalytic_residual(_random_poly(rng, alpha, 6), _random_poly(rng, alpha, 6), _random_points(rng, 20, 2.0))
        for _ in range(20)
    )
    out.append(_below("conjugate-lowering identity residual", res, 1e-10, "20 random pairs"))

    G = fock.two_var_extension(F, 3.0)
    xy = rng.standard_normal((50, 2))
    direct = F.derivative()(xy[:, 0] + 1j * xy[:, 1]) * np.conj(F(xy[:, 0] + 1j * xy[:, 1]))
    lifted = G(xy[:, 0], xy[:, 1])
    out.append(
        _below(
            "two-variable extension restricts to F' conj(F)",
            float(np.max(np.abs(direct - lifted)) / max(np.max(np.abs(direct)), 1e-300)),
            1e-10,
            "50 real points",
        )
    )

    worst = 0.0
    violations = 0
    for _ in range(20):
        ok_one, lhs, rhs = fock.extension_norm_bound_check(_random_poly(rng, alpha, 6), 3.0)
        violations += 0 if ok_one else 1
        worst = max(worst, lhs / rhs)
    out.append(
        _flag(
            "extension norm bound",
            violations == 0,
            worst,
            "20 random degree-6 polynomials; value = worst norm/bound",
        )
    )

    q = fock.quad_norm(F)
    out.append(
        _below(
            "quadrature norm vs coefficient norm",
            abs(q - F.norm()) / F.norm(),
            1e-9,
            "polar quadrature cross-check",
        )
    )

    wfh = fock.wronskian(F, H).coeffs
    whf = fock.wronskian(H, F).coeffs
    k = max(len(wfh), len(whf))
    anti = np.zeros(k, dtype=complex)
    anti[: len(wfh)] += wfh
    anti[: len(whf)] += whf
    self_w = fock.wronskian(F, FockPoly(alpha, 2.7j * F.coeffs)).coeffs
    out.append(
        _below(
            "wronskian antisymmetry and self-degeneracy",
            float(max(np.linalg.norm(anti), np.linalg.norm(self_w))),
            1e-12,
            "W(F,H)+W(H,F) = 0 and W(F, cF) = 0",
        )
    )
    return out


# -- special ------------------------------------------------------------------


def verify_special(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    lat = Lattice(1.0, 1.0j)
    ev = special.SigmaEvaluator(lat)

    out.append(_below("quasi-period residual", ev.quasi_period_residual, 1e-6))
    out.append(_below("Legendre relation residual", ev.legendre_residual, 1e-6))
    out.append(
        _below("growth modifier |a| on the square lattice", abs(ev.a_const), 1e-6)
    )
    out.append(
        _below(
            "per-generator modifier consistency",
            ev.a_consistency_residual,
            1e-8,
        )
    )

    # sigma(-z) = -sigma(z): the reduced route at -z against the series at z
    # itself, on the points where the series holds (|Im(pi z / r1)| <= 3 pi Im(tau) / 2)
    pts = _random_points(rng, 200, 5.0)
    pts = pts[np.abs((pts / ev._r1).imag) <= 1.5 * ev._tau.imag]
    direct = ev._series(pts)
    odd = np.max(np.abs(ev(-pts) + direct)) / max(float(np.max(np.abs(direct))), 1e-300)
    out.append(
        _below(
            "oddness of sigma",
            float(odd),
            1e-8,
            f"{pts.size} of 200 points with |z| <= 5 inside the series' range",
        )
    )

    d1 = ev.derivatives_at(0.0, count=1)[0]
    out.append(
        _below(
            "normalization sigma(0) = 0, sigma'(0) = 1",
            float(max(abs(complex(ev(0.0))), abs(d1 - 1.0))),
            1e-9,
        )
    )

    grid = _random_points(rng, 300, 5.5)
    with np.errstate(divide="ignore"):
        logratio = np.log(np.abs(ev.sigma_mod(grid))) - 0.5 * (math.pi / lat.area) * np.abs(grid) ** 2
    logratio = logratio[np.isfinite(logratio)]
    out.append(
        _flag(
            "modified sigma growth-bounded",
            bool(np.max(logratio) <= 0.0),
            float(np.max(logratio)),
            "log of |sigma_mod| e^{-pi |z|^2 / (2s)}, must stay below 0",
        )
    )

    q = special.CriticalQ(ev, 0.0, 1.0)
    _, zeros = window_arrays(lat, 4.5)
    zeros = np.array([p for p in zeros if abs(p) > 1e-9 and abs(p - 1.0) > 1e-9])
    # At a zero lam of Q, Q(lam + h) = h Q'(lam) (1 + O(h)), with
    # Q'(lam) = sigma'(lam) exp(a lam^2) / (lam (lam - 1)) from contour
    # derivatives; the offsets h are random and recovered exactly.
    near = zeros + 2.0 ** -40 * _random_points(rng, 100, 4.5)[: zeros.size]
    h = near - zeros
    slopes = np.array([ev.derivatives_at(lam, count=1)[0] for lam in zeros.tolist()])
    slopes *= np.exp(ev.a_const * zeros ** 2) / (zeros * (zeros - 1.0))
    out.append(
        _below(
            "critical ratio vanishes on the remaining lattice",
            float(np.max(np.abs(q(near) - h * slopes) / np.abs(h * slopes))),
            1e-8,
            f"Q(lam + h) against h Q'(lam) at {zeros.size} lattice points, |h| <= 4.5 * 2^-40",
        )
    )
    out.append(
        _flag(
            "critical ratio survives at the removed points",
            min(abs(q.value_at_removed(0.0)), abs(q.value_at_removed(1.0))) > 1e-6,
            float(abs(q.value_at_removed(0.0))),
        )
    )

    # Nodes with even m move by a keyed draw, the anchor among them; the
    # others stay on the lattice.  At a zero, g(gamma + h) = h g'(gamma)
    # (1 + O(h)), which tests both closed forms of the node derivative.
    idx, _ = window_arrays(lat, 3.0)
    m, n = idx[:, 0], idx[:, 1]
    moved = m % 2 == 0
    kernel = special.GGammaEvaluator(
        lat, 3.0, np.where(moved, 0.2 * keyed_disk(seed, m, n, 1), 0.0)
    )
    near = kernel.nodes + 2.0 ** -40 * _random_points(rng, 60, 4.5)[: kernel.nodes.size]
    slopes = (near - kernel.nodes) * np.exp(kernel.node_log_derivatives())
    out.append(
        _below(
            "interpolation kernel vanishes to first order at its nodes",
            float(np.max(np.abs(kernel(near) - slopes) / np.abs(slopes))),
            1e-8,
            f"g(gamma + h) against h g'(gamma) at {kernel.nodes.size} nodes, "
            f"{np.count_nonzero(moved)} moved, |h| <= 4.5 * 2^-40",
        )
    )

    g = special.GGammaEvaluator.from_lattice(math.pi, sample_radius=5.0)
    probe = g.derivative_lower_probe()
    out.append(
        _flag(
            "node derivative lower envelope",
            probe.passed,
            probe.min_log_margin,
            f"fitted decay constant c={probe.c:.3f}",
        )
    )

    g2 = special.GGammaEvaluator.from_lattice(2.0, sample_radius=6.0)
    ones = np.ones(g2.nodes.size, dtype=complex)
    err = max(
        abs(special.lagrange_interpolate(g2, ones, complex(zz), alpha=1.0).value - 1.0)
        for zz in _random_points(rng, 5, 1.5)
    )
    out.append(
        _below(
            "node-sample reconstruction of the constant",
            float(err),
            1e-3,
            "5 probe points, node weight 2, target weight 1",
        )
    )
    return out


# -- gabor --------------------------------------------------------------------


def verify_gabor(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    gauss = gabor.HermiteSignal.gaussian()

    pts = _random_points(rng, 20, 2.0)
    vals = np.array([gabor.bargmann(gauss, z) for z in pts])
    out.append(
        _below(
            "entire lift of the Gaussian is constant 2^{-1/2}",
            float(np.max(np.abs(vals - 2.0**-0.5))),
            1e-8,
            "20 random points",
        )
    )

    sig = gabor.HermiteSignal(tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    za = _random_points(rng, 10, 2.0)
    stab = max(
        abs(gabor.bargmann(sig, z, quad_points=128) - gabor.bargmann(sig, z, quad_points=256))
        for z in za
    )
    out.append(_below("quadrature-order stability of the lift", float(stab), 1e-12))

    nmax = 3
    lifts = [
        partial(gabor.bargmann_grid, gabor.HermiteSignal((0.0,) * n + (1.0,)))
        for n in range(nmax + 1)
    ]
    gram = fock.fock_gram(lifts, math.pi, rmax=5.0, radial_order=64, angular_points=128)
    diag = np.real(np.diag(gram))
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    spread = float(np.max(np.abs(diag - diag.mean())))
    out.append(
        _below(
            "lifted Hermite Gram is a positive multiple of the identity",
            max(off, spread),
            1e-6,
            f"common constant {diag.mean():.8f} (expect 2^-1/2), degrees <= {nmax}",
        )
    )

    z0 = 0.7 - 0.4j
    lhs = abs(gabor.bargmann(sig, z0))
    rhs = abs(gabor.gabor_transform(sig, z0.real, -z0.imag)) * math.exp(0.5 * math.pi * abs(z0) ** 2)
    out.append(
        _below("modulus bridge between windowed and entire transforms", abs(lhs - rhs), 1e-12)
    )

    h = 1e-5
    zc = 0.3 + 0.2j
    fx = (gabor.bargmann(sig, zc + h) - gabor.bargmann(sig, zc - h)) / (2 * h)
    fy = (gabor.bargmann(sig, zc + 1j * h) - gabor.bargmann(sig, zc - 1j * h)) / (2 * h)
    out.append(
        _below(
            "entire lift satisfies the Cauchy-Riemann equations",
            abs(fx + 1j * fy) / max(abs(fx), 1e-300),
            1e-6,
            "central differences at one interior point",
        )
    )

    lat = Lattice(0.9, 0.9j)
    rep_pass = gabor.hardy_check(gauss, lat, c_value=0.71, window_radius=3.0)
    h1 = gabor.HermiteSignal((0.0, 1.0))
    rep_fail = gabor.hardy_check(h1, lat, c_value=0.71, window_radius=3.0)
    out.append(
        _flag(
            "Gaussian passes the lattice decay test at C = 0.71",
            rep_pass.passed,
            rep_pass.max_ratio,
        )
    )
    out.append(
        _flag(
            "first excited state violates the same decay test",
            not rep_fail.passed and len(rep_fail.violations_within(2.0)) > 0,
            rep_fail.max_ratio,
            "violations inside |z| <= 2 required",
        )
    )

    h2 = gabor.HermiteSignal((0.0, 0.0, 1.0))
    cls_signal = gabor.symmetry_class(h2)
    pts2 = _random_points(rng, 12, 1.5)
    b2 = np.array([gabor.bargmann(h2, z) for z in pts2])
    b2n = np.array([gabor.bargmann(h2, -z) for z in pts2])
    b2c = np.array([gabor.bargmann(h2, np.conj(z)) for z in pts2])
    sym_gap = float(
        max(np.max(np.abs(b2 - b2n)), np.max(np.abs(np.conj(b2) - b2c)))
    )
    out.append(
        _flag(
            "even real signals lift to even conjugation-symmetric functions",
            cls_signal == "even_real" and sym_gap <= 1e-10,
            sym_gap,
            f"signal class {cls_signal!r}",
        )
    )
    return out


# -- phaseless ----------------------------------------------------------------


def pinned_injectivity_points(seed: int) -> np.ndarray:
    """Scattered triple on the unit square lattice: 63 points, well inside
    general position for degree-6 truncation, ordered by rounded modulus
    and then by angle."""
    cfg = GeneratorConfig(
        Lattice(1.0, 1.0j), window_radius=2.4, gamma=0.05, kappa_cap=0.45, seed=seed
    )
    pts = np.asarray(random_triple(cfg).points(), dtype=complex)
    return pts[modulus_order(pts)]


def verify_phaseless(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    alpha = 1.0
    F = _random_poly(rng, alpha, 5)
    tau = np.exp(0.77j)
    H_eq = FockPoly(alpha, tau * F.coeffs)
    H_other = _random_poly(rng, alpha, 5)

    G_eq = phaseless.uniqueness_product(F, H_eq)
    G_other = phaseless.uniqueness_product(F, H_other)
    out.append(
        _below(
            "uniqueness product vanishes for a unimodular multiple",
            float(np.linalg.norm(G_eq.coeffs)),
            1e-12,
        )
    )
    out.append(
        _flag(
            "uniqueness product survives for an independent pair",
            float(np.linalg.norm(G_other.coeffs)) > 1e-6,
            float(np.linalg.norm(G_other.coeffs)),
        )
    )

    probe_pts = _random_points(rng, 25, 2.0)
    dec = phaseless.phase_relation_decide(F, H_eq, probe_pts)
    out.append(
        _flag(
            "modulus comparison recovers the unimodular factor",
            dec.status == "equivalent" and abs(dec.tau - tau) <= 1e-8,
            abs(dec.tau - tau) if dec.tau is not None else math.inf,
            f"status {dec.status!r}",
        )
    )
    dec2 = phaseless.phase_relation_decide(F, H_other, probe_pts)
    out.append(
        _flag(
            "modulus comparison rejects unequal moduli",
            dec2.status == "precondition_failed",
            dec2.max_modulus_gap,
            f"status {dec2.status!r}",
        )
    )

    worst_fd = 0.0
    for _ in range(30):
        z = complex(_random_points(rng, 1, 1.5)[0])
        th = float(2 * math.pi * rng.random())
        exact = phaseless.directional_derivative(F, H_other, th, z)
        h = 1e-4
        e = np.exp(1j * th)

        def diff(t: float) -> float:
            zz = z + t * e
            return abs(F(zz)) ** 2 - abs(H_other(zz)) ** 2

        fd = (diff(h) - diff(-h)) / (2 * h)
        worst_fd = max(worst_fd, abs(exact - fd))
    out.append(
        _below(
            "directional derivative matches central differences",
            worst_fd,
            1e-6,
            "30 random directions",
        )
    )

    wtrue = complex(rng.standard_normal() + 1j * rng.standard_normal())
    r1 = 2.0 * (math.cos(0.3) * wtrue.real - math.sin(0.3) * wtrue.imag)
    r2 = 2.0 * (math.cos(1.9) * wtrue.real - math.sin(1.9) * wtrue.imag)
    rec = phaseless.combine_directionals(r1, r2, 0.3, 1.9)
    out.append(
        _below("two directional samples determine the complex derivative", abs(rec - wtrue), 1e-12)
    )

    pts = pinned_injectivity_points(seed)
    rep_full = phaseless.lifted_injectivity(pts, N=2, alpha=1.0)
    rep_small = phaseless.lifted_injectivity(pts[:2], N=1, alpha=1.0)
    out.append(
        _flag(
            "enough scattered points force an empty kernel",
            rep_full.kernel_dim == 0 and rep_full.sigma_min > 0,
            rep_full.sigma_min,
            f"{rep_full.num_points} points at degree 2",
        )
    )
    witness_ok = False
    gap = math.inf
    if rep_small.kernel_dim == 2 and rep_small.witness is not None:
        X = FockPoly(1.0, np.asarray(rep_small.witness[0]))
        Y = FockPoly(1.0, np.asarray(rep_small.witness[1]))
        gap = float(np.max(np.abs(np.abs(X(pts[:2])) - np.abs(Y(pts[:2])))))
        wn = float(np.linalg.norm(fock.wronskian(X, Y).coeffs))
        witness_ok = gap <= 1e-8 and wn > 1e-6
    out.append(
        _flag(
            "under-determined configurations yield a concrete witness pair",
            witness_ok,
            gap,
            "equal moduli on the points, genuinely distinct functions",
        )
    )
    return out


SUITES = {
    "fock": verify_fock,
    "special": verify_special,
    "gabor": verify_gabor,
    "phaseless": verify_phaseless,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return SUITES[name](seed=seed)
