"""Entire interpolation kernels: sigma products, quotients, node calculus."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from fockpr.fock import fock_gram
from fockpr.lattice import Lattice, modulus_order, window_arrays
from fockpr.special import (
    CriticalQ,
    GGammaEvaluator,
    SigmaEvaluator,
    fock_annulus_increments,
    lagrange_interpolate,
)


# -- sigma against the mpmath theta oracle ------------------------------------------


UNIT = Lattice(1.0, 1.0j)


def oracle_eta(w: complex, other: complex) -> mp.mpc:
    """Quasi-period of ``w`` from mpmath's theta_1 at the ratio other / w."""
    q = mp.exp(1j * mp.pi * mp.mpc(other) / mp.mpc(w))
    return -(mp.pi**2) * mp.jtheta(1, 0, q, 3) / (3 * mp.mpc(w) * mp.jtheta(1, 0, q, 1))


def theta_sigma(z: complex, lat: Lattice = UNIT) -> complex:
    """DLMF 23.6.9 in mpmath, on the lattice's own (unreduced) period ratio."""
    with mp.workdps(40):
        w1 = mp.mpc(lat.omega1)
        q = mp.exp(1j * mp.pi * mp.mpc(lat.omega2) / w1)
        zz = mp.mpc(z)
        val = (
            w1 / mp.pi
            * mp.exp(oracle_eta(lat.omega1, lat.omega2) * zz**2 / (2 * w1))
            * mp.jtheta(1, mp.pi * zz / w1, q)
            / mp.jtheta(1, 0, q, 1)
        )
        return complex(val)


PROBES = [0.37 + 0.21j, -1.4 + 0.8j, 2.6 - 1.9j, -3.3 - 2.2j, 4.4 + 1.1j, 0.1 + 5.3j]

# Lattices with the radius each is probed to.  On the v = 0.45 square
# lattice |sigma| passes the float64 range near |z| = 9.6.
ORACLE_LATTICES = [
    (UNIT, 10.0),
    (Lattice(1.0, 1.3j), 10.0),
    (Lattice(0.45, 0.45j), 9.0),
    (Lattice(1.0, 0.3 + 1.0j), 10.0),
]


def spiral(radius: float, count: int = 16) -> np.ndarray:
    """Points filling the disk |z| <= radius, out to its edge."""
    k = np.arange(count)
    return radius * np.sqrt((k + 1.0) / count) * np.exp(1j * (2.399963 * k + 0.3))


def test_sigma_matches_the_theta_oracle():
    for lat, radius in ORACLE_LATTICES:
        ev = SigmaEvaluator(lat)
        for z in spiral(radius):
            expect = theta_sigma(z, lat)
            assert abs(complex(ev(z)) - expect) <= 1e-12 * abs(expect), (lat, z)


def test_quasi_periods_match_the_theta_oracle():
    for lat, _radius in ORACLE_LATTICES:
        ev = SigmaEvaluator(lat)
        with mp.workdps(40):
            eta1 = complex(oracle_eta(lat.omega1, lat.omega2))
            eta2 = complex(oracle_eta(lat.omega2, -lat.omega1))
        assert abs(ev.eta1 - eta1) <= 1e-13 * abs(eta1), lat
        assert abs(ev.eta2 - eta2) <= 1e-13 * abs(eta2), lat


def test_sigma_normalization_and_oddness(sigma_unit):
    assert complex(sigma_unit(0.0)) == 0.0
    d1 = sigma_unit.derivatives_at(0.0, count=1)[0]
    assert abs(d1 - 1.0) < 1e-12
    pts = np.asarray(PROBES)
    assert np.allclose(sigma_unit(-pts), -np.asarray(sigma_unit(pts)), rtol=1e-10)


def test_sigma_vanishes_exactly_on_the_lattice(sigma_unit):
    for lam in (1.0, 1j, 2 + 3j, -4.0 - 1j):
        assert complex(sigma_unit(lam)) == 0.0
    assert complex(sigma_unit(0.5 + 0.5j)) != 0.0


def test_quasi_periods_of_the_square_lattice(sigma_unit):
    # symmetry forces the growth correction to vanish, hence eta = pi * conj(omega)
    assert abs(sigma_unit.a_const) < 1e-10
    assert abs(sigma_unit.eta1 - math.pi) < 1e-8
    assert abs(sigma_unit.eta2 + 1j * math.pi) < 1e-8
    assert sigma_unit.legendre_residual < 1e-9
    assert sigma_unit.a_consistency_residual < 1e-9
    assert sigma_unit.quasi_period_residual < 1e-8


def test_translation_functional_equation(sigma_unit):
    z = 0.62 - 0.44j  # held-out point (not used by the constructor's own check)
    for omega, eta in ((1.0, sigma_unit.eta1), (1.0j, sigma_unit.eta2)):
        lhs = complex(sigma_unit(z + omega))
        rhs = -complex(sigma_unit(z)) * cmath.exp(eta * (z + omega / 2.0))
        assert abs(lhs - rhs) < 1e-8 * abs(lhs)


def test_sigma_scaling_homogeneity(sigma_unit):
    doubled = SigmaEvaluator(Lattice(2.0, 2.0j))
    assert abs(doubled.eta1 - sigma_unit.eta1 / 2.0) < 1e-8
    for z in (0.3 + 0.4j, -1.1 + 0.6j, 2.2 - 1.3j):
        assert complex(doubled(2 * z)) == pytest.approx(2 * complex(sigma_unit(z)), rel=1e-8)


def test_rectangular_lattice_needs_a_growth_correction():
    ev = SigmaEvaluator(Lattice(1.0, 1.3j))
    assert abs(ev.a_const) > 1e-3  # only fourfold symmetry kills the correction
    assert ev.legendre_residual < 1e-9
    z = 0.7 + 0.9j
    assert complex(ev.sigma_mod(z)) == pytest.approx(
        complex(ev(z)) * cmath.exp(ev.a_const * z * z), rel=1e-12
    )


def test_sigma_domain_guard(sigma_unit):
    # |sigma| ~ exp(pi |z|^2 / 2) leaves the float64 range near |z| = 21.2
    assert np.isfinite(complex(sigma_unit(20.5 + 0.5j)))
    for z in (30.0, 21.7, 15.0 + 16.0j, complex(math.inf, 0.0), complex(math.nan, 1.0)):
        with pytest.raises(ValueError):
            sigma_unit(z)
    with pytest.raises(ValueError):
        sigma_unit(np.array([0.5, 30.0]))  # one bad entry spoils the batch
    with pytest.raises(ValueError):
        sigma_unit.sigma_mod(30.0)
    with pytest.raises(ValueError):
        sigma_unit.derivatives_at(30.0, count=1)
    with pytest.raises(ValueError):
        SigmaEvaluator(Lattice(1.0, 1.0j, shift=0.3))


def test_derivatives_via_contour(sigma_unit):
    # Around lam = 1 the translation rule gives
    #   sigma(1 + t) = -e^{eta1/2} (t + eta1 t^2 + ...) for small t,
    # so sigma'(1) = -e^{eta1/2} and sigma''(1) = -2 eta1 e^{eta1/2};
    # here eta1 = pi for the unit square lattice.
    d1, d2 = sigma_unit.derivatives_at(1.0, count=2)
    with mp.workdps(30):
        h = mp.mpf("1e-8")
        fd = (theta_sigma(1.0 + float(h)) - theta_sigma(1.0 - float(h))) / (2 * float(h))
    assert abs(d1 - fd) < 1e-6 * abs(d1)
    assert d1 == pytest.approx(-math.exp(math.pi / 2), rel=1e-8)
    assert d2 == pytest.approx(-2.0 * math.pi * math.exp(math.pi / 2), rel=1e-6)


def test_lattice_derivatives_in_closed_form_match_the_contour():
    # (1, 1) carries the mn term of the sign; (2 + i, 1 + i) needs reducing
    for lat, _radius in ORACLE_LATTICES + [(Lattice(2.0 + 1.0j, 1.0 + 1.0j), 0.0)]:
        ev = SigmaEvaluator(lat)
        for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (-2, 1), (3, -2)):
            lam = lat.point((m, n))
            contour = ev.derivatives_at(lam, count=1)[0]
            closed = cmath.exp(complex(ev.log_derivative_on_lattice(lam)))
            assert abs(closed - contour) <= 1e-9 * abs(contour), (lat, m, n)


def test_sigma_is_independent_of_the_basis(sigma_unit):
    # Z + iZ from bases that the period reduction must bring back to (1, i)
    # or (i, -1).  Unreduced, the last one has Im(tau) = 1/26, whose theta
    # series loses digits to cancellation.
    pts = spiral(10.0)
    ref = np.asarray(sigma_unit(pts))
    bases = ((1.0, 1.0 + 1.0j), (1.0j, -1.0), (2.0 + 1.0j, 1.0 + 1.0j), (5.0 + 1.0j, 4.0 + 1.0j))
    for w1, w2 in bases:
        ev = SigmaEvaluator(Lattice(w1, w2))
        assert np.max(np.abs(np.asarray(ev(pts)) - ref) / np.abs(ref)) < 1e-12
        # on the square lattice eta(omega) = pi * conj(omega), whatever the basis
        assert abs(ev.eta1 - math.pi * np.conj(w1)) < 1e-13
        assert abs(ev.eta2 - math.pi * np.conj(w2)) < 1e-13


# -- bounded nonconstant quotients ---------------------------------------------------


def test_critical_quotient_structure(sigma_unit):
    Q = CriticalQ(sigma_unit, 0.0, 1.0)
    # value at the removed origin: sigma'(0) / (0 - 1) = -1
    assert abs(Q.value_at_removed(0.0) + 1.0) < 1e-9
    assert abs(Q.value_at_removed(1.0)) > 1e-6
    _, pts = window_arrays(sigma_unit.lattice, 5.5)
    others = pts[(np.abs(pts) > 1e-9) & (np.abs(pts - 1.0) > 1e-9)]
    vals = np.abs(np.asarray(Q(others)))
    probe = np.abs(
        np.asarray(Q(others[:, None] + 0.4 * np.exp(2j * math.pi * np.arange(8) / 8)[None, :]))
    ).max(axis=1)
    assert float(np.max(vals / probe)) < 1e-8  # vanishes at every remaining point
    assert abs(complex(Q(0.5 + 0.5j))) > 0


def theta_quotient(z: complex, lat: Lattice, lam: complex, lam_prime: complex) -> complex:
    """sigma_mod(z) / ((z - lam)(z - lam_prime)) in mpmath, a from the oracle's eta pair."""
    with mp.workdps(40):
        w1, w2 = mp.mpc(lat.omega1), mp.mpc(lat.omega2)
        eta1, eta2 = oracle_eta(lat.omega1, lat.omega2), oracle_eta(lat.omega2, -lat.omega1)
        a = (eta2 * mp.conj(w1) - eta1 * mp.conj(w2)) / (2 * (w1 * mp.conj(w2) - w2 * mp.conj(w1)))
        zz = mp.mpc(z)
        divisor = (zz - mp.mpc(lam)) * (zz - mp.mpc(lam_prime))
        return complex(theta_sigma(z, lat) * mp.exp(a * zz**2) / divisor)


@pytest.mark.parametrize(
    "lat, lam, lam_prime",
    [
        (UNIT, 0.0, 1.0),
        (UNIT, 1.0 + 1.0j, -2.0),
        (Lattice(1.0, 1.3j), 2.0, 1.3j),
        (Lattice(2.0 + 1.0j, 1.0 + 1.0j), 2.0 + 1.0j, 0.0),  # the basis needs reducing
    ],
)
def test_critical_quotient_matches_the_theta_oracle_near_the_removed_zeros(lat, lam, lam_prime):
    Q = CriticalQ(SigmaEvaluator(lat), lam, lam_prime)
    for center in (lam, lam_prime):
        for r in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2):
            for theta in (0.3, 1.9, 4.0):
                z = center + r * cmath.exp(1j * theta)
                expect = theta_quotient(z, lat, lam, lam_prime)
                assert abs(complex(Q(z)) - expect) <= 1e-12 * abs(expect), (center, r, theta)


def test_critical_quotient_finds_removed_zeros_by_lattice_index(sigma_unit):
    Q = CriticalQ(sigma_unit, 0.0, 1.0)
    assert Q.value_at_removed(1.0 + 1e-15) == Q.value_at_removed(1.0) == complex(Q(1.0))
    with pytest.raises(ValueError, match=r"0\.5"):
        Q.value_at_removed(0.5)  # off the lattice
    with pytest.raises(ValueError, match=r"2"):
        Q.value_at_removed(2.0)  # on the lattice, but not removed


def test_critical_quotient_is_continuous_across_the_patch(sigma_unit):
    Q = CriticalQ(sigma_unit, 0.0, 1.0)
    for theta in (0.3, 2.1):
        e = cmath.exp(1j * theta)
        inside = complex(Q(0.999e-3 * e))
        outside = complex(Q(1.001e-3 * e))
        assert abs(inside - outside) < 1e-5 * abs(outside)


def test_critical_quotient_validation(sigma_unit):
    with pytest.raises(ValueError):
        CriticalQ(sigma_unit, 1.0, 1.0)  # removed points must differ
    with pytest.raises(ValueError):
        CriticalQ(sigma_unit, 0.3 + 0.3j, 1.0)  # not a lattice point
    with pytest.raises(ValueError):
        CriticalQ(sigma_unit, 0.0, 30.0)  # sigma overflows around the removed zero


# -- annulus quadrature ---------------------------------------------------------------


def test_annulus_increments_match_the_gaussian_closed_form():
    radii = [0.0, 0.5, 1.0, 1.5, 2.0]
    inc = fock_annulus_increments(lambda z: np.ones_like(z), math.pi, radii)
    expect = [
        math.exp(-math.pi * radii[j] ** 2) - math.exp(-math.pi * radii[j + 1] ** 2)
        for j in range(len(radii) - 1)
    ]
    assert np.allclose(inc, expect, rtol=1e-10)
    for bad in ([1.0, 0.5], [-2.0, 1.0]):
        with pytest.raises(ValueError):
            fock_annulus_increments(lambda z: z, 1.0, bad)


def test_annulus_increments_are_per_annulus_grams():
    def func(z):
        return 1.0 + z * z - 0.5j * z

    radii = [0.0, 0.75, 2.0, 4.5]
    inc = fock_annulus_increments(func, 1.5, radii, radial_order=20, angular_points=48)
    grams = [
        fock_gram([func], 1.5, hi, 20, 48, rmin=lo)[0, 0].real
        for lo, hi in zip(radii[:-1], radii[1:])
    ]
    assert inc.tolist() == grams


# -- the Hadamard product route, kept as an independent oracle for the kernel ----------


def eisenstein_g4_g6(lat: Lattice) -> tuple[complex, complex]:
    """sum(lam^-4) and sum(lam^-6) over the nonzero lattice, from the modular
    q-expansions; the basis must already be reduced (|q| <= exp(-pi sqrt(3)))."""
    w1 = complex(lat.omega1)
    q = cmath.exp(2j * math.pi * complex(lat.omega2) / w1)
    assert abs(q) <= math.exp(-math.pi * math.sqrt(3.0)) + 1e-15
    n = np.arange(1, 60)
    common = q**n / (1.0 - q**n)
    e4 = 1.0 + 240.0 * np.sum(n**3 * common)
    e6 = 1.0 - 504.0 * np.sum(n**5 * common)
    return (math.pi**4 / 45.0) * e4 / w1**4, (2.0 * math.pi**6 / 945.0) * e6 / w1**6


def annulus(lat: Lattice, r_lo: float, r_hi: float) -> np.ndarray:
    """Lattice points with r_lo < |lam| <= r_hi under window_arrays' inclusion rule.

    The ring of unperturbed factors and the tail sums must split the
    lattice by one rule; the 1e-9 slack of window_arrays on one side and
    a strict comparison on the other counted the points that round to
    just above the product radius twice.
    """
    _, pts = window_arrays(lat, r_hi)
    return pts[np.abs(pts) > r_lo + 1e-9]


def tail_coefficients(lat: Lattice, radius: float, zmax: float) -> dict[int, complex]:
    """S_k = sum over |lam| > radius of lam^-k, even k in [4, 24].

    The discarded factors of a product truncated at ``radius`` contribute
    ``exp(-sum_k S_k z^k / k)``.  S_4 and S_6 are the closed-form lattice
    sums minus the window; for k >= 8 that subtraction would be
    cancellation noise, so those sums run directly over an annulus wide
    enough that each S_k errs by less than ``1e-9 * k / zmax**k``.
    """
    g4, g6 = eisenstein_g4_g6(lat)
    window = annulus(lat, 0.0, radius)
    coeffs = {4: g4 - complex(np.sum(window**-4.0)), 6: g6 - complex(np.sum(window**-6.0))}
    cut = {}
    for k in range(8, 25, 2):
        need = 1e-9 * k / zmax**k
        raw = ((2.0 * math.pi / lat.area) / ((k - 2) * need)) ** (1.0 / (k - 2))
        cut[k] = max(1.5 * radius, raw)
    ring = annulus(lat, radius, max(cut.values()))
    for k in cut:
        coeffs[k] = complex(np.sum(np.where(np.abs(ring) <= cut[k], ring ** -float(k), 0.0)))
    return coeffs


def product_log_g(
    lat: Lattice, radius: float, offsets, z, product_radius: float
) -> np.ndarray:
    """log g as the Hadamard product over the nodes ``lam + offsets`` of the
    window of ``radius``, then the unperturbed lattice out to
    ``product_radius``, then the tail sums beyond it.

    Reliable for |z| <= product_radius / 3; shares nothing with the theta
    series behind GGammaEvaluator.
    """
    _, lam = window_arrays(lat, radius)
    gam = lam + offsets
    anchor = lam == 0
    zz = np.asarray(z, dtype=complex).ravel()[:, None]
    x = zz / gam[~anchor]
    y = zz / annulus(lat, radius, product_radius)
    tail = tail_coefficients(lat, product_radius, zmax=product_radius / 3.0)
    ks = np.array(sorted(tail), dtype=float)
    s = np.array([tail[int(k)] for k in ks])
    with np.errstate(divide="ignore"):
        return (
            np.log(zz[:, 0] - gam[anchor][0])
            + np.sum(np.log1p(-x) + x + zz**2 / (2.0 * lam[~anchor] ** 2), axis=1)
            + np.sum(np.log1p(-y) + y + 0.5 * y * y, axis=1)
            - np.sum(s * zz**ks / ks, axis=1)
        )


def log_gap(a, b) -> float:
    """Largest relative gap between two arrays of complex logs."""
    return float(np.max(np.abs(np.expm1(np.asarray(a) - np.asarray(b)))))


def test_tail_coefficients_window_consistency():
    lat = Lattice(1.0, 1.0j)
    inner = tail_coefficients(lat, 18.0, zmax=6.0)
    outer = tail_coefficients(lat, 25.0, zmax=6.0)
    _, pts = window_arrays(lat, 25.0)
    ring = pts[np.abs(pts) > 18.0 + 1e-9]
    for k in (4, 6, 8, 12, 16, 24):
        annulus = complex(np.sum(ring ** (-float(k))))
        # Each window's S_k carries its own truncation budget 1e-9*k/zmax**k
        # (the cut radii differ because they are floored at 1.5x the window
        # radius), plus rounding noise from sums whose partial magnitudes
        # reach O(1) on the closed-form route.
        budget = 2.0 * 1e-9 * k / 6.0**k + 5e-15
        assert inner[k] - outer[k] == pytest.approx(annulus, rel=1e-9, abs=budget)


def test_oracle_ring_and_tail_split_the_lattice_by_one_rule():
    # test_10's lattice: four points sit at |lam| = 36 + 7.1e-15, inside the
    # product radius under window_arrays' slack
    lat = Lattice(math.sqrt(0.5), math.sqrt(0.5) * 1j)
    _, pts = window_arrays(lat, 36.0)
    edge = pts[np.abs(pts) > 36.0]
    assert edge.size == 4
    ring, beyond = annulus(lat, 12.0, 36.0), annulus(lat, 36.0, 48.0)
    assert np.isin(edge, ring).all() and not np.isin(edge, beyond).any()
    assert ring.size + beyond.size == annulus(lat, 12.0, 48.0).size


# -- perturbed-node kernels -----------------------------------------------------------


@pytest.fixture(scope="module")
def g_plain() -> GGammaEvaluator:
    return GGammaEvaluator.from_lattice(math.pi, 5.0)


def perturbed_offsets(seed=0, radius=4.0, spread=0.1) -> np.ndarray:
    """One offset per point of the window of ``radius`` on Z + iZ, in window order."""
    _, lam = window_arrays(UNIT, radius)
    rng = np.random.default_rng(seed)
    return np.array(
        [spread * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) for _ in range(lam.size)]
    )


def perturbed_kernel(seed=0) -> GGammaEvaluator:
    return GGammaEvaluator(UNIT, 4.0, perturbed_offsets(seed))


def test_unperturbed_kernel_reduces_to_sigma(g_plain, sigma_unit):
    assert g_plain.beta == pytest.approx(math.pi)
    assert g_plain.gamma00 == 0.0
    zs = np.array([0.37 + 0.21j, -2.6 + 1.4j, 3.9 - 0.8j, 1.1 + 4.2j])
    gv = np.asarray(g_plain(zs))
    sv = np.asarray(sigma_unit(zs))
    assert np.max(np.abs(gv - sv) / np.abs(sv)) < 1e-9
    assert log_gap(g_plain.log_g(zs), product_log_g(g_plain.lattice, 5.0, 0.0, zs, 15.0)) < 1e-10


def test_kernel_on_the_acceptance_lattice_matches_the_theta_oracle():
    # The product route with its ring and tail split by two rules was off by
    # 1.2e-2 here; the closed form carries only sigma's rounding.
    ev = GGammaEvaluator.from_lattice(2.0 * math.pi, 12.0)
    lat = ev.lattice
    zs = spiral(11.9, count=24)
    expect = np.array([theta_sigma(z, lat) for z in zs])
    assert np.max(np.abs(np.asarray(ev(zs)) - expect) / np.abs(expect)) <= 1e-11


def test_perturbed_kernel_matches_the_product_oracle():
    offsets = perturbed_offsets(seed=3)
    ev = GGammaEvaluator(UNIT, 4.0, offsets)
    assert np.count_nonzero(ev.nodes != ev._lam) == len(ev.nodes)
    # the disk |z| <= 5, and every node's home, where its pole meets sigma's zero
    zs = np.concatenate([spiral(5.0, count=200), ev._lam])
    assert log_gap(ev.log_g(zs), product_log_g(UNIT, 4.0, offsets, zs, 15.0)) <= 1e-10


def test_moved_anchor_value_at_the_origin():
    offsets = perturbed_offsets()
    ev = GGammaEvaluator(UNIT, 4.0, offsets)
    assert ev.gamma00 == offsets[0] != 0.0  # the window lists the origin first
    # sigma(z)/z -> sigma'(0) = 1, so g(0) = -gamma00
    assert complex(ev(0.0)) == pytest.approx(-ev.gamma00, rel=1e-13)
    assert complex(ev(1e-14 + 1e-14j)) == pytest.approx(-ev.gamma00, rel=1e-11)


def test_anchor_is_the_node_homed_at_the_origin():
    # the (1, 0) node has the smallest modulus, but the anchor stays at home 0
    idx, _ = window_arrays(UNIT, 4.0)
    shift = {(0, 0): 0.45 + 0.45j, (1, 0): -0.45}
    offsets = np.array([shift.get((mm, nn), 0.0) for mm, nn in idx.tolist()])
    ev = GGammaEvaluator(UNIT, 4.0, offsets)
    assert ev.gamma00 == 0.45 + 0.45j
    assert abs(ev.nodes[0]) < abs(ev.gamma00)
    z = 0.3 + 0.2j
    value = complex(ev(z))
    assert cmath.isfinite(value) and value != 0.0
    assert log_gap(ev.log_g([z]), product_log_g(UNIT, 4.0, offsets, [z], 15.0)) <= 1e-10
    assert ev.derivative_lower_probe().passed


def test_kernel_needs_a_node_at_every_window_point():
    _, lam = window_arrays(UNIT, 3.0)
    with pytest.raises(ValueError, match="window"):
        GGammaEvaluator(UNIT, 3.0, np.zeros(lam.size - 1))


def test_kernel_names_both_sizes_when_the_offsets_do_not_fit():
    _, lam = window_arrays(UNIT, 3.0)
    with pytest.raises(ValueError, match=rf"\({lam.size + 1},\).*\b{lam.size}\b"):
        GGammaEvaluator(UNIT, 3.0, np.zeros(lam.size + 1))


def test_kernel_zeros_are_node_exact(g_plain):
    ev = perturbed_kernel()
    for node in (ev.gamma00, complex(ev.nodes[5]), complex(ev.nodes[-1])):
        assert complex(ev(node)) == 0.0
    assert complex(ev(0.4 + 0.3j)) != 0.0
    assert complex(g_plain(2.0 + 1.0j)) == 0.0


def test_nodes_are_read_only_in_modulus_then_argument_order():
    offsets = perturbed_offsets(seed=3)
    ev = GGammaEvaluator(UNIT, 4.0, offsets)
    assert np.array_equal(ev.nodes, ev.nodes[modulus_order(ev.nodes)])
    _, lam = window_arrays(UNIT, 4.0)
    assert sorted(ev.nodes.tolist(), key=lambda g: (g.real, g.imag)) == sorted(
        (lam + offsets).tolist(), key=lambda g: (g.real, g.imag)
    )
    with pytest.raises(ValueError):
        ev.nodes[0] = 0.0


def test_node_derivative_matches_finite_differences():
    ev = perturbed_kernel(seed=3)
    h = 1e-5
    for j in (1, 7):
        node = complex(ev.nodes[j])
        exact = cmath.exp(ev.node_log_derivatives()[j])
        fd = (complex(ev(node + h)) - complex(ev(node - h))) / (2.0 * h)
        assert abs(exact - fd) < 1e-4 * abs(exact)


def test_kernel_rejects_an_oblique_lattice():
    with pytest.raises(ValueError, match="square"):
        GGammaEvaluator(Lattice(1.0, 0.3 + 1.0j), 4.0)


def test_derivative_lower_probe(g_plain):
    probe = g_plain.derivative_lower_probe()
    assert probe.passed
    assert math.isfinite(probe.min_log_margin)
    assert probe.count > 0


# -- interpolation ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def g_sparse() -> GGammaEvaluator:
    # node weight beta = 2 leaves room to interpolate functions at alpha = 1
    return GGammaEvaluator.from_lattice(2.0, 6.0)


def test_lagrange_reconstructs_a_constant(g_sparse):
    ones = np.ones(g_sparse.nodes.size)
    res = lagrange_interpolate(g_sparse, ones, 0.37 + 0.21j, alpha=1.0, return_trace=True)
    assert abs(res.value - 1.0) < 1e-3
    assert res.terms == len(g_sparse.nodes)
    assert len(res.increments) == res.terms
    assert res.last_increment < 1e-6


def test_lagrange_reconstructs_a_gaussian_weighted_monomial(g_sparse):
    def f(z: complex) -> complex:
        return (0.8 + 0.3j) * z  # lives at every weight; alpha = 1 < beta = 2

    z = -0.52 + 0.66j
    res = lagrange_interpolate(g_sparse, f(g_sparse.nodes), z, alpha=1.0)
    assert abs(res.value - f(z)) < 1e-3


def test_lagrange_validation(g_sparse):
    values = np.arange(g_sparse.nodes.size) + 0.5j
    with pytest.raises(ValueError):
        lagrange_interpolate(g_sparse, values, 0.3, alpha=2.5)  # alpha >= beta
    size = g_sparse.nodes.size
    with pytest.raises(ValueError, match=rf"\({size - 1},\).*\({size},\)"):
        lagrange_interpolate(g_sparse, values[:-1], 0.3, alpha=1.0)
    hit = lagrange_interpolate(g_sparse, values, g_sparse.nodes[2], alpha=1.0)
    assert hit.value == values[2]
    assert hit.terms == 0


def test_lagrange_matches_the_per_node_sum():
    ev = perturbed_kernel(seed=3)
    nodes = [complex(g) for g in ev.nodes]
    values = [complex(math.cos(3.0 * g.real), g.imag) for g in nodes]
    z = 0.61 - 0.27j
    log_dg = ev.node_log_derivatives()
    terms = [
        v * cmath.exp(complex(ev.log_g(z)) - complex(log_dg[j]) - cmath.log(z - g))
        for j, (g, v) in enumerate(zip(nodes, values))
    ]
    res = lagrange_interpolate(ev, values, z, alpha=1.0, return_trace=True)
    assert res.value == pytest.approx(sum(terms), rel=1e-13)
    assert res.increments == pytest.approx([abs(t) for t in terms], rel=1e-13)
    with pytest.raises(ValueError, match="shape"):
        lagrange_interpolate(ev, np.ones((len(nodes), 1)), z, alpha=1.0)

