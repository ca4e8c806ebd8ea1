"""Phase-relation decisions, derivative recombination, zero-perturbation bound,
and the lifted injectivity analyzer."""

import cmath
import math

import numpy as np
import pytest

from fockpr.fock import FockPoly, wronskian
from fockpr.phaseless import (
    PhaseDecision,
    _hermitian_coords,
    _hermitian_from_coords,
    _moment_vectors,
    _upper_pairs,
    combine_directionals,
    directional_derivative,
    hermitian_basis,
    lifted_injectivity,
    lifted_rows,
    phase_relation_decide,
    rolle_point,
    uniqueness_product,
    zero_perturbation_bound_check,
)

ALPHA = 1.0


def poly(*mono: complex) -> FockPoly:
    return FockPoly.from_monomial(ALPHA, mono)


def bisect_on(d, param, lo: float, hi: float) -> complex:
    """Root of the real function d(param(t)) by bisection on [lo, hi]."""
    sign_lo = np.sign(d(param(lo)))
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if np.sign(d(param(mid))) == sign_lo:
            lo = mid
        else:
            hi = mid
    return param(0.5 * (lo + hi))


# -- uniqueness product ------------------------------------------------------------


def test_uniqueness_product_simplest_instance():
    # F = 1, H = z: the cross-derivative factor is 1, so the product is z
    up = uniqueness_product(poly(1.0), poly(0.0, 1.0))
    assert up.alpha == 4.0 * ALPHA
    assert up.monomial_coeffs() == pytest.approx(np.array([0.0, 1.0]), abs=1e-14)


def test_uniqueness_product_vanishes_for_unimodular_multiples():
    F = poly(1.0, -0.5j, 0.25)
    H = FockPoly(ALPHA, np.asarray(F.coeffs) * cmath.exp(0.8j))
    up = uniqueness_product(F, H)
    assert np.linalg.norm(up.coeffs) == pytest.approx(0.0, abs=1e-12)


def test_uniqueness_product_degree_and_weight_mismatch():
    F, H = poly(1.0, 2.0), poly(3.0, 0.0, 1.0)
    up = uniqueness_product(F, H)
    # deg F + deg H + (deg W = deg F + deg H - 1) with no cancellation here
    assert up.degree == 5
    with pytest.raises(ValueError, match="weights"):
        uniqueness_product(F, FockPoly.from_monomial(2.0 * ALPHA, [1.0, 2.0]))


# -- phase relation decision -------------------------------------------------------


def test_decide_equivalent_recovers_the_factor():
    F = poly(1.0, 0.4, 0.2)
    tau = cmath.exp(0.3j)
    H = FockPoly(ALPHA, np.asarray(F.coeffs) * tau)
    out = phase_relation_decide(F, H, [0.5, -1.0j, 1.0 + 1.0j])
    assert out.status == "equivalent"
    assert out.tau == pytest.approx(tau, rel=1e-12)
    assert out.max_modulus_gap <= 1e-12


def test_decide_distinct_despite_equal_moduli_on_the_points():
    # |z| = |z - 2| exactly on the line Re z = 1
    F = poly(0.0, 1.0)
    H = poly(-2.0, 1.0)
    out = phase_relation_decide(F, H, [1.0, 1.0 + 1.0j, 1.0 - 2.0j])
    assert out.status == "distinct"
    assert out.wronskian_norm > 0.1


def test_decide_precondition_failed():
    out = phase_relation_decide(poly(0.0, 1.0), poly(-2.0, 1.0), [3.0, 1.0])
    assert out.status == "precondition_failed"
    assert out.max_modulus_gap > 1.0


def test_decide_inconclusive_when_points_carry_no_signal():
    # proportional with a non-unimodular factor; only shared zeros sampled
    F = poly(0.0, 1.0)
    H = poly(0.0, 2.0)
    out = phase_relation_decide(F, H, [0.0])
    assert out.status == "inconclusive"
    assert out.wronskian_norm <= 1e-12


# -- directional derivatives -------------------------------------------------------


def modulus_gap_squared(F, H, z):
    return abs(complex(F(z))) ** 2 - abs(complex(H(z))) ** 2


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.9])
def test_directional_derivative_matches_finite_differences(theta):
    F = poly(1.0, 0.4, 0.2)
    H = poly(0.8, 0.6j, 0.25)
    z = 0.6 - 0.4j
    h = 1e-6
    step = cmath.exp(1j * theta)
    fd = (
        modulus_gap_squared(F, H, z + h * step)
        - modulus_gap_squared(F, H, z - h * step)
    ) / (2.0 * h)
    assert directional_derivative(F, H, theta, z) == pytest.approx(fd, rel=1e-8)


def test_directional_derivative_negates_under_direction_flip():
    F, H = poly(1.0, 0.4, 0.2), poly(0.8, 0.6j, 0.25)
    z = -0.3 + 1.1j
    assert directional_derivative(F, H, 0.4 + math.pi, z) == pytest.approx(
        -directional_derivative(F, H, 0.4, z), rel=1e-12
    )


def test_combine_directionals_exact_inverse():
    w = 0.37 - 1.24j
    theta1, theta2 = 0.3, 2.1
    r = [
        2.0 * (math.cos(t) * w.real - math.sin(t) * w.imag)
        for t in (theta1, theta2)
    ]
    assert combine_directionals(r[0], r[1], theta1, theta2) == pytest.approx(w, rel=1e-12)


def test_combine_directionals_recovers_derivative_quantity():
    F, H = poly(1.0, 0.4, 0.2), poly(0.8, 0.6j, 0.25)
    z = 0.5 + 0.2j
    direct = complex(
        F.derivative()(z) * np.conj(F(z)) - H.derivative()(z) * np.conj(H(z))
    )
    r1 = directional_derivative(F, H, 0.1, z)
    r2 = directional_derivative(F, H, 1.7, z)
    assert combine_directionals(r1, r2, 0.1, 1.7) == pytest.approx(direct, rel=1e-10)


def test_combine_directionals_rejects_parallel_directions():
    with pytest.raises(ValueError, match="parallel"):
        combine_directionals(0.1, 0.2, 1.0, 1.0 + math.pi)


# -- equal-modulus segments --------------------------------------------------------


def equal_modulus_pair():
    """Two genuinely different functions and two points where moduli agree,
    found by bisecting the modulus gap along a circle."""
    F = poly(1.0, 0.4, 0.2)
    H = poly(0.8, 0.6j, 0.25)
    d = lambda z: abs(complex(F(z))) ** 2 - abs(complex(H(z))) ** 2
    on_circle = lambda t: 1.3 * cmath.exp(1j * t)
    ang = np.linspace(0.0, 2.0 * math.pi, 4001)
    vals = np.array([d(on_circle(t)) for t in ang])
    flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    assert len(flips) >= 2
    a = bisect_on(d, on_circle, ang[flips[0]], ang[flips[0] + 1])
    c = bisect_on(d, on_circle, ang[flips[1]], ang[flips[1] + 1])
    return F, H, a, c


def test_rolle_point_interior_zero():
    F, H, a, c = equal_modulus_pair()
    res = rolle_point(F, H, a, c)
    assert not res.used_fallback
    t = (res.point - c) / (a - c)
    assert abs(t.imag) < 1e-12 and 0.0 < t.real < 1.0
    # residual small against the derivative's scale along the segment
    mid_scale = abs(directional_derivative(F, H, res.theta, 0.5 * (a + c)))
    assert abs(res.residual) <= 1e-9 * mid_scale
    assert directional_derivative(F, H, res.theta, res.point) == pytest.approx(
        res.residual, abs=1e-12
    )
    assert res.theta == pytest.approx(cmath.phase(a - c), rel=1e-12)


def test_rolle_point_identical_functions_use_midpoint():
    F = poly(1.0, 0.5j)
    res = rolle_point(F, F, 1.0 + 1.0j, -0.5)
    assert res.point == pytest.approx((1.0 + 1.0j - 0.5) / 2.0, rel=1e-12)
    assert res.residual == 0.0
    assert not res.used_fallback


def test_rolle_point_rejects_unequal_endpoints_and_degenerate_segment():
    F, H = poly(1.0, 0.4, 0.2), poly(0.8, 0.6j, 0.25)
    with pytest.raises(ValueError, match="moduli differ"):
        rolle_point(F, H, 2.0, -1.0)
    with pytest.raises(ValueError, match="coincide"):
        rolle_point(F, H, 1.0, 1.0)


# -- zero perturbation bound -------------------------------------------------------


def perturbed_pair():
    F = FockPoly.from_monomial(1.0, [1.0, 0.4, 0.2])
    H = FockPoly.from_monomial(1.0, [1.0, 0.4 + 0.03j, 0.2 - 0.02j])
    return F, H


def nearby_directional_zero(F, H, z0, theta, search_dir, cap):
    d = lambda z: directional_derivative(F, H, theta, z)
    on_ray = lambda t: z0 + t * search_dir
    ts = np.linspace(1e-4, 0.9 * cap, 200)
    g0 = np.sign(d(z0))
    for lo, hi in zip(ts[:-1], ts[1:]):
        if np.sign(d(on_ray(hi))) != g0:
            return bisect_on(d, on_ray, lo, hi)
    raise AssertionError("no directional zero within the cap")


def test_zero_perturbation_bound_holds_on_a_generic_instance():
    F, H = perturbed_pair()
    z0, eps = 0.5 + 0.3j, 0.5
    rate = 2.0 * F.alpha + eps
    cap = min(rate**-0.5, 1.0 / (rate * abs(z0)))
    theta1, theta2 = 0.2, 1.9
    p1 = nearby_directional_zero(F, H, z0, theta1, -1.0j, cap)
    p2 = nearby_directional_zero(F, H, z0, theta2, 1.0, cap)
    rep = zero_perturbation_bound_check(F, H, z0, theta1, theta2, p1, p2, eps)
    assert rep.ok
    assert rep.lhs <= rep.bound
    assert rep.eta == pytest.approx(max(abs(p1 - z0), abs(p2 - z0)), rel=1e-12)
    assert rep.sin_gap == pytest.approx(abs(math.sin(theta1 - theta2)), rel=1e-12)
    assert rep.m_const > 0.0
    # the displaced zeros really certify a nonzero quantity at z0
    assert rep.lhs > 1e-3


def test_zero_perturbation_bound_trivial_equality_case():
    F, _ = perturbed_pair()
    rep = zero_perturbation_bound_check(F, F, 0.4j, 0.0, 1.2, 0.4j, 0.4j, 1.0)
    assert rep.ok
    assert rep.lhs == 0.0
    assert rep.bound == 0.0
    assert rep.eta == 0.0


def test_zero_perturbation_bound_validation():
    F, H = perturbed_pair()
    z0, eps = 0.5 + 0.3j, 0.5
    with pytest.raises(ValueError, match="cap"):
        zero_perturbation_bound_check(F, H, z0, 0.2, 1.9, z0 + 2.0, z0, eps)
    with pytest.raises(ValueError, match="not a zero"):
        zero_perturbation_bound_check(F, H, z0, 0.2, 1.9, z0 + 0.01, z0 + 0.01j, eps)
    with pytest.raises(ValueError, match="parallel"):
        zero_perturbation_bound_check(F, H, z0, 0.2, 0.2, z0, z0, eps)
    with pytest.raises(ValueError, match="epsilon"):
        zero_perturbation_bound_check(F, H, z0, 0.2, 1.9, z0, z0, -1.0)
    with pytest.raises(ValueError, match="weights"):
        zero_perturbation_bound_check(
            F, FockPoly.from_monomial(2.0, [1.0]), z0, 0.2, 1.9, z0, z0, eps
        )


# -- lifted measurement map --------------------------------------------------------


def coords_of(X: np.ndarray) -> np.ndarray:
    basis = hermitian_basis(X.shape[0])
    return np.array([float(np.real(np.sum(np.conj(b) * X))) for b in basis])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hermitian_basis_is_orthonormal_and_complete(dim):
    basis = hermitian_basis(dim)
    assert len(basis) == dim * dim
    for b in basis:
        assert b == pytest.approx(np.conj(b.T))
    gram = np.array(
        [[np.real(np.sum(np.conj(p) * q)) for q in basis] for p in basis]
    )
    assert gram == pytest.approx(np.eye(dim * dim), abs=1e-14)


def test_upper_pairs_are_cached_read_only_triu_indices():
    j, k = _upper_pairs(5)
    assert _upper_pairs(5)[0] is j
    assert not j.flags.writeable and not k.flags.writeable
    want_j, want_k = np.triu_indices(5, 1)
    assert np.array_equal(j, want_j) and np.array_equal(k, want_k)


@pytest.mark.parametrize("N", [0, 1, 6, 8])
def test_coordinates_match_the_trace_inner_product_route(N):
    dim = N + 1
    rng = np.random.default_rng(N)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    v = _moment_vectors(pts, dim, ALPHA)
    lifts = v[:, :, None] * np.conj(v)[:, None, :]
    weights = np.exp(-ALPHA * np.abs(pts) ** 2)
    expected = np.array([coords_of(P) for P in lifts]) * weights[:, None]
    assert np.array_equal(lifted_rows(pts, N, ALPHA), expected)
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))  # not Hermitian
    coords = _hermitian_coords(X)
    assert np.array_equal(coords, coords_of(X))
    assembled = np.zeros((dim, dim), dtype=complex)
    for c, b in zip(coords, hermitian_basis(dim)):
        assembled += c * b
    assert np.array_equal(_hermitian_from_coords(coords), assembled)


def test_lifted_rows_hand_check_single_point():
    # N = 1, one point u: v = (1, sqrt(alpha) u), weight e^{-alpha |u|^2}
    alpha, u = math.pi, 0.4 + 0.3j
    rows = lifted_rows([u], 1, alpha)
    v1 = math.sqrt(alpha) * u
    w = math.exp(-alpha * abs(u) ** 2)
    # antisymmetric element: Re(i(v1 - conj v1))/sqrt(2) = -sqrt(2) Im(v1)
    expected = np.array(
        [
            1.0,
            abs(v1) ** 2,
            math.sqrt(2.0) * np.real(v1),
            -math.sqrt(2.0) * np.imag(v1),
        ]
    )
    assert rows[0] == pytest.approx(w * expected, rel=1e-12)


def test_lifted_rows_measure_polynomial_moduli():
    # row action on the rank-one lift of x equals |P(u)|^2 e^{-alpha|u|^2}
    # for the polynomial P with basis coefficients conj(x)
    alpha, N = 1.5, 3
    rng = np.random.default_rng(2)
    pts = rng.normal(size=6) + 1j * rng.normal(size=6)
    x = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    rows = lifted_rows(pts, N, alpha)
    measured = rows @ coords_of(np.outer(x, np.conj(x)))
    P = FockPoly(alpha, np.conj(x))
    direct = np.abs(np.asarray(P(pts))) ** 2 * np.exp(-alpha * np.abs(pts) ** 2)
    assert measured == pytest.approx(direct, rel=1e-10)


def test_lifted_rows_kill_global_phase():
    alpha, N = 1.0, 2
    pts = [0.5, -0.3j, 1.0 + 1.0j]
    rng = np.random.default_rng(4)
    x = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    y = cmath.exp(1.1j) * x
    delta = np.outer(x, np.conj(x)) - np.outer(y, np.conj(y))
    rows = lifted_rows(pts, N, alpha)
    assert rows @ coords_of(delta) == pytest.approx(np.zeros(len(pts)), abs=1e-12)


GENERIC_POINTS = [0.3, 1.1j, -0.7 + 0.2j, 0.9 - 0.5j]


def test_lifted_injectivity_trivial_degree_zero():
    rep = lifted_injectivity([0.7], N=0, alpha=math.pi)
    assert rep.dim == 1 and rep.num_points == 1
    assert rep.kernel_dim == 0
    assert rep.witness is None
    assert rep.sigma_min == rep.singular_values[-1] > 0.0


def test_lifted_injectivity_kernel_shrinks_with_points():
    kernels = [
        lifted_injectivity(GENERIC_POINTS[:m], N=1, alpha=math.pi).kernel_dim
        for m in range(1, 5)
    ]
    assert kernels == [3, 2, 1, 0]


def test_lifted_injectivity_witness_is_a_true_counterexample():
    rep = lifted_injectivity(GENERIC_POINTS[:3], N=1, alpha=math.pi)
    assert rep.kernel_dim == 1
    assert rep.witness is not None
    x, y = (FockPoly(math.pi, c) for c in rep.witness)
    xs = np.abs(np.asarray(x(np.array(GENERIC_POINTS[:3]))))
    ys = np.abs(np.asarray(y(np.array(GENERIC_POINTS[:3]))))
    assert xs == pytest.approx(ys, rel=1e-6, abs=1e-9)
    # and the two polynomials are not proportional
    assert np.linalg.norm(wronskian(x, y).coeffs) > 1e-6
    assert rep.witness_gap is not None and rep.witness_gap <= 1e-8


def test_lifted_injectivity_sigma_min_grows_with_extra_rows_once_injective():
    extra = GENERIC_POINTS + [0.2 + 0.8j, -1.0 - 0.4j, 1.3, 0.6j]
    a = lifted_injectivity(GENERIC_POINTS, N=1, alpha=math.pi)
    b = lifted_injectivity(extra, N=1, alpha=math.pi)
    assert a.kernel_dim == 0 and b.kernel_dim == 0
    assert b.sigma_min >= a.sigma_min


def test_lifted_injectivity_validation():
    with pytest.raises(ValueError, match=r"\[0, 16\]"):
        lifted_injectivity([1.0], N=17, alpha=1.0)
    with pytest.raises(ValueError, match="at least one"):
        lifted_injectivity([], N=1, alpha=1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_lifted_maps_reject_a_non_positive_alpha(alpha):
    for N in (0, 2):
        with pytest.raises(ValueError, match="alpha must be positive"):
            lifted_rows([0.5, 1j], N, alpha)
        with pytest.raises(ValueError, match="alpha must be positive"):
            lifted_injectivity([0.5, 1j], N, alpha)
