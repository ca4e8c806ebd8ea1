"""Phase-relation decisions, derivative recombination, zero-perturbation bound,
and the lifted injectivity analyzer."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from fockpr.fock import FockPoly, wronskian
from fockpr.lattice import square_lattice, window_arrays
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


def equal_modulus_points(F: FockPoly, H: FockPoly, radius: float):
    """Two points of the circle |z| = radius where |F| = |H|, found by
    bisecting the modulus gap along it; None when it keeps one sign."""
    d = lambda z: abs(complex(F(z))) ** 2 - abs(complex(H(z))) ** 2
    on_circle = lambda t: radius * cmath.exp(1j * t)
    ang = np.linspace(0.0, 2.0 * math.pi, 4001)
    vals = np.array([d(on_circle(t)) for t in ang])
    flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(flips) < 2:
        return None
    a = bisect_on(d, on_circle, ang[flips[0]], ang[flips[0] + 1])
    c = bisect_on(d, on_circle, ang[flips[1]], ang[flips[1] + 1])
    return a, c


def equal_modulus_pair():
    """Two genuinely different functions and two points where moduli agree."""
    F = poly(1.0, 0.4, 0.2)
    H = poly(0.8, 0.6j, 0.25)
    points = equal_modulus_points(F, H, 1.3)
    assert points is not None
    return (F, H, *points)


def oracle_rolle_t(f_mono, h_mono, a: complex, c: complex) -> mp.mpf:
    """Least root in (0, 1) at which d/dt (|F|^2 - |H|^2)(c + t(a - c))
    changes sign, from the expanded polynomial in 40-digit arithmetic."""
    with mp.workdps(40):
        a, c = mp.mpc(a), mp.mpc(c)
        d = a - c

        def along(mono):
            # coefficients in t of sum_j mono_j (c + t d)^j
            return [
                sum(mp.mpc(mono[j]) * mp.binomial(j, k) * c ** (j - k) for j in range(k, len(mono)))
                * d ** k
                for k in range(len(mono))
            ]

        def square(p):
            n = len(p)
            return [
                sum(p[j] * mp.conj(p[s - j]) for j in range(max(0, s - n + 1), min(s, n - 1) + 1))
                for s in range(2 * n - 1)
            ]

        fp, fh = square(along(f_mono)), square(along(h_mono))
        size = max(len(fp), len(fh))
        f = [
            mp.re((fp[s] if s < len(fp) else 0) - (fh[s] if s < len(fh) else 0))
            for s in range(size)
        ]
        slope = [s * f[s] for s in range(1, size)]
        while slope[-1] == 0:
            slope.pop()
        value = lambda t: mp.polyval(slope[::-1], t)
        roots = mp.polyroots(slope[::-1], maxsteps=200, extraprec=200)
        real = sorted(
            mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30 and 0 < mp.re(r) < 1
        )
        step = mp.mpf(10) ** -15
        return next(t for t in real if value(t - step) * value(t + step) < 0)


def test_rolle_point_interior_zero():
    F, H, a, c = equal_modulus_pair()
    res = rolle_point(F, H, a, c)
    t = (res.point - c) / (a - c)
    assert abs(t.imag) < 1e-12 and 0.0 < t.real < 1.0
    # residual small against the derivative's scale along the segment
    mid_scale = abs(directional_derivative(F, H, res.theta, 0.5 * (a + c)))
    assert abs(res.residual) <= 1e-9 * mid_scale
    assert directional_derivative(F, H, res.theta, res.point) == pytest.approx(
        res.residual, abs=1e-12
    )
    assert res.theta == pytest.approx(cmath.phase(a - c), rel=1e-12)


def test_rolle_point_is_the_least_sign_changing_root_of_the_mpmath_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 8:
        degree = int(rng.integers(2, 5))
        f_mono = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        h_mono = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        F, H = poly(*f_mono), poly(*h_mono)
        points = equal_modulus_points(F, H, float(rng.uniform(0.6, 1.6)))
        if points is None:
            continue
        a, c = points
        res = rolle_point(F, H, a, c)
        t = (res.point - c) / (a - c)
        assert abs(t.real - float(oracle_rolle_t(f_mono, h_mono, a, c))) <= 1e-9
        assert abs(t.imag) <= 1e-12
        checked += 1


def test_rolle_point_of_a_unimodular_multiple_is_the_midpoint():
    F = poly(1.0, 0.5j, 0.2)
    H = FockPoly(ALPHA, np.asarray(F.coeffs) * cmath.exp(0.7j))
    a, c = 1.0 + 1.0j, -0.5
    res = rolle_point(F, H, a, c)
    assert res.point == pytest.approx((a + c) / 2.0, rel=1e-15)
    assert res.residual == directional_derivative(F, H, res.theta, res.point)


def test_rolle_point_identical_functions_use_midpoint():
    F = poly(1.0, 0.5j)
    res = rolle_point(F, F, 1.0 + 1.0j, -0.5)
    assert res.point == pytest.approx((1.0 + 1.0j - 0.5) / 2.0, rel=1e-12)
    assert res.residual == 0.0


def test_rolle_point_rejects_unequal_endpoints_and_degenerate_segment():
    F, H = poly(1.0, 0.4, 0.2), poly(0.8, 0.6j, 0.25)
    with pytest.raises(ValueError, match="moduli differ"):
        rolle_point(F, H, 2.0, -1.0)
    # |H|^2 - |F|^2 = 2e-11 t + 1e-22 t^2 on [0, 1]: the endpoint moduli agree
    # within the tolerance, but the derivative never vanishes between them
    with pytest.raises(ValueError, match="keeps one sign"):
        rolle_point(poly(1.0), poly(1.0, 1e-11), 1.0, 0.0)
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


def matrix_parts(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real diagonal, the (j, k) and the (k, j) entries (j < k) of a square matrix."""
    j, k = np.triu_indices(X.shape[0], 1)
    return np.diagonal(X).real, X[j, k], X[k, j]


@pytest.mark.parametrize("N", [0, 1, 6, 8, 16])
def test_coordinates_match_the_trace_inner_product_route(N):
    # the rows are written from the moment vectors; the reference forms the
    # d x d lift of each point and takes its trace inner products
    dim = N + 1
    rng = np.random.default_rng(N)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    pts[-4:] *= np.array([5.0, 20.0, 35.0, 50.0]) / np.abs(pts[-4:])
    v = _moment_vectors(pts, dim, ALPHA)
    lifts = v[:, :, None] * np.conj(v)[:, None, :]
    coords = np.array([coords_of(P) for P in lifts])
    expected = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    assert np.array_equal(lifted_rows(pts, N, ALPHA), expected)
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))  # not Hermitian
    coords = _hermitian_coords(*matrix_parts(X))
    assert np.array_equal(coords, coords_of(X))
    assembled = np.zeros((dim, dim), dtype=complex)
    for c, b in zip(coords, hermitian_basis(dim)):
        assembled += c * b
    assert np.array_equal(_hermitian_from_coords(coords), assembled)


def test_the_rows_of_a_prefix_are_that_prefix_of_the_rows():
    rng = np.random.default_rng(6)
    pts = 4.0 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    for N in (0, 2, 8, 16):
        rows = lifted_rows(pts, N, math.pi)
        for m in (1, 7, 39):
            assert lifted_rows(pts[:m], N, math.pi).tobytes() == rows[:m].tobytes()


def test_lifted_rows_form_no_lift_per_point():
    # 20,000 points at N = 8: the rows take 13 MB.  An M x d x d complex lift
    # alone would be 26 MB, and the route through it peaked at 5.9 times the rows
    rng = np.random.default_rng(8)
    pts = 3.0 * (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000))
    lifted_rows(pts[:4], 8, math.pi)  # lazy imports outside the trace
    tracemalloc.start()
    try:
        rows = lifted_rows(pts, 8, math.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (20_000, 81)
    assert peak <= 4.5 * rows.nbytes


def test_lifted_rows_hand_check_single_point():
    # N = 1, one point u: v = (1, sqrt(alpha) u), the row scaled by 1/|v|^2
    alpha, u = math.pi, 0.4 + 0.3j
    rows = lifted_rows([u], 1, alpha)
    v1 = math.sqrt(alpha) * u
    w = 1.0 / (1.0 + abs(v1) ** 2)
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
    # row action on the rank-one lift of x equals |P(u)|^2 / |v(u)|^2 for
    # the polynomial P with basis coefficients conj(x), where
    # |v(u)|^2 = sum_n (alpha |u|^2)^n / n! is the truncated exponential
    alpha, N = 1.5, 3
    rng = np.random.default_rng(2)
    pts = rng.normal(size=6) + 1j * rng.normal(size=6)
    x = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    rows = lifted_rows(pts, N, alpha)
    measured = rows @ coords_of(np.outer(x, np.conj(x)))
    P = FockPoly(alpha, np.conj(x))
    t = alpha * np.abs(pts) ** 2
    norms = sum(t**n / math.factorial(n) for n in range(N + 1))
    direct = np.abs(np.asarray(P(pts))) ** 2 / norms
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
    rep = lifted_injectivity(lifted_rows([0.7], 0, math.pi), math.pi)
    assert rep.dim == 1 and rep.num_points == 1
    assert rep.kernel_dim == 0
    assert rep.witness is None
    assert rep.sigma_min == rep.singular_values[-1] > 0.0


def test_lifted_injectivity_kernel_shrinks_with_points():
    kernels = [
        lifted_injectivity(lifted_rows(GENERIC_POINTS[:m], 1, math.pi), math.pi).kernel_dim
        for m in range(1, 5)
    ]
    assert kernels == [3, 2, 1, 0]


def test_lifted_injectivity_witness_is_a_true_counterexample():
    rep = lifted_injectivity(lifted_rows(GENERIC_POINTS[:3], 1, math.pi), math.pi)
    assert rep.kernel_dim == 1
    assert rep.witness is not None
    x, y = (FockPoly(math.pi, c) for c in rep.witness)
    xs = np.abs(np.asarray(x(np.array(GENERIC_POINTS[:3]))))
    ys = np.abs(np.asarray(y(np.array(GENERIC_POINTS[:3]))))
    assert xs == pytest.approx(ys, rel=1e-6, abs=1e-9)
    # and the two polynomials are not proportional
    assert np.linalg.norm(wronskian(x, y).coeffs) > 1e-6
    assert rep.witness_gap is not None and rep.witness_gap <= 1e-8
    assert rep.witness_searched  # M = 3 < 4d - 4 = 4


def test_the_witness_search_is_skipped_where_generic_points_are_injective():
    # d = 4 coefficients: from M = 4d - 4 = 12 points on, a generic kernel
    # holds no signature-(1,1) element
    rng = np.random.default_rng(4)
    pts = 0.8 * (rng.standard_normal(15) + 1j * rng.standard_normal(15))
    for m in (11, 12, 13, 15):
        rep = lifted_injectivity(lifted_rows(pts[:m], 3, math.pi), math.pi)
        assert rep.kernel_dim == rep.generic_kernel_dim == 16 - m
        assert rep.witness_searched == (m < 12)
        if m >= 12:
            assert rep.witness is None


def test_the_witness_search_runs_where_repeated_points_shrink_the_rank():
    # five rows at d = 2 reach 4d - 4 = 4, but only three are distinct, so
    # the kernel is 1 where generic rows leave none, and a witness exists
    pts = GENERIC_POINTS[:3] + GENERIC_POINTS[:2]
    rep = lifted_injectivity(lifted_rows(pts, 1, math.pi), math.pi)
    assert rep.kernel_dim == 1 and rep.generic_kernel_dim == 0
    assert rep.witness_searched
    assert rep.witness is not None and rep.witness_gap <= 1e-8


def test_lifted_injectivity_sigma_min_grows_with_extra_rows_once_injective():
    extra = GENERIC_POINTS + [0.2 + 0.8j, -1.0 - 0.4j, 1.3, 0.6j]
    a = lifted_injectivity(lifted_rows(GENERIC_POINTS, 1, math.pi), math.pi)
    b = lifted_injectivity(lifted_rows(extra, 1, math.pi), math.pi)
    assert a.kernel_dim == 0 and b.kernel_dim == 0
    assert b.sigma_min >= a.sigma_min


def test_lifted_injectivity_on_many_points_holds_no_full_left_factor():
    # 4000 points at N = 1: a full U of the SVD would be 4000 x 4000 doubles,
    # 128 MB, where the rows themselves take 128 kB
    rng = np.random.default_rng(3)
    pts = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)).tolist()
    lifted_injectivity(lifted_rows(pts[:8], 1, math.pi), math.pi)  # lazy imports outside the trace
    tracemalloc.start()
    try:
        rep = lifted_injectivity(lifted_rows(pts, 1, math.pi), math.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.num_points == 4000 and rep.kernel_dim == 0
    assert len(rep.singular_values) == 4
    assert peak < 4 << 20


def _mp_lifted_rows(points, N: int, alpha: float) -> mp.matrix:
    """``lifted_rows`` at the working precision: the unit-norm coordinates of v v^H."""
    rows = []
    for z in points:
        u = mp.mpc(z.real, z.imag)
        v = [mp.sqrt(mp.mpf(alpha) ** n / mp.factorial(n)) * u**n for n in range(N + 1)]
        row = [abs(c) ** 2 for c in v]
        for j in range(N + 1):
            for k in range(j + 1, N + 1):
                p = v[j] * mp.conj(v[k])
                row += [mp.sqrt(2) * p.real, mp.sqrt(2) * p.imag]
        norm = mp.sqrt(mp.fsum(c**2 for c in row))
        rows.append([c / norm for c in row])
    return mp.matrix(rows)


@pytest.mark.parametrize("M, kernel", [(49, 1), (61, 0)])
def test_lifted_kernel_on_the_integer_lattice_matches_an_mpmath_oracle(M, kernel):
    # the first M points of the integer lattice at alpha = pi, N = 6: with
    # rows weighted by exp(-alpha|u|^2) in place of unit rows, the far rows
    # fell under the relative cut and the kernel read 17 at both sizes
    _, pts = window_arrays(square_lattice(math.pi), 6)
    pts = pts[:M].tolist()
    with mp.workdps(50):
        oracle = _mp_lifted_rows(pts, 6, math.pi)
        svals = mp.svd_r(oracle, compute_uv=False)
        svals = [svals[i] for i in range(svals.rows)]
        rank = sum(1 for s in svals if s > mp.mpf(10) ** -30 * max(svals))
        rows = lifted_rows(pts, 6, math.pi)
        assert np.abs(np.array(oracle.tolist(), dtype=float) - rows).max() < 1e-14
    assert 49 - rank == kernel
    assert lifted_injectivity(rows, math.pi).kernel_dim == kernel


def test_lifted_rows_validation():
    for N in (-1, 17):
        with pytest.raises(ValueError, match=r"\[0, 16\]"):
            lifted_rows([1.0], N, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        lifted_rows([], 1, 1.0)


def test_lifted_injectivity_validation():
    # no rows, no columns, 1-D, 3-D, and a width that is not a square
    for rows in (np.empty((0, 4)), np.empty((3, 0)), np.ones(4), np.ones((2, 2, 4)), np.ones((3, 5))):
        with pytest.raises(ValueError, match="non-empty 2-D array whose width is a perfect square"):
            lifted_injectivity(rows, 1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_lifted_maps_reject_a_non_positive_alpha(alpha):
    for N in (0, 2):
        with pytest.raises(ValueError, match="alpha must be positive"):
            lifted_rows([0.5, 1j], N, alpha)
