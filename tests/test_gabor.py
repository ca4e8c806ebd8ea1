"""Windowed transform, entire lift, decay check, and symmetry classification."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockpr import gabor
from fockpr.fock import FockPoly, fock_gram
from fockpr.gabor import (
    HardyReport,
    HermiteSignal,
    bargmann,
    bargmann_grid,
    fock_inner_quad,
    gabor_transform,
    hardy_check,
    hermite_function,
    symmetry_class,
)
from fockpr.lattice import Lattice, window_arrays

SQRT_2PI = math.sqrt(2.0 * math.pi)


def basis_signal(n: int) -> HermiteSignal:
    return HermiteSignal((0.0,) * n + (1.0,))


# -- hermite functions ------------------------------------------------------------


def classical_hermite(n: int, t: np.ndarray) -> np.ndarray:
    """Textbook formula with raw physicists' polynomials (independent route)."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    u = SQRT_2PI * t
    scale = 2.0**0.25 / math.sqrt(2.0**n * math.factorial(n))
    return scale * np.polynomial.hermite.hermval(u, coeffs) * np.exp(-math.pi * t * t)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_hermite_function_matches_classical_formula(n):
    t = np.linspace(-3.0, 3.0, 41)
    assert hermite_function(n, t) == pytest.approx(classical_hermite(n, t), rel=1e-12, abs=1e-12)


def test_hermite_orthonormality_by_quadrature():
    # trapezoid on a wide grid; the integrand decays like exp(-2 pi t^2)
    t = np.linspace(-6.0, 6.0, 4001)
    h = np.stack([hermite_function(n, t) for n in range(7)])
    gram = h @ h.T * (t[1] - t[0])
    assert gram == pytest.approx(np.eye(7), abs=1e-10)


def test_hermite_function_scalar_and_validation():
    assert hermite_function(0, 0.0) == pytest.approx(2.0**0.25, rel=1e-15)
    assert isinstance(hermite_function(3, 0.5), float)
    with pytest.raises(ValueError):
        hermite_function(-1, 0.0)


def test_gaussian_signal_closed_form():
    g = HermiteSignal.gaussian()
    t = np.linspace(-2.0, 2.0, 17)
    assert g(t) == pytest.approx(np.exp(-math.pi * t * t), rel=1e-14)
    assert g.norm() == pytest.approx(2.0**-0.25, rel=1e-15)


def test_signal_call_and_poly_part_scalar_types():
    f = HermiteSignal((1.0, 2.0j))
    assert isinstance(f(0.3), complex)
    assert isinstance(f.poly_part(0.3), complex)
    assert f.poly_part(0.3) == pytest.approx(f(0.3) * math.exp(math.pi * 0.09), rel=1e-13)
    assert f.degree == 1
    with pytest.raises(ValueError):
        HermiteSignal(())


# -- windowed transform ------------------------------------------------------------


def test_gabor_transform_gaussian_closed_form():
    # two unnormalized Gaussians: G(0, 0) = integral exp(-2 pi t^2) = 2^{-1/2}
    g = HermiteSignal.gaussian()
    assert gabor_transform(g, 0.0, 0.0) == pytest.approx(2.0**-0.5, rel=1e-14)


def test_gabor_transform_riemann_sum_oracle():
    f = HermiteSignal((0.5, -0.25j, 1.0))
    t = np.linspace(-7.0, 7.0, 20001)
    ft = f(t)
    for x, omega in [(0.3, -0.7), (1.1, 0.4), (-2.0, 1.5)]:
        window = np.exp(-math.pi * (t - x) ** 2) * np.exp(-2j * math.pi * omega * t)
        direct = np.trapezoid(ft * window, t)
        assert gabor_transform(f, x, omega) == pytest.approx(direct, rel=1e-10)


def test_gabor_transform_quadrature_converged():
    f = HermiteSignal(tuple(range(1, 9)))
    a = gabor_transform(f, 0.8, -1.3, quad_points=64)
    b = gabor_transform(f, 0.8, -1.3, quad_points=160)
    assert a == pytest.approx(b, rel=1e-13)


def materialized_rows(nmax: int, u: np.ndarray) -> np.ndarray:
    """Every normalized Hermite row P_0..P_nmax at once: the recurrence kept in full."""
    out = np.empty((nmax + 1, u.size), dtype=np.result_type(u.dtype, float))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * u
    for n in range(1, nmax):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1.0)) * u * out[n]
            - math.sqrt(n / (n + 1.0)) * out[n - 1]
        )
    return out


def materialized_poly_part(f: HermiteSignal, t) -> np.ndarray:
    tt = np.asarray(t)
    u = (SQRT_2PI * tt).ravel()
    acc = np.zeros(u.size, dtype=complex)
    for c, row in zip(f.coeffs, materialized_rows(f.degree, u)):
        acc += c * row
    return (2.0**0.25 * acc).reshape(tt.shape)


def bits_equal(a, b) -> bool:
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


@pytest.mark.parametrize("degree", range(13))
def test_two_row_recurrence_is_bit_equal_to_materialized_rows(degree):
    rng = np.random.default_rng(degree)
    f = HermiteSignal(tuple(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)))
    t = np.concatenate([rng.normal(scale=2.0, size=(5, 8)).ravel(), [0.0, -0.0]]).reshape(6, 7)
    tc = t + 1j * rng.normal(size=t.shape)
    for arg in (t, tc):
        assert bits_equal(f.poly_part(arg), materialized_poly_part(f, arg))
    u = SQRT_2PI * t.ravel()
    expected = (materialized_poly_part(f, t).ravel() * np.exp(-0.5 * u * u)).reshape(t.shape)
    assert bits_equal(f(t), expected)
    row = materialized_rows(degree, u)[degree]
    assert bits_equal(hermite_function(degree, t), (2.0**0.25 * row * np.exp(-0.5 * u * u)).reshape(t.shape))


# -- entire lift -------------------------------------------------------------------


def test_bargmann_grid_matches_scalar_route():
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=1.5, size=20) + 1j * rng.normal(scale=1.5, size=20)
    f = HermiteSignal((1.0, -0.5j, 0.25, 0.1j))
    grid_vals = bargmann_grid(f, pts)
    scalar_vals = np.array([bargmann(f, z) for z in pts])
    assert grid_vals == pytest.approx(scalar_vals, rel=1e-10)


def test_bargmann_grid_shapes():
    f = basis_signal(2)
    z = np.array([[0.5 + 0.5j, 1.0], [2.0j, -1.0 - 1.0j]])
    out = bargmann_grid(f, z)
    assert out.shape == z.shape
    assert out[0, 1] == pytest.approx(bargmann(f, 1.0), rel=1e-12)


def one_shot_bargmann_grid(f: HermiteSignal, z, quad_points: int = 128):
    """Every (point, node) pair at once: the unblocked lift."""
    z = np.asarray(z, dtype=complex)
    nodes, weights = np.polynomial.hermite.hermgauss(quad_points)
    t = 0.5 * z[..., None] + nodes / SQRT_2PI
    return np.sum(weights * f.poly_part(t), axis=-1) / SQRT_2PI


def polar_grid(rmax: float, radial_order: int, angular_points: int) -> np.ndarray:
    r = 0.5 * rmax * (np.polynomial.legendre.leggauss(radial_order)[0] + 1.0)
    return r[:, None] * np.exp(2j * math.pi * np.arange(angular_points) / angular_points)


@pytest.mark.parametrize("quad_points", [128, 100])
def test_blocked_lift_is_bit_equal_to_the_one_shot_formula(quad_points):
    rng = np.random.default_rng(5)
    f = HermiteSignal((0.3, 1.0j, -0.5, 0.25))
    block = gabor._LIFT_BLOCK // quad_points
    shapes = [(), (0,), (7,), (block + 1,), (64, 128)]
    for shape in shapes:
        z = rng.normal(scale=2.0, size=shape) + 1j * rng.normal(scale=2.0, size=shape)
        got = bargmann_grid(f, z, quad_points=quad_points)
        want = one_shot_bargmann_grid(f, z, quad_points=quad_points)
        assert type(got) is type(want)
        assert bits_equal(got, want), shape


def test_lift_working_set_does_not_grow_with_the_grid():
    # the 64 x 128 polar grid of the lifted Gram check in ``verify gabor``;
    # materialized all at once it peaks at 134 MB
    grid = polar_grid(5.0, 64, 128)
    f = basis_signal(3)
    bargmann_grid(f, grid[:1])  # Gauss-Hermite nodes cached outside the trace
    tracemalloc.start()
    try:
        bargmann_grid(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_lift_of_gaussian_is_constant():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    vals = bargmann_grid(HermiteSignal.gaussian(), pts)
    assert vals == pytest.approx(np.full(12, 2.0**-0.5), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_lift_maps_hermite_to_monomial(n):
    # B h_n = 2^{-1/4} sqrt(pi^n / n!) z^n, positive real constant
    rng = np.random.default_rng(7)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    ratios = bargmann_grid(basis_signal(n), pts) / pts**n
    pred = 2.0**-0.25 * math.sqrt(math.pi**n / math.factorial(n))
    assert ratios == pytest.approx(np.full(12, pred), rel=1e-10)


def test_lift_mean_value_property():
    # entire functions equal their circle averages
    f = HermiteSignal((0.3, 1.0, -2.0j, 0.5))
    center = 0.7 - 0.4j
    circle = center + np.exp(2j * math.pi * np.arange(64) / 64)
    assert np.mean(bargmann_grid(f, circle)) == pytest.approx(
        bargmann(f, center), rel=1e-12
    )


def test_modulus_bridge_between_transform_and_lift():
    # |G f(x, omega)| = |B f(x - i omega)| exp(-pi (x^2 + omega^2) / 2)
    f = HermiteSignal((1.0, 0.5j, -0.25))
    for x, omega in [(0.5, 1.0), (-1.2, 0.3), (2.0, -2.0)]:
        lhs = abs(gabor_transform(f, x, omega))
        rhs = abs(bargmann_grid(f, np.array(x - 1j * omega))) * math.exp(
            -0.5 * math.pi * (x * x + omega * omega)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    )
)
def test_lift_is_linear(coeff_list):
    coeffs = tuple(coeff_list)
    z = 0.4 + 0.9j
    total = bargmann(HermiteSignal(coeffs), z)
    parts = sum(
        c * bargmann(basis_signal(n), z) for n, c in enumerate(coeffs) if c != 0
    )
    scale = max(1.0, max(abs(c) for c in coeffs))
    assert abs(total - parts) <= 1e-10 * scale


# -- unitarity up to a constant ----------------------------------------------------


def test_lift_gram_is_scaled_identity():
    gram = fock_gram([partial(bargmann_grid, basis_signal(n)) for n in range(5)], math.pi)
    assert gram == pytest.approx(2.0**-0.5 * np.eye(5), abs=1e-10)


def test_fock_gram_entries_are_pairwise_inner_products():
    funcs = [
        FockPoly(math.pi, (1.0, -2.0j, 0.5)),
        partial(bargmann_grid, HermiteSignal((0.3, 1.0j, -0.5))),
        partial(bargmann_grid, basis_signal(2)),
    ]
    rule = dict(rmax=5.0, radial_order=32, angular_points=64)
    gram = fock_gram(funcs, math.pi, **rule)
    for (m, n), entry in np.ndenumerate(gram):
        assert entry == fock_inner_quad(funcs[m], funcs[n], math.pi, **rule)


def test_lift_parseval_up_to_constant():
    rng = np.random.default_rng(11)
    a = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
    b = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
    signal_inner = sum(x * np.conj(y) for x, y in zip(a, b))
    lift_inner = fock_inner_quad(
        partial(bargmann_grid, HermiteSignal(a)),
        partial(bargmann_grid, HermiteSignal(b)),
        math.pi,
    )
    assert lift_inner == pytest.approx(2.0**-0.5 * signal_inner, rel=1e-9)


def test_fock_inner_quad_matches_coefficient_route():
    F = FockPoly(math.pi, (1.0, -2.0j, 0.5))
    G = FockPoly(math.pi, (0.5j, 1.0, 1.0, -0.25))
    quad = fock_inner_quad(F, G, math.pi)
    assert quad == pytest.approx(F.inner(G), rel=1e-10)


# -- gaussian decay check ----------------------------------------------------------


def dense_lattice() -> Lattice:
    return Lattice(0.7, 0.7j)


def test_hardy_check_gaussian_passes():
    report = hardy_check(HermiteSignal.gaussian(), dense_lattice(), c_value=0.75)
    assert report.passed
    assert report.max_ratio == pytest.approx(2.0**-0.5, rel=1e-10)
    assert report.violations_within(10.0) == []


def test_hardy_check_gaussian_fails_below_its_constant():
    report = hardy_check(HermiteSignal.gaussian(), dense_lattice(), c_value=0.70)
    assert not report.passed
    # every window point exceeds 0.70, so violations fill the window
    idx, pts = window_arrays(dense_lattice(), 5.0)
    assert len(report.violations_within(5.0)) == len(pts)


def test_hardy_check_flags_polynomial_growth():
    # signal with an h_1 component: |B f| grows linearly, far above any
    # modest constant at the window edge, but vanishes at the origin
    report = hardy_check(basis_signal(1), dense_lattice(), c_value=1.0)
    assert not report.passed
    edge = 2.0**-0.25 * math.sqrt(math.pi) * abs(report.worst_point)
    assert report.max_ratio == pytest.approx(edge, rel=1e-9)
    assert abs(report.worst_point) == pytest.approx(5.0, abs=0.3)
    assert report.violations_within(0.3) == []
    assert len(report.violations_within(2.0)) > 0


def test_hardy_check_report_consistency():
    report = hardy_check(HermiteSignal((0.6, 0.4j)), dense_lattice(), c_value=0.9)
    assert len(report.points) == len(report.ratios)
    assert report.max_ratio == max(report.ratios)
    assert report.worst_point in report.points
    assert report.passed == (report.max_ratio <= report.c_value)


def test_hardy_check_validation():
    with pytest.raises(ValueError):
        hardy_check(HermiteSignal.gaussian(), dense_lattice(), c_value=-0.1)
    with pytest.raises(ValueError, match="dense"):
        hardy_check(HermiteSignal.gaussian(), Lattice(1.0, 1.0j), c_value=1.0)


# -- symmetry classes --------------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((1.0, 0.0, 0.5), "even_real"),
        ((1.0, 2.0), "real"),
        ((1.0, 0.0, 2.0j), "even"),
        ((1.0, 2.0j), "none"),
        ((1.0j,), "even"),
        ((2.0**-0.25,), "even_real"),
    ],
)
def test_symmetry_class(coeffs, expected):
    assert symmetry_class(HermiteSignal(coeffs)) == expected


def test_symmetry_class_tolerance_scales_with_norm():
    assert symmetry_class(HermiteSignal((1e6, 1e-9j))) == "even_real"
    assert symmetry_class(HermiteSignal((1.0, 1e-9j))) == "none"


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((1.0, 0.0, -0.5), "even_real"),
        ((1.0, 2.0, 3.0), "real"),
        ((1.0j, 0.0, 2.0), "even"),
        ((1.0, 1.0j), "none"),
    ],
)
def test_fock_symmetry_check(coeffs, expected):
    # a Fock polynomial is classed in the vocabulary of the signals it lifts
    assert symmetry_class(FockPoly(math.pi, coeffs)) == expected


def test_symmetry_classes_commute_with_lift():
    # a real-valued signal lifts to a conjugation-symmetric entire function
    f = HermiteSignal((0.5, -1.0, 0.25))
    rng = np.random.default_rng(5)
    pts = rng.normal(size=10) + 1j * rng.normal(size=10)
    lifted = bargmann_grid(f, pts)
    lifted_conj = bargmann_grid(f, np.conj(pts))
    assert lifted_conj == pytest.approx(np.conj(lifted), rel=1e-11)
    # an even signal lifts to an even entire function
    g = HermiteSignal((0.5, 0.0, 0.25, 0.0, -1.0))
    assert bargmann_grid(g, -pts) == pytest.approx(bargmann_grid(g, pts), rel=1e-11)
