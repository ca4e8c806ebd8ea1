"""Weighted polynomial space: evaluation, norms, growth, and extensions."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fockpr import jsonio
from fockpr.fock import (
    FockPoly,
    TwoVarFockPoly,
    basis_scales,
    close_pair_bound_check,
    derivative_growth_check,
    dist,
    extension_norm_bound_check,
    fock_gram,
    growth_check,
    polyanalytic_residual,
    quad_norm,
    shift,
    two_var_extension,
    wronskian,
)
from fockpr.gabor import fock_inner_quad


alphas = st.floats(min_value=0.3, max_value=4.0)
coord = st.floats(min_value=-2.5, max_value=2.5)
cpx = st.tuples(coord, coord).map(lambda t: complex(*t))
coeff_lists = st.lists(
    st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(lambda t: complex(*t)),
    min_size=1,
    max_size=9,
)


def rand_poly(rng, alpha, degree) -> FockPoly:
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return FockPoly(alpha, tuple(c))


# -- basis scales and evaluation -------------------------------------------------


def test_basis_scales_match_the_factorial_formula():
    alpha = 2.7
    got = basis_scales(alpha, 12)
    expect = [math.sqrt(alpha**n / math.factorial(n)) for n in range(13)]
    assert np.allclose(got, expect, rtol=1e-14)


def test_basis_scales_branches_agree_and_stay_finite():
    alpha = 3.1
    direct = basis_scales(alpha, 30)
    logged = basis_scales(alpha, 60)
    assert np.allclose(logged[:31], direct, rtol=1e-12)
    big = basis_scales(10.0, 500)
    assert np.all(np.isfinite(big))
    with pytest.raises(ValueError):
        basis_scales(-1.0, 5)


@given(alphas, coeff_lists, cpx)
def test_evaluation_matches_monomial_horner(alpha, coeffs, z):
    F = FockPoly(alpha, tuple(coeffs))
    mono = F.monomial_coeffs()
    expect = 0j
    for c in reversed(mono):
        expect = expect * z + c
    scale = max(1.0, float(np.max(np.abs(mono))) * max(1.0, abs(z)) ** F.degree)
    assert abs(F(z) - expect) <= 1e-10 * scale


@given(alphas, coeff_lists)
def test_monomial_round_trip(alpha, coeffs):
    F = FockPoly(alpha, tuple(coeffs))
    back = FockPoly.from_monomial(alpha, F.monomial_coeffs())
    assert np.allclose(np.asarray(back.coeffs), np.asarray(F.coeffs),
                       rtol=1e-12, atol=1e-12)


def test_evaluation_is_vectorized():
    F = FockPoly(1.0, (1.0, 2.0, 3.0j))
    zs = np.array([[0.1, 0.2], [1j, -1.0]])
    vals = F(zs)
    assert vals.shape == zs.shape
    assert vals[0, 1] == F(0.2)


@given(alphas, coeff_lists, cpx)
def test_derivative_agrees_with_monomial_calculus(alpha, coeffs, z):
    F = FockPoly(alpha, tuple(coeffs))
    dF = F.derivative()
    assert dF.alpha == alpha
    expect = np.polynomial.polynomial.polyder(F.monomial_coeffs())
    got = dF.monomial_coeffs()
    if F.degree == 0:
        assert np.allclose(got, [0.0])
    else:
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)


# -- inner product and norms -------------------------------------------------------


def test_basis_elements_are_orthonormal():
    alpha = 1.3
    for m in range(4):
        em = FockPoly(alpha, tuple(1.0 if k == m else 0.0 for k in range(m + 1)))
        assert math.isclose(em.norm(), 1.0, rel_tol=1e-15)
        for n in range(4):
            en = FockPoly(alpha, tuple(1.0 if k == n else 0.0 for k in range(n + 1)))
            assert abs(em.inner(en) - (1.0 if m == n else 0.0)) < 1e-15


def test_norm_against_quadrature():
    rng = np.random.default_rng(0)
    for alpha in (0.7, 1.0, 2.5):
        F = rand_poly(rng, alpha, 8)
        assert math.isclose(F.norm(), quad_norm(F), rel_tol=1e-9)


def one_shot_gram(funcs, alpha, rmax=6.0, radial_order=96, angular_points=256):
    """The whole polar grid at once: the unblocked rule, kept as the oracle."""
    nodes, weights = np.polynomial.legendre.leggauss(radial_order)
    r = 0.5 * rmax * (nodes + 1.0)
    wr = 0.5 * rmax * weights
    angles = 2.0 * math.pi * np.arange(angular_points) / angular_points
    grid = r[:, None] * np.exp(1j * angles)[None, :]
    vals = np.stack([np.broadcast_to(F(grid), grid.shape) for F in funcs])
    products = vals[:, None] * np.conj(vals)[None, :]
    radial = products.mean(axis=-1) * np.exp(-alpha * r * r) * r
    return 2.0 * alpha * np.sum(wr * radial, axis=-1)


# one block: (7, 3) and (64, 128); several: the rest
@pytest.mark.parametrize(
    "radial_order, angular_points", [(96, 256), (400, 400), (64, 128), (33, 1000), (7, 3)]
)
def test_blocked_gram_is_bit_equal_to_the_one_shot_rule(radial_order, angular_points):
    rng = np.random.default_rng(3)
    funcs = [rand_poly(rng, 1.0, 6), rand_poly(rng, 1.0, 3), lambda z: 2.0 - 1.0j]
    rule = dict(rmax=7.5, radial_order=radial_order, angular_points=angular_points)
    got = fock_gram(funcs, 1.0, **rule)
    want = one_shot_gram(funcs, 1.0, **rule)
    assert got.dtype == want.dtype and got.shape == want.shape == (3, 3)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_quad_norm_is_the_one_function_gram():
    F = rand_poly(np.random.default_rng(4), 1.3, 5)
    gram = fock_gram([F], F.alpha, 6.0 + F.degree, 400, 400)
    assert quad_norm(F) == math.sqrt(gram[0, 0].real)


def test_quad_norm_working_set_is_fixed():
    # the whole 400 x 400 grid at once peaks at 10.3 MB
    F = rand_poly(np.random.default_rng(5), 1.0, 4)
    np.polynomial.legendre.leggauss(400)  # numpy's lazy imports outside the trace
    tracemalloc.start()
    try:
        quad_norm(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("rmin, rmax", [(-1.0, 2.0), (2.0, 2.0), (3.0, 2.0), (0.0, math.inf),
                                        (math.nan, 2.0), (0.0, math.nan)])
def test_gram_rejects_a_bad_annulus(rmin, rmax):
    with pytest.raises(ValueError):
        fock_gram([lambda z: z], 1.0, rmax, rmin=rmin)


def test_inner_product_against_quadrature():
    rng = np.random.default_rng(1)
    F = rand_poly(rng, 1.0, 5)
    H = rand_poly(rng, 1.0, 7)
    quad = fock_inner_quad(F, H, 1.0, rmax=9.0)
    assert abs(F.inner(H) - quad) < 1e-8 * F.norm() * H.norm()
    assert F.inner(H) == pytest.approx(np.conj(H.inner(F)))


# -- kernel distance ---------------------------------------------------------------


def series_dist(alpha, z, w, n_max=140):
    """Independent route: partial sums of the basis expansion."""
    scales = basis_scales(alpha, n_max)
    zp = scales * np.power(z, np.arange(n_max + 1))
    wp = scales * np.power(w, np.arange(n_max + 1))
    return math.sqrt(float(np.sum(np.abs(zp - wp) ** 2)))


@given(st.floats(min_value=0.3, max_value=2.0), cpx, cpx)
@example(1.0, 0j, 1e-8j)
@settings(max_examples=60)
def test_distance_matches_the_series_oracle(alpha, z, w):
    closed = dist(alpha, z, w)
    assert math.isclose(closed, series_dist(alpha, z, w), rel_tol=1e-9, abs_tol=1e-9)


@given(st.floats(min_value=0.3, max_value=1.5), cpx, cpx, cpx)
def test_distance_is_a_metric(alpha, z, w, u):
    assert dist(alpha, z, z) == 0.0
    assert dist(alpha, z, w) == pytest.approx(dist(alpha, w, z))
    assert dist(alpha, z, w) <= dist(alpha, z, u) + dist(alpha, u, w) + 1e-9


@given(st.floats(min_value=0.3, max_value=2.0), cpx, cpx)
@settings(max_examples=60)
def test_close_pair_bound_always_holds(alpha, z, w):
    # theorem where the hypothesis applies, vacuous True elsewhere
    assert bool(np.all(close_pair_bound_check(alpha, z, w)))


def test_close_pair_bound_is_vectorized():
    z = np.array([0.1, 5.0, 0.3 + 0.3j])
    w = z + np.array([1e-3, 4.0, 1e-2j])
    out = close_pair_bound_check(1.0, z, w)
    assert out.shape == (3,)
    assert bool(np.all(out))


# -- growth envelopes ---------------------------------------------------------------


def test_growth_envelope_holds_with_the_true_norm():
    rng = np.random.default_rng(2)
    F = rand_poly(rng, 1.2, 6)
    pts = (rng.standard_normal(300) + 1j * rng.standard_normal(300)) * 2.0
    rep = growth_check(F, pts)
    assert rep.passed
    assert 0.0 < rep.max_ratio <= 1.0 + 1e-9
    drep = derivative_growth_check(F, pts)
    assert drep.passed


def test_growth_check_detects_an_understated_norm():
    alpha = 1.0
    n = 4
    F = FockPoly(alpha, tuple(1.0 if k == n else 0.0 for k in range(n + 1)))
    # |e_n| / envelope peaks at |z| = sqrt(n/alpha)
    peak = math.sqrt(n / alpha)
    true_peak_ratio = math.sqrt(alpha**n / math.factorial(n)) * peak**n * math.exp(-alpha * peak**2 / 2.0)
    pts = peak * np.exp(1j * np.linspace(0, 2 * math.pi, 16))
    rep = growth_check(F, pts, norm_value=0.9 * true_peak_ratio)
    assert not rep.passed
    assert abs(abs(rep.worst_point) - peak) < 1e-9
    ok = growth_check(F, pts, norm_value=1.0)
    assert ok.passed
    assert ok.max_ratio == pytest.approx(true_peak_ratio, rel=1e-12)
    assert set(json.loads(jsonio.dumps(rep))) == {"passed", "max_ratio", "worst_point"}


# -- Wronskian and the conjugate-lowering identity -------------------------------------


@given(coeff_lists, coeff_lists, cpx)
@settings(max_examples=60)
def test_wronskian_product_rule(coeffs_f, coeffs_h, z):
    F = FockPoly(1.0, tuple(coeffs_f))
    H = FockPoly(1.0, tuple(coeffs_h))
    W = wronskian(F, H)
    assert W.alpha == 2.0
    direct = F(z) * H.derivative()(z) - F.derivative()(z) * H(z)
    scale = max(1.0, abs(F(z)), abs(H(z))) ** 2 * max(
        1.0, float(np.max(np.abs(F.monomial_coeffs()))), float(np.max(np.abs(H.monomial_coeffs())))
    )
    assert abs(W(z) - direct) <= 1e-8 * scale


def test_wronskian_antisymmetry_and_degeneracy():
    rng = np.random.default_rng(3)
    F = rand_poly(rng, 0.8, 5)
    H = rand_poly(rng, 0.8, 4)
    WFH = wronskian(F, H)
    WHF = wronskian(H, F)
    assert np.allclose(np.asarray(WFH.coeffs), -np.asarray(WHF.coeffs), atol=1e-12)
    assert np.linalg.norm(np.asarray(wronskian(F, F).coeffs)) < 1e-12
    with pytest.raises(ValueError):
        wronskian(F, rand_poly(rng, 0.9, 3))


def test_polyanalytic_identity_residual_is_rounding_noise():
    rng = np.random.default_rng(4)
    F = rand_poly(rng, 1.0, 6)
    H = rand_poly(rng, 1.0, 6)
    z = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * 1.5
    assert polyanalytic_residual(F, H, z) < 1e-9


# -- two-variable extension --------------------------------------------------------


def test_extension_restricts_to_the_diagonal():
    rng = np.random.default_rng(5)
    F = rand_poly(rng, 1.0, 5)
    G = two_var_extension(F, beta=3.0)
    for z in (0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 0.5j):
        x, y = z.real, z.imag
        expect = F.derivative()(z) * np.conj(F(z))
        assert complex(G(x, y)) == pytest.approx(expect, rel=1e-10)


def test_extension_requires_a_heavier_weight():
    F = FockPoly(1.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        two_var_extension(F, beta=2.0)


def test_two_var_norm_formula_explicitly():
    beta = 2.0
    G = TwoVarFockPoly(beta, np.array([[1.0, 0.0], [0.0, 2.0j]]))
    # ||1||^2 + |2i|^2 * (1! 1! / beta^2)
    assert G.norm() == pytest.approx(math.sqrt(1.0 + 4.0 / beta**2), rel=1e-12)
    with pytest.raises(ValueError):
        TwoVarFockPoly(0.0, np.eye(2))


def quad_two_var_norm(G: TwoVarFockPoly, rmax=5.0, nr=32, ntheta=8):
    """Independent tensor polar quadrature of the weighted double integral."""
    x, wts = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * rmax * (x + 1.0)
    wr = 0.5 * rmax * wts
    th = 2.0 * math.pi * np.arange(ntheta) / ntheta
    z = r[:, None] * np.exp(1j * th[None, :])
    w1 = (wr[:, None] * r[:, None] * np.exp(-G.beta * r[:, None] ** 2)
          * np.ones_like(th)[None, :] * (2 * math.pi / ntheta))
    z1 = z[:, :, None, None]
    z2 = z[None, None, :, :]
    vals = np.abs(G(z1, z2)) ** 2
    total = np.einsum("ab,cd,abcd->", w1, w1, vals) * (G.beta / math.pi) ** 2
    return math.sqrt(total)


def test_two_var_norm_against_quadrature():
    rng = np.random.default_rng(6)
    G = TwoVarFockPoly(1.0, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert G.norm() == pytest.approx(quad_two_var_norm(G, rmax=7.0, nr=48), rel=1e-7)


def test_extension_norm_bound():
    rng = np.random.default_rng(7)
    for deg in (0, 3, 6):
        F = rand_poly(rng, 1.0, deg)
        ok, lhs, rhs = extension_norm_bound_check(F, beta=2.6)
        assert ok
        assert lhs <= rhs


# -- recentering ---------------------------------------------------------------------


@given(coeff_lists, cpx, cpx)
@settings(max_examples=60)
def test_shift_recenters_exactly(coeffs, s, z):
    F = FockPoly(1.0, tuple(coeffs))
    Fs = shift(F, s)
    assert Fs.alpha == F.alpha
    scale = max(1.0, float(np.max(np.abs(F.monomial_coeffs()))) * (1 + abs(z) + abs(s)) ** F.degree)
    assert abs(Fs(z) - F(z + s)) <= 1e-9 * scale
