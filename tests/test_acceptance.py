"""Acceptance checks, one per numbered criterion, each printing one line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
of every criterion; each check also enforces its stated runtime budget.
"""

import cmath
import math
import time

import numpy as np
import pytest

from fockpr import cli
from fockpr.fock import (
    FockPoly,
    basis_scales,
    close_pair_bound_check,
    dist,
    extension_norm_bound_check,
    fock_gram,
    polyanalytic_residual,
)
from fockpr.gabor import (
    HermiteSignal,
    bargmann_grid,
    hardy_check,
)
from fockpr.lattice import Lattice, window_arrays
from fockpr.phaseless import (
    directional_derivative,
    lifted_injectivity,
    rolle_point,
    zero_perturbation_bound_check,
)
from fockpr.pointset import density_estimate, sample_points, separation
from fockpr.sampler import (
    GeneratorConfig,
    density_opt_even,
    density_opt_real,
    mc_angle_bound,
    mc_mirror_angle_bound,
    random_triple,
)
from fockpr.special import (
    CriticalQ,
    fock_annulus_increments,
    GGammaEvaluator,
    lagrange_interpolate,
)

PI = math.pi


def finish(num: int, label: str, passed: bool, detail: str, limit: float, t0: float):
    elapsed = time.time() - t0
    print(f"{'PASS' if passed else 'FAIL'} {num:02d} {label}: {detail} [{elapsed:.2f}s / {limit:.0f}s]")
    assert passed, f"criterion {num:02d} ({label}): {detail}"
    assert elapsed < limit, f"criterion {num:02d} exceeded its {limit:.0f}s budget"


# -- 1: predicate truth table --------------------------------------------------------


def test_01_lattice_predicate_table():
    t0 = time.time()
    side_lengths = (0.4, 0.45, 0.5, 1.0 / math.sqrt(PI), 1.0)
    ok = True
    for alpha in (PI, 4.0 * PI):
        threshold = PI / alpha
        for v in side_lengths:
            lat = Lattice(v, v * 1j)
            want_strict = v * v < threshold
            want_weak = v * v <= threshold
            ok = ok and lat.is_liouville(alpha) is want_strict
            ok = ok and lat.is_uniqueness(alpha) is want_weak
    # the two designed boundary rows sit exactly on the threshold
    ok = ok and not Lattice(1.0, 1.0j).is_liouville(PI)
    ok = ok and Lattice(1.0, 1.0j).is_uniqueness(PI)
    ok = ok and not Lattice(0.5, 0.5j).is_liouville(4.0 * PI)
    ok = ok and Lattice(0.5, 0.5j).is_uniqueness(4.0 * PI)
    finish(1, "strict/non-strict area predicates", ok,
           "10 lattice/weight rows, equality rows float-exact", 1.0, t0)


# -- 2: densities of the constructions ------------------------------------------------


def test_02_construction_densities():
    t0 = time.time()
    radii = (25.0, 37.5, 50.0)
    cfg = GeneratorConfig(Lattice(0.45, 0.45j), window_radius=50.0, gamma=7.0,
                          kappa_cap=1.0, seed=0)
    cases = [
        ("three-per-site", sample_points(random_triple(cfg)), 3.0 / 0.45**2),
        ("real-pair optimal", sample_points(density_opt_real(0.45, window_radius=50.0, seed=0)),
         3.0 / (2.0 * 0.45**2)),
        ("even optimal", sample_points(density_opt_even(0.45, window_radius=50.0, seed=0)),
         3.0 / (4.0 * 0.45**2)),
    ]
    ok = True
    details = []
    for name, pts, target in cases:
        fitted = density_estimate(pts, center=0j, radii=radii).fitted_density
        rel = abs(fitted - target) / target
        ok = ok and rel <= 0.03
        details.append(f"{name} {fitted:.4f} vs {target:.4f} ({rel:.2%})")
    finish(2, "construction densities at radius 50", ok, "; ".join(details), 30.0, t0)


# -- 3: separation of the even-optimal construction -----------------------------------


def test_03_even_construction_separation():
    t0 = time.time()
    v = 0.45
    ps = density_opt_even(v, window_radius=12.0, seed=0)  # default cap v/4
    rep = separation(sample_points(ps))
    ok = rep.delta >= v / 2.0
    finish(3, "even-optimal separation", ok,
           f"pairwise min distance {rep.delta:.4f} >= v/2 = {v / 2.0}", 10.0, t0)


# -- 4: kernel distance, closed form vs series; close-pair bound ----------------------


def test_04_kernel_distance_two_routes_and_close_pair_bound():
    t0 = time.time()
    alpha = PI
    rng = np.random.default_rng(14)
    n_max = 200
    scales_arr = basis_scales(alpha, n_max)
    powers = np.arange(n_max + 1)

    def series_dist(z, w):
        ez = scales_arr * z ** powers
        ew = scales_arr * w ** powers
        return math.sqrt(float(np.sum(np.abs(ez - ew) ** 2)))

    worst = 0.0
    for _ in range(2000):
        z, w = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        closed = float(dist(alpha, z, w))
        series = series_dist(z, w)
        worst = max(worst, abs(closed - series) / max(1.0, series))
    route_ok = worst <= 1e-12

    # hypothesis-satisfying pairs: offset below the per-point displacement cap
    z = rng.normal(scale=1.2, size=10000) + 1j * rng.normal(scale=1.2, size=10000)
    cap = np.minimum(alpha**-0.5, 1.0 / (alpha * np.abs(z)))
    w = z + rng.uniform(0.0, 1.0, 10000) * cap * np.exp(2j * PI * rng.uniform(size=10000))
    checks = close_pair_bound_check(alpha, z, w)
    violations = int(np.count_nonzero(~checks))
    finish(4, "kernel distance routes and close-pair bound", route_ok and violations == 0,
           f"route gap {worst:.2e} <= 1e-12; {violations} violations on 10^4 pairs", 5.0, t0)


# -- 5: directional derivative vs central differences ---------------------------------


def test_05_directional_derivative_central_difference():
    t0 = time.time()
    alpha, h = PI, 5e-4
    rng = np.random.default_rng(5)

    def unit_poly():
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        return FockPoly(alpha, c / np.linalg.norm(c))

    def gap(F, H, z):
        return abs(complex(F(z))) ** 2 - abs(complex(H(z))) ** 2

    worst = 0.0
    for _ in range(100):
        F, H = unit_poly(), unit_poly()
        for _ in range(10):
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            theta = rng.uniform(0.0, 2.0 * PI)
            step = cmath.exp(1j * theta)
            # fourth-order stencil: the unweighted gap reaches ~1e4 on this
            # window, so a plain second-order difference cannot hit 1e-6
            fd = (
                gap(F, H, z - 2 * h * step)
                - 8.0 * gap(F, H, z - h * step)
                + 8.0 * gap(F, H, z + h * step)
                - gap(F, H, z + 2 * h * step)
            ) / (12.0 * h)
            worst = max(worst, abs(directional_derivative(F, H, theta, z) - fd))
    finish(5, "directional derivative identity", worst <= 1e-6,
           f"max |analytic - finite difference| = {worst:.2e} (order-4, h = 5e-4)", 5.0, t0)


# -- 6: conjugate-lowering identity ----------------------------------------------------


def test_06_polyanalytic_identity():
    t0 = time.time()
    alpha = PI
    rng = np.random.default_rng(6)
    worst = 0.0
    pts = rng.normal(scale=1.0, size=25) + 1j * rng.normal(scale=1.0, size=25)
    for _ in range(100):
        c1 = rng.normal(size=7) + 1j * rng.normal(size=7)
        c2 = rng.normal(size=7) + 1j * rng.normal(size=7)
        F = FockPoly(alpha, c1 / np.linalg.norm(c1))
        H = FockPoly(alpha, c2 / np.linalg.norm(c2))
        lhs_scale = max(
            1.0,
            float(np.max(np.abs(np.asarray(F(pts)) * np.asarray(H.derivative()(pts))))),
        )
        worst = max(worst, polyanalytic_residual(F, H, pts) / lhs_scale)
    finish(6, "conjugate-lowering identity", worst <= 1e-10,
           f"max relative residual {worst:.2e} over 100 unit-norm pairs", 2.0, t0)


# -- 7: two-variable extension norm bound ----------------------------------------------


def test_07_extension_norm_bound():
    t0 = time.time()
    alpha, beta = 1.0, 3.0
    rng = np.random.default_rng(7)
    violations = 0
    worst_ratio = 0.0
    for _ in range(100):
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        ok, norm, bound = extension_norm_bound_check(FockPoly(alpha, c), beta)
        violations += not ok
        worst_ratio = max(worst_ratio, norm / bound)
    finish(7, "two-variable extension norm bound", violations == 0,
           f"0 violations in 100 degree-6 draws, worst norm/bound {worst_ratio:.3f}", 10.0, t0)


# -- 8: sigma machinery: residuals, growth constant, growth ratio ----------------------


def test_08_sigma_residuals_and_growth(sigma_unit):
    t0 = time.time()
    ev = sigma_unit
    res_ok = (
        ev.quasi_period_residual <= 1e-6
        and ev.legendre_residual <= 1e-6
        and abs(ev.a_const) <= 1e-6
    )
    g = np.linspace(-8.0, 8.0, 41)
    grid = (g[:, None] + 1j * g[None, :]).ravel()
    grid = grid[np.abs(grid) <= 8.0]
    s = ev.lattice.area
    ratio = np.abs(np.asarray(ev.sigma_mod(grid))) * np.exp(
        -PI * np.abs(grid) ** 2 / (2.0 * s)
    )
    top = float(np.max(ratio))
    growth_ok = 0.05 <= top <= 1.0
    finish(
        8, "sigma quasi-periods, growth constant, growth ratio", res_ok and growth_ok,
        f"residuals ({ev.quasi_period_residual:.1e}, {ev.legendre_residual:.1e}), "
        f"|a| = {abs(ev.a_const):.1e}, max growth ratio {top:.3f} on |z| <= 8",
        60.0, t0,
    )


# -- 9: bounded nonconstant counterexample at the critical density --------------------


def test_09_critical_counterexample(sigma_unit):
    t0 = time.time()
    Q = CriticalQ(sigma_unit, 0.0, 1.0)
    _idx, pts = window_arrays(Lattice(1.0, 1.0j), 8.0)
    rest = pts[(np.abs(pts) > 1e-12) & (np.abs(pts - 1.0) > 1e-12)]
    g = np.linspace(-8.0, 8.0, 33)
    grid = (g[:, None] + 1j * g[None, :]).ravel()
    sup = float(np.max(np.abs(np.asarray(Q(grid[np.abs(grid) <= 8.0])))))
    residual = float(np.max(np.abs(np.asarray(Q(rest))))) / sup
    survives = abs(complex(Q(0.0))) > 0.0 and abs(complex(Q(1.0))) > 0.0
    inc = fock_annulus_increments(Q, PI, [6.0, 7.0, 8.0, 9.0])
    decreasing = bool(np.all(np.diff(inc) < 0.0))
    finish(
        9, "critical-density counterexample", residual <= 1e-8 and survives and decreasing,
        f"vanishing {residual:.1e} relative, |Q| > 0 at both removed points, "
        f"mass increments {np.array2string(inc, precision=5)} decreasing",
        60.0, t0,
    )


# -- 10: interpolation from denser-lattice samples -------------------------------------


def test_10_lagrange_reconstruction():
    t0 = time.time()
    alpha = PI
    ev = GGammaEvaluator.from_lattice(2.0 * PI, 12.0)
    rng = np.random.default_rng(5)
    probes = rng.normal(scale=1.2, size=20) + 1j * rng.normal(scale=1.2, size=20)
    worst = 0.0
    for f in (
        lambda z: np.ones_like(z),
        lambda z: math.sqrt(alpha) * z,
    ):
        values = f(ev.nodes)
        for z in probes:
            res = lagrange_interpolate(ev, values, complex(z), alpha)
            worst = max(worst, abs(res.value - f(z)))
    finish(10, "node-sample reconstruction", worst <= 1e-3,
           f"max error {worst:.2e} over 20 points for the constant and degree-1 basis",
           60.0, t0)


# -- 11: small-angle probabilities vs the linear bound ---------------------------------


def test_11_monte_carlo_small_angles():
    t0 = time.time()
    ok = True
    details = []
    for eps in (0.01, 0.02, 0.05):
        for name, runner in (("triple", mc_angle_bound), ("mirror", mc_mirror_angle_bound)):
            rep = runner(100000, eps, seed=1)
            good = rep.p_hat + 3.0 * rep.stderr <= 4.0 * eps
            ok = ok and good and rep.passed
            details.append(f"{name}@{eps:g}: {rep.p_hat + 3.0 * rep.stderr:.4f} <= {4.0 * eps:.2f}")
    finish(11, "small-angle probability bounds", ok, "; ".join(details), 30.0, t0)


# -- 12: entire lift of the Gaussian and the lifted Gram -------------------------------


def test_12_lift_constant_and_gram():
    t0 = time.time()
    rng = np.random.default_rng(12)
    pts = rng.normal(size=20) + 1j * rng.normal(size=20)
    lift = np.abs(bargmann_grid(HermiteSignal.gaussian(), pts))
    const_dev = float(lift.max() - lift.min()) / float(lift.mean())
    lifts = [
        lambda z, f=HermiteSignal((0.0,) * n + (1.0,)): bargmann_grid(f, z) for n in range(5)
    ]
    gram = np.abs(fock_gram(lifts, PI))
    diag = np.diag(gram)
    diag_dev = float(diag.max() - diag.min()) / float(diag.mean())
    off = gram - np.diag(diag)
    off_dev = float(np.max(off)) / float(diag.mean())
    ok = const_dev <= 1e-5 and diag_dev <= 1e-4 and off_dev <= 1e-4
    finish(12, "lift of the Gaussian and Hermite Gram", ok,
           f"modulus spread {const_dev:.1e}; Gram diagonal spread {diag_dev:.1e}, "
           f"off-diagonal {off_dev:.1e} (common constant {diag.mean():.6f})",
           60.0, t0)


# -- 13: Gaussian decay test on a dense window -----------------------------------------


def test_13_gaussian_decay_test():
    t0 = time.time()
    lat = Lattice(0.9, 0.9j)
    gauss = hardy_check(HermiteSignal.gaussian(), lat, c_value=0.71, window_radius=5.0)
    first = hardy_check(HermiteSignal((0.0, 1.0)), lat, c_value=0.71, window_radius=5.0)
    near_violations = first.violations_within(2.0)
    ok = gauss.passed and not first.passed and len(near_violations) > 0
    finish(13, "Gaussian decay test", ok,
           f"Gaussian worst ratio {gauss.max_ratio:.4f} <= 0.71; first excited state "
           f"violates at {len(near_violations)} points with |z| <= 2",
           30.0, t0)


# -- 14: lifted injectivity rank counting ----------------------------------------------


def pinned_scattered_points(seed: int = 0) -> np.ndarray:
    cfg = GeneratorConfig(
        Lattice(1.0, 1.0j), window_radius=2.4, gamma=0.05, kappa_cap=0.45, seed=seed
    )
    pts = np.asarray(random_triple(cfg).points(), dtype=complex)
    order = np.lexsort((np.angle(pts), np.round(np.abs(pts), 12)))
    return pts[order]


def test_14_lifted_injectivity_rank_counting():
    t0 = time.time()
    pts = pinned_scattered_points()
    ok = len(pts) >= 60
    details = []
    sigma_min_60 = 0.0
    for m in (30, 45, 49, 60):
        rep = lifted_injectivity(pts[:m], N=6, alpha=PI)
        expected = max(0, 49 - m)
        ok = ok and rep.kernel_dim == expected
        details.append(f"M={m}: kernel {rep.kernel_dim}")
        if m == 60:
            sigma_min_60 = float(rep.singular_values[-1])
    ok = ok and sigma_min_60 > 0.0
    finish(14, "lifted rank counting", ok,
           "; ".join(details) + f"; sigma_min(60) = {sigma_min_60:.2e} > 0", 30.0, t0)


# -- 15: displaced-zero bound, end to end ----------------------------------------------


def bisect_on(d, param, lo: float, hi: float) -> complex:
    sign_lo = np.sign(d(param(lo)))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.sign(d(param(mid))) == sign_lo:
            lo = mid
        else:
            hi = mid
    return param(0.5 * (lo + hi))


def equal_modulus_chord(F, H, r):
    d = lambda z: abs(complex(F(z))) ** 2 - abs(complex(H(z))) ** 2
    on_circle = lambda t: r * cmath.exp(1j * t)
    ang = np.linspace(0.0, 2.0 * PI, 1201)
    vals = np.array([d(on_circle(t)) for t in ang])
    flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(flips) < 2:
        return None
    return (
        bisect_on(d, on_circle, ang[flips[0]], ang[flips[0] + 1]),
        bisect_on(d, on_circle, ang[flips[1]], ang[flips[1] + 1]),
    )


def build_displaced_zero_instance(seed: int, alpha: float, eps: float):
    """Equal-modulus chords on two circles; their interior derivative zeros
    feed the displacement bound around the chord midpoint."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        base = rng.normal(scale=0.4, size=3) + 1j * rng.normal(scale=0.4, size=3)
        base[0] = 1.0
        delta = rng.normal(scale=0.02, size=3) + 1j * rng.normal(scale=0.02, size=3)
        F = FockPoly.from_monomial(alpha, base)
        H = FockPoly.from_monomial(alpha, base + delta)
        for r1, r2 in ((0.8, 1.1), (1.0, 1.3), (1.2, 1.5)):
            chord1 = equal_modulus_chord(F, H, r1)
            chord2 = equal_modulus_chord(F, H, r2)
            if chord1 is None or chord2 is None:
                continue
            res1 = rolle_point(F, H, *chord1)
            res2 = rolle_point(F, H, *chord2)
            if abs(math.sin(res1.theta - res2.theta)) < 1e-3:
                continue
            z0 = 0.5 * (res1.point + res2.point)
            rate = 2.0 * alpha + eps
            cap = min(rate**-0.5, 1.0 / (rate * abs(z0))) if abs(z0) > 0 else rate**-0.5
            if max(abs(res1.point - z0), abs(res2.point - z0)) > 0.95 * cap:
                continue
            return F, H, z0, res1, res2
    return None


def test_15_displaced_zero_bound_end_to_end():
    t0 = time.time()
    alpha, eps = 1.0, 0.5
    built = violations = 0
    for seed in range(50):
        inst = build_displaced_zero_instance(seed, alpha, eps)
        if inst is None:
            continue
        built += 1
        F, H, z0, res1, res2 = inst
        rep = zero_perturbation_bound_check(
            F, H, z0, res1.theta, res2.theta, res1.point, res2.point, eps
        )
        violations += not rep.ok
    finish(15, "displaced-zero derivative bound", built == 50 and violations == 0,
           f"{built}/50 instances built, {violations} bound violations", 60.0, t0)


# -- 16: byte-identical artifacts ------------------------------------------------------


def test_16_artifact_determinism(tmp_path):
    t0 = time.time()
    commands = {
        "density construction": ["generate", "--construction", "optreal", "--v", "0.45",
                                  "--radius", "50", "--seed", "0"],
        "small-angle runs": ["montecarlo", "angles", "--trials", "100000",
                              "--eps", "0.05", "--seed", "1"],
        "rank counting": ["injectivity", "--dim", "6", "--seed", "0"],
    }
    ok = True
    details = []
    for name, argv in commands.items():
        payloads = []
        for run in (0, 1):
            out = tmp_path / f"{name.split()[0]}_{run}.json"
            rc = cli.main(argv + ["--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            payloads.append(out.read_bytes())
        same = payloads[0] == payloads[1]
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFER'} ({len(payloads[0])} bytes)")
    finish(16, "artifact determinism", ok, "; ".join(details), 120.0, t0)
