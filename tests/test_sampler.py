"""Point-set generators: symmetry relations, budgets, and determinism."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockpr import jsonio, sampler
from fockpr.lattice import Lattice, modulus_order, window_arrays
from fockpr.pointset import (
    IndexedPointSet,
    angle_condition,
    median_angles,
    sample_points,
    separation,
    triple_vertices,
)
from fockpr.rng import keyed_disk
from fockpr.sampler import (
    GeneratorConfig,
    density_opt_even,
    density_opt_real,
    deterministic_triple,
    even_single,
    mc_angle_bound,
    mc_mirror_angle_bound,
    opt_even_lattice,
    opt_even_sublattice_mask,
    opt_real_lattices,
    random_triple,
    real_pair,
    reflection_closure,
    three_lines,
)


UNIT = Lattice(1.0, 1.0j)
HEXAGONAL = Lattice(1.0, cmath.exp(1j * math.pi / 3.0))


def cfg(radius=4.5, gamma=7.0, cap=0.4, seed=0, lat=UNIT) -> GeneratorConfig:
    return GeneratorConfig(lat, radius, gamma=gamma, kappa_cap=cap, seed=seed)


# -- configuration ---------------------------------------------------------------


def test_config_validation(monkeypatch):
    # each generator makes its set first, and the set refuses a bad budget or
    # window before any lattice point is enumerated
    def no_window(*_args):
        raise AssertionError("window_arrays ran on a bad configuration")

    bad = [cfg(gamma=0.0), cfg(cap=0.0), cfg(cap=1.5), GeneratorConfig(UNIT, -1.0)]
    for value in (math.nan, math.inf):
        bad += [cfg(gamma=value), cfg(cap=value), cfg(radius=value)]
    makers = [deterministic_triple, random_triple, real_pair, even_single]
    assert all(len(make(cfg(radius=2.0))) for make in makers)
    monkeypatch.setattr(sampler, "window_arrays", no_window)
    for make in makers:
        for c in bad:
            with pytest.raises(ValueError):
                make(c)
    for make in (density_opt_real, density_opt_even):
        for kwargs in ({"gamma": 0.0}, {"kappa_cap": math.nan}, {"window_radius": math.inf}):
            with pytest.raises(ValueError):
                make(0.45, **{"window_radius": 8.0, **kwargs})


# -- triple generators --------------------------------------------------------------


def test_deterministic_triples_are_equilateral_with_saturated_budgets():
    c = cfg()
    ps = deterministic_triple(c)
    rep = angle_condition(ps, beta=1.0)
    assert math.isclose(rep.theta_min, math.pi / 3.0, rel_tol=1e-12)
    assert rep.passed
    assert ps.meta["construction"] == "det3"
    assert ps.meta["sample_tags"] == ("A", "B", "C")
    for index in [(0, 0), (1, 0), (2, -1)]:
        home = UNIT.point(index)
        budget = c.kappa_cap * math.exp(-c.gamma * abs(home) ** 2)
        for tag in "ABC":
            assert math.isclose(abs(ps.get(index, tag).delta), budget, rel_tol=1e-12)
            assert abs(abs(ps.get(index, tag).unit) - 1.0) < 1e-12


def test_random_triples_respect_budgets_and_are_deterministic():
    c = cfg()
    ps = random_triple(c)
    again = random_triple(cfg())
    assert jsonio.dumps(ps.to_json()) == jsonio.dumps(again.to_json())
    other = random_triple(cfg(seed=1))
    assert jsonio.dumps(ps.to_json()) != jsonio.dumps(other.to_json())
    idx, pts = window_arrays(UNIT, c.window_radius)
    assert len(ps) == 3 * len(pts)
    for (m, n), p in zip(idx[:40], pts[:40]):
        budget = c.kappa_cap * math.exp(-c.gamma * abs(p) ** 2)
        for tag in "ABC":
            e = ps.get((m, n), tag)
            assert abs(e.unit) <= 1.0 + 1e-12
            assert abs(e.delta) <= budget * (1 + 1e-12)


def test_window_extension_preserves_existing_draws():
    small = random_triple(cfg(radius=3.0))
    large = random_triple(cfg(radius=5.0))
    idx, _ = window_arrays(UNIT, 3.0)
    assert len(small) == 3 * len(idx)
    for index in idx.tolist():
        for tag in "ABC":
            assert large.get(index, tag).unit == small.get(index, tag).unit


# -- mirror constructions --------------------------------------------------------


def test_real_pair_relations():
    ps = real_pair(cfg())
    assert ps.meta["sample_tags"] == ("1", "2")
    idx, pts = window_arrays(UNIT, 4.5)
    assert len(sample_points(ps)) == 2 * len(pts)
    # on the real axis the triple is an actual mirror pair
    assert ps.get((3, 0), "C").pos == np.conj(ps.get((3, 0), "A").pos)
    rep = angle_condition(ps, beta=1.0)
    assert rep.passed


def test_even_single_relations():
    ps = even_single(cfg())
    assert ps.meta["sample_tags"] == ("1",)
    with pytest.raises(KeyError):
        ps.get((0, 0), "1")
    # real-axis homes mirror
    assert ps.get((2, 0), "B").pos == np.conj(ps.get((2, 0), "A").pos)
    assert angle_condition(ps, beta=1.0).passed


def units_by_key(ps) -> dict:
    """Every sample's unit offset, keyed by (m, n, tag)."""
    cols = {key: col.tolist() for key, col in ps.to_json()["points"].items()}
    keys = zip(cols["m"], cols["n"], cols["tag"])
    return {key: complex(*u) for key, u in zip(keys, zip(cols["unit_re"], cols["unit_im"]))}


def folded_index(lat: Lattice, fold, m: int, n: int) -> tuple[int, int]:
    (fm, fn), = lat.indices_of(fold(lat.point((m, n)))).tolist()
    return fm, fn


MIRROR_LATTICES = pytest.mark.parametrize("lat", [UNIT, HEXAGONAL], ids=["square", "hexagonal"])


@MIRROR_LATTICES
@pytest.mark.parametrize("seed", [1, 7])
def test_every_real_pair_triple_is_folded_from_the_raw_draws(lat, seed):
    ps = real_pair(cfg(seed=seed, lat=lat))
    unit = units_by_key(ps)
    idx, pts = window_arrays(lat, 4.5)
    uppers = {(m, n) for (m, n), p in zip(idx.tolist(), pts) if p.imag >= -1e-12}
    assert {(m, n) for m, n, tag in unit if tag in "ABC"} == uppers
    for m, n in uppers:
        assert unit[m, n, "A"] == unit[m, n, "1"]
        assert unit[m, n, "B"] == unit[m, n, "2"]
        assert unit[m, n, "C"] == np.conj(unit[(*folded_index(lat, np.conj, m, n), "1")])


@MIRROR_LATTICES
@pytest.mark.parametrize("seed", [1, 7])
def test_every_even_single_triple_is_folded_from_the_raw_draws(lat, seed):
    ps = even_single(cfg(seed=seed, lat=lat))
    unit = units_by_key(ps)
    idx, pts = window_arrays(lat, 4.5)
    quadrant = {
        (m, n) for (m, n), p in zip(idx.tolist(), pts)
        if (m, n) != (0, 0) and p.real >= -1e-12 and p.imag >= -1e-12
    }
    assert {(m, n) for m, n, tag in unit if tag in "ABC"} == quadrant
    for m, n in quadrant:
        assert unit[m, n, "A"] == unit[m, n, "1"]
        assert unit[m, n, "B"] == np.conj(unit[(*folded_index(lat, np.conj, m, n), "1")])
        assert unit[m, n, "C"] == -unit[(*folded_index(lat, np.negative, m, n), "1")]


def test_mirror_constructions_need_conjugation_closure():
    oblique = Lattice(1.0, 0.3 + 1.0j)
    with pytest.raises(ValueError):
        real_pair(cfg(lat=oblique))
    with pytest.raises(ValueError):
        even_single(cfg(lat=oblique))


# -- density-optimal variants ------------------------------------------------------


def test_opt_real_lattices_geometry():
    v = 0.3
    full, sub = opt_real_lattices(v)
    assert math.isclose(full.area, v * v, rel_tol=1e-12)
    assert math.isclose(sub.area, 2 * v * v, rel_tol=1e-12)
    assert sub.shift == full.shift
    for p in window_arrays(sub, 3.0)[1]:
        assert full.contains(p)  # the sublattice is contained in the frame
    with pytest.raises(ValueError):
        opt_real_lattices(0.6)


def test_opt_even_mask_partitions_the_frame():
    m, n = np.meshgrid(np.arange(-8, 8), np.arange(-8, 8), indexing="ij")
    own = opt_even_sublattice_mask(m, n)
    conj = opt_even_sublattice_mask(m, -n - 1)
    neg = opt_even_sublattice_mask(-m - 1, -n - 1)
    negconj = opt_even_sublattice_mask(-m - 1, n)
    total = own.astype(int) + conj.astype(int) + neg.astype(int) + negconj.astype(int)
    assert np.all(total == 1)


def test_density_opt_real_density():
    v = 0.3
    ps = density_opt_real(v, window_radius=8.0, seed=0)
    pts = sample_points(ps)
    r = 6.0
    measured = np.count_nonzero(np.abs(pts) <= r) / (math.pi * r * r)
    assert abs(measured / (3.0 / (2.0 * v * v)) - 1.0) < 0.05
    assert ps.meta["construction"] == "optreal"
    assert ps.meta["v"] == v
    det = density_opt_real(v, window_radius=8.0, mode="det")
    assert angle_condition(det, beta=1.0).theta_min == pytest.approx(math.pi / 3.0)
    with pytest.raises(ValueError):
        density_opt_real(v, 8.0, mode="fancy")


def test_density_opt_even_density_and_separation():
    v = 0.45
    ps = density_opt_even(v, window_radius=8.0, seed=0)
    assert ps.meta["kappa_cap"] == v / 4.0
    pts = sample_points(ps)
    r = 6.0
    measured = np.count_nonzero(np.abs(pts) <= r) / (math.pi * r * r)
    assert abs(measured / (3.0 / (4.0 * v * v)) - 1.0) < 0.05
    # distinct homes and capped offsets force a separation floor of v/2
    assert separation(pts).delta >= v / 2.0 - 1e-12
    with pytest.raises(ValueError):
        density_opt_even(v, 8.0, kappa_cap=0.2)  # exceeds v/4


def test_density_opt_even_emits_the_orbit_of_the_masked_draws():
    v = 0.45
    ps = density_opt_even(v, window_radius=8.0, seed=3)
    lat = opt_even_lattice(v)
    idx, _ = window_arrays(lat, 8.0)
    keep = opt_even_sublattice_mask(idx[:, 0], idx[:, 1])
    m, n = idx[keep][:, 0], idx[keep][:, 1]
    ua = keyed_disk(3, m, n, 1)
    for (mm, nn), u in list(zip(idx[keep], ua))[:20]:
        entry = ps.get((int(mm), int(-nn - 1)), "A")
        assert entry.unit == np.conj(u)


def test_opteven_triples_fold_back_to_the_generator_draws():
    v = 0.45
    ps = density_opt_even(v, window_radius=8.0, seed=3)
    indices, verts = triple_vertices(ps)
    m, n = indices[:, 0], indices[:, 1]
    assert opt_even_sublattice_mask(m, n).all()
    idx, _ = window_arrays(opt_even_lattice(v), 8.0)
    assert len(indices) == np.count_nonzero(opt_even_sublattice_mask(idx[:, 0], idx[:, 1]))
    for t, label in enumerate((1, 2, 3)):
        assert np.array_equal(verts[:, t], keyed_disk(3, m, n, label))
    # a fold the set cannot name is refused when a set is made, and a made
    # set's folds cannot be changed
    with pytest.raises(ValueError, match="triple_fold"):
        IndexedPointSet(ps.lattice, ps.window_radius, {**ps.meta, "triple_fold": {"A": "rotate"}})
    with pytest.raises(TypeError):
        ps.meta["triple_fold"] = {"A": "rotate"}
    with pytest.raises(TypeError):
        ps.meta["triple_fold"]["A"] = "rotate"


def test_opteven_det_triples_regroup_after_a_round_trip():
    v = 0.45
    ps = density_opt_even(v, window_radius=8.0, mode="det")
    back = IndexedPointSet.from_json(json.loads(jsonio.dumps(ps.to_json())))
    idx, _ = window_arrays(opt_even_lattice(v), 8.0)
    m, n = idx[opt_even_sublattice_mask(idx[:, 0], idx[:, 1])].T
    # each tag is emitted at the conjugate, negative and negated conjugate
    # of the subfamily point, in frame indices
    emitted = {"A": (m, -n - 1), "B": (-m - 1, -n - 1), "C": (-m - 1, n)}
    unit = units_by_key(back)
    for tag, (em, en) in emitted.items():
        assert {key[:2] for key in unit if key[2] == tag} == set(zip(em.tolist(), en.tolist()))
    indices, verts = triple_vertices(back)
    assert sorted(map(tuple, indices.tolist())) == sorted(zip(m.tolist(), n.tolist()))
    assert np.array_equal(verts, np.broadcast_to(sampler._CUBE_ROOTS, verts.shape))


# -- line families ------------------------------------------------------------------


def test_three_lines_geometry():
    pts = three_lines((0.0, math.pi / 3.0, 2.0 * math.pi / 3.0), radius=2.0, pitch=0.25)
    assert len(pts) == 6 * 8 + 1
    assert 0j in set(pts)
    assert np.all(np.diff(np.abs(pts)) >= -1e-12)
    assert np.array_equal(modulus_order(pts), np.arange(pts.size))
    assert len(np.unique(pts)) == len(pts)
    with pytest.raises(ValueError):
        three_lines((0.0, 0.3, 0.3 + math.pi), radius=1.0)  # coincident mod pi
    with pytest.raises(ValueError):
        three_lines((0.0, 0.3, math.pi / 2.0 + 0.3), radius=1.0)  # right angle sector
    with pytest.raises(ValueError):
        three_lines((0.0, math.pi / 3.0, 2 * math.pi / 3.0), radius=-1.0)


def test_reflection_closure_modes():
    pts = np.array([1 + 1j, 1 - 1j, 2 + 0.5j])
    half = reflection_closure(pts, "half")
    assert set(half) == {1 + 1j, 1 - 1j, 2 + 0.5j, 2 - 0.5j}
    quarter = reflection_closure(pts, "quarter")
    assert set(quarter) == set(half) | {-p for p in half}
    with pytest.raises(ValueError):
        reflection_closure(pts, "diagonal")


def test_reflection_closure_of_a_set_collapses_by_identity():
    # at alpha = pi the lattice is Z + iZ, and far samples sit on their lattice
    # point in float64, so the positions of distinct samples coincide
    setup = GeneratorConfig(Lattice(1.0, 1.0j), 12.0, seed=1)
    rand3 = random_triple(setup)
    assert len(rand3) == 1323 and len(np.unique(sample_points(rand3))) < 1323
    half, quarter = (reflection_closure(rand3, mode) for mode in ("half", "quarter"))
    assert (len(half), len(quarter)) == (2646, 5292)
    assert np.array_equal(half[:1323], sample_points(rand3))
    assert np.array_equal(half[1323:], np.conj(sample_points(rand3)))
    # det3's A offset is 1, so each A image is the A sample at the mirrored
    # home; conj(w) and w^2 differ in the last bit, so the B and C images stay
    det3 = deterministic_triple(setup)
    assert len(reflection_closure(det3, "half")) == 2646 - 441
    assert len(reflection_closure(det3, "quarter")) == 5292 - 2 * 441


# -- Monte Carlo experiments ---------------------------------------------------------


def test_mc_reports_are_deterministic_and_consistent():
    a = mc_angle_bound(20000, 0.05, seed=1)
    b = mc_angle_bound(20000, 0.05, seed=1)
    assert a == b
    assert a.variant == "independent"
    assert a.bound == 0.2
    assert a.hits == round(a.p_hat * a.trials)
    assert math.isclose(
        a.stderr, math.sqrt(a.p_hat * (1 - a.p_hat) / a.trials), rel_tol=1e-12
    )
    assert mc_angle_bound(20000, 0.05, seed=2) != a

    m = mc_mirror_angle_bound(20000, 0.05, seed=1)
    assert m.variant == "mirror"
    assert m.passed

    with pytest.raises(ValueError):
        mc_angle_bound(0, 0.05)
    with pytest.raises(ValueError):
        mc_angle_bound(100, -0.1)


@pytest.mark.parametrize("run", [mc_angle_bound, mc_mirror_angle_bound])
def test_mc_report_does_not_depend_on_the_batch_size(run, monkeypatch):
    reports = []
    for batch in (1000, 1 << 14, 1 << 18):
        monkeypatch.setattr(sampler, "_MC_BATCH", batch)
        reports.append(run(50_001, 0.05, seed=3))
    assert reports[0] == reports[1] == reports[2]


def _whole_batch_hits(u: np.ndarray, epsilon: float) -> np.ndarray:
    """The hit mask of every row of ``u``: the loop before the prefilter."""
    a = np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    b = np.sqrt(u[:, 2]) * np.exp(2j * np.pi * u[:, 3])
    if u.shape[1] == 6:
        c = np.sqrt(u[:, 4]) * np.exp(2j * np.pi * u[:, 5])
    else:
        c = np.conj(a)
    return median_angles(a, b, c) < epsilon


def _draws_of(points: np.ndarray) -> np.ndarray:
    """(r^2, turns) columns of each row of complex points in the unit disk."""
    turns = np.mod(np.angle(points) / (2.0 * np.pi), 1.0)
    turns[turns >= 1.0] = 0.0  # a turn of -0.0 or -1e-300 rounds up to 1
    return np.stack([np.abs(points) ** 2, turns], axis=-1).reshape(len(points), -1)


def _boundary_rows(
    rng: np.random.Generator, epsilon: float, columns: int, exponents=(-12, -3)
) -> np.ndarray:
    """Rows whose median angle is ``epsilon * (1 +- t)``, ``10**exponents[0] <= t <= 10**exponents[1]``.

    Each is an isosceles triangle, whose two equal angles are its median.
    Independent: on a random base.  Mirror: the base is a and conj(a), so
    the apex b lies on the real axis.  Bases from 1e-2 to 1e-1 long: the
    shorter an arm, the more float32 turns it.
    """
    count = 400
    t = 10.0 ** rng.uniform(*exponents, count)
    theta = epsilon * (1.0 + rng.choice([-1.0, 1.0], count) * t)
    base = 10.0 ** rng.uniform(-2, -1, count)
    if columns == 6:
        a = 0.3 * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
        side = base * np.exp(2j * np.pi * rng.random(count))
        b = a + side
        c = a + 0.5 * side * (1.0 + 1j * np.tan(theta))
        return _draws_of(np.stack([a, b, c], axis=1))
    a = rng.uniform(-0.3, 0.3, count) + 0.5j * base
    b = a.real + rng.choice([-1.0, 1.0], count) * a.imag * np.tan(theta) + 0j
    return _draws_of(np.stack([a, b], axis=1))


_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_TURN = _UNIT | st.sampled_from([0.0, 0.25, 0.5, 0.75])


@st.composite
def _degenerate_rows(draw, columns: int) -> np.ndarray:
    """Rows with a radius 0, one turn for every point (collinear with the
    origin), every point on the real axis (turns 0 and 1/2) or free turns."""
    points = columns // 2
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        radii = draw(st.lists(_UNIT | st.sampled_from([0.0, 1e-12, 0.5]),
                              min_size=points, max_size=points))
        turns = draw(st.one_of(
            _TURN.map(lambda t: [t] * points),
            st.lists(st.sampled_from([0.0, 0.5]), min_size=points, max_size=points),
            st.lists(_TURN, min_size=points, max_size=points),
        ))
        rows.append([v for pair in zip(radii, turns) for v in pair])
    return np.array(rows, dtype=float)


@settings(max_examples=60, deadline=None)
@given(
    epsilon=st.sampled_from([1e-6, 0.01, 0.05, 0.5, 1.39, 1.5, 3.2]),
    columns=st.sampled_from([6, 4]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_the_prefilter_keeps_every_hit(epsilon, columns, seed, data):
    rng = np.random.default_rng(seed)
    u = np.concatenate([
        rng.random((2000, columns)),
        data.draw(_degenerate_rows(columns)),
        _boundary_rows(rng, min(epsilon, 1.39), columns),
    ])
    assert ((0.0 <= u) & (u < 1.0)).all()
    hits = _whole_batch_hits(u, epsilon)
    kept = sampler._maybe_hits(u, epsilon)
    assert not (hits & ~kept).any()
    filtered = median_angles(*sampler._mc_vertices(u[kept])) < epsilon
    assert np.count_nonzero(filtered) == np.count_nonzero(hits)


@pytest.mark.parametrize("columns", [6, 4])
@pytest.mark.parametrize("epsilon", [1e-6, 0.01, 0.05, 0.5, 1.39, 1.4, 3.2])
def test_mc_hits_equal_the_exact_whole_batch_count(epsilon, columns):
    for seed in range(3):
        rng = np.random.default_rng([seed, columns])
        degenerate = rng.random((40, columns))
        degenerate[:20, 0] = 0.0  # a = 0, which is also c = conj(a) in the mirror variant
        degenerate[20:, 2:4] = degenerate[20:, 0:2]  # b = a
        u = np.concatenate([
            rng.random((3000, columns)),
            degenerate,
            _boundary_rows(rng, min(epsilon, 1.39), columns),
            # float64 median angles within 1e-13 of epsilon, where numpy's
            # arctan2 and math.atan2 may part in the last bit
            _boundary_rows(rng, min(epsilon, 1.39), columns, exponents=(-16, -13.5)),
        ])
        expected = np.count_nonzero(_whole_batch_hits(u, epsilon))
        assert sampler._mc_hits(u, epsilon) == expected


@pytest.mark.parametrize("columns", [6, 4])
def test_mc_hits_at_an_epsilon_equal_to_a_median_angle(columns):
    # rows sitting exactly on epsilon, or one ulp either side of it, are
    # decided on the exact median angle
    u = np.random.default_rng(columns).random((4000, columns))
    exact = median_angles(*sampler._mc_vertices(u))
    for angle in np.sort(exact[(exact > 0.01) & (exact < 1.3)])[::97].tolist():
        for epsilon in (math.nextafter(angle, 0.0), angle, math.nextafter(angle, 4.0)):
            assert sampler._mc_hits(u, epsilon) == np.count_nonzero(exact < epsilon)


@pytest.mark.parametrize("run, columns", [(mc_angle_bound, 6), (mc_mirror_angle_bound, 4)])
@pytest.mark.parametrize("epsilon", [0.3, 1.0, 1.5])
def test_a_one_trial_run_counts_its_one_draw(run, columns, epsilon):
    for seed in range(12):
        u = np.random.Generator(np.random.Philox(key=seed)).random((1, columns))
        assert run(1, epsilon, seed=seed).hits == np.count_nonzero(_whole_batch_hits(u, epsilon))


# hit counts at the bench size, read off the whole-batch loop
@pytest.mark.parametrize("seed, angles, mirror", [(1, 47911, 38612), (5, 47537, 39149)])
def test_mc_hit_counts_at_the_bench_size(seed, angles, mirror):
    assert mc_angle_bound(2_000_000, 0.05, seed=seed).hits == angles
    assert mc_mirror_angle_bound(2_000_000, 0.05, seed=seed).hits == mirror


def test_mc_bound_is_vacuous_for_large_epsilon():
    rep = mc_angle_bound(1000, 0.3, seed=0)
    assert rep.bound == pytest.approx(1.2)
    assert rep.passed  # probability cannot exceed 1 <= bound
