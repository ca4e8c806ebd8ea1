"""Triangle angles, geometric certificates, and the indexed container."""

import cmath
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

# scipy.spatial.cKDTree is the independent oracle for pointset.separation
# and pointset.relative_separation_bound (the package computes both with
# numpy alone).
import scipy.spatial

from fockpr import jsonio, pointset
from fockpr.lattice import Lattice, window_arrays
from fockpr.pointset import (
    IndexedPointSet,
    PointEntry,
    angle_condition,
    certify_f_closeness,
    density_estimate,
    median_angle,
    median_angles,
    relative_separation_bound,
    sample_points,
    separation,
    uniform_closeness_delta,
)


coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
cpx = st.tuples(coord, coord).map(lambda t: complex(*t))


# -- median angle --------------------------------------------------------------


def test_median_angle_closed_forms():
    w = cmath.exp(1j * math.pi / 3.0)
    assert math.isclose(median_angle(0, 1, w), math.pi / 3.0, abs_tol=1e-12)
    assert math.isclose(median_angle(0, 1, 1j), math.pi / 4.0, abs_tol=1e-12)
    assert median_angle(0, 1, 2) == 0.0  # collinear
    assert median_angle(0.3, 0.3, 1j) == 0.0  # coincident vertices


def _nondegenerate(a, b, c):
    area = abs((b - a).real * (c - a).imag - (b - a).imag * (c - a).real)
    side = min(abs(b - a), abs(c - a), abs(c - b))
    return side > 1e-3 and area > 1e-3


@given(cpx, cpx, cpx, st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-math.pi, max_value=math.pi), cpx)
def test_median_angle_is_a_similarity_invariant(a, b, c, scale, phi, shift):
    assume(_nondegenerate(a, b, c))
    s = scale * cmath.exp(1j * phi)
    direct = median_angle(a, b, c)
    moved = median_angle(s * a + shift, s * b + shift, s * c + shift)
    assert math.isclose(direct, moved, rel_tol=1e-7, abs_tol=1e-9)


@given(cpx, cpx, cpx)
def test_median_angle_is_permutation_invariant_and_bounded(a, b, c):
    vals = {
        median_angle(a, b, c),
        median_angle(b, c, a),
        median_angle(c, a, b),
        median_angle(b, a, c),
    }
    assert max(vals) - min(vals) <= 1e-12
    assert -1e-12 <= median_angle(a, b, c) <= math.pi / 2.0 + 1e-9


def test_median_angles_is_elementwise():
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    c = np.array([cmath.exp(1j * math.pi / 3.0), 2.0])
    out = median_angles(a, b, c)
    assert np.allclose(out, [math.pi / 3.0, 0.0], atol=1e-12)


# -- container ----------------------------------------------------------------


def make_set(**meta) -> IndexedPointSet:
    return IndexedPointSet(Lattice(1.0, 1.0j), window_radius=30.0, meta=meta)


def test_add_get_and_derived_offsets():
    ps = make_set()
    ps.add((2, 1), "A", delta=0.01 + 0.02j)
    e = ps.get((2, 1), "A")
    assert e.pos == (2 + 1j) + (0.01 + 0.02j)
    assert ps.offset((2, 1), "A") == 0.01 + 0.02j
    ps.add((0, 0), "A", pos=0.05j)
    assert ps.offset((0, 0), "A") == 0.05j  # positional fallback
    assert ps.tags() == ["A"]
    assert ps.indices() == [(0, 0), (2, 1)]
    assert len(ps) == 2
    assert ((2, 1), "A") in ps


def test_add_rejects_bad_entries():
    ps = make_set()
    ps.add((1, 0), "A", pos=1.0)
    with pytest.raises(ValueError):
        ps.add((1, 0), "A", pos=1.0)  # duplicate key
    with pytest.raises(ValueError):
        ps.add((40, 0), "A", pos=40.0)  # outside window
    with pytest.raises(ValueError):
        ps.add((2, 0), "A")  # neither pos nor delta
    with pytest.raises(ValueError):
        IndexedPointSet(Lattice(1.0, 1.0j), window_radius=0.0)


def test_add_many_matches_single_adds_and_rejects_whole_batches():
    ps, one_by_one = make_set(), make_set()
    idx = [(0, 0), (1, 0), (0, 1)]
    deltas = [0.01, 0.02j, -0.0]
    ps.add_many(idx, "A", delta=deltas, unit=0.5)
    for index, d in zip(idx, deltas):
        one_by_one.add(index, "A", delta=d, unit=0.5)
    assert ps.items() == one_by_one.items()
    rejected = [
        ([(2, 0), (3, 0), (2, 0)], "A", {"pos": [2.0, 3.0, 2.0]}),  # duplicate within the batch
        ([(2, 0), (1, 0)], "A", {"pos": [2.0, 1.0]}),  # duplicate of an existing row
        ([(2, 0), (40, 0)], "B", {"pos": [2.0, 40.0]}),  # home outside the window
        ([(2, 0), (3, 0)], "B", {"unit": [0.1, 0.2]}),  # neither pos nor delta
    ]
    for indices, tag, values in rejected:
        with pytest.raises(ValueError):
            ps.add_many(indices, tag, **values)
        assert len(ps) == 3  # nothing of a rejected batch is inserted
    with pytest.raises(ValueError, match=r"duplicate entry for index \(2, 0\) tag 'A'"):
        ps.add_many([(2, 0), (3, 0), (2, 0)], "A", pos=[2.0, 3.0, 2.0])


def test_single_adds_and_batches_share_one_row_order():
    ps = make_set()
    ps.add((1, 0), "A", pos=1.0)
    ps.add_many([(2, 0), (3, 0)], "A", pos=[2.0, 3.0])
    ps.add((0, 0), "B", delta=0.5j)
    assert ps.get((0, 0), "B").pos == 0.5j
    keys = [key for key, _ in ps.items()]
    assert keys == [((1, 0), "A"), ((2, 0), "A"), ((3, 0), "A"), ((0, 0), "B")]
    with pytest.raises(ValueError, match="duplicate"):
        ps.add_many([(4, 0), (0, 0)], "B", pos=[4.0, 0.0])  # repeats a row not yet appended
    assert len(ps) == 4
    assert ps.get((3, 0), "A").pos == 3.0
    assert ((4, 0), "B") not in ps


def test_rows_added_across_packed_blocks(monkeypatch):
    monkeypatch.setattr(pointset, "_ADD_BLOCK", 3)
    monkeypatch.setattr(jsonio, "_ROW_BLOCK", 3)
    ps, entries = make_set(gamma=7.0, kappa_cap=0.3), {}
    for k in range(4):
        unit = 0.25 * k if k % 2 else None
        ps.add((k, 0), "A", pos=k + 0.5j, unit=unit)
        entries[((k, 0), "A")] = PointEntry(k + 0.5j, None, unit)
    ps.add_many([(0, 0), (1, 0)], "B", delta=[0.1j, -0.0])
    entries[((0, 0), "B")] = PointEntry(0.1j, 0.1j, None)
    entries[((1, 0), "B")] = PointEntry(1.0, -0.0, None)
    for k in range(7):  # 2 * 3 + 1 rows: two packed blocks and one buffered row
        delta, unit = complex(-0.0, 0.1 * k), 0.1j if k % 3 else None
        ps.add((k, 1), "C", delta=delta, unit=unit)
        entries[((k, 1), "C")] = PointEntry(complex(k, 1) + delta, delta, unit)
    assert len(ps._blocks) == 2 and len(ps._buffer) == 1
    with pytest.raises(ValueError, match="duplicate"):
        ps.add((0, 1), "C", pos=1.0j)  # the first row of the first packed block
    with pytest.raises(ValueError, match="duplicate"):
        ps.add((1, 0), "B", pos=1.0)  # a row of the add_many batch
    assert len(ps) == len(entries) == 13
    assert all(key in ps for key in entries) and ((7, 1), "C") not in ps
    assert all(ps.get(*key) == entry for key, entry in entries.items())
    assert [(tuple(index), tag) for (index, tag), _ in ps.items()] == list(entries)
    doc = ps.to_json()
    text = jsonio.dumps(doc)
    assert text == jsonio.dumps({**doc, "points": _entry_dicts(ps)})
    back = IndexedPointSet.from_json(jsonio.loads(text))
    assert dict(back.items()) == dict(ps.items())
    assert jsonio.dumps(back.to_json()) == text


def test_points_are_canonically_ordered():
    ps = make_set()
    ps.add((1, 0), "B", pos=1.0)
    ps.add((0, 1), "A", pos=1.0j)
    ps.add((1, 0), "A", pos=1.0 + 0.1j)
    assert np.array_equal(ps.points(), np.array([1.0j, 1.0 + 0.1j, 1.0]))
    assert np.array_equal(ps.points(["B"]), np.array([1.0]))


def test_log_offset_magnitude_survives_float_collapse():
    gamma, cap = 7.0, 0.5
    ps = make_set(gamma=gamma, kappa_cap=cap)
    # at |home| = 25 the true offset ~ exp(-4375) is far below the float range
    ps.add((25, 0), "A", pos=25.0, unit=0.3 + 0.4j)
    got = ps.log_offset_magnitude((25, 0), "A")
    assert math.isclose(got, math.log(cap) + math.log(0.5) - gamma * 625.0, rel_tol=1e-15)
    assert ps.offset((25, 0), "A") == 0.0  # the float view has collapsed

    ps.add((3, 0), "A", pos=3.001)
    assert math.isclose(ps.log_offset_magnitude((3, 0), "A"), math.log(0.001), rel_tol=1e-9)
    ps.add((4, 0), "A", pos=4.0, unit=0.0)
    assert ps.log_offset_magnitude((4, 0), "A") == -math.inf


# -- closeness ----------------------------------------------------------------


def test_closeness_constant_is_exact_in_the_log_domain():
    gamma, cap = 2.0, 0.6
    ps = make_set(gamma=gamma, kappa_cap=cap)
    idx, pts = window_arrays(ps.lattice, 12.0)
    for (m, n), p in zip(idx, pts):
        # every offset saturates exactly 0.5 of the budget
        ps.add((m, n), "A", pos=p, unit=0.5 * cmath.exp(1j * abs(p)))
    rep = certify_f_closeness(ps, gamma, "A", kappa_cap=cap)
    assert math.isclose(rep.kappa, 0.5 * cap, rel_tol=1e-12)
    assert rep.passed
    assert rep.count == len(pts)
    tight = certify_f_closeness(ps, gamma, "A", kappa_cap=0.29)
    assert not tight.passed
    assert math.isclose(tight.kappa, 0.5 * cap, rel_tol=1e-12)


def test_closeness_from_plain_positions():
    gamma = 1.5
    ps = make_set()
    for m in range(6):
        home = complex(m, 0)
        ps.add((m, 0), "A", pos=home + 0.25 * math.exp(-gamma * abs(home) ** 2))
    rep = certify_f_closeness(ps, gamma, "A")
    assert math.isclose(rep.kappa, 0.25, rel_tol=1e-9)
    assert rep.worst_index is not None


def test_closeness_input_validation():
    ps = make_set()
    ps.add((0, 0), "A", pos=0.0)
    with pytest.raises(ValueError):
        certify_f_closeness(ps, -1.0, "A")
    with pytest.raises(ValueError):
        certify_f_closeness(ps, 1.0, "B")


# -- median-angle condition -----------------------------------------------------


def triple_set(radius=5.0, degenerate_at=None, skip_tag_at=None) -> IndexedPointSet:
    ps = IndexedPointSet(Lattice(1.0, 1.0j), window_radius=radius,
                         meta={"gamma": 7.0, "kappa_cap": 0.4})
    idx, pts = window_arrays(ps.lattice, radius)
    rot = cmath.exp(2j * math.pi / 3.0)
    for (m, n), p in zip(idx, pts):
        u = 0.8 * cmath.exp(1j * (m - n))
        for k, tag in enumerate("ABC"):
            if degenerate_at == (m, n):
                unit = u
            else:
                unit = u * rot**k
            if skip_tag_at == (m, n) and tag == "C":
                continue
            ps.add((m, n), tag, pos=p, unit=unit)
    return ps


def test_angle_condition_on_equilateral_triples():
    ps = triple_set()
    rep = angle_condition(ps, beta=1.0)
    assert math.isclose(rep.theta_min, math.pi / 3.0, rel_tol=1e-12)
    assert rep.passed
    # the worst ratio comes from the weight profile r exp(-r^2) alone
    _, pts = window_arrays(ps.lattice, ps.window_radius)
    r = np.abs(pts[np.abs(pts) > 0])
    expect = float(np.max(r * np.exp(-r * r))) / (math.pi / 3.0)
    assert math.isclose(rep.sup_ratio, expect, rel_tol=1e-12)
    assert rep.count == len(set(map(tuple, window_arrays(ps.lattice, 5.0)[0])))


def test_angle_condition_flags_degenerate_triangles():
    ps = triple_set(degenerate_at=(2, 1))
    rep = angle_condition(ps, beta=1.0)
    assert not rep.passed
    assert rep.sup_ratio == math.inf
    assert rep.worst_index == (2, 1)
    assert rep.theta_min == 0.0


def test_angle_condition_tolerates_a_degenerate_origin():
    ps = triple_set(degenerate_at=(0, 0))
    rep = angle_condition(ps, beta=1.0)
    assert rep.passed  # home == 0 contributes ratio 0 by convention


def test_angle_condition_preconditions():
    with pytest.raises(ValueError):
        angle_condition(triple_set(), beta=-1.0)
    with pytest.raises(ValueError):
        angle_condition(triple_set(radius=5.0), beta=0.25)  # needs radius >= 8
    with pytest.raises(ValueError):
        angle_condition(triple_set(skip_tag_at=(1, 1)), beta=1.0)
    ps = make_set()
    ps.add((0, 0), "1", pos=0.0)
    with pytest.raises(ValueError):
        angle_condition(ps, beta=1.0)


# -- separation ----------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=2, max_size=14))
def test_separation_matches_brute_force(raw):
    pts = np.array([complex(a, b) * 0.7 + 0.31j * a for a, b in raw])
    rep = separation(pts)
    brute = min(
        abs(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    )
    assert math.isclose(rep.delta, brute, rel_tol=0, abs_tol=1e-12)
    assert rep.count == len(pts)
    assert math.isclose(abs(rep.pair[0] - rep.pair[1]), rep.delta, abs_tol=1e-12)


def _ckdtree_separation(pts):
    """delta, first point and its partner as a k-d tree nearest-neighbour query finds them."""
    xy = np.stack([pts.real, pts.imag], axis=1)
    dists, nbrs = scipy.spatial.cKDTree(xy).query(xy, k=2)
    i = int(np.argmin(dists[:, 1]))
    return float(dists[i, 1]), i, complex(pts[nbrs[i, 1]])


# half-steps give exact ties along and across lines; free floats break them
_tie_coord = st.one_of(
    st.integers(-6, 6).map(lambda k: 0.5 * k),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@given(
    st.lists(st.tuples(_tie_coord, _tie_coord), min_size=2, max_size=50),
    st.sampled_from(["scattered", "vertical", "horizontal"]),
    st.integers(0, 4),
)
@example([(0.0, 0.0), (0.0, 6.444966693583573e-183)], "scattered", 0)  # dy * dy underflows
def test_separation_matches_ckdtree(raw, layout, repeats):
    xy = np.array(raw, dtype=float)
    if layout == "vertical":
        xy[:, 0] = xy[0, 0]
    elif layout == "horizontal":
        xy[:, 1] = xy[0, 1]
    xy = np.concatenate([xy, xy[:repeats]])  # duplicates of the first points
    pts = xy[:, 0] + 1j * xy[:, 1]
    rep = separation(pts)
    delta, i, partner = _ckdtree_separation(pts)
    assert rep.delta.hex() == delta.hex()
    assert rep.count == len(pts)
    assert rep.pair[0] == pts[i]
    # the tree picks among equidistant partners by its traversal (at delta 0
    # possibly the point itself), the sweep the lowest other row: both lie at
    # delta, and where one value does they agree
    d = np.sqrt((xy[:, 0] - xy[i, 0]) ** 2 + (xy[:, 1] - xy[i, 1]) ** 2)
    ties = {complex(p) for k, p in enumerate(pts) if d[k] == delta and (k != i or delta == 0)}
    assert {rep.pair[1], partner} <= ties


def test_separation_pair_is_the_first_row_and_its_lowest_partner():
    rep = separation(np.array([5.0, 1j, 0.0, 1.0, 5.0 + 1j]))
    assert rep.delta == 1.0
    assert rep.pair == (5.0, 5.0 + 1j)
    # 0 has two partners at delta: the lower row wins, whichever it is
    assert separation(np.array([0.0, 1j, 1.0])).pair == (0.0, 1j)
    assert separation(np.array([0.0, 1.0, 1j])).pair == (0.0, 1.0)


def test_separation_rejects_non_finite_positions():
    with pytest.raises(ValueError, match="finite"):
        separation(np.array([0.0, 1.0, complex(math.nan, 0.0)]))


def test_separation_of_coincident_points_is_zero():
    assert separation(np.array([1 + 1j, 1 + 1j, 2.0])).delta == 0.0
    with pytest.raises(ValueError):
        separation(np.array([1.0]))


# -- density -------------------------------------------------------------------


def test_density_counts_on_the_integer_grid():
    _, pts = window_arrays(Lattice(1.0, 1.0j), 6.0)
    rep = density_estimate(pts, center=0j, radii=(2.0, 1.0))
    assert rep.counts == (13, 5)
    assert math.isclose(rep.estimates[0], 13.0 / (4.0 * math.pi), rel_tol=1e-15)
    # the fitted value belongs to the largest radius regardless of order
    assert rep.fitted_density == rep.estimates[0]
    off = density_estimate(pts, center=1.0 + 0j, radii=(1.0,))
    assert off.counts == (5,)


def test_density_respects_the_window():
    ps = make_set()
    ps.add((0, 0), "A", pos=0.0)
    with pytest.raises(ValueError):
        density_estimate(ps, center=25.0, radii=(10.0,))
    with pytest.raises(ValueError):
        density_estimate(np.array([0j]), radii=())
    with pytest.raises(ValueError):
        density_estimate(np.array([0j]), radii=(-1.0,))


def test_unit_disk_occupancy_bound_on_the_integer_grid():
    _, pts = window_arrays(Lattice(1.0, 1.0j), 6.0)
    bound = relative_separation_bound(pts)
    assert 5 <= bound <= 9  # exact supremum is 5; covering slack allows up to 9
    assert bound == _occupancy_bound_by_kdtree(pts)
    assert relative_separation_bound(np.empty(0, dtype=complex)) == 0


def _occupancy_bound_by_kdtree(pts: np.ndarray) -> int:
    """The radius-1.25 disk counts on the pitch-0.25 grid, by k-d tree ball queries."""
    xy = np.stack([pts.real, pts.imag], axis=1)
    pitch = 0.25
    xs = np.arange(xy[:, 0].min() - 1.0, xy[:, 0].max() + 1.0 + pitch, pitch)
    ys = np.arange(xy[:, 1].min() - 1.0, xy[:, 1].max() + 1.0 + pitch, pitch)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    tree = scipy.spatial.cKDTree(xy)
    return int(np.max(tree.query_ball_point(centers, r=1.25, return_length=True)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=1, max_size=80),
    st.sampled_from(["scattered", "quarter grid", "integer grid"]),
)
def test_unit_disk_occupancy_bound_matches_ckdtree(raw, layout):
    pts = np.array([complex(x, y) for x, y in raw])
    if layout == "quarter grid":  # distances hit the disk radius exactly
        pts = np.round(pts * 4.0) / 4.0
    elif layout == "integer grid":
        pts = np.round(pts) * (1.0 + 0.0j)
    assert relative_separation_bound(pts) == _occupancy_bound_by_kdtree(pts)


@pytest.mark.parametrize(
    "lattice", [Lattice(1.0, 1.0j), Lattice(0.5, 0.5j), Lattice(1.0, 0.5 + 1.0j)]
)
def test_unit_disk_occupancy_bound_on_lattice_windows(lattice):
    for radius in (1.0, 4.0, 9.0):
        _, pts = window_arrays(lattice, radius)
        assert relative_separation_bound(pts) == _occupancy_bound_by_kdtree(pts)


# -- aggregation helpers ---------------------------------------------------------


def test_sample_points_follows_the_metadata():
    ps = IndexedPointSet(Lattice(1.0, 1.0j), 5.0, meta={"sample_tags": ["1", "2"]})
    ps.add((0, 0), "1", pos=0.1)
    ps.add((0, 0), "2", pos=0.2)
    ps.add((0, 0), "A", pos=0.9)
    assert np.array_equal(sample_points(ps), np.array([0.1, 0.2]))
    ps.meta.pop("sample_tags")
    assert len(sample_points(ps)) == 3


def test_uniform_closeness_delta():
    ps = make_set()
    ps.add((0, 0), "A", delta=0.01)
    ps.add((1, 0), "A", delta=0.03j)
    assert uniform_closeness_delta(ps) == 0.03
    d, shifted = uniform_closeness_delta(ps, beta=math.pi / 2.0)
    assert d == 0.03
    assert math.isclose(shifted, 0.03 + 1.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        uniform_closeness_delta(ps, beta=-1.0)


# -- serialization ----------------------------------------------------------------


def test_json_round_trip_preserves_everything():
    gamma, cap = 7.0, 0.3
    ps = make_set(gamma=gamma, kappa_cap=cap, construction="demo", sample_tags=["A"])
    ps.add((25, 0), "A", pos=25.0, unit=0.6 - 0.1j)
    ps.add((1, 2), "A", delta=1e-3 + 2e-3j, unit=0.2j)
    ps.add((0, 0), "B", pos=0.05)
    ps.add((0, 1), "C", pos=complex(-0.0, 1.0), delta=complex(-0.0, 0.0))  # signed zeros
    text = jsonio.dumps(ps.to_json())
    # in memory, and through the canonical text
    for doc in (ps.to_json(), jsonio.loads(text)):
        back = IndexedPointSet.from_json(doc)
        assert back.lattice == ps.lattice
        assert back.window_radius == ps.window_radius
        assert back.meta == ps.meta
        assert dict(back.items()) == dict(ps.items())
        # canonical text form is a fixed point
        assert jsonio.dumps(back.to_json()) == text
        # log-domain information survives the round trip
        assert back.log_offset_magnitude((25, 0), "A") == ps.log_offset_magnitude((25, 0), "A")


def test_from_json_rejects_fields_that_are_not_pairs():
    doc = jsonio.loads(jsonio.dumps(make_set().to_json()))
    good = {"index": [1, 0], "tag": "A", "pos": [1.0, 0.0], "delta": [0.0, 0.0]}
    for field, bad in (
        ("index", [2, 0, 0]),
        ("pos", [2.0, 0.0, 0.0]),
        ("delta", [0.1, 0.2, 0.3]),
        ("unit", [0.5]),
    ):
        with pytest.raises(ValueError, match="pairs"):
            IndexedPointSet.from_json({**doc, "points": [{**good, field: bad}]})
        with pytest.raises(ValueError):  # ragged against a well-formed record
            points = [good, {**good, "index": [2, 0], field: bad}]
            IndexedPointSet.from_json({**doc, "points": points})


def test_from_json_names_a_record_that_lacks_a_required_field(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonio, "_ROW_BLOCK", 3)
    ps = make_set()
    for k in range(7):
        ps.add((k, 0), "A", pos=k + 0.1j)
    doc = jsonio.loads(jsonio.dumps(ps.to_json()))
    for row in (0, 4):
        for field in ("index", "tag", "pos"):
            points = [dict(r) for r in doc["points"]]
            del points[row][field]
            path = tmp_path / "set.json"
            path.write_text(json.dumps({**doc, "points": points}), encoding="ascii")
            message = f"point record {row} lacks the field {field!r}"
            with pytest.raises(ValueError, match=message):
                IndexedPointSet.from_json({**doc, "points": points})  # parsed
            with pytest.raises(ValueError, match=message):
                IndexedPointSet.from_json(jsonio.load_path(path))  # streamed
            points[row][field] = None  # null stands for an absent field
            with pytest.raises(ValueError, match=message):
                IndexedPointSet.from_json({**doc, "points": points})


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("index", [0.7, 0], "field 'index' must hold integers"),
        ("index", [1e19, 0], "field 'index' must hold integers"),  # beyond int64
        ("index", [math.inf, 0], "field 'index' must hold integers"),
        ("pos", [math.nan, 0.1], "field 'pos' must hold finite numbers"),
        ("delta", [0.0, -math.inf], "field 'delta' must hold finite numbers"),
        ("unit", [math.inf, 0.5], "field 'unit' must hold finite numbers"),
    ],
)
def test_from_json_rejects_values_outside_the_fields_domain(field, bad, message):
    ps = make_set()
    for k in range(5):
        ps.add((k, 0), "A", pos=k + 0.1j, delta=0.1j, unit=0.5)
    doc = jsonio.loads(jsonio.dumps(ps.to_json()))
    doc["points"][3][field] = bad
    for load in (json.loads, _load_text):  # parsed, and streamed into a table
        with pytest.raises(ValueError, match=f"point record 3: {message}"):
            IndexedPointSet.from_json(load(json.dumps(doc)))
    doc["points"][3][field] = [3.0, -0.0] if field == "index" else [0.5, 0.0]
    assert ((3, 0), "A") in IndexedPointSet.from_json(doc)  # integral floats are indices


def _load_text(text: str):
    """``jsonio.load_path`` of a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        path.write_text(text, encoding="ascii")
        return jsonio.load_path(path)


def _column_bits(ps: IndexedPointSet) -> dict:
    """The columns of ``ps``, floats by bit pattern so that signed zeros count."""
    c = ps._columns()
    return {
        "m": c.m.tolist(),
        "n": c.n.tolist(),
        "tag": c.tag.tolist(),
        **{
            key: np.asarray(getattr(c, key)).view(np.int64).tolist()
            for key in ("pos", "delta", "unit")
        },
        "has_delta": c.has_delta.tolist(),
        "has_unit": c.has_unit.tolist(),
    }


signed_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 3.0, 1e17, 5e-324, -1e-300]),
)
pair_values = st.lists(signed_floats, min_size=2, max_size=2)
point_records = st.lists(
    st.fixed_dictionaries(
        {
            "index": st.lists(st.integers(-20, 20), min_size=2, max_size=2),
            "tag": st.sampled_from(["A", "B", "C", "1", "x%y"]),
            "pos": pair_values,
        },
        optional={"delta": pair_values, "unit": pair_values},
    ),
    max_size=14,
    unique_by=lambda r: (tuple(r["index"]), r["tag"]),
)


@settings(max_examples=60, deadline=None)
@given(point_records, st.randoms(use_true_random=False))
def test_streamed_points_load_like_parsed_points(records, rnd):
    # blocks of 3 records, so a set of up to 14 spans several of them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "_ROW_BLOCK", 3)
        doc = {
            "lattice": jsonio.loads(jsonio.dumps(Lattice(1.0, 1.0j))),
            "window_radius": 30.0,
            "points": records,
            "meta": {"gamma": 7.0},
        }
        # the same records through add, one at a time: the oracle for the columns
        ps = make_set(gamma=7.0)
        for r in records:
            delta, unit = (complex(*r[k]) if k in r else None for k in ("delta", "unit"))
            ps.add(tuple(r["index"]), r["tag"], pos=complex(*r["pos"]), delta=delta, unit=unit)
        want = _column_bits(ps)

        def shuffled(obj):
            if isinstance(obj, dict):
                keys = list(obj)
                rnd.shuffle(keys)
                return {k: shuffled(obj[k]) for k in keys}
            return [shuffled(v) for v in obj] if isinstance(obj, list) else obj

        texts = {
            "canonical": jsonio.dumps(doc),
            "compact": json.dumps(doc, separators=(",", ":")),
            "shuffled": json.dumps(shuffled(doc), indent=rnd.choice([None, 1, 3])),
        }
        for layout, text in texts.items():
            loaded = _load_text(text)
            assert jsonio.dumps(loaded) == texts["canonical"], layout  # the table is faithful
            streamed = IndexedPointSet.from_json(loaded)
            parsed = IndexedPointSet.from_json(json.loads(text))
            assert _column_bits(streamed) == _column_bits(parsed) == want, layout
            assert streamed.meta == {"gamma": 7.0} and streamed.window_radius == 30.0
            assert jsonio.dumps(streamed.to_json()) == jsonio.dumps(ps.to_json())


def test_streamed_points_reject_malformed_records(monkeypatch):
    monkeypatch.setattr(jsonio, "_ROW_BLOCK", 3)
    good = [{"index": [k, 0], "tag": "A", "pos": [float(k), 0.5]} for k in range(8)]
    doc = {"lattice": jsonio.loads(jsonio.dumps(Lattice(1.0, 1.0j))), "window_radius": 30.0}
    for row in (1, 6):  # in the first block and in a later one
        for field, bad, match in (
            ("pos", [1.0, 2.0, 3.0], "record|pairs"),  # not a pair, ragged against the rest
            ("index", [1], "record|pairs"),
            ("delta", [0.5], "pairs"),  # the only delta: a column, but not of pairs
            ("pos", 2.5, "record"),  # a number among pairs
            ("pos", [1.0, "a"], "record"),
            ("tag", True, "record"),
        ):
            points = [dict(r) for r in good]
            points[row][field] = bad
            text = json.dumps({**doc, "points": points})
            for load in (_load_text, json.loads):
                with pytest.raises(ValueError, match=match):
                    IndexedPointSet.from_json(load(text))
        for bad in (3, [1.0, 0.0], "A", None):  # a record that is not an object
            text = json.dumps({**doc, "points": good[:row] + [bad] + good[row:]})
            for load in (_load_text, json.loads):
                with pytest.raises(ValueError, match=f"record {row} is not an object"):
                    IndexedPointSet.from_json(load(text))
    text = jsonio.dumps({**doc, "points": good, "meta": {"gamma": 7.0}})
    for cut in range(len(text)):  # every proper prefix is truncated JSON
        with pytest.raises(ValueError):
            _load_text(text[:cut])


def test_a_loaded_set_builds_its_key_index_on_the_first_lookup(tmp_path):
    ps = make_set(gamma=7.0, kappa_cap=0.3, sample_tags=["A"])
    for k in range(6):
        ps.add((k, 0), "A", delta=0.01j * k, unit=0.5)
        ps.add((k, 1), "B", pos=complex(k, 1.1))
    path = tmp_path / "set.json"
    jsonio.dump_path(ps.to_json(), path)
    back = IndexedPointSet.from_json(jsonio.load_path(path))
    # the bulk reads of certify and render need no index
    assert len(back) == 12 and back.tags() == ["A", "B"]
    certify_f_closeness(back, 7.0, "A", kappa_cap=0.3)
    separation(sample_points(back))
    back.points(["B"]), back.indices(), back.to_json(), back.items()
    assert back._row_of is None
    assert back.get((2, 0), "A") == ps.get((2, 0), "A")
    assert back._row_of is not None
    assert ((5, 1), "B") in back and ((5, 1), "A") not in back
    with pytest.raises(ValueError, match=r"duplicate entry for index \(5, 1\) tag 'B'"):
        back.add((5, 1), "B", pos=5.0)
    with pytest.raises(ValueError, match=r"duplicate entry for index \(0, 0\) tag 'A'"):
        back.add_many([(7, 0), (0, 0)], "A", pos=[7.0, 0.0])
    back.add((6, 0), "A", pos=6.0)
    back.add_many([(7, 0), (8, 0)], "A", pos=[7.0, 8.0])
    assert len(back) == 15 and back.get((8, 0), "A").pos == 8.0
    with pytest.raises(ValueError, match="duplicate"):
        back.add((7, 0), "A", pos=7.0)  # a batch row, entered into the built index
    assert [key for key, _ in back.items()][-3:] == [((6, 0), "A"), ((7, 0), "A"), ((8, 0), "A")]


def _first_duplicate_by_loop(existing, batch):
    """The duplicate check batches had before the sort: the oracle for ``_append``."""
    seen: set = set()
    for key in batch:
        if key in seen or key in existing:
            return key
        seen.add(key)
    return None


point_keys = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(["A", "B", "AB"]))


def _key_columns(keys) -> pointset._Columns:
    """Columns of one row per (m, n, tag) key, at its home point."""
    k = len(keys)
    m = np.array([key[0] for key in keys], dtype=np.int64)
    n = np.array([key[1] for key in keys], dtype=np.int64)
    tag = np.array([key[2] for key in keys], dtype=str)
    return pointset._Columns(m, n, tag, m + 1j * n, np.zeros(k, complex), np.zeros(k, bool),
                             np.zeros(k, complex), np.zeros(k, bool))


@settings(max_examples=200, deadline=None)
@given(st.lists(point_keys, unique=True, max_size=12), st.lists(point_keys, max_size=12),
       st.booleans())
def test_batch_duplicate_check_matches_the_loop(existing, batch, indexed):
    ps = make_set()
    ps._append(_key_columns(existing))
    if indexed:
        assert ((9, 9), "A") not in ps  # the lookup builds the key index before the batch
    assert (ps._row_of is not None) == indexed
    want = _first_duplicate_by_loop(set(existing), batch)
    if want is None:
        ps._append(_key_columns(batch))
        assert len(ps) == len(existing) + len(batch)
        assert all(ps.get(key[:2], key[2]).pos == complex(*key[:2]) for key in existing + batch)
    else:
        with pytest.raises(ValueError) as info:
            ps._append(_key_columns(batch))
        assert str(info.value) == f"duplicate entry for index {want[:2]} tag {want[2]!r}"
        assert len(ps) == len(existing)


def _entry_dicts(ps):
    """The point records built one dict per entry, as the artifact writer once did."""
    out = []
    for (idx, tag), e in sorted(ps.items(), key=lambda kv: (kv[0][0].m, kv[0][0].n, kv[0][1])):
        rec = {"index": [idx.m, idx.n], "tag": tag, "pos": [e.pos.real, e.pos.imag]}
        if e.delta is not None:
            rec["delta"] = [e.delta.real, e.delta.imag]
        if e.unit is not None:
            rec["unit"] = [e.unit.real, e.unit.imag]
        out.append(rec)
    return out


def test_json_table_matches_the_dict_per_entry_writer():
    ps = make_set(gamma=7.0, kappa_cap=0.3)
    ps.add((1, 0), "B", pos=1.0, delta=-0.0, unit=0.25)
    ps.add((1, 0), "A", pos=1.0 + 0.5j)
    ps.add((-2, 3), "A", delta=complex(-0.0, 1e-300), unit=-0.6j)
    ps.add_many([(25, 0), (0, 0)], "C", pos=[25.0, 0.0], unit=[0.6 - 0.1j, 0.0])
    doc = ps.to_json()
    assert jsonio.dumps(doc) == jsonio.dumps({**doc, "points": _entry_dicts(ps)})
    empty = make_set().to_json()
    assert jsonio.dumps(empty) == jsonio.dumps({**empty, "points": []})


def test_csv_export(tmp_path):
    ps = make_set(gamma=1.0, kappa_cap=0.5)
    ps.add((1, 0), "A", pos=1.01, unit=0.02)
    ps.add((0, 1), "B", pos=1.0j)
    path = tmp_path / "points.csv"
    ps.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 entries
    assert lines[0].split(",")[:3] == ["m", "n", "tag"]
    assert any(row.startswith("1,0,A") for row in lines[1:])
