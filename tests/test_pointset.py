"""Triangle angles, geometric certificates, and the indexed container."""

import cmath
import json
import math
import re
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

# scipy.spatial.cKDTree is the independent oracle for pointset.separation
# and pointset.relative_separation_bound (the package computes both with
# numpy alone).
import scipy.spatial

from fockpr import jsonio
from fockpr.lattice import Lattice, square_lattice, window_arrays
from fockpr.sampler import (
    _add_each,
    GeneratorConfig,
    deterministic_triple,
    even_single,
    random_triple,
    real_pair,
)
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


def test_median_angles_exact_false_lies_within_a_few_ulp():
    rng = np.random.default_rng(7)
    a, b, c = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000) for _ in range(3))
    b[:50] = a[:50]  # coincident vertices give 0 in both forms
    c[50:100] = 2 * b[50:100] - a[50:100]  # collinear
    exact, fast = median_angles(a, b, c), median_angles(a, b, c, exact=False)
    assert np.abs(fast - exact).max() <= 1e-14
    assert (fast[:50] == 0.0).all() and (exact[:50] == 0.0).all()


def test_median_angles_is_elementwise():
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    c = np.array([cmath.exp(1j * math.pi / 3.0), 2.0])
    out = median_angles(a, b, c)
    assert np.allclose(out, [math.pi / 3.0, 0.0], atol=1e-12)


# -- container ----------------------------------------------------------------


def make_set(**meta) -> IndexedPointSet:
    return IndexedPointSet(Lattice(1.0, 1.0j), window_radius=30.0, meta=meta)


def read_entries(ps: IndexedPointSet) -> list:
    """``((m, n), tag, entry)`` for every sample of ``ps``, each read by ``get``, in (m, n, tag) order."""
    c = ps._columns()
    keys = sorted(zip(c.m.tolist(), c.n.tolist(), c.tag.tolist()))
    return [((m, n), tag, ps.get((m, n), tag)) for m, n, tag in keys]


def insertion_keys(ps: IndexedPointSet) -> list:
    """The (m, n, tag) key of every row of ``ps``, in insertion order."""
    c = ps._columns()
    return list(zip(c.m.tolist(), c.n.tolist(), c.tag.tolist()))


def make_document(keys, units=None) -> dict:
    """The document of ``make_set()`` holding one row per (m, n, tag) key, in order."""
    units = [complex(u) for u in ([0.0] * len(keys) if units is None else units)]
    return {
        "lattice": Lattice(1.0, 1.0j),
        "window_radius": 30.0,
        "points": {
            "m": [m for m, _n, _tag in keys],
            "n": [n for _m, n, _tag in keys],
            "tag": [tag for _m, _n, tag in keys],
            "unit_re": [u.real for u in units],
            "unit_im": [u.imag for u in units],
        },
    }


def test_add_get_and_derived_offsets():
    ps = make_set()  # no budget in the metadata: (gamma, kappa_cap) = (0, 1)
    ps.add((2, 1), "A", 0.01 + 0.02j)
    e = ps.get((2, 1), "A")
    assert e == PointEntry((2 + 1j) + (0.01 + 0.02j), 0.01 + 0.02j, 0.01 + 0.02j)
    ps.add((0, 0), "A", 0.05j)
    assert ps.get((0, 0), "A").pos == 0.05j
    budgeted = make_set(gamma=2.0, kappa_cap=0.5)
    budgeted.add((1, 0), "A", 0.5j)
    scale = 0.5 * math.exp(-2.0)
    assert budgeted.get((1, 0), "A") == PointEntry(1.0 + 0.5j * scale, 0.5j * scale, 0.5j)
    assert ps.tags() == ["A"]
    assert np.array_equal(ps.points(), [0.05j, (2 + 1j) + (0.01 + 0.02j)])
    assert len(ps) == 2
    with pytest.raises(KeyError):
        ps.get((2, 1), "B")


def test_a_bad_add_raises_at_every_later_read():
    bad = (
        ((1, 0), r"duplicate entry for index \(1, 0\) tag 'A'"),  # repeats a read row
        ((2, 0), r"duplicate entry for index \(2, 0\) tag 'A'"),  # repeats a buffered row
        ((40, 0), r"home point \(40\+0j\) of index \(40, 0\) outside window"),
    )
    for index, match in bad:
        ps = make_set()
        ps.add((1, 0), "A", 0.0)
        assert len(ps.points()) == 1
        ps.add((2, 0), "A", 0.0)
        ps.add(index, "A", 0.0)  # accepted into the buffer; the next read checks it
        assert len(ps) == 3
        for read in (ps.points, ps.to_json, ps.tags, lambda: ps.get((1, 0), "A")):
            with pytest.raises(ValueError, match=match):
                read()
    with pytest.raises(ValueError):
        IndexedPointSet(Lattice(1.0, 1.0j), window_radius=0.0)


def test_an_add_that_does_not_convert_raises_and_buffers_nothing():
    ps = make_set()
    ps.add((1, 0), "A", 0.5)
    bad = (((1.5, 0), 0.0, struct.error), ((0, 2**63), 0.0, struct.error), ((2, 0), "x", ValueError))
    for index, unit, error in bad:
        with pytest.raises(error):
            ps.add(index, "B", unit)
    assert len(ps) == 1
    ps.add((2, 0), "B", 0.25j)
    assert insertion_keys(ps) == [(1, 0, "A"), (2, 0, "B")]
    assert ps.get((2, 0), "B").unit == 0.25j


def test_a_loaded_document_matches_single_adds_and_rejects_bad_keys():
    one_by_one = make_set()
    keys = [(0, 0, "A"), (1, 0, "A"), (0, 1, "A")]
    units = [0.01, 0.02j, complex(-0.0, 0.0)]
    for (m, n, tag), u in zip(keys, units):
        one_by_one.add((m, n), tag, u)
    ps = IndexedPointSet.from_json(make_document(keys, units))
    assert jsonio.dumps(ps.to_json()) == jsonio.dumps(one_by_one.to_json())
    assert _column_bits(ps) == _column_bits(one_by_one)
    with pytest.raises(ValueError, match=r"duplicate entry for index \(2, 0\) tag 'A'"):
        IndexedPointSet.from_json(make_document([(2, 0, "A"), (3, 0, "A"), (2, 0, "A")]))
    with pytest.raises(ValueError, match=r"home point \(40\+0j\) of index \(40, 0\) outside window"):
        IndexedPointSet.from_json(make_document([(2, 0, "B"), (40, 0, "B")]))


def test_single_adds_and_batches_share_one_row_order():
    keys = [(1, 0, "A"), (2, 0, "A"), (3, 0, "A")]
    ps = IndexedPointSet.from_json(make_document(keys))
    ps.add((0, 0), "B", 0.5j)
    assert ps.get((0, 0), "B").pos == 0.5j
    assert insertion_keys(ps) == [(1, 0, "A"), (2, 0, "A"), (3, 0, "A"), (0, 0, "B")]
    assert len(ps) == 4
    assert ps.get((3, 0), "A").pos == 3.0
    for index, tag in (((0, 0), "B"), ((2, 0), "A")):  # repeats a buffered row, a document row
        again = IndexedPointSet.from_json(make_document(keys))
        again.add((0, 0), "B", 0.5j)
        again.add(index, tag, 0.0)
        message = f"duplicate entry for index {index} tag '{tag}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            again.points()


def test_rows_added_across_reads(monkeypatch):
    monkeypatch.setattr(jsonio, "_ROW_BLOCK", 3)
    ps, entries = make_set(gamma=0.5, kappa_cap=0.3), {}
    for k in range(4):
        entries[((k, 0), "A")] = complex(0.25 * k, 0.5)
        ps.add((k, 0), "A", entries[((k, 0), "A")])
    entries[((0, 0), "B")], entries[((1, 0), "B")] = 0.1j, complex(-0.0)
    ps.add((0, 0), "B", 0.1j)
    ps.add((1, 0), "B", complex(-0.0))
    ps.points()  # a column read joins the six rows so far into the columns
    for k in range(7):
        entries[((k, 1), "C")] = complex(-0.0, 0.1 * k)
        ps.add((k, 1), "C", entries[((k, 1), "C")])
    assert len(ps) == len(entries) == 13
    with pytest.raises(KeyError):
        ps.get((7, 1), "C")
    for (index, tag), unit in entries.items():
        e, delta = ps.get(index, tag), 0.3 * math.exp(-0.5 * abs(complex(*index)) ** 2) * unit
        assert _bits(e.unit) == _bits(unit)
        assert e.delta == pytest.approx(delta, rel=1e-13, abs=0)
        assert e.pos == pytest.approx(complex(*index) + delta, rel=1e-13, abs=0)
    assert insertion_keys(ps) == [(*index, tag) for index, tag in entries]
    doc = ps.to_json()
    text = jsonio.dumps(doc)
    assert text == jsonio.dumps({**doc, "points": _entry_columns(ps)})
    back = IndexedPointSet.from_json(json.loads(text))
    assert all(back.get(index, tag) == ps.get(index, tag) for index, tag in entries)
    assert jsonio.dumps(back.to_json()) == text


def test_points_are_canonically_ordered():
    ps = make_set()
    ps.add((1, 0), "B", 0.0)
    ps.add((0, 1), "A", 0.0)
    ps.add((1, 0), "A", 0.1j)
    assert np.array_equal(ps.points(), np.array([1.0j, 1.0 + 0.1j, 1.0]))
    assert np.array_equal(ps.points(["B"]), np.array([1.0]))


def test_log_offset_magnitude_survives_float_collapse():
    gamma, cap = 7.0, 0.5
    ps = make_set(gamma=gamma, kappa_cap=cap)
    # at |home| = 25 the true offset ~ exp(-4375) is far below the float range
    ps.add((25, 0), "A", 0.3 + 0.4j)
    assert ps.get((25, 0), "A").delta == 0.0  # the float view has collapsed
    assert ps.get((25, 0), "A").pos == 25.0
    # at rate 1 the constant is |offset| * exp(625), still far below the float range
    rep = certify_f_closeness(ps, 1.0, "A")
    assert rep.kappa == 0.0 and rep.worst_index == (25, 0)
    assert math.isclose(rep.log_kappa, math.log(cap * 0.5) - (gamma - 1.0) * 625.0, rel_tol=1e-15)
    ps.add((4, 0), "B", 0.0)
    assert certify_f_closeness(ps, 1.0, "B").log_kappa == -math.inf

    plain = make_set()  # budget (0, 1): the unit offset is the offset
    plain.add((3, 0), "A", 0.001)
    rep = certify_f_closeness(plain, 1.0, "A")
    assert math.isclose(rep.log_kappa, math.log(0.001) + 9.0, rel_tol=1e-15)


@pytest.mark.parametrize("meta", [{"gamma": 7.0}, {"kappa_cap": 0.5}])
def test_a_budget_given_in_half_is_an_error(meta):
    # refused when the set is made, so no read meets it
    given = next(iter(meta))
    with pytest.raises(ValueError, match=f"gives '{given}' alone"):
        make_set(**meta)


@pytest.mark.parametrize(
    "radius, meta, message",
    [
        (0.0, {}, "field 'window_radius' must be a finite positive number, got 0.0"),
        (math.inf, {}, "field 'window_radius' must be a finite positive number, got inf"),
        (True, {}, "field 'window_radius' must be a finite positive number, got True"),
        (3.0, [], "field 'meta' must be an object, got list"),
        (3.0, {"gamma": 7.0, "kappa_cap": 0.0},
         "must give 0 < gamma < inf and 0 < kappa_cap <= 1"),
        (3.0, {"gamma": math.nan, "kappa_cap": 1.0}, "0 < gamma < inf and 0 < kappa_cap <= 1"),
        (3.0, {"sample_tags": []}, "field 'meta.sample_tags' must be a list of one or more"),
        (3.0, {"sample_tags": ["A", "A"]},
         "field 'meta.sample_tags' must be a list of one or more"),
        (3.0, {"triple_fold": {"A": "rotate"}}, "field 'meta.triple_fold' must map tags to names"),
        (3.0, {"triple_fold": ["conj"]}, "field 'meta.triple_fold' must map tags to names"),
    ],
    ids=["radius-zero", "radius-inf", "radius-bool", "meta-list", "kappa-zero", "gamma-nan",
         "sample-tags-empty", "sample-tags-repeat", "fold-unknown", "fold-list"],
)
def test_a_bad_header_is_refused_when_the_set_is_made(radius, meta, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        IndexedPointSet(Lattice(1.0, 1.0j), radius, meta)


def test_meta_is_read_only():
    ps = make_set(gamma=7.0, kappa_cap=0.5, sample_tags=["A"], triple_fold={"A": "conj"})
    with pytest.raises(TypeError):
        ps.meta["gamma"] = 0.25
    with pytest.raises(TypeError):
        del ps.meta["kappa_cap"]
    with pytest.raises(TypeError):
        ps.meta["triple_fold"]["A"] = "rotate"
    with pytest.raises(AttributeError):
        ps.meta["sample_tags"].append("Z")
    with pytest.raises(AttributeError):
        ps.meta = {}
    assert ps.budget() == (7.0, 0.5)
    assert ps.meta["sample_tags"] == ("A",)
    assert dict(ps.meta["triple_fold"]) == {"A": "conj"}


def test_a_tag_that_ends_in_nul_is_refused_and_its_row_named():
    # a numpy str column drops trailing NULs: "B\0" would read back as "B", and
    # "A" beside "A\0" as a repeated key
    ps = make_set()
    ps.add((0, 0), "A", 0.0)
    ps.points()
    ps.add((1, 0), "A", 0.0)
    ps.add((0, 0), "A\0", 0.0)
    for _ in range(2):  # the bad row stays in the buffer, and raises at every read
        with pytest.raises(ValueError, match=re.escape(
            "point row 2: column 'tag' must hold strings that do not end in NUL, got 'A\\x00'"
        )):
            ps.tags()
    for keys, row in (([(0, 0, "B\0")], 0), ([(0, 0, "A"), (1, 0, "B"), (0, 0, "A\0")], 2)):
        with pytest.raises(ValueError, match=f"^point row {row}: column 'tag' must hold strings"):
            IndexedPointSet.from_json(json.loads(jsonio.dumps(make_document(keys))))
    # a NUL inside a tag is kept
    inner = IndexedPointSet.from_json(make_document([(0, 0, "A\0B")]))
    assert inner.tags() == ["A\0B"]


# -- closeness ----------------------------------------------------------------


def test_closeness_constant_is_exact_in_the_log_domain():
    gamma, cap = 2.0, 0.6
    ps = make_set(gamma=gamma, kappa_cap=cap)
    idx, pts = window_arrays(ps.lattice, 12.0)
    for (m, n), p in zip(idx, pts):
        # every offset saturates exactly 0.5 of the budget
        ps.add((m, n), "A", 0.5 * cmath.exp(1j * abs(p)))
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
        ps.add((m, 0), "A", 0.25 * math.exp(-gamma * abs(home) ** 2))
    rep = certify_f_closeness(ps, gamma, "A")
    assert math.isclose(rep.kappa, 0.25, rel_tol=1e-9)
    assert rep.worst_index is not None


def test_closeness_input_validation():
    ps = make_set()
    ps.add((0, 0), "A", 0.0)
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
            ps.add((m, n), tag, unit)
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
    ps.add((0, 0), "1", 0.0)
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
    ps.add((0, 0), "A", 0.0)
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
    named = IndexedPointSet(Lattice(1.0, 1.0j), 5.0, meta={"sample_tags": ["1", "2"]})
    unnamed = IndexedPointSet(Lattice(1.0, 1.0j), 5.0)
    for ps in (named, unnamed):
        ps.add((0, 0), "1", 0.1)
        ps.add((0, 0), "2", 0.2)
        ps.add((0, 0), "A", 0.9)
    assert np.array_equal(sample_points(named), np.array([0.1, 0.2]))
    assert len(sample_points(unnamed)) == 3


def test_certificates_on_a_set_count_its_samples_only():
    # real2 and even1 store the A/B/C triples built from their samples
    # beside them; the certificates must not count those derived copies.
    cfg = GeneratorConfig(Lattice(0.3, 0.3j), window_radius=3.0, seed=1)
    even1, real2 = even_single(cfg), real_pair(cfg)
    assert set(even1.tags()) > set(even1.meta["sample_tags"])
    assert separation(even1) == separation(sample_points(even1))
    assert separation(even1).delta > 0.0
    assert density_estimate(real2, radii=(1.0, 2.0)) == density_estimate(
        sample_points(real2), radii=(1.0, 2.0)
    )
    assert relative_separation_bound(real2) == relative_separation_bound(sample_points(real2))


def _certificates(ps: IndexedPointSet) -> tuple:
    """The four certificates ``certify`` runs on ``ps``, at the set's own rate."""
    return (
        [certify_f_closeness(ps, ps.meta["gamma"], tag) for tag in ps.meta["sample_tags"]],
        angle_condition(ps, beta=12.566),
        density_estimate(ps, radii=(1.0, 2.0, 3.0)),
        separation(ps),
    )


def _reloaded(ps: IndexedPointSet) -> IndexedPointSet:
    return IndexedPointSet.from_json(json.loads(jsonio.dumps(ps.to_json())))


def test_derived_columns_are_formed_once_per_column_state(monkeypatch):
    made = []
    derived = IndexedPointSet._derived

    def counted(self, key, make):
        return derived(self, key, lambda c: made.append(key) or make(c))

    monkeypatch.setattr(IndexedPointSet, "_derived", counted)
    whole = random_triple(GeneratorConfig(Lattice(0.5, 0.5j), window_radius=3.0, gamma=0.5, seed=1))
    doc = json.loads(jsonio.dumps(whole.to_json()))
    # the set less its last triple, which add puts back after a first certify
    columns = doc["points"]
    last = zip(*(columns[key][-3:] for key in ("m", "n", "tag", "unit_re", "unit_im")))
    doc["points"] = {key: col[:-3] for key, col in columns.items()}
    ps = IndexedPointSet.from_json(doc)
    made.clear()
    first = _certificates(ps)
    every = [("log|unit|",), ("s(home)",), ("|home|^2",)]
    assert sorted(made) == every
    assert _certificates(ps) == first and sorted(made) == every
    made.clear()
    for m, n, tag, unit_re, unit_im in last:
        ps.add((m, n), tag, complex(unit_re, unit_im))
    again = _certificates(ps)
    assert sorted(made) == every
    assert again == _certificates(_reloaded(whole)) != first
    # the budget cannot change under the derived columns: the metadata is read-only
    with pytest.raises(TypeError):
        ps.meta["gamma"] = 0.25
    made.clear()
    assert _certificates(ps) == again and made == []


@pytest.mark.parametrize("make", [deterministic_triple, real_pair])
def test_home_norms_and_budgets_match_the_per_row_loop(make):
    # three (det3) or four (real2) rows share each home, and |home|^2 repeats
    # across the symmetric images of a lattice point
    ps = make(GeneratorConfig(Lattice(0.5, 0.5j), window_radius=4.0, gamma=0.5, kappa_cap=0.4))
    c = ps._columns()
    homes = ps.lattice.point((c.m, c.n)).tolist()
    norms = [abs(h) ** 2 for h in homes]
    budgets = [0.4 * math.exp(-0.5 * h) for h in norms]
    assert len(set(homes)) < len(homes) and len(set(norms)) < len(set(homes))
    assert ps._home_norms().tobytes() == np.array(norms).tobytes()
    assert ps._budgets().tobytes() == np.array(budgets).tobytes()


def _separation_oracle(ps: IndexedPointSet) -> tuple[float, tuple[complex, complex]]:
    """log10 of the least distance between the samples of ``ps``, and the pair at it.

    Pairs of one home: ``log10(kappa * exp(-gamma*|home|^2) * |u_i - u_j|)``
    at 30 digits from the stored units; the other pairs: a brute-force
    numpy minimum over the derived positions.
    """
    mpmath.mp.dps = 30
    gamma, kappa = (mpmath.mpf(ps.meta[key]) for key in ("gamma", "kappa_cap"))
    by_home: dict = {}
    for index, _tag, e in read_entries(ps):
        by_home.setdefault(index, []).append(e)
    within = []
    for index, entries in by_home.items():
        home = ps.lattice.point(index)
        scale = kappa * mpmath.exp(-gamma * (mpmath.mpf(home.real) ** 2 + mpmath.mpf(home.imag) ** 2))
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                gap = abs(mpmath.mpc(entries[i].unit) - mpmath.mpc(entries[j].unit))
                within.append((mpmath.log10(scale * gap), entries[i].pos, entries[j].pos))
    best_within = min(within, key=lambda w: w[0])
    pts = ps.points()
    c = ps._columns()
    homes = np.array(list(zip(c.m.tolist(), c.n.tolist())))[ps._rows()]
    dx, dy = pts.real[:, None] - pts.real, pts.imag[:, None] - pts.imag
    dist = np.sqrt(dx * dx + dy * dy)
    dist[(homes[:, None, :] == homes[None, :, :]).all(axis=2)] = np.inf
    between = float(dist.min())
    if math.log10(between) < best_within[0]:
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        return math.log10(between), (complex(pts[i]), complex(pts[j]))
    return float(best_within[0]), (best_within[1], best_within[2])


@pytest.mark.parametrize("maker", [random_triple, deterministic_triple])
def test_set_separation_matches_an_mpmath_oracle_where_positions_collapse(maker):
    ps = maker(GeneratorConfig(square_lattice(math.pi), window_radius=12.0, seed=1))
    assert len(np.unique(ps.points())) < len(ps)  # offsets below an ulp of the home
    rep = separation(ps)
    want, pair = _separation_oracle(ps)
    assert rep.log10_delta == pytest.approx(want, abs=1e-9)
    assert rep.pair == pair
    assert rep.delta == 0.0 and rep.count == len(ps)
    if maker is random_triple:
        assert round(rep.log10_delta, 1) == -438.1


def test_set_separation_without_collapse_keeps_the_positional_delta():
    ps = random_triple(GeneratorConfig(Lattice(1.0, 1.0j), window_radius=4.0, gamma=0.5, seed=1))
    pts = sample_points(ps)
    assert len(np.unique(pts)) == len(pts)
    rep, plain = separation(ps), separation(pts)
    assert rep.delta.hex() == plain.delta.hex()
    assert rep.log10_delta == pytest.approx(math.log10(plain.delta), abs=1e-9)
    want, pair = _separation_oracle(ps)
    assert rep.log10_delta == pytest.approx(want, abs=1e-9)
    assert rep.pair == pair


def _triples(n: int) -> IndexedPointSet:
    """A set of ``n`` samples, an A, B and C on each of ``n // 3`` homes, at random unit offsets."""
    rng = np.random.default_rng(5)
    k, side = np.arange(n) // 3, math.isqrt(n // 3) + 1
    unit = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    points = {
        "m": (k % side - side // 2).tolist(),
        "n": (k // side - side // 2).tolist(),
        "tag": ["A", "B", "C"] * (n // 3),
        "unit_re": unit.real.tolist(),
        "unit_im": unit.imag.tolist(),
    }
    meta = {"gamma": 0.5, "kappa_cap": 1.0, "sample_tags": ["A", "B", "C"]}
    return IndexedPointSet.from_json(
        {"lattice": Lattice(0.5, 0.5j), "window_radius": 0.5 * side, "points": points, "meta": meta}
    )


def test_certificates_of_a_large_set_peak_below_three_times_its_columns():
    # each certificate holds the set's columns once, its derived columns and
    # bounded blocks; per-element Python lists over whole columns, np.unique
    # over the triples' indices and every temporary of separation kept to its
    # end traced 3.1 (density) to 6.8 (separation) times the columns
    _certificates(_triples(300))  # lazy imports outside the trace
    ps = _triples(50_001)
    columns = sum(col.nbytes for col in ps._columns())
    runs = {
        "closeness": lambda: [certify_f_closeness(ps, 0.5, tag) for tag in "ABC"],
        "angle": lambda: angle_condition(ps, beta=12.566),
        "density": lambda: density_estimate(ps, radii=(10.0, 20.0, 30.0)),
        "separation": lambda: separation(ps),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, run in runs.items():
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            run()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / columns
    finally:
        tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items() if peak >= 3.0} == {}


# -- serialization ----------------------------------------------------------------


def test_json_round_trip_preserves_everything():
    gamma, cap = 7.0, 0.3
    ps = make_set(gamma=gamma, kappa_cap=cap, construction="demo", sample_tags=["A"])
    ps.add((25, 0), "A", 0.6 - 0.1j)
    ps.add((1, 2), "A", 0.2j)
    ps.add((0, 0), "B", 0.05)
    ps.add((0, 1), "C", complex(-0.0, 0.0))  # signed zeros
    text = jsonio.dumps(ps.to_json())
    back = IndexedPointSet.from_json(json.loads(text))
    assert back.lattice == ps.lattice
    assert back.window_radius == ps.window_radius
    assert back.meta == ps.meta
    assert read_entries(back) == read_entries(ps)
    assert _bits(back.get((0, 1), "C").unit) == _bits(complex(-0.0, 0.0))
    # canonical text form is a fixed point
    assert jsonio.dumps(back.to_json()) == text
    # log-domain information survives the round trip
    rep = certify_f_closeness(back, gamma, "A")
    assert rep.worst_index == (25, 0)
    assert rep.log_kappa == certify_f_closeness(ps, gamma, "A").log_kappa


def _seven_rows() -> str:
    """The text of a set of seven rows, (k, 0, "A") at unit 0.5 for k < 7."""
    ps = make_set()
    for k in range(7):
        ps.add((k, 0), "A", 0.5)
    return jsonio.dumps(ps.to_json())


def _with_points(text: str, edit) -> dict:
    """The document of ``text`` after ``edit(points)``, parsed anew from JSON text."""
    doc = json.loads(text)
    doc["points"] = edit(doc["points"])
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: {k: v for k, v in p.items() if k != "unit_re"},
         "field 'points' lacks the column 'unit_re'"),
        (lambda p: {**p, "n": p["n"][:-1]},
         "point row 6: column 'n' lacks it, while column 'm' has 7 rows"),
        (lambda p: {**p, "tag": p["tag"] + ["A"]},
         "point row 7: column 'm' lacks it, while column 'tag' has 8 rows"),
        (lambda p: {**p, "unit_im": 0.5}, "column 'unit_im' of field 'points' must be a list"),
        (lambda p: [{"index": [0, 0], "tag": "A", "unit": [0.5, 0.0]}],
         "field 'points' holds per-record samples; regenerate the set"),
        (lambda p: "m n tag", "field 'points' must be an object of columns, got str"),
    ],
    ids=["missing", "short", "long", "not-a-list", "per-record", "not-an-object"],
)
def test_from_json_names_a_missing_or_short_column(edit, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        IndexedPointSet.from_json(_with_points(_seven_rows(), edit))


@pytest.mark.parametrize("field", ["lattice", "window_radius", "points"])
def test_from_json_names_a_missing_field(field):
    doc = make_document([(0, 0, "A")])
    del doc[field]
    with pytest.raises(ValueError, match=f"^field '{field}' is missing$"):
        IndexedPointSet.from_json(doc)


def test_from_json_loads_an_empty_set_and_ignores_other_columns():
    empty = IndexedPointSet.from_json(json.loads(jsonio.dumps(make_set().to_json())))
    assert len(empty) == 0 and empty.points().size == 0
    # a column besides the five, say pos, is not read
    doc = _with_points(_seven_rows(), lambda p: {**p, "pos": [[float(k), 0.5] for k in range(7)]})
    assert jsonio.dumps(IndexedPointSet.from_json(doc).to_json()) == _seven_rows()


@pytest.mark.parametrize(
    "column, bad, message",
    [
        ("m", 0.7, "column 'm' must hold integers, got 0.7"),
        ("n", 1e19, "column 'n' must hold integers, got 1e+19"),  # beyond int64
        ("m", 2**63, "column 'm' must hold integers, got 9223372036854775808"),
        ("n", math.inf, "column 'n' must hold integers, got inf"),
        ("m", True, "column 'm' must hold integers, got True"),
        ("unit_re", math.nan, "column 'unit_re' must hold finite numbers, got nan"),
        ("unit_im", -math.inf, "column 'unit_im' must hold finite numbers, got -inf"),
        ("unit_re", 10**400, "column 'unit_re' must hold finite numbers, got 1000"),
        ("unit_im", "0.5", "column 'unit_im' must hold finite numbers, got '0.5'"),
        ("tag", None, "column 'tag' must hold strings, got None"),
    ],
    ids=["m-fraction", "n-beyond-int64-float", "m-beyond-int64", "n-inf", "m-bool",
         "unit_re-nan", "unit_im-inf", "unit_re-beyond-float", "unit_im-str", "tag-null"],
)
def test_from_json_rejects_values_outside_the_fields_domain(column, bad, message):
    def put(value):
        return lambda p: {**p, column: p[column][:3] + [value] + p[column][4:]}

    with pytest.raises(ValueError, match=f"^{re.escape(f'point row 3: {message}')}"):
        IndexedPointSet.from_json(_with_points(_seven_rows(), put(bad)))
    # integral floats are indices, and ints are numbers
    good = {"m": 3.0, "n": -0.0, "tag": "A", "unit_re": 0.5, "unit_im": 0}[column]
    ps = IndexedPointSet.from_json(_with_points(_seven_rows(), put(good)))
    assert ps.get((3, 0), "A").unit == 0.5
    assert jsonio.dumps(ps.to_json()) == _seven_rows()


def _bits(z: complex) -> list[int]:
    """The bit patterns of a complex value's parts, so that signed zeros count."""
    return np.array([z], dtype=complex).view(np.int64).tolist()


def _column_bits(ps: IndexedPointSet) -> dict:
    """The columns of ``ps``, floats by bit pattern so that signed zeros count."""
    c = ps._columns()
    return {
        "m": c.m.tolist(),
        "n": c.n.tolist(),
        "tag": c.tag.tolist(),
        "unit": c.unit.view(np.int64).tolist(),
    }


def test_a_loaded_set_takes_lookups_and_more_adds(tmp_path):
    ps = make_set(gamma=7.0, kappa_cap=0.3, sample_tags=["A"])
    for k in range(6):
        ps.add((k, 0), "A", 0.5 * k)
        ps.add((k, 1), "B", 0.1j)
    path = tmp_path / "set.json"
    jsonio.dump_path(ps.to_json(), path)
    back = IndexedPointSet.from_json(jsonio.load_path(path))
    assert len(back) == 12 and back.tags() == ["A", "B"]
    assert back.get((2, 0), "A") == ps.get((2, 0), "A")
    assert back.get((5, 1), "B").unit == 0.1j
    with pytest.raises(KeyError):
        back.get((5, 1), "A")
    for k in (6, 7, 8):
        back.add((k, 0), "A", 0.0)
    assert len(back) == 15 and back.get((8, 0), "A").pos == 8.0
    assert insertion_keys(back)[-3:] == [(6, 0, "A"), (7, 0, "A"), (8, 0, "A")]
    back.add((7, 0), "A", 0.0)  # a row that a read has already joined
    back.add((5, 1), "B", 0.0)  # a row of the document
    for _ in range(2):
        with pytest.raises(ValueError, match=r"duplicate entry for index \(7, 0\) tag 'A'"):
            back.get((8, 0), "A")


point_keys = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(["A", "B", "AB"]))


def _first_bad_key(lattice: Lattice, radius: float, keys) -> str | None:
    """The error for ``keys``: the first home outside the window, else the first repeat."""
    for m, n, _tag in keys:
        home = lattice.point((m, n))
        if abs(home) > radius + 1e-9:
            return f"home point {home} of index {(m, n)} outside window"
    seen = set()
    for m, n, tag in keys:
        if (m, n, tag) in seen:
            return f"duplicate entry for index {(m, n)} tag {tag!r}"
        seen.add((m, n, tag))
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(point_keys, max_size=24), st.integers(0, 24))
def test_batch_duplicate_check_matches_the_loop(keys, split):
    """Rows added one by one, with a read after the first ``split``, and a document of the same
    keys fail with the error of a plain loop over the keys, at every read."""
    lattice, radius = Lattice(1.0, 1.0j), 2.5  # (±3, 0), (2, ±2), ... lie outside
    error = _first_bad_key(lattice, radius, keys)
    one_by_one = IndexedPointSet(lattice, radius)
    for k, (m, n, tag) in enumerate(keys):
        if k == split and _first_bad_key(lattice, radius, keys[:k]) is None:
            one_by_one.points()
        one_by_one.add((m, n), tag, 0.0)
    doc = {**make_document(keys), "window_radius": radius}
    if error is None:
        ps = IndexedPointSet.from_json(doc)
        assert _column_bits(ps) == _column_bits(one_by_one)
        assert insertion_keys(ps) == keys
        return
    for read in (one_by_one.points, one_by_one.points, lambda: IndexedPointSet.from_json(doc)):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == error


def _entry_columns(ps):
    """The five point columns built one sample at a time from ``get``: the oracle for ``to_json``."""
    out = {key: [] for key in ("m", "n", "tag", "unit_re", "unit_im")}
    for (m, n), tag, e in read_entries(ps):
        for key, value in zip(out, (m, n, tag, e.unit.real, e.unit.imag)):
            out[key].append(value)
    return out


def test_json_columns_match_a_per_entry_oracle():
    ps = make_set(gamma=7.0, kappa_cap=0.3)
    ps.add((1, 0), "B", 0.25)
    ps.add((1, 0), "A", complex(-0.0, 0.5))
    ps.add((-2, 3), "A", -0.6j)
    ps.add((25, 0), "C", 0.6 - 0.1j)
    ps.add((0, 0), "C", 0.0)
    doc = ps.to_json()
    text = jsonio.dumps(doc)
    assert text == jsonio.dumps({**doc, "points": _entry_columns(ps)})
    assert '"unit_re": [\n      -0.0,' in text  # (1, 0, "A") leads, its signed zero kept
    empty = make_set().to_json()
    assert jsonio.dumps(empty) == jsonio.dumps({**empty, "points": _entry_columns(make_set())})


def test_csv_export(tmp_path):
    ps = make_set(gamma=1.0, kappa_cap=0.5)
    ps.add((1, 0), "A", 0.02)
    ps.add((0, 1), "B", 0.0)
    path = tmp_path / "points.csv"
    ps.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 entries
    assert lines[0].split(",")[:3] == ["m", "n", "tag"]
    assert any(row.startswith("1,0,A") for row in lines[1:])


def test_added_rows_hold_under_fifty_bytes_each():
    # add appends an int64 pair, two float64 parts and a tag reference (41
    # bytes a row with the buffers' spare room); a tuple per row, with the
    # complex it held, took 140
    n = 50_000
    k = np.arange(n)
    idx = np.stack([k % 200 - 100, k // 200 - 100], axis=1)
    units = np.exp(0.001j * k) * 0.5
    ps = IndexedPointSet(Lattice(1.0, 1.0j), window_radius=300.0)
    _add_each(ps, idx[:3], "B", units[:3])  # the buffers exist before the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _add_each(ps, idx, "A", units)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ps) == n + 3
    assert held / n < 50


def test_to_csv_of_a_large_set_peaks_below_one_and_a_half_times_its_file(tmp_path):
    # the rows are formed and written one block at a time (1.16 times the
    # file); the positions, their Python floats and their text for every row
    # at once peaked at 7.8 times the file
    cfg = GeneratorConfig(Lattice(0.3, 0.3j), window_radius=20.0, gamma=7.0, kappa_cap=1.0, seed=3)
    ps = real_pair(cfg)  # 49,077 samples
    ps.points()  # joins the rows and forms the derived columns that the set keeps
    make_set().to_csv(tmp_path / "empty.csv")  # lazy imports outside the trace
    path = tmp_path / "set.csv"
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        ps.to_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(path.read_text().splitlines()) == len(ps) + 1
    assert peak < 1.5 * path.stat().st_size


def _real2_outputs(tmp_path, name: str) -> tuple:
    """The JSON text, the CSV bytes and the column bits of a small ``real2`` set."""
    ps = real_pair(GeneratorConfig(Lattice(0.3, 0.3j), window_radius=4.0, seed=3))
    path = tmp_path / f"{name}.csv"
    ps.to_csv(path)
    return jsonio.dumps(ps.to_json()), path.read_bytes(), _column_bits(ps)


def test_added_rows_and_csv_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    whole = _real2_outputs(tmp_path, "whole")  # 1,976 rows, one block each way
    monkeypatch.setattr("fockpr.sampler._ADD_BLOCK", 3)
    monkeypatch.setattr("fockpr.pointset._ELEMENT_BLOCK", 3)
    assert _real2_outputs(tmp_path, "blocks") == whole


@pytest.mark.parametrize("tag, message", [
    ("A\0", "point row 14: column 'tag' must hold strings that do not end in NUL, got 'A\\x00'"),
    ("A", "duplicate entry for index (0, 0) tag 'A'"),
])
def test_a_bad_row_added_after_a_read_is_named_across_blocks(monkeypatch, tag, message):
    monkeypatch.setattr("fockpr.sampler._ADD_BLOCK", 3)
    monkeypatch.setattr("fockpr.pointset._ELEMENT_BLOCK", 3)
    idx, units = np.array([(k, 0) for k in range(7)]), np.linspace(0.0, 0.5, 7).astype(complex)
    ps = make_set()
    _add_each(ps, idx, "A", units)  # rows 0 to 6
    ps.points()
    _add_each(ps, idx + (0, 1), "B", units)  # rows 7 to 13
    _add_each(ps, idx[:1], tag, units[:1])  # row 14, at the home of row 0
    _add_each(ps, idx + (0, 2), "C", units)
    for _ in range(2):  # the bad row stays in the buffers, and raises at every read
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            ps.tags()
    ps.add((9, 9), "D", 0.0)  # the buffers still grow while a failed read's traceback is held
    assert info.value is not None and len(ps) == 23
