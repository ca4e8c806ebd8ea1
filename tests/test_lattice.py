"""Lattice enumeration, classification, and serialization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fockpr import jsonio
from fockpr.lattice import Lattice, enumerate_window, square_lattice, window_arrays


small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def bases():
    """Positively oriented, well-conditioned random bases."""
    return st.tuples(small, small, small, small).map(
        lambda t: (complex(t[0], t[1]), complex(t[2], t[3]))
    )


def oriented(w1: complex, w2: complex) -> bool:
    """Usable basis: not too short and angularly well separated."""
    s = (np.conj(w1) * w2).imag
    return min(abs(w1), abs(w2)) > 0.1 and s > 0.05 * abs(w1) * abs(w2)


# Hand-derived classification of v*(Z+iZ) (cell area v^2) against pi/alpha:
# strict inequality for the rigidity class, non-strict for zero-set uniqueness.
# The threshold rows (v=1 at alpha=pi, v=0.5 at alpha=4 pi) are exact in floats.
TRUTH_TABLE = [
    # (v, alpha, expect_liouville, expect_uniqueness)
    (0.4, math.pi, True, True),
    (0.45, math.pi, True, True),
    (0.5, math.pi, True, True),
    (1.0 / math.sqrt(math.pi), math.pi, True, True),
    (1.0, math.pi, False, True),
    (0.4, 4 * math.pi, True, True),
    (0.45, 4 * math.pi, True, True),
    (0.5, 4 * math.pi, False, True),
    (1.0 / math.sqrt(math.pi), 4 * math.pi, False, False),
    (1.0, 4 * math.pi, False, False),
]


@pytest.mark.parametrize("v,alpha,liou,uniq", TRUTH_TABLE)
def test_growth_classification_truth_table(v, alpha, liou, uniq):
    lat = Lattice(v, v * 1j)
    assert lat.is_liouville(alpha) is liou
    assert lat.is_uniqueness(alpha) is uniq


def test_square_lattice_sits_exactly_on_the_threshold():
    lat = square_lattice(math.pi)
    assert lat.area == 1.0
    assert lat.is_uniqueness(math.pi)
    assert not lat.is_liouville(math.pi)


@given(st.floats(min_value=0.1, max_value=50.0))
def test_square_lattice_area(beta):
    lat = square_lattice(beta)
    assert math.isclose(lat.area, math.pi / beta, rel_tol=1e-12)
    assert math.isclose(lat.density, beta / math.pi, rel_tol=1e-12)


def test_degenerate_or_flipped_bases_are_rejected():
    with pytest.raises(ValueError):
        Lattice(1.0, 2.0)  # collinear
    with pytest.raises(ValueError):
        Lattice(1.0, -1.0j)  # negative orientation
    with pytest.raises(ValueError):
        square_lattice(0.0)
    with pytest.raises(ValueError):
        Lattice(1.0, 1.0j).is_liouville(-2.0)


@given(bases(), st.integers(-40, 40), st.integers(-40, 40), small, small)
def test_coords_invert_point(basis, m, n, sx, sy):
    w1, w2 = basis
    assume(oriented(w1, w2))
    lat = Lattice(w1, w2, complex(sx, sy))
    z = lat.point((m, n))
    x, y = lat.coords(z)
    assert abs(x - m) < 1e-6 * (1 + abs(m))
    assert abs(y - n) < 1e-6 * (1 + abs(n))
    assert lat.index_of(z, tol=1e-6 * (1 + abs(z))) == (m, n)


@given(bases(), st.integers(-10, 10), st.integers(-10, 10))
def test_cell_interior_points_are_not_members(basis, m, n):
    w1, w2 = basis
    assume(oriented(w1, w2))
    lat = Lattice(w1, w2)
    z = lat.point((m, n)) + 0.5 * w1 + 0.5 * w2  # deep interior of a cell
    assert not lat.contains(z, tol=1e-6)
    with pytest.raises(ValueError):
        lat.index_of(z, tol=1e-6)


def test_window_matches_brute_force_enumeration():
    lat = Lattice(1.1 + 0.3j, -0.2 + 0.9j, shift=0.25 + 0.1j)
    radius = 4.3
    got = {(int(m), int(n)) for m, n in window_arrays(lat, radius)[0]}
    expect = set()
    for m in range(-30, 31):
        for n in range(-30, 31):
            if abs(lat.point((m, n))) <= radius + 1e-9:
                expect.add((m, n))
    assert got == expect


def test_window_count_on_the_square_lattice():
    # 113 index pairs satisfy m^2 + n^2 <= 36 (counted by hand per column)
    idx, pts = window_arrays(Lattice(1.0, 1.0j), 6.0)
    assert len(pts) == 113
    assert len(idx) == 113


@given(bases(), st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=40)
def test_window_is_sorted_and_consistent(basis, radius):
    w1, w2 = basis
    assume(oriented(w1, w2))
    lat = Lattice(w1, w2)
    idx, pts = window_arrays(lat, radius)
    assert np.all(np.abs(pts) <= radius + 1e-9)
    rebuilt = idx[:, 0] * w1 + idx[:, 1] * w2
    assert np.allclose(rebuilt, pts, rtol=0, atol=1e-12)
    mods = np.abs(pts)
    assert np.all(np.diff(mods) >= -1e-12)
    # the origin is always inside the (unshifted) window
    assert pts[0] == 0


def test_boundary_points_are_kept():
    _, pts = window_arrays(Lattice(1.0, 1.0j), 5.0)
    assert 3 + 4j in set(pts)  # |3+4i| = 5 exactly


def test_enumerate_window_agrees_with_arrays():
    lat = Lattice(0.8, 0.2 + 0.7j)
    pairs = enumerate_window(lat, 3.0)
    idx, pts = window_arrays(lat, 3.0)
    assert [(i.m, i.n) for i, _ in pairs] == [tuple(row) for row in idx.tolist()]
    assert np.allclose([p for _, p in pairs], pts)


def test_conjugation_closure():
    assert Lattice(1.0, 1.0j).is_conjugation_closed()
    assert Lattice(1.0, cmath.exp(1j * math.pi / 3.0)).is_conjugation_closed()
    assert not Lattice(1.0, 0.3 + 1.0j).is_conjugation_closed()
    with pytest.raises(ValueError):
        Lattice(1.0, 1.0j, shift=0.5).is_conjugation_closed()


@given(bases(), small, small, st.floats(min_value=0.2, max_value=20.0))
def test_translation_preserves_growth_class(basis, wx, wy, alpha):
    w1, w2 = basis
    assume(oriented(w1, w2))
    lat = Lattice(w1, w2)
    assert lat.liouville_after_shift(alpha, complex(wx, wy)) == lat.is_liouville(alpha)


@given(bases(), small, small)
def test_json_round_trip(basis, sx, sy):
    w1, w2 = basis
    assume(oriented(w1, w2))
    lat = Lattice(w1, w2, complex(sx, sy))
    assert Lattice.from_json(jsonio.loads(jsonio.dumps(lat))) == lat
