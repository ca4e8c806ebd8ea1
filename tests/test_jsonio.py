"""Round-trip and canonical-form tests for the JSON reader/writer."""

import json
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fockpr import jsonio


finite_floats = st.floats(allow_nan=False, allow_infinity=False)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    finite_floats,
    st.text(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


def test_float_formatting_examples():
    assert jsonio.format_float(1.0) == "1.0"
    assert jsonio.format_float(-2.5) == "-2.5"
    assert float(jsonio.format_float(1e300)) == 1e300
    assert jsonio.format_float(math.inf) == "Infinity"
    assert jsonio.format_float(-math.inf) == "-Infinity"
    assert jsonio.format_float(math.nan) == "NaN"
    # 17 significant digits are enough to reconstruct any double exactly
    assert float(jsonio.format_float(1.0 / 3.0)) == 1.0 / 3.0


@given(finite_floats)
def test_floats_round_trip_exactly(x):
    assert json.loads(jsonio.dumps(x)) == x


def test_extreme_floats_round_trip():
    for x in (5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, -0.0):
        back = json.loads(jsonio.dumps(x))
        assert back == x
        assert math.copysign(1.0, back) == math.copysign(1.0, x)


def test_nonfinite_round_trip():
    assert json.loads(jsonio.dumps(math.inf)) == math.inf
    assert json.loads(jsonio.dumps(-math.inf)) == -math.inf
    assert math.isnan(json.loads(jsonio.dumps(math.nan)))


@given(json_values)
def test_structures_round_trip(value):
    assert json.loads(jsonio.dumps(value)) == value


@given(json_values)
def test_serialization_is_idempotent(value):
    once = jsonio.dumps(value)
    assert jsonio.dumps(json.loads(once)) == once


def test_keys_are_sorted():
    text = jsonio.dumps({"b": 1, "a": 2, "c": 3})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_bools_are_not_confused_with_ints():
    assert jsonio.dumps(True) == "true"
    assert jsonio.dumps(1) == "1"
    assert json.loads(jsonio.dumps([True, 1])) == [True, 1]


def test_unsupported_types_are_rejected():
    # a record type (not an instance) is no record either; an array is
    # written only as a 1-D int, float or str column
    for value in ({1, 2}, np.int64(3), np.zeros(2, dtype=complex), np.zeros(0, dtype=complex),
                  np.zeros((2, 2)), np.zeros((0, 2)), np.zeros((2, 2), dtype=complex),
                  np.zeros((2, 2, 2)), np.array([True, False]), _Inner):
        with pytest.raises(TypeError):
            jsonio.dumps({"v": value})
    with pytest.raises(TypeError):
        jsonio.dumps({1: "non-string key"})


class _Inner(NamedTuple):
    z: complex
    k: int


class _Outer(NamedTuple):
    name: str
    inner: _Inner
    coeffs: np.ndarray
    worst: tuple[int, int] | None


def test_complex_values_and_records_write_as_their_explicit_form():
    x = np.array([1.5, -0.0, 1e-300])
    cases = [
        (1 + 2j, [1.0, 2.0]),
        (complex(-0.0, math.inf), [-0.0, math.inf]),
        (np.complex128(0.5 - 1j), [0.5, -1.0]),
        ([0j, 1j], [[0.0, 0.0], [0.0, 1.0]]),
        ((complex(1.5, -0.0), complex(0.0, -0.0)), [[1.5, -0.0], [0.0, -0.0]]),
        ({"z": 1j, "k": np.arange(3)}, {"z": [0.0, 1.0], "k": [0, 1, 2]}),
        (_Inner(1 - 1j, 4), {"z": [1.0, -1.0], "k": 4}),
        (
            _Outer("o", _Inner(1 - 1j, 4), x, (2, -3)),
            {"name": "o", "inner": {"z": [1.0, -1.0], "k": 4}, "coeffs": [1.5, -0.0, 1e-300],
             "worst": [2, -3]},
        ),
        (
            _Outer("e", _Inner(0j, 0), x[:0], None),
            {"name": "e", "inner": {"z": [0.0, 0.0], "k": 0}, "coeffs": [], "worst": None},
        ),
    ]
    for value, explicit in cases:
        assert jsonio.dumps({"v": value}) == jsonio.dumps({"v": explicit}), explicit


def test_file_round_trip(tmp_path):
    doc = {"name": "window", "radius": 6.0, "counts": [1, 2, 3], "flag": True}
    path = tmp_path / "doc.json"
    jsonio.dump_path(doc, path)
    text = path.read_text(encoding="ascii")
    assert text.endswith("\n")
    assert jsonio.load_path(path) == doc


# -- bulk formatting and the array path -------------------------------------------


@given(st.lists(st.floats(), max_size=40))
@example([-0.0])
@example([5e-324])
@example([float(2**53)])
@example([1e16])
@example([1e17])
@example([math.inf])
@example([-math.inf])
@example([math.nan])
def test_format_floats_matches_format_float(xs):
    assert jsonio.format_floats(np.array(xs, dtype=float)) == [jsonio.format_float(x) for x in xs]


floats_with_edges = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 3.0, -25.0, 1e17, 5e-324]),
)


@given(st.data())
def test_array_path_matches_the_list_of_lists_writer(data):
    # 1-D int, float and str arrays, as a point set's columns are written,
    # against the lists of their values
    values = st.one_of(floats_with_edges, st.sampled_from([math.inf, -math.inf, math.nan]))
    n = data.draw(st.integers(0, 20))
    columns = {
        "m": data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
        "unit_re": data.draw(st.lists(values, min_size=n, max_size=n)),
        "tag": data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)),
    }
    arrays = {
        "m": np.array(columns["m"], dtype=np.int64),
        "unit_re": np.array(columns["unit_re"], dtype=float),
        "tag": np.array(columns["tag"], dtype=str),
    }
    lists = {key: col.tolist() for key, col in arrays.items()}
    assert jsonio.dumps({"points": arrays}) == jsonio.dumps({"points": lists})
    assert jsonio.dumps(arrays["unit_re"][::2]) == jsonio.dumps(lists["unit_re"][::2])


def test_array_path_across_row_blocks(monkeypatch):
    monkeypatch.setattr(jsonio, "_ROW_BLOCK", 3)
    test_array_path_matches_the_list_of_lists_writer()


def test_array_path_examples():
    arr = np.array([-0.0, 3.0, math.inf, math.nan, 1e17, 0.5])
    assert jsonio.dumps({"p": arr}) == jsonio.dumps({"p": arr.tolist()})
    assert jsonio.dumps({"p": arr[::2]}) == jsonio.dumps({"p": arr[::2].tolist()})  # strided
    # a 1-D array stands for the list of its values, signed zeros kept
    assert jsonio.dumps(np.array([-0.0, 1e17, 3.0])) == "[\n  -0.0,\n  1e+17,\n  3.0\n]"
    assert jsonio.dumps({"m": np.array([-2, 7])}) == '{\n  "m": [\n    -2,\n    7\n  ]\n}'
    assert jsonio.dumps(np.array(["A", "\u00e9%s"])) == '[\n  "A",\n  "\\u00e9%s"\n]'
    assert jsonio.dumps(np.empty(0)) == jsonio.dumps(np.array([], dtype=str)) == "[]"


# -- the write path ----------------------------------------------------------------


def test_dump_path_calls_dumps_once_and_writes_its_text_and_a_newline(tmp_path, monkeypatch):
    # perfbench counts the bytes jsonio.dumps returns as the size of each artifact
    doc = {"points": np.arange(40.0), "name": "window"}
    real, calls = jsonio.dumps, []

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(jsonio, "dumps", counting)
    monkeypatch.setattr(jsonio, "_WRITE_SLICE", 7)  # many slices, the last one short
    path = tmp_path / "doc.json"
    jsonio.dump_path(doc, path)
    assert calls == [doc]
    assert path.read_bytes() == (real(doc) + "\n").encode("ascii")


def _point_columns(n: int, rng) -> dict:
    """The five columns of a point set's ``points``, ``n`` rows of random values."""
    return {
        "m": rng.integers(-200, 200, size=n),
        "n": rng.integers(-200, 200, size=n),
        "tag": rng.choice(np.array(["A", "B", "C"]), size=n),
        "unit_re": rng.uniform(-1.0, 1.0, size=n),
        "unit_im": rng.uniform(-1.0, 1.0, size=n),
    }


def test_dumps_of_a_large_table_peaks_near_its_text():
    # each piece is appended to the one text as it is formed, which CPython
    # grows in place (1.04 times the text); joining a list of the pieces at
    # the end held both (2.01 times), and rendering every point record at
    # once, before the row blocks, 4.15 times
    rng = np.random.default_rng(3)
    columns = _point_columns(50_000, rng)
    jsonio.dumps(_point_columns(10, rng))  # numpy's lazy imports outside the trace
    tracemalloc.start()
    try:
        text = jsonio.dumps({"points": columns})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * len(text)


# -- the read path -----------------------------------------------------------------


def test_load_of_a_large_point_set_peaks_below_two_and_a_half_times_its_text(tmp_path):
    # json.load holds the whole text and then its parse; from_json takes each
    # parsed column out of the document as its array forms (2.37 times the
    # file).  A json.loads of the same set written one record per sample
    # peaked at 11.3 times this file; the record reader that streamed that
    # layout peaked at 0.35 times its own, 3.8 times larger, file
    from fockpr.lattice import Lattice
    from fockpr.pointset import IndexedPointSet

    n, rng = 50_001, np.random.default_rng(5)
    k = np.arange(n) // 3
    lattice = Lattice(1.0, 1.0j)
    columns = _point_columns(n, rng)
    columns["m"], columns["n"] = k % 130 - 65, k // 130 - 65
    columns["tag"] = np.array(["A", "B", "C"] * (n // 3))
    path = tmp_path / "set.json"
    jsonio.dump_path({"lattice": lattice, "window_radius": 100.0, "points": columns}, path)
    size = path.stat().st_size
    small = tmp_path / "small.json"
    head = {key: col[:3] for key, col in columns.items()}
    jsonio.dump_path({"lattice": lattice, "window_radius": 100.0, "points": head}, small)
    IndexedPointSet.from_json(jsonio.load_path(small))  # lazy imports outside the trace
    tracemalloc.start()
    try:
        ps = IndexedPointSet.from_json(jsonio.load_path(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ps) == n
    assert peak < 2.5 * size
