"""Round-trip and canonical-form tests for the JSON reader/writer."""

import dataclasses
import json
import math
import random
import tracemalloc

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
    assert jsonio.loads(jsonio.dumps(x)) == x


def test_extreme_floats_round_trip():
    for x in (5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, -0.0):
        back = jsonio.loads(jsonio.dumps(x))
        assert back == x
        assert math.copysign(1.0, back) == math.copysign(1.0, x)


def test_nonfinite_round_trip():
    assert jsonio.loads(jsonio.dumps(math.inf)) == math.inf
    assert jsonio.loads(jsonio.dumps(-math.inf)) == -math.inf
    assert math.isnan(jsonio.loads(jsonio.dumps(math.nan)))


@given(json_values)
def test_structures_round_trip(value):
    assert jsonio.loads(jsonio.dumps(value)) == value


@given(json_values)
def test_serialization_is_idempotent(value):
    once = jsonio.dumps(value)
    assert jsonio.dumps(jsonio.loads(once)) == once


def test_keys_are_sorted():
    text = jsonio.dumps({"b": 1, "a": 2, "c": 3})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_bools_are_not_confused_with_ints():
    assert jsonio.dumps(True) == "true"
    assert jsonio.dumps(1) == "1"
    assert jsonio.loads(jsonio.dumps([True, 1])) == [True, 1]


def test_unsupported_types_are_rejected():
    # a dataclass type (not an instance) is no record either
    for value in ({1, 2}, np.int64(3), np.zeros((2, 2), dtype=complex), _Inner):
        with pytest.raises(TypeError):
            jsonio.dumps({"v": value})
    with pytest.raises(TypeError):
        jsonio.dumps({1: "non-string key"})


@dataclasses.dataclass(frozen=True)
class _Inner:
    z: complex
    k: int


@dataclasses.dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    coeffs: np.ndarray
    worst: tuple[int, int] | None


def test_complex_values_and_dataclasses_write_as_their_explicit_form():
    z = np.array([complex(1.5, -0.0), complex(-0.0, 2.0), complex(1e-300, 3.0)])
    pairs = [[1.5, -0.0], [-0.0, 2.0], [1e-300, 3.0]]
    cases = [
        (1 + 2j, [1.0, 2.0]),
        (complex(-0.0, math.inf), [-0.0, math.inf]),
        (np.complex128(0.5 - 1j), [0.5, -1.0]),
        ([0j, 1j], [[0.0, 0.0], [0.0, 1.0]]),
        (z, pairs),
        (z[::2], pairs[::2]),  # not contiguous
        (np.array([], dtype=complex), []),
        (
            jsonio.Table({"z": z, "k": np.arange(3)}, present={"z": np.array([True, False, True])}),
            [{"k": 0, "z": pairs[0]}, {"k": 1}, {"k": 2, "z": pairs[2]}],
        ),
        (_Inner(1 - 1j, 4), {"z": [1.0, -1.0], "k": 4}),
        (
            _Outer("o", _Inner(1 - 1j, 4), z, (2, -3)),
            {"name": "o", "inner": {"z": [1.0, -1.0], "k": 4}, "coeffs": pairs, "worst": [2, -3]},
        ),
        (
            _Outer("e", _Inner(0j, 0), z[:0], None),
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


# -- bulk formatting and the table path -------------------------------------------


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


def _table(columns, present):
    """A table of the given columns and its list of dicts, built by hand as the oracle."""
    arrays = {
        key: np.array(col, dtype=np.int64 if key == "index" else (str if key == "tag" else float))
        for key, col in columns.items()
    }
    rows = {key: col.tolist() for key, col in arrays.items()}
    n = len(columns["tag"])
    records = [
        {key: col[i] for key, col in rows.items() if present.get(key, [True] * n)[i]}
        for i in range(n)
    ]
    return jsonio.Table(arrays, present=present), records


floats_with_edges = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 3.0, -25.0, 1e17, 5e-324]),
)


@given(st.data())
def test_table_path_matches_the_recursive_writer(data):
    n = data.draw(st.integers(0, 20))
    pairs = st.lists(st.lists(floats_with_edges, min_size=2, max_size=2), min_size=n, max_size=n)
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    columns = {
        "index": data.draw(st.lists(st.lists(st.integers(-99, 99), min_size=2, max_size=2),
                                    min_size=n, max_size=n)),
        "tag": data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)),
        "pos": data.draw(pairs),
        "delta": data.draw(pairs),
        "unit": data.draw(pairs),
        "w": data.draw(st.lists(floats_with_edges, min_size=n, max_size=n)),
    }
    present = {"delta": data.draw(masks), "unit": data.draw(masks)}
    table, records = _table(columns, present)
    assert jsonio.dumps({"points": table, "n": n}) == jsonio.dumps({"points": records, "n": n})


def test_table_path_across_row_blocks(monkeypatch):
    # blocks of 3 records: presence patterns change inside and across blocks
    monkeypatch.setattr(jsonio, "_ROW_BLOCK", 3)
    test_table_path_matches_the_recursive_writer()


def test_table_record_without_keys_is_an_empty_object():
    table = jsonio.Table({"a": [1.0, 2.0]}, present={"a": [True, False]})
    assert jsonio.dumps(table) == jsonio.dumps([{"a": 1.0}, {}])
    assert jsonio.dumps({"p": table}) == jsonio.dumps({"p": [{"a": 1.0}, {}]})
    assert jsonio.dumps(jsonio.Table({"a": [1.0, 2.0]}, present={"a": [False, False]})) == (
        jsonio.dumps([{}, {}])
    )


def test_table_keys_may_hold_percent_signs():
    table = jsonio.Table({"50%s": [1.0, 2.0], "%": [3, 4]}, present={"%": [False, True]})
    records = [{"50%s": 1.0}, {"50%s": 2.0, "%": 4}]
    assert jsonio.dumps(table) == jsonio.dumps(records)


def test_table_rejects_a_column_of_zero_width():
    with pytest.raises(ValueError, match="at least one column wide"):
        jsonio.Table({"b": np.zeros((2, 0))})
    with pytest.raises(ValueError, match="at least one column wide"):
        jsonio.Table({"b": np.zeros((2, 2, 2))})


def test_table_rejects_a_mask_without_a_column():
    with pytest.raises(ValueError, match=r"without a column: \['b'\]"):
        jsonio.Table({"a": [1.0, 2.0]}, present={"b": [True, False]})


def test_table_path_on_point_records():
    columns = {
        "index": [[0, 0], [1, 0], [1, 0], [2, -1]],
        "tag": ["A", "A", "B", "1"],
        "pos": [[0.0, 0.0], [1.0, -0.0], [1.5, 0.25], [2.0, -1.0]],
        "delta": [[-0.0, 0.0], [0.0, -0.0], [0.5, 0.25], [1e-300, -5e-324]],
        "unit": [[0.5, -0.5], [0.0, 1.0], [-1.0, 0.0], [0.3, 0.4]],
    }
    present = {"delta": [True, True, False, True], "unit": [False, True, True, False]}
    table, records = _table(columns, present)
    text = jsonio.dumps({"points": table})
    assert text == jsonio.dumps({"points": records})
    assert jsonio.dumps(table) == jsonio.dumps(records)  # at the top level too
    assert '"delta": [\n        -0.0,\n        0.0\n      ]' in text
    empty = jsonio.Table({"tag": np.array([], dtype=str), "pos": np.empty((0, 2))})
    assert jsonio.dumps({"points": empty}) == jsonio.dumps({"points": []})


def test_table_presence_bits_reach_the_last_of_63_columns():
    columns = {f"k{j:02d}": np.array([float(j), -float(j)]) for j in range(63)}
    present = {"k00": [False, True], "k62": [True, False]}
    records = [
        {key: float(col[i]) for key, col in columns.items() if present.get(key, [True, True])[i]}
        for i in range(2)
    ]
    assert jsonio.dumps(jsonio.Table(columns, present)) == jsonio.dumps(records)
    with pytest.raises(ValueError, match="at most 63 columns"):
        jsonio.Table({f"k{j:02d}": np.zeros(2) for j in range(64)})


@given(st.data())
def test_array_path_matches_the_list_of_lists_writer(data):
    shape = (data.draw(st.integers(0, 20)), data.draw(st.integers(0, 3)))
    values = st.one_of(floats_with_edges, st.sampled_from([math.inf, -math.inf, math.nan]))
    if data.draw(st.booleans()):
        values = st.integers(-(2**53), 2**53)
    rows = data.draw(st.lists(st.lists(values, min_size=shape[1], max_size=shape[1]),
                              min_size=shape[0], max_size=shape[0]))
    arr = np.array(rows).reshape(shape)
    assert jsonio.dumps({"points": arr, "n": 1}) == jsonio.dumps({"points": rows, "n": 1})
    assert jsonio.dumps([arr]) == jsonio.dumps([rows])


def test_array_path_across_row_blocks(monkeypatch):
    monkeypatch.setattr(jsonio, "_ROW_BLOCK", 3)
    test_array_path_matches_the_list_of_lists_writer()


def test_array_path_examples():
    arr = np.array([[-0.0, 3.0], [math.inf, math.nan], [1e17, 0.5]])
    assert jsonio.dumps({"p": arr}) == jsonio.dumps({"p": arr.tolist()})
    assert jsonio.dumps(np.empty((0, 2))) == "[]"
    assert jsonio.dumps(np.empty((2, 0))) == "[\n  [],\n  []\n]"
    with pytest.raises(TypeError):
        jsonio.dumps(np.zeros(3))  # only 2-D arrays stand for lists of lists


# -- the write path ----------------------------------------------------------------


def test_dump_path_calls_dumps_once_and_writes_its_text_and_a_newline(tmp_path, monkeypatch):
    # perfbench counts the bytes jsonio.dumps returns as the size of each artifact
    doc = {"points": np.arange(40.0).reshape(20, 2), "name": "window"}
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


def _point_table(n: int, rng) -> jsonio.Table:
    """``n`` records shaped like a point set's, with both offsets present on some."""
    return jsonio.Table(
        {
            "index": rng.integers(-200, 200, size=(n, 2)),
            "tag": rng.choice(np.array(["A", "B", "C"]), size=n),
            "pos": rng.normal(scale=50.0, size=(n, 2)),
            "delta": rng.normal(scale=1e-3, size=(n, 2)),
            "unit": rng.uniform(-1.0, 1.0, size=(n, 2)),
        },
        present={"delta": rng.random(n) < 0.3, "unit": rng.random(n) < 0.7},
    )


def test_dumps_of_a_large_table_peaks_near_twice_its_text():
    # the text and the blocks it is joined from are both alive at the end;
    # rendering every record at once peaked at 4.15 times the text
    rng = np.random.default_rng(3)
    table = _point_table(50_000, rng)
    jsonio.dumps(_point_table(10, rng))  # numpy's lazy imports outside the trace
    tracemalloc.start()
    try:
        text = jsonio.dumps({"points": table})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * len(text)


# -- the read path -----------------------------------------------------------------


def _bits(obj):
    """``obj`` with floats by their hex form and tables by their arrays' bytes.

    Two loads are equal bit for bit when their ``_bits`` are equal: signed
    zeros differ in hex, and ``True`` stays apart from ``1``.
    """
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, dict):
        return ("dict", [(key, _bits(value)) for key, value in obj.items()])
    if isinstance(obj, list):
        return ("list", [_bits(value) for value in obj])
    if isinstance(obj, jsonio.Table):
        arrays = lambda d: sorted((k, a.dtype.str, a.shape, a.tobytes()) for k, a in d.items())
        return ("table", arrays(obj.columns), arrays(obj.present))
    return (type(obj).__name__, obj)


def _parsed(text: str):
    """The load of ``text`` built from ``json.loads``: the oracle for ``load_path``."""
    doc = json.loads(text)
    points = doc.get("points") if isinstance(doc, dict) else None
    if points and isinstance(points[0], dict):
        doc["points"] = jsonio.Table.from_records(points)
    return doc


def _documents() -> dict[str, str]:
    """Small documents in four layouts, with values cut by some slice boundary at every size."""
    records = [
        {"index": [0, -1], "tag": "A", "pos": [1e-05, -0.0], "delta": [-0.0, 2.5e-300]},
        {"index": [12, 3], "tag": "b\"\\\n\u00e9", "pos": [1.5, -12000000000.0],
         "unit": [0.125, -1e20]},
        {"index": [-7, 0], "tag": "A", "pos": [-3.0, 1e-5], "delta": [1.0, -2.0]},
    ]
    docs = {
        "records": {
            "lattice": {"w1": [1.0, 0.0], "w2": [0.0, 1.0]},
            "meta": {"flags": [True, False, None], "note": "tab\t \"q\" \ud83d\ude00",
                     "rate": -1.5e-7, "n": 12},
            "points": records,
            "window_radius": 1e-5,
        },
        "plain": {"kind": "lines", "points": [[1e-05, -0.0], [2.5, 1e22]], "pitch": 0.5},
        "empty": {"points": [], "radius": -0.0, "ok": True},
    }
    rnd = random.Random(11)

    def shuffled(obj):
        if isinstance(obj, dict):
            keys = list(obj)
            rnd.shuffle(keys)
            return {k: shuffled(obj[k]) for k in keys}
        return [shuffled(v) for v in obj] if isinstance(obj, list) else obj

    texts = {}
    for name, doc in docs.items():
        texts[f"{name}-canonical"] = jsonio.dumps(doc)
        texts[f"{name}-compact"] = json.dumps(doc, separators=(",", ":"))
        texts[f"{name}-indent"] = json.dumps(doc, indent=2)
        texts[f"{name}-shuffled"] = json.dumps(shuffled(doc))
    # hand-written exponent forms json.dumps never writes
    texts["exponents"] = (
        '{"points": [{"index": [1, 2], "tag": "A", "pos": [1E+2, -2.5e-3]},'
        '{"index": [0, 0], "tag": "A", "pos": [12e0, -0e0]}], "x": 1.0e-1}'
    )
    return texts


def test_load_path_is_the_same_at_every_read_slice(tmp_path, monkeypatch):
    for name, text in _documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(text + "\n", encoding="ascii")
        want = _bits(jsonio.load_path(path))
        assert want == _bits(_parsed(text)), name
        for size in range(1, len(text) + 2):
            monkeypatch.setattr(jsonio, "_READ_SLICE", size)
            assert _bits(jsonio.load_path(path)) == want, (name, size)
        monkeypatch.undo()


def test_load_path_rejects_bad_text_at_every_read_slice(tmp_path, monkeypatch):
    good = _documents()["records-canonical"]
    bad = [
        good[:-1],  # no closing brace
        good[: good.index("1.0000000000000001e-05") + 4],  # inside a number
        good[: good.index('"tag"') + 3],  # inside a key
        good[: good.index("}", good.index('"points"')) + 1],  # after a record
        good.replace("},\n    {", "}\n    {", 1),  # records without a comma
        good.replace("\n    }\n  ]", "\n    },\n  ]"),  # a comma before the end of the list
        good.replace('"meta":', '"meta"', 1),  # a key without a colon
        good + " 1",  # extra data
        good.replace("true", "ture"),
        "",
        "[1.5",
    ]
    compact = json.dumps(json.loads(good), separators=(",", ":"))
    bad += [compact[:cut] for cut in range(0, len(compact), 7)]
    for k, text in enumerate(bad):
        path = tmp_path / f"bad{k}.json"
        path.write_text(text, encoding="ascii")
        for size in range(1, len(text) + 2):
            monkeypatch.setattr(jsonio, "_READ_SLICE", size)
            with pytest.raises(ValueError):
                jsonio.load_path(path)


def test_load_of_a_large_point_set_peaks_below_its_text(tmp_path):
    # the file is read in slices and never held whole; reading it whole as
    # bytes and as text, then decoding, peaked at 2.0 times the file
    from fockpr.lattice import Lattice
    from fockpr.pointset import IndexedPointSet

    n, rng = 50_001, np.random.default_rng(5)
    k = np.arange(n) // 3
    lattice = Lattice(1.0, 1.0j)
    table = _point_table(n, rng)
    table.columns["index"] = np.stack([k % 130 - 65, k // 130 - 65], axis=1)
    table.columns["tag"] = np.array(["A", "B", "C"] * (n // 3))
    path = tmp_path / "set.json"
    jsonio.dump_path({"lattice": lattice, "window_radius": 100.0, "points": table}, path)
    size = path.stat().st_size
    small = tmp_path / "small.json"
    head = jsonio.Table({key: col[:3] for key, col in table.columns.items()},
                        {key: mask[:3] for key, mask in table.present.items()})
    jsonio.dump_path({"lattice": lattice, "window_radius": 100.0, "points": head}, small)
    IndexedPointSet.from_json(jsonio.load_path(small))  # lazy imports outside the trace
    tracemalloc.start()
    try:
        ps = IndexedPointSet.from_json(jsonio.load_path(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ps) == n
    assert peak < 1.0 * size
