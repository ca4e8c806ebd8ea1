"""Indexed point sets over a lattice and their geometric certificates.

A point set stores one value per sample: its offset from the home
lattice point in units of the set's closeness budget
``s(home) = kappa_cap * exp(-gamma*|home|^2)``, a point ``unit`` of the
closed unit disk.  The budget's ``gamma`` and ``kappa_cap`` come from the
set's metadata; a set that records neither has the budget (0, 1), so its
``unit`` is the plain offset.  The offset ``delta = s(home) * unit`` and
the position ``pos = home + delta`` are derived where they are read.  For
Gaussian budgets both collapse in floating point (``delta`` underflows,
``pos`` rounds onto the lattice point) while ``unit`` and the budget stay
exact, so the certificates below work from them in log scale.  A set's
header is checked once, when the set is made, and its metadata is
read-only from then on.  Samples enter a set one at a time through
``add``, or all at once when ``from_json`` loads a document; either way
one vectorized check of the columns admits them, and the set holds them
in canonical (m, n, tag) order.  ``get`` is the one read of a single
sample, and every other read takes whole columns.

This module owns the point-set files too: their ``points`` are equally
long columns, read by one column reader.  A set's are ``m``, ``n``,
``tag``, ``unit_re`` and ``unit_im`` (:data:`POINT_COLUMNS`), one row per
sample in canonical (m, n, tag) order, and nothing derived; a plain
point array's (the ``lines`` artifact) are ``re`` and ``im``
(:data:`PLAIN_COLUMNS`).  :func:`points_from_json` reads either.

Certificates:

* ``certify_f_closeness`` -- least constant ``kappa`` with
  ``|p - home| <= kappa * exp(-gamma*|home|^2)`` for a tag family;
* ``angle_condition`` -- median triangle angle of each (A, B, C) triple
  against the weighted ratio ``|home| * exp(-beta*|home|^2) / angle``;
* ``separation`` -- minimal pairwise distance, found exactly by a
  sort-and-sweep along the axis of larger spread (numpy only); on a set
  also as ``log10_delta``, exact where positions collapse;
* ``density_estimate`` -- disk-count density with residuals;
* ``relative_separation_bound`` -- certified upper bound on points per
  unit disk.
"""

from __future__ import annotations

import io
import math
import struct
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .lattice import Lattice, LatticeIndex, finite_number

__all__ = [
    "PointEntry",
    "IndexedPointSet",
    "median_angle",
    "median_angles",
    "ClosenessReport",
    "AngleReport",
    "SeparationReport",
    "DensityReport",
    "certify_f_closeness",
    "angle_condition",
    "triple_vertices",
    "separation",
    "density_estimate",
    "relative_separation_bound",
    "sample_points",
    "sample_identities",
    "sample_tags",
    "points_from_json",
    "plain_to_json",
]

TRIPLE_TAGS = ("A", "B", "C")
# The symmetry maps of the plane that triples are built from, by the name a
# set's ``triple_fold`` metadata gives them; each is its own inverse.
FOLDS = {"conj": np.conj, "neg": np.negative, "negconj": lambda z: -np.conj(z)}
# the columns of a set's ``points``, each with what its values must be
POINT_COLUMNS = {
    "m": "integers",
    "n": "integers",
    "tag": "strings",
    "unit_re": "finite numbers",
    "unit_im": "finite numbers",
}
# the columns of a plain point array's ``points``
PLAIN_COLUMNS = {"re": "finite numbers", "im": "finite numbers"}

# points relative_separation_bound buckets together
_STENCIL_BLOCK = 1 << 10
# elements taken per Python list by _elementwise and to_csv, and same-home
# pairs whose offset logs _set_separation forms together
_ELEMENT_BLOCK = 1 << 12
# the bytes add appends for a row's (m, n) and for its unit's two parts
_INDEX_PAIR = struct.Struct("=qq")
_UNIT_PARTS = struct.Struct("=dd")


class PointEntry(NamedTuple):
    """One sample: its position, its offset from home, and that offset in budget units.

    ``unit`` is the stored value, a point of the closed unit disk; the
    offset ``delta = s(home) * unit`` and ``pos = home + delta`` are
    derived from it and the set's budget ``s``.  ``delta`` underflows to
    0 once the offset drops below about 1e-308; ``unit`` with the budget
    keeps Gaussian-small offsets exact in log scale.
    """

    pos: complex
    delta: complex
    unit: complex


class _Columns(NamedTuple):
    """One array per field, one row per sample."""

    m: np.ndarray
    n: np.ndarray
    tag: np.ndarray
    unit: np.ndarray


_NO_ROWS = _Columns(*(np.empty(0, dtype=t) for t in (np.int64, np.int64, str, complex)))


def _elementwise(f, values: np.ndarray) -> np.ndarray:
    """``f`` of every element of ``values``, as a float array, ``_ELEMENT_BLOCK`` at a time.

    ``f`` takes Python scalars and uses Python's ``abs``, ``math.exp``,
    ``math.log`` or ``math.atan2``: numpy's vector loops for these round
    the last bit differently per SIMD level, and artifact bytes must not.
    Only one block of elements is held as Python objects at a time.
    """
    out = np.empty(len(values))
    for start in range(0, len(values), _ELEMENT_BLOCK):
        out[start : start + _ELEMENT_BLOCK] = list(
            map(f, values[start : start + _ELEMENT_BLOCK].tolist())
        )
    return out


def _per_distinct(f, values: np.ndarray) -> np.ndarray:
    """:func:`_elementwise` of ``f``, with ``f`` called once per distinct value.

    ``np.unique`` merges values that compare equal (``0.0`` and ``-0.0``),
    so ``f`` must give them one result; the bytes are then those of the
    per-element loop.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    return _elementwise(f, distinct)[inverse]


def _log_abs(z: complex) -> float:
    """``log|z|``, and ``-inf`` at 0."""
    return math.log(abs(z)) if z != 0 else -math.inf


class IndexedPointSet:
    """Samples keyed by (lattice index, tag), stored as columns.

    One row per sample, held in canonical (m, n, tag) order: the lattice
    index ``(m, n)``, the ``tag`` and the offset ``unit`` in budget units
    (see the module docstring for what is derived from it).  :meth:`add`
    appends a row to typed buffers, one value per column and no Python
    object per row: the ``(m, n)`` pairs as int64 and the parts of
    ``unit`` as float64, each packed into a ``bytearray``, and a list of
    the tags.  The next column read wraps the buffers with
    ``np.frombuffer`` (no tag may end in NUL), joins them to the set's
    columns and checks the whole in one pass, the check :meth:`from_json`
    runs on a document: every home lies in the window, and one lexsort of
    the key columns puts the rows in canonical order and finds no
    repeated key.  :meth:`get` finds its row by one match over the key
    columns.  Every read (``points``, the certificates, ``to_json``,
    ``to_csv``) walks the rows in the held order, so a set reads the same
    whether its rows were added or loaded.

    The constructor is the one check of the header: ``window_radius`` is
    a finite positive number, and ``meta`` passes :func:`_checked_meta`.
    ``meta`` is held read-only, so the check holds for the set's life.

    The per-row values that the reads share, ``|home|^2``, ``log|unit|``
    and the budget ``s(home)``, are each formed once per column state
    (:meth:`_derived`).
    """

    def __init__(
        self, lattice: Lattice, window_radius: float, meta: Mapping = MappingProxyType({})
    ):
        if not (finite_number(window_radius) and window_radius > 0):
            raise ValueError(
                f"field 'window_radius' must be a finite positive number, got {window_radius!r}"
            )
        self.lattice = lattice
        self.window_radius = float(window_radius)
        self._meta = _checked_meta(meta)
        self._cols = _NO_ROWS
        self._added_index, self._added_tag, self._added_unit = bytearray(), [], bytearray()
        self._derivations: dict[tuple, np.ndarray] = {}

    @property
    def meta(self) -> Mapping:
        """The metadata, as checked when the set was made; read-only."""
        return self._meta

    # -- container ---------------------------------------------------------

    def add(self, index: tuple[int, int], tag: str, unit: complex) -> None:
        """Insert a sample at offset ``unit`` (in budget units) from its home point.

        The row is appended to the typed buffers, 40 bytes of them: ``(m,
        n)`` as two int64 values, ``unit`` as two float64 parts and a
        reference to ``tag``.  An index that is not a pair of int64 integers
        (``struct.error``), or a ``unit`` that is not a number, raises here,
        before any buffer grows.  The next column read checks the row with
        the rest (see :meth:`_columns`), so a tag that ends in NUL, a home
        outside the window or a repeated key raises there.
        """
        unit = complex(unit)
        self._added_index += _INDEX_PAIR.pack(index[0], index[1])
        self._added_unit += _UNIT_PARTS.pack(unit.real, unit.imag)
        self._added_tag.append(tag)

    def _load(self, cols: _Columns) -> None:
        """Take ``cols`` as the rows of this set, in canonical (m, n, tag) order, after checking them.

        Every home must lie in the window and no key (m, n, tag) may
        repeat.  One stable lexsort of the key columns orders the rows and
        brings equal keys together; the error names the first repeating row
        of ``cols``.  Columns already in canonical order (a file that
        :meth:`to_json` wrote) are kept as they are, not copied.  The held
        columns are read-only, as :meth:`to_json` hands them out.
        """
        homes = self.lattice.point((cols.m, cols.n))
        outside = np.flatnonzero(np.abs(homes) > self.window_radius + 1e-9)
        if outside.size:
            i = outside[0]
            index = (int(cols.m[i]), int(cols.n[i]))
            raise ValueError(f"home point {complex(homes[i])} of index {index} outside window")
        del homes
        order = np.lexsort((cols.tag, cols.n, cols.m))
        held = cols if (order[1:] > order[:-1]).all() else _Columns(*(c[order] for c in cols))
        m, n, tag = held.m, held.n, held.tag
        repeats = (m[1:] == m[:-1]) & (n[1:] == n[:-1]) & (tag[1:] == tag[:-1])
        if repeats.any():
            i = int(order[1:][repeats].min())
            index = (int(cols.m[i]), int(cols.n[i]))
            raise ValueError(f"duplicate entry for index {index} tag {str(cols.tag[i])!r}")
        for column in held:
            column.flags.writeable = False
        self._cols = held
        self._derivations = {}

    def _columns(self) -> _Columns:
        """The columns, with the rows added since the last read joined and checked in one step.

        The buffers are emptied only once the joined columns pass
        :meth:`_load`'s check, so a bad row raises again at every later read.
        """
        if self._added_tag:
            _reject_nul_ends(self._added_tag, "tag", len(self._cols.m))
            self._load(self._joined())
            self._added_index, self._added_tag, self._added_unit = bytearray(), [], bytearray()
        return self._cols

    def _joined(self) -> _Columns:
        """The columns followed by the buffered rows, as new arrays.

        The buffers are read in place through ``np.frombuffer``; those views
        end with this call, so a failed check leaves the buffers free to grow.
        """
        index = np.frombuffer(self._added_index, dtype=np.int64).reshape(-1, 2)
        added = (
            index[:, 0],
            index[:, 1],
            np.array(self._added_tag, dtype=str),
            np.frombuffer(self._added_unit, dtype=complex),
        )
        return _Columns(*map(np.concatenate, zip(self._cols, added)))

    def _rows(self, tags: Sequence[str] | None = None) -> np.ndarray | slice:
        """Rows carrying one of ``tags`` (all rows for None), in the held canonical order.

        ``slice(None)`` where that is every row, so that reads through it
        take views of the columns, not copies.
        """
        c = self._columns()
        if tags is None:
            return slice(None)
        rows = np.isin(c.tag, list(tags))
        return slice(None) if rows.all() else np.flatnonzero(rows)

    def _entries(self, rows: np.ndarray) -> list[PointEntry]:
        homes, deltas = self._placed(rows)
        units = self._columns().unit[rows]
        return list(map(PointEntry, (homes + deltas).tolist(), deltas.tolist(), units.tolist()))

    def __len__(self) -> int:
        return len(self._cols.m) + len(self._added_tag)

    def get(self, index: tuple[int, int], tag: str) -> PointEntry:
        """The sample of key (index, tag), found by one match over the key columns."""
        c, m, n = self._columns(), int(index[0]), int(index[1])
        rows = np.flatnonzero((c.m == m) & (c.n == n) & (c.tag == tag))
        if not rows.size:
            raise KeyError((LatticeIndex(m, n), tag))
        return self._entries(rows)[0]

    def tags(self) -> list[str]:
        return sorted(set(self._columns().tag.tolist()))

    def points(self, tags: Sequence[str] | None = None) -> np.ndarray:
        """Positions ``home + delta`` as a complex array, canonically ordered by (m, n, tag)."""
        homes, deltas = self._placed(self._rows(tags))
        return homes + deltas

    def budget(self) -> tuple[float, float]:
        """``(gamma, kappa_cap)`` of the set's metadata, checked when the set was made;
        (0, 1) when it records neither."""
        gamma = self.meta.get("gamma")
        return (0.0, 1.0) if gamma is None else (gamma, self.meta["kappa_cap"])

    def _homes(self, rows: np.ndarray | slice) -> np.ndarray:
        """Home lattice points of ``rows``."""
        c = self._columns()
        return self.lattice.point((c.m[rows], c.n[rows]))

    def _derived(self, key: tuple, make) -> np.ndarray:
        """The per-row column ``make(columns)``, formed once per column state and ``key``.

        Reading the columns joins any rows added since (see :meth:`_columns`),
        and :meth:`_load` drops every derived column, so the next read
        forms it anew.
        """
        c = self._columns()
        if key not in self._derivations:
            column = make(c)
            column.flags.writeable = False  # every read shares it
            self._derivations[key] = column
        return self._derivations[key]

    def _home_norms(self) -> np.ndarray:
        """``|home|^2`` of every row."""
        return self._derived(
            ("|home|^2",),
            lambda c: _elementwise(lambda h: abs(h) ** 2, self.lattice.point((c.m, c.n))),
        )

    def _budgets(self) -> np.ndarray:
        """The budget ``kappa_cap * exp(-gamma*|home|^2)`` of every row (0 on underflow),
        formed once per distinct ``|home|^2``."""
        gamma, kappa_cap = self.budget()
        return self._derived(
            ("s(home)",),
            lambda c: _per_distinct(lambda h: kappa_cap * math.exp(-gamma * h), self._home_norms()),
        )

    def _placed(self, rows: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        """Home points of ``rows`` and their offsets ``delta = s(home) * unit``.

        ``delta`` scales the real and imaginary part of ``unit`` apart: a
        complex product would add ``0 * unit`` terms whose signed zeros
        depend on numpy's SIMD loop.
        """
        homes, units = self._homes(rows), self._columns().unit[rows]
        s, deltas = self._budgets()[rows], np.empty_like(units)
        deltas.real, deltas.imag = s * units.real, s * units.imag
        return homes, deltas

    def _log_offsets(self, rows: np.ndarray, units: np.ndarray | None = None) -> np.ndarray:
        """Natural log of the offset magnitude of each of ``rows``, or of ``units`` at their homes.

        The magnitude ``kappa_cap * |unit| * exp(-gamma*|home|^2)`` is taken
        in the log domain, so it stays exact where the offset underflows.
        """
        gamma, kappa_cap = self.budget()
        if units is None:
            logs = self._derived(("log|unit|",), lambda c: _elementwise(_log_abs, c.unit))[rows]
        else:
            logs = _elementwise(_log_abs, units)
        return (math.log(kappa_cap) + logs) - gamma * self._home_norms()[rows]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """The artifact document; its ``points`` are the columns of :data:`POINT_COLUMNS`.

        Each column is an array with one row per sample, in canonical
        order, which :func:`jsonio.dumps` writes as a list: the set's own
        read-only columns, not copies.  The offset ``unit`` is split into
        ``unit_re`` and ``unit_im``, views of its parts; ``pos`` and
        ``delta`` are not written, as the set derives them where read.
        """
        c = self._columns()
        points = {"m": c.m, "n": c.n, "tag": c.tag, "unit_re": c.unit.real, "unit_im": c.unit.imag}
        out: dict = {
            "lattice": self.lattice,
            "window_radius": self.window_radius,
            "points": points,
        }
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "IndexedPointSet":
        """Set from a parsed artifact document, as :func:`jsonio.load_path` gives it.

        A missing ``lattice``, ``window_radius`` or ``points`` is an error
        that names the field.  The header is checked as the set is made (see
        the class docstring).  The points are the columns of
        :data:`POINT_COLUMNS`, read by :func:`_read_columns`: integers ``m``
        and ``n`` (integral floats count), strings ``tag``, and finite
        numbers ``unit_re`` and ``unit_im``.  Every home lies in the window
        and no (index, tag) repeats, which one lexsort of the key columns
        checks, and ``meta.sample_tags`` names only tags the set holds.
        """
        lat = _field(data, "lattice")
        if not isinstance(lat, Lattice):
            lat = Lattice.from_json(lat)
        ps = cls(lat, _field(data, "window_radius"), meta=data.get("meta", {}))
        cols = _read_columns(_field(data, "points"), POINT_COLUMNS)
        unit = _complex(cols.pop("unit_re"), cols.pop("unit_im"))
        ps._load(_Columns(cols["m"], cols["n"], cols["tag"], unit))
        tags = sample_tags(ps)
        if tags is not None and not set(tags) <= set(ps.tags()):
            raise ValueError(
                f"field 'meta.sample_tags' must name one or more of the set's tags"
                f" {ps.tags()}, got {list(tags)!r}"
            )
        return ps

    def to_csv(self, path) -> None:
        """Rows ``m,n,tag,re,im`` of the positions, with 17-significant-digit floats.

        The rows are written in the held order, ``_ELEMENT_BLOCK`` at a time,
        each block by one fill of a row template, so only one block of them
        is held as Python objects and text.  Each distinct tag of a block is
        quoted once, as ``csv.writer`` writes it (:func:`_csv_fields`), and
        its rows share that string.
        """
        c = self._columns()
        with open(path, "w", newline="") as fh:
            fh.write("m,n,tag,re,im\r\n")
            for start in range(0, len(c.m), _ELEMENT_BLOCK):
                block = slice(start, start + _ELEMENT_BLOCK)
                homes, deltas = self._placed(block)
                pos = homes + deltas
                distinct, inverse = np.unique(c.tag[block], return_inverse=True)
                cells = np.empty((len(pos), 5), dtype=object)
                cells[:, 0], cells[:, 1] = c.m[block], c.n[block]
                cells[:, 2] = np.array(_csv_fields(distinct.tolist()), dtype=object)[inverse]
                cells[:, 3], cells[:, 4] = pos.real, pos.imag
                fh.write("%d,%d,%s,%.17g,%.17g\r\n" * len(pos) % tuple(cells.ravel().tolist()))


def _csv_fields(tags: list[str]) -> list[str]:
    """Each of ``tags`` as ``csv.writer`` writes it as the third field of a row of five.

    The row is as wide as a row of :meth:`IndexedPointSet.to_csv`, so the
    writer quotes the tag by the same rule (a lone empty field, for one,
    is quoted where one of five is not).
    """
    import csv  # only to_csv writes csv; not loaded by every run

    fields = []
    for tag in tags:
        buf = io.StringIO()
        csv.writer(buf).writerow(("", "", tag, "", ""))
        fields.append(buf.getvalue()[2:-4])  # drop ",," before and ",,\r\n" after
    return fields


def _field(data: Mapping, key: str):
    """``data[key]``; a document without it is an error that names the field."""
    if key not in data:
        raise ValueError(f"field {key!r} is missing")
    return data[key]


def _checked_meta(meta) -> Mapping:
    """``meta`` as a read-only mapping, after checking the fields a set reads.

    ``meta`` is an object.  Its ``gamma`` and ``kappa_cap`` are both absent
    or lie where the generators put them, ``0 < gamma < inf`` and ``0 <
    kappa_cap <= 1``.  Where present, ``sample_tags`` is a list of one or
    more distinct strings, held as a tuple, and ``triple_fold`` an object
    mapping tags to names of ``FOLDS``, held read-only.
    """
    if not isinstance(meta, Mapping):
        raise ValueError(f"field 'meta' must be an object, got {type(meta).__name__}")
    meta = dict(meta)
    gamma, kappa_cap = meta.get("gamma"), meta.get("kappa_cap")
    if (gamma is None) != (kappa_cap is None):
        given = "gamma" if kappa_cap is None else "kappa_cap"
        raise ValueError(
            f"set metadata gives {given!r} alone; the closeness budget needs both"
            " 'gamma' and 'kappa_cap', or neither"
        )
    if gamma is not None and not (
        finite_number(gamma) and gamma > 0 and finite_number(kappa_cap) and 0 < kappa_cap <= 1
    ):
        raise ValueError(
            f"set metadata must give 0 < gamma < inf and 0 < kappa_cap <= 1,"
            f" got gamma = {gamma!r}, kappa_cap = {kappa_cap!r}"
        )
    if "sample_tags" in meta:
        tags = meta["sample_tags"]
        if not (
            isinstance(tags, (list, tuple))
            and tags
            and all(isinstance(t, str) for t in tags)
            and len(set(tags)) == len(tags)
        ):
            raise ValueError(
                f"field 'meta.sample_tags' must be a list of one or more distinct strings,"
                f" got {tags!r}"
            )
        meta["sample_tags"] = tuple(tags)
    if "triple_fold" in meta:
        folds = meta["triple_fold"]
        if not (
            isinstance(folds, Mapping)
            and all(isinstance(name, str) and name in FOLDS for name in folds.values())
        ):
            raise ValueError(
                f"field 'meta.triple_fold' must map tags to names in {sorted(FOLDS)}, got {folds!r}"
            )
        meta["triple_fold"] = MappingProxyType(dict(folds))
    return MappingProxyType(meta)


def _read_columns(points, spec: Mapping[str, str]) -> dict[str, np.ndarray]:
    """The columns that ``spec`` names, each taken out of ``points`` and read by :func:`_column`.

    ``points`` must be an object holding every column of ``spec`` as a
    list, all of one length: the error names a column that lacks a row and
    the first row it lacks.  A list is the per-sample layout of older files
    (records of a set, ``[re, im]`` pairs of a plain point array), which
    must be generated anew.  Each list is popped out of ``points`` as it is
    read, so the parsed lists are let go one at a time.
    """
    if isinstance(points, list):
        raise ValueError("field 'points' holds per-record samples; regenerate the set")
    if not isinstance(points, dict):
        raise ValueError(f"field 'points' must be an object of columns, got {type(points).__name__}")
    for key in spec:
        if key not in points:
            raise ValueError(f"field 'points' lacks the column {key!r}")
        if not isinstance(points[key], list):
            raise ValueError(f"column {key!r} of field 'points' must be a list")
    rows = {key: len(points[key]) for key in spec}
    short, long = min(rows, key=rows.get), max(rows, key=rows.get)
    if rows[short] != rows[long]:
        raise ValueError(
            f"point row {rows[short]}: column {short!r} lacks it,"
            f" while column {long!r} has {rows[long]} rows"
        )
    return {key: _column(points.pop(key), key, want) for key, want in spec.items()}


def _converts(value, dtype) -> bool:
    """Whether the int or float ``value`` converts to ``dtype`` without overflow."""
    try:
        dtype(value)
    except OverflowError:
        return False
    return True


def _column(values: list, key: str, want: str) -> np.ndarray:
    """Column ``key`` as an array, after checking that ``values`` are all ``want``.

    ``"integers"`` give an int64 array, ``"strings"`` a str array and
    ``"finite numbers"`` a float array (bit-exact, signed zeros included).
    A value of the wrong type or outside the column's domain, or a string
    that ends in NUL, is an error naming the first row that holds one.
    """
    allowed = {str} if want == "strings" else {int, float}
    kinds = set(map(type, values))
    dtype = str if want == "strings" else np.int64 if kinds <= {int} else float
    try:
        col = np.array(values, dtype=dtype) if kinds <= allowed else None
    except OverflowError:  # an int beyond the dtype; the scan below finds it
        col = None
    if col is not None and want == "strings":
        _reject_nul_ends(values, key)
    if col is not None and col.dtype.kind != "f":
        return col
    if col is not None:
        bad = ~np.isfinite(col)
        if want == "integers":
            bad |= (np.floor(col) != col) | (np.abs(col) >= 2.0**63)
        if not bad.any():
            return col.astype(np.int64) if want == "integers" else col
        row = int(np.argmax(bad))
    else:
        row = next(
            i for i, v in enumerate(values) if type(v) not in allowed or not _converts(v, dtype)
        )
    raise ValueError(f"point row {row}: column {key!r} must hold {want}, got {values[row]!r}")


def _reject_nul_ends(values: Sequence, key: str, offset: int = 0) -> None:
    """Raise on the first of ``values`` that ends in NUL, naming its row, ``offset`` on:
    a numpy str array drops trailing NULs, so it would hold that tag as another."""
    if any(str(v).endswith("\0") for v in set(values)):
        row = next(i for i, v in enumerate(values) if str(v).endswith("\0"))
        raise ValueError(
            f"point row {offset + row}: column {key!r} must hold strings that do not end"
            f" in NUL, got {values[row]!r}"
        )


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex column of parts ``re`` and ``im``, bit-exact (signed zeros included)."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def points_from_json(data) -> IndexedPointSet | np.ndarray:
    """The set or the plain point array that a parsed artifact document holds.

    A document with a ``lattice`` is a set (:meth:`IndexedPointSet.from_json`);
    any other document with ``points`` is a plain point array, whose
    ``points`` are the columns of :data:`PLAIN_COLUMNS`.
    """
    if isinstance(data, dict) and "lattice" in data:
        return IndexedPointSet.from_json(data)
    if not (isinstance(data, dict) and "points" in data):
        raise ValueError("not a recognized point-set artifact")
    cols = _read_columns(data["points"], PLAIN_COLUMNS)
    return _complex(cols["re"], cols["im"])


def plain_to_json(points: np.ndarray, **header) -> dict:
    """The artifact document of the plain point array ``points``: the fields of
    ``header`` beside ``points``, the columns of :data:`PLAIN_COLUMNS`."""
    return {**header, "points": {"re": points.real, "im": points.imag}}


# -- triangle angles ---------------------------------------------------------


def median_angles(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, exact: bool = True
) -> np.ndarray:
    """Median interior angle of the triangles (a, b, c), elementwise.

    Degenerate triangles (collinear or with coincident vertices) yield 0.
    Each vertex angle is ``math.atan2`` per element, the same bits on every
    machine.  ``exact=False`` takes numpy's ``arctan2`` loop on the same
    parts instead: much faster, but its last bit depends on the SIMD level,
    so a median may differ from the exact one by a few ulp (well below 1e-13).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)

    def vertex_angle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # conj(u) * v from real parts, so that no complex loop of numpy's
        # moves the last bit
        re = u.real * v.real + u.imag * v.imag
        im = np.abs(u.real * v.imag - u.imag * v.real)
        # a vanishing arm must give 0, not atan2(+0, -0.0) = pi
        if not exact:
            return np.where((re == 0) & (im == 0), 0.0, np.arctan2(im, re))
        w = np.empty(len(u), dtype=complex)
        w.real, w.imag = re, im
        return _elementwise(lambda z: 0.0 if z == 0 else math.atan2(z.imag, z.real), w)

    ang_a = vertex_angle(b - a, c - a)
    ang_b = vertex_angle(a - b, c - b)
    ang_c = vertex_angle(a - c, b - c)
    total = ang_a + ang_b + ang_c
    hi = np.maximum(np.maximum(ang_a, ang_b), ang_c)
    lo = np.minimum(np.minimum(ang_a, ang_b), ang_c)
    return total - hi - lo


def median_angle(a: complex, b: complex, c: complex) -> float:
    return float(median_angles(np.array([a]), np.array([b]), np.array([c]))[0])


# -- certificates -------------------------------------------------------------


class ClosenessReport(NamedTuple):
    gamma: float
    tag: str
    kappa: float
    log_kappa: float
    worst_index: tuple[int, int] | None
    count: int
    window_radius: float
    passed: bool


def certify_f_closeness(
    ps: IndexedPointSet, gamma: float, tag: str, kappa_cap: float | None = None
) -> ClosenessReport:
    """Least ``kappa`` with ``|offset| <= kappa * exp(-gamma*|home|^2)`` on a tag family.

    Computed in the log domain so that Gaussian-small offsets at large
    home points neither underflow nor overflow.  ``passed`` means the
    constant is finite, and additionally at most ``kappa_cap`` when a cap
    is supplied.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    c = ps._columns()
    rows = np.flatnonzero(c.tag == tag)
    if not rows.size:
        raise ValueError(f"no entries with tag {tag!r}")
    log_terms = ps._log_offsets(rows) + gamma * ps._home_norms()[rows]
    best = int(np.argmax(log_terms))
    log_kappa = float(log_terms[best])
    kappa = math.exp(log_kappa) if log_kappa < 709.0 else math.inf
    if log_kappa == -math.inf:
        kappa, worst = 0.0, None
    else:
        worst = (int(c.m[rows[best]]), int(c.n[rows[best]]))
    passed = math.isfinite(kappa)
    if kappa_cap is not None:
        passed = passed and kappa <= kappa_cap * (1.0 + 1e-12)
    return ClosenessReport(
        gamma=gamma,
        tag=tag,
        kappa=kappa,
        log_kappa=log_kappa,
        worst_index=worst,
        count=len(rows),
        window_radius=ps.window_radius,
        passed=passed,
    )


class AngleReport(NamedTuple):
    beta: float
    theta_min: float
    sup_ratio: float
    worst_index: tuple[int, int] | None
    count: int
    window_radius: float
    passed: bool


def triple_vertices(ps: IndexedPointSet) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B, C) triples of the set as ``(indices, vertices)``.

    ``indices`` is the (k, 2) array of the triples' lattice indices in
    (m, n) order; ``vertices[i]`` holds the unit offsets of the A, B and C
    vertex of triple ``i``.  The three share one home and so one budget,
    so they span a triangle similar to the true one.  A set whose tags are
    emitted at symmetric images of one frame point names in
    ``meta["triple_fold"]`` the map of each tag (see ``FOLDS``); that map
    is applied to the home and ``unit`` of the tag's samples alike before
    they are grouped.  An index carrying only part of the triple is an
    error.
    """
    c = ps._columns()
    rows = np.flatnonzero(np.isin(c.tag, TRIPLE_TAGS))
    if not rows.size:
        raise ValueError("set has no A/B/C entries")
    tag, m, n, unit = c.tag[rows], c.m[rows], c.n[rows], c.unit[rows]
    for t, name in ps.meta.get("triple_fold", {}).items():
        fold, mine = FOLDS[name], tag == t
        home = fold(ps.lattice.point((m[mine], n[mine])))
        m[mine], n[mine] = ps.lattice.indices_of(home).T
        unit[mine] = fold(unit[mine])
    # the distinct indices in (m, n) order, and the slot of each sample's among them
    order = np.lexsort((n, m))
    first = _run_starts(m[order], n[order])
    indices = np.stack([m[order[first]], n[order[first]]], axis=1)
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = np.cumsum(first) - 1
    # triple[i, t]: sample of index i with tag TRIPLE_TAGS[t], or -1
    triple = np.full((len(indices), len(TRIPLE_TAGS)), -1)
    for t, name in enumerate(TRIPLE_TAGS):
        mine = np.flatnonzero(tag == name)
        triple[slot[mine], t] = mine
    incomplete = np.flatnonzero((triple < 0).any(axis=1))
    if incomplete.size:
        i = incomplete[0]
        missing = [name for t, name in enumerate(TRIPLE_TAGS) if triple[i, t] < 0]
        raise ValueError(f"index {tuple(indices[i].tolist())} is missing triple tags {missing}")
    return indices, unit[triple]


def angle_condition(ps: IndexedPointSet, beta: float) -> AngleReport:
    """Median-angle condition over all (A, B, C) triples of the set.

    For each triple of :func:`triple_vertices` the median interior angle
    ``theta`` of the triangle is computed from the stored unit offsets
    (exact even when positions collapse in floating point) and compared
    against the weight: ``ratio = |home| * exp(-beta*|home|^2) / theta``.
    Conventions: home == 0 contributes ratio 0 regardless of the angle; a
    degenerate triangle at home != 0 contributes ratio +inf.  An index
    carrying only part of the triple is an error, as is a window smaller
    than ``4/sqrt(beta)`` (too small to contain the extremal region of
    the weight).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if ps.window_radius < 4.0 / math.sqrt(beta):
        raise ValueError(
            f"window radius {ps.window_radius} below 4/sqrt(beta) = {4.0 / math.sqrt(beta)}"
        )
    indices, verts = triple_vertices(ps)
    thetas = median_angles(verts[:, 0], verts[:, 1], verts[:, 2])
    radii = [abs(h) for h in ps.lattice.point((indices[:, 0], indices[:, 1])).tolist()]
    ratios = np.array(
        [
            0.0 if r == 0.0 else (math.inf if theta == 0.0 else r * math.exp(-beta * r * r) / theta)
            for r, theta in zip(radii, thetas.tolist())
        ]
    )
    # first maximum in (m, n) order
    best = int(np.argmax(ratios))
    theta_min = float(np.min(thetas))
    sup_ratio = float(ratios[best])
    worst = (int(indices[best, 0]), int(indices[best, 1]))
    return AngleReport(
        beta=beta,
        theta_min=theta_min,
        sup_ratio=sup_ratio,
        worst_index=worst,
        count=len(indices),
        window_radius=ps.window_radius,
        passed=math.isfinite(sup_ratio),
    )


class SeparationReport(NamedTuple):
    delta: float
    log10_delta: float
    pair: tuple[complex, complex]
    count: int


def _as_points(obj) -> np.ndarray:
    """Positions of a point array, or of a set's samples (:func:`sample_points`)."""
    if isinstance(obj, IndexedPointSet):
        return sample_points(obj)
    return np.asarray(obj, dtype=complex).ravel()


def _log10(x: float) -> float:
    return math.log10(x) if x > 0.0 else -math.inf


def separation(obj: IndexedPointSet | np.ndarray) -> SeparationReport:
    """Minimal pairwise distance over the points (coincidences give 0).

    An exact sort-and-sweep (:func:`_sweep`) over the positions gives
    ``delta``, with ``log10_delta = log10(delta)``; ``pair`` is the first
    point (in the order of the input) that has a partner at ``delta``, and
    its lowest-row partner there.

    On a set, the points are its samples (:func:`sample_points`), and
    pairs that share a home are measured apart from the rest.  Their
    distance is ``s(home) * |u_i - u_j|``; ``log10_delta`` takes it in
    log scale from the stored unit offsets, so it stays exact where the
    positions collapse in floating point.  The other pairs are swept over
    the derived positions.  ``delta`` is the least float distance between
    positions, the value the sweep over all samples gives; ``pair`` is
    the pair that attains ``log10_delta``, the lower (first row, partner)
    on a tie.
    """
    if isinstance(obj, IndexedPointSet):
        return _set_separation(obj)
    pts = _checked(np.asarray(obj, dtype=complex).ravel())
    delta, i, j = _sweep(pts)
    return SeparationReport(delta, _log10(delta), (complex(pts[i]), complex(pts[j])), len(pts))


def _checked(pts: np.ndarray) -> np.ndarray:
    if len(pts) < 2:
        raise ValueError("separation needs at least two points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("separation needs finite positions")
    return pts


def _set_separation(ps: IndexedPointSet) -> SeparationReport:
    rows = ps._rows(sample_tags(ps))
    homes, deltas = ps._placed(rows)
    pts = _checked(homes + deltas)
    del homes, deltas
    c = ps._columns()
    m, n = c.m[rows], c.n[rows]
    rows = np.arange(len(c.m))[rows]  # row numbers, as rows[pa] reads them
    # canonical order puts the samples of one home next to each other
    home = np.cumsum(_run_starts(m, n))
    del m, n
    a, b = _same_home_pairs(home)
    # pairs of one home are not swept, so of a home's samples at one position
    # (collapsed onto it) the first stands for all
    keep = np.ones(len(pts), dtype=bool)
    keep[b[pts[a] == pts[b]]] = False
    keep = np.flatnonzero(keep)
    between, i, j = _sweep(pts[keep], home[keep])
    del home
    best = (_log10(between), int(keep[i]), int(keep[j]))
    del keep
    delta = between
    for start in range(0, len(a), _ELEMENT_BLOCK):
        pa, pb = a[start : start + _ELEMENT_BLOCK], b[start : start + _ELEMENT_BLOCK]
        du, dv = pts.real[pa] - pts.real[pb], pts.imag[pa] - pts.imag[pb]
        delta = min(delta, float(np.sqrt(du * du + dv * dv).min()))
        logs = ps._log_offsets(rows[pa], c.unit[rows[pa]] - c.unit[rows[pb]]) / math.log(10.0)
        w = int(np.argmin(logs))
        best = min(best, (float(logs[w]), int(pa[w]), int(pb[w])))
    log10_delta, i, j = best
    return SeparationReport(delta, log10_delta, (complex(pts[i]), complex(pts[j])), len(pts))


def _run_starts(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Whether each row of sorted index columns starts a run of equal ``(m, n)``."""
    return np.r_[True, (m[1:] != m[:-1]) | (n[1:] != n[:-1])]


def _same_home_pairs(home: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``a < b`` of rows with one home id (ids in runs), in (a, b) order."""
    none = np.empty(0, dtype=np.int64)
    a = [np.flatnonzero(home[k:] == home[:-k]) for k in range(1, np.bincount(home).max())]
    a, b = np.concatenate([none, *a]), np.concatenate([none, *(r + k for k, r in enumerate(a, 1))])
    order = np.lexsort((b, a))
    return a[order], b[order]


def _sweep(pts: np.ndarray, home: np.ndarray | None = None) -> tuple[float, int, int]:
    """Least distance between ``pts`` as ``(delta, i, j)``, skipping pairs of one ``home`` id.

    The points are sorted along the axis of larger spread (then across
    it), and sorted row ``r`` is compared with row ``r + k`` for ``k = 1,
    2, ...`` until no later row can come closer than the smallest
    distance so far.  Later rows lie at least the gap along the axis
    away, and, while they share the row's value along it, at least the
    gap across it.  Distances are ``sqrt(dx*dx + dy*dy)``, the sum a k-d
    tree forms, so ``delta`` is exact.  ``i`` is the first row (in the
    order of ``pts``) that has a partner at ``delta`` and ``j`` its
    lowest-row partner there.  With no pair left, ``delta`` is infinite
    and ``i = j = 0``.
    """
    u, v = pts.real, pts.imag
    if np.ptp(v) > np.ptp(u):
        u, v = v, u
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    if home is not None:
        home = home[order]
    # gap from each row to the next larger value along the sort axis
    run_gap = np.append(u, math.inf)[np.searchsorted(u, u, side="right")] - u
    best = math.inf
    near: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    rows, k = np.arange(len(pts) - 1), 1
    while rows.size:
        du, dv = u[rows + k] - u[rows], v[rows + k] - v[rows]
        dist = np.sqrt(du * du + dv * dv)
        if home is not None:
            dist[home[rows] == home[rows + k]] = math.inf
        best = min(best, float(dist.min()))
        close = dist <= best
        near.append((rows[close], rows[close] + k, dist[close]))
        # later partners lie at least the gap along the sort axis away; while
        # they share the row's value along it, at least the gap across it or,
        # past that run, the gap to the next value.  The bound is rounded the
        # way a distance is, so it never exceeds a distance it bounds.
        reach = np.where(du == 0.0, np.minimum(np.abs(dv), run_gap[rows]), du)
        rows = rows[(np.sqrt(reach * reach) <= best) & (rows + k + 1 < len(pts))]
        k += 1
    if best == math.inf:
        return best, 0, 0
    a, b, dist = (np.concatenate(col) for col in zip(*near))
    a, b = order[a[dist == best]], order[b[dist == best]]
    i = int(min(a.min(), b.min()))
    j = int(np.concatenate([b[a == i], a[b == i]]).min())
    return best, i, j


class DensityReport(NamedTuple):
    center: complex
    radii: tuple[float, ...]
    counts: tuple[int, ...]
    estimates: tuple[float, ...]
    fitted_density: float
    max_residual: float


def density_estimate(
    obj: IndexedPointSet | np.ndarray,
    center: complex = 0j,
    radii: Sequence[float] = (),
) -> DensityReport:
    """Disk-count density estimates ``#(|p - center| <= r) / (pi r^2)``.

    The fitted density is the estimate at the largest radius; residuals
    of the smaller radii against it quantify boundary effects.  Radii
    reaching outside a set's window would count into truncated territory
    and are rejected.
    """
    if not radii:
        raise ValueError("need at least one radius")
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if isinstance(obj, IndexedPointSet):
        reach = max(abs(complex(center)) + r for r in radii)
        if reach > obj.window_radius + 1e-9:
            raise ValueError(
                f"density disk (reach {reach}) exceeds window radius {obj.window_radius}"
            )
    pts = _as_points(obj)
    dist = np.abs(pts - complex(center)) if len(pts) else np.empty(0)
    counts = tuple(int(np.count_nonzero(dist <= r)) for r in radii)
    estimates = tuple(c / (math.pi * r * r) for c, r in zip(counts, radii))
    fitted = estimates[int(np.argmax(radii))]
    max_residual = max(abs(e - fitted) for e in estimates)
    return DensityReport(
        center=complex(center),
        radii=radii,
        counts=counts,
        estimates=estimates,
        fitted_density=fitted,
        max_residual=max_residual,
    )


def relative_separation_bound(obj: IndexedPointSet | np.ndarray) -> int:
    """Certified upper bound on the number of points in any closed unit disk.

    Checks disks of radius 1.25 on a pitch-0.25 grid covering the points;
    any unit disk is contained in one of them, so the grid maximum bounds
    the true supremum (coarsely: for the integer grid the bound is at
    most 9 while the exact supremum is 5).  Each point is bucketed into
    the grid cell it falls in, and counted at every center of the fixed
    stencil of cells around it that lies within the disk radius.
    """
    pts = _as_points(obj)
    if len(pts) == 0:
        return 0
    pitch, reach = 0.25, 1.25
    xs = np.arange(pts.real.min() - 1.0, pts.real.max() + 1.0 + pitch, pitch)
    ys = np.arange(pts.imag.min() - 1.0, pts.imag.max() + 1.0 + pitch, pitch)
    # one cell more than the reach on each side, against rounding of the grid
    stencil = np.arange(-int(reach / pitch) - 1, int(reach / pitch) + 2)
    counts = np.zeros(len(xs) * len(ys), dtype=np.int64)
    for start in range(0, len(pts), _STENCIL_BLOCK):
        z = pts[start : start + _STENCIL_BLOCK, None, None]
        i = np.floor((z.real - xs[0]) / pitch).astype(np.int64) + stencil[:, None]
        j = np.floor((z.imag - ys[0]) / pitch).astype(np.int64) + stencil
        inside = (i >= 0) & (i < len(xs)) & (j >= 0) & (j < len(ys))
        i, j = np.clip(i, 0, len(xs) - 1), np.clip(j, 0, len(ys) - 1)
        dx, dy = xs[i] - z.real, ys[j] - z.imag
        hit = inside & (dx * dx + dy * dy <= reach * reach)
        counts += np.bincount((i * len(ys) + j)[hit], minlength=counts.size)
    return int(counts.max())


def sample_points(ps: IndexedPointSet) -> np.ndarray:
    """Positions of the raw sample family.

    Derived constructions store both the underlying draws and the triples
    assembled from them by symmetry; the metadata key ``sample_tags``
    names the tags that constitute the actual point set (for density and
    separation), with all tags as the fallback.
    """
    return ps.points(sample_tags(ps))


def sample_identities(ps: IndexedPointSet) -> tuple[np.ndarray, np.ndarray]:
    """Home points and unit offsets of the samples, aligned with :func:`sample_points`."""
    rows = ps._rows(sample_tags(ps))
    return ps._homes(rows), ps._columns().unit[rows]


def sample_tags(ps: IndexedPointSet) -> tuple[str, ...] | None:
    """The tags ``meta.sample_tags`` names, or None (all tags) where the set has none."""
    return ps.meta.get("sample_tags")

