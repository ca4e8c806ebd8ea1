"""Indexed point sets over a lattice and their geometric certificates.

A point set stores, for each lattice index and tag, a position near the
home lattice point.  The exact offset from the home point is kept
alongside the absolute position: for Gaussian-decay offsets the absolute
position collapses onto the lattice point in floating point once the
offset drops below one ulp of the position, and the certificates below
(triangle angles, closeness constants) must survive that regime.

Certificates:

* ``certify_f_closeness`` -- least constant ``kappa`` with
  ``|p - home| <= kappa * exp(-gamma*|home|^2)`` for a tag family;
* ``angle_condition`` -- median triangle angle of each (A, B, C) triple
  against the weighted ratio ``|home| * exp(-beta*|home|^2) / angle``;
* ``separation`` -- minimal pairwise distance, found exactly by a
  sort-and-sweep along the axis of larger spread (numpy only);
* ``density_estimate`` -- disk-count density with residuals;
* ``relative_separation_bound`` -- certified upper bound on points per
  unit disk.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import jsonio
from .lattice import Lattice, LatticeIndex

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
    "uniform_closeness_delta",
    "sample_points",
    "complex_column",
]

TRIPLE_TAGS = ("A", "B", "C")
# fields every point record of an artifact carries
_REQUIRED_FIELDS = ("index", "tag", "pos")

# rows IndexedPointSet.add holds as tuples before packing them into columns
_ADD_BLOCK = 1 << 12
# points relative_separation_bound buckets together
_STENCIL_BLOCK = 1 << 10


@dataclass(frozen=True)
class PointEntry:
    """Position of one sample.

    ``delta`` is the offset from the home lattice point as a plain float
    pair (it underflows to 0 once the offset drops below about 1e-308).
    ``unit`` is the offset divided by the local closeness budget
    ``kappa_cap * exp(-gamma*|home|^2)`` (a point of the closed unit
    disk); together with the set metadata it represents Gaussian-small
    offsets exactly in log scale, long after ``delta`` has collapsed.
    """

    pos: complex
    delta: complex | None = None
    unit: complex | None = None


class _Columns(NamedTuple):
    """One array per field, one row per sample."""

    m: np.ndarray
    n: np.ndarray
    tag: np.ndarray
    pos: np.ndarray
    delta: np.ndarray
    has_delta: np.ndarray
    unit: np.ndarray
    has_unit: np.ndarray


_NO_ROWS = _Columns(
    *(
        np.empty(0, dtype=t)
        for t in (np.int64, np.int64, str, complex, complex, bool, complex, bool)
    )
)


class IndexedPointSet:
    """Samples keyed by (lattice index, tag), stored as columns.

    One row per sample, in insertion order: the lattice index ``(m, n)``,
    the ``tag``, the absolute position ``pos``, and the optional ``delta``
    and ``unit`` offsets with their presence masks.  Rows inserted by
    :meth:`add` wait in a buffer, packed into one block of columns every
    ``_ADD_BLOCK`` rows; the next column read appends the blocks in one
    step.  A dict from key to row number backs :meth:`add`, :meth:`get`
    and ``in``; it is built from the columns on the first such lookup, so
    a set that is only read in bulk never holds it.  Batches
    (:meth:`add_many`, :meth:`from_json`) are checked for duplicates by
    sorting the key columns.  Outputs (``points``, ``to_json``,
    ``to_csv``) list rows in the canonical (m, n, tag) order.
    """

    def __init__(self, lattice: Lattice, window_radius: float, meta: dict | None = None):
        if window_radius <= 0:
            raise ValueError("window_radius must be positive")
        self.lattice = lattice
        self.window_radius = float(window_radius)
        self.meta: dict = dict(meta or {})
        self._cols = _NO_ROWS
        self._blocks: list[_Columns] = []
        self._buffer: list[tuple] = []
        self._row_of: dict[tuple[int, int, str], int] | None = None

    # -- container ---------------------------------------------------------

    def add(
        self,
        index: tuple[int, int],
        tag: str,
        pos: complex | None = None,
        delta: complex | None = None,
        unit: complex | None = None,
    ) -> None:
        """Insert a sample; give ``pos``, ``delta``, or both (consistent).

        Costs amortized O(1): the row waits as a tuple until ``_ADD_BLOCK``
        rows have gathered, which are then packed into one block of columns,
        so the rows held as tuples stay few however large the set grows.
        :meth:`add_many` checks and appends a whole batch at once.
        """
        m, n = int(index[0]), int(index[1])
        home = self.lattice.point((m, n))
        if abs(home) > self.window_radius + 1e-9:
            raise ValueError(f"home point {home} of index {(m, n)} outside window")
        if pos is None:
            if delta is None:
                raise ValueError("need pos or delta")
            pos = home + delta
        key, row_of = (m, n, tag), self._index()
        if key in row_of:
            raise ValueError(f"duplicate entry for index {(m, n)} tag {tag!r}")
        row_of[key] = len(row_of)
        self._buffer.append((m, n, tag, complex(pos), delta, unit))
        if len(self._buffer) >= _ADD_BLOCK:
            self._pack()

    def add_many(self, indices, tag: str, pos=None, delta=None, unit=None) -> None:
        """Insert one ``tag`` sample at each lattice index of ``indices`` (shape (k, 2)).

        ``pos``, ``delta`` and ``unit`` are complex arrays broadcast
        against the k indices, or None, with the meaning they have in
        :meth:`add`.  Nothing is inserted when a home point lies outside
        the window or a key (index, tag) is already present or repeated
        within the batch.
        """
        idx = np.array(indices, dtype=np.int64).reshape(-1, 2)
        k = len(idx)
        m, n = idx[:, 0], idx[:, 1]
        if pos is None:
            if delta is None:
                raise ValueError("need pos or delta")
            pos = self.lattice.point((m, n)) + np.asarray(delta, dtype=complex)
        self._append(
            _Columns(
                m, n, np.full(k, tag), _broadcast(pos, k), *_optional(delta, k), *_optional(unit, k)
            )
        )

    def _append(self, new: _Columns) -> None:
        """Check whole columns of new rows, then append them after every earlier row."""
        homes = self.lattice.point((new.m, new.n))
        outside = np.flatnonzero(np.abs(homes) > self.window_radius + 1e-9)
        if outside.size:
            i = outside[0]
            index = (int(new.m[i]), int(new.n[i]))
            raise ValueError(f"home point {complex(homes[i])} of index {index} outside window")
        old = self._columns()
        row = _first_repeat(*(np.concatenate([a, b]) for a, b in zip(old[:3], new[:3])))
        if row is not None:
            i = row - len(old.m)
            index = (int(new.m[i]), int(new.n[i]))
            raise ValueError(f"duplicate entry for index {index} tag {str(new.tag[i])!r}")
        if self._row_of is not None:
            keys = zip(new.m.tolist(), new.n.tolist(), new.tag.tolist())
            self._row_of.update(zip(keys, range(len(old.m), len(old.m) + len(new.m))))
        # the first batch is taken as it is: its arrays belong to the caller
        # (add_many, from_json), which hands them over
        self._cols = _joined(old, new) if len(old.m) else new

    def _pack(self) -> None:
        """Move the rows buffered by :meth:`add` into one block of columns."""
        if not self._buffer:
            return
        m, n, tag, pos, delta, unit = zip(*self._buffer)
        self._buffer = []
        delta, has_delta = _fill_absent(delta, 0j)
        unit, has_unit = _fill_absent(unit, 0j)
        self._blocks.append(
            _Columns(
                np.array(m, dtype=np.int64),
                np.array(n, dtype=np.int64),
                np.array(tag, dtype=str),
                np.array(pos, dtype=complex),
                np.array(delta, dtype=complex),
                has_delta,
                np.array(unit, dtype=complex),
                has_unit,
            )
        )

    def _columns(self) -> _Columns:
        """The columns, with the rows added since the last read appended in one step."""
        self._pack()
        if self._blocks:
            self._cols = _joined(self._cols, *self._blocks)
            self._blocks = []
        return self._cols

    def _rows(self, tags: Sequence[str] | None = None) -> np.ndarray:
        """Rows carrying one of ``tags`` (all rows for None) in canonical (m, n, tag) order."""
        c = self._columns()
        rows = np.arange(len(c.m)) if tags is None else np.flatnonzero(np.isin(c.tag, list(tags)))
        return rows[np.lexsort((c.tag[rows], c.n[rows], c.m[rows]))]

    def _index(self) -> dict[tuple[int, int, str], int]:
        """The dict from key (m, n, tag) to row number, built on first use."""
        if self._row_of is None:
            c = self._columns()
            keys = zip(c.m.tolist(), c.n.tolist(), c.tag.tolist())
            self._row_of = dict(zip(keys, range(len(c.m))))
        return self._row_of

    def _row(self, index: tuple[int, int], tag: str) -> int:
        row = self._index().get((int(index[0]), int(index[1]), tag))
        if row is None:
            raise KeyError((LatticeIndex(int(index[0]), int(index[1])), tag))
        return row

    def _entry(self, row: int) -> PointEntry:
        c = self._columns()
        return PointEntry(
            complex(c.pos[row]),
            complex(c.delta[row]) if c.has_delta[row] else None,
            complex(c.unit[row]) if c.has_unit[row] else None,
        )

    def __len__(self) -> int:
        return len(self._cols.m) + sum(len(b.m) for b in self._blocks) + len(self._buffer)

    def __contains__(self, key: tuple[tuple[int, int], str]) -> bool:
        (m, n), tag = key
        return (int(m), int(n), tag) in self._index()

    def get(self, index: tuple[int, int], tag: str) -> PointEntry:
        return self._entry(self._row(index, tag))

    def items(self) -> list[tuple[tuple[LatticeIndex, str], PointEntry]]:
        """``((index, tag), entry)`` for every row, in insertion order."""
        c = self._columns()
        keys = zip(c.m.tolist(), c.n.tolist(), c.tag.tolist())
        return [((LatticeIndex(m, n), t), self._entry(row)) for row, (m, n, t) in enumerate(keys)]

    def tags(self) -> list[str]:
        return sorted(set(self._columns().tag.tolist()))

    def indices(self, tags: Sequence[str] | None = None) -> list[LatticeIndex]:
        """Distinct indices carrying at least one entry (of the given tags), sorted."""
        rows, c = self._rows(tags), self._columns()
        pairs = np.unique(np.stack([c.m[rows], c.n[rows]], axis=1), axis=0)
        return [LatticeIndex(m, n) for m, n in pairs.tolist()]

    def points(self, tags: Sequence[str] | None = None) -> np.ndarray:
        """Positions as a complex array, canonically ordered by (m, n, tag)."""
        return self._columns().pos[self._rows(tags)]

    def offset(self, index: tuple[int, int], tag: str) -> complex:
        """Offset from home: stored delta when present, positional difference otherwise."""
        return complex(self._offsets(np.array([self._row(index, tag)]))[0])

    def log_offset_magnitude(self, index: tuple[int, int], tag: str) -> float:
        """Natural log of the offset magnitude, exact in the underflow regime.

        When the entry carries a unit-disk offset and the set metadata
        records ``gamma`` and ``kappa_cap``, the magnitude is
        ``kappa_cap * |unit| * exp(-gamma*|home|^2)`` evaluated in the log
        domain; otherwise it falls back to the float offset.
        """
        return float(self._log_offsets(np.array([self._row(index, tag)]))[0])

    def _homes(self, rows: np.ndarray) -> np.ndarray:
        """Home lattice points of ``rows``."""
        c = self._columns()
        return self.lattice.point((c.m[rows], c.n[rows]))

    def _offsets(self, rows: np.ndarray) -> np.ndarray:
        c = self._columns()
        return np.where(c.has_delta[rows], c.delta[rows], c.pos[rows] - self._homes(rows))

    def _log_offsets(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`log_offset_magnitude` of each of ``rows``.

        Magnitudes and logs are taken with Python's ``abs`` and
        ``math.log``: numpy's vector ``abs`` and ``log`` differ from them
        in the last bit on some inputs, and certificate reports must not
        move.
        """
        c = self._columns()
        gamma = self.meta.get("gamma")
        kappa_cap = self.meta.get("kappa_cap")
        scaled = c.has_unit[rows] & (gamma is not None and kappa_cap is not None)
        values = np.where(scaled, c.unit[rows], self._offsets(rows))
        logs = np.array([math.log(abs(z)) if z != 0 else -math.inf for z in values.tolist()])
        if scaled.any():
            log_cap = math.log(kappa_cap) if kappa_cap != 0.0 else -math.inf
            sq = _abs_squared(self._homes(rows[scaled]))
            logs[scaled] = (log_cap + logs[scaled]) - gamma * sq
        return logs

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """The artifact document; its ``points`` are a :class:`jsonio.Table` in canonical order.

        :meth:`from_json` reads it back as it is or after a round trip
        through :func:`jsonio.dumps` and :func:`jsonio.loads`.
        """
        rows, c = self._rows(), self._columns()
        points = jsonio.Table(
            {
                "index": np.stack([c.m[rows], c.n[rows]], axis=1),
                "tag": c.tag[rows],
                "pos": c.pos[rows],
                "delta": c.delta[rows],
                "unit": c.unit[rows],
            },
            present={"delta": c.has_delta[rows], "unit": c.has_unit[rows]},
        )
        out: dict = {
            "lattice": self.lattice,
            "window_radius": self.window_radius,
            "points": points,
        }
        if self.meta:
            out["meta"] = dict(sorted(self.meta.items()))
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "IndexedPointSet":
        """Set from an artifact document, parsed or as :meth:`to_json` returns it.

        The points are a :class:`jsonio.Table` (as :func:`jsonio.load_path`
        and :meth:`to_json` give them) or a list of records, which is packed
        into one.  They are checked like a batch of :meth:`add_many`; every
        record has an ``index``, a ``tag`` and a ``pos``, every ``index``
        is a pair of integers and every ``pos``, ``delta`` and ``unit`` a
        pair of finite numbers.
        """
        lat = data["lattice"]
        if not isinstance(lat, Lattice):
            lat = Lattice.from_json(lat)
        ps = cls(lat, float(data["window_radius"]), meta=data.get("meta"))
        points = data["points"]
        if not isinstance(points, jsonio.Table):
            points = jsonio.Table.from_records(points)
        if not len(points):
            return ps
        cols = points.columns
        for key in _REQUIRED_FIELDS:
            lacking = np.flatnonzero(~_presence(points, key))
            if lacking.size:
                raise ValueError(f"point record {lacking[0]} lacks the field {key!r}")
        idx = _index_pairs(cols["index"])
        ps._append(
            _Columns(
                idx[:, 0],
                idx[:, 1],
                np.array(cols["tag"], dtype=str),
                complex_column(cols["pos"], "pos"),
                *_optional_pairs(points, "delta"),
                *_optional_pairs(points, "unit"),
            )
        )
        return ps

    def to_csv(self, path) -> None:
        """Rows ``m,n,tag,re,im`` with 17-significant-digit floats."""
        rows, c = self._rows(), self._columns()
        xy = c.pos[rows].view(np.float64).tolist()
        g17 = ("%.17g\n" * len(xy) % tuple(xy)).split("\n")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "n", "tag", "re", "im"])
            writer.writerows(
                zip(c.m[rows].tolist(), c.n[rows].tolist(), c.tag[rows].tolist(),
                    g17[0:-1:2], g17[1::2])
            )


def _joined(*parts: _Columns) -> _Columns:
    return _Columns(*map(np.concatenate, zip(*parts)))


def _first_repeat(m: np.ndarray, n: np.ndarray, tag: np.ndarray) -> int | None:
    """The first row whose key (m, n, tag) an earlier row has, or None.

    One stable lexsort brings equal keys together in row order; every row
    of a run of equal keys but the first repeats an earlier one.
    """
    order = np.lexsort((tag, n, m))
    m, n, tag = m[order], n[order], tag[order]
    repeats = (m[1:] == m[:-1]) & (n[1:] == n[:-1]) & (tag[1:] == tag[:-1])
    return int(order[1:][repeats].min()) if repeats.any() else None


def _broadcast(values, k: int) -> np.ndarray:
    """``values`` as a complex array of length ``k``, never a view of the caller's array."""
    return np.broadcast_to(np.asarray(values, dtype=complex), (k,)).copy()


def _optional(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column and presence mask of an optional per-row value (None: absent everywhere)."""
    if values is None:
        return np.zeros(k, dtype=complex), np.zeros(k, dtype=bool)
    return _broadcast(values, k), np.ones(k, dtype=bool)


def _presence(table: jsonio.Table, key: str) -> np.ndarray:
    """Which records of ``table`` have ``key``."""
    return table.present.get(key, np.full(len(table), key in table.columns))


def _optional_pairs(table: jsonio.Table, key: str) -> tuple[np.ndarray, np.ndarray]:
    """Complex column of an optional pair field of ``table`` and its presence mask, both new."""
    has = np.array(_presence(table, key))
    if not has.any():
        return np.zeros(len(table), dtype=complex), has
    return complex_column(table.columns[key], key), has


def _pair_array(pairs, dtype, field: str) -> np.ndarray:
    """``[x, y]`` pairs as a (k, 2) array; any other shape is an error."""
    arr = np.array(pairs, dtype=dtype)
    if arr.shape != (len(pairs), 2) and len(pairs):
        raise ValueError(f"point field {field!r} must hold [x, y] pairs, got shape {arr.shape}")
    return arr.reshape(-1, 2)


def _first_bad_row(ok: np.ndarray) -> int | None:
    """The first row of a (k, 2) mask with a False in it, or None."""
    bad = np.flatnonzero(~ok.all(axis=1))
    return int(bad[0]) if bad.size else None


def _index_pairs(pairs) -> np.ndarray:
    """``index`` pairs as a (k, 2) int64 array; a value that is no int64 integer is an error."""
    arr = _pair_array(pairs, None, "index")
    if arr.dtype.kind == "f":
        row = _first_bad_row((np.floor(arr) == arr) & (np.abs(arr) < 2.0**63))
        if row is not None:
            raise ValueError(
                f"point record {row}: field 'index' must hold integers, got {arr[row].tolist()}"
            )
    return arr.astype(np.int64)


def complex_column(pairs, field: str) -> np.ndarray:
    """Complex column from ``[re, im]`` pairs, bit-exact (signed zeros included).

    A pair holding an infinity or NaN is an error naming its row.
    """
    arr = _pair_array(pairs, float, field)
    row = _first_bad_row(np.isfinite(arr))
    if row is not None:
        raise ValueError(
            f"point record {row}: field {field!r} must hold finite numbers, got {arr[row].tolist()}"
        )
    return np.ascontiguousarray(arr).view(complex).ravel()


def _fill_absent(values, fill) -> tuple[list, np.ndarray]:
    """``values`` with ``fill`` in place of each None, and the mask of the given ones."""
    present = np.array([v is not None for v in values], dtype=bool)
    return [fill if v is None else v for v in values], present


def _abs_squared(z: np.ndarray) -> np.ndarray:
    """``abs(z) ** 2`` per element in Python floats (see ``_log_offsets``)."""
    return np.array([abs(v) ** 2 for v in z.tolist()], dtype=float)


# -- triangle angles ---------------------------------------------------------


def median_angles(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Median interior angle of the triangles (a, b, c), elementwise.

    Degenerate triangles (collinear or with coincident vertices) yield 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)

    def vertex_angle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = np.conj(u) * v
        # a vanishing arm must give 0, not arctan2(+0, -0.0) = pi
        return np.where(np.abs(w) == 0.0, 0.0, np.arctan2(np.abs(w.imag), w.real))

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


@dataclass(frozen=True)
class ClosenessReport:
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
    log_terms = ps._log_offsets(rows) + gamma * _abs_squared(ps._homes(rows))
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


@dataclass(frozen=True)
class AngleReport:
    beta: float
    theta_min: float
    sup_ratio: float
    worst_index: tuple[int, int] | None
    count: int
    window_radius: float
    passed: bool


# Maps named by a set's ``triple_fold`` metadata; each is its own inverse.
_FOLDS = {"conj": np.conj, "neg": np.negative, "negconj": lambda z: -np.conj(z)}


def triple_vertices(ps: IndexedPointSet) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B, C) triples of the set as ``(indices, vertices)``.

    ``indices`` is the (k, 2) array of the triples' lattice indices in
    (m, n) order; ``vertices[i]`` holds the A, B and C vertex of triple
    ``i``: unit offsets where all three carry them, else deltas, else
    positions.  A set whose tags are emitted at symmetric images of one
    frame point names in ``meta["triple_fold"]`` the map of each tag
    (see ``_FOLDS``); that map is applied to the home, ``pos``, ``delta``
    and ``unit`` of the tag's samples alike before they are grouped.  An
    index carrying only part of the triple is an error.
    """
    c = ps._columns()
    rows = np.flatnonzero(np.isin(c.tag, TRIPLE_TAGS))
    if not rows.size:
        raise ValueError("set has no A/B/C entries")
    tag, m, n = c.tag[rows], c.m[rows], c.n[rows]
    pos, delta, unit = c.pos[rows], c.delta[rows], c.unit[rows]
    for t, name in ps.meta.get("triple_fold", {}).items():
        if name not in _FOLDS:
            raise ValueError(f"unknown triple fold {name!r} for tag {t!r}")
        fold, mine = _FOLDS[name], tag == t
        home = fold(ps.lattice.point((m[mine], n[mine])))
        m[mine], n[mine] = ps.lattice.indices_of(home).T
        pos[mine], delta[mine], unit[mine] = fold(pos[mine]), fold(delta[mine]), fold(unit[mine])
    indices, slot = np.unique(np.stack([m, n], axis=1), axis=0, return_inverse=True)
    # triple[i, t]: sample of index i with tag TRIPLE_TAGS[t], or -1
    triple = np.full((len(indices), len(TRIPLE_TAGS)), -1)
    for t, name in enumerate(TRIPLE_TAGS):
        mine = np.flatnonzero(tag == name)
        triple[slot.ravel()[mine], t] = mine
    incomplete = np.flatnonzero((triple < 0).any(axis=1))
    if incomplete.size:
        i = incomplete[0]
        missing = [name for t, name in enumerate(TRIPLE_TAGS) if triple[i, t] < 0]
        raise ValueError(f"index {tuple(indices[i].tolist())} is missing triple tags {missing}")
    use_unit = c.has_unit[rows][triple].all(axis=1, keepdims=True)
    use_delta = c.has_delta[rows][triple].all(axis=1, keepdims=True)
    return indices, np.where(use_unit, unit[triple], np.where(use_delta, delta[triple], pos[triple]))


def angle_condition(ps: IndexedPointSet, beta: float) -> AngleReport:
    """Median-angle condition over all (A, B, C) triples of the set.

    For each triple of :func:`triple_vertices` the median interior angle
    ``theta`` of the triangle is computed from stored offsets (exact even
    when positions collapse in floating point: unit-disk offsets span a
    triangle similar to the true one, so the angles agree) and compared
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


@dataclass(frozen=True)
class SeparationReport:
    delta: float
    pair: tuple[complex, complex]
    count: int


def _as_points(obj) -> np.ndarray:
    """Positions of a point array, or of a set's samples (:func:`sample_points`)."""
    if isinstance(obj, IndexedPointSet):
        return sample_points(obj)
    return np.asarray(obj, dtype=complex).ravel()


def separation(obj: IndexedPointSet | np.ndarray) -> SeparationReport:
    """Minimal pairwise distance over the points (coincidences give 0).

    An exact sort-and-sweep: the points are sorted along the axis of
    larger spread (then across it), and sorted row ``r`` is compared with
    row ``r + k`` for ``k = 1, 2, ...`` until no later row can come closer
    than the smallest distance so far.  Later rows lie at least the gap
    along the axis away, and, while they share the row's value along it,
    at least the gap across it.  Distances are ``sqrt(dx*dx + dy*dy)``,
    the sum a k-d tree forms, so ``delta`` is exact.  The pair is the
    first row (in the order of the input) that has a partner at
    ``delta``, and its lowest-row partner there.
    """
    pts = _as_points(obj)
    if len(pts) < 2:
        raise ValueError("separation needs at least two points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("separation needs finite positions")
    u, v = pts.real, pts.imag
    if np.ptp(v) > np.ptp(u):
        u, v = v, u
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    # gap from each row to the next larger value along the sort axis
    run_gap = np.append(u, math.inf)[np.searchsorted(u, u, side="right")] - u
    best = math.inf
    near: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    rows, k = np.arange(len(pts) - 1), 1
    while rows.size:
        du, dv = u[rows + k] - u[rows], v[rows + k] - v[rows]
        dist = np.sqrt(du * du + dv * dv)
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
    a, b, dist = (np.concatenate(col) for col in zip(*near))
    a, b = order[a[dist == best]], order[b[dist == best]]
    i = int(min(a.min(), b.min()))
    j = int(np.concatenate([b[a == i], a[b == i]]).min())
    return SeparationReport(delta=best, pair=(complex(pts[i]), complex(pts[j])), count=len(pts))


@dataclass(frozen=True)
class DensityReport:
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
    tags = ps.meta.get("sample_tags")
    return ps.points(None if tags is None else tuple(tags))


def uniform_closeness_delta(
    ps: IndexedPointSet, beta: float | None = None
) -> float | tuple[float, float]:
    """Largest offset magnitude over all entries.

    With ``beta`` given, also returns the offset shifted by half the
    square-lattice spacing at weight ``beta``:
    ``delta + sqrt(pi/(2*beta))``.
    """
    delta = max([0.0] + [abs(z) for z in ps._offsets(np.arange(len(ps))).tolist()])
    if beta is None:
        return delta
    if beta <= 0:
        raise ValueError("beta must be positive")
    return delta, delta + math.sqrt(math.pi / (2.0 * beta))
