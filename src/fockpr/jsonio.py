"""Deterministic JSON artifacts.

Every artifact the command line writes goes through :func:`dumps`, which
produces a canonical byte stream: keys sorted, floats rendered with 17
significant digits (enough to round-trip an IEEE double exactly), and a
fixed two-space indentation.  Serializing the parse of an artifact
reproduces it byte for byte, and two runs with the same inputs produce
identical files.

Non-finite floats use the ``Infinity`` / ``-Infinity`` / ``NaN`` tokens
that :func:`json.loads` accepts, so reports carrying an infinite
certificate constant still round-trip.

Two encoding rules hold for every artifact, so no caller spells them out:
a complex number (a ``complex`` scalar, an element of a 1-D complex array
or of a complex :class:`Table` column) is written as its ``[re, im]``
pair, and a dataclass instance as the object of its fields by name.

Large uniform record lists (one record per point of a set) are handed to
:func:`dumps` as a :class:`Table` of columns, and a list of equally long
number lists as a 2-D array.  It renders both in bulk, in row blocks of
``_ROW_BLOCK`` records: each block formats the tokens of its own rows
(:func:`format_floats` takes a float column slice at once) and fills one
template per presence pattern, so the working set stays that of one block
whatever the length of the list.  A token depends only on its value, so
the blocks write exactly the bytes the list of dicts or of lists would
give.  :func:`dump_path` hands the text to the file in slices.

:func:`load_path` reads the same way round: the file is read in slices of
``_READ_SLICE`` characters, and only the unread tail of the text is held.
A top-level ``points`` list of objects is decoded one record at a time
with the stdlib decoder and packed into a :class:`Table` every
``_ROW_BLOCK`` records, so only one block of records is held as Python
objects.  Every other member comes back as :func:`json.loads` gives it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = [
    "format_float",
    "format_floats",
    "Table",
    "dumps",
    "loads",
    "write_text",
    "dump_path",
    "load_path",
]

# records (or array rows) rendered or read together; bounds the tokens
# or decoded records alive at once
_ROW_BLOCK = 1 << 12
# characters handed to the file per write in dump_path
_WRITE_SLICE = 1 << 20
# characters read from the file at a time in load_path
_READ_SLICE = 1 << 20


def format_float(x: float) -> str:
    """17-significant-digit decimal form that parses back to ``x`` exactly."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(x, ".17g")
    # keep the token a float on re-parse ('3' would come back as an int)
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def format_floats(values) -> list[str]:
    """:func:`format_float` of every element of a float array, formatted in bulk.

    Each distinct value (by bit pattern, so ``-0.0`` stays apart from
    ``0.0``) is formatted once with ``%.17g``.  The values that token
    leaves looking like an int are exactly the finite integral ones below
    ``1e17`` in magnitude; they gain the ``.0`` that :func:`format_float`
    appends.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        return []
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    text = "%.17g\n" * distinct.size % tuple(distinct.tolist())
    tokens = np.array(text.split("\n")[:-1], dtype=object)
    finite = np.isfinite(distinct)
    bare = finite & (np.floor(distinct) == distinct) & (np.abs(distinct) < 1e17)
    tokens[bare] += ".0"
    for i in np.flatnonzero(~finite).tolist():
        tokens[i] = format_float(float(distinct[i]))
    return tokens[inverse.ravel()].tolist()


class Table:
    """A list of records of one shape, stored by column.

    ``columns`` maps each key to an array with one row per record: a 1-D
    int, float or str array gives a scalar value, a 2-D int or float
    array (at least one column wide) a list, and a 1-D complex array the
    ``[re, im]`` pair of each value (it is held as that (k, 2) float
    array).  ``present`` optionally maps a key of ``columns`` to a boolean
    mask; records where it is False lack that key, and a record lacking
    every key is written as ``{}``.
    :func:`dumps` renders a table in bulk, byte-identical to the
    recursive writer on the equivalent list of dicts; it encodes which
    keys a record has as the bits of one int64, so a table has at most
    63 columns.
    """

    def __init__(self, columns: Mapping[str, Any], present: Mapping[str, Any] | None = None):
        self.columns = {key: _pairs_of(np.asarray(col)) for key, col in columns.items()}
        self.present = {key: np.asarray(mask, dtype=bool) for key, mask in (present or {}).items()}
        if len(self.columns) > 63:
            raise ValueError(f"a table has at most 63 columns, not {len(self.columns)}")
        for key, col in self.columns.items():
            if col.ndim not in (1, 2) or col.ndim == 2 and col.shape[1] == 0:
                raise ValueError(
                    f"column {key!r} has shape {col.shape}; a column is 1-D,"
                    " or 2-D and at least one column wide"
                )
        orphans = sorted(set(self.present) - set(self.columns))
        if orphans:
            raise ValueError(f"presence masks without a column: {orphans}")
        lengths = {len(a) for a in (*self.columns.values(), *self.present.values())}
        if len(lengths) > 1:
            raise ValueError(f"columns and masks differ in length: {sorted(lengths)}")
        self.length = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_records(cls, records) -> "Table":
        """The table of a list of JSON objects, packed ``_ROW_BLOCK`` records at a time.

        A key becomes a column when every record that has it holds a
        string, or a number, or a list of numbers of one length there; a
        record where the key is absent or ``null`` lacks it.  Anything else
        (a record that is not an object, ragged lists, mixed kinds) is a
        ``ValueError`` naming the record.
        """
        records = list(records)
        return _joined(
            [_packed(records[s : s + _ROW_BLOCK], s) for s in range(0, len(records), _ROW_BLOCK)]
        )


def _pairs_of(col: np.ndarray) -> np.ndarray:
    """A 1-D complex array as the (k, 2) float array of its ``[re, im]`` pairs; else ``col``."""
    if col.dtype.kind != "c" or col.ndim != 1:
        return col
    return np.ascontiguousarray(col, dtype=complex).view(np.float64).reshape(len(col), 2)


def _column(key: str, values: list, rows: list[int]) -> np.ndarray:
    """The column of the given ``values`` of ``key``, held by records ``rows``."""
    try:
        col = np.array(values)
    except (ValueError, TypeError, OverflowError):
        col = None
    if col is not None and (
        col.dtype.kind == "U" and col.ndim == 1 and all(type(v) is str for v in values)
        or col.dtype.kind in "if" and (col.ndim == 1 or col.ndim == 2 and col.shape[1] > 0)
    ):
        return col
    raise ValueError(
        f"records {rows[0]} to {rows[-1]}: field {key!r} does not hold strings throughout,"
        " numbers throughout, or lists of numbers of one length throughout"
    )


def _packed(records: list, first: int) -> Table:
    """The table of ``records``, the first of which is record number ``first``."""
    for row, record in enumerate(records, first):
        if not isinstance(record, dict):
            raise ValueError(f"record {row} is not an object: {json.dumps(record)[:60]}")
    columns, present = {}, {}
    for key in sorted(set().union(*records)):
        values = [record.get(key) for record in records]
        rows = [row for row, v in enumerate(values, first) if v is not None]
        col = _column(key, [v for v in values if v is not None], rows) if rows else np.zeros(0)
        if len(rows) < len(records):
            present[key] = np.array([v is not None for v in values])
            full = np.zeros((len(records),) + col.shape[1:], col.dtype)
            full[present[key]] = col
            col = full
        columns[key] = col
    return Table(columns, present)


def _joined(tables: list[Table]) -> Table:
    """The records of ``tables`` one after the other, as one table."""
    if len(tables) == 1:
        return tables[0]
    starts = np.cumsum([0] + [len(t) for t in tables]).tolist()
    columns, present = {}, {}
    for key in sorted(set().union(*(t.columns for t in tables))):
        masks = [t.present.get(key, np.full(len(t), key in t.columns)) for t in tables]
        given = [(t.columns[key], start) for t, mask, start in zip(tables, masks, starts) if mask.any()]
        like = given[0][0] if given else np.zeros(0)
        for col, start in given:
            # ints and floats join as floats; strings join only with strings
            if col.shape[1:] != like.shape[1:] or (col.dtype.kind == "U") != (like.dtype.kind == "U"):
                raise ValueError(f"records from {start} on: field {key!r} changes kind")
        dtype = np.result_type(*(c for c, _ in given)) if given else like.dtype
        columns[key] = np.concatenate(
            [
                t.columns[key] if mask.any() else np.zeros((len(t),) + like.shape[1:], dtype)
                for t, mask in zip(tables, masks)
            ]
        )
        mask = np.concatenate(masks)
        if not mask.all():
            present[key] = mask
    return Table(columns, present)


def _tokens(col: np.ndarray) -> np.ndarray:
    """Tokens of a column as an object array of shape (rows, values per row)."""
    flat = col.reshape(len(col), -1)
    if col.dtype.kind == "f":
        toks = format_floats(flat)
    elif col.dtype.kind in "iu":
        toks = list(map(str, flat.ravel().tolist()))
    elif col.dtype.kind == "U":
        distinct, inverse = np.unique(flat.ravel(), return_inverse=True)
        quoted = np.array([json.dumps(s, ensure_ascii=True) for s in distinct.tolist()], object)
        toks = quoted[inverse.ravel()].tolist()
    else:
        raise TypeError(f"cannot serialize a {col.dtype} column into an artifact")
    return np.array(toks, dtype=object).reshape(flat.shape)


def _write_blocks(n: int, render, out: list[str], indent: int) -> None:
    """Render a list of ``n`` rows, ``_ROW_BLOCK`` at a time.

    ``render(block)`` gives the text of the rows in the slice ``block``,
    joined by ``",\n"``; only one block's tokens are alive at a time.
    """
    if n == 0:
        out.append("[]")
        return
    out.append("[\n")
    for start in range(0, n, _ROW_BLOCK):
        if start:
            out.append(",\n")
        out.append(render(slice(start, start + _ROW_BLOCK)))
    out.append("\n" + "  " * indent + "]")


def _write_table(table: Table, out: list[str], indent: int) -> None:
    """Render ``table`` as the list of its records, one template per presence pattern."""
    rec_pad = "  " * (indent + 1)
    key_pad = rec_pad + "  "
    keys = sorted(table.columns)
    fragments = []
    for key in keys:
        # the head goes into a %-template, so a '%' in the key is doubled
        head = f"{key_pad}{json.dumps(key, ensure_ascii=True)}: ".replace("%", "%%")
        col = table.columns[key]
        if col.ndim == 1:
            fragments.append(head + "%s")
        else:
            items = ",\n".join([key_pad + "  %s"] * col.shape[1])
            fragments.append(f"{head}[\n{items}\n{key_pad}]")
    # rows lacking the same keys share one record template; a row's
    # presence pattern is one int, bit j set when it has keys[j]
    codes = np.zeros(len(table), dtype=np.int64)
    for j, key in enumerate(keys):
        mask = table.present.get(key)
        codes |= (1 << j) if mask is None else mask.astype(np.int64) << j
    templates: dict[int, tuple[str, list[int]]] = {}

    def fill(code: int, tokens: list[np.ndarray], sep: str) -> str:
        if code not in templates:
            cols = [j for j in range(len(keys)) if code >> j & 1]
            body = "{\n" + ",\n".join(fragments[j] for j in cols) + "\n" + rec_pad + "}"
            templates[code] = (rec_pad + (body if cols else "{}"), cols)
        template, cols = templates[code]
        text = sep.join([template] * len(tokens[0]))
        if not cols:
            return text
        args = np.concatenate([tokens[j] for j in cols], axis=1)
        return text % tuple(args.ravel().tolist())

    def render(block: slice) -> str:
        tokens = [_tokens(table.columns[key][block]) for key in keys]
        patterns, which = np.unique(codes[block], return_inverse=True)
        if len(patterns) == 1:
            return fill(int(patterns[0]), tokens, ",\n")
        records = np.empty(len(which), dtype=object)
        for p, code in enumerate(patterns.tolist()):
            rows = np.flatnonzero(which == p)
            records[rows] = fill(code, [toks[rows] for toks in tokens], "\0").split("\0")
        return ",\n".join(records.tolist())

    _write_blocks(len(table), render, out, indent)


def _write_rows(arr: np.ndarray, out: list[str], indent: int) -> None:
    """Render a 2-D array as the list of its rows, each a list, in one template."""
    row_pad = "  " * (indent + 1)
    items = ",\n".join([row_pad + "  %s"] * arr.shape[1])
    row = row_pad + (f"[\n{items}\n{row_pad}]" if items else "[]")

    def render(block: slice) -> str:
        tokens = _tokens(arr[block])
        return ",\n".join([row] * len(tokens)) % tuple(tokens.ravel().tolist())

    _write_blocks(len(arr), render, out, indent)


def _write(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, complex):
        _write([obj.real, obj.imag], out, indent)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out, indent)
    elif isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("artifact keys must be strings")
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        inner = "  " * (indent + 1)
        for i, key in enumerate(sorted(obj)):
            out.append(f"{inner}{json.dumps(key, ensure_ascii=True)}: ")
            _write(obj[key], out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, Table):
        _write_table(obj, out, indent)
    elif isinstance(obj, np.ndarray) and obj.ndim == 2:
        _write_rows(obj, out, indent)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "c":
        _write_rows(_pairs_of(obj), out, indent)
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        inner = "  " * (indent + 1)
        for i, item in enumerate(obj):
            out.append(inner)
            _write(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into an artifact")


def dumps(obj: Any) -> str:
    """Canonical JSON text (no trailing newline)."""
    out: list[str] = []
    _write(obj, out, 0)
    return "".join(out)


def loads(text: str) -> Any:
    return json.loads(text)


def _write_slices(fh, text: str) -> None:
    for start in range(0, len(text), _WRITE_SLICE):
        fh.write(text[start : start + _WRITE_SLICE])


def write_text(text: str, path: str | Path) -> None:
    """Write ``text`` to ``path`` in slices, without an encoded copy of it whole."""
    with open(path, "w", encoding="ascii") as fh:
        _write_slices(fh, text)


def dump_path(obj: Any, path: str | Path) -> None:
    """Write ``dumps(obj)`` and a newline, in slices, without copying the text whole."""
    text = dumps(obj)
    with open(path, "w", encoding="ascii") as fh:
        _write_slices(fh, text)
        fh.write("\n")


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match
_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*").match


class _Reader:
    """The JSON text of a file, read ``_READ_SLICE`` characters at a time.

    Only the unread tail of what was read is held: :meth:`_more` drops the
    text before the read position whenever it reads on.  Values are decoded
    with the stdlib scanner; the punctuation of the top-level object and of
    its ``points`` list is stepped over here.
    """

    def __init__(self, fh):
        self.fh = fh
        self.text = ""
        self.at = 0  # read position in text
        self.base = 0  # file offset of text[0]
        self.eof = False

    def _more(self, size: int = 0) -> None:
        """Drop the text before the read position and append at least a slice more."""
        size = max(size, _READ_SLICE)
        chunk = self.fh.read(size)
        self.eof = len(chunk) < size
        self.base += self.at
        self.text = self.text[self.at :] + chunk
        self.at = 0

    def _skip(self, i: int) -> int:
        """Position of the first non-space character from ``i`` on (the end of the text at EOF)."""
        i = _SPACE(self.text, i).end()
        while i == len(self.text) and not self.eof:
            i -= self.at
            self._more()
            i = _SPACE(self.text, i).end()
        return i

    def peek(self) -> str:
        """The next non-space character, moved up to; ``""`` at the end of the file."""
        self.at = self._skip(self.at)
        return self.text[self.at : self.at + 1]

    def step(self, char: str, expecting: str) -> None:
        """Step over ``char`` at the next non-space character."""
        if self.peek() != char:
            raise self.error(f"Expecting {expecting}", self.at)
        self.at += 1

    def error(self, message: str, pos: int) -> ValueError:
        return ValueError(f"{message} at character {self.base + pos} of the file")

    def value(self) -> Any:
        """The value at the next non-space character.

        A value is taken only when at least 3 characters of held text
        follow it, or the file is read to its end: the scanner ends a number
        cut at a slice boundary early (``1e-5`` cut after ``1e`` at the
        ``e``, ``1.5`` cut after ``1.`` at the ``.``), and 3 characters are
        enough to show that it goes on.  A value that fails to decode
        before the end of the file is retried on twice the held text, so a
        value longer than a slice costs linear copying.
        """
        self.peek()
        while True:
            try:
                value, end = _DECODER.scan_once(self.text, self.at)
            except StopIteration as exc:
                failure = ("Expecting value", exc.value)
            except json.JSONDecodeError as exc:
                failure = (exc.msg, exc.pos)
            else:
                if end + 3 <= len(self.text) or self.eof:
                    self.at = end
                    return value
            if self.eof:
                raise self.error(*failure)
            self._more(len(self.text) - self.at)

    def points(self) -> Any:
        """The list at the read position, a :class:`Table` when its first item is an object.

        The records are decoded one at a time; every ``_ROW_BLOCK`` of them
        are packed into a table, and the tables are joined at the end.  A
        record that may be cut by the end of the held text goes through
        :meth:`value`.  A list that is empty or starts with a non-object is
        decoded whole, from the rest of the file read at once.
        """
        first = self._skip(self.at + 1)
        if not self.text.startswith("{", first):
            while not self.eof:
                self._more(len(self.text))
            return self.value()
        scan = _DECODER.scan_once
        blocks, block = [], []
        text, i = self.text, first
        while True:
            try:
                record, end = scan(text, i)
            except (StopIteration, ValueError):
                end = len(text)
            if end + 3 > len(text):
                self.at = i
                record = self.value()
                text, end = self.text, self.at
            block.append(record)
            if len(block) == _ROW_BLOCK:
                blocks.append(_packed(block, len(blocks) * _ROW_BLOCK))
                block = []
            comma = _COMMA(text, end)
            if comma is not None:
                i = comma.end()
                continue
            self.at = end
            if self.peek() == "]":
                break
            self.step(",", "',' delimiter")
            text, i = self.text, self.at
        self.at += 1
        if block:
            blocks.append(_packed(block, len(blocks) * _ROW_BLOCK))
        return _joined(blocks)

    def document(self) -> Any:
        """The JSON document, with a top-level ``points`` list of objects as a :class:`Table`."""
        if self.peek() != "{":
            doc = self.value()
        else:
            doc = {}
            self.at += 1
            if self.peek() != "}":
                while True:
                    if self.peek() != '"':
                        raise self.error("Expecting property name enclosed in double quotes", self.at)
                    key = self.value()
                    self.step(":", "':' delimiter")
                    doc[key] = self.points() if key == "points" and self.peek() == "[" else self.value()
                    if self.peek() != ",":
                        break
                    self.at += 1
            self.step("}", "',' delimiter")
        if self.peek():
            raise self.error("Extra data", self.at)
        return doc


def load_path(path: str | Path) -> Any:
    """The JSON document at ``path``; a top-level ``points`` list of objects is a :class:`Table`."""
    with open(path, encoding="ascii") as fh:
        return _Reader(fh).document()
