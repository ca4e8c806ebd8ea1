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

Large uniform record lists (one record per point of a set) are handed to
:func:`dumps` as a :class:`Table` of columns, and a list of equally long
number lists as a 2-D array.  It renders both in bulk, in row blocks of
``_ROW_BLOCK`` records: each block formats the tokens of its own rows
(:func:`format_floats` takes a float column slice at once) and fills one
template per presence pattern, so the working set stays that of one block
whatever the length of the list.  A token depends only on its value, so
the blocks write exactly the bytes the list of dicts or of lists would
give.  :func:`dump_path` hands the text to the file in slices.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = ["format_float", "format_floats", "Table", "dumps", "loads", "dump_path", "load_path"]

# records (or array rows) rendered together; bounds the tokens alive at once
_ROW_BLOCK = 1 << 12
# characters handed to the file per write in dump_path
_WRITE_SLICE = 1 << 20


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
    array (at least one column wide) a list.  ``present`` optionally maps
    a key of ``columns`` to a boolean mask; records where it is False lack
    that key, and a record lacking every key is written as ``{}``.
    :func:`dumps` renders a table in bulk, byte-identical to the
    recursive writer on the equivalent list of dicts; it encodes which
    keys a record has as the bits of one int64, so a table has at most
    63 columns.
    """

    def __init__(self, columns: Mapping[str, Any], present: Mapping[str, Any] | None = None):
        self.columns = {key: np.asarray(col) for key, col in columns.items()}
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
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
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


def dump_path(obj: Any, path: str | Path) -> None:
    """Write ``dumps(obj)`` and a newline, in slices, without copying the text whole."""
    text = dumps(obj)
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start : start + _WRITE_SLICE])
        fh.write("\n")


def load_path(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="ascii"))
