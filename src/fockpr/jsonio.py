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
a ``complex`` scalar is written as its ``[re, im]`` pair, and a record (a
``NamedTuple`` instance, a tuple with ``_fields``) as the object of its
fields by name.  Any other tuple is written as a list.

Long lists are handed to :func:`dumps` as numpy arrays: a 1-D int, float
or str array stands for the list of its values (a point-set column, see
:mod:`fockpr.pointset`).  Any other array, complex or of more than one
dimension, is an error.  Arrays are rendered in bulk, in blocks of
``_ROW_BLOCK`` values: each block formats its own tokens
(:func:`format_floats` takes a float slice at once) and fills the one
row template, so the working set stays that of one block whatever the
length of the list.  A token depends only on its value, so the blocks
write exactly the bytes the list of values would give.

:func:`dumps` appends each piece of the text, a block or a token, to one
string as a generator yields it.  CPython grows a string that only one
name holds in place, so the pieces are never held beside the text and
the peak stays near the size of the text.  :func:`dump_path` hands the
text to the file in slices, and :func:`load_path` reads a file back with
:func:`json.load`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

__all__ = [
    "format_float",
    "format_floats",
    "dumps",
    "write_text",
    "dump_path",
    "load_path",
]

# array rows rendered together; bounds the tokens alive at once
_ROW_BLOCK = 1 << 10
# characters handed to the file per write in dump_path
_WRITE_SLICE = 1 << 16


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


def _tokens(col: np.ndarray) -> list[str]:
    """Tokens of the values of a 1-D int, float or str array."""
    if col.dtype.kind == "f":
        return format_floats(col)
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    distinct, inverse = np.unique(col, return_inverse=True)
    quoted = np.array([json.dumps(s, ensure_ascii=True) for s in distinct.tolist()], object)
    return quoted[inverse].tolist()


def _array_pieces(arr: np.ndarray, indent: int) -> Iterator[str]:
    """Render a 1-D array as the list of its values, ``_ROW_BLOCK`` at a time.

    Only one block's tokens are alive at a time.
    """
    if len(arr) == 0:
        yield "[]"
        return
    row = "  " * (indent + 1) + "%s"
    yield "[\n"
    for start in range(0, len(arr), _ROW_BLOCK):
        if start:
            yield ",\n"
        tokens = _tokens(arr[start : start + _ROW_BLOCK])
        yield ",\n".join([row] * len(tokens)) % tuple(tokens)
    yield "\n" + "  " * indent + "]"


def _pieces(obj: Any, indent: int) -> Iterator[str]:
    """The text of ``obj`` at ``indent``, piece by piece."""
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        yield "null" if obj is None else ("true" if obj else "false")
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield format_float(obj)
    elif isinstance(obj, complex):
        yield from _pieces([obj.real, obj.imag], indent)
    elif isinstance(obj, str):
        yield json.dumps(obj, ensure_ascii=True)
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        yield from _pieces(obj._asdict(), indent)
    elif isinstance(obj, Mapping):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("artifact keys must be strings")
        if not obj:
            yield "{}"
            return
        yield "{\n"
        inner = "  " * (indent + 1)
        for i, key in enumerate(sorted(obj)):
            yield f"{inner}{json.dumps(key, ensure_ascii=True)}: "
            yield from _pieces(obj[key], indent + 1)
            yield ",\n" if i + 1 < len(obj) else "\n"
        yield pad + "}"
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "fiuU":
        yield from _array_pieces(obj, indent)
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            yield "[]"
            return
        yield "[\n"
        inner = "  " * (indent + 1)
        for i, item in enumerate(obj):
            yield inner
            yield from _pieces(item, indent + 1)
            yield ",\n" if i + 1 < len(obj) else "\n"
        yield pad + "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into an artifact")


def dumps(obj: Any) -> str:
    """Canonical JSON text (no trailing newline)."""
    # each piece is appended as it is formed, not joined from a list at the
    # end: CPython grows a string only this name holds in place, so the
    # pieces are not held beside the text
    text = ""
    for piece in _pieces(obj, 0):
        text += piece
    return text


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


def load_path(path: str | Path) -> Any:
    """The JSON document at ``path``."""
    with open(path, encoding="ascii") as fh:
        return json.load(fh)
