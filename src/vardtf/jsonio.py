"""Deterministic JSON and CSV emission for reports, tables and model files.

The stdlib encoder prints floats with ``repr``, whose output is the shortest
round-tripping string and therefore varies in digit count. Outputs here must
be byte-identical across runs, so every float, in JSON and CSV alike, is
printed with 17 significant digits (enough to round-trip any IEEE double)
and JSON object keys are emitted in sorted order.
"""

from __future__ import annotations

import numpy as np

#: printf-style format of one float: 17 significant digits.
FLOAT_FORMAT = "%.17g"

#: Rows formatted per write, so a large table is never held as one string.
CSV_CHUNK_ROWS = 1024


def _format_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return FLOAT_FORMAT % float(x)


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _emit(obj, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit({"re": obj.real, "im": obj.imag}, indent, pieces)
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, pieces)
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj.keys())
        for i, key in enumerate(keys):
            pieces.append(inner)
            pieces.append(_escape(str(key)))
            pieces.append(": ")
            _emit(obj[key], indent + 1, pieces)
            pieces.append(",\n" if i < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(inner)
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj) -> str:
    """Render ``obj`` as deterministic JSON text (sorted keys, 17-digit floats)."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_csv(fh, header: list, first: np.ndarray, rest: np.ndarray) -> None:
    """Write a CSV table: the header line, then ``first[i], *rest[i]`` per row.

    ``first`` is a column of length n and ``rest`` an (n, k) real array.
    Every cell is a float printed with 17 significant digits, so integral
    values such as row indices print without a decimal point.
    """
    fh.write(",".join(header) + "\n")
    fmt = ",".join([FLOAT_FORMAT] * (1 + rest.shape[1])) + "\n"
    for start in range(0, len(first), CSV_CHUNK_ROWS):
        stop = start + CSV_CHUNK_ROWS
        block = np.column_stack((first[start:stop], rest[start:stop])).tolist()
        fh.write("".join([fmt % tuple(row) for row in block]))
