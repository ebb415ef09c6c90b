"""Deterministic JSON and CSV emission for reports, tables and model files.

The stdlib encoder prints floats with ``repr``, whose output is the shortest
round-tripping string and therefore varies in digit count. Outputs here must
be byte-identical across runs, so every float, in JSON and CSV alike, is
printed as ``FLOAT_FORMAT % x``: 17 significant digits (enough to round-trip
any IEEE double), and JSON object keys are emitted in sorted order.

JSON documents are small and format one float at a time. CSV tables can
hold millions of cells, where Python's ``%`` costs about a microsecond per
cell (17 digits take CPython's float-to-string conversion off its fast
path), so ``write_csv`` formats them with a numpy kernel that produces the
same bytes. For every finite x with 1e-6 < |x| < 1e17 it computes the
17-digit decimal significand exactly:

* k = floor(log10|x|) is estimated, then |x| * 10**(16 - k) is formed as
  an exact double-double (Dekker's product; 10**s is an exact double for
  s <= 22), compared exactly against 1e16 and 1e17 to correct k by one
  where log10 misjudged it, and rounded half-to-even to an integer N;
* N's digits come from a table of four-digit groups; the point, the
  trailing-zero stripping and the ``e-0X`` exponent follow C's ``%g``
  rules through a precomputed layout per (exponent, last nonzero digit),
  and the sign and separator are added per cell.

Zero and -0 take the same path. Every other cell (nan, +-inf, magnitudes
outside that range, and any whose k did not settle) is formatted with
``FLOAT_FORMAT %`` on its own. Chunks of ``CSV_CHUNK_CELLS`` cells are
joined by dropping the zero padding bytes of each cell's 32-byte slot.
"""

from __future__ import annotations

import numpy as np

#: printf-style format of one float: 17 significant digits.
FLOAT_FORMAT = "%.17g"

#: Cells formatted per kernel call. The kernel holds a few hundred bytes per
#: cell, so this bounds its working set (a few MB) whatever the table width.
CSV_CHUNK_CELLS = 8192


def _format_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return FLOAT_FORMAT % float(x)


#: JSON string escapes: the quote, the backslash and every control character.
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


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
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
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


# The kernel's exact range: 10**(16 - k) must be an exact double.
_MIN_EXP, _MAX_EXP = -6, 16
_POW10 = np.array([float(10**s) for s in range(_MAX_EXP - _MIN_EXP + 1)])
# Veltkamp split constant 2**27 + 1: halves a double into two 26-bit parts.
_SPLIT = 134217729.0
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_E8, _E17 = 10**8, 10**17

# One formatted cell is 32 bytes, four little-endian uint64 words; bytes
# left zero are dropped when a chunk is joined. Byte 0 holds the sign,
# bytes 2-6 the "0.000" prefix of fixed notation below 1, bytes 7-23 the
# significand digits (those after the point one byte later, with the point
# in the gap), bytes 27-30 the exponent and byte 31 the separator.
_CELL_BYTES = 32
_DIGIT0 = 7
_EXP0 = 27
_GROUPS = np.arange(10000)
# "0000".."9999" as four ASCII bytes, first digit lowest.
_QUADS = sum(
    (_GROUPS // 10 ** (3 - j) % 10 + 48).astype(np.uint64) << np.uint64(8 * j) for j in range(4)
)
# Index among the 17 significand digits of the last nonzero digit of
# four-digit group i (digits 4i+1 to 4i+4), or 0 if the group is zero.
_GROUP_LENGTHS = 4 - sum(_GROUPS % 10**j == 0 for j in range(1, 5))
_LAST_DIGIT = np.where(_GROUPS > 0, 4 * np.arange(4)[:, None] + _GROUP_LENGTHS, 0).astype(np.uint8)


def _cell_masks(exp: int, last: int) -> list:
    """Masks laying out a cell whose 17-digit significand has decimal
    exponent ``exp`` and zeros after digit ``last``, as C's ``%.17g`` does:
    fixed notation for -4 <= exp < 17, else ``d.ddde-0X``, with trailing
    zeros and a bare point stripped.

    Returns words 0-3 of the literal bytes, then words 1-2 of the digits
    kept in place, then words 1-2 of the digits moved one byte up past the
    point (the first digit, in word 0, is always kept in place).
    """
    literal = bytearray(_CELL_BYTES)
    kept = bytearray(_CELL_BYTES)
    moved = bytearray(_CELL_BYTES)
    if 0 <= exp < 17:
        count = exp + 1
    elif -4 <= exp < 0:
        count = last + 1
        literal[_DIGIT0 + exp - 1 : _DIGIT0] = b"0." + b"0" * (-exp - 1)
    else:
        count = 1
        literal[_EXP0 : _EXP0 + 4] = f"e{exp:+03d}".encode()
    kept[_DIGIT0 : _DIGIT0 + count] = b"\xff" * count
    if last >= count:
        literal[_DIGIT0 + count] = ord(".")
        moved[_DIGIT0 + count : _DIGIT0 + last + 1] = b"\xff" * (last + 1 - count)
    words = [np.frombuffer(bytes(m), "<u8") for m in (literal, kept, moved)]
    return [*words[0], *words[1][1:3], *words[2][1:3]]


#: ``_cell_masks`` of every (exponent, last digit), row
#: ``(exponent - _MIN_EXP) * 17 + last``.
_MASKS = np.array(
    [_cell_masks(exp, last) for exp in range(_MIN_EXP, _MAX_EXP + 1) for last in range(17)],
    np.uint64,
)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """``hi + lo == a * 10**(16 - k)`` exactly, and the step that moves k to
    the exponent putting that product in [1e16, 1e17).

    Dekker's product: both factors are split into 26-bit halves whose
    partial products are exact, so ``lo`` is the rounding error of ``hi``.
    """
    s = 16 - k
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    hi = a * _POW10[s]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    return hi, lo, up.astype(np.int64) - down


def _format_cells(cells: np.ndarray, eol: np.ndarray) -> str:
    """``FLOAT_FORMAT % x`` of every cell, each followed by "\\n" where
    ``eol`` is set and by "," elsewhere, as one string."""
    a = np.abs(cells)
    exact = (a > 1e-6) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), _MIN_EXP, _MAX_EXP).astype(np.int64)
    hi, lo, step = _scaled(a, k)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        hi[redo], lo[redo], step[redo] = _scaled(a[redo], k[redo])
        exact[redo[step[redo] != 0]] = False
    # hi is an even integer here, so rounding lo half-to-even rounds hi + lo.
    sig = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # Rounding reaches 10**17 only for a double within 5e-18 below a power
    # of ten; none lies in the exact range, but such a cell would go to the
    # fallback rather than carry into k.
    exact &= sig < _E17
    sig = np.where(exact, sig, 0)
    k = np.where(exact, k, 0)

    # The significand's digits: the first, then four groups of four.
    head, tail = np.divmod(sig, _E8)
    lead, head = np.divmod(head, _E8)
    g1, g2 = np.divmod(head, 10**4)
    g3, g4 = np.divmod(tail, 10**4)
    last = np.maximum(
        np.maximum(_LAST_DIGIT[0][g1], _LAST_DIGIT[1][g2]),
        np.maximum(_LAST_DIGIT[2][g3], _LAST_DIGIT[3][g4]),
    )
    masks = _MASKS.take((k - _MIN_EXP) * 17 + last, axis=0)
    lit0, lit1, lit2, lit3, kept1, kept2, moved1, moved2 = masks.T
    word1 = _QUADS[g1] | (_QUADS[g2] << np.uint64(32))
    word2 = _QUADS[g3] | (_QUADS[g4] << np.uint64(32))
    moved1 &= word1
    moved2 &= word2
    text = np.empty((len(a), 4), np.uint64)
    text[:, 0] = lit0 | ((lead.astype(np.uint64) + np.uint64(48)) << np.uint64(56))
    text[:, 0] |= np.signbit(cells) * np.uint64(ord("-"))
    text[:, 1] = lit1 | (word1 & kept1) | (moved1 << np.uint64(8))
    text[:, 2] = lit2 | (word2 & kept2) | (moved2 << np.uint64(8)) | (moved1 >> np.uint64(56))
    text[:, 3] = lit3 | (moved2 >> np.uint64(56))
    text[:, 3] |= np.where(eol, np.uint64(ord("\n") << 56), np.uint64(ord(",") << 56))

    text = text.astype("<u8", copy=False).view(np.uint8)
    for i in np.flatnonzero(~exact & (cells != 0)):
        cell = (FLOAT_FORMAT % cells[i] + ("\n" if eol[i] else ",")).encode()
        text[i] = np.frombuffer(cell.ljust(_CELL_BYTES, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(fh, header: list, first: np.ndarray, rest: np.ndarray) -> None:
    """Write a CSV table: the header line, then ``first[i], *rest[i]`` per row.

    ``first`` is a column of length n and ``rest`` an (n, k) real array;
    integer columns are written as floats. Every cell is exactly
    ``FLOAT_FORMAT % x``, so integral values such as row indices print
    without a decimal point, nan and inf are written bare and -0 keeps its
    sign. Rows are formatted ``CSV_CHUNK_CELLS`` cells at a time by the
    numpy kernel described in the module docstring. An empty header writes
    no header line, so successive blocks of rows continue one table.
    """
    if header:
        fh.write(",".join(header) + "\n")
    width = 1 + rest.shape[1]
    rows = max(1, CSV_CHUNK_CELLS // width)
    eol = np.zeros((rows, width), bool)
    eol[:, -1] = True
    for start in range(0, len(first), rows):
        stop = start + rows
        block = np.column_stack((first[start:stop], rest[start:stop])).astype(float, copy=False)
        fh.write(_format_cells(block.ravel(), eol[: len(block)].ravel()))
