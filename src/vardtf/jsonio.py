"""Deterministic JSON and CSV emission for reports, tables and model files,
and the exact reader of those CSV tables.

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

Zero and -0 are written as literals, not by the kernel. Every other cell
(nan, +-inf, magnitudes outside that range, and any whose k did not settle)
is formatted with ``FLOAT_FORMAT %`` on its own. Chunks of
``CSV_CHUNK_CELLS`` cells are joined by dropping each slot's zero bytes.

``read_csv`` reads such tables back, and every cell it returns equals
``float()`` of the cell's text. Converting 17-digit cells one at a time
with ``strtod`` costs about half a microsecond each; here a chunk of
lines is read at once. ``np.fromstring`` reads each cell's digits, point
dropped, as one C integer N, and the point's position gives the scale s
(digits after it). A cell of the form
``-?[digits][.][digits]`` (at least one digit) with N < 10**18 and s <= 22,
so that 10**s is an exact double, takes the fast path:

* N < 2**53: N and 10**s are exact doubles, so q = fl(N / 10**s) is the
  correctly rounded quotient (Clinger's fast path).
* Otherwise N = N_hi + N_lo with N_hi = fl(N) and N_lo exact, and
  q = fl(N_hi / 10**s). Dekker's product gives hi + lo = q * 10**s exactly.
  The remainder r = N - q * 10**s is (N_hi - hi) + N_lo - lo: N_hi - hi is
  exact (Sterbenz), its sum with N_lo is exact (integers below 2**9), and
  subtracting lo rounds once. Dividing by 10**s rounds once more, so the
  correction c is r / 10**s to within a relative 2**-52 + 2**-106. The
  exact quotient q + r / 10**s lies in q + [c - m, c + m] for m = 2**-50 |c|,
  a margin that also covers the rounding of c - m and c + m. Rounding to
  nearest is monotonic: if q + (c - m) and q + (c + m) round to the same
  double, the exact quotient rounds to it too. If they do not, a rounding
  midpoint lies within m of q + c, that is within 2**-49 units in the last
  place (|c| is at most two of them), and the cell goes to the fallback.

The fallback reads a cell with ``float()`` after stripping surrounding
whitespace, and refuses digit-group underscores and non-ASCII characters,
which ``float()`` alone would take. It reads every cell off the fast path:
exponent notation, "+", nan and inf, too many digits, and the cells near
a rounding midpoint. Lines are read in chunks of ``CSV_CHUNK_CHARS``
characters, each completed to a whole line, into an array grown in place,
so the reader holds the table and one chunk's working set (about 0.25 MB).
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

#: printf-style format of one float: 17 significant digits.
FLOAT_FORMAT = "%.17g"

#: Cells formatted per kernel call. The kernel holds a few hundred bytes per
#: cell, so this bounds its working set (a few MB) whatever the table width.
CSV_CHUNK_CELLS = 8192

#: Characters read per ``read_csv`` chunk, before the chunk is completed to
#: a whole line. Besides the table, the reader holds about 8 bytes per
#: character of a chunk.
CSV_CHUNK_CHARS = 1 << 15


#: JSON string escapes: the quote, the backslash and every control character.
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def _emit(obj, indent: int, pieces: list[str]) -> None:
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        pieces.append(FLOAT_FORMAT % x if math.isfinite(x) else f'"{x}"')  # "nan", "inf", "-inf"
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
    elif isinstance(obj, (dict, list, tuple)):
        # An object's items are its (key, value) pairs in key order, an array's
        # its enumerated elements: only the brackets and the key prefix differ.
        is_object = isinstance(obj, dict)
        pieces.append("{" if is_object else "[")
        inner, comma = "\n" + "  " * (indent + 1), ""
        for key, item in sorted(obj.items()) if is_object else enumerate(obj):
            pieces += (comma, inner, _escape(str(key)) + ": ") if is_object else (comma, inner)
            _emit(item, indent + 1, pieces)
            comma = ","
        pieces.append(("\n" + "  " * indent if obj else "") + ("}" if is_object else "]"))
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
#: A slot as one array item; bytes assigned to it are padded with zeros.
_SLOT = np.dtype((np.void, _CELL_BYTES))
#: Slots of 0 and -0, each before "," and before "\n": 2 * signbit + eol.
_ZERO_SLOTS = np.array([b"0,", b"0\n", b"-0,", b"-0\n"], _SLOT)
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


def _times_pow10(a: np.ndarray, s: np.ndarray) -> tuple:
    """``hi + lo == a * 10**s`` exactly, for 0 <= s <= 22.

    Dekker's product: both factors are split into 26-bit halves whose
    partial products are exact, so ``lo`` is the rounding error of ``hi``.
    """
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    hi = a * _POW10[s]
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    # lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl, in place
    lo = ah * ph
    lo -= hi
    lo += ah * pl
    lo += al * ph
    al *= pl
    lo += al
    return hi, lo


def _significand(a: np.ndarray, k: np.ndarray) -> tuple:
    """``hi + lo == a * 10**(16 - k)`` exactly, the 17-digit significand at exponent k,
    and the step that moves k to the exponent putting that product in [1e16, 1e17)."""
    hi, lo = _times_pow10(a, 16 - k)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    return hi, lo, up.astype(np.int64) - down


def _format_cells(cells: np.ndarray, eol: np.ndarray) -> str:
    """``FLOAT_FORMAT % x`` of every cell, each followed by "\\n" where
    ``eol`` is set and by "," elsewhere, as one string."""
    nonzero = np.flatnonzero(cells)
    text = _ZERO_SLOTS[2 * np.signbit(cells) + eol]
    text[nonzero] = _cell_slots(cells[nonzero], eol[nonzero])
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _cell_slots(cells: np.ndarray, eol: np.ndarray) -> np.ndarray:
    """The slots of nonzero cells, one ``_SLOT`` item each."""
    a = np.abs(cells)
    exact = (a > 1e-6) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), _MIN_EXP, _MAX_EXP).astype(np.int64)
    hi, lo, step = _significand(a, k)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        hi[redo], lo[redo], step[redo] = _significand(a[redo], k[redo])
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

    text = text.astype("<u8", copy=False).view(_SLOT)[:, 0]
    for i in np.flatnonzero(~exact):
        text[i] = (FLOAT_FORMAT % cells[i] + ("\n" if eol[i] else ",")).encode()
    return text


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


@contextlib.contextmanager
def removed_on_failure(fh):
    """``fh``, a file just opened for writing, closed when the ``with`` block ends and
    removed if the block fails, so that a failed write leaves no partial file."""
    with fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(fh.name)
            raise


# read_csv's fast path: the largest scale s, and the bound on the significand.
_MAX_SCALE = len(_POW10) - 1
_MAX_SIGNIFICAND = 10**18
_COMMA, _NEWLINE, _POINT, _MINUS = b",\n.-"
# A cell's digits for np.fromstring: "," and "\n" end the cell, the point is
# dropped (as a delete argument) and every other byte reads as "0".
_DIGITS_ONLY = bytes(c if 48 <= c < 58 else _COMMA if c in b",\n" else 48 for c in range(256))


def _quotients(n: np.ndarray, s: np.ndarray) -> tuple:
    """``n / 10**s`` rounded to nearest, and where that rounding is certain
    (the bound is derived in the module docstring)."""
    n_hi = n.astype(float)
    n_lo = n - n_hi.astype(np.int64)
    power = _POW10[s]
    q = n_hi / power
    hi, lo = _times_pow10(q, s)
    # correction = (((n_hi - hi) + n_lo) - lo) / power, in place
    correction = n_hi
    correction -= hi
    correction += n_lo
    correction -= lo
    correction /= power
    margin = np.abs(correction) * 2.0**-50
    x = q + (correction - margin)
    small = n < 2**53
    return np.where(small, q, x), small | (x == q + (correction + margin))


def _read_cell(text: str, row: int) -> float:
    """``float()`` of a cell off the fast path, with whitespace stripped and
    underscores and non-ASCII characters refused."""
    cell = text.strip()
    if cell.isascii() and "_" not in cell:
        try:
            return float(cell)
        except ValueError:
            pass
    raise ValueError(f"row {row}: cannot read {text!r} as a number")


def _cells(text: str, width: int, row0: int):
    """Per cell of a chunk of whole lines, each ending in "\\n": its end,
    its sign, its scale, its digits as one integer N, and whether it has
    the form -?[digits][.][digits]; None unless every line has ``width``
    cells. ``row0`` rows came before the chunk."""
    raw = text.encode("ascii", "replace")
    b = np.frombuffer(raw, np.uint8)
    at = (b < 48).nonzero()[0]  # separators, points, minus signs, whitespace
    kinds = b[at]
    seps = ((kinds == _COMMA) | (kinds == _NEWLINE)).nonzero()[0]
    if len(seps) % width:
        return None
    lines = (kinds[seps] == _NEWLINE).reshape(-1, width)
    if not lines[:, -1].all() or lines[:, :-1].any():
        return None
    ends = at[seps]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # inner: the cell's bytes below "0"; a cell of nothing else is no number
    inner = np.empty_like(seps)
    inner[0] = seps[0]
    inner[1:] = seps[1:] - seps[:-1] - 1
    bare = (ends - starts == inner).nonzero()[0]
    if bare.size:
        i = bare[0]
        raise ValueError(f"row {row0 + i // width + 1}: cannot read {text[starts[i] : ends[i]]!r} as a number")
    # the byte before each cell's end that is below "0": its point, if any
    last = seps - 1
    point = kinds[last] == _POINT
    negative = b[starts] == _MINUS
    grammar = inner - point == negative
    if b.max() > 57:  # letters ("e" included) and non-ASCII characters
        grammar[np.searchsorted(ends, (b > 57).nonzero()[0])] = False
    n = np.fromstring(raw.translate(_DIGITS_ONLY, b"."), np.int64, sep=",")
    return ends, negative, (ends - 1 - at[last]) * point, n, grammar


def _read_rows(text: str, width: int, row0: int) -> np.ndarray:
    """The (rows, width) cells of a chunk of whole lines, each ending in
    "\\n"; ``row0`` rows came before it."""
    cells = _cells(text, width, row0)
    if cells is None:  # blank lines, or a row of another width
        lines = [line for line in text.split("\n") if line.strip()]
        for i, line in enumerate(lines):
            if line.count(",") + 1 != width:
                raise ValueError(f"row {row0 + i + 1}: {line.count(',') + 1} cells, expected {width}")
        if not lines:
            return np.empty((0, width))
        text = "\n".join(lines) + "\n"
        cells = _cells(text, width, row0)
    ends, negative, scale, n, fast = cells
    fast &= (scale <= _MAX_SCALE) & (n < _MAX_SIGNIFICAND)
    x, exact = _quotients(np.multiply(n, fast, out=n), np.multiply(scale, fast, out=scale))
    x = np.where(negative, -x, x)
    for i in (~(fast & exact)).nonzero()[0]:
        start = ends[i - 1] + 1 if i else 0
        x[i] = _read_cell(text[start : ends[i]], row0 + i // width + 1)
    return x.reshape(-1, width)


def read_csv(fh, width: int) -> np.ndarray:
    """Read the rest of a CSV table of ``width`` numeric cells per line.

    The inverse of ``write_csv`` past its header: returns the (n, width - 1)
    array of each row's cells after the first, for ``width`` >= 2. The
    first cells are read, so a malformed one still raises, but not kept.
    Blank and whitespace-only lines are skipped. Every cell is ``float()`` of its text
    (the fast path and its fallback are described in the module docstring).

    Raises
    ------
    ValueError
        A line does not have ``width`` cells, or a cell is not a number.
    """
    out = np.empty((0, width - 1))
    rows = 0
    while text := fh.read(CSV_CHUNK_CHARS):
        text += fh.readline()
        block = _read_rows(text if text.endswith("\n") else text + "\n", width, rows)
        if rows + len(block) > len(out):
            out.resize((max(rows + len(block), len(out) * 5 // 4), width - 1), refcheck=False)
        out[rows : rows + len(block)] = block[:, 1:]
        rows += len(block)
    out.resize((rows, width - 1), refcheck=False)
    return out
