import io
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vardtf.jsonio import CSV_CHUNK_CELLS, canonical_json, write_csv

from helpers import write_csv_reference


def _both(header, first, rest):
    """(write_csv output, reference output) of one table."""
    fast, ref = io.StringIO(), io.StringIO()
    write_csv(fast, header, first, rest)
    write_csv_reference(ref, header, first, rest)
    return fast.getvalue(), ref.getvalue()


def _assert_cells_match(values):
    """Write ``values`` as a table of three columns, padded with zeros."""
    values = np.asarray(values, dtype=float)
    cells = np.concatenate([values, np.zeros(-len(values) % 3)]).reshape(-1, 3)
    fast, ref = _both(["a", "b", "c"], cells[:, 0], cells[:, 1:])
    assert fast == ref


def _edge_values():
    big = np.finfo(float).max
    values = [0.0, -0.0, 5e-324, -5e-324, big, -big, np.nan, np.inf, -np.inf]
    for e in range(-30, 31):
        p = float(f"1e{e}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    values += [1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, 0.0)]
    # floor(log10) misjudges these by one.
    values += [9.9999999999999995e-07, 0.099999999999999992, 0.99999999999999989]
    # Ties at the 17th digit round half to even.
    values += [1000000000000000.25, 1000000000000000.75, 1000000000000001.25]
    # The switch between fixed and exponent notation at exponent -4/-5.
    values += [1e-4, 9.9999999999999991e-05, 9.9999999999999995e-05, 1.2345e-5, 0.00012345]
    # The low edge of the kernel's range.
    values += [np.nextafter(1e-6, np.inf), np.nextafter(1e-6, 0.0), 1e-6]
    return np.array(values)


class TestCellFormat:
    def test_edge_values(self):
        values = _edge_values()
        _assert_cells_match(np.concatenate([values, -values]))

    def test_integers(self):
        fast, ref = _both(["n"], np.arange(200001), np.zeros((200001, 0)))
        assert fast == ref

    def test_random_magnitudes(self):
        rng = np.random.default_rng(5)
        n = 50000
        values = np.concatenate([
            rng.normal(size=n),
            rng.uniform(-1.0, 1.0, size=n),
            np.exp(rng.uniform(-40.0, 45.0, size=n)) * rng.choice([-1.0, 1.0], size=n),
            rng.integers(-10**6, 10**6, size=n).astype(float),
            np.round(rng.normal(size=n), 3),
        ])
        _assert_cells_match(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=60))
    def test_any_float(self, values):
        _assert_cells_match(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-7, max_value=1e18), min_size=1, max_size=60))
    def test_kernel_range(self, values):
        _assert_cells_match(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
        | st.floats(-2.2250738585072009e-308, 2.2250738585072009e-308)  # subnormals
        | st.floats(1e30, 1e300) | st.floats(-1e300, -1e30)
        | st.floats(1e-300, 1e-30) | st.floats(-1e-30, -1e-300)
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=60))
    def test_chunks_with_zeros(self, values):
        # zeros are written as literals and the kernel formats the others
        _assert_cells_match(values)


class TestTableShape:
    def _check(self, rows, cols, first=None):
        rng = np.random.default_rng(rows * 31 + cols)
        rest = rng.normal(size=(rows, cols))
        first = rng.normal(size=rows) if first is None else first
        header = ["x"] + [f"c{j}" for j in range(cols)]
        fast, ref = _both(header, first, rest)
        assert fast == ref
        return fast

    def test_zero_rows_is_header_only(self):
        assert self._check(0, 4) == "x,c0,c1,c2,c3\n"

    def test_one_row(self):
        self._check(1, 5)

    def test_rows_not_a_multiple_of_the_chunk(self):
        cols = 6
        rows = 2 * (CSV_CHUNK_CELLS // (cols + 1)) + 3
        self._check(rows, cols)

    def test_one_column_rest(self):
        self._check(1000, 1)

    def test_row_wider_than_a_chunk(self):
        self._check(3, CSV_CHUNK_CELLS + 5)

    def test_integer_first_column(self):
        rows = CSV_CHUNK_CELLS + 17
        self._check(rows, 3, first=np.arange(rows))


def test_an_empty_header_continues_a_table():
    rng = np.random.default_rng(5)
    first, rest = np.arange(40.0), rng.normal(size=(40, 3))
    whole, blocks = io.StringIO(), io.StringIO()
    write_csv(whole, ["t", "a", "b", "c"], first, rest)
    for start, stop, header in ((0, 7, ["t", "a", "b", "c"]), (7, 8, []), (8, 40, [])):
        write_csv(blocks, header, first[start:stop], rest[start:stop])
    assert blocks.getvalue() == whole.getvalue()


#: Text with no control character, which ``json.dumps`` escapes in its own way.
_PRINTABLE = st.text(st.characters(min_codepoint=0x20, codec="utf-8"))
_PLAIN_SCALARS = st.none() | st.booleans() | st.integers() | _PRINTABLE
_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
_NUMPY_SCALARS = (
    _FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)


def _documents(scalars, keys):
    """Nested dicts, lists and tuples, empty ones included, of ``scalars``."""
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(keys, inner, max_size=4),
        max_leaves=20,
    )


def _exact(doc):
    """``doc`` as ``json.loads`` of its canonical JSON should give it back:
    tuples as lists, each number as its exact value and sign, nan and +-inf
    as the strings "nan", "inf" and "-inf"."""
    if isinstance(doc, dict):
        return {key: _exact(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_exact(item) for item in doc]
    if isinstance(doc, (bool, np.bool_)):
        return bool(doc)
    if isinstance(doc, (int, np.integer)):
        return Fraction(int(doc)), doc < 0
    if isinstance(doc, (float, np.floating)):
        x = float(doc)
        return (Fraction(x), math.copysign(1.0, x) < 0) if math.isfinite(x) else str(x)
    return doc


def _parse_int(text: str):
    # only -0.0 prints as "-0", which json.loads alone reads as the integer 0
    return -0.0 if text == "-0" else int(text)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(_documents(_FLOATS | st.text() | _PLAIN_SCALARS | _NUMPY_SCALARS, st.text()))
    def test_json_loads_gives_the_document_back(self, doc):
        assert _exact(json.loads(canonical_json(doc), parse_int=_parse_int)) == _exact(doc)

    @settings(max_examples=300, deadline=None)
    @given(_documents(_PLAIN_SCALARS, _PRINTABLE))
    def test_equals_the_standard_encoder_without_floats(self, doc):
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert canonical_json(doc) == expected
