"""Columnar backend: exact behavioral parity with the row ``Table``."""

import re
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.inet import coltable
from repro.inet.coltable import (
    ColumnarTable,
    DictColumn,
    _as_column,
    _concat,
    dictionary_codes,
)
from repro.mlab.tables import Table, make_table


def _pair(columns):
    return Table("t", columns), ColumnarTable("t", columns)


def _rows(table):
    return [dict(r) for r in table]


class TestParity:
    """Every operation must return identical rows on both backends."""

    def _filled(self, columns, rows):
        row_t, col_t = _pair(columns)
        row_t.extend(rows)
        col_t.extend(rows)
        return row_t, col_t

    def test_insert_iter_scan_column(self):
        rows = [{"k": f"ip{i % 3}", "v": i} for i in range(10)]
        row_t, col_t = self._filled(("k", "v"), rows)
        assert _rows(row_t) == _rows(col_t) == rows
        assert row_t.column("k") == col_t.column("k")
        predicate = lambda r: r["v"] % 2 == 0  # noqa: E731
        assert list(row_t.scan(predicate)) == list(col_t.scan(predicate))
        assert len(row_t) == len(col_t) == 10

    def test_schema_errors_match(self):
        row_t, col_t = _pair(("a", "b"))
        for table in (row_t, col_t):
            with pytest.raises(ValueError):
                table.extend([{"a": 1}])
            with pytest.raises(ValueError):
                table.extend([{"a": 1, "b": 2, "c": 3}])
            with pytest.raises(KeyError):
                table.column("missing")

    def test_where_equals(self):
        rows = [{"k": f"ip{i % 4}", "v": i} for i in range(12)]
        row_t, col_t = self._filled(("k", "v"), rows)
        for value in ("ip0", "ip3", "absent", None):
            assert _rows(row_t.where_equals("k", value)) == \
                _rows(col_t.where_equals("k", value))
        assert _rows(row_t.where_equals("v", 7)) == \
            _rows(col_t.where_equals("v", 7))

    def test_where_columns_equal(self):
        rows = [{"a": f"x{i % 3}", "b": f"x{i % 2}"} for i in range(12)]
        row_t, col_t = self._filled(("a", "b"), rows)
        assert _rows(row_t.where_columns_equal("a", "b")) == \
            _rows(col_t.where_columns_equal("a", "b"))

    def test_renamed(self):
        rows = [{"a": "x", "b": 1}]
        row_t, col_t = self._filled(("a", "b"), rows)
        assert _rows(row_t.renamed({"a": "c"})) == \
            _rows(col_t.renamed({"a": "c"}))
        for table in (row_t, col_t):
            with pytest.raises(KeyError):
                table.renamed({"zz": "c"})
            with pytest.raises(ValueError):
                table.renamed({"a": "b"})

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_join_duplicates_and_order(self, how):
        left_rows = [{"k": k, "x": i}
                     for i, k in enumerate(["a", "b", "a", "c", "d"])]
        right_rows = [{"k": k, "y": i}
                      for i, k in enumerate(["a", "c", "a", "a", "e"])]
        row_l, col_l = self._filled(("k", "x"), left_rows)
        row_r, col_r = self._filled(("k", "y"), right_rows)
        assert row_l.join(row_r, on="k", how=how) == \
            col_l.join(col_r, on="k", how=how)
        assert _rows(row_l.join_table(row_r, on="k", how=how)) == \
            _rows(col_l.join_table(col_r, on="k", how=how))

    def test_join_empty_right(self):
        row_l, col_l = self._filled(("k", "x"), [{"k": "a", "x": 1}])
        row_r, col_r = _pair(("k", "y"))
        for how in ("inner", "left"):
            assert row_l.join(row_r, on="k", how=how) == \
                col_l.join(col_r, on="k", how=how)

    def test_chained_join_through_none_fills(self):
        # A left join introduces None fills; joining/filtering the
        # result again must behave identically on both backends.
        left_rows = [{"k": k, "x": i} for i, k in enumerate(["a", "b", "c"])]
        right_rows = [{"k": "a", "y": "a"}, {"k": "c", "y": "zz"}]
        row_l, col_l = self._filled(("k", "x"), left_rows)
        row_r, col_r = self._filled(("k", "y"), right_rows)
        row_j = row_l.join_table(row_r, on="k", how="left")
        col_j = col_l.join_table(col_r, on="k", how="left")
        assert _rows(row_j) == _rows(col_j)
        assert _rows(row_j.where_columns_equal("k", "y")) == \
            _rows(col_j.where_columns_equal("k", "y"))
        row_r2, col_r2 = self._filled(("y", "z"), [{"y": "zz", "z": 9}])
        assert _rows(row_j.join_table(row_r2, on="y", how="left")) == \
            _rows(col_j.join_table(col_r2, on="y", how="left"))

    @staticmethod
    def _codes(table, name):
        values, codes = table.codes(name)
        return values.tolist(), codes.tolist()

    def test_codes(self):
        rows = [{"s": s, "n": n} for s, n in
                [("b", 3), (None, 1), ("a", None), ("b", 3), (None, 2)]]
        row_t, col_t = self._filled(("s", "n"), rows)
        for name in ("s", "n"):
            assert self._codes(row_t, name) == self._codes(col_t, name)
        assert self._codes(col_t, "s") == (["a", "b"], [1, -1, 0, 1, -1])
        assert self._codes(col_t, "n") == ([1, 2, 3], [2, 0, -1, 2, 1])

    def test_codes_through_left_join_fills(self):
        row_l, col_l = self._filled(("k",), [{"k": "a"}, {"k": "z"}])
        row_r, col_r = self._filled(("k", "y"), [{"k": "a", "y": 7}])
        row_j = row_l.join_table(row_r, on="k", how="left")
        col_j = col_l.join_table(col_r, on="k", how="left")
        assert self._codes(row_j, "y") == self._codes(col_j, "y") == \
            ([7], [0, -1])

    def test_codes_empty_table(self):
        for table in _pair(("s",)):
            values, codes = table.codes("s")
            assert len(values) == len(codes) == 0
            with pytest.raises(KeyError):
                table.codes("missing")

    def test_codes_after_materialize_then_append(self):
        row_t, col_t = _pair(("s", "n"))
        for table in (row_t, col_t):
            table.extend([{"s": "m", "n": 2}, {"s": "c", "n": 1}])
            table.materialize()
            table.extend([{"s": "a", "n": 2}, {"s": None, "n": 5}])
        for name in ("s", "n"):
            assert self._codes(row_t, name) == self._codes(col_t, name)
        assert self._codes(col_t, "s") == (["a", "c", "m"], [2, 1, 0, -1])

    def test_unsupported_join_type(self):
        row_t, col_t = self._filled(("k",), [{"k": "a"}])
        for table in (row_t, col_t):
            with pytest.raises(ValueError):
                table.join_table(table, on="k", how="outer")

    def test_mixed_type_column_falls_back_to_object(self):
        rows = [{"k": "a", "v": 1}, {"k": "b", "v": "two"},
                {"k": "a", "v": None}]
        row_t, col_t = self._filled(("k", "v"), rows)
        assert _rows(row_t) == _rows(col_t)
        assert _rows(row_t.where_equals("v", "two")) == \
            _rows(col_t.where_equals("v", "two"))
        row_r, col_r = self._filled(("v", "w"), [{"v": 1, "w": "x"}])
        assert _rows(row_t.join_table(row_r, on="v")) == \
            _rows(col_t.join_table(col_r, on="v"))


class TestColumnarInternals:
    def test_make_table_backends(self):
        assert isinstance(make_table("t", ("a",), backend="row"), Table)
        assert isinstance(
            make_table("t", ("a",), backend="columnar"), ColumnarTable
        )
        with pytest.raises(ValueError):
            make_table("t", ("a",), backend="parquet")

    def test_string_columns_dictionary_encode(self):
        table = ColumnarTable("t", ("k",))
        table.extend([{"k": "b"}, {"k": "a"}, {"k": "b"}])
        col = table._column("k")
        assert isinstance(col, DictColumn)
        assert col.values.tolist() == ["a", "b"]
        assert col.codes.tolist() == [1, 0, 1]
        assert col.decode().tolist() == ["b", "a", "b"]

    def test_materialize_then_append(self):
        table = ColumnarTable("t", ("k", "v"))
        table.extend([{"k": "a", "v": 1}])
        table.materialize()
        table.extend([{"k": "b", "v": 2}])
        assert _rows(table) == [{"k": "a", "v": 1}, {"k": "b", "v": 2}]
        assert table.array("v").tolist() == [1, 2]

    def test_array_decodes_none_fills(self):
        left = ColumnarTable("l", ("k",))
        left.extend([{"k": "a"}, {"k": "b"}])
        right = ColumnarTable("r", ("k", "y"))
        right.extend([{"k": "a", "y": "Y"}])
        joined = left.join_table(right, on="k", how="left")
        assert joined.array("y").tolist() == ["Y", None]
        assert joined.column("y") == ["Y", None]

    def test_renamed_is_a_view(self):
        table = ColumnarTable("t", ("a", "b"))
        table.extend([{"a": "x", "b": 1}])
        view = table.renamed({"a": "c"})
        assert view._arrays["c"] is table._arrays["a"]

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_join_on_unique_keys_shares_left_columns(self, how):
        left = ColumnarTable("l", ("k", "v"))
        left.extend([{"k": "b", "v": 1}, {"k": "a", "v": 2}, {"k": "b", "v": 3}])
        right = ColumnarTable("r", ("k", "y"))
        right.extend([{"k": "a", "y": "A"}, {"k": "b", "y": "B"}])
        joined = left.join_table(right, on="k", how=how)
        assert joined._arrays["v"] is left._arrays["v"]
        assert joined.column("y") == ["B", "A", "B"]
        right.extend([{"k": "b", "y": "B2"}])  # a duplicate match: rows gather
        joined = left.join_table(right, on="k", how=how)
        assert joined._arrays["v"] is not left._arrays["v"]
        assert joined.column("v") == [1, 1, 2, 3, 3]


def unique_codes(values):
    """The ``np.unique`` encoding every encoder must reproduce: sorted
    unique non-None values and an ``intp`` code per row, None as -1."""
    present = [value is not None for value in values]
    uniques, inverse = np.unique(
        np.asarray([value for value in values if value is not None]),
        return_inverse=True,
    )
    codes = np.full(len(values), -1, dtype=np.intp)
    codes[present] = inverse
    return uniques, codes


#: Strings with NULs (numpy strips a trailing one, so ``"a"`` and
#: ``"a\x00"`` collide), non-ASCII and astral characters; the few
#: fixed ones make lists repeat values.
STRINGS = st.one_of(
    st.sampled_from(["", "a", "a\x00", "\x00", "a\x00b", "\u00e9", "\U0001d11e"]),
    st.text(alphabet="ab\x00\u00e9\u65e5\U0001d11e", max_size=3),
)


@given(
    st.one_of(
        st.lists(STRINGS, max_size=40),
        st.lists(st.one_of(STRINGS, st.none(), st.integers(-3, 3)), max_size=40),
        st.lists(st.integers(-3, 3), max_size=40),
    )
)
def test_encoding_matches_np_unique(values):
    expected_values, expected_codes = unique_codes(values)
    table = ColumnarTable("t", ("s",))
    table.extend({"s": value} for value in values)
    for encoded_values, codes in (dictionary_codes(values), table.codes("s")):
        assert encoded_values.dtype == expected_values.dtype
        assert encoded_values.tolist() == expected_values.tolist()
        assert codes.dtype == np.intp
        assert codes.tolist() == expected_codes.tolist()



INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _assert_unique_codes(arr):
    expected_values, expected_codes = np.unique(arr, return_inverse=True)
    values, codes = dictionary_codes(arr)
    assert values.dtype == expected_values.dtype
    assert values.tolist() == expected_values.tolist()
    assert codes.dtype == np.intp
    assert codes.tolist() == expected_codes.tolist()


@st.composite
def integer_columns(draw):
    """An integer array whose span sits on either side of the bound."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    rows = draw(st.integers(1, 60))
    bound = coltable.SPAN_PER_ROW * rows
    span = draw(st.sampled_from([1, bound, bound + 1, draw(st.integers(1, 3 * bound))]))
    span = min(span, int(info.max) - int(info.min) + 1)
    low = draw(st.integers(int(info.min), int(info.max) - span + 1))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=rows, max_size=rows))
    offsets[0], offsets[-1] = 0, span - 1  # the drawn span is the column's
    return np.array([low + offset for offset in offsets], dtype=dtype)


@given(integer_columns())
def test_integer_codes_match_np_unique(arr):
    _assert_unique_codes(arr)


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(-128, 128, dtype=np.int8),
        np.array([2**64 - 1, 2**64 - 9, 2**64 - 5, 2**64 - 1], dtype=np.uint64),
        np.array([2**63 + 3, 2**63 - 3, 2**63], dtype=np.uint64),
        np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64),
        np.full(5, 7, dtype=np.int32),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.uint8),
    ],
    ids=["int8-full", "uint64-top", "uint64-mid", "int64-full", "one-value", "empty", "empty-uint8"],
)
def test_integer_edge_codes_match_np_unique(arr):
    _assert_unique_codes(arr)


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_presence_table_codes_spans_up_to_the_bound(dtype):
    rows = 10
    span = coltable.SPAN_PER_ROW * rows
    inside = np.array([0, span - 1] + [3] * (rows - 2), dtype=dtype)
    outside = np.array([0, span] + [3] * (rows - 2), dtype=dtype)
    assert coltable._span_codes(inside) is not None
    assert coltable._span_codes(outside) is None
    for arr in (inside, outside):
        _assert_unique_codes(arr)


@given(
    STRINGS,
    st.lists(st.one_of(STRINGS, st.lists(st.integers(-3, 3), max_size=2)), min_size=1, max_size=40)
    .filter(lambda values: any(type(value) is list for value in values)),
)
def test_unhashable_values_stay_python_objects(first, rest):
    """A column of strings that also holds a list keeps python objects
    on both backends; encoding it fails as sorting it does."""
    values = [first, *rest]
    table = ColumnarTable("t", ("s",))
    table.extend({"s": value} for value in values)
    rows = Table("t", ("s",))
    rows.extend({"s": value} for value in values)
    assert table.column("s") == rows.column("s") == values
    with pytest.raises(TypeError):
        dictionary_codes(values)
    with pytest.raises(TypeError):
        table.codes("s")


KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"]))


@given(
    st.lists(KEYS, max_size=12),
    st.lists(KEYS, max_size=6),
    st.sampled_from(["inner", "left"]),
)
def test_join_matches_row_backend(left_keys, right_keys, how):
    """Unique, duplicate, missing and None keys join to the same rows
    on both backends."""
    row_l, col_l = _pair(("k", "v"))
    row_r, col_r = _pair(("k", "y"))
    for table in (row_l, col_l):
        table.extend({"k": key, "v": i} for i, key in enumerate(left_keys))
    for table in (row_r, col_r):
        table.extend({"k": key, "y": f"y{i}"} for i, key in enumerate(right_keys))
    assert _rows(row_l.join_table(row_r, on="k", how=how)) == _rows(
        col_l.join_table(col_r, on="k", how=how)
    )


class TestIngestionContract:
    """A failing ``extend`` keeps exactly the rows ahead of the failure,
    on both backends, whichever chunk the failure falls in."""

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    def test_failing_input_keeps_the_rows_it_gave(self, backend):
        table = make_table("t", ("k", "v"), backend=backend)

        def rows():
            for i in range(4500):
                yield {"k": f"k{i % 7}", "v": i}
            raise RuntimeError("input failed")

        with pytest.raises(RuntimeError, match="input failed"):
            table.extend(rows())
        assert len(table) == 4500
        assert table.column("v") == list(range(4500))
        assert table.column("k") == [f"k{i % 7}" for i in range(4500)]

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    @pytest.mark.parametrize("bad_at", [0, 1, 4095, 4096, 4500])
    def test_schema_mismatch_keeps_the_rows_before_it(self, backend, bad_at):
        table = make_table("t", ("k", "v"), backend=backend)
        rows = [{"k": f"k{i % 7}", "v": i} for i in range(5000)]
        rows[bad_at] = {"k": "x", "w": 1}
        message = "row does not match schema of 't': missing=['v'] extra=['w']"
        with pytest.raises(ValueError, match=re.escape(message)):
            table.extend(rows)
        assert len(table) == bad_at
        assert table.column("v") == list(range(bad_at))
        with pytest.raises(ValueError, match=re.escape(message)):
            table.extend([{"k": "x", "w": 1}])
        assert len(table) == bad_at

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    def test_rows_may_be_any_mapping(self, backend):
        table = make_table("t", ("k", "v"), backend=backend)
        table.extend(MappingProxyType({"k": "a", "v": i}) for i in range(3))
        table.extend([{"k": "b", "v": 3}, MappingProxyType({"k": "c", "v": 4})])
        with pytest.raises(ValueError, match=re.escape("missing=['v'] extra=[]")):
            table.extend([MappingProxyType({"k": "d", "v": 5}), MappingProxyType({"k": "e"})])
        assert _rows(table) == [
            {"k": k, "v": v} for v, k in enumerate(["a", "a", "a", "b", "c", "d"])
        ]


def assert_same_column(got, expected):
    """Same column class, dtypes, values and codes; object columns equal
    element by element."""
    assert type(got) is type(expected)
    if isinstance(expected, DictColumn):
        assert got.values.dtype == expected.values.dtype
        assert got.values.tolist() == expected.values.tolist()
        assert got.codes.dtype == expected.codes.dtype
        assert got.codes.tolist() == expected.codes.tolist()
    else:
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()


def buffered_column(segments):
    """The column list-buffered ingestion builds: each read's pending
    values through ``_as_column``, concatenated onto what came before."""
    column = _as_column(segments[0])
    for segment in segments[1:]:
        if segment:
            column = _concat(column, _as_column(segment))
    return column


#: Values the streamed string encoding cannot take: the column reverts
#: to python values when one arrives (``np.str_("a")`` is an exception
#: once a plain ``"a"`` is in: it hashes and compares as ``"a"``).
ODD_VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.sampled_from(["a\x00", "\x00"]),
    st.sampled_from([np.str_("a"), np.str_("b\x00"), np.str_("zz")]),
)
COLUMN_VALUES = st.one_of(STRINGS, STRINGS, STRINGS, ODD_VALUES)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.lists(COLUMN_VALUES, max_size=9)),
        st.tuples(st.just("row"), st.lists(COLUMN_VALUES, min_size=1, max_size=1)),
        st.tuples(st.just("read"), st.just([])),
    ),
    max_size=8,
)


@given(OPS, st.integers(1, 4))
def test_streamed_ingestion_matches_buffered_encoding(ops, chunk_rows):
    """Extends spanning several chunks, one-row extends and reads in between
    build the column that encoding each read's values at once builds."""
    table = ColumnarTable("t", ("s", "n"))
    segments = [[]]
    with mock.patch.object(coltable, "CHUNK_ROWS", chunk_rows):
        for op, values in ops:
            if op == "extend":
                table.extend({"s": value, "n": 1} for value in values)
            elif op == "row":
                table.extend([{"s": values[0], "n": 1}])
            else:
                table.materialize()
                segments.append([])
            segments[-1].extend(values)
    assert len(table) == sum(map(len, segments))
    assert_same_column(table._column("s"), buffered_column(segments))


@pytest.mark.parametrize(
    "odd", [None, 7, [1], ("t",), "b\x00", np.str_("b"), np.str_("a")], ids=repr
)
@pytest.mark.parametrize("position", [0, 2, 4, 5, 9], ids="at{}".format)
def test_odd_value_anywhere_matches_one_shot_encoding(odd, position):
    """A value the streamed encoding refuses -- first, mid-chunk, or
    first in a chunk (``CHUNK_ROWS`` is 4 here) -- leaves the column
    ``_as_column`` of the same values."""
    values = [f"ip{i % 3}" for i in range(10)]
    values[position] = odd
    table = ColumnarTable("t", ("s",))
    with mock.patch.object(coltable, "CHUNK_ROWS", 4):
        table.extend({"s": value} for value in values)
    assert_same_column(table._column("s"), _as_column(values))
    if not isinstance(odd, (list, tuple)):  # those do not sort among str
        assert_same_column(
            DictColumn(*table.codes("s")), DictColumn(*dictionary_codes(values))
        )


def test_string_column_keeps_only_distinct_strings_until_read():
    table = ColumnarTable("t", ("s", "n"))
    table.extend({"s": f"ip{i % 3}", "n": i} for i in range(10_000))
    pending = table._pending["s"]
    assert pending.raw is None
    assert list(pending.keys) == ["ip0", "ip1", "ip2"]
    assert len(pending.codes) == 10_000
    assert table._pending["n"].keys is None
    column = table._column("s")
    assert column.values.tolist() == ["ip0", "ip1", "ip2"]
    assert column.codes.tolist() == [i % 3 for i in range(10_000)]


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("read_between", [False, True], ids=["extend", "concat"])
@pytest.mark.parametrize(
    "values", [[1, "a"], ["a", 1], [1.5, "1.5", 2], [1, "a", 1], [True, "x"]]
)
def test_numbers_mixed_with_strings_keep_their_types(backend, read_between, values):
    """numpy would turn ``[1, "a"]`` into ``["1", "a"]``; a column keeps
    the values, whether one ``extend`` brings them or a read between
    appends makes the columnar backend concatenate its parts."""
    table = make_table("t", ("v",), backend)
    if read_between:
        for value in values:
            table.extend([{"v": value}])
            table.column("v")
    else:
        table.extend({"v": value} for value in values)
    column = table.column("v")
    assert column == values
    assert [type(value) for value in column] == [type(value) for value in values]
    assert len(table.where_equals("v", values[0])) == values.count(values[0])
