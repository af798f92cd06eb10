"""Columnar backend: exact behavioral parity with the row ``Table``."""

import pytest

from repro.inet.coltable import ColumnarTable, DictColumn
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
                table.insert(a=1)
            with pytest.raises(ValueError):
                table.insert(a=1, b=2, c=3)
            with pytest.raises(ValueError):
                table.extend([{"a": 1}])
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
        table.insert(k="a", v=1)
        table.materialize()
        table.insert(k="b", v=2)
        assert _rows(table) == [{"k": "a", "v": 1}, {"k": "b", "v": 2}]
        assert table.array("v").tolist() == [1, 2]

    def test_array_decodes_none_fills(self):
        left = ColumnarTable("l", ("k",))
        left.extend([{"k": "a"}, {"k": "b"}])
        right = ColumnarTable("r", ("k", "y"))
        right.insert(k="a", y="Y")
        joined = left.join_table(right, on="k", how="left")
        assert joined.array("y").tolist() == ["Y", None]
        assert joined.column("y") == ["Y", None]

    def test_renamed_is_a_view(self):
        table = ColumnarTable("t", ("a", "b"))
        table.insert(a="x", b=1)
        view = table.renamed({"a": "c"})
        assert view._arrays["c"] is table._arrays["a"]
