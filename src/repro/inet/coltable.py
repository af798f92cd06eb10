"""A columnar table engine behind the ``repro.mlab.tables.Table`` API.

M-Lab's real tables are BigQuery-scale; the row-dict ``Table`` tops out
around a million hop rows because every join materializes a python
dict per output row.  ``ColumnarTable`` stores each column as one
numpy array and runs the two operations TC actually leans on --
equi-join and predicate filtering -- vectorized:

- string columns are *dictionary-encoded* (sorted unique values plus
  an integer code per row, ``None`` encoded as code -1), so joins,
  filters, and gathers move 8-byte codes instead of 60-byte UCS-4
  strings -- this is where the order-of-magnitude win over the row
  backend comes from.  A list of ``str`` encodes by dict passes
  (``dict.fromkeys`` for the distinct values, a sort of those few
  thousand keys, one rank lookup per row) instead of ``np.unique``
  sorting every row; other inputs (``None``, mixed types, unhashable
  values, a string ending in NUL, which numpy strips) take
  ``np.unique``, and both give the same arrays.  The row backend's
  ``Table.codes`` uses the same encoder;
- the equi-join sorts the right side's key column once (stable
  argsort), binary-searches every left key against it
  (``searchsorted``), and expands duplicate matches with
  ``np.repeat`` index arithmetic -- no per-row python; when every left
  row matches once (a join against a lookup table) the result shares
  the left table's column arrays instead of gathering them;
- filters build boolean masks over whole columns.

Row order is bit-for-bit identical to the row backend's join (left
rows in order; duplicate right matches in right-table insertion order,
courtesy of the stable sort), so topology construction produces the
same database from either backend -- ``tests/inet`` asserts it, and
the ``topology`` claim of ``repro.claims`` gates the speedup.

Appends arrive in chunks of :data:`CHUNK_ROWS` rows, each schema-checked
in one C-level pass, and go to one buffer per column.  A string column
is dictionary-encoded as its rows arrive -- a first-seen code per row,
only the distinct strings kept alive -- and its buffer becomes the
sorted encoding on first read.  Columns that defeat the native dtypes
(mixed types, nested values) fall back to object arrays with
python-loop semantics, so correctness never depends on dtype luck.
"""

from itertools import islice, repeat
from operator import eq, itemgetter

import numpy as np

#: Rows an ``extend`` takes from its input, schema-checks and appends at a time.
CHUNK_ROWS = 4096

#: An integer column codes by a presence table over its value span when
#: that span is at most this many values per row, else by ``np.unique``.
#: At the bound the table and its ranks take about the bytes the sort's
#: temporaries do.
SPAN_PER_ROW = 4


class DictColumn:
    """A dictionary-encoded column: sorted unique values + row codes.

    ``values`` is a sorted unique string array; ``codes`` holds one
    index per row, with -1 encoding a ``None`` fill (left-join miss).
    Code equality is value equality, so joins and filters can work on
    the integer codes alone.
    """

    __slots__ = ("values", "codes")

    def __init__(self, values, codes):
        self.values = values
        self.codes = codes

    def __len__(self):
        return len(self.codes)

    def take(self, indices):
        return DictColumn(self.values, self.codes[indices])

    def decode(self):
        """The column as a plain array (object dtype if any None)."""
        if len(self.codes) and self.codes.min() < 0:
            out = self.values[np.maximum(self.codes, 0)].astype(object)
            out[self.codes < 0] = None
            return out
        return self.values[self.codes]

    def tolist(self):
        return self.decode().tolist()

    def codes_in(self, other):
        """This column's rows re-encoded in ``other``'s dictionary.

        Rows whose value is absent from ``other.values`` get the
        sentinel -2 (never equal to any real code or to the None code
        -1, which is preserved so ``None == None`` keeps matching,
        exactly like the row backend's dict join).
        """
        if len(other.values) == 0:
            mapping = np.full(len(self.values), -2)
        else:
            pos = np.searchsorted(other.values, self.values)
            pos = np.minimum(pos, len(other.values) - 1)
            ok = other.values[pos] == self.values
            mapping = np.where(ok, pos, -2)
        if len(self.codes) == 0:
            return self.codes
        return np.where(
            self.codes < 0, -1, mapping[np.maximum(self.codes, 0)]
        )


def _native(values):
    """``values`` as a 1-D array: a native dtype when they fit one, else
    object dtype with python semantics (mixed types, None, nesting)."""
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError):
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iufbUO":
        return _objects(values)
    return arr


def _objects(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = list(values)
    return arr


def _as_column(values):
    """Materialize a python list (or array) as a column.

    Strings dictionary-encode; numerics stay native; anything mixed
    (or containing None) becomes an object array with python
    semantics.
    """
    encoded = _string_codes(values)
    if encoded is not None:
        return DictColumn(*encoded)
    arr = _native(values)
    if arr.dtype.kind != "U":
        return arr
    if arr is values or all(isinstance(value, str) for value in values):
        return DictColumn(*dictionary_codes(arr))
    # numpy turned numbers mixed with strings into strings; the column
    # keeps the values, as the row backend does.
    return _objects(values)


def _string_codes(values):
    """``(values, codes)`` of a list of ``str`` by dict passes, or None.

    The distinct strings come from one ``dict`` pass in first-seen
    order; sorted, they number the rows through a second lookup pass.
    Both loops run in C and sort only the distinct keys, where
    ``np.unique`` sorts every row.  The result is the one ``np.unique``
    gives; inputs it cannot match return None: an empty or non-list
    input, any non-``str`` entry (``None`` and unhashable values
    included), or a string ending in NUL, which numpy strips.
    """
    if type(values) is not list or not values or type(values[0]) is not str:
        return None
    try:
        keys = dict.fromkeys(values)
    except TypeError:  # an unhashable entry: not a list of str
        return None
    if not all(type(key) is str and not key.endswith("\x00") for key in keys):
        return None
    keys = sorted(keys)
    rank = dict(zip(keys, range(len(keys))))
    codes = np.fromiter(map(rank.__getitem__, values), dtype=np.intp, count=len(values))
    return np.array(keys), codes


def _span_codes(arr):
    """``(values, codes)`` of an integer array by a presence table over
    its value span, or None: a non-integer or empty array, or one whose
    span exceeds :data:`SPAN_PER_ROW` values per row.

    Each row marks its offset from the minimum, and a cumulative sum
    over the marks ranks them: linear in rows plus span, where
    ``np.unique`` sorts every row, and the same arrays, dtypes included.
    The offsets are taken in ``intp``, where a span that fits cannot
    wrap (a ``uint64`` column's cast wraps both operands alike), and
    are the one row-size temporary.
    """
    if arr.dtype.kind not in "iu" or not len(arr):
        return None
    low = arr.min()
    span = int(arr.max()) - int(low) + 1
    if span > SPAN_PER_ROW * len(arr):
        return None
    offsets = np.subtract(arr, low, dtype=np.intp, casting="unsafe")
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    rank = present.cumsum()
    rank -= 1
    values = np.flatnonzero(present).astype(arr.dtype)
    values += low
    return values, rank[offsets]


def dictionary_codes(values):
    """``(values, codes)`` of a column: its sorted unique non-None values
    and one index into them per row, ``None`` as -1 (a
    :class:`DictColumn`'s encoding)."""
    if isinstance(values, DictColumn):
        return values.values, values.codes
    encoded = _string_codes(values)
    if encoded is not None:
        return encoded
    arr = _native(values)
    if arr.dtype != object:
        encoded = _span_codes(arr)
        if encoded is not None:
            return encoded
        uniques, codes = np.unique(arr, return_inverse=True)
        return uniques, codes.astype(np.intp, copy=False)
    present = np.not_equal(arr, None)
    uniques, inverse = np.unique(
        _native(arr[present].tolist()), return_inverse=True
    )
    codes = np.full(len(arr), -1, dtype=np.intp)
    codes[present] = inverse
    return uniques, codes


def _decoded(column):
    return column.decode() if isinstance(column, DictColumn) else column


def _take(column, indices):
    if isinstance(column, DictColumn):
        return column.take(indices)
    return column[indices]


def _concat(a, b):
    if len(b) == 0:
        return a
    if len(a) == 0:
        return b
    da, db = _decoded(a), _decoded(b)
    # Strings next to numbers stay objects, as in ``_as_column``.
    if object in (da.dtype, db.dtype) or (da.dtype.kind == "U") != (db.dtype.kind == "U"):
        out = np.empty(len(da) + len(db), dtype=object)
        out[: len(da)] = da
        out[len(da):] = db
        return out
    return _as_column(np.concatenate([da, db]))


def schema_error(name, colset, keys):
    """The error both backends raise for a row keyed by ``keys``."""
    return ValueError(
        f"row does not match schema of {name!r}: "
        f"missing={sorted(colset - keys)} extra={sorted(keys - colset)}"
    )


def _matching_prefix(rows, colset):
    """How many leading ``rows`` are keyed by exactly ``colset``."""
    try:
        if all(map(eq, map(dict.keys, rows), repeat(colset))):
            return len(rows)
    except TypeError:  # a mapping that is not a dict: check row by row
        pass
    return next(
        (i for i, row in enumerate(rows) if row.keys() != colset), len(rows)
    )


def schema_chunks(rows, name, colset):
    """``rows`` in lists of up to :data:`CHUNK_ROWS`, each row keyed by
    exactly ``colset``.

    A failure keeps every row ahead of it: a row that does not match the
    schema, or the input raising, ends the stream after the rows before
    it have come out (``list.extend`` keeps what an iterator gave before
    it raised).  Both backends' ``extend`` append each chunk whole.
    """
    rows = iter(rows)
    while True:
        chunk = []
        failure = None
        try:
            chunk.extend(islice(rows, CHUNK_ROWS))
        except BaseException as exc:
            failure = exc
        good = _matching_prefix(chunk, colset)
        if good < len(chunk):
            failure = schema_error(name, colset, chunk[good].keys())
            del chunk[good:]
        if chunk:
            yield chunk
        if failure is not None:
            raise failure
        if len(chunk) < CHUNK_ROWS:
            return


class _FirstSeen(dict):
    """Codes of a string column's distinct values, in first-seen order.

    Looking up a new value gives it the next code.  A value that is not
    a plain ``str``, or ends in NUL (which numpy strips), is refused
    with ``TypeError``, as an unhashable value is: sorting the distinct
    keys would not give ``np.unique``'s encoding of it.
    """

    __slots__ = ()

    def __missing__(self, key):
        if type(key) is not str or key.endswith("\x00"):
            raise TypeError(f"{key!r} does not dictionary-encode")
        code = self[key] = len(self)
        return code


class _Pending:
    """One column's values appended since the last flush.

    A column whose first value is a ``str`` encodes as it goes:
    ``keys`` numbers its distinct strings and ``codes`` holds one code
    per row, so only the distinct strings stay alive.  Any other column,
    or one that meets a value ``keys`` refuses, holds its values in
    ``raw``; :meth:`column` then takes :func:`_as_column`'s path.
    """

    __slots__ = ("keys", "codes", "raw")

    def __init__(self):
        self.keys = None
        self.codes = None
        self.raw = []

    def __len__(self):
        return len(self.raw) if self.keys is None else len(self.codes)

    def extend(self, rows, column):
        """Append ``row[column]`` of each row of the sequence ``rows``."""
        if self.keys is None:
            if self.raw or not rows or type(rows[0][column]) is not str:
                self.raw.extend(map(itemgetter(column), rows))
                return
            self.keys, self.codes, self.raw = _FirstSeen(), [], None
        codes = self.codes
        start = len(codes)
        try:
            codes.extend(map(self.keys.__getitem__, map(itemgetter(column), rows)))
        except TypeError:  # refused or unhashable: python values from here on
            keys = list(self.keys)
            self.raw = list(map(keys.__getitem__, codes))
            self.raw.extend(map(itemgetter(column), rows[len(codes) - start:]))
            self.keys = self.codes = None

    def column(self):
        """The values as a column, equal to ``_as_column`` of them."""
        if self.keys is None:
            return _as_column(self.raw)
        ordered = sorted(self.keys)
        rank = dict(zip(ordered, range(len(ordered))))
        by_code = list(map(rank.__getitem__, self.keys))
        # One pass straight into the final array: a gather through a
        # temporary code array frees a block big enough to raise glibc's
        # mmap threshold, and later column arrays then land in the brk
        # heap, whose holes stay resident.
        codes = np.fromiter(
            map(by_code.__getitem__, self.codes), dtype=np.intp, count=len(self.codes)
        )
        return DictColumn(np.array(ordered), codes)


class ColumnarTable:
    """An append-only columnar table, API-compatible with ``Table``."""

    def __init__(self, name, columns):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.name = name
        self.columns = tuple(columns)
        self._colset = frozenset(columns)
        self._pending = {c: _Pending() for c in self.columns}
        self._arrays = None
        self._n = 0

    # -- construction helpers -----------------------------------------

    @classmethod
    def from_arrays(cls, name, columns, arrays, n):
        """Wrap pre-built column arrays (no copy)."""
        table = cls(name, columns)
        table._arrays = dict(arrays)
        table._n = int(n)
        return table

    # -- the Table surface --------------------------------------------

    def __len__(self):
        return self._n

    def extend(self, rows):
        """Bulk append; every row must match the schema exactly.

        A failure keeps the rows ahead of it (see :func:`schema_chunks`).
        """
        for chunk in schema_chunks(rows, self.name, self._colset):
            self._append(chunk)

    def _append(self, rows):
        for column, pending in self._pending.items():
            pending.extend(rows, column)
        self._n += len(rows)

    def __iter__(self):
        columns = self.columns
        lists = [self.column(c) for c in columns]
        for values in zip(*lists):
            yield dict(zip(columns, values))

    def scan(self, predicate=None):
        for row in self:
            if predicate is None or predicate(row):
                yield row

    def materialize(self):
        """Force pending appends into their columns.

        Appends are buffered per column (string columns already
        numbered) and materialized lazily on first read; call this to
        take the rest of the encoding cost at ingestion time (the row
        backend's ``materialize`` is a no-op, so callers can invoke it
        unconditionally).
        """
        self._flush()

    def column(self, name):
        """The column's values as a python list."""
        return self._column(name).tolist()

    def array(self, name):
        """The column as a plain numpy array (decoding strings)."""
        return _decoded(self._column(name))

    def codes(self, name):
        """The column as ``(values, codes)``; see :func:`dictionary_codes`."""
        return dictionary_codes(self._column(name))

    # -- columnar internals -------------------------------------------

    def _flush(self):
        if self._arrays is None:
            self._arrays = {c: self._pending[c].column() for c in self.columns}
        elif any(self._pending.values()):
            self._arrays = {
                c: _concat(self._arrays[c], self._pending[c].column())
                for c in self.columns
            }
        self._pending = {c: _Pending() for c in self.columns}

    def _column(self, name):
        if name not in self._colset:
            raise KeyError(name)
        self._flush()
        return self._arrays[name]

    def _gather(self, indices, name=None):
        """A new table of the given row indices (all columns)."""
        self._flush()
        arrays = {c: _take(self._arrays[c], indices) for c in self.columns}
        return ColumnarTable.from_arrays(
            name or self.name, self.columns, arrays, len(indices)
        )

    # -- filters -------------------------------------------------------

    def where_equals(self, column, value):
        col = self._column(column)
        if isinstance(col, DictColumn):
            if value is None:
                mask = col.codes < 0
            else:
                pos = np.searchsorted(col.values, value)
                if pos >= len(col.values) or col.values[pos] != value:
                    mask = np.zeros(len(col), dtype=bool)
                else:
                    mask = col.codes == pos
        elif col.dtype == object:
            mask = np.fromiter(
                (v == value for v in col), dtype=bool, count=len(col)
            )
        else:
            mask = col == value
        return self._gather(np.flatnonzero(mask))

    def where_columns_equal(self, column_a, column_b):
        a = self._column(column_a)
        b = self._column(column_b)
        if isinstance(a, DictColumn) and isinstance(b, DictColumn):
            mask = a.codes_in(b) == b.codes
        else:
            da, db = _decoded(a), _decoded(b)
            if da.dtype == object or db.dtype == object:
                mask = np.fromiter(
                    (x == y for x, y in zip(da, db)),
                    dtype=bool,
                    count=len(da),
                )
            else:
                mask = da == db
        return self._gather(np.flatnonzero(mask))

    def renamed(self, mapping):
        """A view with columns renamed per ``mapping`` (no copy)."""
        unknown = set(mapping) - self._colset
        if unknown:
            raise KeyError(f"no such columns: {sorted(unknown)}")
        self._flush()
        new_columns = tuple(mapping.get(c, c) for c in self.columns)
        if len(set(new_columns)) != len(new_columns):
            raise ValueError("renaming collides column names")
        arrays = {
            mapping.get(c, c): self._arrays[c] for c in self.columns
        }
        return ColumnarTable.from_arrays(
            self.name, new_columns, arrays, self._n
        )

    # -- joins ---------------------------------------------------------

    def join_table(self, other, on, how="inner"):
        """Vectorized equi-join; returns a new ``ColumnarTable``.

        Output row order matches the row backend exactly: left rows in
        order, duplicate right matches in insertion order.
        """
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type {how!r}")
        left_col = self._column(on)
        right_col = other._column(on)
        right_columns = [c for c in other.columns if c != on]

        if isinstance(left_col, DictColumn) and isinstance(
            right_col, DictColumn
        ):
            left_idx, right_idx = _join_indices_codes(
                left_col.codes_in(right_col),
                right_col.codes,
                len(right_col.values),
                how,
            )
        else:
            left_keys = _decoded(left_col)
            right_keys = _decoded(right_col)
            if left_keys.dtype == object or right_keys.dtype == object:
                left_idx, right_idx = _join_indices_object(
                    left_keys, right_keys, how
                )
            else:
                left_idx, right_idx = _join_indices(
                    left_keys, right_keys, how
                )

        self._flush()
        other._flush()
        if left_idx is None:  # every left row once, in order: share them
            arrays = dict(self._arrays)
            n_rows = self._n
        else:
            arrays = {c: _take(self._arrays[c], left_idx) for c in self.columns}
            n_rows = len(left_idx)
        unmatched = right_idx < 0
        any_unmatched = bool(unmatched.any())
        safe_idx = np.where(unmatched, 0, right_idx) if any_unmatched else right_idx
        for c in right_columns:
            col = other._arrays[c]
            if len(other) == 0:
                arrays[c] = np.full(n_rows, None, dtype=object)
            elif isinstance(col, DictColumn):
                codes = col.codes[safe_idx]
                if any_unmatched:
                    codes[unmatched] = -1
                arrays[c] = DictColumn(col.values, codes)
            else:
                values = col[safe_idx]
                if any_unmatched:
                    values = values.astype(object)
                    values[unmatched] = None
                arrays[c] = values
        columns = self.columns + tuple(right_columns)
        return ColumnarTable.from_arrays(
            f"{self.name}*{other.name}", columns, arrays, n_rows
        )

    def join(self, other, on, how="inner"):
        """Row-dict join results, for API parity with ``Table``."""
        return list(self.join_table(other, on, how=how))


def _expand_matches(lo, hi, order, n_left, how):
    """Turn per-left-row match ranges into (left_idx, right_idx).

    ``lo``/``hi`` bound each left row's matches within ``order`` (the
    right rows sorted stably by key, so duplicate matches come out in
    right-table insertion order).  ``right_idx`` is -1 for an unmatched
    left row (left join only).  ``left_idx`` is None when every left
    row comes out exactly once, in order -- the usual join against a
    lookup table, whose left columns then need no gather.
    """
    counts = hi - lo
    if how == "left":
        out_counts = np.maximum(counts, 1)
    else:
        out_counts = counts
    if (out_counts == 1).all():
        matched = counts > 0
        return None, np.where(matched, order[np.where(matched, lo, 0)], -1)
    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(n_left), out_counts)
    group_offsets = np.cumsum(out_counts) - out_counts
    within = np.arange(total) - np.repeat(group_offsets, out_counts)
    positions = np.repeat(lo, out_counts) + within
    matched = np.repeat(counts > 0, out_counts)
    positions = np.where(matched, positions, 0)
    right_idx = np.where(matched, order[positions], -1)
    return left_idx, right_idx


def _empty_join(n_left, how):
    if how == "left":
        return np.arange(n_left), np.full(n_left, -1)
    return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)


def _join_indices(left_keys, right_keys, how):
    """Sort-merge join over plain (numeric) key arrays."""
    if len(right_keys) == 0:
        return _empty_join(len(left_keys), how)
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    hi = np.searchsorted(sorted_keys, left_keys, side="right")
    return _expand_matches(lo, hi, order, len(left_keys), how)


def _join_indices_codes(left_keys, right_codes, n_values, how):
    """Direct-address join over dictionary codes.

    Both key arrays are codes into the *right* column's dictionary
    (``left_keys`` via :meth:`DictColumn.codes_in`: -1 is None, -2 is
    absent-from-dictionary), so instead of binary-searching we bucket
    the right rows by code (+1, so the None code lands in bucket 0) and
    index each left key's bucket bounds directly -- O(n) instead of
    O(n log n), and no string comparisons at all.
    """
    if len(right_codes) == 0:
        return _empty_join(len(left_keys), how)
    shifted = right_codes + 1
    order = np.argsort(shifted, kind="stable")
    counts = np.bincount(shifted, minlength=n_values + 1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    lk = left_keys + 1
    valid = lk >= 0
    safe = np.where(valid, lk, 0)
    lo = np.where(valid, offsets[safe], 0)
    hi = np.where(valid, offsets[safe + 1], 0)
    return _expand_matches(lo, hi, order, len(left_keys), how)


def _join_indices_object(left_keys, right_keys, how):
    """Dict-index fallback for object-dtype key columns."""
    index = {}
    for i, key in enumerate(right_keys):
        index.setdefault(key, []).append(i)
    left_idx = []
    right_idx = []
    for i, key in enumerate(left_keys):
        matches = index.get(key)
        if matches:
            for j in matches:
                left_idx.append(i)
                right_idx.append(j)
        elif how == "left":
            left_idx.append(i)
            right_idx.append(-1)
    return np.asarray(left_idx, dtype=np.intp), np.asarray(
        right_idx, dtype=np.intp
    )
