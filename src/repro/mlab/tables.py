"""A tiny joinable record store standing in for M-Lab's BigQuery tables.

TC's input is two tables -- scamper traceroutes and per-hop annotations
-- that get merged on the hop IP (Section 3.3).  ``Table`` supports just
what that pipeline needs: append, scan with a predicate, equi-join, and
the two filters TC runs after the merge.

Two backends share this API: ``Table`` here (row dicts, the reference
implementation) and :class:`repro.inet.coltable.ColumnarTable` (numpy
column arrays, vectorized join and filters, for BigQuery-scale row
counts).  ``make_table`` picks one by name, and the builder functions
take a ``backend=`` so the whole TC pipeline can switch without code
changes -- ``tests/inet`` asserts both produce identical topology
databases.
"""


class Table:
    """An append-only table of dict rows with a fixed column set."""

    def __init__(self, name, columns):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.name = name
        self.columns = tuple(columns)
        self._colset = frozenset(columns)
        self._rows = []

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def extend(self, rows):
        """Bulk append; every row must match the schema exactly.

        Rows are checked and copied a chunk at a time, as the columnar
        backend appends them; a failure keeps the rows ahead of it.
        """
        from repro.inet.coltable import schema_chunks

        for chunk in schema_chunks(rows, self.name, self._colset):
            self._rows.extend(map(dict, chunk))

    def scan(self, predicate=None):
        """Yield rows (optionally filtered)."""
        for row in self._rows:
            if predicate is None or predicate(row):
                yield row

    def materialize(self):
        """No-op, for API parity with the columnar backend.

        The columnar backend buffers appends and encodes them into
        arrays on first read; ``materialize`` lets callers take that
        cost eagerly at ingestion time.  Rows here are already their
        final representation.
        """

    def column(self, name):
        """One column's values as a list, in row order."""
        if name not in self._colset:
            raise KeyError(name)
        return [row[name] for row in self._rows]

    def codes(self, name):
        """The column as ``(values, codes)``: sorted unique non-None
        values and one index into them per row, ``None`` as -1."""
        from repro.inet.coltable import dictionary_codes

        return dictionary_codes(self.column(name))

    def where_equals(self, column, value):
        """Rows with ``row[column] == value``, as a new table."""
        return self._from_shared_rows(
            [row for row in self._rows if row[column] == value]
        )

    def where_columns_equal(self, column_a, column_b):
        """Rows where two columns agree, as a new table."""
        return self._from_shared_rows(
            [row for row in self._rows if row[column_a] == row[column_b]]
        )

    def renamed(self, mapping):
        """A copy with columns renamed per ``mapping``."""
        unknown = set(mapping) - self._colset
        if unknown:
            raise KeyError(f"no such columns: {sorted(unknown)}")
        new_columns = tuple(mapping.get(c, c) for c in self.columns)
        if len(set(new_columns)) != len(new_columns):
            raise ValueError("renaming collides column names")
        table = Table(self.name, new_columns)
        table._rows = [
            {mapping.get(c, c): row[c] for c in self.columns}
            for row in self._rows
        ]
        return table

    def _from_shared_rows(self, rows):
        table = Table(self.name, self.columns)
        table._rows = rows
        return table

    def join(self, other, on, how="inner"):
        """Equi-join on column ``on``; returns a list of merged dicts.

        ``how="left"`` keeps unmatched left rows with ``None`` fills for
        the right columns (annotation misses surface as None ASNs, as
        they do in the real merged M-Lab data).
        """
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type {how!r}")
        index = {}
        for row in other._rows:
            index.setdefault(row[on], []).append(row)
        merged = []
        right_columns = [c for c in other.columns if c != on]
        for row in self._rows:
            matches = index.get(row[on], [])
            if matches:
                for match in matches:
                    combined = dict(row)
                    combined.update(
                        {c: match[c] for c in right_columns}
                    )
                    merged.append(combined)
            elif how == "left":
                combined = dict(row)
                combined.update({c: None for c in right_columns})
                merged.append(combined)
        return merged

    def join_table(self, other, on, how="inner"):
        """Equi-join returning a table (same rows as :meth:`join`)."""
        right_columns = tuple(c for c in other.columns if c != on)
        table = Table(
            f"{self.name}*{other.name}", self.columns + right_columns
        )
        table._rows = self.join(other, on, how=how)
        return table


def make_table(name, columns, backend="row"):
    """Construct a table on the requested backend."""
    if backend == "row":
        return Table(name, columns)
    if backend == "columnar":
        from repro.inet.coltable import ColumnarTable

        return ColumnarTable(name, columns)
    raise ValueError(f"unknown table backend {backend!r}")


TRACEROUTE_COLUMNS = (
    "traceroute_id",
    "server_name",
    "server_ip",
    "destination_ip",
    "hop_index",
    "hop_ip",
    "egress_ip",
    "rtt_ms",
)


def traceroute_table(records, backend="row"):
    """Flatten traceroute records into the scamper-style hop table.

    ``egress_ip`` is the interface the hop reported as the *source* of
    the next link; on a non-aliased router it equals ``hop_ip``, so
    Section 3.3's link-consistency filter (b) becomes the columnar
    predicate ``hop_ip == egress_ip``.
    """
    table = make_table("traceroutes", TRACEROUTE_COLUMNS, backend=backend)
    table.extend(
        {
            "traceroute_id": traceroute_id,
            "server_name": record.server_name,
            "server_ip": record.server_ip,
            "destination_ip": record.destination_ip,
            "hop_index": hop_index,
            "hop_ip": hop.ip,
            "egress_ip": (
                record.links[hop_index + 1][0] if hop_index + 1 < len(record.links) else hop.ip
            ),
            "rtt_ms": hop.rtt_ms,
        }
        for traceroute_id, record in enumerate(records)
        for hop_index, hop in enumerate(record.hops)
    )
    return table


def annotation_table(database, backend="row"):
    """The annotation side of the merge, keyed by hop IP."""
    table = make_table(
        "annotations", ("hop_ip", "asn", "country"), backend=backend
    )
    table.extend(
        {"hop_ip": annotation.ip, "asn": annotation.asn, "country": annotation.country}
        for annotation in database._annotations.values()
    )
    return table
