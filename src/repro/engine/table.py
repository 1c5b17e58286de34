"""Column-store tables with MonetDB/PostgreSQL-style update semantics.

The paper's Algorithm 1 hinges on a storage-layer detail: in
PostgreSQL, "the update is implemented as the creation of a new record
and the masking of the old one, [so] the physical order is different
in the two queries".  :class:`Table` reproduces exactly that:

* rows live in append-only column arrays plus a validity mask;
* ``UPDATE`` masks the old row versions and appends the new versions
  at the tail — *physically reordering* the table;
* scans return rows in physical order (valid rows only), which is the
  order aggregation operators consume.

That makes the engine a faithful testbed for the paper's claim: a
query result over conventional floats may change after an UPDATE that
did not touch the aggregated column, while the reproducible SUM cannot.

MVCC snapshot reads
-------------------

Row versions are drawn from a :class:`VersionClock` — private to the
table when it stands alone, shared across the whole catalog once the
table is registered (:mod:`repro.engine.catalog`).  A mutating
statement *begins* a version, applies its changes under the table
lock, and *commits*; :attr:`VersionClock.stable` is the highest
version with no uncommitted predecessor.  A reader that pins
``stable`` at admission and scans with ``snapshot=pin`` sees exactly
the rows visible at that instant — writers that begin later (or were
still in flight at admission) are invisible, bit for bit, no matter
how long the scan takes.  Writers serialize per table through
:attr:`Table.lock`; readers only take it briefly to materialize column
arrays, never for the duration of a query.

What a scan hands back depends on visibility.  When every physical row
is visible to the reader — the common case of a table with no deletes
and no rows newer than the snapshot, decided in O(1) from the table's
highest insert version and lowest delete version — scans return
read-only prefix *views* of the column buffers and build no mask.
Otherwise they return masked copies.  Both are stable under concurrent
writers: column buffers are append-only and :meth:`Column.array`
keeps every handed-out view valid across appends and growth.
"""

from __future__ import annotations

import threading

import numpy as np

from .types import SqlType

__all__ = ["Column", "Table", "Schema", "VersionClock"]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Mark a view of a column buffer read-only and return it."""
    arr.flags.writeable = False
    return arr


class VersionClock:
    """Monotone DML clock with a committed-prefix watermark.

    ``begin()`` hands out the next version and marks it in flight;
    ``commit()`` retires it.  :attr:`stable` is the largest version
    ``v`` such that every version ``<= v`` has committed — the value
    snapshot readers pin.  A reader admitted while a write is still in
    flight therefore pins *before* that write and can never observe
    its effects, without ever blocking on the writer.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._next = 0
        self._inflight: set[int] = set()

    def begin(self) -> int:
        with self._lock:
            self._next += 1
            version = self._next
            self._inflight.add(version)
            return version

    def commit(self, version: int) -> None:
        with self._lock:
            self._inflight.discard(version)

    def advance_to(self, version: int) -> None:
        """Ensure future versions exceed ``version`` (used when a
        standalone table joins a catalog's shared clock)."""
        with self._lock:
            self._next = max(self._next, int(version))

    @property
    def value(self) -> int:
        """The most recently issued version (committed or not)."""
        with self._lock:
            return self._next

    @property
    def stable(self) -> int:
        """The committed-prefix watermark: the snapshot readers pin."""
        with self._lock:
            if self._inflight:
                return min(self._inflight) - 1
            return self._next


class Column:
    """One append-only column."""

    def __init__(self, name: str, sql_type: SqlType):
        self.name = name
        self.sql_type = sql_type
        self._data: list = []
        #: capacity-doubling conversion buffer; ``_converted`` rows of
        #: ``_data`` are materialized in ``_buffer``
        self._buffer: np.ndarray | None = None
        self._converted = 0
        self._encoding: tuple[np.ndarray, np.ndarray] | None = None

    def append(self, value) -> None:
        self._data.append(self.sql_type.coerce(value))
        self._encoding = None

    def extend_raw(self, values) -> None:
        """Append pre-coerced storage values (bulk load fast path)."""
        self._data.extend(values)
        self._encoding = None

    def array(self) -> np.ndarray:
        """The column as a NumPy array (a view over the conversion
        buffer).

        The buffer extends *incrementally* with capacity doubling:
        appending rows converts only the new tail, so a small INSERT
        does not pay a whole-column rebuild — the storage-layer
        property that keeps incremental view refresh O(delta) instead
        of O(table).  Handed-out views stay valid: appends only write
        buffer slots beyond every previously returned view's length,
        and a capacity growth allocates a fresh buffer.

        Callers materializing concurrently must hold the owning
        table's lock (every :class:`Table` accessor does).
        """
        n = len(self._data)
        if self._converted < n or self._buffer is None:
            tail = np.asarray(
                self._data[self._converted:],
                dtype=self.sql_type.numpy_dtype,
            )
            if self._buffer is None or len(self._buffer) < n:
                capacity = max(
                    n, 2 * (0 if self._buffer is None else len(self._buffer))
                )
                grown = np.empty(capacity, dtype=self.sql_type.numpy_dtype)
                if self._converted:
                    grown[: self._converted] = self._buffer[: self._converted]
                self._buffer = grown
            self._buffer[self._converted : n] = tail
            self._converted = n
        return self._buffer[:n]

    def encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary encoding ``(codes, uniques)`` over all physical rows.

        ``uniques`` holds the distinct stored values in sorted order and
        ``codes[i]`` is the index of row ``i``'s value in ``uniques``.
        Cached until the next append — the column-store analogue of a
        dictionary-compressed string column, which lets the vectorized
        GROUP BY turn key comparisons into integer arithmetic
        (:mod:`repro.engine.vectorized`).
        """
        if self._encoding is None:
            arr = self.array()
            if arr.dtype == object:
                # ``np.unique`` cannot order ``None`` against strings;
                # rank NULL before every real value, matching the
                # object-key sort convention of the group finalizers.
                ordered = sorted(
                    set(arr.tolist()), key=lambda v: (v is not None, v)
                )
                index = {value: j for j, value in enumerate(ordered)}
                codes = np.fromiter(
                    (index[v] for v in arr.tolist()),
                    dtype=np.int64, count=len(arr),
                )
                uniques = np.empty(len(ordered), dtype=object)
                uniques[:] = ordered
            else:
                uniques, codes = np.unique(arr, return_inverse=True)
            self._encoding = (codes.astype(np.int64, copy=False), uniques)
        return self._encoding

    def __len__(self) -> int:
        return len(self._data)


class Schema:
    """Ordered (name, type) column list."""

    def __init__(self, columns: list[tuple[str, SqlType]]):
        seen = set()
        for name, _ in columns:
            low = name.lower()
            if low in seen:
                raise ValueError(f"duplicate column {name!r}")
            seen.add(low)
        self.columns = [(name.lower(), sql_type) for name, sql_type in columns]

    def names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def type_of(self, name: str) -> SqlType:
        low = name.lower()
        for col, sql_type in self.columns:
            if col == low:
                return sql_type
        raise KeyError(f"no column {name!r}")

    def __contains__(self, name: str) -> bool:
        return name.lower() in (col for col, _ in self.columns)

    def __len__(self) -> int:
        return len(self.columns)


class Table:
    """A named table: schema + versioned append chunks + delete vector.

    Every mutation advances a monotone **row-version watermark**
    (:attr:`version`).  Rows remember the watermark value of the
    statement that appended them (their *insert version*) and, in the
    delete vector, the watermark of the statement that masked them
    (their *delete version*; 0 = live).  A consumer that snapshotted
    the watermark at time ``W`` can later ask :meth:`delta_masks` for
    exactly the rows inserted or deleted since ``W`` — the delta feed
    behind incrementally-maintained materialized views
    (:mod:`repro.engine.matview`) — or scan with ``snapshot=W`` to see
    the table exactly as it stood at ``W`` (the MVCC read path behind
    the serving layer, :mod:`repro.server`).

    Concurrency: :attr:`lock` (re-entrant) serializes mutating
    statements and guards lazy cache materialization.  Each mutating
    method is statement-atomic under it; multi-call statements (UPDATE)
    use :meth:`replace_rows` so the delete and re-insert share one
    version.
    """

    def __init__(self, name: str, schema: Schema,
                 clock: VersionClock | None = None):
        self.name = name.lower()
        self.schema = schema
        self._columns = {
            col_name: Column(col_name, sql_type)
            for col_name, sql_type in schema.columns
        }
        #: per physical row: watermark of the deleting statement, 0 = live
        self._deleted: list[int] = []
        #: per physical row: watermark of the appending statement
        self._inserted: list[int] = []
        #: monotone DML watermark (bumped once per mutating statement)
        self._version = 0
        # O(1) visibility facts, kept current by every path that
        # appends, masks or restores rows (see :meth:`visibility`):
        #: highest insert version of any physical row (0 = none)
        self._max_inserted = 0
        #: lowest non-zero delete version (0 = nothing masked)
        self._min_deleted = 0
        #: number of masked physical rows
        self._ndeleted = 0
        #: version source — private until a catalog attaches its own
        self._clock = clock if clock is not None else VersionClock()
        #: statement/materialization lock (see class docstring)
        self.lock = threading.RLock()
        #: durable store logging mutations (:mod:`repro.storage.durable`);
        #: ``None`` keeps the table purely in-memory with zero overhead
        self._storage = None
        # Incremental caches: appends extend the cached arrays with
        # just the new tail; deletes (rare) invalidate them outright.
        self._valid_arr: np.ndarray | None = None
        self._ins_arr: np.ndarray | None = None
        self._del_arr: np.ndarray | None = None
        # Shard layouts keyed by (nshards, version watermark): DML
        # never mutates an existing layout — a new version gets a new
        # entry (versioned re-shard), old snapshots keep theirs.
        self._shard_layouts: dict = {}

    def attach_clock(self, clock: VersionClock) -> None:
        """Switch to a shared clock (catalog registration), keeping
        existing row versions valid by advancing the shared clock past
        them."""
        if clock is self._clock:
            return
        with self.lock:
            clock.advance_to(self._version)
            self._clock = clock

    def attach_storage(self, storage) -> None:
        """Start logging this table's mutations to a durable store."""
        with self.lock:
            self._storage = storage

    # -- size -------------------------------------------------------------
    def __len__(self) -> int:
        """Number of *visible* rows."""
        with self.lock:
            return len(self._deleted) - self._ndeleted

    @property
    def physical_rows(self) -> int:
        """Number of stored row versions (visible + masked)."""
        return len(self._deleted)

    @property
    def version(self) -> int:
        """The current row-version watermark."""
        return self._version

    def valid_mask(self) -> np.ndarray:
        with self.lock:
            if self._valid_arr is None:
                self._valid_arr = np.asarray(
                    [d == 0 for d in self._deleted], dtype=bool
                )
            elif len(self._valid_arr) != len(self._deleted):
                # Appended rows are live until a delete invalidates the
                # cache, so the tail extension is all-True.
                tail = np.ones(len(self._deleted) - len(self._valid_arr),
                               dtype=bool)
                self._valid_arr = np.concatenate([self._valid_arr, tail])
            return self._valid_arr

    def _version_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(insert_version, delete_version)`` per physical row, with
        the same incremental-tail caching as :meth:`valid_mask`."""
        with self.lock:
            n = len(self._inserted)
            if self._ins_arr is None:
                self._ins_arr = np.asarray(self._inserted, dtype=np.int64)
            elif len(self._ins_arr) != n:
                tail = np.asarray(self._inserted[len(self._ins_arr):],
                                  dtype=np.int64)
                self._ins_arr = np.concatenate([self._ins_arr, tail])
            if self._del_arr is None:
                self._del_arr = np.asarray(self._deleted, dtype=np.int64)
            elif len(self._del_arr) != n:
                tail = np.zeros(n - len(self._del_arr), dtype=np.int64)
                self._del_arr = np.concatenate([self._del_arr, tail])
            return self._ins_arr, self._del_arr

    def snapshot_mask(self, snapshot: int) -> np.ndarray:
        """Physical-row visibility at version ``snapshot``: inserted at
        or before it, not deleted at or before it."""
        with self.lock:
            n = len(self._inserted)
            ins, del_ = self._version_arrays()
            ins, del_ = ins[:n], del_[:n]
            return (ins <= snapshot) & ((del_ == 0) | (del_ > snapshot))

    def visibility(self, snapshot: int | None = None) -> tuple:
        """``(n, mask)``: the physical row count and the visibility mask
        over rows ``[:n]`` at ``snapshot`` (``None``: the live state),
        or ``mask=None`` when every one of those rows is visible.

        The all-visible test is O(1): no row was inserted after the
        snapshot and none was deleted at or before it.  Compute it once
        per scan and pass it to :meth:`scan`, :meth:`morsels` and
        :meth:`key_encodings` so they read the same rows.
        """
        with self.lock:
            n = len(self._deleted)
            if snapshot is None:
                if not self._min_deleted:
                    return n, None
                return n, self.valid_mask()
            if self._max_inserted <= snapshot and (
                not self._min_deleted or self._min_deleted > snapshot
            ):
                return n, None
            return n, self.snapshot_mask(snapshot)

    def _note_inserted(self, version: int) -> None:
        if version > self._max_inserted:
            self._max_inserted = version

    def _note_deleted(self, indices, version: int) -> int:
        """Mask the live rows among ``indices`` at ``version``; returns
        how many it masked."""
        masked = 0
        for idx in indices:
            if self._deleted[idx] == 0:
                self._deleted[idx] = version
                masked += 1
        if masked:
            self._ndeleted += masked
            if not self._min_deleted or version < self._min_deleted:
                self._min_deleted = version
        return masked

    def delta_masks(self, since: int,
                    upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Physical-row masks of the delta between watermark ``since``
        and ``upto`` (default: now): ``(inserted, deleted)``.

        ``inserted`` marks rows appended after ``since`` that are still
        live at ``upto``; ``deleted`` marks rows that were live at
        ``since`` and have been masked by ``upto``.  Rows both appended
        *and* masked inside the window cancel out and appear in neither
        mask.  The bounded form is what lets WAL recovery re-run a
        REFRESH to exactly its logged watermark even though later
        mutations are already in the table.
        """
        with self.lock:
            if not self._inserted:
                empty = np.zeros(0, dtype=bool)
                return empty, empty.copy()
            ins, del_ = self._version_arrays()
            if upto is None:
                inserted = (ins > since) & (del_ == 0)
                deleted = (ins <= since) & (del_ > since)
            else:
                alive_at_upto = (del_ == 0) | (del_ > upto)
                inserted = (ins > since) & (ins <= upto) & alive_at_upto
                deleted = (ins <= since) & (del_ > since) & (del_ <= upto)
            return inserted, deleted

    def changed_between(self, a: int, b: int) -> bool:
        """True when any insert or delete landed in version window
        ``(min(a,b), max(a,b)]`` — i.e. states ``a`` and ``b`` differ."""
        lo, hi = (a, b) if a <= b else (b, a)
        if lo == hi:
            return False
        with self.lock:
            if not self._inserted:
                return False
            ins, del_ = self._version_arrays()
            return bool(
                np.any((ins > lo) & (ins <= hi))
                or np.any((del_ > lo) & (del_ <= hi))
            )

    # -- mutation ----------------------------------------------------------
    def _append_row(self, values: dict, version: int) -> None:
        lowered = {k.lower(): v for k, v in values.items()}
        missing = [n for n in self.schema.names() if n not in lowered]
        if missing:
            raise ValueError(f"missing values for columns {missing}")
        for col_name, _ in self.schema.columns:
            self._columns[col_name].append(lowered[col_name])
        self._deleted.append(0)
        self._inserted.append(version)
        self._note_inserted(version)

    def insert_row(self, values: dict) -> None:
        self.insert_rows([values])

    def insert_rows(self, rows: list[dict]) -> int:
        """Append many rows as one versioned chunk (one watermark bump
        for the whole statement — INSERT ... VALUES / INSERT ... SELECT).
        An empty statement leaves the watermark untouched."""
        if not rows:
            return 0
        with self.lock:
            start = len(self._deleted)
            version = self._clock.begin()
            try:
                for row in rows:
                    self._append_row(row, version)
                self._version = version
                if self._storage is not None:
                    self._storage.log_rows_appended(self, version, start)
            finally:
                self._clock.commit(version)
        return len(rows)

    def bulk_load(self, columns: dict) -> None:
        """Load pre-coerced storage arrays (used by the TPC-H generator)."""
        lowered = {k.lower(): v for k, v in columns.items()}
        lengths = {len(v) for v in lowered.values()}
        if len(lengths) != 1:
            raise ValueError("all columns must have the same length")
        (nrows,) = lengths
        with self.lock:
            for col_name, _ in self.schema.columns:
                if col_name not in lowered:
                    raise ValueError(f"missing column {col_name!r}")
            if nrows == 0:
                for col_name, _ in self.schema.columns:
                    self._columns[col_name].extend_raw(list(lowered[col_name]))
                return
            start = len(self._deleted)
            version = self._clock.begin()
            try:
                for col_name, _ in self.schema.columns:
                    self._columns[col_name].extend_raw(list(lowered[col_name]))
                self._deleted.extend([0] * nrows)
                self._inserted.extend([version] * nrows)
                self._note_inserted(version)
                self._version = version
                if self._storage is not None:
                    self._storage.log_rows_appended(self, version, start)
            finally:
                self._clock.commit(version)

    def mask_rows(self, physical_indices: np.ndarray) -> int:
        """Delete row versions in place (the masking half of UPDATE).

        A statement that masks nothing does not advance the watermark,
        so it cannot make a fresh materialized view look stale.
        """
        with self.lock:
            hits = [
                idx for idx in np.asarray(physical_indices).tolist()
                if self._deleted[idx] == 0
            ]
            if not hits:
                return 0
            version = self._clock.begin()
            try:
                self._note_deleted(hits, version)
                self._version = version
                if self._storage is not None:
                    self._storage.log_rows_masked(self, version, hits)
            finally:
                self._clock.commit(version)
            # Deletes mutate existing entries: drop the caches rather
            # than mutate arrays callers may still hold.
            self._valid_arr = None
            self._del_arr = None
            return len(hits)

    def replace_rows(self, physical_indices: np.ndarray,
                     rows: list[dict]) -> int:
        """One UPDATE statement: mask the old versions and append the
        new ones under a *single* version, so a snapshot reader sees
        either the whole statement or none of it — never the masked
        half without the re-inserted half."""
        with self.lock:
            hits = [
                idx for idx in np.asarray(physical_indices).tolist()
                if self._deleted[idx] == 0
            ]
            if not hits and not rows:
                return 0
            start = len(self._deleted)
            version = self._clock.begin()
            try:
                self._note_deleted(hits, version)
                for row in rows:
                    self._append_row(row, version)
                self._version = version
                if self._storage is not None:
                    self._storage.log_rows_replaced(
                        self, version, hits, start
                    )
            finally:
                self._clock.commit(version)
            self._valid_arr = None
            self._del_arr = None
            return len(hits)

    def append_versions(self, rows: list[dict]) -> None:
        """Append new row versions (the re-insertion half of UPDATE)."""
        self.insert_rows(rows)

    # -- durability: logging + replay -------------------------------------
    def column_tails(self, start: int) -> dict:
        """Storage arrays of physical rows ``start:`` per column — the
        physical effect of one append, as the WAL records it."""
        with self.lock:
            n = len(self._deleted)
            return {
                name: self._columns[name].array()[start:n].copy()
                for name, _ in self.schema.columns
            }

    @staticmethod
    def _storage_values(values) -> list:
        return values.tolist() if isinstance(values, np.ndarray) else list(
            values
        )

    def _extend_physical(self, columns: dict, versions: list[int]) -> None:
        nrows = len(versions)
        for name, _ in self.schema.columns:
            values = self._storage_values(columns[name])
            if len(values) != nrows:
                raise ValueError(
                    f"column {name!r}: {len(values)} values for "
                    f"{nrows} logged rows"
                )
            self._columns[name].extend_raw(values)
        self._deleted.extend([0] * nrows)
        self._inserted.extend(versions)
        if nrows:
            self._note_inserted(max(versions))

    def replay_append(self, version: int, columns: dict) -> None:
        """Re-apply one logged append (idempotent: versions the table
        already contains — a fuzzy checkpoint overlap — are skipped)."""
        with self.lock:
            version = int(version)
            if version <= self._version:
                return
            names = self.schema.names()
            nrows = len(self._storage_values(columns[names[0]])) if names else 0
            self._extend_physical(columns, [version] * nrows)
            self._version = version
            self._clock.advance_to(version)

    def replay_mask(self, version: int, indices) -> None:
        """Re-apply one logged delete (idempotent, see replay_append)."""
        with self.lock:
            version = int(version)
            if version <= self._version:
                return
            self._note_deleted(
                np.asarray(indices, dtype=np.int64).tolist(), version
            )
            self._version = version
            self._clock.advance_to(version)
            self._valid_arr = None
            self._del_arr = None

    def replay_replace(self, version: int, indices, columns: dict) -> None:
        """Re-apply one logged UPDATE: mask + append under one version."""
        with self.lock:
            version = int(version)
            if version <= self._version:
                return
            self._note_deleted(
                np.asarray(indices, dtype=np.int64).tolist(), version
            )
            names = self.schema.names()
            nrows = len(self._storage_values(columns[names[0]])) if names else 0
            self._extend_physical(columns, [version] * nrows)
            self._version = version
            self._clock.advance_to(version)
            self._valid_arr = None
            self._del_arr = None

    def restore_physical(self, columns: dict, inserted, deleted,
                         version: int) -> None:
        """Install a checkpointed physical state into a freshly created
        (empty) table: column values, per-row insert/delete versions,
        and the watermark — the exact layout the image captured."""
        with self.lock:
            if self._deleted:
                raise ValueError("restore_physical requires an empty table")
            inserted = [int(v) for v in self._storage_values(inserted)]
            deleted = [int(v) for v in self._storage_values(deleted)]
            if len(inserted) != len(deleted):
                raise ValueError("insert/delete version length mismatch")
            for name, _ in self.schema.columns:
                values = self._storage_values(columns[name])
                if len(values) != len(inserted):
                    raise ValueError(
                        f"column {name!r} length mismatch in image"
                    )
                self._columns[name].extend_raw(values)
            self._inserted = inserted
            self._deleted = deleted
            self._max_inserted = max(inserted, default=0)
            masked = [v for v in deleted if v]
            self._min_deleted = min(masked, default=0)
            self._ndeleted = len(masked)
            self._version = int(version)
            self._clock.advance_to(self._version)
            self._valid_arr = None
            self._ins_arr = None
            self._del_arr = None

    # -- access --------------------------------------------------------------
    def _names(self, columns: list[str] | None) -> list[str]:
        if columns is None:
            return self.schema.names()
        return [name.lower() for name in columns]

    def _read(self, columns: list[str] | None, visibility: tuple) -> dict:
        """The rows selected by a :meth:`visibility` result: read-only
        prefix views when every row is visible, masked copies otherwise."""
        n, mask = visibility
        if mask is not None:
            return self.masked_scan(mask, columns)
        return {
            name: _read_only(self._columns[name].array()[:n])
            for name in self._names(columns)
        }

    def column_array(self, name: str, visible_only: bool = True) -> np.ndarray:
        with self.lock:
            if visible_only:
                return self._read([name], self.visibility())[name.lower()]
            return self._columns[name.lower()].array()

    def scan(self, columns: list[str] | None = None,
             snapshot: int | None = None,
             visibility: tuple | None = None) -> dict:
        """Visible rows in physical order, as column arrays.

        ``columns`` restricts the scan to the named columns (projection
        pushdown for the vectorized pipeline); ``None`` scans all.
        ``snapshot`` pins visibility at a row-version watermark — rows
        from later (or still in-flight) statements are excluded.
        ``visibility`` is a precomputed :meth:`visibility` result for
        that snapshot, so callers that also need :meth:`key_encodings`
        decide visibility once.

        When every row is visible the arrays are read-only views of
        the column buffers (no mask, no copy); otherwise they are
        masked copies.  Both stay valid and unchanged while concurrent
        writers append, so they are safe to read lock-free.
        """
        with self.lock:
            if visibility is None:
                visibility = self.visibility(snapshot)
            return self._read(columns, visibility)

    def masked_scan(self, mask: np.ndarray, columns: list[str] | None = None) -> dict:
        """Arbitrary physical-row selection as column arrays (physical
        order).  Used with :meth:`delta_masks` to read a view's
        insert/delete delta."""
        with self.lock:
            n = len(mask)
            return {
                name: self._columns[name].array()[:n][mask]
                for name in self._names(columns)
            }

    def morsels(self, morsel_size: int, columns: list[str] | None = None,
                snapshot: int | None = None,
                visibility: tuple | None = None):
        """Visible rows as columnar chunks of at most ``morsel_size`` rows.

        Chunks are zero-copy views over the scan arrays, yielded in
        physical order; an empty table yields one empty morsel so
        downstream operators still see the column dtypes.  This is the
        scan interface of the morsel-driven pipeline
        (:mod:`repro.engine.pipeline`).  ``columns`` restricts the scan
        (projection pushdown); the chunk row count is preserved even if
        the restriction is empty.  ``snapshot`` and ``visibility`` pin
        row visibility as in :meth:`scan`.
        """
        if morsel_size < 1:
            raise ValueError("morsel_size must be >= 1")
        if columns is not None and not columns and self.schema.names():
            # Keep one column so chunk row counts survive (COUNT(*)-only
            # plans still need to know how many rows each morsel has).
            columns = [self.schema.names()[0]]
        data = self.scan(columns, snapshot=snapshot, visibility=visibility)
        names = list(data.keys())
        nrows = len(data[names[0]]) if names else 0
        if nrows == 0:
            yield data
            return
        for start in range(0, nrows, morsel_size):
            yield {
                name: arr[start : start + morsel_size]
                for name, arr in data.items()
            }

    def key_encodings(self, columns, snapshot: int | None = None,
                      visibility: tuple | None = None) -> dict:
        """Dictionary encodings for the named object-dtype columns.

        Returns ``{name: (codes, uniques)}`` where ``codes`` covers the
        *visible* rows in physical (scan) order — pinned at
        ``snapshot`` (or by ``visibility``) when given, matching
        :meth:`scan`, and likewise a read-only view when every row is
        visible.  Columns with non-object storage are skipped — their
        keys already factorize cheaply with :func:`numpy.unique`.
        """
        out = {}
        with self.lock:
            for name in columns:
                low = name.lower()
                column = self._columns.get(low)
                if column is None or column.sql_type.numpy_dtype != np.dtype(object):
                    continue
                if visibility is None:
                    visibility = self.visibility(snapshot)
                n, mask = visibility
                codes, uniques = column.encoding()
                codes = codes[:n]
                out[low] = (
                    _read_only(codes) if mask is None else codes[mask],
                    uniques,
                )
        return out

    #: bound on cached shard layouts per table (each is one int64
    #: permutation of the visible rows; a handful covers the live
    #: version plus recent snapshots without growing with DML history)
    _SHARD_LAYOUT_CACHE = 4

    def shard_layout(self, nshards: int,
                     snapshot: int | None = None,
                     visibility: tuple | None = None) -> tuple:
        """Shard assignment of the visible rows, as ``(version_key,
        order, bounds)``.

        ``order`` is a stable permutation of the visible-row index
        space grouping rows by shard id; shard ``s`` owns
        ``order[bounds[s]:bounds[s + 1]]``.  Rows are routed by the
        process-stable content hash over *all* columns
        (:func:`repro.distributed.router.shard_ids`), so every process
        — coordinator or executor, any host — agrees on placement.

        Layouts are cached per ``(nshards, version)``: an INSERT bumps
        the table version, so the next query at the new watermark
        computes (and caches) a fresh layout while readers pinned at
        older snapshots keep theirs — re-shard by versioning, never by
        mutation.  ``version_key`` identifies the layout (it is the
        snapshot, or the live version for unpinned reads) and doubles
        as the replica cache token for the distributed exchange.
        ``visibility`` is a precomputed :meth:`visibility` result for
        ``snapshot``, used on a cache miss.
        """
        nshards = int(nshards)
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        with self.lock:
            version_key = (
                self._version if snapshot is None else int(snapshot)
            )
            key = (nshards, version_key)
            cached = self._shard_layouts.get(key)
            if cached is not None:
                return version_key, cached[0], cached[1]
            if visibility is None:
                visibility = self.visibility(snapshot)
            data = self._read(None, visibility)
            nrows = len(next(iter(data.values()))) if data else 0
            if nshards > 1 and nrows:
                from ..distributed.router import shard_ids

                sids = shard_ids(data, nshards)
            else:
                sids = np.zeros(nrows, dtype=np.int64)
            order = np.argsort(sids, kind="stable").astype(
                np.int64, copy=False
            )
            counts = np.bincount(sids, minlength=nshards)
            bounds = np.concatenate(([0], np.cumsum(counts))).astype(
                np.int64
            )
            self._shard_layouts[key] = (order, bounds)
            while len(self._shard_layouts) > self._SHARD_LAYOUT_CACHE:
                self._shard_layouts.pop(next(iter(self._shard_layouts)))
            return version_key, order, bounds

    def shard_scan(self, nshards: int, shard: int,
                   columns: list[str] | None = None,
                   snapshot: int | None = None) -> dict:
        """One shard's rows as column arrays (the shard-local view the
        coordinator ships to an executor process).  Row order within
        the shard is physical scan order — but the aggregate states
        merge exactly, so shard-internal order is a non-event for
        result bits."""
        with self.lock:
            visibility = self.visibility(snapshot)
            _, order, bounds = self.shard_layout(nshards, snapshot, visibility)
            if not 0 <= int(shard) < nshards:
                raise ValueError(
                    f"shard {shard} out of range for {nshards} shards"
                )
            data = self.scan(columns, snapshot=snapshot, visibility=visibility)
            select = order[int(bounds[shard]):int(bounds[shard + 1])]
            return {name: arr[select] for name, arr in data.items()}

    def physical_scan(self) -> tuple[dict, np.ndarray]:
        """All row versions plus the validity mask (for UPDATE/DELETE)."""
        with self.lock:
            return (
                {
                    col_name: self._columns[col_name].array()
                    for col_name, _ in self.schema.columns
                },
                self.valid_mask(),
            )

    def rows(self) -> list[tuple]:
        """Visible rows as Python tuples (natural values)."""
        data = self.scan()
        out = []
        names = self.schema.names()
        types = [self.schema.type_of(n) for n in names]
        nrows = len(data[names[0]]) if names else 0
        for i in range(nrows):
            out.append(
                tuple(t.to_python(data[n][i]) for n, t in zip(names, types))
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table({self.name!r}, {len(self.schema)} cols, "
            f"{len(self)}/{self.physical_rows} rows)"
        )
