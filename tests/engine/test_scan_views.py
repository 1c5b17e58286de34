"""Zero-copy snapshot scans: fully visible tables served as views.

When every physical row is visible to a reader, :meth:`Table.scan`,
:meth:`Table.morsels`, :meth:`Table.key_encodings` and
:meth:`Table.shard_scan` hand back read-only views of the column
buffers instead of masked copies.  The contract under test: the views
hold exactly the rows (and order) the masked path would return, they
cannot be written through, they survive later appends and buffer
growth, and the O(1) all-visible decision agrees with a brute-force
mask after every kind of mutation — DML, WAL replay and checkpoint
restore included.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro
from repro.engine.table import Schema, Table
from repro.engine.types import DOUBLE, INT, VarcharType


def _table() -> Table:
    return Table("t", Schema([("k", VarcharType(8)), ("i", INT),
                              ("f", DOUBLE)]))


def _rows(start: int, count: int) -> list[dict]:
    return [
        {"k": f"k{j % 3}", "i": j, "f": j * 0.25}
        for j in range(start, start + count)
    ]


def _brute_mask(table: Table, snapshot) -> np.ndarray:
    """Visibility recomputed row by row from the version vectors."""
    ins = np.asarray(table._inserted, dtype=np.int64)
    del_ = np.asarray(table._deleted, dtype=np.int64)
    if snapshot is None:
        return del_ == 0
    return (ins <= snapshot) & ((del_ == 0) | (del_ > snapshot))


def _snapshots(table: Table) -> list:
    return [None, *range(table.version + 2)]


def _assert_scans_match_reference(table: Table) -> None:
    """At every snapshot: the all-visible decision matches a brute-force
    mask, and scan / key_encodings return the masked reference."""
    for snapshot in _snapshots(table):
        mask = _brute_mask(table, snapshot)
        n, decided = table.visibility(snapshot)
        assert n == len(mask)
        assert (decided is None) == bool(mask.all()), snapshot
        if decided is not None:
            assert decided.tolist() == mask.tolist()
        reference = table.masked_scan(mask)
        data = table.scan(snapshot=snapshot)
        assert list(data) == list(reference)
        for name, arr in data.items():
            assert arr.dtype == reference[name].dtype
            assert arr.tolist() == reference[name].tolist(), (snapshot, name)
        codes, uniques = table.key_encodings(["k"], snapshot=snapshot)["k"]
        full_codes, _ = table._columns["k"].encoding()
        assert codes.tolist() == full_codes[: len(mask)][mask].tolist()
        assert uniques[codes].tolist() == reference["k"].tolist()
    assert len(table) == int(np.count_nonzero(_brute_mask(table, None)))


class TestFullyVisibleViews:
    def test_scan_shares_memory_with_column_buffer(self):
        table = _table()
        table.insert_rows(_rows(0, 5))
        buffer = table.column_array("f", visible_only=False)
        data = table.scan(["f", "i"])
        assert np.shares_memory(data["f"], buffer)
        assert data["f"].tolist() == buffer.tolist()
        assert np.shares_memory(table.column_array("f"), buffer)
        pinned = table.scan(["f"], snapshot=table.version)
        assert np.shares_memory(pinned["f"], buffer)

    def test_views_are_read_only(self):
        table = _table()
        table.insert_rows(_rows(0, 6))
        data = table.scan()
        for arr in data.values():
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        for chunk in table.morsels(4, ["f"]):
            with pytest.raises(ValueError):
                chunk["f"][0] = 1.0
        codes, _ = table.key_encodings(["k"])["k"]
        with pytest.raises(ValueError):
            codes[0] = 0
        with pytest.raises(ValueError):
            table.column_array("f")[0] = 1.0
        # The table itself keeps accepting writes.
        table.insert_rows(_rows(6, 1))
        assert len(table) == 7

    def test_view_survives_inserts_that_grow_the_buffer(self):
        table = _table()
        table.insert_rows(_rows(0, 3))
        before = table.scan()
        codes_before, uniques_before = table.key_encodings(["k"])["k"]
        expected = {name: arr.tolist() for name, arr in before.items()}
        expected_keys = uniques_before[codes_before].tolist()
        for start in range(3, 200, 7):
            table.insert_rows(_rows(start, 7))
            table.scan()  # materialize: grows the buffer by doubling
            table.key_encodings(["k"])
        grown = table.column_array("f", visible_only=False)
        assert not np.shares_memory(before["f"], grown)
        for name, arr in before.items():
            assert arr.tolist() == expected[name]
        assert uniques_before[codes_before].tolist() == expected_keys
        assert table.scan()["i"].tolist() == list(range(len(table)))

    def test_empty_table_scans_typed_empty_arrays(self):
        table = _table()
        data = table.scan()
        assert [len(arr) for arr in data.values()] == [0, 0, 0]
        assert data["f"].dtype == np.float64
        assert [len(c["i"]) for c in table.morsels(4, ["i"])] == [0]


class TestMaskedPathMatchesReference:
    def test_after_delete(self):
        table = _table()
        table.insert_rows(_rows(0, 8))
        table.mask_rows(np.array([1, 4]))
        assert table.visibility()[1] is not None
        data = table.scan()
        assert not np.shares_memory(
            data["f"], table.column_array("f", visible_only=False)
        )
        _assert_scans_match_reference(table)

    def test_after_update(self):
        table = _table()
        table.insert_rows(_rows(0, 6))
        table.replace_rows(np.array([0, 2]), _rows(100, 2))
        assert table.scan()["i"].tolist() == [1, 3, 4, 5, 100, 101]
        _assert_scans_match_reference(table)

    def test_snapshot_pinned_before_newer_insert(self):
        table = _table()
        table.insert_rows(_rows(0, 4))
        pinned = table.version
        table.insert_rows(_rows(4, 3))
        assert table.visibility(pinned)[1] is not None
        assert table.visibility()[1] is None
        assert table.scan(["i"], snapshot=pinned)["i"].tolist() == [0, 1, 2, 3]
        _assert_scans_match_reference(table)

    def test_seeded_dml_interleaving(self):
        rng = np.random.default_rng(7)
        table = _table()
        start = 0
        for _ in range(40):
            op = rng.integers(3)
            n = table.physical_rows
            if op == 0 or n == 0:
                count = int(rng.integers(1, 6))
                table.insert_rows(_rows(start, count))
                start += count
            elif op == 1:
                table.mask_rows(rng.integers(0, n, size=2))
            else:
                table.replace_rows(rng.integers(0, n, size=2),
                                   _rows(start, 1))
                start += 1
            _assert_scans_match_reference(table)

    def test_morsels_and_key_encodings_share_one_visibility(self):
        table = _table()
        table.insert_rows(_rows(0, 10))
        visibility = table.visibility()
        table.mask_rows(np.array([3]))  # lands after the decision
        chunks = list(table.morsels(4, ["i"], visibility=visibility))
        codes, uniques = table.key_encodings(["k"], visibility=visibility)["k"]
        scanned = np.concatenate([c["i"] for c in chunks])
        assert scanned.tolist() == list(range(10))
        assert uniques[codes].tolist() == [f"k{j % 3}" for j in range(10)]

    def test_shard_scan_matches_masked_reference(self):
        table = _table()
        table.insert_rows(_rows(0, 30))
        for masked in (False, True):
            if masked:
                table.mask_rows(np.array([2, 17]))
            mask = _brute_mask(table, None)
            reference = table.masked_scan(mask)
            _, order, bounds = table.shard_layout(3)
            for shard in range(3):
                select = order[bounds[shard]:bounds[shard + 1]]
                data = table.shard_scan(3, shard, ["i", "f"])
                assert data["i"].tolist() == reference["i"][select].tolist()
                assert data["f"].tolist() == reference["f"][select].tolist()


class TestConcurrentWriters:
    def test_handed_out_scans_never_change_under_writers(self):
        """Readers pin snapshots and keep their scans while a writer
        appends (growing the buffers) and masks rows; every scan must
        still equal the masked reference of its snapshot afterwards."""
        table = _table()
        table.insert_rows(_rows(0, 4))
        stop = threading.Event()
        errors: list = []
        held: list = []
        held_lock = threading.Lock()

        def write():
            start = 4
            try:
                for step in range(300):
                    table.insert_rows(_rows(start, 3))
                    start += 3
                    if step % 25 == 0:
                        table.mask_rows(np.array([step]))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)
            finally:
                stop.set()

        def read():
            try:
                while not stop.is_set():
                    snapshot = table._clock.stable
                    data = table.scan(["i", "k"], snapshot=snapshot)
                    codes = table.key_encodings(["k"], snapshot=snapshot)
                    copied = {n: a.copy() for n, a in data.items()}
                    with held_lock:
                        if len(held) < 200:  # the earliest scans matter most
                            held.append((snapshot, data, codes["k"], copied))
            except Exception as exc:
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert held
        for snapshot, data, (codes, uniques), copied in held:
            reference = table.masked_scan(_brute_mask(table, snapshot))
            for name, arr in data.items():
                assert arr.tolist() == copied[name].tolist()
                assert arr.tolist() == reference[name].tolist()
            assert uniques[codes].tolist() == reference["k"].tolist()


class TestRecoveredVisibility:
    def test_replayed_records(self):
        source = _table()
        source.insert_rows(_rows(0, 6))
        replica = _table()
        replica.replay_append(1, source.column_tails(0))
        _assert_scans_match_reference(replica)
        assert replica.visibility()[1] is None
        replica.replay_mask(2, [1, 3])
        _assert_scans_match_reference(replica)
        tail = {name: arr[:2] for name, arr in source.column_tails(0).items()}
        replica.replay_replace(3, [0], tail)
        _assert_scans_match_reference(replica)
        assert len(replica) == 5

    def test_restore_physical(self):
        source = _table()
        source.insert_rows(_rows(0, 5))
        source.replace_rows(np.array([2]), _rows(50, 1))
        source.insert_rows(_rows(5, 2))
        image = source.column_tails(0)
        for deleted in (list(source._deleted), [0] * source.physical_rows):
            restored = _table()
            restored.restore_physical(
                image, list(source._inserted), deleted, source.version
            )
            _assert_scans_match_reference(restored)
            assert (restored.visibility()[1] is None) == (not any(deleted))

    def test_crash_recovery_round_trip(self, tmp_path):
        statements = (
            "CREATE TABLE t (k VARCHAR(8), i INT, f DOUBLE)",
            "INSERT INTO t VALUES ('a', 1, 0.5), ('b', 2, 1e16), ('a', 3, 0.25)",
            "UPDATE t SET f = f * 2.0 WHERE k = 'a'",
            "INSERT INTO t VALUES ('c', 4, -1e16)",
            "DELETE FROM t WHERE i = 2",
            "INSERT INTO t VALUES ('b', 5, 0.125)",
        )
        db = repro.open(str(tmp_path), sum_mode="repro",
                        checkpoint_interval=None)
        for j, statement in enumerate(statements):
            db.execute(statement)
            if j == 2:
                db.checkpoint()  # later records replay over the image
        query = "SELECT k, SUM(f), COUNT(*) FROM t GROUP BY k ORDER BY k"
        expected = db.execute(query).arrays
        db.simulate_crash()
        recovered = repro.open(str(tmp_path), sum_mode="repro",
                               checkpoint_interval=None)
        try:
            _assert_scans_match_reference(recovered.table("t"))
            got = recovered.execute(query).arrays
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        finally:
            recovered.close()
