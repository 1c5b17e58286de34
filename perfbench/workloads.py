"""The benchmark's three workloads.

Each workload builds its database from the run's seed, then issues one
*round* of statements at a time through a :class:`harness.Runner`,
which times, traces and checks them.  A round holds the repro-mode
statements and, right after each SELECT, the same text on an IEEE
session over the same catalog (one session per sum mode, default
config: ``workers=1``, morsel 65536, fused on, no memory budget,
``shards=0``).

* ``q1_repeat`` -- the paper's Table IV workload.  One Q1 text over a
  static ``lineitem``, so every program cache hits and the time goes to
  scan, expressions and the ladder update.
* ``adhoc_mix`` -- a seeded stream of Q3, Q5, a high-cardinality
  ``GROUP BY l_orderkey`` and a ``COUNT(DISTINCT)`` query with
  constants drawn per statement, far more distinct texts than the plan
  (32), join-build (8) and kernel (64) caches hold, so every statement
  parses, plans, builds and compiles afresh.
* ``ingest_mixed`` -- a durable database: per cycle an ``INSERT``
  batch, a view ``REFRESH``, then Q1 and Q3 on the new snapshot; an
  explicit checkpoint every tenth cycle; at the end a simulated crash,
  a reopen and a first Q1.
"""

from __future__ import annotations

import datetime
import os
import shutil

import numpy as np

import repro
from repro.tpch import (
    Q1_SQL,
    Q3_SQL,
    ROWS_PER_SCALE,
    generate_lineitem_arrays,
    load_lineitem,
    load_tpch,
)

import checks

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")


def _date(iso: str, days: int = 0) -> str:
    return (datetime.date.fromisoformat(iso)
            + datetime.timedelta(days=int(days))).isoformat()


def _dbgen_seed(seed: int) -> int:
    """dbgen seed of a benchmark seed (distinct from dbgen's default)."""
    return 19920101 + int(seed)


class _Database:
    """One workload database and its two sessions."""

    def __init__(self, db, path: str | None = None):
        self.db = db
        self.path = path
        self.repro = db.session(sum_mode="repro")
        self.ieee = db.session(sum_mode="ieee")

    def close(self) -> None:
        self.db.close()
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


class Workload:
    """Interface: ``setup`` a database, issue ``round`` after round,
    then ``finish``.  Class attributes fix the run's shape."""

    name = ""
    #: rounds every run completes (and the window that digests, counts
    #: and oracle samples cover), whatever ``--seconds`` says
    fixed_rounds = 0
    #: statement kinds whose latencies make ``read_p50``/``read_tail``
    read_kinds: tuple = ()
    #: kinds whose statements contain hash joins
    join_kinds: tuple = ()
    #: the highest percentile with at least 10 pooled read samples
    #: beyond it in ``fixed_rounds`` rounds
    read_tail_pct = 90
    write_tail_pct = 80

    def __init__(self, seed: int, scale: float, data_dir: str):
        self.seed = int(seed)
        self.scale = scale
        self.data_dir = data_dir
        self.rng = np.random.default_rng([self.seed, 7])

    def setup(self, index: int) -> _Database:
        raise NotImplementedError

    def round(self, runner, state: _Database, index: int) -> None:
        raise NotImplementedError

    def finish(self, runner, state: _Database) -> None:
        """Work after the timed rounds (replays, crash recovery)."""

    def _check_sample(self, index: int) -> bool:
        """Seeded oracle sample: the warm-up round plus ~1/5 of the
        fixed rounds."""
        return index == 0 or (index <= self.fixed_rounds
                              and self.rng.random() < 0.2)


class Q1Repeat(Workload):
    """Static ``lineitem`` at SF 0.05; one Q1 text, repro then IEEE."""

    name = "q1_repeat"
    scale_factor = 0.05
    fixed_rounds = 100
    read_kinds = ("q1",)
    read_tail_pct = 90

    def setup(self, index: int) -> _Database:
        db = repro.open()
        load_lineitem(db, self.scale_factor * self.scale,
                      seed=_dbgen_seed(self.seed))
        return _Database(db)

    def round(self, runner, state, index):
        check = None
        if index == 0:
            # Every later repeat must match this one byte for byte, so
            # one oracle check covers them all.
            reader = checks.SnapshotReader(state.db,
                                           state.repro.pin_snapshot())
            check = lambda result: checks.check_q1(result, reader)  # noqa: E731
        runner.select(state.repro, "repro", "q1", Q1_SQL, check)
        runner.select(state.ieee, "ieee", "q1", Q1_SQL)


def _q3_sql(segment: str, date: str) -> str:
    return Q3_SQL.replace("'BUILDING'", f"'{segment}'").replace(
        "DATE '1995-03-15'", f"DATE '{date}'"
    )


def _q5_sql(region: str, start: str, end: str) -> str:
    return f"""
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = '{region}'
  AND o_orderdate >= DATE '{start}'
  AND o_orderdate < DATE '{end}'
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


def _orderkey_sql(date: str, qty: int) -> str:
    return f"""
SELECT l_orderkey,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       AVG(l_quantity) AS avg_qty,
       COUNT(*) AS lines
FROM lineitem
WHERE l_shipdate > DATE '{date}' AND l_quantity < {qty}
GROUP BY l_orderkey
"""


def _distinct_sql(disc: float, date: str) -> str:
    return f"""
SELECT l_returnflag, l_linestatus,
       COUNT(DISTINCT l_suppkey) AS suppliers,
       SUM(l_quantity) AS qty
FROM lineitem
WHERE l_discount >= {disc:.2f} AND l_shipdate < DATE '{date}'
GROUP BY l_returnflag, l_linestatus
"""


class AdhocMix(Workload):
    """Static TPC-H at SF 0.02; a seeded stream of four query shapes.

    Constants move within narrow windows, so statements of one kind do
    similar work while their texts (several hundred per kind) overflow
    every program cache.
    """

    name = "adhoc_mix"
    scale_factor = 0.02
    fixed_rounds = 60
    read_kinds = ("q3", "q5", "orderkey", "distinct")
    join_kinds = ("q3", "q5")
    read_tail_pct = 80

    def __init__(self, seed, scale, data_dir):
        super().__init__(seed, scale, data_dir)
        self._stream = np.random.default_rng([self.seed, 11])
        self._replay: list = []

    def setup(self, index: int) -> _Database:
        db = repro.open()
        load_tpch(db, self.scale_factor * self.scale,
                  seed=_dbgen_seed(self.seed))
        return _Database(db)

    def _statement(self):
        """``(kind, sql, oracle)``; ``oracle(result, reader)``."""
        rng = self._stream
        kind = self.read_kinds[int(rng.integers(len(self.read_kinds)))]
        if kind == "q3":
            segment = _SEGMENTS[int(rng.integers(len(_SEGMENTS)))]
            date = _date("1995-02-01", rng.integers(89))
            return kind, _q3_sql(segment, date), (
                lambda res, rd: checks.check_q3(res, rd, segment, date))
        if kind == "q5":
            region = _REGIONS[int(rng.integers(len(_REGIONS)))]
            start = _date("1993-11-01", rng.integers(121))
            end = _date(start, 365)
            return kind, _q5_sql(region, start, end), (
                lambda res, rd: checks.check_q5(res, rd, region, start, end))
        if kind == "orderkey":
            date = _date("1992-01-01", rng.integers(90))
            qty = int(rng.integers(40, 51))
            return kind, _orderkey_sql(date, qty), (
                lambda res, rd: checks.check_orderkey_groups(
                    res, rd, date, qty))
        disc = int(rng.integers(3)) / 100
        date = _date("1998-06-01", rng.integers(120))
        return kind, _distinct_sql(disc, date), (
            lambda res, rd: checks.check_distinct(res, rd, disc, date))

    def round(self, runner, state, index):
        kind, sql, oracle = self._statement()
        check = None
        if self._check_sample(index):
            reader = checks.SnapshotReader(state.db,
                                           state.repro.pin_snapshot())
            check = lambda result: oracle(result, reader)  # noqa: E731
        if 0 < index <= self.fixed_rounds and self.rng.random() < 0.1:
            self._replay.append((kind, sql))
        runner.select(state.repro, "repro", kind, sql, check)
        runner.select(state.ieee, "ieee", kind, sql)

    def finish(self, runner, state):
        # The catalog never changes, so a replay reads the snapshot its
        # first execution read and must return the same bytes.
        for kind, sql in self._replay:
            runner.select(state.repro, "repro", "replay", sql)


class IngestMixed(Workload):
    """Durable TPC-H at SF 0.02 with a materialized view; INSERT,
    REFRESH, Q1 and Q3 per cycle, a checkpoint every tenth cycle, and a
    crash plus recovery at the end."""

    name = "ingest_mixed"
    scale_factor = 0.02
    fixed_rounds = 50
    read_kinds = ("q1", "q3")
    join_kinds = ("q3",)
    read_tail_pct = 90
    #: rows per INSERT statement
    batch_rows = 200
    #: one explicit checkpoint per this many cycles
    checkpoint_every = 10

    VIEW_SQL = """
CREATE MATERIALIZED VIEW flag_totals AS
SELECT l_returnflag, l_linestatus,
       SUM(l_extendedprice) AS revenue, SUM(l_quantity) AS qty,
       COUNT(*) AS lines
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""

    def setup(self, index: int) -> _Database:
        path = os.path.join(self.data_dir, f"{self.name}-{index}")
        shutil.rmtree(path, ignore_errors=True)
        # Background checkpoints off: the benchmark checkpoints on a
        # fixed cycle count so every run does the same durable work.
        db = repro.open(path, checkpoint_interval=None)
        try:
            counts = load_tpch(db, self.scale_factor * self.scale,
                               seed=_dbgen_seed(self.seed))
            state = _Database(db, path)
            state.repro.execute(self.VIEW_SQL)
            db.checkpoint()
        except BaseException:
            db.close()
            shutil.rmtree(path, ignore_errors=True)
            raise
        self._orders = counts["orders"]
        self._suppliers = counts["supplier"]
        return state

    def _insert_sql(self, index: int) -> str:
        """One INSERT of dbgen-distributed rows whose order and
        supplier keys reference the loaded tables."""
        n = self.batch_rows
        arrays = generate_lineitem_arrays(n / ROWS_PER_SCALE,
                                          seed=[self.seed, 13, index])
        rng = np.random.default_rng([self.seed, 17, index])
        arrays["l_orderkey"] = rng.integers(1, self._orders + 1, size=n)
        arrays["l_suppkey"] = rng.integers(1, self._suppliers + 1, size=n)
        names = list(arrays)
        literal = {
            "l_shipdate": _date_literal, "l_commitdate": _date_literal,
            "l_receiptdate": _date_literal,
            "l_returnflag": _text_literal, "l_linestatus": _text_literal,
        }
        rows = []
        for i in range(n):
            rows.append("(" + ", ".join(
                literal.get(name, _number_literal)(arrays[name][i])
                for name in names
            ) + ")")
        return (f"INSERT INTO lineitem ({', '.join(names)}) VALUES\n"
                + ",\n".join(rows))

    def round(self, runner, state, index):
        insert = self._insert_sql(index)
        runner.write(state.repro, "insert", insert,
                     expect=self.batch_rows, wal=state.db.storage.wal)
        runner.write(state.repro, "refresh",
                     "REFRESH MATERIALIZED VIEW flag_totals",
                     expect=self.batch_rows)
        check = self._check_sample(index)
        reader = checks.SnapshotReader(state.db, state.repro.pin_snapshot())
        runner.select(state.repro, "repro", "q1", Q1_SQL,
                      (lambda r: checks.check_q1(r, reader)) if check
                      else None)
        runner.select(state.ieee, "ieee", "q1", Q1_SQL)
        runner.select(state.repro, "repro", "q3", Q3_SQL,
                      (lambda r: checks.check_q3(r, reader, "BUILDING",
                                                 "1995-03-15")) if check
                      else None)
        runner.select(state.ieee, "ieee", "q3", Q3_SQL)
        # Mid-period rounds are odd, so a traced run traces every
        # checkpoint (it traces odd rounds).
        if index % self.checkpoint_every == self.checkpoint_every // 2:
            runner.checkpoint(state.db)

    def finish(self, runner, state):
        # Replays on the final snapshot must match the last cycle.
        before = runner.select(state.repro, "repro", "replay", Q1_SQL)
        runner.select(state.repro, "repro", "replay", Q3_SQL)
        lineitem_rows = len(state.db.table("lineitem"))
        runner.disk_bytes_per_row = _directory_bytes(state.path) / lineitem_rows
        state.db.simulate_crash()

        def recover():
            db = repro.open(state.path, checkpoint_interval=None)
            state.db = db
            state.repro = db.session(sum_mode="repro")
            state.ieee = db.session(sum_mode="ieee")
            return state.repro.execute(Q1_SQL)

        runner.recover(recover, expected=before)


def _directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


def _date_literal(value) -> str:
    return f"DATE '{datetime.date.fromordinal(int(value)).isoformat()}'"


def _text_literal(value) -> str:
    return f"'{value}'"


def _number_literal(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))


WORKLOADS = {w.name: w for w in (Q1Repeat, AdhocMix, IngestMixed)}
