"""The closed-loop client: times, traces and checks every statement.

One :class:`Runner` drives one workload in one process.  Each
operation is timed alone (``perf_counter`` around the engine call) and
followed by one run of the calibration kernel; digests, oracle checks
and accounting reads all happen outside the timed interval.

Runs are closed loops of *rounds*.  Round 0 warms the program up and is
checked but not timed.  Rounds ``1..fixed_rounds`` always run and form
the run's deterministic window: the result digest, every work count and
the oracle sample cover exactly these rounds, so they repeat across
runs of one seed.  Further rounds run until ``--seconds`` have passed
and only add latency samples.

In a traced run every odd round is traced (:mod:`spans`) and every even
round is not, which measures the tracing overhead inside one process.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import math
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks
from calib import CalibrationKernel
from spans import ROOT, Tracer

#: setups per run; ``setup_s`` is their median
SETUP_REPEATS = 9
#: calibration runs on each side of a set-up
SETUP_CALIB_RUNS = 3
#: ``setup_s`` is in seconds of a machine whose calibration kernel
#: takes this long (raw seconds drift with the host's speed, which
#: swung by a quarter between runs on a shared host)
REFERENCE_CALIB_S = 0.004
#: calibration runs whose median is a statement's local calib time
CALIB_WINDOW = 9


class Runner:
    def __init__(self, workload, seconds: float, trace: bool,
                 fixed_rounds: int | None = None):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.fixed_rounds = (workload.fixed_rounds if fixed_rounds is None
                             else fixed_rounds)
        self.tracer = Tracer() if trace else None
        self.calibration = CalibrationKernel()
        self.attempted = 0
        self.failures: list[str] = []
        #: ``(label, kind, traced) -> [(seconds, index of the
        #: calibration run right after)]``
        self.latencies = collections.defaultdict(list)
        self.calib: list[float] = []
        self._calib_local = np.empty(0)
        self.setup_seconds: list[float] = []
        self.digest = hashlib.sha256()
        self._first: dict = {}
        self._deferred: list = []
        #: accounting read from the engine after each traced fixed-round
        #: statement (plan/kernel cache counters, pipeline stats)
        self.counts = collections.Counter()
        #: PipelineStats merge/finalize seconds of the traced statements
        self.stats_seconds = collections.Counter()
        #: minor page faults taken during traced statements
        self.traced_faults = 0
        self.disk_bytes_per_row = 0.0
        self.recovery_seconds = 0.0
        self.rounds = 0
        self._index = 0
        self._traced = False
        self._stats_seen: dict = {}

    # -- the loop -------------------------------------------------------------
    def run(self) -> None:
        workload = self.workload
        state = None
        try:
            for i in range(SETUP_REPEATS):
                if state is not None:
                    state.close()
                    state = None
                # A closed database sits in reference cycles; collect it
                # now so set-ups do not stack up in memory and no
                # collection of it lands inside a timed statement.
                gc.collect()
                calib = self.calibration.run
                before = [calib() for _ in range(SETUP_CALIB_RUNS)]
                started = time.perf_counter()
                state = workload.setup(i)
                elapsed = time.perf_counter() - started
                after = [calib() for _ in range(SETUP_CALIB_RUNS)]
                self.setup_seconds.append(
                    elapsed * REFERENCE_CALIB_S / statistics.median(
                        before + after))
            self._round(state, 0)
            started = time.perf_counter()
            index = 1
            while (index <= self.fixed_rounds
                   or time.perf_counter() - started < self.seconds):
                self._round(state, index)
                index += 1
            self.rounds = index - 1
            self._index = self.fixed_rounds + 1
            self._traced = self.trace
            if self.tracer is not None:
                self.tracer.counting = False
            workload.finish(self, state)
        finally:
            if state is not None:
                state.close()
        for description, check in self._deferred:
            self._run_check(description, check)

    def _round(self, state, index: int) -> None:
        self._index = index
        self._traced = self.trace and index % 2 == 1
        if self.tracer is not None:
            self.tracer.counting = self._traced and self._counting()
        self.workload.round(self, state, index)

    def _counting(self) -> bool:
        return 1 <= self._index <= self.fixed_rounds

    # -- operations -------------------------------------------------------------
    def _timed(self, label: str, kind: str, call):
        """Run ``call`` as one timed (and maybe traced) operation;
        returns ``(ok, result or traceback, seconds)``."""
        self.attempted += 1
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if self._traced:
            self.tracer.begin()
        started = time.perf_counter()
        try:
            result = call()
            ok = True
        except Exception:
            result = traceback.format_exc()
            ok = False
        finally:
            elapsed = time.perf_counter() - started
            if self._traced:
                self.tracer.end()
        if self._traced:
            self.traced_faults += (
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        self.calib.append(self.calibration.run())
        if self._index >= 1:
            self.latencies[(label, kind, self._traced)].append(
                (elapsed, len(self.calib) - 1))
        if self._traced and self._counting():
            self.counts["statements"] += 1
            if kind in self.workload.join_kinds:
                self.counts["join_statements"] += 1
        if not ok:
            self.fail(f"{label} {kind} raised:\n{result}")
        return ok, result, elapsed

    def _account(self, session) -> dict:
        context = session.execution_context
        return {
            "plan_hits": context.plan_cache_hits,
            "plan_misses": context.plan_cache_misses,
            "kernel_misses": context.kernel_cache_misses,
        }

    def _read_accounting(self, session, before: dict) -> None:
        """Fold the engine's own per-statement accounting into the
        counts of a traced fixed-round statement."""
        after = self._account(session)
        stats = session.last_pipeline_stats
        new_stats = (stats is not None
                     and self._stats_seen.get(id(session)) is not stats)
        self._stats_seen[id(session)] = stats
        if new_stats and self._traced:
            self.stats_seconds["merge"] += stats.merge_seconds
            self.stats_seconds["finalize"] += stats.finalize_seconds
        if not (self._traced and self._counting()):
            return
        for key, value in after.items():
            self.counts[key] += value - before[key]
        if new_stats:
            self.counts["pipeline_runs"] += 1
            self.counts["morsels"] += stats.morsel_count
            self.counts["scalar_runs"] += int(not stats.vectorized)
            if stats.fused:
                # A plan-cache hit reuses its kernel without consulting
                # the kernel LRU, so reuse is "no compile this call".
                self.counts["fused_runs"] += 1
                self.counts["fused_reused"] += int(
                    after["kernel_misses"] == before["kernel_misses"])

    def select(self, session, label: str, kind: str, sql: str, check=None):
        """One SELECT.  A repro result must repeat the bytes of any
        earlier execution of the same text at the same snapshot;
        ``check(result)`` (an oracle) runs after the loop."""
        snapshot = session.pin_snapshot()
        before = self._account(session)
        ok, result, _ = self._timed(label, kind, lambda: session.execute(sql))
        if not ok:
            return None
        self._read_accounting(session, before)
        if label != "repro":
            return result
        digest = checks.result_digest(result)
        key = (sql, snapshot)
        first = self._first.setdefault(key, digest)
        if first != digest:
            self.fail(f"repro {kind} changed bytes on an unchanged "
                       f"snapshot (round {self._index})")
        if 0 <= self._index <= self.fixed_rounds:
            self.digest.update(kind.encode() + digest)
        if check is not None:
            self._deferred.append(
                (f"repro {kind} oracle (round {self._index})",
                 lambda: check(result))
            )
        return result

    def write(self, session, kind: str, sql: str, expect: int, wal=None):
        """One DML/refresh statement that must report ``expect`` rows."""
        before = self._account(session)
        wal_before = wal.tail_bytes() if wal is not None else 0
        ok, result, _ = self._timed("repro", kind,
                                    lambda: session.execute(sql))
        if not ok:
            return
        self._read_accounting(session, before)
        if wal is not None and self._traced and self._counting():
            self.counts["wal_bytes"] += wal.tail_bytes() - wal_before
            self.counts["wal_rows"] += int(result)
        if result != expect:
            self.fail(f"{kind} reported {result} rows, expected {expect}")
        if 0 <= self._index <= self.fixed_rounds:
            self.digest.update(kind.encode() + checks.result_digest(result))

    def checkpoint(self, db) -> None:
        self._timed("repro", "checkpoint", db.checkpoint)

    def recover(self, reopen, expected) -> None:
        """Time ``reopen()`` (reopen + first Q1) right after a crash;
        its result must carry the pre-crash bytes."""
        ok, result, elapsed = self._timed("repro", "recovery", reopen)
        self.recovery_seconds = elapsed
        if ok and (expected is None or checks.result_digest(result)
                   != checks.result_digest(expected)):
            self.fail("recovered Q1 differs from the pre-crash Q1")

    # -- checks -------------------------------------------------------------
    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def _run_check(self, description: str, check) -> None:
        try:
            errors = check()
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            self.fail(f"{description}: " + "; ".join(errors))

    # -- metrics ------------------------------------------------------------
    def calib_median(self) -> float:
        return statistics.median(self.calib)

    def _local_calib(self) -> np.ndarray:
        """Per calibration run, the median of the runs around it: the
        machine's speed at that moment, with single-run jitter removed."""
        if len(self._calib_local) != len(self.calib):
            c = np.asarray(self.calib)
            half = CALIB_WINDOW // 2
            self._calib_local = np.array([
                np.median(c[max(0, i - half):i + half + 1])
                for i in range(c.size)
            ])
        return self._calib_local

    def _samples(self, label: str, kind: str, traced=None) -> np.ndarray:
        """A kind's latencies in calib units: each divided by the local
        calibration time measured next to it."""
        keys = [(label, kind, t) for t in
                ((False, True) if traced is None else (traced,))]
        pairs = [p for key in keys for p in self.latencies[key]]
        if not pairs:
            return np.empty(0)
        elapsed, index = np.array(pairs).T
        return elapsed / self._local_calib()[index.astype(np.int64)]

    def raw_p50_ms(self, label: str, kind: str) -> float:
        """Median wall time of one kind, in ms (printed, not gated)."""
        pairs = (self.latencies[(label, kind, False)]
                 + self.latencies[(label, kind, True)])
        return statistics.median(p[0] for p in pairs) * 1e3 if pairs else 0.0

    def measured(self, label: str, kinds, traced=None) -> list:
        """The kinds among ``kinds`` with latency samples."""
        return [k for k in kinds if self._samples(label, k, traced).size]

    def p50(self, label: str, kinds, traced=None) -> float:
        """Geometric mean over ``kinds`` of each kind's median latency,
        in calib units (0 when no kind has samples)."""
        medians = [float(np.median(self._samples(label, kind, traced)))
                   for kind in self.measured(label, kinds, traced)]
        if not medians:
            return 0.0
        return math.exp(sum(math.log(m) for m in medians) / len(medians))

    def tail(self, label: str, kinds, pct: float, traced=None) -> float:
        """``p50`` times the ``pct`` percentile of every sample divided
        by its kind's median (samples pooled across kinds)."""
        kinds = self.measured(label, kinds, traced)
        if not kinds:
            return 0.0
        ratios = np.concatenate([
            samples / np.median(samples)
            for samples in (self._samples(label, k, traced) for k in kinds)
        ])
        return self.p50(label, kinds, traced) * float(
            np.percentile(ratios, pct))

    def sample_count(self, label: str, kinds, traced=None) -> int:
        return sum(self._samples(label, k, traced).size for k in kinds)

    def failed(self) -> int:
        # An operation can fail more than one check; it is one failure
        # out of the attempted operations all the same.
        return min(len(self.failures), self.attempted)

    def correct(self) -> bool:
        return not self.failures

    def run_digest(self) -> str:
        return self.digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner) -> dict:
    """The untraced run's metrics: ``{name: (value, unit)}``."""
    w = runner.workload
    return {
        "setup_s": (statistics.median(runner.setup_seconds), "s"),
        "read_p50": (runner.p50("repro", w.read_kinds), "calib"),
        "read_tail": (runner.tail("repro", w.read_kinds, w.read_tail_pct),
                      "calib"),
        "ieee_read_p50": (runner.p50("ieee", w.read_kinds), "calib"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def durable_metrics(runner: Runner) -> dict:
    """Write-path and recovery metrics (zero where the workload issues
    no writes)."""
    w = runner.workload
    writes = runner.sample_count("repro", ("insert",)) > 0
    return {
        "write_p50": (runner.p50("repro", ("insert",)) if writes else 0.0,
                      "calib"),
        "write_tail": (runner.tail("repro", ("insert",), w.write_tail_pct)
                       if writes else 0.0, "calib"),
        "recovery_s": (runner.recovery_seconds, "s"),
        "disk_bytes_per_row": (runner.disk_bytes_per_row, "B"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runner: Runner) -> dict:
    """The traced run's metrics: ``{name: (value, unit)}``.

    ``*_ms`` values are a layer's self time summed over the traced
    statements and divided by their number, so they add up (with
    ``unattributed_share`` of the mean statement time) to the mean
    traced statement latency.  Counts are per traced statement of the
    fixed rounds unless the name says otherwise.
    """
    w = runner.workload
    tracer = runner.tracer
    self_times, root_total = tracer.self_times()
    n_traced = max(tracer.statements(), 1)
    c = runner.counts
    t = tracer.counts
    n = max(c["statements"], 1)

    def ms(layer: str) -> float:
        return self_times.get(layer, 0.0) * 1e3 / n_traced

    # Ratios compare like with like: the kinds measured on both sides.
    both = [k for k in runner.measured("repro", w.read_kinds, False)
            if k in runner.measured("repro", w.read_kinds, True)]
    untraced = runner.p50("repro", both, traced=False)
    traced = runner.p50("repro", both, traced=True)
    repro_untraced = runner.p50("repro", w.read_kinds, traced=False)
    metrics = {
        "sql.parse_ms": (ms("sql.parse"), "ms"),
        "sql.parse_calls": (t["sql.parse_calls"] / n, "count"),
        "plan.plan_ms": (ms("plan.plan"), "ms"),
        "plan.cache_hit_ratio": (_ratio(
            c["plan_hits"], c["plan_hits"] + c["plan_misses"]), "ratio"),
        "table.scan_ms": (ms("table.scan"), "ms"),
        "table.insert_ms": (ms("table.insert"), "ms"),
        "table.rows_scanned": (t["table.rows_scanned"] / n, "rows"),
        "pipeline.run_ms": (ms("pipeline.run"), "ms"),
        "pipeline.merge_ms": (
            runner.stats_seconds["merge"] * 1e3 / n_traced, "ms"),
        "pipeline.finalize_ms": (
            runner.stats_seconds["finalize"] * 1e3 / n_traced, "ms"),
        "pipeline.morsels": (c["morsels"] / n, "count"),
        "fused.compile_ms": (ms("fused.compile"), "ms"),
        "fused.kernel_ms": (ms("fused.kernel"), "ms"),
        "fused.kernel_cache_hit_ratio": (_ratio(c["fused_reused"],
                                                c["fused_runs"]), "ratio"),
        "fused.fused_share": (_ratio(c["fused_runs"], c["pipeline_runs"]),
                              "ratio"),
        "operators.scalar_ms": (ms("operators.scalar"), "ms"),
        "operators.scalar_share": (_ratio(c["scalar_runs"],
                                          c["pipeline_runs"]), "ratio"),
        "grouped.update_ms": (ms("grouped.update"), "ms"),
        "grouped.merge_ms": (ms("grouped.merge"), "ms"),
        "grouped.finalize_ms": (ms("grouped.finalize"), "ms"),
        "grouped.scatter_calls": (t["grouped.scatter_calls"] / n, "count"),
        "grouped.sort_calls": (t["grouped.sort_calls"] / n, "count"),
        "grouped.scatter_ratio": (_ratio(t["grouped.scatter_calls"],
                                         t["grouped.scatter_attempts"]),
                                  "ratio"),
        "join.build_ms": (ms("join.build"), "ms"),
        "join.probe_ms": (ms("join.probe"), "ms"),
        "join.builds_per_join_stmt": (_ratio(t["join.builds"],
                                             c["join_statements"]), "count"),
        "matview.refresh_ms": (ms("matview.refresh"), "ms"),
        "matview.delta_rows": (_ratio(t["matview.delta_rows"],
                                      t["matview.refreshes"]), "rows"),
        "wal.append_ms": (ms("wal.append"), "ms"),
        "wal.flush_ms": (ms("wal.flush"), "ms"),
        "wal.fsyncs": (t["wal.fsyncs"] / n, "count"),
        "wal.bytes_per_row": (_ratio(c["wal_bytes"], c["wal_rows"]), "B"),
        "durable.checkpoint_ms": (ms("durable.checkpoint"), "ms"),
        "durable.checkpoint_bytes": (_ratio(
            t["durable.checkpoint_bytes"], t["durable.checkpoints"]), "B"),
        "durable.recover_ms": (ms("durable.recover"), "ms"),
        "repro_over_ieee": (_ratio(repro_untraced, runner.p50(
            "ieee", w.read_kinds, traced=False)), "ratio"),
        "trace_overhead": (_ratio(traced, untraced), "ratio"),
        "unattributed_share": (_ratio(self_times.get(ROOT, 0.0),
                                      root_total), "ratio"),
        "process.minor_faults": (runner.traced_faults / n_traced, "count"),
        "calib_ms": (runner.calib_median() * 1e3, "ms"),
        "failed_frac": (_ratio(runner.failed(), runner.attempted), "ratio"),
    }
    metrics.update(durable_metrics(runner))
    return metrics


def layer_sum_error(runner: Runner) -> float:
    """Relative gap between the summed layer self times (root self time
    included) and the summed statement wall times; 0 up to rounding
    when every span nests inside its statement."""
    self_times, root_total = runner.tracer.self_times()
    return abs(sum(self_times.values()) - root_total) / root_total
