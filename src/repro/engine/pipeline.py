"""Morsel-driven parallel query pipeline.

The engine executes SELECTs as a streaming pipeline over *morsels* —
columnar chunks of at most :data:`ExecutionContext.morsel_size` rows:

    morsel scan -> filter -> project / partial-aggregate (per worker)
                -> exact merge -> finalize

Morsels are pre-assigned to workers round-robin by morsel index, and
worker partials are merged in worker order.  That makes the plan fully
deterministic for a given ``(workers, morsel_size)`` — and, because the
repro aggregate states merge *exactly*
(:class:`~repro.aggregation.grouped.GroupedSummation` /
:meth:`~repro.core.state.SummationState.merge`), the repro-mode result
bits are identical for **every** ``(workers, morsel_size)``
combination, including the serial whole-batch path.  IEEE mode keeps
plain float partials, so its results may drift with the split — the
engine-layer demonstration of the paper's motivating problem.

Timing hooks: per-worker busy time is measured with
``time.thread_time`` (CPU time of that thread only), so
:meth:`PipelineStats.critical_path` models the wall-clock of the plan
on ``workers`` dedicated cores even when the host serialises the
threads (GIL, single-core CI runners).
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ConfigError
from .expr import evaluate
from .operators import (
    AggregateSpec,
    Batch,
    OperatorTimings,
    PartialGroupTable,
)
from .sql import ast
from .vectorized import VectorizedGroupTable, plan_supports_vectorized

__all__ = [
    "DEFAULT_MORSEL_SIZE",
    "ExecutionContext",
    "PipelineStats",
    "run_grouped_pipeline",
    "run_projection_pipeline",
]

#: Default morsel size: big enough to amortise NumPy dispatch, small
#: enough that a few morsels exist at TPC-H bench scales.  At 16384
#: rows every per-morsel float64 temporary is 128 KiB or less, so it
#: stays in reused heap pages (below glibc's mmap threshold) and no
#: statement page-faults; the bincount blocks of the ladder update
#: (2**(54-w) rows, 16384 for binary64) also cover a whole morsel.
DEFAULT_MORSEL_SIZE = 1 << 14


class ExecutionContext:
    """Execution knobs threaded from the session into the pipeline."""

    JOIN_BUILD_SIDES = ("auto", "left", "right")

    #: Default spill partition fan-out for the external aggregation —
    #: enough to bound per-partition merge state, few enough that the
    #: per-morsel split and per-partition update overhead stay small
    #: (the Python pipeline pays a fixed NumPy dispatch cost per
    #: sub-batch, so high fan-outs hurt more here than in the paper's
    #: native engine).
    DEFAULT_SPILL_PARTITIONS = 4

    #: Default bound on cached fused kernels per context.  Signatures
    #: include build-side fingerprints that change on DML, so join
    #: workloads naturally churn entries; a small LRU keeps steady-state
    #: hits while bounding a long session's footprint.
    DEFAULT_KERNEL_CACHE_SIZE = 64

    #: Bound on cached hash-join builds per context.  Entries hold the
    #: materialized build batch, so the bound is deliberately small;
    #: keys embed build-table versions and the read snapshot, making a
    #: stale hit impossible (DML bumps the version, a new snapshot is a
    #: new key) — the LRU exists purely to bound memory.
    DEFAULT_JOIN_CACHE_SIZE = 8

    #: Bound on cached physical plans per context.  Keys embed the read
    #: snapshot, so entries from superseded snapshots go cold and ride
    #: out the LRU; the bound just caps how many linger.
    DEFAULT_PLAN_CACHE_SIZE = 32

    def __init__(self, workers: int = 1,
                 morsel_size: int = DEFAULT_MORSEL_SIZE,
                 vectorized: bool = True, join_build: str = "auto",
                 memory_budget_bytes: int | None = None,
                 spill_partitions: int | None = None,
                 spill_merge_fanin: int = 0, fused: bool = True,
                 shards: int = 0, shard_workers: int | None = None,
                 kernel_cache_size: int | None = None):
        workers = int(workers)
        morsel_size = int(morsel_size)
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if morsel_size < 1:
            raise ConfigError("morsel_size must be >= 1")
        if join_build not in self.JOIN_BUILD_SIDES:
            raise ConfigError(
                f"join_build must be one of {self.JOIN_BUILD_SIDES}"
            )
        self.workers = workers
        self.morsel_size = morsel_size
        #: Use the batched kernels of :mod:`repro.engine.vectorized` for
        #: GROUP BY plans they support (bit-identical repro results;
        #: unsupported plans fall back to the scalar path per query).
        self.vectorized = bool(vectorized)
        #: Compile qualifying vectorized GROUP BY plans into fused
        #: per-morsel kernels (:mod:`repro.engine.fused`).  Bits are
        #: identical with the knob on or off — the reproducibility CI
        #: sweeps it; plans the generator cannot express run the
        #: interpreted vectorized path regardless.
        self.fused = bool(fused)
        #: Force the hash-join build side for inner joins ('left' /
        #: 'right'); 'auto' lets the optimizer pick by estimated
        #: cardinality.  In the repro sum modes the result bits are
        #: identical either way — the reproducibility CI sweeps this.
        self.join_build = join_build
        #: Aggregation memory budget in bytes; ``None`` (or 0 through
        #: the setters) means unbounded.  When set, the physical
        #: planner chooses the external (spill-to-disk) GROUP BY for
        #: plans whose estimated group state exceeds it, and the
        #: operator spills partitions once resident partial tables pass
        #: the budget.  In the repro sum modes the result bits are
        #: invariant under this knob — the reproducibility CI sweeps it.
        self.memory_budget_bytes = self._check_budget(memory_budget_bytes)
        #: Radix partition fan-out of the external aggregation.
        self.spill_partitions = self._check_partitions(
            self.DEFAULT_SPILL_PARTITIONS if spill_partitions is None
            else spill_partitions
        )
        #: Bounded fan-in for merging spilled runs (0 = unbounded, one
        #: pass; >= 2 merges runs in groups of this size, re-spilling
        #: intermediates — more passes, same bits).
        self.spill_merge_fanin = self._check_fanin(spill_merge_fanin)
        #: Shard count for multi-process execution (0 = off).  When
        #: > 0, qualifying aggregate plans run as a ShardedAggregate:
        #: the table is hash-sharded across executor *processes* and
        #: partial group tables are exchanged back over the spill wire
        #: format (:mod:`repro.distributed`).  Repro-mode bits are
        #: invariant under this knob — the reproducibility CI sweeps
        #: it.
        self.shards = self._check_shards(shards)
        #: Executor process count (``None`` = one per shard).
        self.shard_workers = self._check_shard_workers(shard_workers)
        #: Stats of the most recent pipeline run (set by the drivers).
        self.last_stats: PipelineStats | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._finalizer = None
        self._shard_pool = None
        self._shard_finalizer = None
        #: Plan-signature -> ``(kernel-or-None, decline reason)``;
        #: maintained LRU by :func:`repro.engine.fused.compile_fused`
        #: (hits move to the back, inserts evict from the front past
        #: :attr:`kernel_cache_size`), cleared when execution-shaping
        #: knobs change.
        self._kernel_cache: OrderedDict = OrderedDict()
        self.kernel_cache_size = self._check_cache_size(
            self.DEFAULT_KERNEL_CACHE_SIZE if kernel_cache_size is None
            else kernel_cache_size
        )
        self.kernel_cache_hits = 0
        self.kernel_cache_misses = 0
        self.kernel_cache_invalidations = 0
        self.kernel_cache_evictions = 0
        #: Build-chain signature -> materialized :class:`HashJoin`,
        #: maintained LRU by :func:`repro.engine.executor._build_join`.
        #: Keys embed every build-side table version plus the read
        #: snapshot, so entries can never serve stale rows.
        self._join_cache: OrderedDict = OrderedDict()
        self.join_cache_hits = 0
        self.join_cache_misses = 0
        #: ``(sql text, snapshot, catalog ddl epoch)`` -> planned
        #: PhysicalQuery, maintained LRU by the session's SELECT path.
        #: The snapshot pins row content, the DDL epoch pins schema
        #: identity, and any SET clears the cache — so a hit replays
        #: planning whose every input is provably unchanged.
        self._plan_cache: OrderedDict = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    #: Every knob ``SET <name> = <value>`` accepts, for error messages.
    PARAM_NAMES = (
        "memory_budget_bytes", "memory_budget", "spill_partitions",
        "spill_merge_fanin", "workers", "morsel_size", "vectorized",
        "join_build", "fused", "shards", "shard_workers",
        "kernel_cache_size",
    )

    def _invalidate_kernels(self) -> None:
        """Drop compiled kernels after a knob change that shapes
        execution (workers / vectorized / memory budget): cached code
        must never outlive the plan decisions it was specialized on."""
        if self._kernel_cache:
            self._kernel_cache.clear()
            self.kernel_cache_invalidations += 1
        self._join_cache.clear()
        self._plan_cache.clear()

    # -- knob validation / SET surface ------------------------------------
    @staticmethod
    def _as_int(value, name: str) -> int:
        """Coerce a knob value to int, rejecting fractional numbers
        (silently truncating ``SET memory_budget_bytes = 1.5e6`` to
        one byte would be a nasty surprise) and naming the knob for
        non-numeric values."""
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{name} expects an integer value, got {value!r}"
            ) from None

    @staticmethod
    def _as_bool(value, name: str) -> bool:
        """Coerce a knob value to bool, accepting the usual SQL-ish
        spellings and rejecting everything else by name."""
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            low = value.lower()
            if low in ("true", "on", "yes", "1"):
                return True
            if low in ("false", "off", "no", "0"):
                return False
        raise ConfigError(
            f"{name} expects a boolean value "
            f"(TRUE/FALSE, on/off, 0/1), got {value!r}"
        )

    @classmethod
    def _check_budget(cls, value) -> int | None:
        if value is None:
            return None
        if isinstance(value, str):
            if value.lower() in ("unbounded", "none"):
                return None
        value = cls._as_int(value, "memory budget")
        if value < 0:
            raise ConfigError("memory budget must be >= 0 (0 = unbounded)")
        return None if value == 0 else value

    @classmethod
    def _check_partitions(cls, value) -> int:
        value = cls._as_int(value, "spill_partitions")
        if value < 1:
            raise ConfigError("spill_partitions must be >= 1")
        return value

    @classmethod
    def _check_fanin(cls, value) -> int:
        value = cls._as_int(value, "spill_merge_fanin")
        if value != 0 and value < 2:
            raise ConfigError(
                "spill_merge_fanin must be 0 (unbounded) or >= 2"
            )
        return value

    @classmethod
    def _check_cache_size(cls, value) -> int:
        value = cls._as_int(value, "kernel_cache_size")
        if value < 1:
            raise ConfigError("kernel_cache_size must be >= 1")
        return value

    @classmethod
    def _check_shards(cls, value) -> int:
        value = cls._as_int(value, "shards")
        if value < 0:
            raise ConfigError("shards must be >= 0 (0 = off)")
        return value

    @classmethod
    def _check_shard_workers(cls, value) -> int | None:
        if value is None:
            return None
        if isinstance(value, str) and value.lower() in ("none", "auto"):
            return None
        value = cls._as_int(value, "shard_workers")
        if value < 1:
            raise ConfigError(
                "shard_workers must be >= 1 (or NULL for one per shard)"
            )
        return value

    def set_param(self, name: str, value) -> None:
        """Session ``SET`` surface: validate and apply one knob.

        Accepted names: ``memory_budget_bytes`` (alias
        ``memory_budget``; 0, NULL, or 'unbounded' clears it),
        ``spill_partitions``, ``spill_merge_fanin``, ``workers``,
        ``morsel_size``, ``vectorized``, ``join_build``, ``fused``,
        ``kernel_cache_size``.

        Changes to ``workers``, ``vectorized``, or the memory budget
        invalidate the fused kernel cache (the compiled kernels are
        specialized against plan decisions those knobs shape).
        """
        key = name.lower()
        if key in ("memory_budget_bytes", "memory_budget"):
            budget = self._check_budget(value)
            if budget != self.memory_budget_bytes:
                self._invalidate_kernels()
            self.memory_budget_bytes = budget
        elif key == "spill_partitions":
            self.spill_partitions = self._check_partitions(value)
        elif key == "spill_merge_fanin":
            self.spill_merge_fanin = self._check_fanin(value)
        elif key == "workers":
            workers = self._as_int(value, "workers")
            if workers < 1:
                raise ConfigError("workers must be >= 1")
            if workers != self.workers:
                self._invalidate_kernels()
                if self._pool is not None:
                    # The pool's max_workers is fixed at creation;
                    # replace it.
                    if self._finalizer is not None:
                        self._finalizer.detach()
                        self._finalizer = None
                    self._pool.shutdown(wait=False)
                    self._pool = None
            self.workers = workers
        elif key == "morsel_size":
            morsel_size = self._as_int(value, "morsel_size")
            if morsel_size < 1:
                raise ConfigError("morsel_size must be >= 1")
            self.morsel_size = morsel_size
        elif key == "vectorized":
            vectorized = self._as_bool(value, "vectorized")
            if vectorized != self.vectorized:
                self._invalidate_kernels()
            self.vectorized = vectorized
        elif key == "fused":
            self.fused = self._as_bool(value, "fused")
        elif key == "kernel_cache_size":
            size = self._check_cache_size(value)
            self.kernel_cache_size = size
            # Shrinking trims the cold end now; the trim counts as
            # evictions, not an invalidation (surviving entries stay).
            while len(self._kernel_cache) > size:
                self._kernel_cache.popitem(last=False)
                self.kernel_cache_evictions += 1
        elif key == "join_build":
            side = str(value).lower()
            if side not in self.JOIN_BUILD_SIDES:
                raise ConfigError(
                    f"join_build must be one of {self.JOIN_BUILD_SIDES}"
                )
            self.join_build = side
        elif key == "shards":
            shards = self._check_shards(value)
            if shards != self.shards:
                # The pool is sized for the old shard fan-out; a fresh
                # one is spawned lazily on the next sharded query.
                self._close_shard_pool()
            self.shards = shards
        elif key == "shard_workers":
            shard_workers = self._check_shard_workers(value)
            if shard_workers != self.shard_workers:
                self._close_shard_pool()
            self.shard_workers = shard_workers
        else:
            raise ConfigError(
                f"unknown session parameter {name!r}; valid parameters: "
                + ", ".join(self.PARAM_NAMES)
            )
        # Every knob can shape planning (operator choice, morsel/worker
        # configuration baked into the physical plan), so any successful
        # SET drops cached plans wholesale — SETs are rare, plans are
        # cheap to rebuild once.
        self._plan_cache.clear()

    def pool(self) -> ThreadPoolExecutor:
        """The context's worker pool, created lazily and reused across
        queries (spawning threads per SELECT would dominate small
        queries).  Shut down when the context is garbage collected."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
            self._finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False
            )
        return self._pool

    def shard_pool(self, nworkers: int):
        """The context's shard executor fleet, created lazily and
        reused across queries (the replica cache only pays off if the
        processes survive between queries).  Re-created when the
        requested worker count changes; shut down by :meth:`close` or,
        failing that, a GC finalizer."""
        if self._shard_pool is not None and (
            self._shard_pool.nworkers != nworkers
            or not self._shard_pool.alive()
        ):
            self._close_shard_pool()
        if self._shard_pool is None:
            from ..distributed.pool import ShardWorkerPool

            self._shard_pool = ShardWorkerPool(nworkers)
            self._shard_finalizer = weakref.finalize(
                self, self._shard_pool.close
            )
        return self._shard_pool

    def discard_shard_pool(self) -> None:
        """Tear down a poisoned shard pool (a dead executor, a broken
        pipe): the next sharded query spawns a fresh fleet."""
        self._close_shard_pool()

    def _close_shard_pool(self) -> None:
        if self._shard_pool is not None:
            if self._shard_finalizer is not None:
                self._shard_finalizer.detach()
                self._shard_finalizer = None
            self._shard_pool.close()
            self._shard_pool = None

    def close(self) -> None:
        """Shut down the worker pool and any shard executor processes
        now (sessions call this on close; GC would get there
        eventually via the finalizers)."""
        if self._pool is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._pool.shutdown(wait=False)
            self._pool = None
        self._close_shard_pool()


class PipelineStats:
    """Per-query pipeline accounting.

    ``worker_busy[w]`` is worker ``w``'s CPU time (``time.thread_time``),
    so :meth:`critical_path` is the modelled wall-clock on dedicated
    cores: the slowest worker plus the serial merge + finalize tail.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.worker_busy = [0.0] * workers
        self.worker_morsels = [0] * workers
        self.morsel_count = 0
        self.merge_seconds = 0.0
        self.finalize_seconds = 0.0
        self.wall_seconds = 0.0
        #: True when the grouped plan ran the batched kernels
        #: (:mod:`repro.engine.vectorized`) rather than the scalar path.
        self.vectorized = False
        #: True when the grouped plan ran one fused generated kernel
        #: per morsel (:mod:`repro.engine.fused`).
        self.fused = False
        #: Per-worker CPU time spent *inside* the fused kernel (a
        #: subset of ``worker_busy``), so the modelled speedup and the
        #: operator breakdown see fused execution rather than only
        #: whole-worker wall time.
        self.kernel_seconds = [0.0] * workers
        #: True when the external (spill-to-disk) aggregation ran; the
        #: spill_* fields below are its accounting
        #: (:mod:`repro.aggregation.external_agg`).
        self.external = False
        self.spill_partitions = 0
        self.spilled_runs = 0
        self.spilled_bytes = 0
        self.merge_passes = 0
        self.peak_resident_bytes = 0
        #: True when the plan ran as a ShardedAggregate across executor
        #: processes (:mod:`repro.distributed`); ``worker_busy`` then
        #: holds per-*process* CPU time reported by the executors, and
        #: ``exchange_bytes`` counts framed bytes over the wire (shard
        #: replicas shipped + partial tables returned).
        self.sharded = False
        self.shards = 0
        self.exchange_bytes = 0
        #: Kernel-cache counters of the owning context, snapshotted
        #: when the run finishes (cumulative across the context's
        #: lifetime, not per-query deltas).
        self.kernel_cache_hits = 0
        self.kernel_cache_misses = 0
        self.kernel_cache_evictions = 0

    def kernel_time(self) -> float:
        """Total CPU seconds spent in fused kernels across workers."""
        return sum(self.kernel_seconds)

    def critical_path(self) -> float:
        busiest = max(self.worker_busy) if self.worker_busy else 0.0
        return busiest + self.merge_seconds + self.finalize_seconds

    def total_busy(self) -> float:
        return sum(self.worker_busy) + self.merge_seconds + self.finalize_seconds

    def modeled_speedup(self) -> float:
        """Work over critical path: the speedup ``workers`` cores buy."""
        critical = self.critical_path()
        return self.total_busy() / critical if critical > 0 else 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PipelineStats({self.workers} workers, "
            f"{self.morsel_count} morsels, "
            f"critical_path={self.critical_path():.6f}s)"
        )


def apply_where(batch: Batch, where: ast.Expr | None) -> Batch:
    """Filter one morsel by the WHERE predicate."""
    if where is None:
        return batch
    mask = np.asarray(evaluate(where, batch.columns, batch.types))
    if mask.shape == ():
        mask = np.full(batch.nrows, bool(mask))
    return batch.filter(mask.astype(bool))


def _assignments(n_morsels: int, workers: int) -> list[list[int]]:
    """Round-robin morsel indices per worker (deterministic)."""
    return [list(range(w, n_morsels, workers)) for w in range(workers)]


def _run_workers(morsels: list[Batch], context: ExecutionContext,
                 stats: PipelineStats, work_one):
    """Drive ``work_one(worker_id, assigned_morsel_indices)`` across the
    worker pool, recording per-worker busy time.  Returns the worker
    results in worker order."""

    workers = min(context.workers, max(len(morsels), 1))

    def timed(worker_id: int, assigned: list[int]):
        started = time.thread_time()
        result = work_one(worker_id, assigned)
        stats.worker_busy[worker_id] += time.thread_time() - started
        stats.worker_morsels[worker_id] += len(assigned)
        return result

    assignments = _assignments(len(morsels), workers)
    if workers == 1:
        return [timed(0, assignments[0])]
    return list(context.pool().map(timed, range(workers), assignments))


def run_grouped_pipeline(
    group_exprs,
    specs: list[AggregateSpec],
    morsels: list[Batch],
    where: ast.Expr | None,
    context: ExecutionContext,
    timings: OperatorTimings | None = None,
    transform=None,
    vectorized: bool | None = None,
    kernel=None,
    joins=None,
):
    """Parallel GROUP BY: per-worker partial tables, exact merge.

    ``transform`` (optional) is a per-morsel operator chain — filters
    and hash-join probes composed by the physical planner — applied
    inside the worker before ``where``.  ``vectorized`` carries the
    planner's per-node engine decision; ``None`` falls back to deciding
    here (legacy callers that skip the planner).  ``kernel`` (a
    :class:`~repro.engine.fused.FusedKernel`) replaces the per-morsel
    transform/filter/update loop with one generated call per morsel;
    the kernel subsumes the operator chain, so it is mutually exclusive
    with ``transform`` and ``where``.  ``joins`` carries the built
    :class:`~repro.engine.join.HashJoin` objects a join-fusing kernel
    probes at runtime (one per fused probe, in chain order).

    Returns ``(key_arrays, result_arrays, ngroups)`` in canonical
    (sorted-key) group order.
    """
    if kernel is not None and (transform is not None or where is not None):
        raise ValueError(
            "a fused kernel subsumes transform/where; pass one or the other"
        )
    wall_started = time.perf_counter()
    stats = PipelineStats(min(context.workers, max(len(morsels), 1)))
    stats.morsel_count = len(morsels)
    if vectorized is None:
        vectorized = bool(
            context.vectorized
            and plan_supports_vectorized(group_exprs, specs, where)
        )
    stats.vectorized = bool(vectorized) or kernel is not None
    stats.fused = kernel is not None
    make_table = VectorizedGroupTable if stats.vectorized else PartialGroupTable
    selection_seconds = [0.0] * stats.workers
    aggregation_seconds = [0.0] * stats.workers

    def work_one(worker_id: int, assigned: list[int]) -> PartialGroupTable:
        if kernel is not None:
            from .fused import FusedGroupTable

            table = FusedGroupTable(group_exprs, specs, kernel, joins)
            for index in assigned:
                t1 = time.thread_time()
                table.update(morsels[index])
                dt = time.thread_time() - t1
                stats.kernel_seconds[worker_id] += dt
                aggregation_seconds[worker_id] += dt
            return table
        table = make_table(group_exprs, specs)
        for index in assigned:
            t0 = time.thread_time()
            batch = morsels[index]
            if transform is not None:
                batch = transform(batch)
            filtered = apply_where(batch, where)
            t1 = time.thread_time()
            table.update(filtered)
            t2 = time.thread_time()
            selection_seconds[worker_id] += t1 - t0
            aggregation_seconds[worker_id] += t2 - t1
        return table

    tables = _run_workers(morsels, context, stats, work_one)

    merge_started = time.thread_time()
    root = tables[0]
    for table in tables[1:]:
        root.merge(table)
    stats.merge_seconds = time.thread_time() - merge_started

    finalize_started = time.thread_time()
    key_arrays, results, ngroups = root.finalize()
    stats.finalize_seconds = time.thread_time() - finalize_started

    stats.wall_seconds = time.perf_counter() - wall_started
    stats.kernel_cache_hits = getattr(context, "kernel_cache_hits", 0)
    stats.kernel_cache_misses = getattr(context, "kernel_cache_misses", 0)
    stats.kernel_cache_evictions = getattr(
        context, "kernel_cache_evictions", 0
    )
    context.last_stats = stats
    if timings is not None:
        timings.add("selection", sum(selection_seconds))
        timings.add(
            "aggregation",
            sum(aggregation_seconds) + stats.merge_seconds
            + stats.finalize_seconds,
        )
    return key_arrays, results, ngroups


def run_projection_pipeline(
    items,
    morsels: list[Batch],
    where: ast.Expr | None,
    context: ExecutionContext,
    timings: OperatorTimings | None = None,
    transform=None,
):
    """Parallel filter + project; morsel order is preserved on gather.

    ``transform`` is the physical planner's per-morsel operator chain
    (applied before ``where``), as in :func:`run_grouped_pipeline`.

    Returns ``(names, arrays)``.
    """
    wall_started = time.perf_counter()
    stats = PipelineStats(min(context.workers, max(len(morsels), 1)))
    stats.morsel_count = len(morsels)
    selection_seconds = [0.0] * stats.workers

    def project_one(batch: Batch):
        names, arrays = [], []
        for i, item in enumerate(items):
            if isinstance(item.expr, ast.Star):
                for name, arr in batch.columns.items():
                    names.append(name)
                    arrays.append(arr)
                continue
            value = evaluate(item.expr, batch.columns, batch.types)
            arr = np.asarray(value)
            if arr.shape == ():
                arr = np.full(batch.nrows, value)
            names.append(item.output_name(i))
            arrays.append(arr)
        return names, arrays

    def work_one(worker_id: int, assigned: list[int]):
        out = []
        for index in assigned:
            t0 = time.thread_time()
            batch = morsels[index]
            if transform is not None:
                batch = transform(batch)
            filtered = apply_where(batch, where)
            selection_seconds[worker_id] += time.thread_time() - t0
            out.append((index, project_one(filtered)))
        return out

    per_worker = _run_workers(morsels, context, stats, work_one)

    gather_started = time.thread_time()
    pieces = sorted(
        (piece for chunk in per_worker for piece in chunk),
        key=lambda item: item[0],
    )
    names = pieces[0][1][0]
    columns = [[piece[1][1][i] for piece in pieces] for i in range(len(names))]
    arrays = [
        parts[0] if len(parts) == 1 else np.concatenate(parts)
        for parts in columns
    ]
    stats.finalize_seconds = time.thread_time() - gather_started

    stats.wall_seconds = time.perf_counter() - wall_started
    context.last_stats = stats
    if timings is not None:
        timings.add("selection", sum(selection_seconds))
    return names, arrays
