"""Span recorder for the traced benchmark run.

The engine is measured from outside: :class:`Tracer` wraps the public
entry points of each layer, at the name each caller looks up, in a
recorder of ``(layer, statement id, parent span, start, end)``.  The
wrappers are installed only around the statements a traced run picks
and are removed again after each one, so untraced statements run the
engine's own code.  Spans stay in memory until the run ends.

A layer's *self time* is its span durations minus the time its child
spans cover.  Every span opens inside a statement's root span, so the
self times of all layers plus the root's own self time (the time no
layer span covers) add up to the statement wall time exactly; the
benchmark checks that.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

import repro.engine.executor as executor_mod
import repro.engine.fused as fused_mod
import repro.engine.session as session_mod
from repro.aggregation.grouped import GroupedSummation
from repro.engine.join import HashJoin
from repro.engine.matview import MaterializedView
from repro.engine.operators import PartialGroupTable
from repro.engine.table import Table
from repro.storage.durable import CHECKPOINT_FILE, DurableStore
from repro.storage.wal import WriteAheadLog

#: Layer name of a statement's root span.
ROOT = "statement"


def _rows_of(columns) -> int:
    return len(next(iter(columns.values()))) if columns else 0


def _count_scan(counts, parent, args, result):
    counts["table.rows_scanned"] += _rows_of(result)


def _count_scatter(counts, parent, args, result):
    counts["grouped.scatter_attempts"] += 1
    if result:
        counts["grouped.scatter_calls"] += 1


def _count_sort_multi(counts, parent, args, result):
    counts["grouped.sort_calls"] += 1


def _count_sort_single(counts, parent, args, result):
    # A per-table sorted update inside a batched one is part of that
    # call, not a second ladder update.
    if parent != "grouped.update":
        counts["grouped.sort_calls"] += 1


def _count_build(counts, parent, args, result):
    counts["join.builds"] += 1


def _count_refresh(counts, parent, args, result):
    counts["matview.refreshes"] += 1
    counts["matview.delta_rows"] += int(result)


def _count_checkpoint(counts, parent, args, result):
    store = args[0]
    counts["durable.checkpoints"] += 1
    counts["durable.checkpoint_bytes"] += os.path.getsize(
        os.path.join(store.path, CHECKPOINT_FILE)
    )


def _count_fsync(counts, parent, args, result):
    counts["wal.fsyncs"] += 1


def _count_parse(counts, parent, args, result):
    counts["sql.parse_calls"] += 1


#: ``(owner, attribute, layer, counter)`` for every wrapped entry
#: point.  Module attributes are the names the engine's callers look
#: up at call time; class attributes catch every instance.
_TARGETS = (
    (session_mod, "parse", "sql.parse", _count_parse),
    (session_mod, "plan_select", "plan.plan", None),
    (Table, "scan", "table.scan", _count_scan),
    (Table, "snapshot_mask", "table.scan", None),
    (Table, "key_encodings", "table.scan", None),
    (Table, "insert_rows", "table.insert", None),
    (executor_mod, "run_grouped_pipeline", "pipeline.run", None),
    (fused_mod, "compile_fused", "fused.compile", None),
    (fused_mod.FusedGroupTable, "update", "fused.kernel", None),
    (PartialGroupTable, "update", "operators.scalar", None),
    (fused_mod, "add_pairs_multi", "grouped.update", _count_scatter),
    (fused_mod, "add_sorted_runs_multi", "grouped.update", _count_sort_multi),
    (GroupedSummation, "add_sorted_runs", "grouped.update", _count_sort_single),
    (GroupedSummation, "add_pairs", "grouped.update", None),
    (GroupedSummation, "merge", "grouped.merge", None),
    (GroupedSummation, "finalize", "grouped.finalize", None),
    (HashJoin, "__init__", "join.build", _count_build),
    (HashJoin, "probe", "join.probe", None),
    (HashJoin, "encode_probe", "join.probe", None),
    (HashJoin, "expand_inner", "join.probe", None),
    (MaterializedView, "refresh", "matview.refresh", _count_refresh),
    (WriteAheadLog, "append", "wal.append", None),
    (WriteAheadLog, "flush", "wal.flush", None),
    # The one place the log reaches the disk (append in commit mode,
    # flush and rotate all end here).
    (WriteAheadLog, "_fsync", "wal.flush", _count_fsync),
    (DurableStore, "checkpoint", "durable.checkpoint", _count_checkpoint),
    (DurableStore, "open_catalog", "durable.recover", None),
)


class Tracer:
    """Spans and counts of the traced statements of one run.

    ``spans`` rows are ``[layer, statement id, parent index, start,
    end]``.  ``counts`` accumulates the wrappers' work counts, but only
    while :attr:`counting` is set (the run's fixed rounds), so counts
    repeat exactly across runs of the same seed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.counting = False
        self._stack: list[int] = []
        self._statement = -1
        self._originals: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self._statement, parent,
                           time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("span closed out of order")

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]][0] if self._stack else None
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None and self.counting:
                counter(self.counts, parent, args, result)
            return result

        return traced

    # -- one traced statement ----------------------------------------------
    def begin(self) -> None:
        """Open a statement's root span and install the wrappers."""
        if self._originals:
            raise RuntimeError("statements do not nest")
        self._statement += 1
        self._open(ROOT)
        for owner, attr, layer, counter in _TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, counter))

    def end(self) -> None:
        """Remove the wrappers and close the root span."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self._close(self._stack[0])

    # -- results ------------------------------------------------------------
    def self_times(self) -> tuple[dict, float]:
        """``({layer: self seconds}, total root seconds)``."""
        covered = [0.0] * len(self.spans)
        for layer, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict = collections.defaultdict(float)
        root_total = 0.0
        for (layer, _, parent, start, end), child in zip(self.spans, covered):
            totals[layer] += (end - start) - child
            if parent < 0:
                root_total += end - start
        return dict(totals), root_total

    def statements(self) -> int:
        return self._statement + 1

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for layer, stmt, parent, start, end in self.spans:
                handle.write(json.dumps({
                    "layer": layer, "statement": stmt, "parent": parent,
                    "start": start, "end": end,
                }) + "\n")
