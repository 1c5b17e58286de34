"""Vectorized columnar aggregation kernels for the morsel pipeline.

The scalar pipeline (:class:`~repro.engine.operators.PartialGroupTable`)
is correct for any expression the engine can type, but it leaves speed
on the table: every morsel re-factorizes its key columns with
``np.unique`` over object arrays (an O(n log n) sort with Python-level
comparisons), and every aggregate re-evaluates its argument
expression.

This module is the batched alternative.  Per morsel it:

1. evaluates all expressions through one :class:`~repro.engine.expr.
   ExprCache` (common sub-expressions are computed once);
2. computes group ids for the whole morsel at once — dictionary-encoded
   key columns (see :meth:`repro.engine.table.Column.encoding`) combine
   with pure integer radix arithmetic, numeric keys go through
   ``np.unique`` with the same canonical NaN / ``-0.0`` handling as the
   scalar key table;
3. updates per-group partial states with batch kernels — one lazy
   stable sort by group id serves the ``ufunc.reduceat`` segment
   reductions of MIN/MAX, while the RSUM states take the sort-free
   ladder update (:meth:`~repro.aggregation.grouped.GroupedSummation.
   add_pairs`) on the rows as they arrive;
4. shares physical states between aggregates: ``AVG(x)`` reuses the
   ``SUM(x)`` state and one common ``COUNT`` state, the six
   VARIANCE/STDDEV spellings share one second-moment state.

Reproducibility is preserved *by construction*: the repro-mode partial
states are exact under any permutation and chunking of their input (the
paper's Algorithm 3 horizontal-merge property, which
:class:`~repro.core.rsum_simd.SimdRsum` demonstrates lane-wise), so
neither row order nor morsel boundaries can change the final bits.  IEEE
sums keep the scalar path's unbuffered ``np.add.at`` accumulation in
physical row order, so even the *non*-reproducible mode returns the
same bits as the scalar path.  The equivalence suite asserts both.

Plans the kernels cannot express (unknown aggregate or expression node
types) fall back to the scalar path automatically — see
:func:`plan_supports_vectorized` and the dispatch in
:mod:`repro.engine.pipeline`.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.grouped import GroupedSummation
from .expr import SCALAR_FUNCTIONS, ExprCache
from .operators import (
    AggregateSpec,
    Batch,
    PartialGroupTable,
    _VAR_NAMES,
    _CountState,
    _MinMaxState,
    _SumState,
    _make_float_sum_impl,
    factorize_object,
)
from .sql import ast
from .types import DecimalSqlType

__all__ = [
    "VectorizedGroupTable",
    "SortedMorsel",
    "plan_supports_vectorized",
]

_SUPPORTED_AGGREGATES = frozenset(
    ("COUNT", "SUM", "RSUM", "AVG", "MIN", "MAX") + _VAR_NAMES
)

#: Composite-code spaces at most this large use a persistent
#: code -> gid lookup table instead of a per-morsel ``np.unique``.
_LUT_MAX = 1 << 20

#: Radix-combine guard: the product of the per-key dictionary sizes must
#: stay below this for the composite int64 codes to be collision-free.
_RADIX_MAX = 1 << 62


# ---------------------------------------------------------------------------
# Plan support (the automatic-fallback predicate)
# ---------------------------------------------------------------------------

def _expr_vectorizable(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.Literal, ast.DateLiteral, ast.IntervalLiteral,
                         ast.ColumnRef)):
        return True
    if isinstance(expr, ast.Unary):
        return _expr_vectorizable(expr.operand)
    if isinstance(expr, ast.Binary):
        return _expr_vectorizable(expr.left) and _expr_vectorizable(expr.right)
    if isinstance(expr, ast.Between):
        return (_expr_vectorizable(expr.operand)
                and _expr_vectorizable(expr.low)
                and _expr_vectorizable(expr.high))
    if isinstance(expr, ast.FuncCall):
        if expr.is_aggregate:
            return False
        return expr.name in SCALAR_FUNCTIONS and all(
            _expr_vectorizable(arg) for arg in expr.args
        )
    return False


def plan_supports_vectorized(group_exprs, aggregates,
                             where: ast.Expr | None = None) -> bool:
    """True if the batched kernels can run this GROUP BY plan.

    ``aggregates`` may hold :class:`AggregateSpec` objects or bare
    :class:`~repro.engine.sql.ast.FuncCall` nodes (the executor gates
    its scan-time encoding work before specs exist).  Unknown aggregate
    names or expression node types (future syntax the kernels were not
    taught) return False, and the pipeline silently uses the scalar
    :class:`PartialGroupTable` instead — vectorization is an
    optimization, never a feature gate.
    """
    for aggregate in aggregates:
        call = aggregate.call if isinstance(aggregate, AggregateSpec) else aggregate
        if call.name not in _SUPPORTED_AGGREGATES:
            return False
        if getattr(call, "distinct", False):
            # COUNT(DISTINCT) keeps per-group value sets; that state has
            # no segmented kernel, so the scalar path runs it.
            return False
        for arg in call.args:
            if isinstance(arg, ast.Star):
                continue  # COUNT(*)
            if not _expr_vectorizable(arg):
                return False
    for expr in group_exprs:
        if not _expr_vectorizable(expr):
            return False
    if where is not None and not _expr_vectorizable(where):
        return False
    return True


# ---------------------------------------------------------------------------
# Shared morsel sort
# ---------------------------------------------------------------------------

class SortedMorsel:
    """One lazy stable sort of a morsel's group ids, shared by the
    states that reduce segments (MIN/MAX, and the fused kernels'
    int/DECIMAL sums); the RSUM ladders never need it.

    Lazily computes the permutation putting rows in group-id order, the
    segment starts, and the per-segment gids.  When the ids are already
    non-decreasing (single group, pre-sorted input) the permutation is
    the identity and :meth:`take` returns the input array untouched.
    """

    def __init__(self, gids: np.ndarray):
        self.gids = gids
        self._ready = False
        self._identity = False
        self._order: np.ndarray | None = None
        self._sorted_gids: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._seg_gids: np.ndarray | None = None

    def _ensure(self) -> None:
        if self._ready:
            return
        gids = self.gids
        if gids.size == 0:
            self._identity = True
            self._sorted_gids = gids
            self._starts = np.empty(0, dtype=np.int64)
            self._seg_gids = gids
        else:
            if bool((gids[1:] >= gids[:-1]).all()):
                self._identity = True
                self._sorted_gids = gids
            else:
                self._order = np.argsort(gids, kind="stable")
                self._sorted_gids = gids[self._order]
            sg = self._sorted_gids
            self._starts = GroupedSummation._run_starts(sg)
            self._seg_gids = sg[self._starts]
        self._ready = True

    @property
    def sorted_gids(self) -> np.ndarray:
        self._ensure()
        return self._sorted_gids

    @property
    def starts(self) -> np.ndarray:
        """Segment start offsets into the sorted order."""
        self._ensure()
        return self._starts

    @property
    def seg_gids(self) -> np.ndarray:
        """The distinct gids, one per segment, in sorted-gid order."""
        self._ensure()
        return self._seg_gids

    def take(self, values: np.ndarray) -> np.ndarray:
        """``values`` permuted into group-id order (no-op if sorted)."""
        self._ensure()
        if self._identity:
            return values
        return values[self._order]


# ---------------------------------------------------------------------------
# Vectorized partial states (merge/finalize inherited => exact parity)
# ---------------------------------------------------------------------------

class _VecCountState(_CountState):
    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        _CountState.update(self, batch, gids, ngroups)


class _VecSumState(_SumState):
    def _values_cached(self, batch: Batch, cache: ExprCache):
        if isinstance(self.arg, ast.ColumnRef):
            sql_type = batch.types.get(self.arg.name.lower())
            if isinstance(sql_type, DecimalSqlType):
                # Exact integer path: SUM over a bare DECIMAL column.
                return (
                    batch.columns[self.arg.name.lower()],
                    "decimal",
                    sql_type.scale,
                )
        values = cache.values(self.arg, batch.nrows)
        if values.dtype.kind in "iub":
            return values, "int", None
        return values, "float", None

    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        values, kind, scale = self._values_cached(batch, cache)
        if self.impl is None:
            self.impl = self._make_impl(kind, scale, values.dtype)
        self.impl.update(values, gids, ngroups)


class _VecMinMaxState(_MinMaxState):
    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        values = cache.values(self.arg, batch.nrows)
        self._grow(ngroups, values.dtype)
        if gids.size == 0:
            return
        self._combine(
            morsel.seg_gids,
            self.ufunc.reduceat(morsel.take(values), morsel.starts),
        )


class _VecSecondMomentState:
    """Shared SUM(x) / SUM(x*x) state behind the VARIANCE/STDDEV family
    (counts live in the table's common count state)."""

    def __init__(self, arg: ast.Expr, mode: str, levels: int):
        self.arg = arg
        self.sum_x = _make_float_sum_impl(np.float64, mode, levels)
        self.sum_xx = _make_float_sum_impl(np.float64, mode, levels)

    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        values = np.asarray(cache.values(self.arg, batch.nrows),
                            dtype=np.float64)
        self.sum_x.update(values, gids, ngroups)
        self.sum_xx.update(values * values, gids, ngroups)

    def merge(self, other: "_VecSecondMomentState", mapping,
              ngroups: int) -> None:
        self.sum_x.merge(other.sum_x, mapping, ngroups)
        self.sum_xx.merge(other.sum_xx, mapping, ngroups)

    def approx_bytes(self) -> int:
        return self.sum_x.approx_bytes() + self.sum_xx.approx_bytes()


# ---------------------------------------------------------------------------
# The vectorized group table
# ---------------------------------------------------------------------------

class VectorizedGroupTable(PartialGroupTable):
    """Batched drop-in for :class:`PartialGroupTable`.

    The key table, exact merge, and canonical finalize order are
    inherited — only morsel consumption changes.  Physical partial
    states are shared between specs (AVG reuses SUM and COUNT; the
    VARIANCE/STDDEV spellings share one second-moment state), which is
    bit-safe because a shared state consumes exactly the value sequence
    each private state would have.
    """

    def __init__(self, group_exprs, specs: list[AggregateSpec]):
        super().__init__(group_exprs, specs)
        self.states, self._spec_plan = self._build_plan(specs)
        #: Persistent code -> gid table shared by the two stable-code
        #: factorization paths; ``_lut_bases`` records which code space
        #: the table indexes (per-part dictionary bases, or the
        #: ``("rows", total)`` tag of the build-row path).
        self._lut: np.ndarray | None = None
        self._lut_bases = None

    def approx_bytes(self) -> int:
        lut = 0 if self._lut is None else self._lut.nbytes
        return super().approx_bytes() + lut

    # -- shared physical-state plan ---------------------------------------
    def _build_plan(self, specs: list[AggregateSpec]):
        states: list = []
        count_state: list = []  # 0 or 1 element, shared
        sums: dict = {}
        minmax: dict = {}
        moments: dict = {}

        def need_count() -> _VecCountState:
            if not count_state:
                count_state.append(_VecCountState())
                states.append(count_state[0])
            return count_state[0]

        def need_sum(arg: ast.Expr, mode: str, levels: int) -> _VecSumState:
            key = (arg.sql(), mode, levels)
            state = sums.get(key)
            if state is None:
                state = _VecSumState(arg, mode, levels)
                sums[key] = state
                states.append(state)
            return state

        plan = []
        for spec in specs:
            name = spec.call.name
            mode = spec.sum_config.mode
            if name == "COUNT":
                plan.append(("count", need_count()))
                continue
            arg = spec.call.args[0]
            if name in ("SUM", "RSUM"):
                resolved = "repro" if name == "RSUM" else mode
                plan.append(("sum", need_sum(arg, resolved, spec.levels)))
            elif name == "AVG":
                plan.append(
                    ("avg", need_sum(arg, mode, spec.levels), need_count())
                )
            elif name in ("MIN", "MAX"):
                key = (arg.sql(), name)
                state = minmax.get(key)
                if state is None:
                    state = _VecMinMaxState(arg, is_min=(name == "MIN"))
                    minmax[key] = state
                    states.append(state)
                plan.append(("minmax", state))
            else:  # VARIANCE/STDDEV family
                key = (arg.sql(), mode, spec.levels)
                state = moments.get(key)
                if state is None:
                    state = _VecSecondMomentState(arg, mode, spec.levels)
                    moments[key] = state
                    states.append(state)
                plan.append(("var", name, state, need_count()))
        return states, plan

    # -- morsel consumption ------------------------------------------------
    def update(self, batch: Batch) -> None:
        cache = ExprCache(batch.columns, batch.types)
        gids = self._factorize_vectorized(batch, cache)
        ngroups = self.ngroups
        morsel = SortedMorsel(gids)
        for state in self.states:
            state.update_vec(batch, cache, gids, morsel, ngroups)

    def _factorize_vectorized(self, batch: Batch,
                              cache: ExprCache) -> np.ndarray:
        if not self.group_exprs:
            return np.zeros(batch.nrows, dtype=np.int64)
        parts = []
        all_encoded = True
        for expr in self.group_exprs:
            encoding = None
            if isinstance(expr, ast.ColumnRef):
                encoding = batch.encodings.get(expr.name.lower())
            if encoding is not None:
                codes, uniques = encoding
            else:
                all_encoded = False
                arr = cache.values(expr, batch.nrows)
                codes, uniques = self._encode_values(arr)
            parts.append((codes, uniques, max(len(uniques), 1)))
        return self._gids_from_parts(
            parts, all_encoded,
            lambda: PartialGroupTable._factorize(self, batch),
        )

    @staticmethod
    def _encode_values(arr: np.ndarray):
        """Dictionary-encode one unencoded key column (codes, uniques)."""
        if arr.dtype == object:
            codes, uniques = factorize_object(arr)
        else:
            uniques, codes = np.unique(arr, return_inverse=True)
            codes = codes.astype(np.int64, copy=False)
        return codes, uniques

    def _gids_from_parts(self, parts, all_encoded: bool,
                         scalar_fallback) -> np.ndarray:
        """Composite ``(codes, uniques, base)`` key parts -> table gids.

        Shared by the interpreted vectorized path and the fused kernels
        (:mod:`repro.engine.fused`), so key registration — radix
        combine, persistent LUT, canonical NaN/-0.0 identity — cannot
        diverge between the two.  ``scalar_fallback`` produces the gids
        when the composite radix space would overflow int64.
        """
        total = 1
        for _, _, base in parts:
            total *= base
        if self._key_dtypes is None:
            self._key_dtypes = [uniques.dtype for _, uniques, _ in parts]
        if total >= _RADIX_MAX:
            # Composite radix codes would overflow int64: let the scalar
            # per-morsel key table handle this (automatic fallback).
            return scalar_fallback()
        combined = parts[0][0]
        for codes, _, base in parts[1:]:
            combined = combined * base + codes

        if all_encoded and total <= _LUT_MAX:
            # Stable global dictionaries: composite codes mean the same
            # thing in every morsel, so a persistent code -> gid lookup
            # replaces the per-morsel np.unique entirely.
            bases = [base for _, _, base in parts]
            if self._lut is None or self._lut_bases != bases:
                self._lut = np.full(total, -1, dtype=np.int64)
                self._lut_bases = bases
            gids = self._lut[combined]
            missing = gids < 0
            if missing.any():
                fresh = np.unique(combined[missing])
                key_columns = self._decode_parts(fresh, parts)
                self._lut[fresh] = self._bulk_register(
                    list(zip(*[col.tolist() for col in key_columns]))
                )
                gids = self._lut[combined]
            return gids

        dense, inverse = np.unique(combined, return_inverse=True)
        key_columns = self._decode_parts(dense, parts)
        lut = self._bulk_register(
            list(zip(*[col.tolist() for col in key_columns]))
        )
        return lut[inverse.astype(np.int64, copy=False)]

    def _gids_from_rows(self, codes: np.ndarray, total: int, dtypes,
                        decode_rows) -> np.ndarray:
        """Morsel gids from composite *source-row* codes whose meaning
        is stable across morsels.

        The fused join kernels pass gathered build-row indices here
        when every group key is a function of the build row (a
        build-side column, or a probe key the inner join made equal to
        the build key): unlike per-morsel dictionary codes, a build-row
        index means the same key tuple in every morsel, so a persistent
        code -> gid lookup registers each key *once* for the whole
        query instead of re-uniquing and re-registering per morsel.
        ``decode_rows(fresh_codes)`` gathers the per-key value columns
        for codes not seen before; registration goes through the same
        :meth:`_bulk_register` identity logic as every other path, so
        the stored key representatives (and the result bits) cannot
        diverge.  Code spaces beyond ``_LUT_MAX`` degrade to the
        per-morsel ``np.unique`` registration — same bits, no cache.
        """
        if self._key_dtypes is None:
            self._key_dtypes = list(dtypes)
        if total <= _LUT_MAX:
            signature = ("rows", total)
            if self._lut is None or self._lut_bases != signature:
                self._lut = np.full(total, -1, dtype=np.int64)
                self._lut_bases = signature
            gids = self._lut[codes]
            missing = gids < 0
            if missing.any():
                fresh = np.unique(codes[missing])
                key_columns = decode_rows(fresh)
                self._lut[fresh] = self._bulk_register(
                    list(zip(*[col.tolist() for col in key_columns]))
                )
                gids = self._lut[codes]
            return gids
        dense, inverse = np.unique(codes, return_inverse=True)
        key_columns = decode_rows(dense)
        lut = self._bulk_register(
            list(zip(*[col.tolist() for col in key_columns]))
        )
        return lut[inverse.astype(np.int64, copy=False)]

    @classmethod
    def _decode_parts(cls, dense: np.ndarray, parts) -> list:
        """Radix decode over (codes, uniques, base) parts — delegates to
        the key decode shared with the scalar path."""
        return cls._decode_columns(
            dense,
            [uniques for _, uniques, _ in parts],
            [base for _, _, base in parts],
        )

    # -- finalisation ------------------------------------------------------
    def _finalize_results(self, ngroups: int) -> list:
        finals: dict[int, np.ndarray] = {}

        def final(state):
            key = id(state)
            if key not in finals:
                finals[key] = state.finalize(ngroups)
            return finals[key]

        def impl_final(impl):
            key = id(impl)
            if key not in finals:
                finals[key] = impl.finalize(ngroups)
            return finals[key]

        results = []
        for entry in self._spec_plan:
            kind = entry[0]
            if kind == "count":
                results.append(final(entry[1]))
            elif kind == "sum":
                results.append(final(entry[1]))
            elif kind == "avg":
                sums = final(entry[1])
                counts = final(entry[2])
                results.append(sums / np.maximum(counts, 1))
            elif kind == "minmax":
                results.append(final(entry[1]))
            else:  # var
                name, moment, count = entry[1], entry[2], entry[3]
                sums = impl_final(moment.sum_x)
                squares = impl_final(moment.sum_xx)
                counts = final(count).astype(np.float64)
                ddof = 0.0 if name.endswith("_POP") else 1.0
                denominator = np.maximum(counts - ddof, 1.0)
                variance = squares - sums * sums / np.maximum(counts, 1.0)
                variance = np.maximum(variance, 0.0) / denominator
                if name.startswith("STDDEV"):
                    results.append(np.sqrt(variance))
                else:
                    results.append(variance)
        return results
