"""Vectorised multi-group reproducible summation.

The paper's problem with RSUM inside GROUP BY is that the HPC tuning
assumes *one* long vector, while a GROUP BY juggles many interleaved
sums.  The buffered operators solve this at the algorithm level; this
module solves it at the kernel level: :class:`GroupedSummation` runs the
anchor-extraction of :mod:`repro.core.state` for *all* groups at once
using NumPy element-wise arithmetic.

Every update goes through one sort-free kernel
(:func:`add_pairs_multi`) that accepts group ids in any order.  Per
table and batch it

1. counts NaN / ±inf per group and drops them;
2. raises group ladders to the per-group max |value| — skipped when the
   whole table already sits on one ladder high enough for the batch's
   global |max| (the steady state);
3. extracts each value's per-level quanta against its group's anchor,
   with scalar anchors when the touched groups share one ladder whose
   levels are all normal;
4. scatter-sums the quanta with ``np.bincount`` in blocks of at most
   ``2**(54-w)`` rows and lifts each block's sums to int64 quanta;
5. propagates carries.

The final per-group states are bit-identical to feeding each group's
values through its own :class:`~repro.core.state.SummationState` — the
test suite asserts this — because:

* the ladder of a group depends only on the group's max |value| (fixed
  extractor grid), so it can be computed up-front per batch;
* quanta ``q`` are a pure element-wise function of (value, level
  anchor), so NumPy lanes and a scalar loop round identically;
* every quantum is ``k * 2**(e_l - m)`` with ``|k| <= 2**(w-1)``, so a
  block's float64 bin sums are integer multiples of the level grid with
  integer part at most ``2**(54-w) * 2**(w-1) = 2**53``: exact in any
  addition order.  Exact accumulation in bounded blocks is the
  bounded-superaccumulator idea of Goodrich & Eldawy; it makes the
  order of additions irrelevant, so no caller needs a sort.

This kernel is what makes the Python reproduction usable at millions of
rows; the paper's C++ reaches the same place with AVX + summation
buffers, which we model in :mod:`repro.simulator`.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.params import RsumParams
from ..core.state import LadderOverflowError, SummationState

__all__ = ["GroupedSummation", "add_pairs_multi", "add_sorted_runs_multi"]

#: Ladder sentinel for "group has no finite non-zero value yet".
_EMPTY_E0 = -(2**40)


class GroupedSummation:
    """Reproducible running sums for ``ngroups`` groups at once."""

    def __init__(self, params: RsumParams, ngroups: int):
        if ngroups < 0:
            raise ValueError("ngroups must be non-negative")
        self.params = params
        self.ngroups = ngroups
        fmt = params.fmt
        self._m = fmt.mantissa_bits
        self._w = params.w
        self._L = params.levels
        self._emin = fmt.min_exponent
        self._emin_grid = -(-fmt.min_exponent // self._w) * self._w
        self._emax_grid = (fmt.max_exponent // self._w) * self._w
        self._dtype = fmt.dtype if fmt.dtype is not None else np.dtype(np.float64)
        self.e0 = np.full(ngroups, _EMPTY_E0, dtype=np.int64)
        self.s = [np.zeros(ngroups, dtype=np.int64) for _ in range(self._L)]
        self.c = [np.zeros(ngroups, dtype=np.int64) for _ in range(self._L)]
        self.nan_cnt = np.zeros(ngroups, dtype=np.int64)
        self.pos_cnt = np.zeros(ngroups, dtype=np.int64)
        self.neg_cnt = np.zeros(ngroups, dtype=np.int64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        params: RsumParams,
        group_ids: np.ndarray,
        values: np.ndarray,
        ngroups: int,
    ) -> "GroupedSummation":
        """Aggregate ``(group_id, value)`` pairs in one vectorised pass."""
        grouped = cls(params, ngroups)
        grouped.add_pairs(group_ids, values)
        return grouped

    def add_pairs(self, group_ids: np.ndarray, values: np.ndarray) -> None:
        """Add a batch of ``(group_id, value)`` pairs in any order."""
        add_pairs_multi([self], group_ids, [values])

    def add_sorted_runs(self, group_ids: np.ndarray, values: np.ndarray,
                        starts: np.ndarray | None = None) -> None:
        """Add pairs whose ``group_ids`` are **non-decreasing**.

        The same kernel as :meth:`add_pairs`; the runs only replace the
        scattered per-group max of a ladder raise with one
        ``np.maximum.reduceat``.  ``starts`` are the run start offsets
        (computed when omitted).
        """
        add_sorted_runs_multi([self], group_ids, np.asarray(values)[None],
                              starts)

    @staticmethod
    def _run_starts(gids: np.ndarray) -> np.ndarray:
        return np.flatnonzero(
            np.concatenate(([True], gids[1:] != gids[:-1]))
        )

    def _ladder_tops(self, absmax: np.ndarray) -> np.ndarray:
        """Lowest grid top exponent whose level 0 covers each
        ``absmax``; raises when one is beyond the ladder's range."""
        _, exps = np.frexp(absmax)
        raw = np.asarray(exps, dtype=np.int64) - 1 + self._m - self._w + 2
        needed = -((-raw) // self._w) * self._w
        if np.any(needed > self._emax_grid):
            raise LadderOverflowError(
                "input magnitude exceeds the extractor ladder range"
            )
        return np.maximum(needed, self._emin_grid)

    def _add_chunk(self, gids: np.ndarray, vals: np.ndarray,
                   starts: np.ndarray | None) -> None:
        """The ladder update (see the module docstring).  ``starts``,
        when given, are the run starts of non-decreasing ``gids``."""
        m, w, levels = self._m, self._w, self._L
        # 1. NaN / ±inf are set aside (counted after the ladder check)
        #    and never summed.  max/min propagate NaN and catch ±inf
        #    without a full isfinite pass.
        hi = max(float(vals.max()), -float(vals.min()))
        bad = None
        if not math.isfinite(hi):
            finite = np.isfinite(vals)
            bad = (gids[~finite], vals[~finite])
            gids, vals, starts = gids[finite], vals[finite], None
            hi = max(float(vals.max()), -float(vals.min())) if vals.size else 0.0

        # 2. Ladders.  A table on one ladder whose level 0 covers
        #    |values| < 2**(e0 - m + w - 1) needs no per-group max.
        #    Zeros never raise a ladder: a group holding only zeros
        #    keeps its own, exactly as the scalar state would.
        e0 = int(self.e0.min())
        if hi > 0 and (e0 != int(self.e0.max())
                       or not hi < math.ldexp(1.0, e0 - m + w - 1)):
            absvals = np.abs(vals)
            if starts is not None:
                group_max = np.maximum.reduceat(absvals, starts)
                nonzero = group_max > 0
                touched, group_max = gids[starts][nonzero], group_max[nonzero]
            else:
                group_max = np.zeros(self.ngroups, dtype=self._dtype)
                np.maximum.at(group_max, gids, absvals)
                touched = np.flatnonzero(group_max)
                group_max = group_max[touched]
            target = self.e0.copy()
            # Raises LadderOverflowError before anything is mutated.
            target[touched] = np.maximum(target[touched],
                                         self._ladder_tops(group_max))
            self._demote_to(target)
            tops = self.e0[touched]
            e0 = int(tops[0]) if bool((tops == tops[0]).all()) else None
        if bad is not None:
            bad_gids, bad_vals = bad
            np.add.at(self.nan_cnt, bad_gids[np.isnan(bad_vals)], 1)
            np.add.at(self.pos_cnt, bad_gids[bad_vals == np.inf], 1)
            np.add.at(self.neg_cnt, bad_gids[bad_vals == -np.inf], 1)
        if hi == 0:
            return  # only zeros left: each extracts a zero quantum
        if e0 is not None and e0 - (levels - 1) * w < self._emin:
            e0 = None  # a level below the normal range

        # 3. + 4. Quanta, level by level: scalar anchors on a shared
        #    ladder (a zero extracts zero against any anchor), else
        #    per-element anchors from each value's group ladder.
        dt = self._dtype.type
        block = 1 << (54 - w)
        if e0 is None:
            elem_e0 = self.e0[gids]
        q = np.empty_like(vals)
        src = vals
        for level in range(levels):
            if e0 is not None:
                e_l = e0 - level * w
                anchor = np.ldexp(dt(1.5), e_l)
                shift = m - e_l
            else:
                e_l = elem_e0 - level * w
                active = e_l >= self._emin
                anchor = np.ldexp(dt(1.5),
                                  np.where(active, e_l, 0).astype(np.int32))
                group_e = self.e0 - level * w
                shift = np.where(group_e >= self._emin, m - group_e,
                                 0).astype(np.int32)
            np.add(src, anchor, out=q)
            np.subtract(q, anchor, out=q)
            if e0 is None:
                q[~active] = 0
            if level + 1 < levels:
                src = np.subtract(src, q, out=None if src is vals else src)
            for lo in range(0, q.size, block):
                sums = np.bincount(gids[lo:lo + block],
                                   weights=q[lo:lo + block],
                                   minlength=self.ngroups)
                # Bin sums are exact multiples of the level grid; ldexp
                # lifts them to whole quanta exactly (the shift can
                # leave the power-of-two-float range near ``emin``).
                self.s[level] += np.ldexp(sums, shift).astype(np.int64)
        # 5. Carries.
        self._propagate()

    # ------------------------------------------------------------------
    # Ladder maintenance
    # ------------------------------------------------------------------
    def _demote_to(self, target_e0: np.ndarray) -> None:
        """Raise group ladders to ``target_e0`` (level shift, exact)."""
        valid = self.e0 > _EMPTY_E0
        grows = target_e0 > self.e0
        fresh = ~valid & (target_e0 > _EMPTY_E0)
        self.e0[fresh] = target_e0[fresh]
        moving = valid & grows
        if not moving.any():
            return
        shifts = np.zeros(self.ngroups, dtype=np.int64)
        shifts[moving] = (target_e0[moving] - self.e0[moving]) // self._w
        for sigma in np.unique(shifts[moving]):
            mask = shifts == sigma
            sig = int(sigma)
            for level in range(self._L - 1, -1, -1):
                src = level - sig
                if src >= 0:
                    self.s[level][mask] = self.s[src][mask]
                    self.c[level][mask] = self.c[src][mask]
                else:
                    self.s[level][mask] = 0
                    self.c[level][mask] = 0
        self.e0[moving] = target_e0[moving]

    def _propagate(self) -> None:
        """Vectorised carry propagation: canonicalise s into [0, 2**(m-2))."""
        quantum_bits = self._m - 2
        for level in range(self._L):
            s = self.s[level]
            d = s >> quantum_bits  # arithmetic shift == floor division
            np.subtract(s, d << quantum_bits, out=s)
            self.c[level] += d

    # ------------------------------------------------------------------
    # Merging (thread-private tables into the shared table)
    # ------------------------------------------------------------------
    def merge(self, other: "GroupedSummation", mapping: np.ndarray | None = None) -> None:
        """Fold ``other`` in; ``mapping[g]`` is the target group of other's g.

        ``mapping`` must be injective (each source group hits a distinct
        target), which holds when both sides are keyed group tables.
        """
        if other.params != self.params:
            raise ValueError("cannot merge with different parameters")
        if mapping is None:
            if other.ngroups != self.ngroups:
                raise ValueError("group counts differ and no mapping given")
            mapping = np.arange(self.ngroups, dtype=np.int64)
        else:
            mapping = np.asarray(mapping, dtype=np.int64)
            if mapping.size != other.ngroups:
                raise ValueError("mapping must cover all source groups")
            if np.unique(mapping).size != mapping.size:
                raise ValueError("mapping must be injective")

        np.add.at(self.nan_cnt, mapping, other.nan_cnt)
        np.add.at(self.pos_cnt, mapping, other.pos_cnt)
        np.add.at(self.neg_cnt, mapping, other.neg_cnt)

        src_valid = other.e0 > _EMPTY_E0
        if not src_valid.any():
            return
        # Raise both sides to the joint ladder.
        target = self.e0.copy()
        tgt_idx = mapping[src_valid]
        np.maximum.at(target, tgt_idx, other.e0[src_valid])
        self._demote_to(target)

        joint = self.e0[mapping]  # per-source-group target ladder
        shifts = np.zeros(other.ngroups, dtype=np.int64)
        shifts[src_valid] = (joint[src_valid] - other.e0[src_valid]) // self._w
        for sigma in np.unique(shifts[src_valid]):
            mask = src_valid & (shifts == sigma)
            sig = int(sigma)
            tgt = mapping[mask]
            for level in range(self._L):
                src = level - sig
                if src >= 0:
                    np.add.at(self.s[level], tgt, other.s[src][mask])
                    np.add.at(self.c[level], tgt, other.c[src][mask])
        self._propagate()

    # ------------------------------------------------------------------
    # Finalisation / interop
    # ------------------------------------------------------------------
    def finalize(self) -> np.ndarray:
        """Per-group reproducible sums (Equation 1, vectorised)."""
        dt = self._dtype.type
        res = np.zeros(self.ngroups, dtype=self._dtype)
        valid = self.e0 > _EMPTY_E0
        for level in range(self._L - 1, -1, -1):
            e_l = self.e0 - level * self._w
            active = valid & (e_l >= self._emin)
            exp = np.where(active, e_l, 0).astype(np.int32)
            offset = np.ldexp(self.s[level].astype(self._dtype), exp - self._m)
            carries = self.c[level].astype(self._dtype) * np.ldexp(dt(0.25), exp)
            term = offset + carries
            res = np.where(active, res + term, res)
        has_nan = (self.nan_cnt > 0) | ((self.pos_cnt > 0) & (self.neg_cnt > 0))
        res = np.where(self.pos_cnt > 0, dt(np.inf), res)
        res = np.where(self.neg_cnt > 0, dt(-np.inf), res)
        res = np.where(has_nan, dt(np.nan), res)
        return res

    def resize(self, ngroups: int) -> None:
        """Grow the table to ``ngroups`` (new groups start empty).

        Used by the streaming aggregation when previously unseen keys
        arrive; existing group states are untouched, so growth cannot
        affect any bits.
        """
        if ngroups < self.ngroups:
            raise ValueError("cannot shrink a grouped summation")
        if ngroups == self.ngroups:
            return
        extra = ngroups - self.ngroups
        self.e0 = np.concatenate(
            [self.e0, np.full(extra, _EMPTY_E0, dtype=np.int64)]
        )
        for level in range(self._L):
            self.s[level] = np.concatenate(
                [self.s[level], np.zeros(extra, dtype=np.int64)]
            )
            self.c[level] = np.concatenate(
                [self.c[level], np.zeros(extra, dtype=np.int64)]
            )
        self.nan_cnt = np.concatenate(
            [self.nan_cnt, np.zeros(extra, dtype=np.int64)]
        )
        self.pos_cnt = np.concatenate(
            [self.pos_cnt, np.zeros(extra, dtype=np.int64)]
        )
        self.neg_cnt = np.concatenate(
            [self.neg_cnt, np.zeros(extra, dtype=np.int64)]
        )
        self.ngroups = ngroups

    def nbytes(self) -> int:
        """Resident bytes of the per-group ladder arrays (the memory
        the engine's budget accounting charges for one repro-sum
        state)."""
        per_level = sum(s.nbytes + c.nbytes for s, c in zip(self.s, self.c))
        return (
            self.e0.nbytes + per_level
            + self.nan_cnt.nbytes + self.pos_cnt.nbytes + self.neg_cnt.nbytes
        )

    def to_state(self, group: int) -> SummationState:
        """Extract one group as a scalar :class:`SummationState`."""
        state = SummationState(self.params)
        if self.e0[group] > _EMPTY_E0:
            state.e0 = int(self.e0[group])
            state.s = [int(self.s[level][group]) for level in range(self._L)]
            state.c = [int(self.c[level][group]) for level in range(self._L)]
        state.nan_count = int(self.nan_cnt[group])
        state.posinf_count = int(self.pos_cnt[group])
        state.neginf_count = int(self.neg_cnt[group])
        return state

    def state_tuples(self) -> list:
        """Canonical identity per group (for reproducibility assertions)."""
        return [self.to_state(g).state_tuple() for g in range(self.ngroups)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupedSummation({self.ngroups} groups, L={self._L}, "
            f"{self.params.fmt.name})"
        )


def add_pairs_multi(tables: list, group_ids: np.ndarray,
                    values_rows: list, checked: bool = True,
                    starts: np.ndarray | None = None) -> bool:
    """The ladder update: feed ``values_rows[i]`` into ``tables[i]``,
    with one shared ``group_ids`` array in any order.

    All tables must share identical :class:`RsumParams`.  Tables are
    updated in turn; a :class:`LadderOverflowError` leaves the raising
    table untouched and earlier tables fully applied.  ``checked=False``
    skips the group-id range scan for callers that construct the ids
    themselves (the fused kernels); out-of-range ids are then undefined
    behavior exactly like any unchecked kernel.  ``starts`` are the run
    starts of non-decreasing ids (see :func:`add_sorted_runs_multi`).
    Always returns ``True``.

    The bincount block bound ``n <= 2**(54-w)`` holds for binary32
    ladders with the *same* bound as binary64, because neither side of
    the argument depends on the value format's significand width:

    * the quantum bound is format-independent — after the ladder raise
      every group has ``eb + m - w + 2 <= e0`` for its values, so every
      level quantum ``q = k * 2**(e_l - m)`` has
      ``|k| <= 2**(eb + 1 - e0 + m) <= 2**(w-1)`` whether ``m`` is 52
      or 23;
    * the accumulator is format-independent — ``np.bincount`` converts
      its weights to float64 before summing, and every binary32
      quantum converts exactly (float32 ⊂ float64), so each partial
      sum is an exact integer multiple of ``2**(e_l - m)`` with
      integer part at most ``2**(54-w) * 2**(w-1) = 2**53``,
      representable and closed under addition in float64 in any order
      (the scale ``2**(e_l - m)`` stays at or above ``2**(emin - m)``,
      inside float64's range for both formats).

    The per-element arithmetic stays in the table dtype either way:
    the anchors ``ldexp(dt(1.5), e_l)`` are exact in binary32 for every
    in-range ``e_l >= emin`` (one significand bit), so each float32
    quantum is bit-identical to the scalar state's.  Block sums lift to
    at most ``2**53`` quanta each, and carries propagate every
    ``2**(62-w)`` rows, so the int64 level sums never overflow.
    """
    tables = list(tables)
    if not tables:
        return True
    first = tables[0]
    for table in tables[1:]:
        if table.params != first.params:
            raise ValueError("add_pairs_multi requires identical parameters")
    if len(values_rows) != len(tables):
        raise ValueError("one values row per table required")
    gids = np.asarray(group_ids, dtype=np.int64)
    rows = [np.asarray(row, dtype=first._dtype) for row in values_rows]
    if gids.ndim != 1 or any(row.shape != gids.shape for row in rows):
        raise ValueError("group_ids and values must be equal-length 1-D")
    if gids.size == 0:
        return True
    if checked:
        lo, hi = ((gids[0], gids[-1]) if starts is not None
                  else (gids.min(), gids.max()))
        if lo < 0 or hi >= min(table.ngroups for table in tables):
            raise IndexError("group id out of range")
    chunk = 1 << (62 - first._w)
    if gids.size > chunk:
        starts = None
    for table, vals in zip(tables, rows):
        for lo in range(0, gids.size, chunk):
            table._add_chunk(gids[lo:lo + chunk], vals[lo:lo + chunk], starts)
    return True


def add_sorted_runs_multi(tables: list, group_ids: np.ndarray,
                          values: np.ndarray,
                          starts: np.ndarray | None = None) -> None:
    """:func:`add_pairs_multi` for **non-decreasing** ``group_ids``.

    ``values`` has shape ``(len(tables), n)``; row ``i`` is consumed by
    ``tables[i]``.  The runs (``starts``, computed when omitted) give
    each ladder raise its per-group maxima by one ``reduceat``.
    """
    gids = np.asarray(group_ids, dtype=np.int64)
    vals = np.asarray(values)
    if vals.shape != (len(tables), gids.size) or gids.ndim != 1:
        raise ValueError("values must have shape (len(tables), len(group_ids))")
    if starts is None and gids.size:
        starts = GroupedSummation._run_starts(gids)
    add_pairs_multi(tables, gids, list(vals), starts=starts)
