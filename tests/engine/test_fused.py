"""Fused-kernel equivalence: the generated per-morsel kernels of
:mod:`repro.engine.fused` must be invisible in the result bits.

The fused path compiles scan->filter->project->aggregate into one
specialized Python function per plan signature.  Everything these tests
pin down follows from one invariant: *only dispatch may change*.  Key
registration, ladder updates, and canonical finalize are shared with
the interpreted engines, so fused results must be byte-identical to
both the interpreted vectorized path and the scalar path — in every
sum mode, for every ``(workers, morsel_size)`` split, and across the
IEEE special values (NaN / ±inf / -0.0) in keys and arguments.

The second half unit-tests the multi-table spellings of the ladder
update the kernels call — :func:`add_pairs_multi` (ids in any order)
and :func:`add_sorted_runs_multi` (sorted runs) — against per-group
scalar :class:`~repro.core.state.SummationState` oracles.
"""

import numpy as np
import pytest

from repro.aggregation.grouped import (
    GroupedSummation,
    add_pairs_multi,
    add_sorted_runs_multi,
)
from repro.core.params import RsumParams
from repro.core.state import SummationState
from repro.engine import Database
from repro.engine.vectorized import SortedMorsel
from repro.fp.formats import BINARY32, BINARY64

MODES = ("repro", "repro_buffered", "sorted", "ieee")

QUERY = (
    "SELECT k, s, SUM(v) AS sv, RSUM(v, 3) AS rv, AVG(v) AS av, "
    "COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi, STDDEV(v) AS sd "
    "FROM t GROUP BY k, s ORDER BY k, s"
)
#: No MIN/MAX: no state of the generated kernel sorts the morsel.
SUMS_QUERY = (
    "SELECT k, SUM(v) AS sv, RSUM(v, 3) AS rv, COUNT(*) AS c "
    "FROM t GROUP BY k ORDER BY k"
)
FILTERED_QUERY = (
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c FROM t "
    "WHERE v > 0 GROUP BY k ORDER BY k"
)


def result_bits(result):
    return tuple(np.asarray(arr).tobytes() for arr in result.arrays)


def make_db(columns, data, sum_mode="repro", vectorized=True, fused=True,
            workers=1, morsel_size=1 << 16):
    db = Database(sum_mode=sum_mode, workers=workers,
                  morsel_size=morsel_size, vectorized=vectorized,
                  fused=fused)
    db.execute(f"CREATE TABLE t ({columns})")
    db.table("t").bulk_load(data)
    return db


def run_three(columns, data, query, sum_mode, workers=1, morsel_size=1 << 16):
    """(scalar, interpreted vectorized, fused) results for one query."""
    out = []
    for vectorized, fused in ((False, False), (True, False), (True, True)):
        db = make_db(columns, data, sum_mode, vectorized, fused,
                     workers, morsel_size)
        out.append(db.execute(query))
        stats = db.last_pipeline_stats
        assert stats.vectorized is vectorized
        assert stats.fused is (fused and stats.vectorized)
    return out


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    n = 500
    keys = rng.integers(0, 6, size=n)
    labels = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, n)]
    values = (rng.choice([-1.0, 1.0], size=n)
              * rng.uniform(1.0, 2.0, size=n)
              * np.exp2(rng.uniform(-25, 25, size=n)))
    values[::97] = np.nan
    values[1::131] = np.inf
    values[2::151] = -np.inf
    values[3::89] = -0.0
    values[4::83] = 0.0
    return {"k": keys.tolist(), "s": labels.tolist(), "v": values.tolist()}


class TestBitEquivalence:
    @pytest.mark.parametrize("sum_mode", MODES)
    def test_bits_match_both_paths_for_every_split(self, dataset, sum_mode):
        baseline = None
        for workers in (1, 2, 4):
            for morsel_size in (1, 7, 64, 1 << 16):
                scalar, vector, fused = run_three(
                    "k INT, s VARCHAR(1), v DOUBLE", dataset, QUERY,
                    sum_mode, workers, morsel_size,
                )
                bits = result_bits(fused)
                assert bits == result_bits(scalar)
                assert bits == result_bits(vector)
                if sum_mode != "ieee":
                    baseline = baseline or bits
                    assert bits == baseline

    @pytest.mark.parametrize("query", (SUMS_QUERY, FILTERED_QUERY))
    def test_order_insensitive_kernels(self, dataset, query):
        for workers, morsel_size in ((1, 13), (2, 64), (1, 1 << 16)):
            scalar, vector, fused = run_three(
                "k INT, s VARCHAR(1), v DOUBLE", dataset, query,
                "repro", workers, morsel_size,
            )
            bits = result_bits(fused)
            assert bits == result_bits(scalar) == result_bits(vector)

    def test_nan_and_signed_zero_keys(self):
        data = {
            "k": [float("nan"), 2.0, float("nan"), -0.0, 0.0, float("inf"),
                  float("nan"), float("inf"), 2.0],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        }
        query = ("SELECT k, SUM(v), MIN(v), MAX(v), COUNT(*) FROM t "
                 "GROUP BY k ORDER BY k")
        for workers, morsel_size in ((1, 1), (1, 2), (3, 16)):
            scalar, vector, fused = run_three(
                "k DOUBLE, v DOUBLE", data, query, "repro",
                workers, morsel_size,
            )
            assert result_bits(fused) == result_bits(scalar)
            assert result_bits(fused) == result_bits(vector)

    def test_empty_table_and_empty_morsels(self):
        # Empty input, and a filter that empties every morsel: the
        # kernel must handle zero-row updates.
        for data, query, expect in (
            ({"k": [], "v": []}, "SELECT k, SUM(v) FROM t GROUP BY k", []),
            ({"k": [1, 2], "v": [1.0, 2.0]},
             "SELECT k, SUM(v) FROM t WHERE v > 1e300 GROUP BY k", []),
        ):
            scalar, vector, fused = run_three(
                "k INT, v DOUBLE", data, query, "repro", 2, 1
            )
            assert fused.rows() == scalar.rows() == expect

    def test_all_distinct_groups(self):
        n = 300
        data = {"k": list(range(n)),
                "v": (np.linspace(-1.0, 1.0, n) * 2.0 ** 40).tolist()}
        scalar, vector, fused = run_three(
            "k INT, v DOUBLE", data,
            "SELECT k, SUM(v), AVG(v) FROM t GROUP BY k ORDER BY k",
            "repro", 2, 17,
        )
        assert result_bits(fused) == result_bits(scalar)

    def test_float32_values(self, dataset):
        data = dict(dataset)
        data["v"] = [
            float(np.float32(v)) if np.isfinite(v) else v for v in data["v"]
        ]
        scalar, vector, fused = run_three(
            "k INT, s VARCHAR(1), v FLOAT", data, QUERY, "repro", 2, 64
        )
        assert result_bits(fused) == result_bits(scalar)


class TestQualification:
    def test_inner_join_plan_fuses(self, dataset):
        # PR 10: inner hash-join probes compile into the morsel kernel.
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        db.execute("CREATE TABLE r (k INT, w DOUBLE)")
        db.table("r").bulk_load({"k": [0, 1, 2], "w": [1.0, 2.0, 3.0]})
        db.execute(
            "SELECT t.k, SUM(v) FROM t, r WHERE t.k = r.k GROUP BY t.k"
        )
        assert db.last_pipeline_stats.fused is True

    def test_left_outer_join_falls_back(self, dataset):
        # LEFT joins introduce NULLs into build columns after the
        # probe, so the kernel declines rather than re-deriving types.
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        db.execute("CREATE TABLE r (k INT, w DOUBLE)")
        db.table("r").bulk_load({"k": [0, 1, 2], "w": [1.0, 2.0, 3.0]})
        db.execute(
            "SELECT t.k, SUM(w) FROM t LEFT JOIN r ON t.k = r.k "
            "GROUP BY t.k"
        )
        assert db.last_pipeline_stats.fused is False

    def test_count_distinct_falls_back(self, dataset):
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        db.execute("SELECT k, COUNT(DISTINCT v) FROM t GROUP BY k")
        assert db.last_pipeline_stats.fused is False

    def test_external_aggregation_falls_back(self, dataset):
        db = Database(sum_mode="repro", fused=True, memory_budget=1)
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.table("t").bulk_load({"k": dataset["k"], "v": dataset["v"]})
        result = db.execute(SUMS_QUERY)
        assert db.last_pipeline_stats.fused is False
        reference = make_db("k INT, v DOUBLE",
                            {"k": dataset["k"], "v": dataset["v"]})
        assert result_bits(result) == result_bits(
            reference.execute(SUMS_QUERY)
        )

    def test_explain_renders_fused_stage(self, dataset):
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        plan = db.explain(FILTERED_QUERY)
        assert "FusedPipeline[" in plan
        assert ", fused" in plan
        db.execute("SET fused = off")
        plan = db.explain(FILTERED_QUERY)
        assert "FusedPipeline" not in plan
        assert ", fused" not in plan

    def test_only_min_max_sort_the_morsel(self, dataset, monkeypatch):
        # The ladder update takes rows in any order; only the reduceat
        # extremes of MIN/MAX need the morsel sorted by group id.
        sorts = []
        ensure = SortedMorsel._ensure

        def counting_ensure(morsel):
            sorts.append(morsel)
            ensure(morsel)

        monkeypatch.setattr(SortedMorsel, "_ensure", counting_ensure)
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        db.execute(SUMS_QUERY)
        assert db.last_pipeline_stats.fused is True
        assert not sorts
        db.execute(QUERY)
        assert db.last_pipeline_stats.fused is True
        assert sorts


class TestKernelCache:
    def test_hit_miss_counters(self, dataset):
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        context = db.execution_context
        db.execute(SUMS_QUERY)
        assert context.kernel_cache_misses == 1
        assert context.kernel_cache_hits == 0
        # A plan-cache hit serves the plan with its kernel attached and
        # never reaches the kernel cache; clear it so the re-execution
        # replans (the cross-snapshot path) and counts a kernel hit.
        context._plan_cache.clear()
        db.execute(SUMS_QUERY)
        assert context.kernel_cache_misses == 1
        assert context.kernel_cache_hits >= 1
        db.execute(QUERY)  # different plan signature
        assert context.kernel_cache_misses == 2

    @pytest.mark.parametrize("knob", (
        "SET workers = 2",
        "SET vectorized = false",
        "SET memory_budget = 4096",
    ))
    def test_execution_knobs_invalidate(self, dataset, knob):
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        context = db.execution_context
        db.execute(SUMS_QUERY)
        assert context._kernel_cache
        db.execute(knob)
        assert not context._kernel_cache
        assert context.kernel_cache_invalidations == 1

    def test_toggling_fused_keeps_cache(self, dataset):
        # The knob only gates *use* of the cache; flipping it must not
        # throw away code that is still valid.
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        context = db.execution_context
        db.execute(SUMS_QUERY)
        db.execute("SET fused = off")
        db.execute(SUMS_QUERY)
        assert db.last_pipeline_stats.fused is False
        db.execute("SET fused = on")
        db.execute(SUMS_QUERY)
        assert db.last_pipeline_stats.fused is True
        assert context.kernel_cache_invalidations == 0
        assert context.kernel_cache_misses == 1

    def test_set_fused_validates(self, dataset):
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        with pytest.raises(ValueError, match="fused"):
            db.execute("SET fused = 'banana'")


# ---------------------------------------------------------------------------
# Multi-table ladder updates vs. per-group scalar oracles
# ---------------------------------------------------------------------------

P64 = RsumParams(BINARY64)
P64L3 = RsumParams(BINARY64, levels=3)
P32 = RsumParams(BINARY32)

N, G = 1024, 4


class _Oracle:
    """One scalar :class:`SummationState` per (table, group)."""

    def __init__(self, params, ngroups, ntables):
        self.states = [[SummationState(params) for _ in range(ngroups)]
                       for _ in range(ntables)]

    def feed(self, table_no, gids, values):
        for g, state in enumerate(self.states[table_no]):
            state.add_array(values[gids == g])

    def check(self, tables):
        for table, states in zip(tables, self.states):
            got = table.finalize()
            for g, state in enumerate(states):
                assert table.to_state(g).state_tuple() == state.state_tuple()
                assert got[g:g + 1].tobytes() == np.asarray(
                    [state.finalize()], dtype=got.dtype).tobytes()


def _start(params, ngroups, cols, seed):
    """Fresh tables and their oracle, both fed the ``seed`` batches."""
    tables = [GroupedSummation(params, ngroups) for _ in cols]
    oracle = _Oracle(params, ngroups, len(cols))
    for seed_gids, seed_vals in seed:
        seed_gids = np.asarray(seed_gids, dtype=np.int64)
        seed_vals = np.asarray(seed_vals, dtype=params.fmt.dtype)
        for i, table in enumerate(tables):
            table.add_pairs(seed_gids, seed_vals)
            oracle.feed(i, seed_gids, seed_vals)
    return tables, oracle


def _check_pair(params, ngroups, gids, cols, reps=2, seed=()):
    """``add_sorted_runs_multi`` over sorted runs vs. the oracle."""
    gids = np.asarray(gids, dtype=np.int64)
    order = np.argsort(gids, kind="stable")
    gids = gids[order]
    cols = [np.asarray(c, dtype=params.fmt.dtype)[order] for c in cols]
    starts = np.flatnonzero(np.r_[True, gids[1:] != gids[:-1]])
    tables, oracle = _start(params, ngroups, cols, seed)
    for _ in range(reps):
        add_sorted_runs_multi(tables, gids, np.stack(cols), starts)
        for i, col in enumerate(cols):
            oracle.feed(i, gids, col)
    oracle.check(tables)


def _check_scatter(params, ngroups, gids, cols, seed=(), reps=2,
                   checked=True):
    """``add_pairs_multi`` over ids in any order vs. the oracle."""
    gids = np.asarray(gids, dtype=np.int64)
    cols = [np.asarray(c, dtype=params.fmt.dtype) for c in cols]
    tables, oracle = _start(params, ngroups, cols, seed)
    for _ in range(reps):
        assert add_pairs_multi(tables, gids, cols, checked=checked) is True
        for i, col in enumerate(cols):
            oracle.feed(i, gids, col)
    oracle.check(tables)


def _seed_uniform(magnitude, ngroups=G):
    """One value per group, so every table sits on one uniform ladder."""
    return [(np.arange(ngroups), np.full(ngroups, magnitude))]


#: Group 0 huge, group 1 tiny: mixed per-group ladders.
_SEED_SPLIT = [([0, 1], [1e40, 1e-60])]


class TestAddSortedRunsMulti:
    @pytest.fixture(scope="class")
    def rng(self):
        return np.random.default_rng(7)

    def test_random_columns(self, rng):
        gids = rng.integers(0, G, N)
        cols = [rng.normal(size=N) * 10.0 ** float(rng.integers(-3, 4))
                for _ in range(5)]
        _check_pair(P64, G, gids, cols, reps=3)

    def test_huge_magnitudes(self, rng):
        gids = rng.integers(0, G, N)
        _check_pair(P64, G, gids,
                    [rng.normal(size=N) * 1e280, rng.normal(size=N)])

    def test_three_levels(self, rng):
        gids = rng.integers(0, G, N)
        cols = [rng.normal(size=N) * 10.0 ** float(rng.integers(-9, 10))
                for _ in range(3)]
        _check_pair(P64L3, G, gids, cols)

    def test_all_distinct_groups(self, rng):
        _check_pair(P64, N, np.arange(N), [rng.normal(size=N)])

    def test_binary32(self, rng):
        gids = rng.integers(0, G, N)
        cols = [rng.normal(size=N).astype(np.float32) * np.float32(1e30),
                rng.normal(size=N).astype(np.float32)]
        _check_pair(P32, G, gids, cols)

    def test_nan_inf_columns(self, rng):
        gids = rng.integers(0, G, N)
        v_nan = rng.normal(size=N)
        v_nan[17] = np.nan
        v_inf = rng.normal(size=N)
        v_inf[33] = np.inf
        v_inf[99] = -np.inf
        _check_pair(P64, G, gids, [v_nan, v_inf, rng.normal(size=N)])

    def test_zeros_and_negative_zero(self, rng):
        gids = rng.integers(0, G, N)
        values = rng.normal(size=N)
        values[rng.random(N) < 0.3] = 0.0
        values[rng.random(N) < 0.1] = -0.0
        _check_pair(P64, G, gids, [values, rng.normal(size=N)], reps=3)

    def test_all_zero_segment_and_column(self, rng):
        gids = rng.integers(0, G, N)
        seg_zero = rng.normal(size=N)
        seg_zero[gids == 2] = 0.0
        _check_pair(P64, G, gids, [seg_zero, rng.normal(size=N)])
        _check_pair(P64, G, gids, [np.zeros(N), rng.normal(size=N)])

    def test_zeros_with_nonuniform_magnitudes(self, rng):
        gids = rng.integers(0, G, N)
        values = rng.normal(size=N) * 1e200
        values[rng.random(N) < 0.2] = 0.0
        _check_pair(P64, G, gids, [values, rng.normal(size=N)])

    def test_mixed_per_group_ladders(self, rng):
        gids = rng.integers(0, G, N)
        _check_pair(P64, G, gids,
                    [rng.normal(size=N), rng.normal(size=N) * 1e-50],
                    seed=_SEED_SPLIT)

    def test_mixed_params_rejected(self):
        gids = np.array([0, 1], dtype=np.int64)
        values = np.ones((2, 2))
        tables = [GroupedSummation(P64, 2), GroupedSummation(P64L3, 2)]
        with pytest.raises(ValueError):
            add_sorted_runs_multi(tables, gids, values,
                                  np.array([0, 1], dtype=np.int64))


class TestAddPairsMulti:
    @pytest.fixture(scope="class")
    def rng(self):
        return np.random.default_rng(11)

    def test_steady_state_many_columns(self, rng):
        gids = rng.integers(0, G, N)
        cols = [rng.normal(size=N) * 100 for _ in range(5)]
        _check_scatter(P64, G, gids, cols, seed=_seed_uniform(150.0))

    def test_steady_state_zeros(self, rng):
        gids = rng.integers(0, G, N)
        values = np.where(rng.random(N) < 0.4, -0.0, rng.normal(size=N))
        _check_scatter(P64, G, gids, [values], seed=_seed_uniform(150.0))
        _check_scatter(P64, G, gids, [np.zeros(N), rng.normal(size=N)],
                       seed=_seed_uniform(150.0))

    def test_fresh_tables_reach_steady_state(self, rng):
        # Rep 1 starts from empty ladders and raises them per group;
        # rep 2 finds one uniform ladder and skips the per-group max.
        gids = rng.integers(0, G, N)
        _check_scatter(P64, G, gids, [rng.normal(size=N)])

    def test_demote_declines_then_applies(self, rng):
        # A batch far above the seeded ladder raises it mid-stream.
        gids = rng.integers(0, G, N)
        _check_scatter(P64, G, gids, [rng.normal(size=N) * 1e50],
                       seed=_seed_uniform(1.0))

    def test_three_levels(self, rng):
        gids = rng.integers(0, G, N)
        _check_scatter(P64L3, G, gids,
                       [rng.normal(size=N) * 1e-6, rng.normal(size=N) * 1e6])

    def test_tiny_near_emin(self, rng):
        gids = rng.integers(0, G, N)
        _check_scatter(P64, G, gids, [rng.normal(size=N) * 1e-300],
                       seed=_seed_uniform(1e-299))

    def test_binary32_applies(self, rng):
        # binary32 ladders share the float64 bincount accumulator and
        # its 2**(54-w) block bound.
        gids = rng.integers(0, G, N)
        _check_scatter(P32, G, gids, [rng.normal(size=N).astype(np.float32)],
                       seed=_seed_uniform(np.float32(150.0)))

    def test_window_boundary_straddle(self, rng):
        # The bincount block bound 2**(54-w) is format-independent (the
        # float64 accumulator bounds it, not the value dtype); the
        # default widths put it at 2**14 rows for binary64 and 2**33
        # for binary32, so straddle it with a wide-w params: exactly
        # one block, and one addend into a second block.
        params = RsumParams(BINARY64, w=45)
        limit = 1 << (54 - 45)
        values = rng.uniform(50.0, 200.0, size=limit + 1)
        _check_scatter(params, 1, np.zeros(limit, dtype=np.int64),
                       [values[:limit]],
                       seed=_seed_uniform(150.0, ngroups=1), reps=1)
        _check_scatter(params, 1, np.zeros(limit + 1, dtype=np.int64),
                       [values], seed=_seed_uniform(150.0, ngroups=1),
                       reps=1)

    def test_binary32_subnormal_anchor(self, rng):
        # Anchors near emin = -126: slices live in the subnormal range
        # where the float64 representation is still exact.
        gids = rng.integers(0, G, N)
        tiny = (rng.normal(size=N).astype(np.float32)
                * np.float32(1e-38))
        _check_scatter(P32, G, gids, [tiny],
                       seed=_seed_uniform(np.float32(1e-37)))

    def test_out_of_range_gids_decline_when_checked(self):
        tables = [GroupedSummation(P64, 2)]
        tables[0].add_pairs(np.array([0, 1], dtype=np.int64),
                            np.array([1.0, 1.0]))
        before = tables[0].state_tuples()
        bad = np.array([0, 5], dtype=np.int64)
        with pytest.raises(IndexError):
            add_pairs_multi(tables, bad, [np.array([1.0, 2.0])])
        assert tables[0].state_tuples() == before

    def test_mixed_params_rejected(self):
        tables = [GroupedSummation(P64, 2), GroupedSummation(P64L3, 2)]
        with pytest.raises(ValueError):
            add_pairs_multi(tables, np.array([0, 1], dtype=np.int64),
                            [np.ones(2), np.ones(2)])

    def test_empty_input(self):
        tables = [GroupedSummation(P64, 2)]
        assert add_pairs_multi(tables, np.empty(0, dtype=np.int64),
                               [np.empty(0)]) is True
        assert tables[0].finalize().tolist() == [0.0, 0.0]
