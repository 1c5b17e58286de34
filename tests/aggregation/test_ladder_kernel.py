"""The sort-free ladder update against per-group scalar oracles.

Every spelling of :class:`~repro.aggregation.grouped.GroupedSummation`'s
update — ``add_pairs``, ``add_sorted_runs``, ``add_pairs_multi`` and
``add_sorted_runs_multi`` — runs one kernel.  These tests feed it
streams of batches and compare every group's state with a
:class:`~repro.core.state.SummationState` that saw the same group's
values one at a time (Algorithm 2, the ground truth).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.grouped import (
    GroupedSummation,
    add_pairs_multi,
    add_sorted_runs_multi,
)
from repro.core.params import RsumParams
from repro.core.state import LadderOverflowError, SummationState
from repro.fp.formats import BINARY32, BINARY64

NGROUPS = 5

PARAMS = {
    "b64": RsumParams(BINARY64),
    "b64_l3": RsumParams(BINARY64, levels=3),
    "b32": RsumParams(BINARY32),
    # A narrow level-0 window: the bincount block is 2**(54-50) = 16
    # rows and carries propagate every 2**(62-50) = 4096 rows.
    "b64_w50": RsumParams(BINARY64, w=50),
}

#: Special and extreme values mixed into the random batches (binary32
#: rounds the large ones to ±inf and the tiny ones to zero).
SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
            2.2250738585072014e-308, 1e280, -1e-300, 1e-40, -1e36)

#: Batch magnitude scales per format, all inside the ladder's range.
SCALES = {
    BINARY64.name: (1e-300, 1e-30, 1.0, 1e30, 1e200),
    BINARY32.name: (1e-30, 1e-10, 1.0, 1e10, 1e20),
}


def scalar_oracle(params, batches):
    """Per-group states fed element at a time, in stream order."""
    states = [SummationState(params) for _ in range(NGROUPS)]
    for gids, values in batches:
        for g, v in zip(gids, values):
            states[int(g)].add(v)
    return states


def assert_matches(table, states):
    sums = table.finalize()
    for g, state in enumerate(states):
        assert table.to_state(g).state_tuple() == state.state_tuple(), g
        expected = np.asarray([state.finalize()], dtype=sums.dtype)
        assert sums[g:g + 1].tobytes() == expected.tobytes(), g


def feed(table, spelling, gids, values):
    """One batch through one spelling of the update."""
    if spelling == "pairs":
        table.add_pairs(gids, values)
    elif spelling == "sorted":
        order = np.argsort(gids, kind="stable")
        table.add_sorted_runs(gids[order], values[order])
    elif spelling == "multi":
        assert add_pairs_multi([table], gids, [values]) is True
    else:
        order = np.argsort(gids, kind="stable")
        add_sorted_runs_multi([table], gids[order], values[order][None])


SPELLINGS = ("pairs", "sorted", "multi", "sorted_multi")


@st.composite
def streams(draw):
    """``(params key, [(gids, values), ...])``: a stream of batches
    whose magnitude scale moves between batches, so ladders are raised
    mid-stream and groups sit on different ladders."""
    key = draw(st.sampled_from(sorted(PARAMS)))
    fmt = PARAMS[key].fmt
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        scale = draw(st.sampled_from(SCALES[fmt.name]))
        gids = rng.integers(0, NGROUPS, size=n)
        values = rng.normal(size=n) * scale * np.exp2(
            rng.integers(-40, 40, size=n))
        specials = rng.random(n) < draw(st.sampled_from((0.0, 0.2)))
        values[specials] = rng.choice(SPECIALS, size=int(specials.sum()))
        with np.errstate(over="ignore", under="ignore"):
            values = values.astype(fmt.dtype)
        if draw(st.booleans()):
            order = np.argsort(gids, kind="stable")
            gids, values = gids[order], values[order]
        batches.append((gids.astype(np.int64), values))
    return key, batches


class TestAgainstScalarOracle:
    @given(streams(), st.sampled_from(SPELLINGS))
    @settings(max_examples=120, deadline=None)
    def test_stream_matches_oracle(self, stream, spelling):
        key, batches = stream
        params = PARAMS[key]
        table = GroupedSummation(params, NGROUPS)
        for gids, values in batches:
            feed(table, spelling, gids, values)
        assert_matches(table, scalar_oracle(params, batches))

    @given(streams(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permuted_batches_match(self, stream, seed):
        key, batches = stream
        params = PARAMS[key]
        rng = np.random.default_rng(seed)
        gids = np.concatenate([g for g, _ in batches])
        values = np.concatenate([v for _, v in batches])
        order = rng.permutation(gids.size)
        table = GroupedSummation(params, NGROUPS)
        table.add_pairs(gids[order], values[order])
        assert_matches(table, scalar_oracle(params, batches))

    def test_mixed_ladders_and_mid_stream_raise(self):
        params = PARAMS["b64_l3"]
        batches = [
            (np.array([0, 1, 2, 3]), np.array([1e-300, 1.0, 1e100, -0.0])),
            (np.array([3, 2, 1, 0, 4]),
             np.array([3.0, 1e-5, 1e150, 7e-301, 5e-324])),
            (np.array([1, 1, 0]), np.array([1e-200, -1e150, 1e-250])),
        ]
        for spelling in SPELLINGS:
            table = GroupedSummation(params, NGROUPS)
            for gids, values in batches:
                feed(table, spelling, gids, values)
            assert_matches(table, scalar_oracle(params, batches))

    @pytest.mark.parametrize("key, batches", [
        # Seeded at 1.0, every ladder tops at e0 = 40, whose level 0
        # covers |v| < 2**27: 2**27 - 2**-25 keeps the ladder, 2**27
        # raises it by one grid step.
        ("b64", [[1.0] * NGROUPS, [2.0**27 - 2.0**-25] * NGROUPS,
                 [2.0**27, 1.0, -1.0, 0.5, 3.0]]),
        # One shared ladder at e0 = -960 on three levels: the lowest
        # (-1040) lies below the normal range.
        ("b64_l3", [[1e-300, 3e-300, -2e-300, 1e-301, 5e-324]]),
    ])
    def test_ladder_window_edges(self, key, batches):
        params = PARAMS[key]
        batches = [(np.arange(NGROUPS), np.array(values))
                   for values in batches]
        for spelling in SPELLINGS:
            table = GroupedSummation(params, NGROUPS)
            for gids, values in batches:
                feed(table, spelling, gids, values)
            assert_matches(table, scalar_oracle(params, batches))

    @pytest.mark.parametrize("key", sorted(PARAMS))
    def test_batch_longer_than_one_block(self, key):
        params = PARAMS[key]
        rng = np.random.default_rng(4)
        block = 1 << (54 - params.w)
        n = min(3 * block + 7, 9000)  # > one block for both binary64 params
        gids = rng.integers(0, NGROUPS, size=n).astype(np.int64)
        values = (rng.normal(size=n) * 1e3).astype(params.fmt.dtype)
        tables = [GroupedSummation(params, NGROUPS) for _ in range(2)]
        tables[0].add_pairs(gids, values)
        order = np.argsort(gids, kind="stable")
        tables[1].add_sorted_runs(gids[order], values[order])
        states = [SummationState(params) for _ in range(NGROUPS)]
        for g, state in enumerate(states):
            state.add_array(values[gids == g])
        for table in tables:
            assert_matches(table, states)

    def test_full_magnitude_quanta(self):
        # Every level-0 quantum at the top of its window, |k| = 2**49 - 1
        # for w = 50: a bincount block of 16 rows sums to just under
        # 2**53 (exact), and 20000 rows span five carry propagations
        # whose int64 sums stay below 2**63.
        params = PARAMS["b64_w50"]
        values = np.full(20000, (2.0**49 - 1) / 4)
        gids = np.zeros(values.size, dtype=np.int64)
        table = GroupedSummation(params, NGROUPS)
        table.add_pairs(gids, values)
        state = SummationState(params)
        state.add_array(values)
        assert table.to_state(0).state_tuple() == state.state_tuple()

    def test_binary64_default_block(self):
        # 40000 rows span three 2**14-row bincount blocks.
        params = PARAMS["b64"]
        rng = np.random.default_rng(8)
        n = 40000
        gids = rng.integers(0, NGROUPS, size=n).astype(np.int64)
        values = rng.normal(size=n) * 1e10
        table = GroupedSummation(params, NGROUPS)
        table.add_pairs(gids, values)
        states = [SummationState(params) for _ in range(NGROUPS)]
        for g, state in enumerate(states):
            state.add_array(values[gids == g])
        assert_matches(table, states)


class TestErrors:
    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_ladder_overflow_leaves_table_untouched(self, spelling):
        params = PARAMS["b64"]
        table = GroupedSummation(params, NGROUPS)
        table.add_pairs(np.array([0, 1]), np.array([1.0, np.nan]))
        before = table.state_tuples()
        with pytest.raises(LadderOverflowError):
            feed(table, spelling, np.array([2, 0, 1]),
                 np.array([1e308, 1.0, np.nan]))
        assert table.state_tuples() == before
        with pytest.raises(LadderOverflowError):
            SummationState(params).add(1e308)

    def test_overflow_keeps_earlier_tables(self):
        params = PARAMS["b64"]
        tables = [GroupedSummation(params, 2) for _ in range(2)]
        with pytest.raises(LadderOverflowError):
            add_pairs_multi(tables, np.array([0, 1]),
                            [np.array([1.0, 2.0]), np.array([1e308, 1.0])])
        assert tables[0].finalize().tolist() == [1.0, 2.0]
        assert tables[1].finalize().tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("bad", (-1, NGROUPS))
    def test_group_id_out_of_range(self, spelling, bad):
        table = GroupedSummation(PARAMS["b64"], NGROUPS)
        gids = np.array([0, 2, bad]) if bad > 0 else np.array([bad, 0, 2])
        with pytest.raises(IndexError):
            feed(table, spelling, gids, np.array([1.0, 2.0, 3.0]))
        assert table.finalize().tolist() == [0.0] * NGROUPS
