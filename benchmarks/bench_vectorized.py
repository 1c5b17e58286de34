"""Vectorized vs. scalar aggregation: TPC-H Q1 and micro-kernels.

The headline of this benchmark is the PR-2 acceptance gate: the
vectorized columnar kernels (:mod:`repro.engine.vectorized`) must beat
the scalar morsel path by **>= 3x on TPC-H Q1** at bench scale with a
single worker, while returning **bit-identical repro-mode results** —
batching is pure mechanical sympathy, never a semantics change.

Reported series:

* **Q1 end-to-end** — wall-clock per mode for scalar vs. vectorized
  execution at ``workers=1`` (no parallelism hiding the kernel cost);
* **micro-kernels** — ``GroupedSummation.add_pairs`` (ids in any
  order) vs. ``add_sorted_runs`` (sorted runs: the same ladder update,
  with a ladder raise's per-group maxima taken from the runs) on the
  paper's standard workload.

Everything lands in ``BENCH_pr.json`` (ns/element per kernel plus the
speedup ratios) for the CI bench-regression gate.
"""

import time

import numpy as np

from _common import (
    emit,
    ns_per_element,
    record_kernel,
    record_speedup,
    standard_pairs,
    table,
)
from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.engine import Database
from repro.fp.formats import BINARY64
from repro.tpch import load_lineitem, run_q1

SCALE = 0.01        # ~60k lineitem rows
MORSEL_SIZE = 4096
ROWS = int(SCALE * 6_000_000)
MODES = ("ieee", "repro")
REPS = 5

#: The acceptance floor: vectorized repro-mode Q1 must be this many
#: times faster than the scalar path.
SPEEDUP_FLOOR = 3.0


def _result_bits(result):
    return tuple(np.asarray(arr).tobytes() for arr in result.arrays)


def measure_q1(mode: str, vectorized: bool):
    db = Database(sum_mode=mode, workers=1, morsel_size=MORSEL_SIZE,
                  vectorized=vectorized)
    load_lineitem(db, scale_factor=SCALE)
    result = run_q1(db)  # warm-up (also warms the key dictionaries)
    assert db.last_pipeline_stats.vectorized is vectorized
    best = float("inf")
    for _ in range(REPS):
        started = time.perf_counter()
        result = run_q1(db)
        best = min(best, time.perf_counter() - started)
    return best, _result_bits(result)


def measure_kernel(fn, *args, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def test_vectorized_vs_scalar_report():
    q1 = {}
    for mode in MODES:
        scalar_seconds, scalar_bits = measure_q1(mode, vectorized=False)
        vector_seconds, vector_bits = measure_q1(mode, vectorized=True)
        q1[mode] = {
            "scalar": scalar_seconds,
            "vectorized": vector_seconds,
            "speedup": scalar_seconds / vector_seconds,
            "bits_equal": scalar_bits == vector_bits,
        }
        record_kernel(f"q1_{mode}_scalar", ns_per_element(scalar_seconds, ROWS))
        record_kernel(
            f"q1_{mode}_vectorized", ns_per_element(vector_seconds, ROWS)
        )
        record_speedup(f"q1_{mode}_vectorized", q1[mode]["speedup"])

    # Micro-kernel: the ladder update on unsorted vs. sorted input.
    n, ngroups = 1 << 18, 64
    gids, values = standard_pairs(n, ngroups)
    order = np.argsort(gids, kind="stable")
    sorted_gids, sorted_values = gids[order], values[order]
    params = RsumParams(BINARY64, 2)
    scattered_seconds = measure_kernel(
        lambda: GroupedSummation(params, ngroups).add_pairs(gids, values)
    )
    segmented_seconds = measure_kernel(
        lambda: GroupedSummation(params, ngroups).add_sorted_runs(
            sorted_gids, sorted_values
        )
    )
    record_kernel("rsum_add_pairs", ns_per_element(scattered_seconds, n))
    record_kernel("rsum_add_sorted_runs", ns_per_element(segmented_seconds, n))

    body = [
        [
            mode,
            round(stats["scalar"] * 1e3, 2),
            round(stats["vectorized"] * 1e3, 2),
            round(stats["speedup"], 2),
            stats["bits_equal"],
        ]
        for mode, stats in q1.items()
    ]
    body.append([
        "rsum kernel",
        round(scattered_seconds * 1e3, 2),
        round(segmented_seconds * 1e3, 2),
        round(scattered_seconds / segmented_seconds, 2),
        True,
    ])
    emit(
        "vectorized_vs_scalar",
        table(
            ["series", "scalar ms", "vectorized ms", "speedup", "bits equal"],
            body,
            title=(
                f"TPC-H Q1 (SF={SCALE}, morsel={MORSEL_SIZE}, workers=1) "
                "and RSUM micro-kernels"
            ),
        ),
        "The vectorized path dictionary-encodes keys, shares one sort\n"
        "per morsel across aggregates, and accumulates RSUM quanta with\n"
        "segment reductions.  Repro-mode bits are identical by\n"
        "construction; IEEE bits are identical because the vectorized\n"
        "path keeps physical-row-order accumulation for IEEE sums.",
    )

    for mode in MODES:
        assert q1[mode]["bits_equal"], (
            f"{mode}: vectorized result bits differ from the scalar path"
        )
    assert q1["repro"]["speedup"] >= SPEEDUP_FLOOR, (
        f"vectorized repro Q1 speedup {q1['repro']['speedup']:.2f}x "
        f"below the {SPEEDUP_FLOOR}x acceptance floor"
    )
