"""Calibration kernel behind the benchmark's ``calib`` latency unit.

A fixed amount of NumPy and pure-Python work that imports nothing from
``repro``.  The benchmark times it between statements and divides each
latency by the kernel time measured around it, so a latency reads the
same on a slower or busier machine as long as the engine and the kernel
slow down alike.  The work mirrors a morsel's: a sort and passes of
arithmetic, selection, segment sums and a key sort over 64k-128k
element arrays.  The pure-Python share is kept small on purpose: on a
shared host interpreter loops slowed far more than the engine under
neighbour load, which made the unit noisier, not steadier.

Every large array the kernel touches is allocated once, when the
kernel is built.  A kernel that allocated its temporaries on each run
spent over half its time faulting them in, and its frees moved glibc's
dynamic mmap and trim thresholds under the engine it was measuring:
the IEEE Q1 of ``ingest_mixed`` then flipped between a faulting and a
quiet regime from one process to the next.
"""

from __future__ import annotations

import time

import numpy as np

_N = 1 << 17
_MORSEL = 1 << 16
_GROUPS = 4096


class CalibrationKernel:
    """The kernel's inputs and scratch arrays; :meth:`run` times it."""

    def __init__(self):
        values = np.random.default_rng(20180416).standard_normal(_N)
        self._values = values
        self._morsel = values[:_MORSEL].copy()
        self._keys = (np.arange(_MORSEL, dtype=np.int64)
                      * 2654435761) % _GROUPS
        self._starts = np.arange(0, _MORSEL, 64)
        self._sorted = np.empty(_N)
        self._factor = np.empty(_MORSEL)
        self._scaled = np.empty(_MORSEL)
        self._mask = np.empty(_MORSEL, dtype=bool)
        self._kept = np.empty(_MORSEL)
        self._kept_keys = np.empty(_MORSEL, dtype=np.int64)
        self._key_sort = np.empty(_MORSEL, dtype=np.int64)

    def run(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        started = time.perf_counter()
        np.copyto(self._sorted, self._values)
        self._sorted.sort()
        total = float(self._sorted[-1])
        for _ in range(2):
            np.abs(self._morsel, out=self._factor)
            self._factor *= -0.01
            self._factor += 1
            np.multiply(self._morsel, self._factor, out=self._scaled)
            np.greater(self._scaled, 0.1, out=self._mask)
            n = int(np.count_nonzero(self._mask))
            kept = np.compress(self._mask, self._scaled,
                               out=self._kept[:n])
            keys = np.compress(self._mask, self._keys,
                               out=self._kept_keys[:n])
            sums = np.bincount(keys, weights=kept, minlength=_GROUPS)
            starts = self._starts[: (n + 63) // 64]
            total += float(sums[0]) + float(np.add.reduceat(kept, starts)[0])
            np.copyto(self._key_sort, self._keys)
            self._key_sort.sort()
            total += float(self._key_sort[0])
        counts: dict[int, int] = {}
        for i in range(1000):
            counts[i & 63] = counts.get(i & 63, 0) + (i * i) % 7
        total += sum(counts.values())
        elapsed = time.perf_counter() - started
        if total != total:  # pragma: no cover - consumes the result
            raise RuntimeError("calibration kernel produced NaN")
        return elapsed
