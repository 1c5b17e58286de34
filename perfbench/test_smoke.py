"""Smoke test of the benchmark at a tiny scale.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from repro.engine.session import Session  # noqa: E402


def _declared(key: str) -> list:
    """The metrics ``BENCHMARK.json`` lists under ``key``."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)[key]


def _smoke(tmp_path, workload: str, trace: bool) -> dict:
    return run.run_workload(workload, seed=3, seconds=0.0, trace=trace,
                            scale=0.02, fixed_rounds=4,
                            data_dir=str(tmp_path / "data"),
                            out_dir=str(tmp_path / "out"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(tmp_path, workload, trace):
    report = _smoke(tmp_path, workload, trace)
    assert report["correct"], report
    text = run.format_report(report)
    declared = _declared("per_layer" if trace else "end_to_end")
    for metric in declared:
        assert f"\n{metric['name']} = " in text
        line = next(l for l in text.splitlines()
                    if l.startswith(metric["name"] + " = "))
        assert line.endswith(" " + metric["unit"]), line
    result = json.loads(text.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupting(monkeypatch, corrupt):
    """Make ``Session.execute`` hand back damaged repro results."""
    original = Session.execute
    calls = {"n": 0}

    def execute(self, sql_text):
        result = original(self, sql_text)
        if (self.sum_config.mode == "repro" and hasattr(result, "arrays")
                and sql_text.lstrip().upper().startswith("SELECT")):
            calls["n"] += 1
            corrupt(result, calls["n"])
        return result

    monkeypatch.setattr(Session, "execute", execute)


def _first_float_column(result):
    for i, arr in enumerate(result.arrays):
        if arr.dtype == np.float64 and arr.size:
            return i
    return None


@pytest.mark.parametrize("workload", ["q1_repeat", "ingest_mixed"])
def test_wrong_sum_fails_the_oracle(tmp_path, monkeypatch, workload):
    def add_one(result, n):
        i = _first_float_column(result)
        if i is not None:
            result.arrays[i] = result.arrays[i] + 1.0

    _corrupting(monkeypatch, add_one)
    report = _smoke(tmp_path, workload, trace=False)
    assert not report["correct"]
    assert report["failed"] > 0


def test_one_flipped_bit_fails_the_repeat_check(tmp_path, monkeypatch):
    def flip_once(result, n):
        if n == 3:
            i = _first_float_column(result)
            bits = result.arrays[i].view(np.int64).copy()
            bits[0] ^= 1
            result.arrays[i] = bits.view(np.float64)

    _corrupting(monkeypatch, flip_once)
    report = _smoke(tmp_path, "q1_repeat", trace=False)
    assert not report["correct"]
    assert report["failed"] == 1
