"""End-to-end benchmark of the repro engine: ``python3 perfbench/run.py``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload q1_repeat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in its own process as one closed-loop client (see
``workloads.py``).  The run prints every metric as a ``name = value
unit`` line, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The engine is imported from ``src/`` next to this
directory and driven through its public API only.  ``README.md`` here
documents the workloads, units and the layer-to-metric mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("q1_repeat", "adhoc_mix", "ingest_mixed")
#: Paper Table IV: buffered repro Q1 time over IEEE Q1 time.
PAPER_REPRO_OVER_IEEE = 1.027


def _engine_available() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, fixed_rounds: int | None = None,
                 data_dir: str | None = None,
                 out_dir: str | None = None) -> dict:
    """Run one workload in this process; returns the report dict.

    ``scale`` shrinks the scale factors and ``fixed_rounds`` the
    deterministic window (smoke tests); the benchmark uses neither.
    Durable data lives under ``data_dir`` while the run lasts; a traced
    run writes its spans to ``out_dir``.
    """
    import harness
    from workloads import WORKLOADS

    data_dir = data_dir or os.path.join(ROOT, ".perfbench_data",
                                        str(os.getpid()))
    os.makedirs(data_dir, exist_ok=True)
    workload = WORKLOADS[name](seed, scale, data_dir)
    runner = harness.Runner(workload, seconds, trace, fixed_rounds)
    try:
        runner.run()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if trace:
        error = harness.layer_sum_error(runner)
        if error > 1e-9:
            runner.fail(f"layer self times miss statement time by "
                         f"{error:.3g}")
        metrics = harness.per_layer(runner)
        runner.tracer.write(os.path.join(
            out_dir or os.path.join(ROOT, ".perfbench_out"),
            f"spans-{name}-{seed}.jsonl"))
    else:
        metrics = harness.end_to_end(runner)
    extra = {
        "calib_ms": runner.calib_median() * 1e3,
        "rounds": runner.rounds,
        "read_samples": runner.sample_count("repro", workload.read_kinds),
        "read_tail_pct": workload.read_tail_pct,
        "failed_frac": runner.failed() / runner.attempted,
        "result_digest": runner.run_digest(),
    }
    if not trace:
        extra.update({k: v for k, (v, _) in
                      harness.durable_metrics(runner).items()})
    return {
        "workload": name,
        "trace": bool(trace),
        "metrics": metrics,
        "extra": extra,
        "read_ms": {
            f"{label}.{kind}": runner.raw_p50_ms(label, kind)
            for label in ("repro", "ieee") for kind in workload.read_kinds
        },
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed(),
    }


def format_report(report: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [f"# workload {report['workload']} "
             f"({'traced' if report['trace'] else 'untraced'})"]
    for name, (value, unit) in report["metrics"].items():
        lines.append(f"{name} = {value:.6g} {unit}")
    extra = report["extra"]
    lines.append(f"# calib_ms = {extra['calib_ms']:.6g} ms "
                 f"(multiply a calib value by this to get ms)")
    for key, value in report["read_ms"].items():
        lines.append(f"# raw p50 {key} = {value:.6g} ms")
    if "read_p50" in report["metrics"]:
        ratio = (report["metrics"]["read_p50"][0]
                 / report["metrics"]["ieee_read_p50"][0])
        lines.append(f"# repro_over_ieee = {ratio:.4g} "
                     f"(paper Table IV: {PAPER_REPRO_OVER_IEEE})")
    for key in ("write_p50", "write_tail", "recovery_s",
                "disk_bytes_per_row"):
        if key in extra:
            lines.append(f"# {key} = {extra[key]:.6g}")
    lines.append(f"# read_tail percentile = p{extra['read_tail_pct']} "
                 f"over {extra['read_samples']} repro reads, "
                 f"{extra['rounds']} rounds")
    lines.append(f"# failed_frac = {extra['failed_frac']:.6g}")
    lines.append(f"# result_digest = {extra['result_digest']}")
    lines.append(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args(argv)
    if not _engine_available():
        print(f"perfbench: no engine sources at {ROOT}/src/repro; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        traces = (0, 1) if args.trace is None else (args.trace,)
        status = 0
        for name in WORKLOAD_NAMES:
            for trace in traces:
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    check=False, timeout=600,
                )
                status = status or done.returncode
        return status
    sys.path.insert(0, os.path.join(ROOT, "src"))
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(format_report(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
