"""Benchmark of the snwitness CLI: scan, classify, lift/lower and verify.

    python3 perfbench/run.py --workload scan-bisect --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, untraced and traced

One run repeats the workload's fixed job list, each time in a fresh worker
process (``worker.py``), until ``--seconds`` have passed; it reports the
median of each end-to-end metric over the repetitions.  With ``--trace 1``
the repetitions alternate between untraced and traced, and the run reports
the per-layer metrics of the traced ones and the tracing overhead.  The last
line of output is one JSON object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, workdir: str, rep: str, reference, trace: int, timeout: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", workdir, "--rep", rep, "--trace", str(trace),
    ]
    if reference:
        cmd += ["--reference", reference]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)], capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition {rep} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Repeat the job list until ``seconds`` have passed; with ``trace``,
    alternate untraced and traced repetitions (at least one of each)."""
    workdir = os.path.join(HERE, "out", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    start = time.monotonic()
    reps = []
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        rep = f"rep{len(reps) + 1}"
        reference = "rep1" if reps else None
        remaining = DEADLINE_S - (time.monotonic() - start)
        reps.append((traced, spawn(workload, seed, workdir, rep, reference, int(traced), remaining)))
        if reference and not traced:
            shutil.rmtree(os.path.join(workdir, rep))
        elapsed = time.monotonic() - start
        last = elapsed / len(reps)
        if (elapsed >= seconds and (not trace or len(reps) >= 2)) or elapsed + 2 * last > DEADLINE_S:
            break
    plain = [r for t, r in reps if not t]
    result = {
        "correct": not any(r["errors"] for _, r in reps),
        "attempted": sum(r["attempted"] for _, r in reps),
        "failed": sum(r["failed"] for _, r in reps),
        "errors": sorted({e for _, r in reps for e in r["errors"]}),
        "faults": sorted({f for _, r in reps for f in r["faults"]}),
        "repetitions": len(reps),
    }
    if not trace:
        result["metrics"] = {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        return result
    traced = [r for t, r in reps if t]
    layers = {
        name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
        for name, unit in traced[0]["layer_units"].items()
    }
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    result["metrics"] = layers
    return result


def _print_table(workload: str, result: dict):
    print(f"== {workload}: {result['repetitions']} repetitions, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"   {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for line in result["faults"]:
        print(f"   known fault: {line}")
    for line in result["errors"]:
        print(f"   WRONG: {line}")


def main(argv=None) -> int:
    os.environ.update(THREADS)  # this process and its workers only; before numpy loads
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 with --workload, both without it")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "snwitness", "cli.py")):
        print(f"error: no program to measure: {ROOT}/src/snwitness is missing", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        modes = [args.trace]
    else:
        modes = [0] if args.workload else [0, 1]
    summary = {}
    try:
        for workload in workloads:
            for trace in modes:
                result = run_workload(workload, args.seed, args.seconds, trace)
                summary[f"{workload}{'/trace' if trace else ''}"] = result
                if len(workloads) * len(modes) > 1:
                    _print_table(workload + (" (traced)" if trace else ""), result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summary) == 1:
        (result,) = summary.values()
        for line in result["faults"] + result["errors"]:
            print(line, file=sys.stderr)
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: result[key] for key in keys}))
    else:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
