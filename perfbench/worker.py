"""One repetition of one workload, in a fresh process.

Imports the program, writes the workload's inputs (the set-up), runs the job
list through ``snwitness.cli.main`` with wall and CPU clocks around it, then
checks the outputs and prints one JSON line for ``run.py``.  The first
repetition of a run checks every output against ``expect``; a later one that
reproduces the first byte for byte inherits its verdicts, otherwise it is
checked in full.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_job(cli, job):
    """Call the CLI in-process as the console script would; an exception
    that escapes ``main`` ends the command with exit 1."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:  # argparse
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the console script would die with a traceback
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def read_output(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def verdicts(jobs, results, reference: str | None):
    """Problems per job; taken from the reference repetition when every
    exit code, stderr text and report is identical to it."""
    from expect import Outcome

    if reference:
        with open(os.path.join(reference, "verdicts.json"), encoding="utf-8") as fh:
            ref = json.load(fh)
        same = all(
            r["code"] == code and r["stderr"] == err
            and read_output(os.path.join(reference, os.path.basename(job.output))) == read_output(job.output)
            for r, job, (code, err) in zip(ref, jobs, results)
        )
        if same and len(ref) == len(jobs):
            return [r["problems"] for r in ref]
    out = []
    for job, (code, err) in zip(jobs, results):
        raw = read_output(job.output)
        report = json.loads(raw) if raw else None
        out.append(job.check(Outcome(code, err, report)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, help="holds inputs/ and the repetition's output dir")
    parser.add_argument("--rep", required=True, help="output directory name for this repetition")
    parser.add_argument("--reference", default=None, help="output directory of the first repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    os.environ.update(THREADS)  # before numpy is first imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from snwitness import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"snwitness was imported from {cli.__file__}, not from {ROOT}/src")
    import jobs as workloads

    os.chdir(args.workdir)
    jobs = workloads.build(args.workload, args.seed, "inputs", args.rep)
    tracer = None
    if args.trace:
        from spans import METRICS, Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - args.launched
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    results = [run_job(cli, job) for job in jobs]
    wall_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    peak_rss_mb = usage1.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux

    problems = verdicts(jobs, results, args.reference)
    with open(os.path.join(args.rep, "verdicts.json"), "w", encoding="utf-8") as fh:
        json.dump(
            [{"name": j.name, "code": c, "stderr": e, "problems": p}
             for j, (c, e), p in zip(jobs, results, problems)],
            fh, indent=1,
        )
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": sum(bool(p) for p in problems),
        "errors": [f"{j.name}: {'; '.join(p)}" for j, p in zip(jobs, problems) if p and not j.fault],
        "faults": [f"{j.name}: {j.fault}" for j, p in zip(jobs, problems) if p and j.fault],
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["layer_units"] = METRICS
        tracer.dump(os.path.join(args.rep, "spans.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
