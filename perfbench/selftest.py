"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For one job of each kind it runs the program, sees the check accept the
real output, then feeds the check deliberately wrong variants of that output
and sees each rejected.  The two jobs that exercise known faults are tested
with constructed outputs, so the self-test does not depend on whether those
faults are fixed.  Exits 1 if any check accepts a wrong output or rejects a
right one.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

from worker import ROOT, THREADS, run_job

HERE = os.path.dirname(os.path.abspath(__file__))


def _negate_first_amplitude(state: dict):
    state["amplitudes"][0] = [-x for x in state["amplitudes"][0]]


def _mutations(expect, np):
    """job name -> [(description, function mutating the report in place)]"""

    def row(i, **changes):
        return lambda r: r["result"]["rows"][i].update(changes)

    def shift(path, by):
        def apply(r):
            node = r["result"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += by
        return apply

    def matrix_entry(r):
        r["result"]["matrix"][1][2][0] += 1e-6

    def rank_two_state(r):
        amps = r["result"]["detectedState"]["amplitudes"]
        n = len(amps)
        vec = np.zeros(n, dtype=complex)
        vec[0] = vec[n - 1] = 1 / np.sqrt(2)
        r["result"]["detectedState"]["amplitudes"] = expect.encode(vec)

    return {
        "scan": [
            ("a 3-SW row labelled 2-SW", row(1, verdict="2-SW", k=2)),
            ("a boundary moved by 0.01", lambda r: r["result"]["boundaries"][1].update(
                aStar=r["result"]["boundaries"][1]["aStar"] + 0.01)),
            ("a level-1 value off by 1e-6", lambda r: r["result"]["rows"][0]["productMin"].update(
                {"1": r["result"]["rows"][0]["productMin"]["1"] + 1e-6})),
        ],
        "iso-d3-0": [
            ("k = 2 for a 3-SW operator", lambda r: r["result"].update(k=2)),
            ("a minimum eigenvalue off by 1e-6", shift(["minEigenvalue"], 1e-6)),
            ("a detected state with one amplitude negated",
             lambda r: _negate_first_amplitude(r["result"]["detectedState"])),
        ],
        "rand-2x3-00": [
            ("a minimum eigenvalue off by 1e-6", shift(["minEigenvalue"], 1e-6)),
            ("a level-1 value 1e-3 above the grid minimum",
             lambda r: r["result"]["perLevelProductMin"].update(
                 {"1": r["result"]["perLevelProductMin"]["1"] + 1e-3})),
            ("an entangled detected state for k = 1", rank_two_state),
        ],
        "verify-lemma5": [
            ("a failed suite", lambda r: r["result"].update(**{"pass": False})),
            ("a trial error above tolerance", lambda r: r["result"]["perTrial"].__setitem__(0, 1.0)),
        ],
        "lift-op-k2": [("one lifted entry changed by 1e-6", matrix_entry)],
        "lift-state-r3-k2": [
            ("a lifted state with one amplitude negated",
             lambda r: _negate_first_amplitude(r["result"])),
        ],
        "lower-state-k2": [
            ("a lowered state with one amplitude negated",
             lambda r: _negate_first_amplitude(r["result"])),
        ],
        "lower-psd-d3-k2": [("one lowered entry changed by 1e-6", matrix_entry)],
    }


def _fault_cases(expect, np, job_by_name):
    """Constructed right and wrong outcomes for the two known-fault jobs."""
    Outcome = expect.Outcome
    nan = job_by_name["nan"]
    cases = [
        (nan, "exit 2 with one error line", Outcome(2, "error: matrix has non-finite entries\n", None), True),
        (nan, "exit 1 with a LinAlgError traceback",
         Outcome(1, "Traceback (most recent call last):\nnumpy.linalg.LinAlgError: Eigenvalues did not converge\n", None),
         False),
    ]
    job = job_by_name["lower-not-psd"]
    rho = job.check.keywords["rho"]
    w, v = np.linalg.eigh(rho)
    kept = (v[:, w > 1e-12] * w[w > 1e-12]) @ v[:, w > 1e-12].conj().T
    dims = {"dA": 2, "dB": 2, "kA": 1, "kB": 1}
    for text, matrix, right in (
        ("the linear contraction", expect.lower_operator(rho, 2, 2, 2), True),
        ("the contraction of the PSD part only", expect.lower_operator(kept, 2, 2, 2), False),
    ):
        report = {"result": {"dims": dims, "matrix": expect.encode(matrix)}}
        cases.append((job, text, Outcome(0, "", report), right))
    cases.append((job, "exit 2 with one error line", Outcome(2, "error: operator is not PSD\n", None), True))
    return cases


def main() -> int:
    os.environ.update(THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from snwitness import cli

    import expect
    import jobs as workloads
    from worker import read_output

    workdir = os.path.join(HERE, "out", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)
    job_by_name = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, 0, "inputs", "outputs"):
            job_by_name[job.name] = job

    bad = 0

    def verdict(job, text, outcome, right):
        nonlocal bad
        problems = job.check(outcome)
        ok = not problems if right else bool(problems)
        bad += not ok
        what = "accepted" if not problems else "rejected"
        print(f"{'ok ' if ok else 'BAD'} {job.name}: {text} {what}"
              + ("" if ok or not problems else f" ({problems[0]})"))

    for name, mutations in _mutations(expect, np).items():
        job = job_by_name[name]
        code, err = run_job(cli, job)
        report = json.loads(read_output(job.output))
        verdict(job, "the program's output", expect.Outcome(code, err, report), True)
        for text, mutate in mutations:
            wrong = copy.deepcopy(report)
            mutate(wrong)
            verdict(job, text, expect.Outcome(code, err, wrong), False)
    for job, text, outcome, right in _fault_cases(expect, np, job_by_name):
        verdict(job, text, outcome, right)
    print(f"{'FAILED' if bad else 'passed'}: {bad} checks misjudged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
