"""Workload job lists: the CLI calls each workload makes and their inputs.

``build(workload, seed, inputs, out)`` writes the workload's input files
under ``inputs`` and returns its fixed job list.  Every input, including the
``--seed`` handed to the program, is drawn from ``seed``; the two inputs that
exercise known faults are fixed and do not depend on it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import expect

WORKLOADS = ("scan-bisect", "classify-ladder", "classify-random", "embed-verify")
TOL = 1e-7  # the CLI's default positivity tolerance

# the golden scan_thresholds command (tests/golden/README.md), minus its seed
SCAN_GRID = (0.05, 0.2, 3)
SCAN_DIM = 3
SCAN_BISECT_TOL = 0.002
LADDER_DIMS = (3, 4, 5)
LADDER_POINTS = 2  # stratified family parameters per dimension
RANDOM_SHAPES = ((2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 4))
RANDOM_PER_SHAPE = 20
RANDOM_RESTARTS = 16
EMBED_DIM = 4
SUITE_TRIALS = {"identities": 300, "roundtrip": 300, "trace": 200, "lemma5": 300}


@dataclass
class Job:
    name: str
    argv: list[str]
    output: str
    check: Callable[[expect.Outcome], list[str]]
    fault: str | None = None  # a known program fault this job keeps exercising


def build(workload: str, seed: int, inputs: str, out: str) -> list[Job]:
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, inputs, out)


def _program_seed(rng) -> str:
    return str(int(rng.integers(1, 2**31 - 1)))


def _write(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _operator_file(path, matrix, dA, dB, k=1) -> str:
    dims = {"dA": dA, "dB": dB, "kA": k, "kB": k}
    return _write(path, {"dims": dims, "matrix": expect.encode(matrix)})


def _state_file(path, vector, dA, dB, k=1) -> str:
    dims = {"dA": dA, "dB": dB, "kA": k, "kB": k}
    return _write(path, {"dims": dims, "amplitudes": expect.encode(vector)})


def _gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _trace_one_hermitian(rng, n: int) -> np.ndarray:
    """I/n plus a traceless Hermitian part of unit Frobenius norm."""
    g = _gaussian(rng, n, n)
    h = (g + g.conj().T) / 2
    h -= np.trace(h).real / n * np.eye(n)
    m = np.eye(n) / n + h / np.linalg.norm(h)
    return (m + m.conj().T) / 2


def _rank_r_state(rng, dA: int, dB: int, rank: int) -> np.ndarray:
    coef = rng.uniform(0.3, 1.0, rank)
    return _unit((_gaussian(rng, dA, rank) * coef) @ _gaussian(rng, dB, rank).T).ravel()


def _job(name, argv, out, check, fault=None) -> Job:
    output = os.path.join(out, f"{name}.json")
    return Job(name, argv + ["--output", output], output, check, fault)


def _scan_bisect(rng, inputs, out) -> list[Job]:
    lo, hi, steps = SCAN_GRID
    argv = [
        "scan", "--a-from", repr(lo), "--a-to", repr(hi), "--steps", str(steps),
        "--dim", str(SCAN_DIM), "--seed", _program_seed(rng), "--restarts", "64",
        "--bisect", "--bisect-tol", repr(SCAN_BISECT_TOL), "--format", "json",
    ]
    check = partial(
        expect.check_scan, grid=list(np.linspace(lo, hi, steps)), d=SCAN_DIM,
        tol=TOL, bisect_tol=SCAN_BISECT_TOL,
    )
    return [_job("scan", argv, out, check)]


def _classify_ladder(rng, inputs, out) -> list[Job]:
    """a inside (1/d^2, 1/(d(d-1))], so every level 1..d runs.

    The points are stratified over 40-70 % of that interval, one per
    stratum at a seed-drawn offset, where the cost varies least with a."""
    jobs = []
    for d in LADDER_DIMS:
        lo, hi = 1 / d**2, 1 / (d * (d - 1))
        u = rng.uniform()
        for j in range(LADDER_POINTS):
            a = lo + (hi - lo) * (0.4 + 0.3 * (j + u) / LADDER_POINTS)
            argv = [
                "classify", "--family", "isotropic", "--a", repr(a), "--dim", str(d),
                "--seed", _program_seed(rng),
            ]
            check = partial(expect.check_isotropic_classify, d=d, a=a, tol=TOL)
            jobs.append(_job(f"iso-d{d}-{j}", argv, out, check))
    return jobs


def _classify_random(rng, inputs, out) -> list[Job]:
    jobs = []
    for dA, dB in RANDOM_SHAPES:
        for i in range(RANDOM_PER_SHAPE):
            name = f"rand-{dA}x{dB}-{i:02d}"
            matrix = _trace_one_hermitian(rng, dA * dB)
            path = _operator_file(os.path.join(inputs, f"{name}.json"), matrix, dA, dB)
            argv = [
                "classify", "--input", path, "--seed", _program_seed(rng),
                "--restarts", str(RANDOM_RESTARTS),
            ]
            check = partial(expect.check_random_classify, matrix=matrix, dA=dA, dB=dB, tol=TOL)
            jobs.append(_job(name, argv, out, check))
    # fixed input: a trace-one operator with a NaN entry
    matrix = expect.encode(np.eye(9) / 9)
    matrix[1][2][0] = matrix[2][1][0] = float("nan")
    path = _write(os.path.join(inputs, "nan.json"), {"dims": {"dA": 3, "dB": 3}, "matrix": matrix})
    jobs.append(
        _job(
            "nan", ["classify", "--input", path, "--restarts", str(RANDOM_RESTARTS)],
            out, expect.check_input_rejected,
            fault="a NaN entry escapes as LinAlgError from hilbert.min_eigenpair (exit 1)",
        )
    )
    return jobs


def _embed_verify(rng, inputs, out) -> list[Job]:
    d = EMBED_DIM
    jobs = []
    for suite, trials in SUITE_TRIALS.items():
        argv = [
            "verify", "--suite", suite, "--dim", str(d), "--trials", str(trials),
            "--seed", _program_seed(rng),
        ]
        jobs.append(_job(f"verify-{suite}", argv, out, partial(expect.check_suite, suite=suite, trials=trials)))

    s = _trace_one_hermitian(rng, d * d)
    path = _operator_file(os.path.join(inputs, "op.json"), s, d, d)
    for k in (2, 3, 4):
        check = partial(expect.check_lift_operator, s=s, dA=d, dB=d, k=k)
        jobs.append(_job(f"lift-op-k{k}", ["lift", "--input", path, "--k", str(k)], out, check))
    for rank, k in ((1, 2), (2, 2), (3, 2), (4, 3)):
        psi = _rank_r_state(rng, d, d, rank)
        path = _state_file(os.path.join(inputs, f"state-r{rank}.json"), psi, d, d)
        check = partial(expect.check_lift_state, psi=psi, dA=d, dB=d, k=k, rank=rank, s=s)
        jobs.append(_job(f"lift-state-r{rank}-k{k}", ["lift", "--input", path, "--k", str(k)], out, check))
    for k in (2, 3):
        psi = _unit(_gaussian(rng, d * d * k * k))
        path = _state_file(os.path.join(inputs, f"big-state-k{k}.json"), psi, d, d, k)
        check = partial(expect.check_lower_state, psi=psi, dA=d, dB=d, k=k)
        jobs.append(_job(f"lower-state-k{k}", ["lower", "--input", path, "--k", str(k)], out, check))
    for dl, k in ((3, 2), (4, 2), (3, 3)):
        n = dl * dl * k * k
        g = _gaussian(rng, n, n)
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
        path = _operator_file(os.path.join(inputs, f"psd-d{dl}-k{k}.json"), rho, dl, dl, k)
        check = partial(expect.check_lower_operator, rho=rho, dA=dl, dB=dl, k=k, may_reject=False)
        jobs.append(_job(f"lower-psd-d{dl}-k{k}", ["lower", "--input", path, "--k", str(k)], out, check))
    # fixed input: a Hermitian operator with negative eigenvalues, 2x2 with k = 2
    g = _gaussian(np.random.default_rng(20040118), 16, 16)
    h = (g + g.conj().T) / 2
    h /= np.linalg.norm(h)
    path = _operator_file(os.path.join(inputs, "not-psd.json"), h, 2, 2, 2)
    check = partial(expect.check_lower_operator, rho=h, dA=2, dB=2, k=2, may_reject=True)
    jobs.append(
        _job(
            "lower-not-psd", ["lower", "--input", path, "--k", "2"], out, check,
            fault="cli.cmd_lower drops negative eigenvalues, so the result is not the contraction",
        )
    )
    return jobs


_BUILDERS = {
    "scan-bisect": _scan_bisect,
    "classify-ladder": _classify_ladder,
    "classify-random": _classify_random,
    "embed-verify": _embed_verify,
}
