"""Independent references and output checks for the benchmark workloads.

Nothing here imports snwitness: every expected value comes from a closed
form, a direct contraction written out here, or a brute-force grid.  Each
``check_*`` function takes an ``Outcome`` of one CLI call plus the inputs the
benchmark generated, and returns a list of problems (empty when the output is
correct).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POSITIVE = "PositiveOperator"
WITNESS = "SchmidtWitness"
EXACT = 1e-9  # closed forms and eigenvalues
LINEAR = 1e-10  # linear contractions of unit-scale vectors
GRID = 1e-4  # see-saw level-1 value against the dense grid


@dataclass
class Outcome:
    """What one in-process ``snwitness.cli.main`` call left behind."""

    code: int
    stderr: str
    report: dict | None


# ---------------------------------------------------------------------------
# independent references


def isotropic(d: int, a: float) -> np.ndarray:
    """S(a) = (I/d^2 - a |phi><phi|) / (1 - a), phi maximally entangled."""
    phi = np.zeros(d * d)
    phi[[i * d + i for i in range(d)]] = 1 / np.sqrt(d)
    return (np.eye(d * d) / d**2 - a * np.outer(phi, phi)) / (1 - a)


def isotropic_min_eig(d: int, a: float) -> float:
    return (1 / d**2 - a) / (1 - a)


def isotropic_level(d: int, a: float, k: int) -> float:
    """Minimum of <psi|S(a)|psi> over unit states of Schmidt rank <= k."""
    return (1 / d**2 - a * k / d) / (1 - a)


def isotropic_k(d: int, a: float) -> int | None:
    """None when S(a) is positive, else the smallest l with a > 1/(d l)."""
    if a <= 1 / d**2:
        return None
    return next(l for l in range(1, d + 1) if a > 1 / (d * l))


def lift_operator(s: np.ndarray, dA: int, dB: int, k: int) -> np.ndarray:
    """sum_{u,v} S (x) |uu><vv| in the index order ((i k + s) dB + j) k + t."""
    s4 = s.reshape(dA, dB, dA, dB)
    out = np.zeros((dA, k, dB, k, dA, k, dB, k), dtype=np.complex128)
    for u in range(k):
        for v in range(k):
            out[:, u, :, u, :, v, :, v] = s4
    n = dA * k * dB * k
    return out.reshape(n, n)


def lower_state(psi: np.ndarray, dA: int, dB: int, k: int) -> np.ndarray:
    """sum_s psi[a, s, b, s]."""
    return np.einsum("asbs->ab", psi.reshape(dA, k, dB, k)).ravel()


def lower_operator(rho: np.ndarray, dA: int, dB: int, k: int) -> np.ndarray:
    """sum_{s,t} rho[(a, s, b, s), (c, t, d, t)]."""
    r8 = rho.reshape(dA, k, dB, k, dA, k, dB, k)
    return np.einsum("asbsctdt->abcd", r8).reshape(dA * dB, dA * dB)


def schmidt_spectrum(psi: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """Eigenvalues of the reduced density matrix on A, descending."""
    m = psi.reshape(dA, dB)
    return np.linalg.eigvalsh(m @ m.conj().T)[::-1]


def rank_at_most(psi: np.ndarray, dA: int, dB: int, k: int) -> bool:
    spectrum = schmidt_spectrum(psi, dA, dB)
    return float(spectrum[k:].sum()) <= 1e-10 * float(spectrum.sum())


def grid_product_min(matrix: np.ndarray, dB: int, refinements: int = 4) -> float:
    """Product minimum for dA = 2 by a dense (theta, phi) grid of the A factor
    with the B factor solved exactly, then local refinement."""
    w4 = matrix.reshape(2, dB, 2, dB)

    def batch(thetas, phis):
        t, p = (x.ravel() for x in np.meshgrid(thetas, phis, indexing="ij"))
        a = np.stack([np.cos(t), np.sin(t) * np.exp(1j * p)], axis=1)
        values = np.linalg.eigvalsh(np.einsum("ni,iajb,nj->nab", a.conj(), w4, a))[:, 0]
        i = int(np.argmin(values))
        return float(values[i]), t[i], p[i]

    thetas = np.linspace(0, np.pi / 2, 61)
    phis = np.linspace(0, 2 * np.pi, 120, endpoint=False)
    value, t0, p0 = batch(thetas, phis)
    dt, dp = thetas[1] - thetas[0], phis[1] - phis[0]
    for _ in range(refinements):
        thetas = np.linspace(t0 - dt, t0 + dt, 21)
        phis = np.linspace(p0 - dp, p0 + dp, 21)
        value, t0, p0 = batch(thetas, phis)
        dt, dp = thetas[1] - thetas[0], phis[1] - phis[0]
    return value


def decode(pairs) -> np.ndarray:
    """Complex array from the program's nested [re, im] pairs."""
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def encode(values: np.ndarray) -> list:
    """Nested [re, im] pairs, the program's JSON form of a vector or matrix."""
    values = np.asarray(values, dtype=np.complex128)
    return np.stack([values.real, values.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# checks


def _result(out: Outcome, problems: list[str]):
    """The report's result after a successful exit; None on failure."""
    if out.code != 0:
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {out.code}, expected 0: {tail[0]}")
        return None
    if out.report is None or "result" not in out.report:
        problems.append("no report written")
        return None
    return out.report["result"]


def _close(problems, what: str, got, want: float, tol: float):
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, expected {want!r} within {tol:g}")


def _levels(
    problems, where: str, levels: dict, k: int | None, floor: float, tol: float
) -> dict[int, float]:
    """Common level rules: no value below min(0, minimum eigenvalue) (a level
    value is <phi|S|phi> for a lowered phi of norm <= 1), every level below k
    at least -tol, level k below -tol."""
    values = {int(l): v for l, v in levels.items()}
    for level, value in sorted(values.items()):
        if value < min(floor, 0.0) - EXACT:
            problems.append(f"{where} level {level} = {value!r} is below the minimum eigenvalue")
        if (k is None or level < k) and value < -tol:
            problems.append(f"{where} level {level} = {value!r} < -tol but k = {k}")
    if k is not None and k in values and not values[k] < -tol:
        problems.append(f"{where} level {k} = {values[k]!r} does not detect")
    return values


def _isotropic_levels(problems, where: str, levels: dict, d: int, a: float, tol: float):
    k = isotropic_k(d, a)
    values = _levels(problems, where, levels, k, isotropic_min_eig(d, a), tol)
    _close(problems, f"{where} level 1", values.get(1), isotropic_level(d, a, 1), EXACT)
    if k is not None and k in values and values[k] < isotropic_level(d, a, k) - EXACT:
        problems.append(f"{where} level {k} = {values[k]!r} is below the rank-{k} minimum")


def _detected_state(problems, state, s: np.ndarray, dA: int, dB: int, k: int, floor, tol):
    """Unit norm, Schmidt rank <= k, <psi|S|psi> in [floor - 1e-9, -tol)."""
    if state is None:
        problems.append("no detected state")
        return None
    if state.get("dims") != {"dA": dA, "dB": dB, "kA": 1, "kB": 1}:
        problems.append(f"detected state dims {state.get('dims')}")
        return None
    psi = decode(state["amplitudes"])
    _close(problems, "detected state norm^2", float(np.vdot(psi, psi).real), 1.0, EXACT)
    if not rank_at_most(psi, dA, dB, k):
        problems.append(f"detected state has Schmidt rank > {k}")
    value = float(np.vdot(psi, s @ psi).real)
    if not floor - EXACT <= value < -tol:
        problems.append(f"detected <psi|S|psi> = {value!r} outside [{floor!r}, {-tol!r})")
    return value


def check_scan(out: Outcome, grid, d: int, tol: float, bisect_tol: float) -> list[str]:
    """Verdict rows against the closed forms; boundaries against 1/d^2 and 1/(d k)."""
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    rows = result["rows"]
    if len(rows) != len(grid):
        return problems + [f"{len(rows)} rows for a grid of {len(grid)}"]
    labels = []
    for row, a in zip(rows, grid):
        where = f"a={a!r}"
        _close(problems, f"{where} a", row["a"], a, 1e-12)
        k = isotropic_k(d, a)
        labels.append(POSITIVE if k is None else f"{k}-SW")
        if row["verdict"] != labels[-1] or row["k"] != k:
            problems.append(f"{where} verdict {row['verdict']} k={row['k']}, expected {labels[-1]}")
        if row["error"] is not None or row["converged"] is not True:
            problems.append(f"{where} error={row['error']!r} converged={row['converged']!r}")
        _close(problems, f"{where} min eigenvalue", row["minEigenvalue"], isotropic_min_eig(d, a), EXACT)
        _isotropic_levels(problems, where, row["productMin"], d, a, tol)
    changes = [i for i in range(len(rows) - 1) if labels[i] != labels[i + 1]]
    boundaries = result["boundaries"]
    if len(boundaries) != len(changes):
        return problems + [f"{len(boundaries)} boundaries, expected {len(changes)}"]
    for b, i in zip(boundaries, changes):
        left, right = labels[i], labels[i + 1]
        if (b["leftVerdict"], b["rightVerdict"]) != (left, right):
            problems.append(f"boundary {b['leftVerdict']}|{b['rightVerdict']}, expected {left}|{right}")
        if (b["aLow"], b["aHigh"]) != (rows[i]["a"], rows[i + 1]["a"]):
            problems.append(f"boundary bracket {b['aLow']}..{b['aHigh']}")
        true = 1 / d**2 if left == POSITIVE else 1 / (d * isotropic_k(d, grid[i + 1]))
        if not 0 < b["width"] <= 2 * bisect_tol * (1 + 1e-9):
            problems.append(f"boundary {left}|{right} width {b['width']!r}")
        if not abs(b["aStar"] - true) <= b["width"]:
            problems.append(f"boundary {left}|{right} at {b['aStar']!r}, true {true!r}, width {b['width']!r}")
    return problems


def check_isotropic_classify(out: Outcome, d: int, a: float, tol: float) -> list[str]:
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    k = isotropic_k(d, a)
    verdict = POSITIVE if k is None else WITNESS
    if result["verdict"] != verdict or result["k"] != k:
        problems.append(f"verdict {result['verdict']} k={result['k']}, expected {verdict} k={k}")
    if result["converged"] is not True:
        problems.append("not converged")
    _close(problems, "min eigenvalue", result["minEigenvalue"], isotropic_min_eig(d, a), EXACT)
    levels = result["perLevelProductMin"]
    if k is not None:
        if sorted(int(l) for l in levels) != list(range(1, k + 1)):
            problems.append(f"levels {sorted(levels)}, expected 1..{k}")
        _isotropic_levels(problems, f"d={d}", levels, d, a, tol)
        _detected_state(
            problems, result["detectedState"], isotropic(d, a), d, d, k,
            isotropic_level(d, a, k), tol,
        )
    return problems


def check_random_classify(out: Outcome, matrix: np.ndarray, dA: int, dB: int, tol: float) -> list[str]:
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    _close(problems, "min eigenvalue", result["minEigenvalue"], min_eig, EXACT)
    if result["converged"] is not True:
        problems.append("not converged")
    k = result["k"]
    if min_eig >= -tol:
        if result["verdict"] != POSITIVE or k is not None:
            problems.append(f"verdict {result['verdict']} for a positive operator")
        return problems
    if result["verdict"] != WITNESS or not isinstance(k, int) or not 1 <= k <= min(dA, dB):
        return problems + [f"verdict {result['verdict']} k={k!r} for min eigenvalue {min_eig!r}"]
    levels = _levels(problems, "", result["perLevelProductMin"], k, min_eig, tol)
    if sorted(levels) != list(range(1, k + 1)):
        problems.append(f"levels {sorted(levels)}, expected 1..{k}")
    value = _detected_state(problems, result["detectedState"], matrix, dA, dB, k, min_eig, tol)
    if k == 1 and value is not None:
        _close(problems, "detected product expectation", value, levels.get(1), EXACT)
    if dA == 2 and 1 in levels:
        _close(problems, "level 1 against the grid", levels[1], grid_product_min(matrix, dB), GRID)
    return problems


def check_input_rejected(out: Outcome) -> list[str]:
    """Malformed input: exit 2 with a one-line error and no traceback."""
    lines = out.stderr.strip().splitlines()
    if out.code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
        tail = lines[-1] if lines else ""
        return [f"exit code {out.code} with {len(lines)} stderr lines ({tail}); expected exit 2 and one error line"]
    return []


def check_suite(out: Outcome, suite: str, trials: int) -> list[str]:
    """The suite passed; the trace suite records two errors per trial (the
    lifted and the lowered pairing) and counts each as a trial."""
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    per_trial = result["perTrial"]
    entries = 2 * trials if suite == "trace" else trials
    if result["suite"] != suite or result["trials"] != entries or len(per_trial) != entries:
        problems.append(f"suite {result['suite']} with {result['trials']} trials")
    if result["pass"] is not True or not result["maxError"] < result["tolerance"]:
        problems.append(f"suite {suite} failed: max error {result['maxError']!r}")
    if per_trial and max(per_trial) != result["maxError"]:
        problems.append(f"suite {suite} max error is not the largest trial error")
    return problems


def _payload(problems, result, dims: dict, field: str):
    if result.get("dims") != dims:
        problems.append(f"dims {result.get('dims')}, expected {dims}")
        return None
    return decode(result[field])


def check_lift_state(out: Outcome, psi, dA: int, dB: int, k: int, rank: int, s) -> list[str]:
    """Contracting the ancillas gives psi back; the lift has at most
    ceil(rank/k) product terms; <lift psi|lift S|lift psi> = <psi|S|psi>."""
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    lifted = _payload(problems, result, {"dA": dA, "dB": dB, "kA": k, "kB": k}, "amplitudes")
    if lifted is None:
        return problems
    if not np.abs(lower_state(lifted, dA, dB, k) - psi).max() <= LINEAR:
        problems.append("contracting the lifted state does not give the input")
    if not rank_at_most(lifted, dA * k, dB * k, -(-rank // k)):
        problems.append(f"lifted state has more than ceil({rank}/{k}) product terms")
    lhs = np.vdot(lifted, lift_operator(s, dA, dB, k) @ lifted)
    _close(problems, "lifted expectation", float(abs(lhs - np.vdot(psi, s @ psi))), 0.0, EXACT)
    return problems


def check_lift_operator(out: Outcome, s, dA: int, dB: int, k: int) -> list[str]:
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    lifted = _payload(problems, result, {"dA": dA, "dB": dB, "kA": k, "kB": k}, "matrix")
    if lifted is not None and not np.abs(lifted - lift_operator(s, dA, dB, k)).max() <= 1e-12:
        problems.append("lifted operator differs from sum_{s,t} S (x) |ss><tt|")
    return problems


def check_lower_state(out: Outcome, psi, dA: int, dB: int, k: int) -> list[str]:
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    lowered = _payload(problems, result, {"dA": dA, "dB": dB, "kA": 1, "kB": 1}, "amplitudes")
    if lowered is not None and not np.abs(lowered - lower_state(psi, dA, dB, k)).max() <= LINEAR:
        problems.append("lowered state differs from sum_s psi[a,s,b,s]")
    return problems


def check_lower_operator(out: Outcome, rho, dA: int, dB: int, k: int, may_reject: bool) -> list[str]:
    """The linear contraction; an operator that is not PSD may instead be
    rejected as malformed input."""
    if may_reject and out.code == 2:
        return check_input_rejected(out)
    problems: list[str] = []
    result = _result(out, problems)
    if result is None:
        return problems
    lowered = _payload(problems, result, {"dA": dA, "dB": dB, "kA": 1, "kB": 1}, "matrix")
    if lowered is not None:
        error = float(np.abs(lowered - lower_operator(rho, dA, dB, k)).max())
        if not error <= EXACT:
            problems.append(f"lowered operator differs from the linear contraction by {error:.3g}")
    return problems
