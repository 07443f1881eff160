"""Operator and state families: the isotropic witness family, maximally
entangled states, seeded random operators, and the threshold scanner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SnWitnessError
from .hilbert import Dims, Operator, PureState, _is_int
from .witness import (
    POSITIVE,
    OptimizerConfig,
    WitnessClassification,
    _classify,
    _level_minimum,
    _ratio_min,
    _Spectra,
)


def make_isotropic_witness(a: float, d: int) -> Operator:
    """Trace-one family (1/(1-a)) (id/d^2 - a P) with P the maximally
    entangled projector; positive for small a, a witness beyond."""
    if not 0 <= a < 1:
        raise ParameterError(f"parameter a must lie in [0, 1), got {a}")
    phi = maximally_entangled_state(d).amplitudes
    matrix = (np.eye(d * d) / d**2 - a * np.outer(phi, phi.conj())) / (1 - a)
    return Operator(Dims(d, d), matrix)


def maximally_entangled_state(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ParameterError(f"local dimension must be >= 2, got {d}")
    vec = np.eye(d, dtype=np.complex128).ravel() / np.sqrt(d)
    return PureState(Dims(d, d), vec)


def random_hermitian(dims: Dims, seed) -> Operator:
    """Random Hermitian operator from a seeded symmetric ensemble, trace 1.
    One row of ``_random_hermitians``."""
    return Operator(dims, _random_hermitians(dims, [seed])[0])


def _random_hermitians(dims: Dims, seeds) -> np.ndarray:
    """Matrices (r, n, n) of ``random_hermitian(dims, seed)`` for each seed,
    symmetrized and scaled in place over the stack."""
    n = dims.total
    matrix = np.empty((len(seeds), n, n), dtype=np.complex128)
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        matrix[row] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    matrix += matrix.conj().swapaxes(1, 2)
    matrix /= 2
    matrix /= np.trace(matrix, axis1=1, axis2=2).real[:, None, None]
    return matrix


SCAN_LEVELS = (1, 2)  # levels filled into every scan row: the CSV's prodmin_l* columns


@dataclass(frozen=True)
class ScanRow:
    """One classified point of a family scan."""

    a: float
    verdict: str
    k: int | None
    min_eigenvalue: float
    product_min: dict[int, float]
    restarts: int
    converged: bool
    error: str | None = None


@dataclass(frozen=True)
class Boundary:
    """A verdict boundary between adjacent scan points: the governing level's
    threshold ``a_star`` and the ``width`` of a bracket about it whose ends
    carry the two verdicts (the rows', about their midpoint, if none is found)."""

    left_verdict: str
    right_verdict: str
    a_low: float
    a_high: float
    a_star: float
    width: float


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    boundaries: tuple[Boundary, ...] = ()


def _verdict_label(classification: WitnessClassification) -> str:
    if classification.verdict == POSITIVE:
        return POSITIVE
    if classification.k is None:  # undetected up to max_k, the last level run
        return f">{max(classification.per_level_product_min)}-SW"
    return f"{classification.k}-SW"


def threshold_scan(
    a_values,
    d: int,
    config: OptimizerConfig,
    max_k: int | None = None,
    bisect: bool = False,
    bisect_tol: float = 5e-3,
) -> ScanResult:
    """Classify the isotropic family on a parameter grid.

    Each row records the verdict plus the product minima at the ancilla
    levels SCAN_LEVELS (computed even when classification stopped earlier);
    it is converged only if the classification and every such fill-in are.
    One spectral record per row serves all three.  With ``bisect`` set,
    every verdict change between adjacent rows is located as the threshold
    of the level that governs it, in a bracket of half-width ``bisect_tol``
    (see ``_boundary``).  A row whose classification fails with a package or
    linear-algebra error is marked and the scan continues; pairs next to it
    get no boundary.
    """
    if d < 2:
        raise ParameterError(f"local dimension must be >= 2, got {d}")
    if max_k is not None and (not _is_int(max_k) or not 1 <= max_k <= d):
        raise ParameterError(f"max_k must be in [1, {d}], got {max_k}")
    if not bisect_tol > 0:
        raise ParameterError(f"bisect_tol must be > 0, got {bisect_tol}")

    scanned = []  # (row, its operator's record)
    for a in sorted(float(x) for x in a_values):
        spectra = None
        try:
            spectra = _Spectra(make_isotropic_witness(a, d))
            cls = _classify(spectra, d if max_k is None else max_k, config)
            product_min = dict(cls.per_level_product_min)
            converged = cls.converged
            for level in sorted(set(SCAN_LEVELS) - product_min.keys()):
                fill = _level_minimum(spectra, level, config)
                product_min[level] = fill.value
                converged = converged and fill.converged
            product_min = dict(sorted(product_min.items()))
            row = ScanRow(a, _verdict_label(cls), cls.k, cls.min_eigenvalue, product_min,
                          config.restarts, converged)
        except (SnWitnessError, np.linalg.LinAlgError) as exc:  # record, keep scanning
            error = f"{type(exc).__name__}: {exc}"
            row = ScanRow(a, "failed", None, float("nan"), {}, config.restarts, False, error)
        scanned.append((row, spectra))

    boundaries = []
    if bisect:
        for (left, _), (right, spectra) in zip(scanned, scanned[1:]):
            if left.error or right.error or left.verdict == right.verdict:
                continue
            boundaries.append(_boundary(d, left, right, spectra, config, bisect_tol))
    return ScanResult(tuple(row for row, _ in scanned), tuple(boundaries))


def _boundary(d, left: ScanRow, right: ScanRow, spectra, config, bisect_tol: float) -> Boundary:
    """The verdict change between two adjacent rows, at the threshold of the
    governing level l: d (the smallest eigenvalue) next to a positive verdict,
    else the lower order (a ">M-SW" row's exceeds the other's k <= M).  The
    rows hold both end verdicts (level d as ``min_eigenvalue`` if unlisted).

    With tau = positivity_tol, level l of (I/d^2 - a P)/(1 - a) is >= -tau
    exactly where a <= min <psi|(1/d^2 + tau) I|psi> / <psi|P + tau I|psi>
    over Schmidt rank <= l, which ``_ratio_min`` finds from the right row's
    level-l minimizer, read from its record ``spectra``.  The bracket a_star
    -+ h, its ends rounded inward and clamped to the rows (whose verdicts are
    known), starts at h = max(bisect_tol, spacing(a_star)); h doubles until
    level l holds at its left end and detects at its right end.  Without a
    sign change between the rows, or with a_star outside them, the bracket is
    the rows' and a_star their midpoint."""
    tol = config.positivity_tol
    orders = [row.k for row in (left, right) if row.k is not None]
    level = d if POSITIVE in (left.verdict, right.verdict) else min(orders)
    ends = [row.product_min.get(level, row.min_eigenvalue) >= -tol for row in (left, right)]
    lo, hi = left.a, right.a

    def holds(a: float) -> bool:
        return _level_minimum(_Spectra(make_isotropic_witness(a, d)), level, config).value >= -tol

    if ends == [True, False]:
        psi = _level_minimum(spectra, level, config).minimizer.amplitudes
        phi = maximally_entangled_state(d).amplitudes
        num, den = (_Spectra(Operator(Dims(d, d), m + tol * np.eye(d * d)))
                    for m in (np.eye(d * d) / d**2, np.outer(phi, phi.conj())))
        a_star = _ratio_min(num, den, level, config, psi)
        h = max(bisect_tol, float(np.spacing(a_star)))
        while lo <= a_star <= hi:
            low, high = a_star - h, a_star + h
            low = max(float(np.nextafter(low, a_star)) if a_star - low > h else low, lo)
            high = min(float(np.nextafter(high, a_star)) if high - a_star > h else high, hi)
            if (low == lo or holds(low)) and (high == hi or not holds(high)):
                return Boundary(left.verdict, right.verdict, lo, hi, a_star, high - low)
            h *= 2
    return Boundary(left.verdict, right.verdict, lo, hi, 0.5 * (lo + hi), hi - lo)
