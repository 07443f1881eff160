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
    _level_minimum,
    _Spectra,
    classify_schmidt_witness,
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
    """A bisected verdict boundary between two adjacent scan points."""

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
    With ``bisect`` set, every verdict change between adjacent rows is
    located to within ``bisect_tol`` by bisecting the sign of the level
    minimum that governs that boundary (see ``_boundary``).  A row whose
    classification fails with a package or linear-algebra error is marked
    and the scan continues; pairs next to it are not bisected.
    """
    if d < 2:
        raise ParameterError(f"local dimension must be >= 2, got {d}")
    if max_k is not None and (not _is_int(max_k) or not 1 <= max_k <= d):
        raise ParameterError(f"max_k must be in [1, {d}], got {max_k}")
    if not bisect_tol > 0:
        raise ParameterError(f"bisect_tol must be > 0, got {bisect_tol}")

    rows = []
    for a in sorted(float(x) for x in a_values):
        try:
            s = make_isotropic_witness(a, d)
            cls = classify_schmidt_witness(s, max_k, config)
            product_min = dict(cls.per_level_product_min)
            converged = cls.converged
            spectra = _Spectra(s)  # one record for the row's fill-ins
            for level in sorted(set(SCAN_LEVELS) - product_min.keys()):
                fill = _level_minimum(spectra, level, config)
                product_min[level] = fill.value
                converged = converged and fill.converged
            rows.append(
                ScanRow(
                    a=a,
                    verdict=_verdict_label(cls),
                    k=cls.k,
                    min_eigenvalue=cls.min_eigenvalue,
                    product_min=dict(sorted(product_min.items())),
                    restarts=config.restarts,
                    converged=converged,
                )
            )
        except (SnWitnessError, np.linalg.LinAlgError) as exc:  # record, keep scanning
            rows.append(
                ScanRow(
                    a=a,
                    verdict="failed",
                    k=None,
                    min_eigenvalue=float("nan"),
                    product_min={},
                    restarts=config.restarts,
                    converged=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

    boundaries = []
    if bisect:
        for left, right in zip(rows, rows[1:]):
            if left.error or right.error or left.verdict == right.verdict:
                continue
            boundaries.append(_boundary(d, left, right, config, bisect_tol))
    return ScanResult(tuple(rows), tuple(boundaries))


def _boundary(d: int, left: ScanRow, right: ScanRow, config, bisect_tol: float) -> Boundary:
    """Bisect the verdict change between two adjacent rows on the sign of the
    governing level's minimum: level d (the smallest eigenvalue) next to a
    positive verdict, else the lower witness order; a ">M-SW" row (k None)
    is of order M + 1 or more, so the other row's order k <= M is the lower.
    The rows hold those minima (level d as ``min_eigenvalue`` when unlisted),
    so the end verdicts are read, not recomputed.  Halving stops once the
    bracket is at most 2 * bisect_tol wide or its ends are adjacent floats;
    unless the level is non-negative at the left row and negative at the
    right, the whole bracket is returned."""
    tol = config.positivity_tol
    orders = [row.k for row in (left, right) if row.k is not None]
    level = d if POSITIVE in (left.verdict, right.verdict) else min(orders)
    ends = [row.product_min.get(level, row.min_eigenvalue) >= -tol for row in (left, right)]
    lo, hi = left.a, right.a
    if ends == [True, False]:
        while hi - lo > 2 * bisect_tol and lo < (mid := 0.5 * (lo + hi)) < hi:
            found = _level_minimum(_Spectra(make_isotropic_witness(mid, d)), level, config)
            lo, hi = (mid, hi) if found.value >= -tol else (lo, mid)
    return Boundary(left.verdict, right.verdict, left.a, right.a, 0.5 * (lo + hi), hi - lo)
