"""Operator and state families: the isotropic witness family, maximally
entangled states, seeded random operators, and the threshold scanner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SnWitnessError
from .hilbert import Dims, Operator, PureState, min_eigenpair
from .witness import (
    POSITIVE,
    OptimizerConfig,
    WitnessClassification,
    _level_minimum,
    classify_schmidt_witness,
)


@dataclass(frozen=True)
class IsotropicWitnessSpec:
    """Parameters of the one-parameter isotropic witness family."""

    a: float
    d: int = 3

    def __post_init__(self):
        if not 0 <= self.a < 1:
            raise ParameterError(f"parameter a must lie in [0, 1), got {self.a}")
        if self.d < 2:
            raise ParameterError(f"local dimension must be >= 2, got {self.d}")


def make_isotropic_witness(spec: IsotropicWitnessSpec) -> Operator:
    """Trace-one family (1/(1-a)) (id/d^2 - a P) with P the maximally
    entangled projector; positive for small a, a witness beyond."""
    d = spec.d
    phi = maximally_entangled_state(d).amplitudes
    matrix = (np.eye(d * d) / d**2 - spec.a * np.outer(phi, phi.conj())) / (1 - spec.a)
    return Operator(Dims(d, d), matrix, hermitian=True)


def maximally_entangled_state(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ParameterError(f"local dimension must be >= 2, got {d}")
    vec = np.eye(d, dtype=np.complex128).ravel() / np.sqrt(d)
    return PureState(Dims(d, d), vec, normalized=True)


def random_hermitian(dims: Dims, seed) -> Operator:
    """Random Hermitian operator from a seeded symmetric ensemble, trace 1."""
    rng = np.random.default_rng(seed)
    n = dims.total
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    matrix = (g + g.conj().T) / 2
    matrix = matrix / np.trace(matrix).real
    return Operator(dims, matrix, hermitian=True)


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
    return f"{classification.k}-SW"


def threshold_scan(
    a_values,
    d: int = 3,
    config: OptimizerConfig = OptimizerConfig(),
    levels: tuple[int, ...] = (1, 2),
    max_k: int | None = None,
    bisect: bool = False,
    bisect_tol: float = 5e-3,
) -> ScanResult:
    """Classify the isotropic family on a parameter grid.

    Each row records the verdict plus the product minima at the requested
    ancilla ``levels`` (computed even when classification stopped earlier).
    With ``bisect`` set, every verdict change between adjacent rows is
    located to within ``bisect_tol`` by bisecting the sign of the quantity
    that governs that boundary (the smallest eigenvalue against a positive
    verdict, the product minimum at the detecting level otherwise).  A row
    whose classification fails with a package or linear-algebra error is
    marked and the scan continues.
    """
    if not bisect_tol > 0:
        raise ParameterError(f"bisect_tol must be > 0, got {bisect_tol}")

    def family(a: float) -> Operator:
        return make_isotropic_witness(IsotropicWitnessSpec(a, d))

    rows = []
    classifications: dict[float, WitnessClassification | None] = {}
    for a in sorted(float(x) for x in a_values):
        try:
            cls = classify_schmidt_witness(family(a), max_k, config)
            product_min = dict(cls.per_level_product_min)
            for level in levels:
                if level not in product_min:
                    product_min[level] = _level_minimum(family(a), level, config)[0]
            rows.append(
                ScanRow(
                    a=a,
                    verdict=_verdict_label(cls),
                    k=cls.k,
                    min_eigenvalue=cls.min_eigenvalue,
                    product_min=dict(sorted(product_min.items())),
                    restarts=config.restarts,
                    converged=cls.converged,
                )
            )
            classifications[a] = cls
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
            classifications[a] = None

    boundaries = []
    if bisect:
        for left, right in zip(rows, rows[1:]):
            cls_left = classifications[left.a]
            cls_right = classifications[right.a]
            if cls_left is None or cls_right is None:
                continue
            if left.verdict == right.verdict:
                continue
            predicate = _boundary_predicate(family, cls_left, cls_right, config)
            a_star, width = _bisect_predicate(predicate, left.a, right.a, bisect_tol)
            boundaries.append(
                Boundary(left.verdict, right.verdict, left.a, right.a, a_star, width)
            )
    return ScanResult(tuple(rows), tuple(boundaries))


def _boundary_predicate(family, cls_left, cls_right, config):
    """Predicate that is True on the left verdict's side of the boundary."""
    tol = config.positivity_tol
    if cls_left.verdict == POSITIVE or cls_right.verdict == POSITIVE:

        def predicate(a: float) -> bool:
            return min_eigenpair(family(a))[0] >= -tol

    else:
        # as a grows the witness order drops; the boundary is where the
        # product minimum at the lower order's level changes sign
        level = min(cls_left.k, cls_right.k)

        def predicate(a: float) -> bool:
            return _level_minimum(family(a), level, config)[0] >= -tol

    return predicate


MAX_HALVINGS = 200  # bounds the loop once the bracket stops shrinking in floats


def _bisect_predicate(predicate, lo: float, hi: float, tol: float):
    """Bisect a boolean predicate assumed True at lo and False at hi."""
    if not predicate(lo) or predicate(hi):
        return 0.5 * (lo + hi), hi - lo  # no clean sign change on the bracket
    for _ in range(MAX_HALVINGS):
        if hi - lo <= 2 * tol:
            break
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo
