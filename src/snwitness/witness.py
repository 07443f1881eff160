"""Witness predicates, product-state see-saw minimization, Schmidt-number
classification, subtraction-based refinement and optimality certificates.

The central primitive is ``min_product_expectation``: the infimum of
<A,B|W|A,B> over unit product states, or over unit states
psi = sum_s A[:,s] (x) B[:,s] of Schmidt rank <= k (the product states of
the lifted operator, measured against the lift of the identity).  Fixing
one factor, with orthonormal columns for k > 1, turns the problem into an
exact eigenproblem for the other, whose operator is contracted straight
from the (dA, dB, dA, dB) tensor of W, so the optimizer alternates exact
half-steps over all restarts at once; the per-iteration value is
non-increasing.  The optimizer yields an upper bound on the true infimum,
so a "non-negative" verdict it gives is one-sided: it carries the restart
count as evidence and is validated against brute force at small dimensions
(see ``checks``).  The partial transpose gives a lower bound on every
Schmidt level (``_level_bound``); a level that bound puts at or above
-positivity_tol is certified without the optimizer, and reports the bound.
Below -positivity_tol the lowest eigenvector cut to the level's Schmidt rank
gives an upper bound; where it meets the lower bound up to rounding, the
level is solved exactly, again without the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParameterError, PreconditionError
from .hilbert import (
    Operator,
    PureState,
    _conditional,
    _is_int,
    normalize,
    partial_transpose,
    trace_pair,
)

POSITIVE = "PositiveOperator"
SCHMIDT_WITNESS = "SchmidtWitness"

MAX_ITERS = 500  # see-saw iterations per restart
CONVERGENCE_TOL = 1e-10  # a restart stops once its A half-step gains less than this
ZERO_TOL = 1e-6  # optimality_certificate keeps product states with |value| <= ZERO_TOL
DETECTION_TOL = 1e-9  # detects: Tr(W rho) < -DETECTION_TOL, rho PSD to within it
FINER_TOL = 1e-9  # finer_certificate accepts Z whose smallest eigenvalue is >= -FINER_TOL


@dataclass(frozen=True)
class OptimizerConfig:
    """Seeded optimizer settings shared by all restart-based searches."""

    seed: int = 0
    restarts: int = 64
    positivity_tol: float = 1e-7

    def __post_init__(self):
        seed, restarts = self.seed, self.restarts
        if not _is_int(seed) or seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
        if not _is_int(restarts) or restarts < 1:
            raise ParameterError(f"restarts must be an integer >= 1, got {restarts!r}")
        tol = self.positivity_tol
        if not 0 <= tol < np.inf:
            raise ParameterError(f"positivity_tol must be finite and >= 0, got {tol}")

    def to_json(self) -> dict:
        """The settings and the module constants the see-saw runs with."""
        return {
            "seed": self.seed,
            "restarts": self.restarts,
            "maxIters": MAX_ITERS,
            "convergenceTol": CONVERGENCE_TOL,
            "positivityTol": self.positivity_tol,
            "zeroTol": ZERO_TOL,
        }


class SeesawRun(NamedTuple):
    """One ``_seesaw`` run.  Per restart: final ``values``, factors ``a`` and
    ``b`` (A B^T is a unit state: A of unit norm, B too for k = 1, else with
    orthonormal columns) and ``converged`` flags.  Per iteration, a
    ``history`` row: (R, 2) half-step values, NaN for stopped restarts."""

    values: np.ndarray
    a: np.ndarray
    b: np.ndarray
    converged: np.ndarray
    history: list

    def state(self, r: int) -> np.ndarray:
        """Restart r's unit state sum_s A[:,s] (x) B[:,s], flattened: A B^T."""
        return (self.a[r] @ self.b[r].T).ravel()


@dataclass(frozen=True)
class ProductMinResult:
    """Minimum of <psi|W|psi> over unit psi of Schmidt rank <= k (product
    states for k = 1): its ``value``, a unit ``minimizer`` on W's own dims
    (None for a certified bound), ``converged`` (the best restart's own stop
    flag, True for other sources) and its ``source``: "spectrum" (exact),
    "bound" (a lower bound at or above -positivity_tol), "exact" (a state
    whose value meets the lower bound up to rounding) or "seesaw" (the best
    restart of ``run``, an upper bound).  ``run`` is None for all sources but
    "seesaw".  A classification's or scan row's ``converged`` ANDs its levels'."""

    value: float
    minimizer: PureState | None
    converged: bool
    source: str
    run: SeesawRun | None = field(default=None, repr=False, compare=False)

    @property
    def trace(self) -> tuple[float, ...]:
        """Every restart's final value in the see-saw ``run``."""
        return tuple(float(v) for v in self.run.values)


@dataclass(frozen=True)
class WitnessCheck:
    """Entanglement-witness verdict with the evidence that produced it."""

    is_witness: bool
    min_eigenvalue: float
    product_min: ProductMinResult
    detected: PureState | None


@dataclass(frozen=True)
class WitnessClassification:
    """Schmidt-number classification of a Hermitian operator.

    ``verdict`` is POSITIVE or SCHMIDT_WITNESS.  For a witness, ``k`` is the
    lowest Schmidt class it detects: the per-level product minima stay above
    -tol for every ancilla level l <= k-1 and dip below -tol at level k.
    k = 1 means the operator is negative already on a product state, i.e. it
    is not a valid witness of any Schmidt class.  Level l holds the minimum
    of <psi|S|psi> over unit states of Schmidt rank <= l: below min(dA, dB)
    the partial-transpose lower bound where that bound is at least -tol,
    else the value of a state that meets that bound up to rounding (the
    lowest eigenvector cut to l Schmidt terms) where there is one, else the
    rank-l see-saw minimum; level min(dA, dB) holds
    ``min_eigenvalue``, since every state has Schmidt rank at most
    min(dA, dB).  The levels are non-increasing in l only where every level
    comes from one source: a bound can sit below a later see-saw level.  A
    witness that no level up to a ``max_k`` below min(dA, dB) detects has
    ``k`` None: its order exceeds ``max_k``, which is all the ladder shows.
    """

    verdict: str
    k: int | None
    min_eigenvalue: float
    per_level_product_min: dict[int, float]
    detected_state: PureState | None
    converged: bool = True


@dataclass(frozen=True)
class SubtractionResult:
    """Largest subtraction weight along a fixed direction, both formulations."""

    lambda0: float
    formula_sup_inv: float
    refined: Operator | None


@dataclass(frozen=True)
class FinerCertificate:
    """Certificate (or refutation) that one witness is finer than another."""

    found: bool
    epsilon: float
    min_eigenvalue: float
    z: Operator | None
    evidence: tuple[tuple[float, float], ...] = field(repr=False, default=())


def _starts(config: OptimizerConfig, n: int) -> np.ndarray:
    """One seeded random unit start per restart: restart r draws 2n normals
    from ``default_rng((seed, r))``, the first n as real parts and the next
    n as imaginary parts."""
    rngs = (np.random.default_rng((config.seed, r)) for r in range(config.restarts))
    raw = np.array([rng.normal(size=2 * n) for rng in rngs])
    vecs = raw[:, :n] + 1j * raw[:, n:]
    return vecs / np.sqrt(np.sum(vecs.real**2 + vecs.imag**2, axis=1))[:, None]


def _seesaw(s4: np.ndarray, k: int, starts) -> SeesawRun:
    """Rank-k see-saw on the (dA, dB, dA, dB) tensor of S, all restarts at once.

    Minimizes <psi|S|psi> over unit states psi = sum_s A[:,s] (x) B[:,s]
    with A (dA x k) and B (dB x k), from one start A per row of ``starts``
    (a ``_starts`` draw), which it copies and never writes; needs k <= min(dA, dB).
    One half-step body runs for B, then for A: it solves the free factor
    exactly for the fixed one, by one stacked ``eigh`` over active restarts.
    For k > 1 the fixed factor is first replaced by the Q of its QR
    decomposition: that keeps psi, and with orthonormal columns
    ||psi|| = ||free factor||_F, so the unit eigenvector is the exact
    minimum over unit states of Schmidt rank <= k with the fixed span.
    A restart leaves the stack once its A half-step gains less than
    CONVERGENCE_TOL on the same iteration's B half-step (B is exact for A,
    and A then within the tolerance of exact for B: a fixed point of
    both), or after MAX_ITERS.
    """
    da, db = s4.shape[0], s4.shape[1]
    a = np.array(starts, dtype=np.complex128).reshape(-1, da, k)
    a /= np.linalg.norm(a, axis=(1, 2), keepdims=True)
    r = a.shape[0]
    b = np.zeros((r, db, k), dtype=np.complex128)
    sides = ((s4, a, b), (s4.transpose(1, 0, 3, 2), b, a))  # (tensor, fixed, free)
    values = np.full(r, np.inf)
    converged = np.zeros(r, dtype=bool)
    active = np.arange(r)
    history = []
    for _ in range(MAX_ITERS):
        lows = []
        for t4, fixed, free in sides:
            if k > 1:
                fixed[active] = np.linalg.qr(fixed[active])[0]
            vals, vecs = np.linalg.eigh(_conditional(t4, fixed[active]))
            free[active] = vecs[:, :, 0].reshape(-1, *free.shape[1:])
            lows.append(vals[:, 0])
        step = np.full((r, 2), np.nan)
        step[active, 0], step[active, 1] = lows
        history.append(step)
        done = ~(lows[0] - lows[1] >= CONVERGENCE_TOL)
        values[active] = lows[1]
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    return SeesawRun(values, a, b, converged, history)


def min_product_expectation(
    w: Operator, config: OptimizerConfig, k: int = 1
) -> ProductMinResult:
    """Minimize <A,B|W|A,B> over unit product states by restarted see-saw.

    With k = 1 the product split is the operator's own (a_dim | b_dim) split,
    so lifted operators work too.  With 1 < k <= min(dA, dB), W must carry
    no ancillas and the minimum runs over unit states of Schmidt rank <= k:
    the minimum of <L|lift(W)|L> / <L|lift(I)|L> over product states L of
    the lifted space, found without building the lift.  The minimizer is
    the best restart's unit state A B^T on W's dims.
    """
    if not _is_int(k) or k < 1:
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    if k > 1 and not w.dims.unextended:
        raise DimensionError("rank-k minimization expects an operator without ancillas")
    limit = min(w.dims.dA, w.dims.dB)
    if k > limit:
        raise ParameterError(f"k must be <= min(dA, dB) = {limit}, got {k}")
    run = _seesaw(w.as_tensor(), k, _starts(config, w.dims.a_dim * k))
    best = int(np.argmin(run.values))
    minimizer = PureState(w.dims, run.state(best))
    return ProductMinResult(
        float(run.values[best]), minimizer, bool(run.converged[best]), "seesaw", run
    )


def is_entanglement_witness(w: Operator, config: OptimizerConfig) -> WitnessCheck:
    """True iff W is non-negative on products but has a negative eigenvalue."""
    min_eig, eigvec = _Spectra(w).eigenpair
    product_min = min_product_expectation(w, config)
    tol = config.positivity_tol
    verdict = product_min.value >= -tol and min_eig < -tol
    return WitnessCheck(
        is_witness=verdict,
        min_eigenvalue=min_eig,
        product_min=product_min,
        detected=eigvec if verdict else None,
    )


@dataclass(frozen=True)
class _Spectra:
    """The spectral facts of S that its Schmidt levels read, each computed on
    first use and kept: one ``eigh`` of S, for its lowest ``eigenpair`` and
    eigensolver ``rounding``, and the extremes of S^Gamma (``extremes``)."""

    s: Operator

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.s.matrix)

    @cached_property
    def eigenpair(self) -> tuple[float, PureState]:
        return float(self.eigh[0][0]), PureState(self.s.dims, self.eigh[1][:, 0])

    @cached_property
    def extremes(self) -> tuple[float, float]:
        evals = np.linalg.eigvalsh(partial_transpose(self.s).matrix)
        return float(evals[0]), float(evals[-1])

    @cached_property
    def rounding(self) -> float:
        return _rounding(self.s, self.eigh[0])


def _level_bound(s: Operator, level: int, extremes: tuple[float, float]) -> float:
    """Lower bound on <psi|S|psi> over unit psi of Schmidt rank <= level, from
    the ``extremes`` of S^Gamma, less the eigensolver's rounding.

    <psi|S|psi> = Tr(S^Gamma X) with X = (|psi><psi|)^Gamma of trace 1 and
    trace norm (sum_i mu_i^(1/2))^2 <= level in the squared Schmidt
    coefficients mu_i, so X's negative part has trace <= (level - 1)/2.
    Exact on the isotropic family; level 1 is the smallest eigenvalue.
    """
    lo, hi = extremes
    return (level + 1) / 2 * lo - (level - 1) / 2 * hi - _rounding(s, extremes)


def _rounding(s: Operator, evals) -> float:
    """Eigensolver rounding on an operator of S's size whose eigenvalues
    include ``evals`` (their extremes suffice): n eps max|lambda|."""
    return s.dims.total * float(np.finfo(float).eps) * float(np.max(np.abs(evals)))


def _level_minimum(spectra: _Spectra, level: int, config: OptimizerConfig) -> ProductMinResult:
    """Minimum of <psi|S|psi> over psi of Schmidt rank <= level, for S
    without ancillas, from its record ``spectra``.

    Every state has Schmidt rank <= min(dA, dB), so from that level on the
    answer is the record's smallest eigenvalue and unit eigenvector and no
    see-saw runs.  Below it, a level whose partial-transpose bound (from the
    record's ``extremes``) is at least -positivity_tol cannot detect, so that
    bound is the answer.  Otherwise the lowest eigenvector, cut to its top
    ``level`` Schmidt terms and normalized, is a state psi of Schmidt rank
    <= level: bound <= minimum <= <psi|S|psi>, so where <psi|S|psi> is below
    -positivity_tol and within 4 rounding of the bound it is the answer,
    with source "exact".  Otherwise it is the rank-level see-saw minimum.
    """
    s = spectra.s
    if level >= min(s.dims.dA, s.dims.dB):
        return ProductMinResult(*spectra.eigenpair, True, "spectrum")
    bound = _level_bound(s, level, spectra.extremes)
    if bound >= -config.positivity_tol:
        return ProductMinResult(bound, None, True, "bound")
    vector = spectra.eigenpair[1]
    u, sigma, vh = np.linalg.svd(vector.amplitudes.reshape(s.dims.dA, s.dims.dB))
    psi = ((u[:, :level] * sigma[:level]) @ vh[:level]).ravel() / np.linalg.norm(sigma[:level])
    value = float(np.vdot(psi, s.matrix @ psi).real)
    if value < -config.positivity_tol and value - bound <= 4 * _rounding(s, spectra.extremes):
        return ProductMinResult(value, PureState(s.dims, psi), True, "exact")
    return min_product_expectation(s, config, k=level)


def classify_schmidt_witness(
    s: Operator, max_k: int | None = None, config: OptimizerConfig = OptimizerConfig()
) -> WitnessClassification:
    """Classify a Hermitian operator as positive or as a k-Schmidt witness.

    Minima over Schmidt rank <= level (the product minima of the lifted
    operator) are scanned level by level; the witness order k is the first
    level whose minimum drops below -positivity_tol.  The detected state is
    that level's minimizer, normalized: a state of Schmidt rank <= k with a
    negative expectation value.  Level min(dA, dB) is read from the
    spectrum: its value is the smallest eigenvalue and its detected state
    the eigenvector, so the ladder never runs the see-saw there.  Nor
    does it below that level where the partial-transpose bound, from one
    eigensolve of S^Gamma, certifies the level, or where the truncated
    eigenvector meets that bound (see ``_level_minimum``).
    """
    if not s.dims.unextended:
        raise DimensionError("classification expects an operator without ancillas")
    limit = min(s.dims.dA, s.dims.dB)
    if max_k is None:
        max_k = limit
    if not _is_int(max_k) or not 1 <= max_k <= limit:
        raise ParameterError(f"max_k must be in [1, {limit}], got {max_k}")
    return _classify(_Spectra(s), max_k, config)


def _classify(spectra: _Spectra, max_k: int, config: OptimizerConfig) -> WitnessClassification:
    """``classify_schmidt_witness`` after its checks, on a record its caller keeps."""
    min_eig = spectra.eigenpair[0]
    tol = config.positivity_tol
    if min_eig >= -tol:
        return WitnessClassification(POSITIVE, None, min_eig, {}, None)
    per_level: dict[int, float] = {}
    converged = True
    for level in range(1, max_k + 1):
        found = _level_minimum(spectra, level, config)
        per_level[level] = found.value
        converged = converged and found.converged
        if found.value < -tol:
            detected = normalize(found.minimizer)
            return WitnessClassification(
                SCHMIDT_WITNESS, level, min_eig, per_level, detected, converged
            )
    # negative eigenvalue exists but no level up to max_k < min(dA, dB) detects
    # it: the order is only known to exceed max_k
    return WitnessClassification(SCHMIDT_WITNESS, None, min_eig, per_level, None, converged)


def detects(w: Operator, rho: Operator) -> bool:
    """True iff the state rho is detected by W, i.e. Tr(W rho) < -DETECTION_TOL."""
    if w.dims != rho.dims:
        raise DimensionError(f"dims mismatch: {w.dims} vs {rho.dims}")
    rho_min = float(np.linalg.eigvalsh(rho.matrix)[0])
    if rho_min < -DETECTION_TOL:
        raise ParameterError(f"rho is not positive semidefinite (min eig {rho_min:g})")
    return trace_pair(w, rho) < -DETECTION_TOL


def refine_by_subtraction(s: Operator, z: Operator, lam: float) -> Operator:
    """The rescaled subtraction (S - lam Z) / (1 - lam) for lam < 1."""
    if lam >= 1:
        raise ParameterError(f"subtraction weight must be < 1, got {lam}")
    if s.dims != z.dims:
        raise DimensionError(f"dims mismatch: {s.dims} vs {z.dims}")
    matrix = (s.matrix - lam * z.matrix) / (1 - lam)
    return Operator(s.dims, matrix)


def finer_certificate(w1: Operator, w2: Operator) -> FinerCertificate:
    """Search for (eps, Z PSD) with W2 = (1-eps) W1 + eps Z.

    Success certifies that W1 is finer than W2 (relative to positivity on
    all states).  The candidate is Z = W1 + t D with t = 1/eps >= 1 and
    D = W2 - W1; its smallest eigenvalue f(t) is concave, with supergradient
    <v|D|v> at the eigenvector v.  So t doubles from 1 until that slope is no
    longer positive (or 1/t vanishes next to 1 in floats), and the bracket
    is bisected on its sign down to adjacent floats.  The returned eps is
    the evaluated point of largest f, the maximum up to rounding; on failure
    that pair is the refutation, and ``evidence`` lists every (eps, f).
    """
    if w1.dims != w2.dims:
        raise DimensionError(f"dims mismatch: {w1.dims} vs {w2.dims}")
    for name, op in (("W1", w1), ("W2", w2)):
        tr = op.trace()
        if abs(tr - 1.0) > 1e-8:
            raise ParameterError(f"{name} must be trace-normalized, got trace {tr}")
    if float(np.abs(w1.matrix - w2.matrix).max()) < 1e-12:
        return FinerCertificate(True, 0.0, 0.0, None)
    diff = w2.matrix - w1.matrix
    points = []  # (t, f(t))

    def slope(t: float) -> float:
        vals, vecs = np.linalg.eigh(w1.matrix + t * diff)
        points.append((t, float(vals[0])))
        return float(np.vdot(vecs[:, 0], diff @ vecs[:, 0]).real)

    lo = hi = 1.0
    while slope(hi) > 0 and hi * np.finfo(float).eps < 1:
        lo, hi = hi, 2 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    t, min_eig = max(points, key=lambda point: point[1])
    found = min_eig >= -FINER_TOL
    z = Operator(w1.dims, w1.matrix + t * diff) if found else None
    evidence = tuple((1 / t, f) for t, f in points)
    return FinerCertificate(found, 1 / t, min_eig, z, evidence)


def _ratio_min(p: _Spectra, q: _Spectra, level: int, config: OptimizerConfig, psi) -> float:
    """Smallest <psi|P|psi> / <psi|Q|psi> over unit psi of Schmidt rank <= level
    for the records ``p`` of P and ``q`` of Q, by Dinkelbach's iteration from
    the unit state ``psi``: with r the ratio at psi, ``_level_minimum`` of a
    record of P - r Q, at positivity_tol CONVERGENCE_TOL max(1, |r|), gives
    the next psi, until that minimum is >= -tol or r stops falling.  A <P>
    within P's ``rounding`` of 0 is 0; where <Q> is not above Q's, the ratio
    is -inf if <P> < 0, else 0."""

    def ratio(psi) -> float:
        num, den = (float(np.vdot(psi, m @ psi).real) for m in (p.s.matrix, q.s.matrix))
        if den > q.rounding:
            return 0.0 if abs(num) <= p.rounding else num / den
        return -np.inf if num < -p.rounding else 0.0

    r = ratio(psi)
    while r > -np.inf:
        tol = CONVERGENCE_TOL * max(1.0, abs(r))
        pencil = _Spectra(Operator(p.s.dims, p.s.matrix - r * q.s.matrix))
        found = _level_minimum(pencil, level, replace(config, positivity_tol=tol))
        if found.value >= -tol or not (following := ratio(found.minimizer.amplitudes)) < r:
            break
        r = following
    return r


def lambda_max_subtraction(
    s: Operator,
    z: Operator,
    k: int,
    config: OptimizerConfig = OptimizerConfig(),
) -> SubtractionResult:
    """Largest lambda keeping (S - lambda Z)/(1 - lambda) a k-Schmidt witness.

    Estimates the threshold from the two equivalent quadratic-form ratios of
    the pair over states of Schmidt rank <= k-1, each by ``_ratio_min``:
    ``lambda0`` is the smallest <psi|S|psi> / <psi|Z|psi>, from Z's maximizer
    over Schmidt rank <= k-1 (the ``_level_minimum`` of -Z) and clamped at
    0; ``formula_sup_inv`` is 1 / the largest <psi|Z|psi> / <psi|S|psi>, as
    -1 / the smallest ratio of -Z over S from S's see-saw minimizer (0 where
    Z is positive on a state on which S vanishes).  S must be a k-Schmidt
    witness, non-negative on Schmidt rank <= k-1, and Z must be non-negative
    on Schmidt class k: both minima are computed first by ``_level_minimum``
    (level k = min(dA, dB) is Z's smallest eigenvalue), and a value below
    -positivity_tol raises PreconditionError, as does a Z whose maximum over
    Schmidt rank <= k-1 is within rounding of 0 (or bounded by positivity_tol,
    without a maximizer).  Needs an integer 2 <= k <= min(dA, dB).
    """
    if not _is_int(k):
        raise ParameterError(f"k must be an integer, got {k!r}")
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if s.dims != z.dims:
        raise DimensionError(f"dims mismatch: {s.dims} vs {z.dims}")
    if not s.dims.unextended:
        raise DimensionError("expected operators without ancillas")
    limit = min(s.dims.dA, s.dims.dB)
    if k > limit:
        raise ParameterError(f"k must be <= min(dA, dB) = {limit}, got {k}")
    s_rec, z_rec, minus_z_rec = _Spectra(s), _Spectra(z), _Spectra(Operator(z.dims, -z.matrix))
    minima = []
    for name, spectra, level in (("S", s_rec, k - 1), ("Z", z_rec, k)):
        minima.append(_level_minimum(spectra, level, config))
        if (value := minima[-1].value) < -config.positivity_tol:
            raise PreconditionError(
                f"level {level} minimum of {name} is {value:g}: {name} must be "
                f"non-negative on Schmidt rank <= {level}"
            )

    z_max = _level_minimum(minus_z_rec, k - 1, config)
    if z_max.minimizer is None or -z_max.value <= z_rec.rounding:
        raise PreconditionError(
            f"Z vanishes on Schmidt rank <= {k - 1}: its maximum there is {-z_max.value:g}"
        )
    lambda0 = max(_ratio_min(s_rec, z_rec, k - 1, config, z_max.minimizer.amplitudes), 0.0)
    # S's see-saw minimizer, unless its bound certified the level
    psi_s = minima[0].minimizer or min_product_expectation(s, config, k - 1).minimizer
    inverse = _ratio_min(minus_z_rec, s_rec, k - 1, config, psi_s.amplitudes)
    formula_sup_inv = -1.0 / inverse if inverse < 0 else np.inf

    refined = refine_by_subtraction(s, z, lambda0) if lambda0 < 1.0 else None
    return SubtractionResult(lambda0, formula_sup_inv, refined)


def optimality_certificate(
    w: Operator, config: OptimizerConfig = OptimizerConfig()
) -> tuple[int, bool]:
    """Dimension of the span of near-zero product states and an optimality flag.

    Reads the product minimization that the witness check ran, keeps the
    restarts' product states whose expectation is within ZERO_TOL of zero,
    and reports the dimension of their linear span.  A True flag (span equals the full space
    dimension) certifies that no strictly finer witness exists; a False flag
    is inconclusive.
    """
    check = is_entanglement_witness(w, config)
    if not check.is_witness:
        raise PreconditionError("operator is not an entanglement witness")
    run = check.product_min.run
    near_zero = np.abs(run.values) <= ZERO_TOL
    if not near_zero.any():
        return 0, False
    zeros = np.array([run.state(r) for r in np.flatnonzero(near_zero)])
    singular = np.linalg.svd(zeros, compute_uv=False)
    span_dim = int(np.sum(singular > singular[0] * 1e-8))
    return span_dim, span_dim == w.dims.total
