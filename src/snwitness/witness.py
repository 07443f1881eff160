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
non-increasing.  Certification is one-sided: the optimizer yields an upper
bound on the true infimum, so "non-negative on products" verdicts carry the
restart count as evidence and are validated against brute force at small
dimensions (see ``checks``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, PreconditionError
from .hilbert import (
    Dims,
    Operator,
    PureState,
    _conditional,
    expectation,
    min_eigenpair,
    normalize,
    random_pure_state,
    trace_pair,
)

POSITIVE = "PositiveOperator"
SCHMIDT_WITNESS = "SchmidtWitness"

MAX_ITERS = 500  # see-saw iterations per restart
CONVERGENCE_TOL = 1e-10  # a restart stops once its value drops by less
ZERO_TOL = 1e-6  # optimality_certificate keeps product states with |value| <= ZERO_TOL
DETECTION_TOL = 1e-9  # detects: Tr(W rho) < -DETECTION_TOL, rho PSD to within it
FINER_GRID = 200  # finer_certificate tries eps = i / FINER_GRID, 0 < i < FINER_GRID
FINER_TOL = 1e-9  # finer_certificate accepts Z whose smallest eigenvalue is >= -FINER_TOL


@dataclass(frozen=True)
class OptimizerConfig:
    """Seeded optimizer settings shared by all restart-based searches."""

    seed: int = 0
    restarts: int = 64
    positivity_tol: float = 1e-7

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
        if self.restarts < 1:
            raise ParameterError(f"restarts must be >= 1, got {self.restarts}")
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


@dataclass(frozen=True)
class ProductMinResult:
    """Best product-state minimum found by the see-saw, with its minimizers.

    For k > 1 the factors are not both unit vectors (see
    ``min_product_expectation``); ``lowered()`` is the unit minimizer.
    """

    value: float
    arg_a: PureState
    arg_b: PureState
    converged: bool
    trace: tuple[float, ...]

    def lowered(self) -> PureState:
        """The minimizer with its ancillas contracted: sum_s A[:,s] (x) B[:,s]."""
        da, db = self.arg_a.dims, self.arg_b.dims
        a = self.arg_a.amplitudes.reshape(da.dA, da.kA)
        b = self.arg_b.amplitudes.reshape(db.dB, db.kB)
        return PureState(Dims(da.dA, db.dB), (a @ b.T).ravel())


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
    of <psi|S|psi> over unit states of Schmidt rank <= l, so the levels are
    non-increasing in l: below min(dA, dB) it is the rank-l see-saw minimum,
    and level min(dA, dB) holds ``min_eigenvalue``, since every state has
    Schmidt rank at most min(dA, dB).
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


@functools.lru_cache(maxsize=8)  # an operator shape needs at most three salts
def _draws(seed: int, restarts: int, length: int, salt: tuple) -> np.ndarray:
    """Read-only (restarts, length): row r holds the first ``length`` normals
    of ``default_rng((seed, *salt, r))``, kept for the process's next calls."""
    rngs = (np.random.default_rng((seed, *salt, r)) for r in range(restarts))
    raw = np.array([rng.normal(size=length) for rng in rngs])
    raw.flags.writeable = False
    return raw


def _starts(config: OptimizerConfig, dims: Dims, n: int, *salt) -> np.ndarray:
    """One seeded random unit start per restart: n normals of its stream as real
    parts, the next n as imaginary parts.  Draws are sequential, so every n
    shares one stream, drawn to the longest start an operator of ``dims`` needs
    (rank min(dA, dB) without ancillas; with them only k = 1 runs)."""
    rank = min(dims.a_dim, dims.b_dim) if dims.unextended else 1
    raw = _draws(config.seed, config.restarts, 2 * dims.a_dim * rank, salt)
    vecs = raw[:, :n] + 1j * raw[:, n : 2 * n]
    return vecs / np.array([np.linalg.norm(vec) for vec in vecs])[:, None]


def _lowest(p: np.ndarray, q: np.ndarray):
    """Lowest eigenpair of each pencil <v|P|v> / <v|Q|v> of a stack, on Q's support.

    Q is whitened on its support (eigenvalues above 1e-10 of its largest
    modulus); the other directions are decoupled and shifted above the
    spectrum, so they never win.  Returns (values, vectors, negative): NaN
    values and zero vectors where Q has no support, <v|Q|v> = 1 elsewhere,
    and flags where P is negative on the rest of Q's space.
    """
    evals, evecs = np.linalg.eigh(q)
    scale = np.maximum(np.abs(evals).max(axis=1), 1e-300)
    support = evals > scale[:, None] * 1e-10
    inv = np.zeros_like(evals)
    inv[support] = evals[support] ** -0.5
    inner = evecs.conj().transpose(0, 2, 1) @ p @ evecs
    reduced = inner * inv[:, :, None] * inv[:, None, :]
    shift = (1 + np.linalg.norm(reduced, axis=(1, 2)))[:, None] * ~support
    vals, vecs = np.linalg.eigh(reduced + shift[:, :, None] * np.eye(evals.shape[1]))
    vectors = evecs @ (inv[:, :, None] * vecs[:, :, :1])
    off = ~support[:, :, None] & ~support[:, None, :]
    negative = np.linalg.eigvalsh(inner * off)[:, 0] < -scale * 1e-8
    values = np.where(support.any(axis=1), vals[:, 0], np.nan)
    return values, vectors[:, :, 0], negative


def _seesaw(s4: np.ndarray, k: int, starts, q4=None):
    """Rank-k see-saw on the (dA, dB, dA, dB) tensor of S, all restarts at once.

    Minimizes <psi|S|psi> over unit states psi = sum_s A[:,s] (x) B[:,s]
    with A (dA x k) and B (dB x k), from one start A per row of ``starts``;
    needs k <= min(dA, dB).  Each half-step solves one factor exactly with
    the other fixed, by one stacked ``eigh`` over the restarts still active.
    For k > 1 the fixed factor is first replaced by the Q of its QR
    decomposition: that keeps psi, and with orthonormal columns
    ||psi|| = ||free factor||_F, so the unit eigenvector is the exact
    minimum over unit states of Schmidt rank <= k with the fixed span.
    Given the tensor ``q4`` of a second operator Q, the same loop minimizes
    the pencil <psi|S|psi> / <psi|Q|psi> (Q = I is the plain case), each
    half-step by ``_lowest``; a degenerate start, one whose conditional Q
    has no support, gets the value NaN and is dropped.  A restart leaves
    the stack once its value drops by less than CONVERGENCE_TOL in an
    iteration, or after MAX_ITERS iterations.

    Returns (values, A, B, converged, history, negative): per-restart final
    values, factors (without ``q4``, A of unit norm and B of unit norm for
    k = 1 or with orthonormal columns for k > 1, so A B^T is a unit state)
    and flags; per iteration an (R, 2) array of the two half-step values
    (NaN for restarts that had already stopped); and per restart whether S
    was found negative on the kernel of a conditional Q.
    """

    def solve(t4, u4, f):
        if u4 is None:
            vals, vecs = np.linalg.eigh(_conditional(t4, f))
            return vals[:, 0], vecs[:, :, 0], False
        return _lowest(_conditional(t4, f), _conditional(u4, f))

    da, db = s4.shape[0], s4.shape[1]
    swapped = s4.transpose(1, 0, 3, 2)
    q_swapped = None if q4 is None else q4.transpose(1, 0, 3, 2)
    a = np.array(starts, dtype=np.complex128).reshape(-1, da, k)
    a /= np.linalg.norm(a, axis=(1, 2), keepdims=True)
    r = a.shape[0]
    b = np.zeros((r, db, k), dtype=np.complex128)
    values = np.full(r, np.inf)
    converged = np.zeros(r, dtype=bool)
    negative = np.zeros(r, dtype=bool)
    active = np.arange(r)
    history = []
    for _ in range(MAX_ITERS):
        if k > 1:
            a[active] = np.linalg.qr(a[active])[0]
        vals_b, vecs_b, neg_b = solve(s4, q4, a[active])
        b[active] = vecs_b.reshape(-1, db, k)
        if k > 1:
            b[active] = np.linalg.qr(b[active])[0]
        vals_a, vecs_a, neg_a = solve(swapped, q_swapped, b[active])
        a[active] = vecs_a.reshape(-1, da, k)
        if q4 is not None:
            negative[active] |= neg_b | neg_a
        step = np.full((r, 2), np.nan)
        step[active, 0], step[active, 1] = vals_b, vals_a
        history.append(step)
        done = ~(values[active] - vals_a >= CONVERGENCE_TOL)
        values[active] = vals_a
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    return values, a, b, converged, history, negative


def min_product_expectation(
    w: Operator, config: OptimizerConfig, k: int = 1
) -> ProductMinResult:
    """Minimize <A,B|W|A,B> over unit product states by restarted see-saw.

    With k = 1 the product split is the operator's own (a_dim | b_dim) split,
    so lifted operators work too.  With 1 < k <= min(dA, dB), W must carry
    no ancillas and the minimum runs over unit states of Schmidt rank <= k:
    the minimum of <L|lift(W)|L> / <L|lift(I)|L> over product states L of
    the lifted space, found without building the lift.  The factors
    ``arg_a`` and ``arg_b`` then live on the ancilla-extended factors:
    ``arg_a`` has unit norm and ``arg_b`` orthonormal columns (norm sqrt(k)),
    so ``lowered()`` is the unit minimizer A B^T.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > 1 and not w.dims.unextended:
        raise DimensionError("rank-k minimization expects an operator without ancillas")
    limit = min(w.dims.dA, w.dims.dB)
    if k > limit:
        raise ParameterError(f"k must be <= min(dA, dB) = {limit}, got {k}")
    dims = w.dims.with_ancillas(k) if k > 1 else w.dims
    starts = _starts(config, w.dims, dims.a_dim)
    values, a, b, converged, *_ = _seesaw(w.as_tensor(), k, starts)
    best = int(np.argmin(values))
    return ProductMinResult(
        value=float(values[best]),
        arg_a=PureState(dims.a_factor(), a[best].ravel()),
        arg_b=PureState(dims.b_factor(), b[best].ravel()),
        converged=bool(converged[best]),
        trace=tuple(float(v) for v in values),
    )


def is_entanglement_witness(w: Operator, config: OptimizerConfig) -> WitnessCheck:
    """True iff W is non-negative on products but has a negative eigenvalue."""
    min_eig, eigvec = min_eigenpair(w)
    product_min = min_product_expectation(w, config)
    tol = config.positivity_tol
    verdict = product_min.value >= -tol and min_eig < -tol
    return WitnessCheck(
        is_witness=verdict,
        min_eigenvalue=min_eig,
        product_min=product_min,
        detected=eigvec if verdict else None,
    )


def _level_minimum(
    s: Operator, level: int, config: OptimizerConfig, eigenpair=None
) -> tuple[float, PureState, bool]:
    """Minimum of <psi|S|psi> over psi of Schmidt rank <= level, its minimizer
    and whether the search converged, for S without ancillas.

    Every state has Schmidt rank <= min(dA, dB), so from that level on the
    answer is the smallest eigenvalue and its unit eigenvector (``eigenpair``
    when the caller already has it) and no see-saw runs.  Below it, the
    rank-level see-saw gives the unit minimizer A B^T.
    """
    if level >= min(s.dims.dA, s.dims.dB):
        value, vector = min_eigenpair(s) if eigenpair is None else eigenpair
        return value, vector, True
    result = min_product_expectation(s, config, k=level)
    return result.value, result.lowered(), result.converged


def classify_schmidt_witness(
    s: Operator, max_k: int | None = None, config: OptimizerConfig = OptimizerConfig()
) -> WitnessClassification:
    """Classify a Hermitian operator as positive or as a k-Schmidt witness.

    Minima over Schmidt rank <= level (the product minima of the lifted
    operator) are scanned level by level; the witness order k is the first
    level whose minimum drops below -positivity_tol.  The detected state is
    the normalized contraction of that level's minimizer, a state of Schmidt
    rank <= k with a negative expectation value.  Level min(dA, dB) is read
    from the spectrum: its value is the smallest eigenvalue and its detected
    state the eigenvector, so the ladder never runs the see-saw there.
    """
    if not s.dims.unextended:
        raise DimensionError("classification expects an operator without ancillas")
    limit = min(s.dims.dA, s.dims.dB)
    if max_k is None:
        max_k = limit
    if max_k < 1 or max_k > limit:
        raise ParameterError(f"max_k must be in [1, {limit}], got {max_k}")
    eigenpair = min_eigenpair(s)
    min_eig = eigenpair[0]
    tol = config.positivity_tol
    if min_eig >= -tol:
        return WitnessClassification(POSITIVE, None, min_eig, {}, None)
    per_level: dict[int, float] = {}
    converged = True
    for level in range(1, max_k + 1):
        value, minimizer, level_converged = _level_minimum(s, level, config, eigenpair)
        per_level[level] = value
        converged = converged and level_converged
        if value < -tol:
            detected = normalize(minimizer)
            return WitnessClassification(
                SCHMIDT_WITNESS, level, min_eig, per_level, detected, converged
            )
    # negative eigenvalue exists but no level up to max_k < min(dA, dB) detects it
    return WitnessClassification(
        SCHMIDT_WITNESS, max_k + 1, min_eig, per_level, None, converged
    )


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
    all states).  The returned eps maximizes the smallest eigenvalue of the
    candidate Z over the grid eps = i / FINER_GRID; on failure that same
    pair is the refutation evidence.
    """
    if w1.dims != w2.dims:
        raise DimensionError(f"dims mismatch: {w1.dims} vs {w2.dims}")
    for name, op in (("W1", w1), ("W2", w2)):
        tr = op.trace()
        if abs(tr - 1.0) > 1e-8:
            raise ParameterError(f"{name} must be trace-normalized, got trace {tr}")
    if float(np.abs(w1.matrix - w2.matrix).max()) < 1e-12:
        return FinerCertificate(True, 0.0, 0.0, None)
    evidence = []
    best = None
    for i in range(1, FINER_GRID):
        eps = i / FINER_GRID
        candidate = (w2.matrix - (1 - eps) * w1.matrix) / eps
        min_eig = float(np.linalg.eigvalsh(candidate)[0])
        evidence.append((eps, min_eig))
        if best is None or min_eig > best[1]:
            best = (eps, min_eig, candidate)
    eps, min_eig, candidate = best
    found = min_eig >= -FINER_TOL
    z = Operator(w1.dims, candidate) if found else None
    return FinerCertificate(found, eps, min_eig, z, tuple(evidence))


def lambda_max_subtraction(
    s: Operator,
    z: Operator,
    k: int,
    config: OptimizerConfig = OptimizerConfig(),
) -> SubtractionResult:
    """Largest lambda keeping (S - lambda Z)/(1 - lambda) a k-Schmidt witness.

    Estimates the threshold from the two equivalent quadratic-form ratios of
    the pair over states of Schmidt rank <= k-1: the smallest
    <psi|S|psi> / <psi|Z|psi> and the inverse of the largest
    <psi|Z|psi> / <psi|S|psi>, the latter as the smallest ratio of -Z over
    S.  Both run on the one batched see-saw kernel ``_seesaw`` as a pencil,
    all restarts at once; degenerate starts (no support of the denominator
    form) are dropped.  If the numerator form is negative on the
    denominator's kernel the threshold is reported as 0.  S must be a
    k-Schmidt witness: its minimum over Schmidt rank <= k-1 is computed
    first, and a value below -positivity_tol raises PreconditionError.  The
    caller asserts that Z is non-negative on Schmidt class k; this is
    spot-checked by sampling.  Needs 2 <= k <= min(dA, dB).
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if s.dims != z.dims:
        raise DimensionError(f"dims mismatch: {s.dims} vs {z.dims}")
    if not s.dims.unextended:
        raise DimensionError("expected operators without ancillas")
    limit = min(s.dims.dA, s.dims.dB)
    if k > limit:
        raise ParameterError(f"k must be <= min(dA, dB) = {limit}, got {k}")
    _spot_check_positive_on_class(z, k, config)
    level_min = _level_minimum(s, k - 1, config)[0]
    if level_min < -config.positivity_tol:
        raise PreconditionError(
            f"level {k - 1} minimum of S is {level_min:g}: a {k}-Schmidt witness is "
            f"non-negative on Schmidt rank <= {k - 1}"
        )

    s4, z4 = s.as_tensor(), z.as_tensor()
    starts = _starts(config, s.dims, s.dims.dA * (k - 1), 104729)
    run = (k - 1, starts)
    ratios, *_, negative = _seesaw(s4, *run, q4=z4)
    min_ratio = float(np.nanmin(ratios, initial=np.inf))
    if negative.any():
        lambda0 = 0.0
    elif min_ratio == np.inf:
        raise PreconditionError("every sampled direction was degenerate")
    else:
        lambda0 = max(min_ratio, 0.0)

    sup_ratio = -float(np.nanmin(_seesaw(-z4, *run, q4=s4)[0], initial=np.inf))
    formula_sup_inv = 1.0 / sup_ratio if sup_ratio > 0.0 else np.inf

    refined = refine_by_subtraction(s, z, lambda0) if lambda0 < 1.0 else None
    return SubtractionResult(lambda0, formula_sup_inv, refined)


def _spot_check_positive_on_class(z: Operator, k: int, config: OptimizerConfig):
    """Sample states of Schmidt rank <= k and check <psi|Z|psi> >= -tol."""
    for trial in range(50):
        rank = 1 + trial % k
        psi = random_pure_state(z.dims, rank, seed=(config.seed, 15485863, trial))
        value = expectation(z, psi)
        if value < -config.positivity_tol:
            raise PreconditionError(
                f"Z is negative ({value:g}) on a sampled state of Schmidt rank {rank}"
            )


def optimality_certificate(
    w: Operator, config: OptimizerConfig = OptimizerConfig()
) -> tuple[int, bool]:
    """Dimension of the span of near-zero product states and an optimality flag.

    Runs independent single-restart product minimizations, keeps the product
    states whose expectation is within ZERO_TOL of zero, and reports the
    dimension of their linear span.  A True flag (span equals the full space
    dimension) certifies that no strictly finer witness exists; a False flag
    is inconclusive.
    """
    check = is_entanglement_witness(w, config)
    if not check.is_witness:
        raise PreconditionError("operator is not an entanglement witness")
    d = w.dims
    values, a, b, *_ = _seesaw(w.as_tensor(), 1, _starts(config, d, d.a_dim, 7919))
    near_zero = np.abs(values) <= ZERO_TOL
    if not near_zero.any():
        return 0, False
    zeros = np.einsum("ri,rj->rij", a[near_zero, :, 0], b[near_zero, :, 0])
    singular = np.linalg.svd(zeros.reshape(-1, d.total), compute_uv=False)
    span_dim = int(np.sum(singular > singular[0] * 1e-8))
    return span_dim, span_dim == d.total
