"""Dimension-aware complex linear algebra for bipartite pure states and
Hermitian operators.

Index convention (used everywhere in this package): a vector on the space
A (x) ancA (x) B (x) ancB is stored row-major over (iA, sA, jB, tB), i.e.
basis state |iA sA jB tB> sits at index ((iA*kA + sA)*dB + jB)*kB + tB.
Ancilla dimensions kA, kB are 1 when no ancilla is attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionError,
    NotHermitianError,
    ParameterError,
)

HERMITICITY_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-8


def _is_int(value) -> bool:
    """True for Python and numpy integers, False for bools and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Dims:
    """Local dimensions dA, dB plus ancilla dimensions kA, kB (1 = absent)."""

    dA: int
    dB: int
    kA: int = 1
    kB: int = 1

    def __post_init__(self):
        for name in ("dA", "dB", "kA", "kB"):
            value = getattr(self, name)
            if not _is_int(value):
                raise DimensionError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise DimensionError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, int(value))

    @property
    def a_dim(self) -> int:
        """Dimension of the A-side factor (system times ancilla)."""
        return self.dA * self.kA

    @property
    def b_dim(self) -> int:
        """Dimension of the B-side factor."""
        return self.dB * self.kB

    @property
    def total(self) -> int:
        return self.a_dim * self.b_dim

    @property
    def unextended(self) -> bool:
        """True when no ancillas are attached."""
        return self.kA == 1 and self.kB == 1

    def with_ancillas(self, k: int) -> "Dims":
        """Dims of the enlarged space with ancilla dimension k on both sides."""
        return Dims(self.dA, self.dB, k, k)

    def a_factor(self) -> "Dims":
        """Dims of a state living on the A-side factor only."""
        return Dims(self.dA, 1, self.kA, 1)

    def b_factor(self) -> "Dims":
        """Dims of a state living on the B-side factor only."""
        return Dims(1, self.dB, 1, self.kB)


def _hermitian_deviation(matrix: np.ndarray) -> float | None:
    """max |M - M^dag| if it reaches HERMITICITY_TOL * max(1, max |M_ij|),
    None if M counts as Hermitian.  The bound is relative above entries of
    modulus 1, so the rounding of a product like g g^dag at any scale passes."""
    dev = float(np.abs(matrix - matrix.conj().T).max())
    scale = max(1.0, float(np.abs(matrix).max()))
    return None if dev < HERMITICITY_TOL * scale else dev


def _as_readonly(values, shape, what) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != shape:
        raise DimensionError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{what} has non-finite entries")
    # the sum bounds every eigenvalue, trace, squared norm and unit-state expectation
    with np.errstate(over="ignore"):
        if not np.isfinite(np.vdot(arr, arr).real):
            raise ParameterError(f"{what} is too large: its squared moduli overflow a float")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """A pure state vector with explicit dimension metadata.

    States are not required to have unit norm: lifted states are
    deliberately unnormalized.
    """

    dims: Dims
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_readonly(self.amplitudes, (self.dims.total,), "amplitudes")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Operator:
    """A Hermitian operator with the same index convention as PureState.
    Hermiticity, like finiteness, is checked once, when it is built."""

    dims: Dims
    matrix: np.ndarray

    def __post_init__(self):
        n = self.dims.total
        mat = _as_readonly(self.matrix, (n, n), "matrix")
        dev = _hermitian_deviation(mat)
        if dev is not None:
            raise NotHermitianError(f"operator is not Hermitian (max deviation {dev:g})")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _unchecked(cls, dims: Dims, matrix: np.ndarray) -> "Operator":
        """Wrap a complex (n, n) matrix that is finite and within
        HERMITICITY_TOL of Hermitian by construction from validated inputs:
        no copy and no checks, only the read-only flag.  Only
        ``embedding.lift_operator`` uses it: copying and checking the lifted
        matrix there fails ``test_lift_report_memory_does_not_grow_with_its_text``."""
        matrix.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "dims", dims)
        object.__setattr__(op, "matrix", matrix)
        return op

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def as_tensor(self) -> np.ndarray:
        """View of the matrix reshaped to (a_dim, b_dim, a_dim, b_dim)."""
        d = self.dims
        return self.matrix.reshape(d.a_dim, d.b_dim, d.a_dim, d.b_dim)


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt coefficients (descending, >= 0) and orthonormal local bases.

    ``basis_a[i]`` / ``basis_b[i]`` are the i-th local vectors; the source
    state is ``sum_i coefficients[i] * basis_a[i] (x) basis_b[i]``.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        """Rebuild the source amplitudes from the decomposition."""
        return np.einsum(
            "i,ia,ib->ab", self.coefficients, self.basis_a, self.basis_b
        ).ravel()


def normalize(psi: PureState) -> PureState:
    """Unit-norm copy of ``psi``."""
    nrm = psi.norm()
    if nrm == 0.0:
        raise DegenerateStateError("cannot normalize the zero vector")
    return PureState(psi.dims, psi.amplitudes / nrm)


def product_state(a: PureState, b: PureState) -> PureState:
    """Tensor product of an A-side factor state and a B-side factor state."""
    da, db = a.dims, b.dims
    if da.dB != 1 or da.kB != 1 or db.dA != 1 or db.kA != 1:
        raise DimensionError("product_state expects an A-side and a B-side factor")
    dims = Dims(da.dA, db.dB, da.kA, db.kB)
    return PureState(dims, np.outer(a.amplitudes, b.amplitudes).ravel())


def random_pure_state(dims: Dims, rank: int, seed) -> PureState:
    """Random normalized state of exact Schmidt rank ``rank``.

    Coefficients are drawn bounded away from zero and the local bases from
    orthonormalized Gaussian matrices, so the rank is exact and the output
    is a deterministic function of the seed.  One row of
    ``_random_pure_states``.
    """
    return PureState(dims, _random_pure_states(dims, [rank], [seed])[0])


def _random_pure_states(dims: Dims, ranks, seeds) -> np.ndarray:
    """Amplitudes (r, dims.total) of ``random_pure_state(dims, rank, seed)``
    for each pair of ``ranks`` and ``seeds``.

    Each seed makes its own generator calls; the draws of equal rank are then
    orthonormalized by one stacked QR per side and contracted by one einsum.
    """
    limit = min(dims.a_dim, dims.b_dim)
    out = np.empty((len(seeds), dims.a_dim, dims.b_dim), dtype=np.complex128)
    groups: dict[int, list] = {}
    for row, (rank, seed) in enumerate(zip(ranks, seeds)):
        if not 1 <= rank <= limit:
            raise ParameterError(f"rank must be in [1, {limit}], got {rank}")
        rng = np.random.default_rng(seed)
        coef = rng.uniform(0.35, 1.0, rank)
        coef = np.sort(coef / np.linalg.norm(coef))[::-1]
        ga = rng.normal(size=(dims.a_dim, rank)) + 1j * rng.normal(size=(dims.a_dim, rank))
        gb = rng.normal(size=(dims.b_dim, rank)) + 1j * rng.normal(size=(dims.b_dim, rank))
        groups.setdefault(rank, []).append((row, coef, ga, gb))
    for members in groups.values():
        rows, coef, ga, gb = (np.stack(part) for part in zip(*members))
        qa, _ = np.linalg.qr(ga)
        qb, _ = np.linalg.qr(gb)
        out[rows] = np.einsum("ri,rai,rbi->rab", coef, qa, qb)
    return out.reshape(len(seeds), dims.total)


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Schmidt decomposition of ``psi`` across the (A.ancA | B.ancB) split.

    Phase convention: coefficients are real and non-negative (descending),
    and the first entry of each left vector with modulus > 1e-12 is made
    real non-negative, with the compensating phase pushed into the right
    vector.  The reconstruction then reproduces the input exactly, not just
    up to phase.  One row of ``_schmidt_terms``.
    """
    vec = psi.amplitudes
    if np.linalg.norm(vec) == 0.0:
        raise DegenerateStateError("Schmidt decomposition of the zero vector")
    terms = _schmidt_terms(vec.reshape(1, psi.dims.a_dim, psi.dims.b_dim))
    coefficients, basis_a, basis_b, rank = (part[0] for part in terms)
    for arr in (coefficients, basis_a, basis_b):
        arr.setflags(write=False)
    return SchmidtForm(coefficients, basis_a, basis_b, int(rank))


def _schmidt_terms(matrices: np.ndarray):
    """Schmidt terms of a stack of (a, b) amplitude matrices by one stacked SVD.

    Returns coefficients (r, m) in descending order, left vectors (r, m, a),
    right vectors (r, m, b), with m = min(a, b), in the phase convention of
    ``schmidt_decompose``, and the ranks (r,) above DEFAULT_RANK_TOL relative
    to the leading coefficient.  Every left vector has unit norm, so it has
    an entry of modulus > 1e-12.  The phase lead/|lead| takes |lead| from
    ``np.hypot`` of the parts: that is the scalar complex ``abs`` bit for bit,
    while ``np.abs`` of a complex array has its own vector loop, which rounds
    differently.
    """
    u, s, vh = np.linalg.svd(matrices, full_matrices=False)
    basis_a = u.swapaxes(-1, -2)
    first = (np.abs(basis_a) > 1e-12).argmax(axis=-1)
    lead = np.take_along_axis(basis_a, first[..., None], axis=-1)
    phase = lead / np.hypot(lead.real, lead.imag)
    ranks = np.sum(s > DEFAULT_RANK_TOL * s[..., :1], axis=-1)
    return s, basis_a / phase, vh * phase, ranks


def schmidt_rank(psi: PureState) -> int:
    """Number of Schmidt coefficients above DEFAULT_RANK_TOL * lambda_1."""
    return schmidt_decompose(psi).rank


def _conditional(t4: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Conditional operators C[(j,s),(m,t)] = sum_{i,l} conj(F[i,s]) T[i,j,l,m] F[l,t].

    ``t4`` is an operator as its (dA, dB, dA, dB) tensor and ``f`` a stack of
    dA x k factors; the result stacks the (dB*k) x (dB*k) operators on the
    other factor.  For the conditional on the A side pass
    ``t4.transpose(1, 0, 3, 2)`` and B factors.
    """
    r, da, k = f.shape
    db = t4.shape[1]
    left = (f.conj().transpose(0, 2, 1) @ t4.reshape(da, -1)).reshape(r, k, db, da, db)
    out = left.transpose(0, 1, 2, 4, 3).reshape(r, k * db * db, da) @ f
    return out.reshape(r, k, db, db, k).transpose(0, 2, 1, 3, 4).reshape(r, db * k, db * k)


def partial_expectation(w: Operator, e: PureState, side: str = "A") -> Operator:
    """Expectation <e|W|e> over one factor, leaving an operator on the other.

    ``side`` names the factor ``e`` lives on: for side "A" the result acts on
    the B-side factor (dimension dB*kB) and vice versa.  Linear in W.
    """
    d = w.dims
    vec = e.amplitudes.reshape(1, -1, 1)
    if side == "A":
        if e.dims.a_dim != d.a_dim or e.dims.b_dim != 1:
            raise DimensionError("e must live on the A-side factor of W")
        return Operator(d.b_factor(), _conditional(w.as_tensor(), vec)[0])
    if side == "B":
        if e.dims.b_dim != d.b_dim or e.dims.a_dim != 1:
            raise DimensionError("e must live on the B-side factor of W")
        swapped = w.as_tensor().transpose(1, 0, 3, 2)
        return Operator(d.a_factor(), _conditional(swapped, vec)[0])
    raise ParameterError(f"side must be 'A' or 'B', got {side!r}")


def min_eigenpair(h: Operator) -> tuple[float, PureState]:
    """Smallest eigenvalue of an operator and a unit eigenvector."""
    w, v = np.linalg.eigh(h.matrix)
    vec = np.ascontiguousarray(v[:, 0])
    return float(w[0]), PureState(h.dims, vec)


def expectation(w: Operator, psi: PureState) -> float:
    """Real expectation value <psi|W|psi>.  A non-unit state enters squared,
    so the value can overflow a float although both inputs are in scale."""
    if w.dims != psi.dims:
        raise DimensionError(f"dims mismatch: {w.dims} vs {psi.dims}")
    value = float(np.vdot(psi.amplitudes, w.matrix @ psi.amplitudes).real)
    if not np.isfinite(value):
        raise ParameterError("expectation value overflows a float")
    return value


def trace_pair(w: Operator, rho: Operator) -> float:
    """Real trace Tr(W rho) of two operators."""
    if w.dims != rho.dims:
        raise DimensionError(f"dims mismatch: {w.dims} vs {rho.dims}")
    return float(np.sum(w.matrix * rho.matrix.T).real)


def partial_transpose(w: Operator, side: str = "B") -> Operator:
    """Transpose the indices of one full factor (system plus its ancilla)."""
    d = w.dims
    w4 = w.as_tensor()
    if side == "A":
        out = w4.transpose(2, 1, 0, 3)
    elif side == "B":
        out = w4.transpose(0, 3, 2, 1)
    else:
        raise ParameterError(f"side must be 'A' or 'B', got {side!r}")
    return Operator(d, out.reshape(d.total, d.total))
