"""Embedding of bipartite states and operators into an ancilla-extended space.

The lifting map sends a pure state with Schmidt terms lambda_i |a_i b_i> to

    sum_blocks ( sum_{i in block} |a_i>|anc_i> ) (x)
               ( sum_{j in block} lambda_j |b_j>|anc_j> )

where the Schmidt terms are grouped into consecutive blocks of size k (the
last block may be smaller) and anc_i is the computational ancilla basis
vector for the position of i inside its block.  States of Schmidt rank <= k
therefore become product states across the enlarged (A.anc | B.anc) split.

Operators lift as S -> sum_{s,t} S (x) |ss><tt| (ancilla indices reordered
into the global convention), which ties product-state positivity in the
enlarged space to positivity on bounded-Schmidt-rank states downstairs.
Lowering is one linear contraction of the two ancillas against
sum_s |ss>: a state lowers to psi[a,b] = sum_s psi[a,s,b,s], an operator to
sum_{s,t} M[(a,s,b,s),(c,t,d,t)], and an ensemble to the weighted sum of
projectors onto its lowered members.  Lifted/lowered states are kept
unnormalized; every identity below is stated for the raw vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DimensionError, ParameterError
from .hilbert import Dims, Operator, PureState, _schmidt_terms


@dataclass(frozen=True)
class LiftedState:
    """A lifted pure state together with its block structure."""

    state: PureState
    source_rank: int
    block_count: int


@dataclass(frozen=True)
class LiftedOperator:
    """A lifted operator on the enlarged space."""

    operator: Operator


def _ancilla_dim(k) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"ancilla dimension k must be a positive integer, got {k!r}")
    return int(k)


def lift_state(psi: PureState, k: int) -> LiftedState:
    """Embed ``psi`` into the space with ancilla dimension k on both sides.

    Schmidt term i goes to block i // k and ancilla slot i % k; the terms are
    zero-padded to whole blocks and all blocks are summed in one contraction.
    One row of ``_lift_states``.
    """
    if psi.norm() == 0.0:
        raise DegenerateStateError("cannot lift the zero vector")
    lifted, ranks = _lift_states(psi.dims, psi.amplitudes[None], k)
    n = int(ranks[0])
    state = PureState(psi.dims.with_ancillas(k), lifted[0])
    return LiftedState(state, source_rank=n, block_count=-(-n // int(k)))


def _lift_states(dims: Dims, amplitudes: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """Lifted amplitudes (r, total of the enlarged dims) of a stack of
    nonzero states (r, dims.total), and their Schmidt ranks.

    Every row is padded with zero terms to the block count of the largest
    rank in the stack; a zero term adds exact zeros to the sum.
    """
    k = _ancilla_dim(k)
    if not dims.unextended:
        raise DimensionError("lift_state expects a state without ancillas")
    r = len(amplitudes)
    coef, basis_a, basis_b, ranks = _schmidt_terms(amplitudes.reshape(r, dims.dA, dims.dB))
    blocks = -(-int(ranks.max()) // k)
    used = min(blocks * k, coef.shape[1])
    kept = (np.arange(used) < ranks[:, None])[..., None]
    a_part = np.zeros((r, blocks * k, dims.dA), dtype=np.complex128)
    b_part = np.zeros((r, blocks * k, dims.dB), dtype=np.complex128)
    a_part[:, :used] = np.where(kept, basis_a[:, :used], 0)
    b_part[:, :used] = np.where(kept, coef[:, :used, None] * basis_b[:, :used], 0)
    out = np.einsum(
        "rnsa,rntb->rasbt",
        a_part.reshape(r, blocks, k, dims.dA),
        b_part.reshape(r, blocks, k, dims.dB),
    )
    return out.reshape(r, -1), ranks


def lift_operator(source: Operator, k: int) -> LiftedOperator:
    """Lift an operator to the enlarged space: sum_{s,t} S (x) |ss><tt|.
    One row of ``_lift_operators``."""
    matrix = _lift_operators(source.dims, source.matrix[None], k)[0]
    dims = source.dims.with_ancillas(k)
    # copies of the validated S: finite, and exactly as Hermitian as S
    return LiftedOperator(Operator._unchecked(dims, matrix))


def _lift_operators(dims: Dims, matrices: np.ndarray, k) -> np.ndarray:
    """Lifted matrices (r, N, N) of a stack of operators (r, dims.total,
    dims.total): one copy of S wherever the row ancillas agree and the column
    ancillas agree."""
    k = _ancilla_dim(k)
    if not dims.unextended:
        raise DimensionError("lift_operator expects an operator without ancillas")
    r = len(matrices)
    s4 = matrices.reshape(r, dims.dA, dims.dB, dims.dA, dims.dB)
    big = np.zeros((r,) + (dims.dA, k, dims.dB, k) * 2, dtype=np.complex128)
    for s in range(k):
        for t in range(k):
            big[:, :, s, :, s, :, t, :, t] = s4
    n = dims.with_ancillas(k).total
    return big.reshape(r, n, n)


def lower_state(psi: PureState, k: int) -> PureState:
    """Map any pure state of the enlarged space back: sum_s psi[a,s,b,s].
    One row of ``_lower_states``."""
    d = psi.dims
    if d.kA != k or d.kB != k:
        raise DimensionError(
            f"state has ancilla dims ({d.kA}, {d.kB}), expected ({k}, {k})"
        )
    if psi.norm() == 0.0:
        raise DegenerateStateError("cannot lower the zero vector")
    return PureState(Dims(d.dA, d.dB), _lower_states(d, psi.amplitudes[None])[0])


def _lower_states(dims: Dims, amplitudes: np.ndarray) -> np.ndarray:
    """Lowered amplitudes (r, dA*dB) of a stack (r, dims.total) of
    enlarged-space states with equal ancilla dimensions."""
    r = len(amplitudes)
    t = amplitudes.reshape(r, dims.dA, dims.kA, dims.dB, dims.kB)
    return np.einsum("rasbs->rab", t).reshape(r, -1)


def lower_operator(op: Operator, k: int) -> Operator:
    """Linear lowering of an enlarged-space operator: sum_{s,t} op[(a,s,b,s),(c,t,d,t)].

    For a weighted sum of projectors this equals ``lower_ensemble`` of the
    ensemble; no eigendecomposition is involved, so any operator lowers.
    """
    d = op.dims
    if d.kA != k or d.kB != k:
        raise DimensionError(
            f"operator has ancilla dims ({d.kA}, {d.kB}), expected ({k}, {k})"
        )
    t8 = op.matrix.reshape(d.dA, k, d.dB, k, d.dA, k, d.dB, k)
    small = Dims(d.dA, d.dB)
    out = np.einsum("asbsctdt->abcd", t8).reshape(small.total, small.total)
    return Operator(small, out)


def _check_ensemble(ensemble):
    if not ensemble:
        raise ParameterError("ensemble must contain at least one state")
    dims = ensemble[0][1].dims
    for weight, state in ensemble:
        if not (np.isfinite(weight) and weight >= 0):
            raise ParameterError(f"ensemble weights must be finite and >= 0, got {weight}")
        if state.dims != dims:
            raise DimensionError("all ensemble states must share the same dims")
        if state.norm() == 0.0:
            raise DegenerateStateError("ensemble states must be nonzero")
    return dims


def _projector_sum(ensemble, vectors: np.ndarray, dims: Dims) -> Operator:
    """sum_i w_i |v_i><v_i| = V^T diag(w) conj(V) over stacked rows v_i, as the
    Gram product X^T conj(X) of X = diag(sqrt w) V.  That is Hermitian up to
    the rounding of the product: exactly on some BLAS kernels, within a few
    ulps of the largest entry on others (OpenBLAS at odd sizes)."""
    weights = np.array([weight for weight, _ in ensemble], dtype=np.float64)
    scaled = np.sqrt(weights)[:, None] * vectors
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        out = scaled.T @ scaled.conj()
    if not np.isfinite(out).all():
        raise ParameterError("ensemble projector sum has non-finite entries")
    return Operator._unchecked(dims, out)


def lift_ensemble(ensemble: list[tuple[float, PureState]], k: int) -> Operator:
    """Weighted sum of projectors onto the lifted ensemble states.

    The result is deliberately unnormalized; it satisfies
    Tr(S rho) = Tr(lift(S) lift(rho-ensemble)) for any decomposition of rho.
    """
    dims = _check_ensemble(ensemble)
    lifted, _ = _lift_states(dims, np.stack([state.amplitudes for _, state in ensemble]), k)
    return _projector_sum(ensemble, lifted, dims.with_ancillas(k))


def lower_ensemble(ensemble: list[tuple[float, PureState]], k: int) -> Operator:
    """Weighted sum of projectors onto the lowered ensemble states.

    All members are lowered by one batched contraction sum_s psi_n[a,s,b,s].
    """
    dims = _check_ensemble(ensemble)
    if dims.kA != k or dims.kB != k:
        raise DimensionError(
            f"ensemble states have ancilla dims ({dims.kA}, {dims.kB}), expected {k}"
        )
    lowered = _lower_states(dims, np.stack([state.amplitudes for _, state in ensemble]))
    return _projector_sum(ensemble, lowered, Dims(dims.dA, dims.dB))
