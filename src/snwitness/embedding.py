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
from .hilbert import Dims, Operator, PureState, schmidt_decompose


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


def lift_state(psi: PureState, k: int) -> LiftedState:
    """Embed ``psi`` into the space with ancilla dimension k on both sides.

    Schmidt term i goes to block i // k and ancilla slot i % k; the terms are
    zero-padded to whole blocks and all blocks are summed in one contraction.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"ancilla dimension k must be a positive integer, got {k!r}")
    k = int(k)
    if not psi.dims.unextended:
        raise DimensionError("lift_state expects a state without ancillas")
    if psi.norm() == 0.0:
        raise DegenerateStateError("cannot lift the zero vector")
    d = psi.dims
    form = schmidt_decompose(psi)
    n = form.rank
    blocks = -(-n // k)
    a_part = np.zeros((blocks * k, d.dA), dtype=np.complex128)
    b_part = np.zeros((blocks * k, d.dB), dtype=np.complex128)
    a_part[:n] = form.basis_a[:n]
    b_part[:n] = form.coefficients[:n, None] * form.basis_b[:n]
    out = np.einsum(
        "nsa,ntb->asbt", a_part.reshape(blocks, k, d.dA), b_part.reshape(blocks, k, d.dB)
    )
    lifted = PureState(d.with_ancillas(k), out.ravel())
    return LiftedState(lifted, source_rank=n, block_count=blocks)


def lift_operator(source: Operator, k: int) -> LiftedOperator:
    """Lift an operator to the enlarged space: sum_{s,t} S (x) |ss><tt|."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"ancilla dimension k must be a positive integer, got {k!r}")
    k = int(k)
    if not source.dims.unextended:
        raise DimensionError("lift_operator expects an operator without ancillas")
    d = source.dims
    s4 = source.matrix.reshape(d.dA, d.dB, d.dA, d.dB)
    # one copy of S wherever the row ancillas agree and the column ancillas agree
    big = np.zeros((d.dA, k, d.dB, k) * 2, dtype=np.complex128)
    for s in range(k):
        for t in range(k):
            big[:, s, :, s, :, t, :, t] = s4
    dims = d.with_ancillas(k)
    matrix = big.reshape(dims.total, dims.total)
    return LiftedOperator(Operator(dims, matrix, hermitian=source.hermitian))


def lower_state(psi: PureState, k: int) -> PureState:
    """Map any pure state of the enlarged space back: sum_s psi[a,s,b,s]."""
    d = psi.dims
    if d.kA != k or d.kB != k:
        raise DimensionError(
            f"state has ancilla dims ({d.kA}, {d.kB}), expected ({k}, {k})"
        )
    if psi.norm() == 0.0:
        raise DegenerateStateError("cannot lower the zero vector")
    return PureState(Dims(d.dA, d.dB), np.einsum("asbs->ab", psi.as_tensor()).ravel())


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
    return Operator(small, out, hermitian=op.hermitian)


def _check_ensemble(ensemble):
    if not ensemble:
        raise ParameterError("ensemble must contain at least one state")
    dims = ensemble[0][1].dims
    for weight, state in ensemble:
        if weight < 0:
            raise ParameterError(f"ensemble weights must be >= 0, got {weight}")
        if state.dims != dims:
            raise DimensionError("all ensemble states must share the same dims")
        if state.norm() == 0.0:
            raise DegenerateStateError("ensemble states must be nonzero")
    return dims


def _projector_sum(ensemble, vectors: np.ndarray) -> np.ndarray:
    """sum_i w_i |v_i><v_i| = V^T diag(w) conj(V) over stacked rows v_i, as the
    Gram product X^T conj(X) of X = diag(sqrt w) V, which is exactly Hermitian."""
    weights = np.array([weight for weight, _ in ensemble], dtype=np.float64)
    scaled = np.sqrt(weights)[:, None] * vectors
    return scaled.T @ scaled.conj()


def lift_ensemble(ensemble: list[tuple[float, PureState]], k: int) -> Operator:
    """Weighted sum of projectors onto the lifted ensemble states.

    The result is deliberately unnormalized; it satisfies
    Tr(S rho) = Tr(lift(S) lift(rho-ensemble)) for any decomposition of rho.
    """
    dims = _check_ensemble(ensemble)
    lifted = np.stack([lift_state(state, k).state.amplitudes for _, state in ensemble])
    return Operator(dims.with_ancillas(k), _projector_sum(ensemble, lifted), hermitian=True)


def lower_ensemble(ensemble: list[tuple[float, PureState]], k: int) -> Operator:
    """Weighted sum of projectors onto the lowered ensemble states.

    All members are lowered by one batched contraction sum_s psi_n[a,s,b,s].
    """
    dims = _check_ensemble(ensemble)
    if dims.kA != k or dims.kB != k:
        raise DimensionError(
            f"ensemble states have ancilla dims ({dims.kA}, {dims.kB}), expected {k}"
        )
    stacked = np.stack([state.as_tensor() for _, state in ensemble])
    lowered = np.einsum("nasbs->nab", stacked).reshape(len(ensemble), -1)
    return Operator(Dims(dims.dA, dims.dB), _projector_sum(ensemble, lowered), hermitian=True)
