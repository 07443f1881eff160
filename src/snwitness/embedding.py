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
The lowering maps invert the construction: a product state |A>(x)|B| of the
enlarged space drops to sum_{l,m} F_lm lambda_l mu_m |a_l b_m> with
F_lm = sum_i <anc_i anc_i | c_l d_m>, and general states drop term-wise
through their Schmidt decomposition.  Lifted/lowered states are kept
unnormalized; every identity below is stated for the raw vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DimensionError, ParameterError
from .hilbert import (
    ANCILLA_A,
    ANCILLA_B,
    Dims,
    Operator,
    PureState,
    schmidt_decompose,
)

_TERM_TOL = 1e-12  # relative cutoff for Schmidt terms fed to the lowering maps


@dataclass(frozen=True)
class LiftedState:
    """A lifted pure state together with its block structure."""

    state: PureState
    source_rank: int
    block_count: int


@dataclass(frozen=True)
class LiftedOperator:
    """An operator on the enlarged space and the operator it was built from."""

    operator: Operator
    source: Operator


def lift_state(psi: PureState, k: int) -> LiftedState:
    """Embed ``psi`` into the space with ancilla dimension k on both sides."""
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
    out = np.zeros((d.dA, k, d.dB, k), dtype=np.complex128)
    for start in range(0, n, k):
        block = range(start, min(start + k, n))
        a_part = np.zeros((d.dA, k), dtype=np.complex128)
        b_part = np.zeros((d.dB, k), dtype=np.complex128)
        for i in block:
            a_part[:, i - start] = form.basis_a[i]
            b_part[:, i - start] = form.coefficients[i] * form.basis_b[i]
        out += np.einsum("as,bt->asbt", a_part, b_part)
    lifted = PureState(d.with_ancillas(k), out.ravel())
    return LiftedState(lifted, source_rank=n, block_count=-(-n // k))


def lift_operator(source: Operator, k: int) -> LiftedOperator:
    """Lift an operator to the enlarged space: sum_{s,t} S (x) |ss><tt|."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"ancilla dimension k must be a positive integer, got {k!r}")
    k = int(k)
    if not source.dims.unextended:
        raise DimensionError("lift_operator expects an operator without ancillas")
    d = source.dims
    s4 = source.matrix.reshape(d.dA, d.dB, d.dA, d.dB)
    eye = np.eye(k)
    anc = np.einsum("ab,cd->abcd", eye, eye)  # row ancillas equal, col ancillas equal
    big = np.einsum("ijlm,abcd->iajblcmd", s4, anc)
    dims = d.with_ancillas(k)
    matrix = big.reshape(dims.total, dims.total)
    return LiftedOperator(
        Operator(dims, matrix, hermitian=source.hermitian), source
    )


def _lower_terms(a_form, b_form, dims: Dims) -> np.ndarray:
    """Contract two internal Schmidt forms through the shared ancilla basis."""
    overlap = np.einsum("li,mi->lm", a_form.basis_b, b_form.basis_b)
    weighted_a = a_form.coefficients[:, None] * a_form.basis_a
    weighted_b = b_form.coefficients[:, None] * b_form.basis_a
    return np.einsum("la,lm,mb->ab", weighted_a, overlap, weighted_b).ravel()


def lower_product_state(a: PureState, b: PureState, k: int) -> PureState:
    """Map a product state of the enlarged space back to the original one.

    Both factors are Schmidt-decomposed across their internal
    (system | ancilla) split; the ancilla parts are paired through the
    shared computational basis.  The output Schmidt rank never exceeds k.
    """
    if a.dims.kA != k or a.dims.b_dim != 1:
        raise DimensionError(
            f"A factor must carry ancilla dimension {k}, got dims {a.dims}"
        )
    if b.dims.kB != k or b.dims.a_dim != 1:
        raise DimensionError(
            f"B factor must carry ancilla dimension {k}, got dims {b.dims}"
        )
    a_form = schmidt_decompose(a, cut=ANCILLA_A)
    b_form = schmidt_decompose(b, cut=ANCILLA_B)
    dims = Dims(a.dims.dA, b.dims.dB)
    return PureState(dims, _lower_terms(a_form, b_form, dims))


def lower_state(psi: PureState, k: int) -> PureState:
    """Map any pure state of the enlarged space back to the original one.

    The state is Schmidt-decomposed across the (A.anc | B.anc) split and
    each term is lowered like a product state, weighted by its coefficient.
    """
    d = psi.dims
    if d.kA != k or d.kB != k:
        raise DimensionError(
            f"state has ancilla dims ({d.kA}, {d.kB}), expected ({k}, {k})"
        )
    form = schmidt_decompose(psi)
    out = np.zeros(d.dA * d.dB, dtype=np.complex128)
    cutoff = _TERM_TOL * form.coefficients[0]
    for i, coef in enumerate(form.coefficients):
        if coef <= cutoff:
            break
        a = PureState(d.a_factor(), form.basis_a[i])
        b = PureState(d.b_factor(), form.basis_b[i])
        out += coef * lower_product_state(a, b, k).amplitudes
    return PureState(Dims(d.dA, d.dB), out)


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
    return dims


def lift_ensemble(ensemble: list[tuple[float, PureState]], k: int) -> Operator:
    """Weighted sum of projectors onto the lifted ensemble states.

    The result is deliberately unnormalized; it satisfies
    Tr(S rho) = Tr(lift(S) lift(rho-ensemble)) for any decomposition of rho.
    """
    dims = _check_ensemble(ensemble)
    out = np.zeros((dims.total * k * k,) * 2, dtype=np.complex128)
    for weight, state in ensemble:
        vec = lift_state(state, k).state.amplitudes
        out += weight * np.outer(vec, vec.conj())
    return Operator(dims.with_ancillas(k), out, hermitian=True)


def lower_ensemble(ensemble: list[tuple[float, PureState]], k: int) -> Operator:
    """Weighted sum of projectors onto the lowered ensemble states."""
    dims = _check_ensemble(ensemble)
    if dims.kA != k or dims.kB != k:
        raise DimensionError(
            f"ensemble states have ancilla dims ({dims.kA}, {dims.kB}), expected {k}"
        )
    small = Dims(dims.dA, dims.dB)
    out = np.zeros((small.total, small.total), dtype=np.complex128)
    for weight, state in ensemble:
        vec = lower_state(state, k).amplitudes
        out += weight * np.outer(vec, vec.conj())
    return Operator(small, out, hermitian=True)
