"""Independent reference computations used to cross-check the library.

Everything here is deliberately written via a different route than the
implementation under test: partial traces instead of SVD, term-wise
Schmidt lowering instead of the direct ancilla contraction, eigenvalue
counting instead of Schmidt forms, one per-restart loop per pencil
instead of the batched see-saw kernel.  ``random_unit_hermitian`` is the
one shared input generator: a Hermitian operator of unit Frobenius norm.
"""

import numpy as np

from snwitness import Operator, OptimizerConfig
from snwitness.hilbert import _conditional
from snwitness.witness import _starts


def random_unit_hermitian(dims, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dims.total,) * 2) + 1j * rng.normal(size=(dims.total,) * 2)
    h = g + g.conj().T
    return Operator(dims, h / np.linalg.norm(h), hermitian=True)


def reduced_density_a(state):
    """Tr_B |psi><psi| over the (A.anc | B.anc) split."""
    d = state.dims
    m = state.amplitudes.reshape(d.a_dim, d.b_dim)
    return m @ m.conj().T


def reduced_density_b(state):
    d = state.dims
    m = state.amplitudes.reshape(d.a_dim, d.b_dim)
    return m.T @ m.conj()


def rank_from_reduced(state, tol=1e-8):
    """Schmidt rank via eigenvalues of the reduced operator."""
    evals = np.linalg.eigvalsh(reduced_density_a(state))
    return int(np.sum(evals > tol * evals[-1]))


def contract_ancillas(state, k):
    """Direct lowering oracle: sum_s <s s| applied to the two ancillas."""
    d = state.dims
    t = state.amplitudes.reshape(d.dA, k, d.dB, k)
    return np.einsum("asbs->ab", t).ravel()


def lower_state_by_schmidt(state, k):
    """Lowering term by term: Schmidt-decompose across the (A.anc | B.anc)
    split, split each term's factors again across (system | ancilla) and pair
    the ancilla parts through the shared computational basis."""
    d = state.dims
    u, coefs, vh = np.linalg.svd(
        state.amplitudes.reshape(d.dA * k, d.dB * k), full_matrices=False
    )
    out = np.zeros((d.dA, d.dB), dtype=complex)
    for coef, a, b in zip(coefs, u.T, vh):
        if coef <= 1e-12 * coefs[0]:
            break
        ua, sa, va = np.linalg.svd(a.reshape(d.dA, k), full_matrices=False)
        ub, sb, vb = np.linalg.svd(b.reshape(d.dB, k), full_matrices=False)
        out += coef * (ua * sa) @ (va @ vb.T) @ (ub * sb).T
    return out.ravel()


def lower_operator_by_isometry(matrix, dA, dB, k):
    """Operator lowering as V^T M V with V = sum_s 1 (x) |s> (x) 1 (x) |s>."""
    v = np.zeros((dA, k, dB, k, dA, dB))
    for s in range(k):
        v[:, s, :, s, :, :] = np.einsum("ac,bd->abcd", np.eye(dA), np.eye(dB))
    v = v.reshape(dA * k * dB * k, dA * dB)
    return v.T @ matrix @ v


def lift_operator_by_einsum(matrix, dA, dB, k):
    """Operator lifting as one 8-index contraction of S with the ancilla
    pattern delta_ab delta_cd: sum_{s,t} S (x) |ss><tt|."""
    eye = np.eye(k)
    anc = np.einsum("ab,cd->abcd", eye, eye)
    big = np.einsum("ijlm,abcd->iajblcmd", matrix.reshape(dA, dB, dA, dB), anc)
    return big.reshape(dA * k * dB * k, dA * k * dB * k)


def _min_ratio(p, q):
    """Smallest eigenpair of the pencil (P, Q) for positive definite Q, by
    Cholesky whitening: P v = lambda Q v with <v|Q|v> = 1."""
    chol = np.linalg.cholesky(q)
    inv = np.linalg.inv(chol)
    vals, vecs = np.linalg.eigh(inv @ p @ inv.conj().T)
    return float(vals[0]), inv.conj().T @ vecs[:, 0]


def lifted_seesaw_min(s, k, config):
    """Rank-k minimum the lifted way: lift S and the identity, then one
    normalized see-saw per restart.

    Each restart alternates exact half-steps from the library's start
    vectors (seed (config.seed, r)).  A half-step fixes one factor of the
    lifted product state |a, b> and minimizes the ratio
    <a,b|lift(S)|a,b> / <a,b|lift(I)|a,b> over the other, as the generalized
    eigenproblem of the two conditional operators; the denominator is
    <psi|psi> for the lowered state psi, so this is the minimum over unit
    states of Schmidt rank <= k.  A restart stops once an iteration lowers
    the value by less than config.convergence_tol.  Returns (best value,
    per-restart values, converged flag of the best).
    """
    from snwitness import Operator, lift_operator

    identity = Operator(s.dims, np.eye(s.dims.total), hermitian=True)
    d = s.dims.with_ancillas(k)
    shape = (d.a_dim, d.b_dim, d.a_dim, d.b_dim)
    w4 = lift_operator(s, k).operator.matrix.reshape(shape)
    n4 = lift_operator(identity, k).operator.matrix.reshape(shape)

    def on_b(t4, a):
        return np.tensordot(np.tensordot(a.conj(), t4, axes=(0, 0)), a, axes=(1, 0))

    def on_a(t4, b):
        t = np.tensordot(t4, b, axes=(3, 0)).transpose(1, 0, 2)
        return np.tensordot(b.conj(), t, axes=(0, 0))

    values, flags = [], []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        a = rng.normal(size=d.a_dim) + 1j * rng.normal(size=d.a_dim)
        a /= np.linalg.norm(a)
        prev, converged = np.inf, False
        for _ in range(config.max_iters):
            _, b = _min_ratio(on_b(w4, a), on_b(n4, a))
            value, a = _min_ratio(on_a(w4, b), on_a(n4, b))
            if prev - value < config.convergence_tol:
                converged = True
                break
            prev = value
        values.append(value)
        flags.append(converged)
    best = int(np.argmin(values))
    return values[best], values, flags[best]


def _pencil_extreme(p: np.ndarray, q: np.ndarray, largest: bool):
    """Extremal eigenpair of the quadratic-form ratio <v|P|v>/<v|Q|v>.

    Whitens by the pseudo-inverse square root of Q on its support.  Returns
    (value, vector, negative_on_kernel); the value is None when Q has no
    support (a degenerate direction, skipped by the caller).
    """
    evals, evecs = np.linalg.eigh(q)
    scale = max(abs(float(evals[0])), abs(float(evals[-1])), 1e-300)
    support = evals > scale * 1e-10
    negative_on_kernel = False
    if not support.all():
        kernel = evecs[:, ~support]
        overlap = kernel.conj().T @ p @ kernel
        if overlap.size and float(np.linalg.eigvalsh(overlap)[0]) < -scale * 1e-8:
            negative_on_kernel = True
    if not support.any():
        return None, None, negative_on_kernel
    cols = evecs[:, support] / np.sqrt(evals[support])
    reduced = cols.conj().T @ p @ cols
    vals, vecs = np.linalg.eigh(reduced)
    idx = -1 if largest else 0
    vector = cols @ vecs[:, idx]
    return float(vals[idx]), vector / np.linalg.norm(vector), negative_on_kernel


def _pencil_seesaw(
    p4: np.ndarray, q4: np.ndarray, k: int, config: OptimizerConfig, largest: bool
):
    """Extremize <psi|P|psi>/<psi|Q|psi> over psi of Schmidt rank <= k by alternation.

    ``p4`` and ``q4`` are (dA, dB, dA, dB) tensors.  Each half-step solves the
    generalized eigenproblem for one rank-k factor with the other fixed, so
    the ratio is monotone along a run.  Returns the best ratio over restarts
    (None if every direction was degenerate) and whether P was found
    negative on the kernel of Q anywhere.
    """
    da, db = p4.shape[0], p4.shape[1]
    p_swap, q_swap = p4.transpose(1, 0, 3, 2), q4.transpose(1, 0, 3, 2)
    best = None
    kernel_flag = False
    for start in _starts(config, da * k, 104729):
        a = start.reshape(1, da, k)
        value = None
        prev = None
        for _ in range(config.max_iters):
            val_b, b, neg = _pencil_extreme(
                _conditional(p4, a)[0], _conditional(q4, a)[0], largest
            )
            kernel_flag = kernel_flag or neg
            if val_b is None:
                break
            b = b.reshape(1, db, k)
            val_a, a, neg = _pencil_extreme(
                _conditional(p_swap, b)[0], _conditional(q_swap, b)[0], largest
            )
            kernel_flag = kernel_flag or neg
            if val_a is None:
                break
            a = a.reshape(1, da, k)
            value = val_a
            if prev is not None and abs(prev - value) < config.convergence_tol:
                break
            prev = value
        if value is None:
            continue
        if best is None or (value > best if largest else value < best):
            best = value
    return best, kernel_flag
