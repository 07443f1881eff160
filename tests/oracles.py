"""Independent reference computations used to cross-check the library.

Everything here is deliberately written via a different route than the
implementation under test: partial traces instead of SVD, term-wise
Schmidt lowering instead of the direct ancilla contraction, eigenvalue
counting instead of Schmidt forms.  ``random_unit_hermitian`` is the one
shared input generator: a Hermitian operator of unit Frobenius norm.
"""

import numpy as np

from snwitness import Operator


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
