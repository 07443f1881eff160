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


def lifted_seesaw_min(s, k, config):
    """Rank-k minimum the pre-kernel way: lift S, then one see-saw per restart.

    Each restart runs alternating exact half-steps on the lifted operator
    from the library's start vectors (seed (config.seed, r)) and stops once
    an iteration lowers the value by less than config.convergence_tol.
    Returns (best value, per-restart values, converged flag of the best).
    """
    from snwitness import lift_operator

    big = lift_operator(s, k).operator
    d = big.dims
    w4 = big.matrix.reshape(d.a_dim, d.b_dim, d.a_dim, d.b_dim)
    values, flags = [], []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        a = rng.normal(size=d.a_dim) + 1j * rng.normal(size=d.a_dim)
        a /= np.linalg.norm(a)
        prev, converged = np.inf, False
        for _ in range(config.max_iters):
            cond_b = np.tensordot(np.tensordot(a.conj(), w4, axes=(0, 0)), a, axes=(1, 0))
            b = np.linalg.eigh(cond_b)[1][:, 0]
            t = np.tensordot(w4, b, axes=(3, 0)).transpose(1, 0, 2)
            vals, vecs = np.linalg.eigh(np.tensordot(b.conj(), t, axes=(0, 0)))
            a, value = vecs[:, 0], float(vals[0])
            if prev - value < config.convergence_tol:
                converged = True
                break
            prev = value
        values.append(value)
        flags.append(converged)
    best = int(np.argmin(values))
    return values[best], values, flags[best]
