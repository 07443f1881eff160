"""Independent reference computations used to cross-check the library.

Everything here is deliberately written via a different route than the
implementation under test: partial traces instead of SVD, direct ancilla
contraction instead of term-wise lowering, eigenvalue counting instead of
Schmidt forms.
"""

import numpy as np


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
