"""Independent reference computations used to cross-check the library.

Everything here is deliberately written via a different route than the
implementation under test: partial traces instead of SVD, term-wise
Schmidt lowering instead of the direct ancilla contraction, eigenvalue
counting instead of Schmidt forms, one per-restart loop per pencil
instead of the batched see-saw kernel, one trial at a time through the
single-object maps instead of the stacked suites of ``snwitness.checks``,
a per-term phase loop instead of the stacked Schmidt kernel, one generator
per restart instead of the cached start draws.  ``random_unit_hermitian``
(a Hermitian operator of unit Frobenius norm) and ``starts_by_restart``
(the see-saw's start vectors) are the shared input generators.
"""

import numpy as np

from snwitness import (
    Dims,
    Operator,
    OptimizerConfig,
    PureState,
    lift_ensemble,
    lift_operator,
    lift_state,
    lower_ensemble,
    lower_state,
    product_state,
    random_hermitian,
    random_pure_state,
    trace_pair,
)
from snwitness.hilbert import DEFAULT_RANK_TOL, _conditional
from snwitness.witness import CONVERGENCE_TOL, MAX_ITERS


def starts_by_restart(config, n, *salt):
    """One unit start vector of length n per restart, each from its own
    generator ``default_rng((config.seed, *salt, r))``: n normals as real
    parts, then n as imaginary parts."""
    starts = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, *salt, r))
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        starts.append(vec / np.linalg.norm(vec))
    return np.array(starts)


def random_unit_hermitian(dims, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dims.total,) * 2) + 1j * rng.normal(size=(dims.total,) * 2)
    h = g + g.conj().T
    return Operator(dims, h / np.linalg.norm(h))


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
    the value by less than CONVERGENCE_TOL.  Returns (best value,
    per-restart values, converged flag of the best).
    """
    identity = Operator(s.dims, np.eye(s.dims.total))
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
    for a in starts_by_restart(config, d.a_dim):
        prev, converged = np.inf, False
        for _ in range(MAX_ITERS):
            _, b = _min_ratio(on_b(w4, a), on_b(n4, a))
            value, a = _min_ratio(on_a(w4, b), on_a(n4, b))
            if prev - value < CONVERGENCE_TOL:
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
    for start in starts_by_restart(config, da * k, 104729):
        a = start.reshape(1, da, k)
        value = None
        prev = None
        for _ in range(MAX_ITERS):
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
            if prev is not None and abs(prev - value) < CONVERGENCE_TOL:
                break
            prev = value
        if value is None:
            continue
        if best is None or (value > best if largest else value < best):
            best = value
    return best, kernel_flag


def schmidt_by_term_loop(psi):
    """Schmidt decomposition with the phase fixed term by term:
    (coefficients, basis_a, basis_b, rank), each left vector's first entry of
    modulus > 1e-12 made real non-negative by the scalar lead / abs(lead)."""
    u, s, vh = np.linalg.svd(
        psi.amplitudes.reshape(psi.dims.a_dim, psi.dims.b_dim), full_matrices=False
    )
    basis_a = u.T.copy()
    basis_b = vh.copy()
    for i in range(len(s)):
        sig = np.nonzero(np.abs(basis_a[i]) > 1e-12)[0]
        if sig.size:
            lead = basis_a[i][sig[0]]
            phase = lead / abs(lead)
            basis_a[i] = basis_a[i] / phase
            basis_b[i] = basis_b[i] * phase
    return s, basis_a, basis_b, int(np.sum(s > DEFAULT_RANK_TOL * s[0]))


# The verify suites one trial at a time: the same seeds and draws as
# ``snwitness.checks``, each identity evaluated on built operators.  Each
# returns the per-trial errors.


def identities_by_trial(trials, seed, d):
    dims = Dims(d, d)
    errors = []
    for t in range(trials):
        k = 2 + t % 2
        rank = 1 + t % d
        psi = random_pure_state(dims, rank, seed=(seed, 1, t))
        s = random_hermitian(dims, seed=(seed, 2, t))
        lifted_psi = lift_state(psi, k).state
        lifted_s = lift_operator(s, k).operator
        lhs = np.vdot(psi.amplitudes, s.matrix @ psi.amplitudes)
        rhs = np.vdot(lifted_psi.amplitudes, lifted_s.matrix @ lifted_psi.amplitudes)
        errors.append(float(abs(lhs - rhs)))
    return errors


def roundtrip_by_trial(trials, seed, d):
    dims = Dims(d, d)
    errors = []
    for t in range(trials):
        k = 2 + t % 2
        rank = 1 + t % k
        psi = random_pure_state(dims, rank, seed=(seed, 3, t))
        back = lower_state(lift_state(psi, k).state, k)
        errors.append(float(np.linalg.norm(back.amplitudes - psi.amplitudes)))
    return errors


def _random_ensemble(dims, seed, count, max_rank):
    rng = np.random.default_rng(seed)
    ensemble = []
    for i in range(count):
        weight = float(rng.uniform(0.1, 1.0))
        rank = 1 + int(rng.integers(max_rank))
        ensemble.append((weight, random_pure_state(dims, rank, seed=(seed, 4, i))))
    return ensemble


def _ensemble_operator(dims, ensemble):
    out = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for weight, state in ensemble:
        out += weight * np.outer(state.amplitudes, state.amplitudes.conj())
    return Operator(dims, out)


def trace_by_trial(trials, seed, d):
    dims = Dims(d, d)
    errors = []
    for t in range(trials):
        k = 2 + t % 2
        s = random_hermitian(dims, seed=(seed, 5, t))
        ensemble = _random_ensemble(dims, (seed, 6, t), count=3, max_rank=d)
        rho = _ensemble_operator(dims, ensemble)
        lifted_s = lift_operator(s, k).operator
        gamma = lift_ensemble(ensemble, k)
        errors.append(abs(trace_pair(s, rho) - trace_pair(lifted_s, gamma)))

        big_dims = dims.with_ancillas(k)
        big_ensemble = []
        rng = np.random.default_rng((seed, 7, t))
        for i in range(3):
            weight = float(rng.uniform(0.1, 1.0))
            rank = 1 + int(rng.integers(big_dims.a_dim))
            big_ensemble.append(
                (weight, random_pure_state(big_dims, rank, seed=(seed, 8, t, i)))
            )
        theta_big = _ensemble_operator(big_dims, big_ensemble)
        theta = lower_ensemble(big_ensemble, k)
        errors.append(abs(trace_pair(lifted_s, theta_big) - trace_pair(s, theta)))
    return errors


def product_pairs_by_trial(trials, seed, d):
    dims = Dims(d, d)
    errors = []
    for t in range(trials):
        k = 2 + t % 2
        big = dims.with_ancillas(k)
        s = random_hermitian(dims, seed=(seed, 9, t))
        lifted_s = lift_operator(s, k).operator
        pair = []
        for j in (0, 1):
            rng = np.random.default_rng((seed, 10, t, j))
            a = rng.normal(size=big.a_dim) + 1j * rng.normal(size=big.a_dim)
            b = rng.normal(size=big.b_dim) + 1j * rng.normal(size=big.b_dim)
            a = PureState(big.a_factor(), a / np.linalg.norm(a))
            b = PureState(big.b_factor(), b / np.linalg.norm(b))
            pair.append(product_state(a, b))
        lowered = [lower_state(p, k) for p in pair]
        lhs = np.vdot(pair[0].amplitudes, lifted_s.matrix @ pair[1].amplitudes)
        rhs = np.vdot(lowered[0].amplitudes, s.matrix @ lowered[1].amplitudes)
        errors.append(float(abs(lhs - rhs)))
    return errors


SUITES_BY_TRIAL = {
    "identities": identities_by_trial,
    "roundtrip": roundtrip_by_trial,
    "trace": trace_by_trial,
    "lemma5": product_pairs_by_trial,
}
