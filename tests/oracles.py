"""Independent reference computations used to cross-check the library.

Everything here is deliberately written via a different route than the
implementation under test: partial traces instead of SVD, term-wise
Schmidt lowering instead of the direct ancilla contraction, eigenvalue
counting instead of Schmidt forms, a per-restart see-saw on the pencil
(one generalized eigenproblem per half-step) instead of Dinkelbach's
iteration on the batched see-saw kernel, one trial at a time through the
single-object maps instead of the stacked suites of ``snwitness.checks``,
a per-term phase loop instead of the stacked Schmidt kernel, two draws of
n normals per restart instead of one draw of 2n.  ``random_unit_hermitian``
(a Hermitian operator of unit Frobenius norm), ``congruent_isotropic``
(operators whose Schmidt levels lie in closed-form intervals) and
``starts_by_restart`` (the see-saw's start vectors) are the shared input
generators.
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


def starts_by_restart(config, n):
    """One unit start vector of length n per restart, each from its own
    generator ``default_rng((config.seed, r))``: n normals as real parts,
    then n as imaginary parts."""
    starts = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        starts.append(vec / np.sqrt(np.sum(vec.real**2 + vec.imag**2)))
    return np.array(starts)


def random_unit_hermitian(dims, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dims.total,) * 2) + 1j * rng.normal(size=(dims.total,) * 2)
    h = g + g.conj().T
    return Operator(dims, h / np.linalg.norm(h))


def congruent_isotropic(d, k, seed, cond=3.0):
    """S' = G^dagger W(a) G / Tr on d x d, with G = A (x) B invertible and W(a)
    the isotropic member halfway between the thresholds 1/(d l) of levels
    k - 1 and k, and each level's closed-form interval {l: (lo, hi)}.

    A and B are Q1 diag(geomspace(1, cond, d)) Q2 with Q1, Q2 unitary.  G
    maps the states of Schmidt rank <= l onto themselves, and
    <psi|S'|psi> = |G psi|^2 <phi|W|phi> / Tr with phi = G psi / |G psi|, so
    level l of S' lies between sigma_min(G)^2 m_l / Tr and
    sigma_max(G)^2 m_l / Tr, for m_l = (1/d^2 - a l/d)/(1 - a) the isotropic
    level: it has m_l's sign, and k is the order of S'."""
    rng = np.random.default_rng(seed)

    def unitary():
        return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]

    a_factor, b_factor = (unitary() @ np.diag(np.geomspace(1, cond, d)) @ unitary()
                          for _ in range(2))
    g = np.kron(a_factor, b_factor)
    a = (1 / (d * k) + 1 / (d * (k - 1))) / 2
    phi = np.eye(d).ravel() / np.sqrt(d)
    w = (np.eye(d * d) / d**2 - a * np.outer(phi, phi)) / (1 - a)
    m = g.conj().T @ w @ g
    tr = np.trace(m).real
    assert tr > 0, "a negative trace would flip every level's sign"
    sigma = np.linalg.svd(g, compute_uv=False)
    intervals = {}
    for level in range(1, d + 1):
        m_l = (1 / d**2 - a * level / d) / (1 - a)
        ends = sorted((sigma[-1] ** 2 * m_l / tr, sigma[0] ** 2 * m_l / tr))
        intervals[level] = tuple(ends)
    return Operator(Dims(d, d), (m + m.conj().T) / (2 * tr)), intervals


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
    states of Schmidt rank <= k.  A restart stops once its A half-step
    lowers the value by less than CONVERGENCE_TOL below the same
    iteration's B half-step, the library's rule.  Returns (best value,
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
        converged = False
        for _ in range(MAX_ITERS):
            value_b, b = _min_ratio(on_b(w4, a), on_b(n4, a))
            value, a = _min_ratio(on_a(w4, b), on_a(n4, b))
            if value_b - value < CONVERGENCE_TOL:
                converged = True
                break
        values.append(value)
        flags.append(converged)
    best = int(np.argmin(values))
    return values[best], values, flags[best]


def _pencil_extreme(p: np.ndarray, q: np.ndarray, largest: bool):
    """Extremal eigenpair of the quadratic-form ratio <v|P|v>/<v|Q|v>.

    Whitens by the pseudo-inverse square root of Q on its support.  Returns
    (value, vector); the value is None when Q has no support (a degenerate
    direction, skipped by the caller).
    """
    evals, evecs = np.linalg.eigh(q)
    scale = max(abs(float(evals[0])), abs(float(evals[-1])), 1e-300)
    support = evals > scale * 1e-10
    if not support.any():
        return None, None
    cols = evecs[:, support] / np.sqrt(evals[support])
    reduced = cols.conj().T @ p @ cols
    vals, vecs = np.linalg.eigh(reduced)
    idx = -1 if largest else 0
    vector = cols @ vecs[:, idx]
    return float(vals[idx]), vector / np.linalg.norm(vector)


def _pencil_seesaw(
    p4: np.ndarray, q4: np.ndarray, k: int, config: OptimizerConfig, largest: bool
):
    """Extremize <psi|P|psi>/<psi|Q|psi> over psi of Schmidt rank <= k by alternation.

    ``p4`` and ``q4`` are (dA, dB, dA, dB) tensors.  Each half-step solves the
    generalized eigenproblem for one rank-k factor with the other fixed, so
    the ratio is monotone along a run.  Returns the best ratio over restarts
    (None if every direction was degenerate).
    """
    da, db = p4.shape[0], p4.shape[1]
    p_swap, q_swap = p4.transpose(1, 0, 3, 2), q4.transpose(1, 0, 3, 2)
    best = None
    for start in starts_by_restart(config, da * k):
        a = start.reshape(1, da, k)
        value = None
        for _ in range(MAX_ITERS):
            val_b, b = _pencil_extreme(
                _conditional(p4, a)[0], _conditional(q4, a)[0], largest
            )
            if val_b is None:
                break
            b = b.reshape(1, db, k)
            val_a, a = _pencil_extreme(
                _conditional(p_swap, b)[0], _conditional(q_swap, b)[0], largest
            )
            if val_a is None:
                break
            a = a.reshape(1, da, k)
            value = val_a
            if abs(val_b - val_a) < CONVERGENCE_TOL:
                break
        if value is None:
            continue
        if best is None or (value > best if largest else value < best):
            best = value
    return best


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
        rank = 1 + t % min(k, d)
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
