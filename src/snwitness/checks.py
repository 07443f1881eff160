"""Seeded verification suites and the brute-force product-minimum oracle.

Each suite runs a batch of randomized trials of one of the structural
identities behind the embedding and reports the worst error; the CLI
``verify`` command is a thin wrapper around these.  Trials are drawn and
checked in blocks through the stacked kernels of ``hilbert``, ``families``
and ``embedding``, one seed per trial as in a trial-by-trial run.  The grid oracle is the
independent reference the see-saw optimizer is validated against at small
dimensions.
"""

from __future__ import annotations

import numpy as np

from .embedding import _lift_operator, _lift_states, _lower_states
from .errors import ParameterError
from .families import _random_hermitians, random_hermitian
from .hilbert import Dims, Operator, _random_pure_states
from .witness import OptimizerConfig, min_product_expectation


GRID_COARSE = (121, 240)  # (t, p) points of the first pass of grid_product_min
GRID_REFINEMENTS = 3  # local 41 x 41 passes around the best point after it


def grid_product_min(w: Operator) -> float:
    """Product minimum by dense enumeration of the A factor.

    For a two-dimensional A factor the unit vector is (cos t, sin t e^{ip});
    the B factor is solved exactly by eigendecomposition at every grid
    point, so the only discretization error is in (t, p) and is shrunk by
    local grid refinement.  Independent of the see-saw path.
    """
    d = w.dims
    if d.a_dim != 2:
        raise ParameterError("grid oracle requires a two-dimensional A factor")
    w4 = w.matrix.reshape(2, d.b_dim, 2, d.b_dim)

    def batch_min(thetas, phis):
        th, ph = np.meshgrid(thetas, phis, indexing="ij")
        amps = np.stack(
            [np.cos(th).ravel(), (np.sin(th) * np.exp(1j * ph)).ravel()], axis=1
        )
        mats = np.einsum("ni,iajb,nj->nab", amps.conj(), w4, amps)
        vals = np.linalg.eigvalsh(mats)[:, 0]
        i = int(np.argmin(vals))
        return float(vals[i]), float(th.ravel()[i]), float(ph.ravel()[i])

    n_t, n_p = GRID_COARSE
    thetas = np.linspace(0.0, np.pi / 2, n_t)
    phis = np.linspace(0.0, 2 * np.pi, n_p, endpoint=False)
    value, t0, p0 = batch_min(thetas, phis)
    dt = thetas[1] - thetas[0]
    dp = phis[1] - phis[0]
    for _ in range(GRID_REFINEMENTS):
        thetas = np.linspace(t0 - dt, t0 + dt, 41)
        phis = np.linspace(p0 - dp, p0 + dp, 41)
        value, t0, p0 = batch_min(thetas, phis)
        dt = thetas[1] - thetas[0]
        dp = phis[1] - phis[0]
    return value


BLOCK = 8
"""Trials of one ancilla dimension drawn and checked together by the
suites; each trial keeps its own seeds.  Blocks of 8 already share most of
the per-call cost of the stacked kernels, and keep the stacks small next to
one lifted operator."""


def _blocks(trials: int):
    """(k, ts): the trial numbers ts of each block, all with the same
    ancilla dimension k = 2 + t % 2."""
    for k in (2, 3):
        ts = np.arange(k - 2, trials, 2)
        for start in range(0, len(ts), BLOCK):
            yield k, ts[start : start + BLOCK]


def _random_ensembles(dims: Dims, max_rank: int, rng_seeds, member_seeds):
    """Weights (r, 3) and member amplitudes (r, 3, dims.total) of r random
    ensembles: generator ``rng_seeds[j]`` draws each member's weight in
    [0.1, 1) and rank in [1, max_rank], seed ``member_seeds[j][i]`` its state."""
    weights, ranks = [], []
    for rng_seed in rng_seeds:
        rng = np.random.default_rng(rng_seed)
        for _ in range(3):
            weights.append(float(rng.uniform(0.1, 1.0)))
            ranks.append(1 + int(rng.integers(max_rank)))
    states = _random_pure_states(dims, ranks, [s for seeds in member_seeds for s in seeds])
    r = len(rng_seeds)
    return np.reshape(weights, (r, 3)), states.reshape(r, 3, dims.total)


def _random_products(dims: Dims, seeds) -> np.ndarray:
    """Unit product states (r, dims.total): seed j draws a complex Gaussian
    A-side vector, then a B-side one."""
    factors = [np.empty((len(seeds), n), dtype=np.complex128) for n in (dims.a_dim, dims.b_dim)]
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for f in factors:
            f[row] = rng.normal(size=f.shape[1]) + 1j * rng.normal(size=f.shape[1])
    a, b = (f / np.linalg.norm(f, axis=1, keepdims=True) for f in factors)
    return (a[:, :, None] * b[:, None, :]).reshape(len(seeds), dims.total)


def _sandwich(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u_ri|X_r|w_ri> (r, m) for operators X (r, n, n) and vectors u, w (r, m, n)."""
    return np.sum(u.conj() * (w @ x.swapaxes(1, 2)), axis=2)


def _lifted_sandwich(dims: Dims, s: np.ndarray, k: int, u, w) -> np.ndarray:
    """``_sandwich`` of the lifted operators lift(S_r), lifted one trial at a
    time.  A lifted operator has (d k)^4 entries, far more than anything else
    a suite holds; a stack of them raised the peak RSS of the commands run
    after the suites in the same process."""
    return np.concatenate([
        _sandwich(_lift_operator(dims, s_r, k)[None], u_r[None], w_r[None])
        for s_r, u_r, w_r in zip(s, u, w)
    ])


def suite_identities(trials: int, seed: int, d: int) -> dict:
    """Expectation values survive the lift: <psi|S|psi> = <lift|lift(S)|lift>."""
    dims = Dims(d, d)
    errors = np.empty(trials)
    for k, ts in _blocks(trials):
        psi = _random_pure_states(dims, [1 + t % d for t in ts], [(seed, 1, t) for t in ts])
        s = _random_hermitians(dims, [(seed, 2, t) for t in ts])
        lifted = _lift_states(dims, psi, k)[0][:, None]
        psi = psi[:, None]
        lhs = _sandwich(s, psi, psi)
        rhs = _lifted_sandwich(dims, s, k, lifted, lifted)
        errors[ts] = np.abs(lhs - rhs)[:, 0]
    return _suite_report("identities", errors, tolerance=1e-9)


def suite_roundtrip(trials: int, seed: int, d: int) -> dict:
    """Lower inverts lift: ||lower(lift(psi)) - psi|| for rank <= k states."""
    dims = Dims(d, d)
    errors = np.empty(trials)
    for k, ts in _blocks(trials):
        ranks = [1 + t % min(k, d) for t in ts]
        psi = _random_pure_states(dims, ranks, [(seed, 3, t) for t in ts])
        back = _lower_states(dims.with_ancillas(k), _lift_states(dims, psi, k)[0])
        errors[ts] = np.linalg.norm(back - psi, axis=1)
    return _suite_report("roundtrip", errors, tolerance=1e-10)


def suite_trace(trials: int, seed: int, d: int) -> dict:
    """Trace pairings survive lifting and lowering of ensembles.

    Per trial, Tr(S rho) = Tr(lift(S) lift(rho-ensemble)) and
    Tr(lift(S) Theta) = Tr(S lower(Theta-ensemble)), each pairing of X with an
    ensemble taken as sum_i w_i <v_i|X|v_i> over its members."""
    dims = Dims(d, d)
    errors = np.empty((trials, 2))
    for k, ts in _blocks(trials):
        big = dims.with_ancillas(k)
        s = _random_hermitians(dims, [(seed, 5, t) for t in ts])
        w, v = _random_ensembles(
            dims, d, [(seed, 6, t) for t in ts],
            [[((seed, 6, t), 4, i) for i in range(3)] for t in ts],
        )
        big_w, big_v = _random_ensembles(
            big, big.a_dim, [(seed, 7, t) for t in ts],
            [[(seed, 8, t, i) for i in range(3)] for t in ts],
        )
        lifted = _lift_states(dims, v.reshape(-1, dims.total), k)[0].reshape(big_v.shape)
        lowered = _lower_states(big, big_v.reshape(-1, big.total)).reshape(v.shape)
        # members 0..2: the rho ensemble and its lift; 3..5: Theta and its lowering
        small = np.concatenate([v, lowered], axis=1)
        large = np.concatenate([lifted, big_v], axis=1)
        small = _sandwich(s, small, small).real
        large = _lifted_sandwich(dims, s, k, large, large).real
        errors[ts, 0] = np.abs(np.sum(w * (small[:, :3] - large[:, :3]), axis=1))
        errors[ts, 1] = np.abs(np.sum(big_w * (large[:, 3:] - small[:, 3:]), axis=1))
    return _suite_report("trace", errors.ravel(), tolerance=1e-9)


def suite_product_pairs(trials: int, seed: int, d: int) -> dict:
    """Matrix elements of the lifted operator between enlarged product states
    equal the source matrix elements between the lowered states."""
    dims = Dims(d, d)
    errors = np.empty(trials)
    for k, ts in _blocks(trials):
        big = dims.with_ancillas(k)
        s = _random_hermitians(dims, [(seed, 9, t) for t in ts])
        pairs = _random_products(big, [(seed, 10, t, j) for t in ts for j in (0, 1)])
        lowered = _lower_states(big, pairs).reshape(len(ts), 2, -1)
        pairs = pairs.reshape(len(ts), 2, -1)
        lhs = _lifted_sandwich(dims, s, k, pairs[:, :1], pairs[:, 1:])
        rhs = _sandwich(s, lowered[:, :1], lowered[:, 1:])
        errors[ts] = np.abs(lhs - rhs)[:, 0]
    return _suite_report("lemma5", errors, tolerance=1e-9)


def suite_oracle(trials: int, seed: int, dims: Dims, config: OptimizerConfig) -> dict:
    """See-saw product minimum against the dense grid oracle."""
    errors = []
    for t in range(trials):
        h = random_hermitian(dims, seed=(seed, 11, t))
        reference = grid_product_min(h)
        found = min_product_expectation(h, config).value
        errors.append(float(abs(found - reference)))
    return _suite_report("oracle", errors, tolerance=1e-4)


def _suite_report(name: str, errors, tolerance: float) -> dict:
    errors = [float(e) for e in errors]
    max_error = max(errors) if errors else 0.0
    return {
        "suite": name,
        "trials": len(errors),
        "maxError": max_error,
        "tolerance": tolerance,
        "pass": bool(max_error < tolerance),
        "perTrial": errors,
    }


SUITES = {
    "identities": suite_identities,
    "roundtrip": suite_roundtrip,
    "trace": suite_trace,
    "lemma5": suite_product_pairs,
    "oracle": suite_oracle,
}
