"""Seeded verification suites and the brute-force product-minimum oracle.

Each suite runs a batch of randomized trials of one of the structural
identities behind the embedding and reports the worst error; the CLI
``verify`` command is a thin wrapper around these.  The grid oracle is the
independent reference the see-saw optimizer is validated against at small
dimensions.
"""

from __future__ import annotations

import numpy as np

from .embedding import (
    lift_ensemble,
    lift_operator,
    lift_state,
    lower_ensemble,
    lower_state,
)
from .errors import ParameterError
from .hilbert import (
    Dims,
    Operator,
    PureState,
    product_state,
    random_pure_state,
    trace_pair,
)
from .families import random_hermitian
from .witness import OptimizerConfig, min_product_expectation


def grid_product_min(
    w: Operator, coarse: tuple[int, int] = (121, 240), refinements: int = 3
) -> float:
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

    n_t, n_p = coarse
    thetas = np.linspace(0.0, np.pi / 2, n_t)
    phis = np.linspace(0.0, 2 * np.pi, n_p, endpoint=False)
    value, t0, p0 = batch_min(thetas, phis)
    dt = thetas[1] - thetas[0]
    dp = phis[1] - phis[0]
    for _ in range(refinements):
        thetas = np.linspace(t0 - dt, t0 + dt, 41)
        phis = np.linspace(p0 - dp, p0 + dp, 41)
        value, t0, p0 = batch_min(thetas, phis)
        dt = thetas[1] - thetas[0]
        dp = phis[1] - phis[0]
    return value


def suite_identities(trials: int, seed: int, d: int = 3) -> dict:
    """Expectation values survive the lift: <psi|S|psi> = <lift|lift(S)|lift>."""
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
    return _suite_report("identities", errors, tolerance=1e-9)


def suite_roundtrip(trials: int, seed: int, d: int = 3) -> dict:
    """Lower inverts lift: ||lower(lift(psi)) - psi|| for rank <= k states."""
    dims = Dims(d, d)
    errors = []
    for t in range(trials):
        k = 2 + t % 2
        rank = 1 + t % k
        psi = random_pure_state(dims, rank, seed=(seed, 3, t))
        back = lower_state(lift_state(psi, k).state, k)
        errors.append(float(np.linalg.norm(back.amplitudes - psi.amplitudes)))
    return _suite_report("roundtrip", errors, tolerance=1e-10)


def _random_ensemble(dims: Dims, seed, count: int, max_rank: int):
    rng = np.random.default_rng(seed)
    ensemble = []
    for i in range(count):
        weight = float(rng.uniform(0.1, 1.0))
        rank = 1 + int(rng.integers(max_rank))
        ensemble.append((weight, random_pure_state(dims, rank, seed=(seed, 4, i))))
    return ensemble


def suite_trace(trials: int, seed: int, d: int = 3) -> dict:
    """Trace pairings survive lifting and lowering of ensembles."""
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
    return _suite_report("trace", errors, tolerance=1e-9)


def suite_product_pairs(trials: int, seed: int, d: int = 3) -> dict:
    """Matrix elements of the lifted operator between enlarged product states
    equal the source matrix elements between the lowered states."""
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
            a = PureState(big.a_factor(), a / np.linalg.norm(a), normalized=True)
            b = PureState(big.b_factor(), b / np.linalg.norm(b), normalized=True)
            pair.append(product_state(a, b))
        lowered = [lower_state(p, k) for p in pair]
        lhs = np.vdot(pair[0].amplitudes, lifted_s.matrix @ pair[1].amplitudes)
        rhs = np.vdot(lowered[0].amplitudes, s.matrix @ lowered[1].amplitudes)
        errors.append(float(abs(lhs - rhs)))
    return _suite_report("lemma5", errors, tolerance=1e-9)


def suite_oracle(
    trials: int, seed: int, dims: Dims = Dims(2, 2), config: OptimizerConfig | None = None
) -> dict:
    """See-saw product minimum against the dense grid oracle."""
    if config is None:
        config = OptimizerConfig(seed=seed, restarts=32)
    errors = []
    for t in range(trials):
        h = random_hermitian(dims, seed=(seed, 11, t))
        found = min_product_expectation(h, config).value
        reference = grid_product_min(h)
        errors.append(float(abs(found - reference)))
    return _suite_report("oracle", errors, tolerance=1e-4)


def _ensemble_operator(dims: Dims, ensemble) -> Operator:
    out = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for weight, state in ensemble:
        out += weight * np.outer(state.amplitudes, state.amplitudes.conj())
    return Operator._unchecked(dims, out, hermitian=True)  # unit-state projectors, weights in [0.1, 1]


def _suite_report(name: str, errors, tolerance: float) -> dict:
    max_error = max(errors) if errors else 0.0
    return {
        "suite": name,
        "trials": len(errors),
        "maxError": max_error,
        "tolerance": tolerance,
        "pass": bool(max_error < tolerance),
        "perTrial": [float(e) for e in errors],
    }


SUITES = {
    "identities": suite_identities,
    "roundtrip": suite_roundtrip,
    "trace": suite_trace,
    "lemma5": suite_product_pairs,
    "oracle": suite_oracle,
}
