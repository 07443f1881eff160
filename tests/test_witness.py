"""Tests for product-state minimization, classification and refinement."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import _pencil_seesaw, lifted_seesaw_min, random_unit_hermitian, starts_by_restart
import snwitness.witness as witness
from snwitness import (
    DimensionError,
    Dims,
    NotHermitianError,
    Operator,
    OptimizerConfig,
    ParameterError,
    PreconditionError,
    PureState,
    classify_schmidt_witness,
    detects,
    expectation,
    finer_certificate,
    is_entanglement_witness,
    lambda_max_subtraction,
    lift_operator,
    make_isotropic_witness,
    maximally_entangled_state,
    min_eigenpair,
    min_product_expectation,
    optimality_certificate,
    random_hermitian,
    random_pure_state,
    refine_by_subtraction,
    schmidt_rank,
    threshold_scan,
    trace_pair,
)
from snwitness.families import IsotropicWitnessSpec
from snwitness.witness import POSITIVE, SCHMIDT_WITNESS

D33 = Dims(3, 3)
CFG = OptimizerConfig(seed=7, restarts=24)


def isotropic(a, d=3):
    return make_isotropic_witness(IsotropicWitnessSpec(a, d))


def identity_over_nine():
    return Operator(D33, np.eye(9) / 9)


def bell_witness():
    """(id - 2 P) / 2 on 2x2: vanishes on products aligned with the Bell state."""
    phi = maximally_entangled_state(2).amplitudes
    mat = (np.eye(4) - 2 * np.outer(phi, phi.conj())) / 2
    return Operator(Dims(2, 2), mat)


def projector(state):
    return Operator(state.dims, np.outer(state.amplitudes, state.amplitudes.conj()))


def states_detected_by(w, count, seed, spread=0.4):
    """Random pure states near the maximally entangled one that w detects."""
    phi = maximally_entangled_state(3).amplitudes
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(50 * count):
        g = rng.normal(size=9) + 1j * rng.normal(size=9)
        vec = phi + spread * g / np.linalg.norm(g)
        vec /= np.linalg.norm(vec)
        rho = projector(PureState(D33, vec))
        if trace_pair(w, rho) < -1e-9:
            found.append(rho)
            if len(found) == count:
                return found
    raise AssertionError(f"could not sample {count} detected states")


# ---------------------------------------------------------------------------
# see-saw minimization


def test_product_min_of_scaled_identity():
    w = Operator(Dims(2, 3), np.eye(6) / 6)
    result = min_product_expectation(w, CFG)
    assert abs(result.value - 1 / 6) < 1e-12
    assert result.converged


def test_product_min_of_bell_witness_is_zero():
    result = min_product_expectation(bell_witness(), CFG)
    assert abs(result.value) < 1e-9


def test_product_min_of_isotropic_family():
    # closed form: the best product overlap with the entangled projector is 1/d
    for a in (0.125, 1 / 3):
        result = min_product_expectation(isotropic(a), CFG)
        assert abs(result.value - (1 / 9 - a / 3) / (1 - a)) < 1e-6


def test_product_min_value_matches_its_minimizer():
    w = random_hermitian(Dims(2, 3), seed=60)
    result = min_product_expectation(w, CFG)
    assert abs(result.value - expectation(w, result.lowered())) < 1e-9


def test_product_min_dominates_smallest_eigenvalue():
    for t in range(10):
        w = random_hermitian(Dims(2, 3), seed=(61, t))
        result = min_product_expectation(w, CFG)
        assert result.value >= min_eigenpair(w)[0] - 1e-9


def restart_history(history, r):
    """Half-step values of restart r in order, without the NaN entries of
    the iterations after it stopped."""
    steps = np.stack(history)[:, r].ravel()
    return steps[~np.isnan(steps)]


def test_seesaw_iterations_never_increase():
    starts = []
    for t in range(10):
        rng = np.random.default_rng((63, t))
        starts.append(rng.normal(size=3) + 1j * rng.normal(size=3))
    for t in range(10):
        w = random_hermitian(D33, seed=(62, t))
        history = witness._seesaw(w.as_tensor(), 1, starts)[4]
        for r in range(len(starts)):
            assert np.all(np.diff(restart_history(history, r)) <= 1e-12)


def test_seesaw_monotone_on_lifted_operator():
    w = lift_operator(isotropic(0.2), 2).operator
    rng = np.random.default_rng(64)
    start = rng.normal(size=6) + 1j * rng.normal(size=6)
    values, _, _, converged, history, _ = witness._seesaw(w.as_tensor(), 1, [start])
    assert np.all(np.diff(restart_history(history, 0)) <= 1e-12)
    assert converged[0]
    assert values[0] >= (1 / 18 - 0.2 / 3) / 0.8 - 1e-9


@st.composite
def rank_k_problems(draw):
    d_a = draw(st.sampled_from([2, 3, 4]))
    d_b = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, min(d_a, d_b)))
    s = random_unit_hermitian(Dims(d_a, d_b), draw(st.integers(0, 2**32 - 1)))
    return s, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rank_k_problems())
def test_rank_k_kernel_matches_lifted_seesaw(problem):
    s, k, seed = problem
    config = OptimizerConfig(seed=seed, restarts=4)
    result = min_product_expectation(s, config, k=k)
    value, trace, converged = lifted_seesaw_min(s, k, config)
    assert abs(result.value - value) < 1e-9
    assert np.abs(np.array(result.trace) - trace).max() < 1e-9
    assert result.converged == converged
    d = s.dims
    a = result.arg_a.amplitudes.reshape(d.dA, k)
    b = result.arg_b.amplitudes.reshape(d.dB, k)
    psi = PureState(d, (a @ b.T).ravel())
    assert abs(result.value - expectation(s, psi)) < 1e-9
    assert np.abs(result.lowered().amplitudes - psi.amplitudes).max() == 0.0


@st.composite
def rank_one_dips(draw):
    """S = c I - a |phi><phi| on dA x dB with dA != dB and a random unit phi.

    Its minimum over unit states of Schmidt rank <= l is
    m_l = c - a (lambda_1^2 + ... + lambda_l^2) in the Schmidt coefficients of
    phi; c/a is drawn inside a chosen gap of those partial sums, so every
    witness order 1..min(dA, dB) and the positive case all come up.
    """
    d_a, d_b = draw(st.permutations([2, 3, 4]))[:2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
    phi /= np.linalg.norm(phi)
    sums = np.cumsum(np.linalg.svd(phi.reshape(d_a, d_b), compute_uv=False) ** 2)
    gap = draw(st.integers(0, len(sums)))
    edges = np.concatenate([[0.0], sums, [1.5]])
    ratio = edges[gap] + draw(st.floats(0.05, 0.95)) * (edges[gap + 1] - edges[gap])
    a = draw(st.floats(0.2, 1.0))
    matrix = a * ratio * np.eye(d_a * d_b) - a * np.outer(phi, phi.conj())
    s = Operator(Dims(d_a, d_b), matrix)
    return s, a * (ratio - sums), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(rank_one_dips())
def test_classification_matches_the_rank_k_oracle(problem):
    s, oracle, seed = problem
    assume(np.all(np.abs(oracle) > 1e-3))
    config = OptimizerConfig(seed=seed, restarts=8)
    tol = config.positivity_tol
    cls = classify_schmidt_witness(s, config=config)
    full = len(oracle)
    negative = np.flatnonzero(oracle < 0)
    if negative.size:
        assert (cls.verdict, cls.k) == (SCHMIDT_WITNESS, int(negative[0]) + 1)
    else:
        assert (cls.verdict, cls.k) == (POSITIVE, None)
    for level, value in cls.per_level_product_min.items():
        m = oracle[level - 1]
        if level < full:
            # the kernel minimizes over unit states of Schmidt rank <= level
            assert abs(value - m) <= 1e-8
            assert (value < -tol) == (m < 0)
        else:
            assert value == cls.min_eigenvalue


@pytest.mark.parametrize("d", range(3, 9))
def test_isotropic_levels_match_the_closed_form(d):
    # 1/d^2 < a < 1/(d(d-1)): the best overlap of a unit state of Schmidt
    # rank <= l with the maximally entangled state is l/d, so level l is
    # (1/d^2 - a l/d)/(1 - a): non-negative for l < d, negative at l = d
    a = (1 / d**2 + 1 / (d * (d - 1))) / 2
    s = isotropic(a, d=d)
    config = OptimizerConfig(restarts=8)
    cls = classify_schmidt_witness(s, config=config)
    assert (cls.verdict, cls.k) == (SCHMIDT_WITNESS, d)
    levels = [cls.per_level_product_min[l] for l in range(1, d + 1)]
    for level, value in enumerate(levels[:-1], start=1):
        assert abs(value - (1 / d**2 - a * level / d) / (1 - a)) < 1e-9
        result = min_product_expectation(s, config, k=level)
        state = result.lowered()
        assert abs(state.norm() - 1) < 1e-12
        assert schmidt_rank(state) <= level
        assert abs(expectation(s, state) - result.value) < 1e-12
    assert levels[-1] == cls.min_eigenvalue
    assert np.all(np.diff(levels) <= 0)
    assert abs(cls.detected_state.norm() - 1) < 1e-12
    assert schmidt_rank(cls.detected_state) <= cls.k


def test_rank_k_minimum_needs_k_at_most_the_smaller_factor():
    s = random_unit_hermitian(Dims(2, 4), seed=68)
    assert min_product_expectation(s, CFG, k=2).value >= min_eigenpair(s)[0] - 1e-9
    with pytest.raises(ParameterError):
        min_product_expectation(s, CFG, k=3)
    # at d = 2 the scan level 2 = min(dA, dB) covers every state: the smallest eigenvalue
    config = OptimizerConfig(restarts=4)
    scan = threshold_scan([0.1, 0.3], d=2, config=config)
    assert all(row.product_min[2] == row.min_eigenvalue for row in scan.rows)


def test_rank_k_minimum_needs_an_operator_without_ancillas():
    with pytest.raises(DimensionError):
        min_product_expectation(lift_operator(isotropic(0.2), 2).operator, CFG, k=2)


def test_product_min_requires_hermitian():
    # the constructor rejects the operator before any see-saw can see it
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        Operator(Dims(2, 2), np.diag([1.0, 2, 3, 4]) + np.eye(4, k=1))


def test_config_validation():
    with pytest.raises(ParameterError):
        OptimizerConfig(restarts=0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            OptimizerConfig(positivity_tol=bad)
    for bad in (-1, 1.5, True, None):
        with pytest.raises(ParameterError):
            OptimizerConfig(seed=bad)
    assert OptimizerConfig(seed=np.int64(3)).seed == 3


# ---------------------------------------------------------------------------
# witness verdicts


def test_positive_operator_is_not_a_witness():
    check = is_entanglement_witness(identity_over_nine(), CFG)
    assert not check.is_witness
    assert check.detected is None


def test_three_witness_is_an_entanglement_witness():
    check = is_entanglement_witness(isotropic(1 / 8), CFG)
    assert check.is_witness
    assert check.min_eigenvalue < 0
    assert expectation(isotropic(1 / 8), check.detected) < -1e-9


def test_small_parameter_family_member_is_positive():
    assert not is_entanglement_witness(isotropic(0.05), CFG).is_witness


# ---------------------------------------------------------------------------
# classification


def test_classify_positive_member():
    cls = classify_schmidt_witness(isotropic(0.05), config=CFG)
    assert cls.verdict == POSITIVE
    assert cls.k is None


def test_classify_order_three_member():
    cls = classify_schmidt_witness(isotropic(1 / 8), config=CFG)
    assert cls.verdict == SCHMIDT_WITNESS
    assert cls.k == 3
    assert cls.per_level_product_min[1] >= -1e-7
    assert cls.per_level_product_min[2] >= -1e-7
    assert cls.per_level_product_min[3] < -1e-7
    assert expectation(isotropic(1 / 8), cls.detected_state) < -1e-9
    assert schmidt_rank(cls.detected_state) == 3


def test_classify_order_two_member():
    cls = classify_schmidt_witness(isotropic(0.2), config=CFG)
    assert cls.k == 2
    assert expectation(isotropic(0.2), cls.detected_state) < -1e-9
    assert schmidt_rank(cls.detected_state) == 2


def test_classify_per_level_minima_are_nested():
    for a in (1 / 8, 0.2):
        cls = classify_schmidt_witness(isotropic(a), config=CFG)
        levels = sorted(cls.per_level_product_min)
        values = [cls.per_level_product_min[l] for l in levels]
        assert np.all(np.diff(values) <= 1e-9)


def test_classify_operator_negative_on_products():
    # beyond a = 1/3 the family goes negative on product states; order 1
    # flags that it is not a valid witness of any Schmidt class
    s = isotropic(0.4)
    cls = classify_schmidt_witness(s, config=CFG)
    assert cls.k == 1
    assert abs(cls.per_level_product_min[1] - (1 / 9 - 0.4 / 3) / 0.6) < 1e-8
    assert schmidt_rank(cls.detected_state) == 1
    assert expectation(s, cls.detected_state) < -1e-7


def test_classify_isotropic_at_dimension_six():
    # 1/36 < a < 1/30: non-negative on Schmidt rank <= 5, negative at rank 6
    config = OptimizerConfig(seed=5, restarts=8)
    cls = classify_schmidt_witness(isotropic(0.03, d=6), config=config)
    assert (cls.verdict, cls.k, cls.converged) == (SCHMIDT_WITNESS, 6, True)
    assert all(cls.per_level_product_min[l] >= -config.positivity_tol for l in range(1, 6))
    assert abs(cls.per_level_product_min[1] - (1 / 36 - 0.03 / 6) / 0.97) < 1e-8
    # level 6 covers every state, so it is the smallest eigenvalue itself
    assert cls.per_level_product_min[6] == cls.min_eigenvalue
    assert schmidt_rank(cls.detected_state) == 6


def test_the_kernel_never_runs_at_the_full_rank_level(monkeypatch):
    levels = []
    kernel = witness._seesaw

    def recording(s4, k, *args):
        levels.append(k)
        return kernel(s4, k, *args)

    monkeypatch.setattr(witness, "_seesaw", recording)
    # 1/16 < a <= 1/12: non-negative on Schmidt rank <= 3, negative at rank 4
    cls = classify_schmidt_witness(isotropic(0.07, d=4), config=OptimizerConfig(restarts=8))
    assert (cls.verdict, cls.k) == (SCHMIDT_WITNESS, 4)
    assert levels == [1, 2, 3]
    assert cls.per_level_product_min[4] == cls.min_eigenvalue
    detected = expectation(isotropic(0.07, d=4), cls.detected_state)
    assert abs(detected - cls.min_eigenvalue) < 1e-12
    levels.clear()
    # positive, 2-SW and 1-SW rows; level 2 is filled in where the ladder stopped
    scan = threshold_scan([0.1, 0.3, 0.6], d=2, config=OptimizerConfig(restarts=8))
    assert [row.verdict for row in scan.rows] == [POSITIVE, "2-SW", "1-SW"]
    assert all(row.product_min[2] == row.min_eigenvalue for row in scan.rows)
    assert set(levels) == {1}


def test_classify_respects_max_k():
    with pytest.raises(ParameterError):
        classify_schmidt_witness(isotropic(0.2), max_k=4, config=CFG)
    # a 3-SW scanned only to level 2 is reported beyond the scanned range
    cls = classify_schmidt_witness(isotropic(1 / 8), max_k=2, config=CFG)
    assert cls.k == 3
    assert cls.detected_state is None


# ---------------------------------------------------------------------------
# detection of mixed states


def test_detects_entangled_projector():
    w = isotropic(0.2)
    rho = projector(maximally_entangled_state(3))
    assert detects(w, rho)
    assert abs(trace_pair(w, rho) - (1 / 9 - 0.2) / 0.8) < 1e-12


def test_detects_nothing_on_the_uniform_state():
    w = isotropic(0.2)
    uniform = Operator(D33, np.eye(9) / 9)
    assert not detects(w, uniform)


def test_psd_operator_detects_nothing():
    w = identity_over_nine()
    rho = projector(maximally_entangled_state(3))
    assert not detects(w, rho)


def test_detects_rejects_non_state():
    w = isotropic(0.2)
    not_psd = Operator(D33, np.diag([1.0] * 8 + [-1.0]))
    with pytest.raises(ParameterError):
        detects(w, not_psd)


# ---------------------------------------------------------------------------
# subtraction and refinement
#
# The coarsening (1 - eps) W + eps Z, 0 <= eps < 1, is the subtraction with
# lam = -eps / (1 - eps); the finer candidate (1 + eps) W - eps Z, eps > 0,
# is the subtraction with lam = eps / (1 + eps).


def test_subtract_zero_is_identity():
    w = isotropic(0.2)
    z = identity_over_nine()
    assert np.array_equal(refine_by_subtraction(w, z, 0.0).matrix, w.matrix)


def test_coarsening_lands_back_in_the_family():
    eps = 0.5
    mixed = refine_by_subtraction(isotropic(1 / 3), identity_over_nine(), -eps / (1 - eps))
    assert np.abs(mixed.matrix - isotropic(1 / 5).matrix).max() < 1e-12


def test_coarsening_inequality_for_psd_direction():
    w1 = isotropic(0.25)
    z = identity_over_nine()
    eps = 0.3
    w2 = refine_by_subtraction(w1, z, -eps / (1 - eps))
    for t in range(20):
        psi = random_pure_state(D33, rank=1, seed=(65, t))
        rho = projector(psi)
        assert trace_pair(w2, rho) - (1 - eps) * trace_pair(w1, rho) >= -1e-12


def test_finer_candidate_direction():
    w = isotropic(1 / 8)
    z = identity_over_nine()
    eps = 0.1
    finer = refine_by_subtraction(w, z, eps / (1 + eps))
    expected = (1 + eps) * w.matrix - eps * z.matrix
    assert np.abs(finer.matrix - expected).max() < 1e-15


def test_refine_by_subtraction_formula():
    s = isotropic(1 / 8)
    z = identity_over_nine()
    lam = 0.2
    refined = refine_by_subtraction(s, z, lam)
    assert np.abs(refined.matrix - (s.matrix - lam * z.matrix) / (1 - lam)).max() == 0.0
    # the same operator as the finer candidate with eps = lam / (1 - lam)
    eps = lam / (1 - lam)
    finer = (1 + eps) * s.matrix - eps * z.matrix
    assert np.abs(refined.matrix - finer).max() < 1e-12
    with pytest.raises(ParameterError):
        refine_by_subtraction(s, z, 1.0)


def test_refinement_keeps_previously_detected_states():
    # subtract the lifted direction upstairs; by linearity of the lift the
    # result is the lift of the refined operator, which we check downstairs
    s = isotropic(1 / 8)
    z = identity_over_nine()
    eps = 0.1
    level = 2
    lifted_refined = (1 + eps) * lift_operator(s, level).operator.matrix \
        - eps * lift_operator(z, level).operator.matrix
    finer = refine_by_subtraction(s, z, eps / (1 + eps))
    assert np.abs(lifted_refined - lift_operator(finer, level).operator.matrix).max() < 1e-12
    for rho in states_detected_by(s, 20, seed=66):
        assert trace_pair(finer, rho) <= trace_pair(s, rho) + 1e-12


# ---------------------------------------------------------------------------
# finer-witness certificates


def test_identical_witnesses_are_trivially_finer():
    w = isotropic(0.2)
    cert = finer_certificate(w, w)
    assert cert.found and cert.epsilon == 0.0


def test_finer_certificate_for_family_pair():
    cert = finer_certificate(isotropic(1 / 3), isotropic(1 / 5))
    assert cert.found
    assert abs(cert.epsilon - 0.5) < 1e-12
    assert np.abs(cert.z.matrix - np.eye(9) / 9).max() < 1e-9
    assert abs(cert.z.trace() - 1.0) < 1e-12


def test_finer_certificate_refuted_in_reverse():
    cert = finer_certificate(isotropic(1 / 5), isotropic(1 / 3))
    assert not cert.found
    assert cert.z is None
    assert cert.min_eigenvalue < -1e-3
    assert all(me < -1e-6 for _, me in cert.evidence)


def test_finer_witness_orders_expectations_on_detected_states():
    w1, w2 = isotropic(1 / 3), isotropic(1 / 5)
    for rho in states_detected_by(w2, 30, seed=67):
        assert trace_pair(w1, rho) <= trace_pair(w2, rho) + 1e-10


def test_finer_witness_on_kernel_states():
    # states with exactly vanishing w2 expectation: |<psi|phi>|^2 = 5/9
    w1, w2 = isotropic(1 / 3), isotropic(1 / 5)
    phi = maximally_entangled_state(3).amplitudes
    rng = np.random.default_rng(68)
    for _ in range(30):
        g = rng.normal(size=9) + 1j * rng.normal(size=9)
        perp = g - np.vdot(phi, g) * phi
        perp /= np.linalg.norm(perp)
        vec = np.sqrt(5 / 9) * phi + np.sqrt(4 / 9) * perp
        rho = projector(PureState(D33, vec))
        assert abs(trace_pair(w2, rho)) < 1e-10
        assert trace_pair(w1, rho) <= 1e-9


def test_finer_certificate_validates_traces():
    w = isotropic(0.2)
    bad = Operator(D33, 2 * np.eye(9))
    with pytest.raises(ParameterError):
        finer_certificate(w, bad)


# ---------------------------------------------------------------------------
# largest subtraction weight


def test_identity_pencil_threshold_is_one():
    s = isotropic(1 / 8)
    result = lambda_max_subtraction(s, s, 3, CFG)
    assert abs(result.lambda0 - 1.0) < 1e-9
    assert abs(result.formula_sup_inv - 1.0) < 1e-9


def test_subtraction_threshold_for_family_instance():
    s = isotropic(1 / 8)
    z = identity_over_nine()
    result = lambda_max_subtraction(s, z, 3, CFG)
    assert abs(result.lambda0 - 2 / 7) < 1e-6
    assert abs(result.lambda0 - result.formula_sup_inv) < 1e-4
    assert result.refined is not None
    assert abs(result.refined.trace() - 1.0) < 1e-12


def test_subtraction_rejects_directions_negative_on_the_class():
    s = isotropic(1 / 8)
    bad = Operator(D33, -np.eye(9) / 9)
    with pytest.raises(PreconditionError):
        lambda_max_subtraction(s, bad, 3, CFG)


def test_subtraction_refine_at_requested_weight():
    s = isotropic(1 / 8)
    z = identity_over_nine()
    # lambda_max_subtraction refines at its threshold; other weights go direct
    result = lambda_max_subtraction(s, z, 3, CFG)
    at_threshold = refine_by_subtraction(s, z, result.lambda0)
    assert np.array_equal(result.refined.matrix, at_threshold.matrix)
    refined = refine_by_subtraction(s, z, 0.1)
    expected = (s.matrix - 0.1 * z.matrix) / 0.9
    assert np.abs(refined.matrix - expected).max() < 1e-15
    with pytest.raises(ParameterError):
        refine_by_subtraction(s, z, 1.0)


def negative_on_the_kernel():
    """S = I/9 - |22><22|/2 and Z = diag(1, 1, 0) (x) I at k = 2.

    On products |ab>, <Z> = 1 - |a_2|^2 vanishes at a = |2>, where
    <S> = 1/9 - |b_2|^2 / 2 turns negative; off that kernel Z/S peaks at 9.
    """
    matrix = np.eye(9) / 9
    matrix[8, 8] -= 0.5
    z = np.kron(np.diag([1.0, 1.0, 0.0]), np.eye(3))
    return Operator(D33, matrix), Operator(D33, z), 2


def test_subtraction_requires_s_non_negative_below_class_k():
    # S is negative on the product |22>: its level-1 minimum is 1/9 - 1/2
    with pytest.raises(PreconditionError, match=r"level 1 minimum of S is -0\.388889"):
        lambda_max_subtraction(*negative_on_the_kernel(), CFG)


def test_subtraction_rejects_a_direction_without_support():
    zero = Operator(D33, np.zeros((9, 9)))
    with pytest.raises(PreconditionError):
        lambda_max_subtraction(isotropic(1 / 8), zero, 3, CFG)


def test_subtraction_validates_k():
    # 2 <= k <= min(dA, dB); the class check samples states of rank up to k
    s, z = isotropic(1 / 8), identity_over_nine()
    with pytest.raises(ParameterError, match="k must be >= 2, got 1"):
        lambda_max_subtraction(s, z, 1, CFG)
    # once rejected only by the class sampler, as "rank must be in [1, 3], got 4"
    with pytest.raises(ParameterError, match=r"k must be <= min\(dA, dB\) = 3, got 4"):
        lambda_max_subtraction(s, z, 4, CFG)


def random_psd(dims, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dims.total,) * 2) + 1j * rng.normal(size=(dims.total,) * 2)
    m = g @ g.conj().T
    return Operator(dims, m / np.trace(m).real)


def rank_one_dip(dims, seed):
    """c I - |phi><phi| with c between phi's rank-2 and full Schmidt weight:
    non-negative on Schmidt rank <= 2, negative on phi."""
    phi = random_pure_state(dims, 3, seed=seed).amplitudes
    weights = np.linalg.svd(phi.reshape(dims.dA, dims.dB), compute_uv=False) ** 2
    c = (weights[0] + weights[1] + 1) / 2
    return Operator(dims, c * np.eye(dims.total) - np.outer(phi, phi.conj()))


PENCILS = {
    "criterion-8": lambda: (isotropic(1 / 8), identity_over_nine(), 3),
    "identity": lambda: (isotropic(1 / 8), isotropic(1 / 8), 3),
    "psd-3x3": lambda: (isotropic(1 / 8), random_psd(D33, 69), 3),
    "psd-3x4": lambda: (rank_one_dip(Dims(3, 4), 70), random_psd(Dims(3, 4), 71), 3),
    "negative-on-kernel": negative_on_the_kernel,
}


@pytest.mark.parametrize("name", PENCILS)
def test_pencil_kernel_matches_the_per_restart_reference(name):
    s, z, k = PENCILS[name]()
    config = OptimizerConfig(seed=8, restarts=32)
    s4, z4 = s.as_tensor(), z.as_tensor()
    starts = witness._starts(config, s.dims, s.dims.dA * (k - 1), 104729)
    run = (k - 1, starts)
    ratios, *_, negative = witness._seesaw(s4, *run, q4=z4)
    best, flag = _pencil_seesaw(s4, z4, k - 1, config, largest=False)
    assert abs(np.nanmin(ratios) - best) < 1e-9
    assert negative.any() == flag
    # the largest Z/S is the smallest -Z/S
    sup = -np.nanmin(witness._seesaw(-z4, *run, q4=s4)[0])
    best, _ = _pencil_seesaw(z4, s4, k - 1, config, largest=True)
    assert abs(sup - best) < 1e-9


@pytest.mark.parametrize("dims, k", [((3, 3), 1), ((3, 3), 2), ((3, 4), 2), ((4, 4), 3), ((4, 5), 3)])
def test_identity_pencil_is_the_plain_kernel(dims, k):
    s = random_unit_hermitian(Dims(*dims), seed=(72, k))
    s4 = s.as_tensor()
    identity = np.eye(s.dims.total).reshape(s4.shape)
    starts = witness._starts(CFG, s.dims, dims[0] * k)
    plain = witness._seesaw(s4, k, starts)
    pencil = witness._seesaw(s4, k, starts, q4=identity)
    assert np.abs(plain[0] - pencil[0]).max() < 1e-10
    assert not pencil[5].any()


# ---------------------------------------------------------------------------
# start vectors

START_DIMS = {"2x3": Dims(2, 3), "3x3": D33, "4x4": Dims(4, 4), "3x3-k3": D33.with_ancillas(3)}
START_SALTS = [(), (104729,), (7919,)]
START_RESTARTS = [1, 5, 16, 64]


def longest_start(dims):
    # rank-k starts up to k = min(dA, dB) without ancillas; k = 1 only with them
    return dims.a_dim * min(dims.a_dim, dims.b_dim) if dims.unextended else dims.a_dim


@pytest.mark.parametrize("name", START_DIMS)
def test_starts_are_the_per_restart_draws_at_every_length(name):
    # restart r of the reference has its own generator, so the reference for
    # fewer restarts is a prefix of the one for 16; 64 is swept below
    dims = START_DIMS[name]
    for salt in START_SALTS:
        for n in range(1, longest_start(dims) + 1):
            reference = starts_by_restart(OptimizerConfig(seed=300, restarts=16), n, *salt)
            for restarts in START_RESTARTS[:3]:
                config = OptimizerConfig(seed=300, restarts=restarts)
                got = witness._starts(config, dims, n, *salt)
                assert got.tobytes() == reference[:restarts].tobytes(), (salt, n, restarts)


def test_starts_are_the_per_restart_draws_at_every_seed():
    # seeds 0..300, each with the next (dims, salt, restarts) and its own length
    combos = list(itertools.product(START_DIMS.values(), START_SALTS, START_RESTARTS))
    for seed in range(301):
        dims, salt, restarts = combos[seed % len(combos)]
        n = 1 + seed % longest_start(dims)
        config = OptimizerConfig(seed=seed, restarts=restarts)
        got = witness._starts(config, dims, n, *salt)
        assert got.tobytes() == starts_by_restart(config, n, *salt).tobytes(), (seed, n)


def test_start_draws_are_cached_read_only_and_the_seesaw_leaves_them():
    s = random_unit_hermitian(Dims(3, 4), seed=73)
    config = OptimizerConfig(seed=5, restarts=8)
    witness._draws.cache_clear()
    starts = witness._starts(config, s.dims, 6)
    raw = witness._draws(5, 8, 18, ())
    assert witness._draws.cache_info().hits == 1 and not raw.flags.writeable
    with pytest.raises(ValueError):
        raw[0, 0] = 0.0
    before, starts_before = raw.copy(), starts.copy()
    witness._seesaw(s.as_tensor(), 2, starts)
    min_product_expectation(s, config, k=2)
    assert raw.tobytes() == before.tobytes()
    assert starts.tobytes() == starts_before.tobytes()


def test_start_draws_for_a_lifted_operator_are_one_column_long():
    # the lifted 3x3 at k = 3 minimizes at k = 1 only: 2 * a_dim = 18 normals,
    # not 2 * a_dim * min(a_dim, b_dim) = 162
    lifted = lift_operator(isotropic(0.2), 3).operator
    assert lifted.dims.a_dim == 9
    witness._draws.cache_clear()
    min_product_expectation(lifted, OptimizerConfig(seed=5, restarts=4))
    witness._draws(5, 4, 18, ())
    assert witness._draws.cache_info()[:2] == (1, 1)  # (hits, misses): one key


# ---------------------------------------------------------------------------
# optimality certificates


def test_optimality_requires_a_witness():
    with pytest.raises(PreconditionError):
        optimality_certificate(identity_over_nine(), CFG)


def test_bell_witness_is_optimal():
    span_dim, optimal = optimality_certificate(bell_witness(), CFG)
    assert span_dim == 4
    assert optimal


def test_boundary_family_member_is_optimal():
    span_dim, optimal = optimality_certificate(isotropic(1 / 3), CFG)
    assert span_dim == 9
    assert optimal


def test_interior_family_member_is_inconclusive():
    # away from the boundary the product minimum is strictly positive, so no
    # zero products exist and the certificate cannot conclude anything
    span_dim, optimal = optimality_certificate(isotropic(0.2), CFG)
    assert span_dim == 0
    assert not optimal
