"""Tests for product-state minimization, classification and refinement."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    _pencil_seesaw,
    congruent_isotropic,
    lifted_seesaw_min,
    random_unit_hermitian,
    starts_by_restart,
)
import snwitness.witness as witness
from snwitness import (
    DimensionError,
    Dims,
    NotHermitianError,
    Operator,
    OptimizerConfig,
    ParameterError,
    PreconditionError,
    ProductMinResult,
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
from snwitness.witness import POSITIVE, SCHMIDT_WITNESS

D33 = Dims(3, 3)
CFG = OptimizerConfig(seed=7, restarts=24)


def isotropic(a, d=3):
    return make_isotropic_witness(a, d)


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
    assert abs(result.value - expectation(w, result.minimizer)) < 1e-9


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
    values, _, _, converged, history = witness._seesaw(w.as_tensor(), 1, [start])
    assert np.all(np.diff(restart_history(history, 0)) <= 1e-12)
    assert converged[0]
    assert values[0] >= (1 / 18 - 0.2 / 3) / 0.8 - 1e-9


@pytest.mark.parametrize("d", range(3, 7))
def test_isotropic_levels_stop_after_one_iteration(d):
    # any A with B = conj(A) is optimal, so the first iteration's A half-step
    # gains nothing over its B half-step and every restart stops there
    s4 = isotropic((1 / d**2 + 1 / (d * (d - 1))) / 2, d=d).as_tensor()
    for level in range(1, d):
        starts = starts_by_restart(CFG, d * level)
        _, _, _, converged, history = witness._seesaw(s4, level, starts)
        assert len(history) == 1
        assert converged.all()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 4), (4, 4)])
def test_seesaw_stops_at_the_first_a_half_step_gaining_under_the_tolerance(shape, k):
    for t in range(3):
        s = random_unit_hermitian(Dims(*shape), seed=(69, t))
        starts = starts_by_restart(CFG, shape[0] * k)
        _, _, _, converged, history = witness._seesaw(s.as_tensor(), k, starts)
        assert converged.all()
        for steps in np.stack(history, axis=1):
            rows = steps[~np.isnan(steps[:, 0])]
            gains = rows[:, 0] - rows[:, 1]
            assert gains[-1] < witness.CONVERGENCE_TOL
            assert np.all(gains[:-1] >= witness.CONVERGENCE_TOL)


@pytest.mark.parametrize("k", [1, 2])
def test_seesaw_runs_one_eigh_and_one_qr_per_half_step(monkeypatch, k):
    # one half-step body per side: an eigh each, and a QR each above k = 1
    calls = {"eigh": 0, "qr": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh"))
    monkeypatch.setattr(np.linalg, "qr", counted("qr"))
    s = random_unit_hermitian(Dims(3, 4), seed=(69, 0))
    history = witness._seesaw(s.as_tensor(), k, starts_by_restart(CFG, 3 * k)).history
    assert len(history) > 1
    assert calls == {"eigh": 2 * len(history), "qr": 2 * len(history) if k > 1 else 0}


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
    best = int(np.argmin(result.run.values))
    a, b = result.run.a[best], result.run.b[best]
    psi = PureState(s.dims, (a @ b.T).ravel())
    assert abs(result.value - expectation(s, psi)) < 1e-9
    assert np.abs(result.minimizer.amplitudes - psi.amplitudes).max() == 0.0


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
    extremes = witness._Spectra(s).extremes
    for level, value in cls.per_level_product_min.items():
        m = oracle[level - 1]
        if level < full:
            bound = witness._level_bound(s, level, extremes)
            if bound >= -tol:
                # a certified level reports the partial-transpose bound,
                # which may sit below the minimum at levels >= 2
                assert value == bound
                assert -tol <= value <= m + 1e-12
            else:
                # the kernel minimizes over unit states of Schmidt rank <= level
                assert abs(value - m) <= 1e-8
            assert (value < -tol) == (m < 0)
        else:
            assert value == cls.min_eigenvalue


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("a", [0.05, 0.2, 0.5, 0.9])
def test_partial_transpose_bound_is_exact_on_the_isotropic_family(d, a):
    s = isotropic(a, d=d)
    extremes = witness._Spectra(s).extremes
    for level in range(1, d + 1):
        closed = (1 / d**2 - a * level / d) / (1 - a)
        assert abs(witness._level_bound(s, level, extremes) - closed) < 1e-12


@st.composite
def perturbed_isotropic(draw):
    """A d-SW isotropic member plus a small random Hermitian term: the bound
    certifies some of its levels >= 2, which the other strategies never
    reach.  Shaped like them: (S, None, seed)."""
    d = draw(st.sampled_from([3, 4]))
    a = (1 / d**2 + 1 / (d * (d - 1))) / 2
    noise = random_unit_hermitian(Dims(d, d), draw(st.integers(0, 2**32 - 1))).matrix
    s = Operator(Dims(d, d), isotropic(a, d=d).matrix + draw(st.floats(0.0, 0.01)) * noise)
    return s, None, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(rank_one_dips(), rank_k_problems(), perturbed_isotropic()))
def test_partial_transpose_bound_is_below_the_seesaw(problem):
    s, _, seed = problem
    config = OptimizerConfig(seed=seed, restarts=4)
    tol = config.positivity_tol
    extremes = witness._Spectra(s).extremes
    for level in range(1, min(s.dims.dA, s.dims.dB)):
        bound = witness._level_bound(s, level, extremes)
        found = witness._level_minimum(witness._Spectra(s), level, config)
        assert (found.source == "bound") == (bound >= -tol)
        if found.source == "seesaw":
            seesaw = found.value
        else:
            seesaw = min_product_expectation(s, config, k=level).value
        if found.source == "bound":
            assert (found.value, found.minimizer, found.converged) == (bound, None, True)
            assert seesaw >= -tol
        if found.source == "exact":
            # the truncated eigenvector: a unit state of Schmidt rank <= level
            # whose value is negative and meets the bound
            assert bound <= found.value <= seesaw + 1e-12
            assert found.value < -tol and found.converged
            assert abs(found.minimizer.norm() - 1) < 1e-12
            assert schmidt_rank(found.minimizer) <= level
            assert abs(expectation(s, found.minimizer) - found.value) < 1e-12
        assert bound <= seesaw + 1e-12


@pytest.mark.parametrize("margin, source, k", [(0.5, "bound", 3), (2.0, "exact", 2)])
def test_the_bound_decides_a_level_only_down_to_minus_tol(margin, source, k):
    # level 2 of iso(a) at d = 3 is exactly (1/9 - 2a/3)/(1 - a); put it at
    # -margin * tol, just above or just below -tol
    value = -margin * CFG.positivity_tol
    s = isotropic((1 / 9 - value) / (2 / 3 - value))
    found = witness._level_minimum(witness._Spectra(s), 2, CFG)
    assert found.source == source
    assert abs(found.value - value) < 1e-12
    assert classify_schmidt_witness(s, config=CFG).k == k


@pytest.mark.parametrize("d", [10, 12, 14])
def test_isotropic_ladder_at_large_d_runs_no_seesaw(monkeypatch, d):
    def refuse(*args, **kwargs):
        raise AssertionError("the see-saw ran")

    monkeypatch.setattr(witness, "_seesaw", refuse)
    a = (1 / d**2 + 1 / (d * (d - 1))) / 2
    cls = classify_schmidt_witness(isotropic(a, d=d), config=OptimizerConfig(restarts=8))
    assert (cls.verdict, cls.k, cls.converged) == (SCHMIDT_WITNESS, d, True)
    for level, value in cls.per_level_product_min.items():
        assert abs(value - (1 / d**2 - a * level / d) / (1 - a)) < 1e-12


@pytest.mark.parametrize("d", range(3, 11))
def test_isotropic_detecting_levels_are_exact(monkeypatch, d):
    def refuse(*args, **kwargs):
        raise AssertionError("the see-saw ran")

    monkeypatch.setattr(witness, "_seesaw", refuse)
    config = OptimizerConfig(restarts=8)
    for k in range(1, d):
        # level l is (1/d^2 - a l/d)/(1 - a), negative from l = k on for
        # 1/(k d) < a < 1/((k - 1) d)
        a = (1 / (k * d) + (1 / ((k - 1) * d) if k > 1 else 1)) / 2
        s = isotropic(a, d=d)
        cls = classify_schmidt_witness(s, config=config)
        assert (cls.verdict, cls.k, cls.converged) == (SCHMIDT_WITNESS, k, True)
        for level, value in cls.per_level_product_min.items():
            assert abs(value - (1 / d**2 - a * level / d) / (1 - a)) < 1e-12
        for level in range(k, d):
            found = witness._level_minimum(witness._Spectra(s), level, config)
            assert (found.source, found.converged) == ("exact", True)
            assert abs(found.value - (1 / d**2 - a * level / d) / (1 - a)) < 1e-12
            assert abs(found.minimizer.norm() - 1) < 1e-12
            assert schmidt_rank(found.minimizer) == level
        assert abs(cls.detected_state.norm() - 1) < 1e-12
        assert schmidt_rank(cls.detected_state) == k


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
        state = result.minimizer
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


@pytest.mark.parametrize("bad", [2.5, True, None, "8"])
def test_restarts_must_be_an_integer(bad):
    # 2.5 used to fail later with a bare TypeError, and True ran one restart
    with pytest.raises(ParameterError, match="restarts must be an integer"):
        OptimizerConfig(restarts=bad)
    assert OptimizerConfig(restarts=np.int64(3)).restarts == 3


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_rank_k_minimization_needs_an_integer_k(bad):
    with pytest.raises(ParameterError, match="k must be an integer"):
        min_product_expectation(isotropic(1 / 8), CFG, k=bad)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_classify_needs_an_integer_max_k(bad):
    with pytest.raises(ParameterError, match="max_k must be in"):
        classify_schmidt_witness(isotropic(1 / 8), bad, CFG)
    assert classify_schmidt_witness(isotropic(1 / 8), np.int64(2), CFG).k is None


OTHER_DIMS = Operator(Dims(3, 2), np.eye(6) / 6)
REJECTED = {
    "classify-with-ancillas": (
        lambda: classify_schmidt_witness(lift_operator(isotropic(0.2), 2).operator, None, CFG),
        DimensionError, "without ancillas"),
    "detects-dims": (lambda: detects(isotropic(0.2), OTHER_DIMS), DimensionError, "dims mismatch"),
    "refine-dims": (
        lambda: refine_by_subtraction(isotropic(0.2), OTHER_DIMS, 0.5),
        DimensionError, "dims mismatch"),
    "finer-dims": (
        lambda: finer_certificate(isotropic(0.2), OTHER_DIMS), DimensionError, "dims mismatch"),
    "subtraction-dims": (
        lambda: lambda_max_subtraction(isotropic(0.2), OTHER_DIMS, 2, CFG),
        DimensionError, "dims mismatch"),
    "subtraction-with-ancillas": (
        lambda: lambda_max_subtraction(*[lift_operator(isotropic(a), 2).operator
                                         for a in (0.2, 0.0)], 2, CFG),
        DimensionError, "without ancillas"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_arguments_raise_their_error(name):
    call, error, message = REJECTED[name]
    with pytest.raises(error, match=message):
        call()


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
    # a rank-one dip 0.95 I - |phi><phi| on 4x4, phi of squared Schmidt
    # coefficients (0.7, 0.1, 0.1, 0.1): level l is 0.95 minus the first l of
    # them, non-negative up to rank 3 and negative at rank 4.  The
    # partial-transpose bound is exact at level 1 and below -tol at levels 2
    # and 3, so those two run the see-saw
    rng = np.random.default_rng(5)
    u, v = (np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0] for _ in "uv")
    phi = ((u * np.sqrt([0.7, 0.1, 0.1, 0.1])) @ v.T).ravel()
    s = Operator(Dims(4, 4), 0.95 * np.eye(16) - np.outer(phi, phi.conj()))
    cls = classify_schmidt_witness(s, config=OptimizerConfig(restarts=8))
    assert (cls.verdict, cls.k) == (SCHMIDT_WITNESS, 4)
    assert levels == [2, 3]
    for level, m in zip([1, 2, 3], [0.25, 0.15, 0.05]):
        assert abs(cls.per_level_product_min[level] - m) < 1e-8
    assert cls.per_level_product_min[4] == cls.min_eigenvalue
    detected = expectation(s, cls.detected_state)
    assert abs(detected - cls.min_eigenvalue) < 1e-12
    levels.clear()
    # the same dip at c = 0.75 is a 2-SW: the ladder stops after the see-saw
    # at level 2, and a fill-in at level 4 reads the spectrum
    s = Operator(Dims(4, 4), 0.75 * np.eye(16) - np.outer(phi, phi.conj()))
    cls = classify_schmidt_witness(s, config=OptimizerConfig(restarts=8))
    assert (cls.verdict, cls.k) == (SCHMIDT_WITNESS, 2)
    assert abs(cls.per_level_product_min[2] + 0.05) < 1e-8
    full = witness._level_minimum(witness._Spectra(s), 4, OptimizerConfig(restarts=8))
    assert (full.source, full.value) == ("spectrum", cls.min_eigenvalue)
    assert levels == [2]
    levels.clear()
    # positive, 2-SW and 1-SW rows; level 2 is filled in where the ladder
    # stopped, and the 1-SW row's level 1 is exact, so no see-saw runs
    scan = threshold_scan([0.1, 0.3, 0.6], d=2, config=OptimizerConfig(restarts=8))
    assert [row.verdict for row in scan.rows] == [POSITIVE, "2-SW", "1-SW"]
    assert all(row.product_min[2] == row.min_eigenvalue for row in scan.rows)
    assert levels == []


def test_classify_respects_max_k():
    with pytest.raises(ParameterError):
        classify_schmidt_witness(isotropic(0.2), max_k=4, config=CFG)
    # a 3-SW scanned only to level 2 is a witness of unknown order above 2
    cls = classify_schmidt_witness(isotropic(1 / 8), max_k=2, config=CFG)
    assert cls.k is None
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


@pytest.mark.parametrize("eps0", [0.1234, 0.0037])
def test_finer_certificate_finds_a_narrow_window(eps0):
    # Z = |00><00| is rank one, so eps0 is the only eps whose candidate is
    # PSD: a kink of f(t) = lambda_min(W1 + t (W2 - W1)) at t = 1 / eps0
    w1 = isotropic(0.2)
    corner = np.zeros((9, 9))
    corner[0, 0] = 1.0
    w2 = Operator(D33, (1 - eps0) * w1.matrix + eps0 * corner)
    cert = finer_certificate(w1, w2)
    assert cert.found
    assert abs(cert.epsilon - eps0) < 1e-9
    assert np.abs(cert.z.matrix - corner).max() < 1e-9


def test_finer_certificate_decomposes_a_rank_eight_mixture():
    # eps0 = 0.0037 with a random rank-8 Z: PSD candidates exist near eps0,
    # between the points of a grid with step 1/200
    w1 = isotropic(0.2)
    rng = np.random.default_rng(1)
    g = rng.normal(size=(9, 8)) + 1j * rng.normal(size=(9, 8))
    z = g @ g.conj().T
    w2 = Operator(D33, (1 - 0.0037) * w1.matrix + 0.0037 * z / np.trace(z).real)
    cert = finer_certificate(w1, w2)
    assert cert.found and cert.min_eigenvalue > 0
    assert abs(np.linalg.eigvalsh(cert.z.matrix)[0] - cert.min_eigenvalue) < 1e-12
    rebuilt = (1 - cert.epsilon) * w1.matrix + cert.epsilon * cert.z.matrix
    assert np.abs(rebuilt - w2.matrix).max() < 1e-12


def test_finer_certificate_stops_where_eps_vanishes_next_to_one():
    # W2 - W1 = 1e-9 I is PSD (traces agree within the 1e-8 check), so the
    # slope never turns negative: t doubles only until 1/t is below float
    # resolution next to 1
    w1 = isotropic(0.2)
    cert = finer_certificate(w1, Operator(D33, w1.matrix + 1e-9 * np.eye(9)))
    assert cert.found
    assert cert.epsilon == np.finfo(float).eps


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
    # Z = S breaks the precondition on Z (S is negative on class 3), so the
    # ratio of S over itself is checked directly: every ratio is 1, and -1
    # for -S, from a product state on which <S> > 0
    s = isotropic(1 / 8)
    with pytest.raises(PreconditionError, match=r"level 3 minimum of Z is -0\.015873"):
        lambda_max_subtraction(s, s, 3, CFG)
    psi = np.zeros(9, dtype=complex)
    psi[0] = 1.0  # |00>, where <S> = (1/9 - 1/24) / (7/8)
    minus_s = Operator(D33, -s.matrix)
    assert witness._ratio_min(witness._Spectra(s), witness._Spectra(s), 2, CFG, psi) == 1.0
    assert witness._ratio_min(witness._Spectra(minus_s), witness._Spectra(s), 2, CFG, psi) == -1.0


def test_subtraction_solves_each_spectrum_once(monkeypatch):
    # one record each for S, Z and -Z, each decomposed by one eigh: it gives
    # their rounding, and Z's level 3 its lowest eigenpair.  The level 2 of S
    # and of -Z (Z's maximum) read the extremes of S^Gamma and -Z^Gamma from
    # one eigvalsh each.  Each Dinkelbach step is one more record, of its
    # pencil P - r Q, whose level 2 reads the extremes of the pencil's partial
    # transpose once, and its one eigh where it reads the lowest eigenvector
    s, z = isotropic(1 / 8), identity_over_nine()
    solved, records = {"eigh": [], "eigvalsh": []}, []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(m, *args, **kwargs):
            if np.ndim(m) == 2:  # the see-saw's half-steps solve 3-D stacks
                solved[name].append(np.asarray(m).tobytes())
            return solver(m, *args, **kwargs)

        return call

    class Recorded(witness._Spectra):
        def __init__(self, s):
            records.append(self)
            super().__init__(s)

    for name in solved:
        monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(witness, "_Spectra", Recorded)
    result = lambda_max_subtraction(s, z, 3, CFG)
    monkeypatch.undo()
    inputs = [s.matrix, z.matrix, -z.matrix]
    assert [r.s.matrix.tobytes() for r in records[:3]] == [m.tobytes() for m in inputs]
    pencils = records[3:]
    assert pencils
    decomposed = inputs + [p.s.matrix for p in pencils if "eigh" in vars(p)]
    assert sorted(solved["eigh"]) == sorted(m.tobytes() for m in decomposed)
    transposed = [witness.partial_transpose(r.s).matrix for r in (records[0], records[2], *pencils)]
    assert sorted(solved["eigvalsh"]) == sorted(m.tobytes() for m in transposed)
    assert abs(result.lambda0 - 2 / 7) < 1e-6


def test_subtraction_reads_the_maximum_of_z_from_its_record(monkeypatch):
    # Z = I/9: the lowest eigenvector of -Z is a product state, which meets
    # the partial-transpose bound, so only S's fallback start runs a see-saw
    runs = []
    kernel = witness._seesaw

    def counting(*args):
        runs.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(witness, "_seesaw", counting)
    result = lambda_max_subtraction(isotropic(1 / 8), identity_over_nine(), 3, CFG)
    assert runs == [2]
    assert abs(result.lambda0 - 2 / 7) < 1e-12


def test_subtraction_threshold_for_family_instance():
    s = isotropic(1 / 8)
    z = identity_over_nine()
    result = lambda_max_subtraction(s, z, 3, CFG)
    assert abs(result.lambda0 - 2 / 7) < 1e-6
    assert abs(result.lambda0 - result.formula_sup_inv) < 1e-4
    assert result.refined is not None
    assert abs(result.refined.trace() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "pair",
    [
        # S = iso(1/3) vanishes on products, where Z = I/9 or a PSD Z is positive
        lambda: (isotropic(1 / 3), identity_over_nine()),
        lambda: (isotropic(1 / 3), random_psd(D33, 75)),
        # iso(1/4) at d = 4 vanishes on products as well
        lambda: (isotropic(0.25, d=4), Operator(Dims(4, 4), np.eye(16) / 16)),
    ],
    ids=["iso3-identity", "iso3-psd", "iso4-identity"],
)
def test_both_formulations_are_zero_where_s_vanishes_and_z_does_not(pair):
    # sup Z/S is infinite there, so its inverse is 0 like lambda0
    s, z = pair()
    for seed in range(4):
        result = lambda_max_subtraction(s, z, 2, OptimizerConfig(seed=seed, restarts=24))
        assert (result.lambda0, result.formula_sup_inv) == (0.0, 0.0), seed


def test_subtraction_where_the_minimizer_of_s_lies_in_the_kernel_of_z():
    # S = I/9 - |22><22|/18 and Z = diag(1, 1, 0) (x) I at k = 2: on products
    # |ab>, S/Z is smallest at a_2 = 0, b = |2> (1/9); the dual starts from
    # S's product minimizer |22>, where <Z> = 0
    matrix = np.eye(9) / 9
    matrix[8, 8] -= 1 / 18
    z = Operator(D33, np.kron(np.diag([1.0, 1.0, 0.0]), np.eye(3)))
    result = lambda_max_subtraction(Operator(D33, matrix), z, 2, CFG)
    assert abs(result.lambda0 - 1 / 9) < 1e-9
    assert abs(result.formula_sup_inv - 1 / 9) < 1e-9


def test_subtraction_is_zero_where_the_level_minimum_of_s_is_just_below_zero(monkeypatch):
    # iso(1/3 + 1e-7) is negative on products by about 5e-8, within
    # positivity_tol: lambda0 is clamped at 0, where the ratio cannot fall
    # further, and S vanishing where Z is positive makes the dual 0
    s = isotropic(1 / 3 + 1e-7)
    assert -CFG.positivity_tol < min_product_expectation(s, CFG).value < 0
    runs = []
    kernel = witness._seesaw

    def counting(*args):
        runs.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(witness, "_seesaw", counting)
    result = lambda_max_subtraction(s, identity_over_nine(), 2, CFG)
    assert (result.lambda0, result.formula_sup_inv) == (0.0, 0.0)
    assert len(runs) <= 8


def test_subtraction_rejects_directions_negative_on_the_class():
    s = isotropic(1 / 8)
    bad = Operator(D33, -np.eye(9) / 9)
    with pytest.raises(PreconditionError):
        lambda_max_subtraction(s, bad, 3, CFG)


@pytest.mark.parametrize(
    "a, k, message",
    [
        # Z = iso(1/4) is a 2-Schmidt witness: negative at level 2, not at 1
        (0.25, 2, r"level 2 minimum of Z is -0\.0740741: Z must be non-negative on Schmidt rank <= 2"),
        # Z = iso(1/8) is negative only at full rank: its smallest eigenvalue -1/63
        (1 / 8, 3, r"level 3 minimum of Z is -0\.015873: Z must be non-negative on Schmidt rank <= 3"),
    ],
)
def test_subtraction_rejects_z_negative_on_class_k(a, k, message):
    with pytest.raises(PreconditionError, match=message):
        lambda_max_subtraction(isotropic(1 / 8), isotropic(a), k, CFG)


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


@pytest.mark.parametrize("bad", [2.5, True])
def test_subtraction_needs_an_integer_k(bad):
    # 2.5 used to be refused for the level k - 1 = 1.5 it reached, and True
    # as a k below 2
    with pytest.raises(ParameterError, match=f"k must be an integer, got {bad!r}"):
        lambda_max_subtraction(isotropic(1 / 8), identity_over_nine(), bad, CFG)


def test_subtraction_validates_k():
    # 2 <= k <= min(dA, dB), checked before the level minima of S and Z
    s, z = isotropic(1 / 8), identity_over_nine()
    with pytest.raises(ParameterError, match="k must be >= 2, got 1"):
        lambda_max_subtraction(s, z, 1, CFG)
    # _level_minimum reads every level >= min(dA, dB) from the spectrum, so
    # without this check k = 4 would be refused for S's level-3 minimum
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
    "psd-3x3": lambda: (isotropic(1 / 8), random_psd(D33, 69), 3),
    "psd-3x4": lambda: (rank_one_dip(Dims(3, 4), 70), random_psd(Dims(3, 4), 71), 3),
}


@pytest.mark.parametrize("name", PENCILS)
def test_pencil_kernel_matches_the_per_restart_reference(name):
    # Dinkelbach's iteration on the plain see-saw against the per-restart
    # pencil see-saw: the smallest S/Z, clamped at 0, and 1 / the largest Z/S
    s, z, k = PENCILS[name]()
    config = OptimizerConfig(seed=8, restarts=32)
    s4, z4 = s.as_tensor(), z.as_tensor()
    result = lambda_max_subtraction(s, z, k, config)
    best = _pencil_seesaw(s4, z4, k - 1, config, largest=False)
    assert abs(result.lambda0 - max(best, 0.0)) < 1e-8
    best = _pencil_seesaw(z4, s4, k - 1, config, largest=True)
    assert abs(result.formula_sup_inv - 1 / best) < 1e-8


@pytest.mark.parametrize("dims, k", [((3, 3), 1), ((3, 3), 2), ((3, 4), 2), ((4, 4), 3), ((4, 5), 3)])
def test_identity_pencil_is_the_plain_kernel(dims, k):
    # the smallest ratio over the identity is the plain level minimum
    s = random_unit_hermitian(Dims(*dims), seed=(72, k))
    identity = Operator(s.dims, np.eye(s.dims.total))
    psi = np.zeros(s.dims.total, dtype=complex)
    psi[0] = 1.0
    ratio = witness._ratio_min(witness._Spectra(s), witness._Spectra(identity), k, CFG, psi)
    assert abs(ratio - min_product_expectation(s, CFG, k).value) < 1e-9


def test_ratio_min_stops_when_the_seesaw_state_does_not_lower_the_ratio(monkeypatch):
    # the see-saw reports a negative minimum of P - r Q whose best state is
    # psi itself, so the next ratio equals r: Dinkelbach's iteration makes
    # no progress and must stop after that one run
    p = random_unit_hermitian(D33, seed=73)
    q = Operator(D33, np.eye(9))
    psi = np.zeros(9, dtype=complex)
    psi[0] = 1.0
    calls = []

    def stuck(s4, k, starts):
        if calls:
            raise AssertionError("_ratio_min ran the see-saw again without progress")
        calls.append(k)
        a = np.zeros((1, 3, 1), dtype=complex)
        a[0, 0, 0] = 1.0
        return witness.SeesawRun(np.array([-1.0]), a, a.copy(), np.array([True]), [])

    monkeypatch.setattr(witness, "_seesaw", stuck)
    ratio = witness._ratio_min(witness._Spectra(p), witness._Spectra(q), 1, CFG, psi)
    assert ratio == expectation(p, PureState(D33, psi))
    assert calls == [1]


# ---------------------------------------------------------------------------
# start vectors

START_DIMS = {"2x3": Dims(2, 3), "3x3": D33, "4x4": Dims(4, 4), "3x3-k3": D33.with_ancillas(3)}
START_RESTARTS = [1, 5, 16, 64]


def longest_start(dims):
    # rank-k starts up to k = min(dA, dB) without ancillas; k = 1 only with them
    return dims.a_dim * min(dims.a_dim, dims.b_dim) if dims.unextended else dims.a_dim


@pytest.mark.parametrize("name", START_DIMS)
def test_starts_are_the_per_restart_draws_at_every_length(name):
    # restart r of the reference has its own generator, so the reference for
    # fewer restarts is a prefix of the one for 16; 64 is swept below
    dims = START_DIMS[name]
    for n in range(1, longest_start(dims) + 1):
        reference = starts_by_restart(OptimizerConfig(seed=300, restarts=16), n)
        for restarts in START_RESTARTS[:3]:
            config = OptimizerConfig(seed=300, restarts=restarts)
            got = witness._starts(config, n)
            assert got.tobytes() == reference[:restarts].tobytes(), (n, restarts)


def test_starts_are_the_per_restart_draws_at_every_seed():
    # seeds 0..300, each with the next (dims, restarts) and its own length
    combos = list(itertools.product(START_DIMS.values(), START_RESTARTS))
    for seed in range(301):
        dims, restarts = combos[seed % len(combos)]
        n = 1 + seed % longest_start(dims)
        config = OptimizerConfig(seed=seed, restarts=restarts)
        got = witness._starts(config, n)
        assert got.tobytes() == starts_by_restart(config, n).tobytes(), (seed, n)


@pytest.mark.parametrize("name", START_DIMS)
def test_starts_draw_2n_normals_per_restart_and_nothing_writes_them(name, monkeypatch):
    # the longest start of each dims: rank min(dA, dB) without ancillas, k = 1
    # on the lifted 3x3 at k = 3
    dims = START_DIMS[name]
    n = longest_start(dims)
    k = n // dims.a_dim
    config = OptimizerConfig(seed=5, restarts=8)
    calls = []
    real_rng = np.random.default_rng

    def default_rng(seed):
        rng = real_rng(seed)
        calls.append([seed])

        def normal(size):
            calls[-1].append(size)
            return rng.normal(size=size)

        return SimpleNamespace(normal=normal)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    starts = witness._starts(config, n)
    monkeypatch.undo()
    assert calls == [[(5, r), 2 * n] for r in range(8)]
    s = random_unit_hermitian(dims, seed=73)
    before = starts.copy()
    witness._seesaw(s.as_tensor(), k, starts)
    monkeypatch.setattr(witness, "_starts", lambda config, n: starts)
    min_product_expectation(s, config, k=k)
    assert starts.tobytes() == before.tobytes()


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


def test_optimality_certificate_reuses_the_witness_check_run(monkeypatch):
    runs = []
    kernel = witness._seesaw

    def counting(*args, **kwargs):
        runs.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(witness, "_seesaw", counting)
    assert optimality_certificate(bell_witness(), CFG) == (4, True)
    assert runs == [1]


def test_product_min_trace_is_its_run_values():
    # perfbench's tracer reads ``trace`` on every min_product_expectation call
    result = min_product_expectation(random_unit_hermitian(D33, seed=75), CFG)
    assert result.trace == tuple(result.run.values)
    assert len(result.trace) == CFG.restarts
    assert result.source == "seesaw"
    assert "run" not in repr(result)


def test_level_minimum_returns_one_record_from_each_branch():
    # level 3 of a 3x3 operator is its spectrum, level 2 of iso(1/8) is
    # certified by the bound, level 2 of iso(0.2) is the truncated lowest
    # eigenvector meeting that bound, and level 2 of c I - |phi><phi| with
    # squared Schmidt coefficients (0.5, 0.3, 0.2) and c = 0.7 is 0.7 - 0.8,
    # far above a bound of -0.24, so the see-saw finds it
    phi = np.diag(np.sqrt([0.5, 0.3, 0.2])).ravel()
    dip = Operator(D33, 0.7 * np.eye(9) - np.outer(phi, phi))
    for s, level, source in [(isotropic(1 / 8), 3, "spectrum"), (isotropic(1 / 8), 2, "bound"),
                             (isotropic(0.2), 2, "exact"), (dip, 2, "seesaw")]:
        found = witness._level_minimum(witness._Spectra(s), level, CFG)
        assert isinstance(found, ProductMinResult)
        assert (found.source, found.converged) == (source, True)
        assert (found.run is None) == (source != "seesaw")
        assert (found.minimizer is None) == (source == "bound")
    assert abs(found.value + 0.1) < 1e-8
    direct = min_product_expectation(dip, CFG, k=2)
    assert found.value == direct.value
    assert found.minimizer.amplitudes.tobytes() == direct.minimizer.amplitudes.tobytes()
    assert found.minimizer.dims == D33 and abs(found.minimizer.norm() - 1) < 1e-12


def test_spectra_fields_are_computed_once(monkeypatch):
    # iso(0.2) at d = 3: level 1 is the bound, level 2 exact and level 3 the
    # spectrum, so every level reads the record; one eigh of S serves the
    # eigenpair and the rounding, one eigvalsh of S^Gamma the extremes
    s = isotropic(0.2)
    calls = []
    original = witness.partial_transpose
    monkeypatch.setattr(
        witness, "partial_transpose",
        lambda op: calls.append(("partial_transpose", op.matrix.tobytes())) or original(op),
    )
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda m, f=solver, n=name: calls.append((n, np.asarray(m).tobytes())) or f(m),
        )
    spectra = witness._Spectra(s)
    for _ in range(2):
        sources = [witness._level_minimum(spectra, level, CFG).source for level in (1, 2, 3)]
        assert sources == ["bound", "exact", "spectrum"]
        assert spectra.rounding > 0
    monkeypatch.undo()
    s_gamma = witness.partial_transpose(s).matrix
    assert sorted(calls) == [
        ("eigh", s.matrix.tobytes()),
        ("eigvalsh", s_gamma.tobytes()),
        ("partial_transpose", s.matrix.tobytes()),
    ]
    # the eigenpair is min_eigenpair's, bit for bit
    value, vector = min_eigenpair(s)
    assert spectra.eigenpair[0] == value
    assert spectra.eigenpair[1].amplitudes.tobytes() == vector.amplitudes.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d, k", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_congruent_isotropic_levels_lie_in_their_closed_form_intervals(monkeypatch, d, k, seed):
    # an invertible local congruence of an isotropic member keeps the sign of
    # every level, so its order k is known in closed form, and its levels
    # below min(dA, dB) are not solved from the partial transpose alone
    s, intervals = congruent_isotropic(d, k, seed)
    found = {}
    level_minimum = witness._level_minimum

    def recorded(spectra, level, config):
        found[level] = level_minimum(spectra, level, config)
        return found[level]

    monkeypatch.setattr(witness, "_level_minimum", recorded)
    cls = classify_schmidt_witness(s, config=CFG)
    tol = CFG.positivity_tol
    assert (cls.verdict, cls.k) == (SCHMIDT_WITNESS, k)
    assert sorted(found) == list(range(1, k + 1))
    for level, result in found.items():
        lo, hi = intervals[level]
        assert cls.per_level_product_min[level] == result.value
        if result.source == "bound":
            assert -tol <= result.value <= hi
        else:
            assert lo - 1e-9 <= result.value <= hi + 1e-9
    assert schmidt_rank(cls.detected_state) <= k
    assert expectation(s, cls.detected_state) < -tol
    assert "seesaw" in [result.source for result in found.values()]


@pytest.mark.parametrize("dims, k", [((3, 3), 1), ((3, 4), 2), ((4, 4), 3)])
def test_product_min_is_the_best_row_of_its_kernel_run(dims, k):
    s = random_unit_hermitian(Dims(*dims), seed=(74, k))
    result = min_product_expectation(s, CFG, k=k)
    run = witness._seesaw(s.as_tensor(), k, witness._starts(CFG, dims[0] * k))
    best = int(np.argmin(run.values))
    assert result.value == run.values[best]
    assert result.minimizer.amplitudes.tobytes() == run.state(best).tobytes()
    assert result.converged == run.converged[best]
    assert result.run.values.tobytes() == run.values.tobytes()
    assert "run" not in repr(result)


def test_interior_family_member_is_inconclusive():
    # away from the boundary the product minimum is strictly positive, so no
    # zero products exist and the certificate cannot conclude anything
    span_dim, optimal = optimality_certificate(isotropic(0.2), CFG)
    assert span_dim == 0
    assert not optimal
