"""Tests for the lifting and lowering maps and their structural identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snwitness import (
    DegenerateStateError,
    DimensionError,
    Dims,
    NotHermitianError,
    Operator,
    ParameterError,
    PureState,
    expectation,
    lift_ensemble,
    lift_operator,
    lift_state,
    lower_ensemble,
    lower_operator,
    lower_state,
    maximally_entangled_state,
    random_hermitian,
    random_pure_state,
    schmidt_decompose,
    schmidt_rank,
    trace_pair,
)
from snwitness.embedding import _lift_operators, _lift_states, _lower_states, _projector_sum
from snwitness.families import _random_hermitians
from snwitness.hilbert import (
    HERMITICITY_TOL,
    _random_pure_states,
    _schmidt_terms,
    product_state,
)

from oracles import (
    contract_ancillas,
    lift_operator_by_einsum,
    lower_operator_by_isometry,
    lower_state_by_schmidt,
    random_unit_hermitian,
    rank_from_reduced,
    schmidt_by_term_loop,
)

D33 = Dims(3, 3)


def random_factor_pair(dims, seed):
    """A random unit vector on each factor of the enlarged space."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=dims.a_dim) + 1j * rng.normal(size=dims.a_dim)
    b = rng.normal(size=dims.b_dim) + 1j * rng.normal(size=dims.b_dim)
    return (
        PureState(dims.a_factor(), a / np.linalg.norm(a)),
        PureState(dims.b_factor(), b / np.linalg.norm(b)),
    )


# ---------------------------------------------------------------------------
# lifting states


def test_lift_product_state_is_trivial():
    psi = random_pure_state(D33, rank=1, seed=30)
    lifted = lift_state(psi, 2)
    assert lifted.source_rank == 1
    assert lifted.block_count == 1
    assert abs(lifted.state.norm() - 1.0) < 1e-12
    # the single Schmidt term sits in the first ancilla slot on both sides
    form = schmidt_decompose(psi)
    a_part = np.kron(form.basis_a[0], [1, 0])
    b_part = np.kron(form.coefficients[0] * form.basis_b[0], [1, 0])
    expected = np.outer(a_part, b_part).ravel()
    assert np.abs(lifted.state.amplitudes - expected).max() < 1e-12


def test_lift_full_rank_state_with_matching_ancilla():
    psi = maximally_entangled_state(3)
    lifted = lift_state(psi, 3)
    assert lifted.source_rank == 3
    assert lifted.block_count == 1
    assert abs(lifted.state.norm() ** 2 - 3.0) < 1e-10
    assert schmidt_rank(lifted.state) == 1  # product across the enlarged split


def test_lift_rank_at_most_k_gives_product(seed_count=100):
    for t in range(seed_count):
        k = 2 + t % 2
        rank = 1 + t % k
        psi = random_pure_state(D33, rank=rank, seed=(31, t))
        lifted = lift_state(psi, k).state
        form = schmidt_decompose(lifted)
        assert form.coefficients[1] < 1e-10  # single Schmidt term
        assert abs(lifted.norm() ** 2 - rank) < 1e-9


def test_lift_splits_higher_rank_into_blocks():
    psi = maximally_entangled_state(3)
    lifted = lift_state(psi, 2)
    assert lifted.source_rank == 3
    assert lifted.block_count == 2
    assert schmidt_rank(lifted.state) == 2
    # squared norm: block sizes (2, 1) against weights (2/3, 1/3)
    assert abs(lifted.state.norm() ** 2 - (2 * (2 / 3) + 1 * (1 / 3))) < 1e-10


def test_lift_is_additive_over_schmidt_blocks():
    psi = random_pure_state(D33, rank=3, seed=32)
    k = 2
    form = schmidt_decompose(psi)
    total = np.zeros(36, dtype=complex)
    for start in range(0, 3, k):
        chunk = slice(start, min(start + k, 3))
        part = np.einsum(
            "i,ia,ib->ab",
            form.coefficients[chunk],
            form.basis_a[chunk],
            form.basis_b[chunk],
        ).ravel()
        total += lift_state(PureState(D33, part), k).state.amplitudes
    assert np.abs(lift_state(psi, k).state.amplitudes - total).max() < 1e-10


def test_lift_state_parameter_errors():
    psi = random_pure_state(D33, rank=1, seed=33)
    with pytest.raises(ParameterError):
        lift_state(psi, 0)
    with pytest.raises(DimensionError):
        lift_state(lift_state(psi, 2).state, 2)


# ---------------------------------------------------------------------------
# lifting operators


def test_lift_operator_level_one_is_identity():
    s = random_hermitian(D33, seed=34)
    lifted = lift_operator(s, 1).operator
    assert np.abs(lifted.matrix - s.matrix).max() < 1e-15
    assert lifted.dims == Dims(3, 3, 1, 1)


def test_lift_operator_matches_einsum_oracle():
    shapes = [(2, 3, 1), (3, 2, 2), (3, 3, 3), (4, 4, 3), (2, 4, 4)]
    for t, (d_a, d_b, k) in enumerate(shapes):
        s = random_hermitian(Dims(d_a, d_b), seed=(38, t))
        lifted = lift_operator(s, k).operator.matrix
        assert np.array_equal(lifted, lift_operator_by_einsum(s.matrix, d_a, d_b, k))


def test_lift_operator_trace_scaling():
    s = Operator(D33, np.eye(9) / 9)
    for k in (1, 2, 3):
        lifted = lift_operator(s, k).operator
        assert abs(lifted.trace() - k) < 1e-12
    w = random_hermitian(D33, seed=35)
    assert abs(lift_operator(w, 2).operator.trace() - 2 * w.trace()) < 1e-12


def test_expectation_survives_lifting():
    worst = 0.0
    for t in range(200):
        k = 2 + t % 2
        rank = 1 + t % 3  # includes rank > k block cases when k = 2
        psi = random_pure_state(D33, rank=rank, seed=(36, t))
        s = random_hermitian(D33, seed=(37, t))
        lifted_psi = lift_state(psi, k).state
        lifted_s = lift_operator(s, k).operator
        lhs = expectation(s, psi)
        rhs = np.vdot(
            lifted_psi.amplitudes, lifted_s.matrix @ lifted_psi.amplitudes
        ).real
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# lowering


def test_lower_product_with_aligned_ancillas():
    rng = np.random.default_rng(38)
    a_sys = rng.normal(size=3) + 1j * rng.normal(size=3)
    b_sys = rng.normal(size=3) + 1j * rng.normal(size=3)
    a_sys /= np.linalg.norm(a_sys)
    b_sys /= np.linalg.norm(b_sys)
    dims = D33.with_ancillas(2)
    anc = np.array([1.0, 0.0])
    a = PureState(dims.a_factor(), np.kron(a_sys, anc))
    b = PureState(dims.b_factor(), np.kron(b_sys, anc))
    lowered = lower_state(product_state(a, b), 2)
    assert np.abs(lowered.amplitudes - np.kron(a_sys, b_sys)).max() < 1e-12


def test_lower_product_inverts_lift_of_low_rank_states():
    for t in range(50):
        k = 2 + t % 2
        rank = 1 + t % k
        psi = random_pure_state(D33, rank=rank, seed=(39, t))
        form = schmidt_decompose(psi)
        dims = D33.with_ancillas(k)
        a_part = np.zeros((3, k), dtype=complex)
        b_part = np.zeros((3, k), dtype=complex)
        for i in range(rank):
            a_part[:, i] = form.basis_a[i]
            b_part[:, i] = form.coefficients[i] * form.basis_b[i]
        a = PureState(dims.a_factor(), a_part.ravel())
        b = PureState(dims.b_factor(), b_part.ravel())
        lowered = lower_state(product_state(a, b), k)
        assert np.abs(lowered.amplitudes - psi.amplitudes).max() < 1e-10


def test_lower_product_rank_bound_and_contraction_oracle():
    for t in range(50):
        dims = D33.with_ancillas(2)
        a, b = random_factor_pair(dims, (40, t))
        lowered = lower_state(product_state(a, b), 2)
        assert rank_from_reduced(lowered) <= 2
        direct = contract_ancillas(product_state(a, b), 2)
        assert np.abs(lowered.amplitudes - direct).max() < 1e-12
        by_schmidt = lower_state_by_schmidt(product_state(a, b), 2)
        assert np.abs(lowered.amplitudes - by_schmidt).max() < 1e-12


def test_lower_product_ancilla_mismatch():
    dims2 = D33.with_ancillas(2)
    dims3 = D33.with_ancillas(3)
    a, _ = random_factor_pair(dims2, 41)
    _, b = random_factor_pair(dims3, 42)
    with pytest.raises(DimensionError):
        lower_state(product_state(a, b), 2)


def test_lower_state_roundtrip_all_ranks():
    worst = 0.0
    for t in range(200):
        k = 2 + t % 2
        rank = 1 + t % 3  # rank 3 with k = 2 exercises the block branch
        psi = random_pure_state(D33, rank=rank, seed=(43, t))
        back = lower_state(lift_state(psi, k).state, k)
        worst = max(worst, np.linalg.norm(back.amplitudes - psi.amplitudes))
    assert worst < 1e-10


def test_lower_state_matches_schmidt_oracle():
    for t in range(50):
        k = 2 + t % 2
        dims = D33.with_ancillas(k)
        psi = random_pure_state(dims, rank=1 + t % 4, seed=(44, t))
        lowered = lower_state(psi, k)
        assert np.abs(lowered.amplitudes - lower_state_by_schmidt(psi, k)).max() < 1e-10


def test_lower_state_handles_degenerate_blocks():
    # equal coefficients make the lifted state's Schmidt blocks exactly
    # degenerate; the lowering must not depend on the basis chosen there
    psi = maximally_entangled_state(4)
    lifted = lift_state(psi, 2).state
    form = schmidt_decompose(lifted)
    assert abs(form.coefficients[0] - form.coefficients[1]) < 1e-12
    back = lower_state(lifted, 2)
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-12


def test_lower_state_requires_matching_ancillas():
    psi = random_pure_state(D33.with_ancillas(2), rank=2, seed=45)
    with pytest.raises(DimensionError):
        lower_state(psi, 3)


def test_lower_state_rejects_the_zero_vector():
    with pytest.raises(DegenerateStateError):
        lower_state(PureState(D33.with_ancillas(2), np.zeros(36)), 2)


# ---------------------------------------------------------------------------
# ensembles


def ensemble_operator(dims, ensemble):
    total = np.zeros((dims.total, dims.total), dtype=complex)
    for p, state in ensemble:
        total += p * np.outer(state.amplitudes, state.amplitudes.conj())
    return Operator(dims, total)


def random_ensemble(dims, seed, count=4, max_rank=3):
    rng = np.random.default_rng(seed)
    return [
        (
            float(rng.uniform(0.1, 1.0)),
            random_pure_state(dims, 1 + int(rng.integers(max_rank)), seed=(seed, i)),
        )
        for i in range(count)
    ]


def test_lift_ensemble_of_one_product_state():
    psi = random_pure_state(D33, rank=1, seed=46)
    gamma = lift_ensemble([(1.0, psi)], 2)
    assert abs(gamma.trace() - 1.0) < 1e-12
    evals = np.linalg.eigvalsh(gamma.matrix)
    assert np.sum(evals > 1e-10) == 1


def test_trace_correspondence_after_lifting_ensembles():
    for t in range(50):
        k = 2 + t % 2
        s = random_hermitian(D33, seed=(47, t))
        ensemble = random_ensemble(D33, (48, t))
        rho = ensemble_operator(D33, ensemble)
        gamma = lift_ensemble(ensemble, k)
        lifted_s = lift_operator(s, k).operator
        assert abs(trace_pair(s, rho) - trace_pair(lifted_s, gamma)) < 1e-10


def test_different_decompositions_give_same_traces():
    s = random_hermitian(D33, seed=49)
    ensemble = random_ensemble(D33, 50)
    rho = ensemble_operator(D33, ensemble)
    evals, evecs = np.linalg.eigh(rho.matrix)
    spectral = [
        (float(w), PureState(D33, np.ascontiguousarray(evecs[:, i])))
        for i, w in enumerate(evals)
        if w > 1e-12
    ]
    k = 2
    gamma1 = lift_ensemble(ensemble, k)
    gamma2 = lift_ensemble(spectral, k)
    lifted_s = lift_operator(s, k).operator
    assert np.abs(gamma1.matrix - gamma2.matrix).max() > 1e-6  # genuinely different
    assert abs(trace_pair(lifted_s, gamma1) - trace_pair(lifted_s, gamma2)) < 1e-10


def test_trace_correspondence_after_lowering_ensembles():
    for t in range(50):
        k = 2 + t % 2
        dims = D33.with_ancillas(k)
        s = random_hermitian(D33, seed=(51, t))
        lifted_s = lift_operator(s, k).operator
        ensemble = random_ensemble(dims, (52, t), max_rank=dims.a_dim)
        theta_big = ensemble_operator(dims, ensemble)
        theta = lower_ensemble(ensemble, k)
        assert abs(trace_pair(lifted_s, theta_big) - trace_pair(s, theta)) < 1e-10


def test_lower_ensemble_inverts_lifted_mixture():
    k = 2
    members = [
        (0.4, random_pure_state(D33, rank=1, seed=53)),
        (0.6, random_pure_state(D33, rank=2, seed=54)),
    ]
    lifted_members = [(p, lift_state(psi, k).state) for p, psi in members]
    theta = lower_ensemble(lifted_members, k)
    original = ensemble_operator(D33, members)
    assert np.abs(theta.matrix - original.matrix).max() < 1e-10


def test_lower_ensemble_matches_schmidt_oracle():
    for t in range(20):
        d_a, d_b, k = 2 + t % 2, 3 - t % 2, 2 + t % 3
        dims = Dims(d_a, d_b, k, k)
        ensemble = random_ensemble(dims, (62, t), max_rank=min(dims.a_dim, dims.b_dim))
        expected = np.zeros((d_a * d_b,) * 2, dtype=complex)
        for p, state in ensemble:
            vec = lower_state_by_schmidt(state, k)
            expected += p * np.outer(vec, vec.conj())
        theta = lower_ensemble(ensemble, k)
        assert theta.dims == Dims(d_a, d_b)
        assert np.abs(theta.matrix - expected).max() < 1e-10


def test_lower_operator_is_the_ensemble_lowering_on_mixtures():
    k = 2
    dims = D33.with_ancillas(k)
    ensemble = random_ensemble(dims, 59, max_rank=dims.a_dim)
    lowered = lower_operator(ensemble_operator(dims, ensemble), k)
    assert lowered.dims == D33
    assert np.abs(lowered.matrix - lower_ensemble(ensemble, k).matrix).max() < 1e-12


def test_lower_operator_is_linear_on_indefinite_operators():
    for d_a, d_b, k in ((2, 2, 2), (2, 3, 2), (3, 2, 3)):
        dims = Dims(d_a, d_b, k, k)
        h = random_hermitian(dims, seed=(60, d_a, d_b, k))
        assert np.linalg.eigvalsh(h.matrix)[0] < 0
        expected = lower_operator_by_isometry(h.matrix, d_a, d_b, k)
        assert np.abs(lower_operator(h, k).matrix - expected).max() < 1e-12
    with pytest.raises(DimensionError):
        lower_operator(random_hermitian(D33, seed=61), 2)


def test_ensemble_weight_validation():
    psi = random_pure_state(D33, rank=1, seed=55)
    with pytest.raises(ParameterError):
        lift_ensemble([(-0.5, psi)], 2)
    with pytest.raises(ParameterError):
        lift_ensemble([], 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_ensemble_weights_are_rejected(bad):
    small = random_pure_state(D33, rank=2, seed=56)
    big = random_pure_state(D33.with_ancillas(2), rank=2, seed=57)
    with pytest.raises(ParameterError):
        lift_ensemble([(0.5, small), (bad, small)], 2)
    with pytest.raises(ParameterError):
        lower_ensemble([(0.5, big), (bad, big)], 2)


def test_overflowing_ensembles_are_rejected():
    # finite weights and amplitudes whose projector sum is not finite
    big_dims = D33.with_ancillas(2)
    small = PureState(D33, random_pure_state(D33, 2, seed=58).amplitudes * 1e150)
    big = PureState(big_dims, random_pure_state(big_dims, 2, seed=59).amplitudes * 1e150)
    with pytest.raises(ParameterError, match="non-finite"):
        lift_ensemble([(1e20, small)], 2)
    with pytest.raises(ParameterError, match="non-finite"):
        lower_ensemble([(1e20, big)], 2)


def test_operators_built_without_validation_are_read_only_finite_and_hermitian():
    near = random_hermitian(D33, seed=63).matrix.copy()
    near[0, 1] += 3e-11j  # within HERMITICITY_TOL, so accepted as Hermitian
    s = Operator(D33, near)
    lifted = lift_operator(s, 3).operator
    gram = [
        lift_ensemble(random_ensemble(D33, 64), 3),
        lower_ensemble(random_ensemble(D33.with_ancillas(3), 65, max_rank=9), 3),
    ]
    for op in [lifted, *gram]:
        assert not op.matrix.flags.writeable
        assert np.isfinite(op.matrix).all()
        assert np.abs(op.matrix - op.matrix.conj().T).max() < HERMITICITY_TOL
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 0.0
    source_dev = np.abs(s.matrix - s.matrix.conj().T).max()
    assert np.abs(lifted.matrix - lifted.matrix.conj().T).max() == source_dev > 0
    for op in gram:  # Gram products are Hermitian up to the rounding of the product
        scale = np.abs(op.matrix).max()
        assert np.abs(op.matrix - op.matrix.conj().T).max() <= 8 * np.finfo(float).eps * scale


def test_lift_source_must_be_hermitian():
    rng = np.random.default_rng(66)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        Operator(D33, m)
    source = Operator(D33, m + m.conj().T)
    lifted = lift_operator(source, 2).operator
    assert not lifted.matrix.flags.writeable
    assert np.array_equal(lifted.matrix, lift_operator_by_einsum(source.matrix, 3, 3, 2))


# ---------------------------------------------------------------------------
# matrix elements between enlarged product pairs


def test_matrix_elements_match_lowered_pairs():
    worst = 0.0
    for t in range(200):
        k = 2 + t % 2
        dims = D33.with_ancillas(k)
        s = random_hermitian(D33, seed=(56, t))
        lifted_s = lift_operator(s, k).operator
        a1, b1 = random_factor_pair(dims, (57, t))
        a2, b2 = random_factor_pair(dims, (58, t))
        left = product_state(a1, b1)
        right = product_state(a2, b2)
        lhs = np.vdot(left.amplitudes, lifted_s.matrix @ right.amplitudes)
        low_left = lower_state(left, k)
        low_right = lower_state(right, k)
        rhs = np.vdot(low_left.amplitudes, s.matrix @ low_right.amplitudes)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# properties at dA != dB, with Schmidt ranks above k (multi-block lifts)


@st.composite
def embedding_problems(draw):
    d_a = draw(st.integers(1, 4))
    d_b = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    rank = draw(st.integers(1, min(d_a, d_b)))
    return Dims(d_a, d_b), k, rank, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(embedding_problems())
def test_lift_lower_properties(problem):
    dims, k, rank, seed = problem
    psi = random_pure_state(dims, rank, seed=(seed, 0))
    s = random_unit_hermitian(dims, (seed, 1))
    lifted = lift_state(psi, k)
    lifted_s = lift_operator(s, k).operator
    assert lifted.block_count == -(-rank // k)
    assert rank_from_reduced(lifted.state) == lifted.block_count
    assert np.abs(lower_state(lifted.state, k).amplitudes - psi.amplitudes).max() < 1e-10
    assert abs(expectation(lifted_s, lifted.state) - expectation(s, psi)) < 1e-10

    ensemble = random_ensemble(dims, (seed, 2), count=3, max_rank=rank)
    gamma = lift_ensemble(ensemble, k)
    expected = np.zeros_like(gamma.matrix)
    for p, member in ensemble:
        vec = lift_state(member, k).state.amplitudes
        expected += p * np.outer(vec, vec.conj())
    assert np.abs(gamma.matrix - expected).max() < 1e-12

    big = dims.with_ancillas(k)
    big_ensemble = random_ensemble(big, (seed, 3), max_rank=min(big.a_dim, big.b_dim))
    theta = lower_ensemble(big_ensemble, k)
    theta_big = ensemble_operator(big, big_ensemble)
    assert abs(trace_pair(lifted_s, theta_big) - trace_pair(s, theta)) < 1e-10
    assert np.abs(theta.matrix - lower_operator(theta_big, k).matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# stacked kernels: every public map is one row of its kernel, bit for bit

SHAPES = [(d_a, d_b) for d_a in range(2, 6) for d_b in range(2, 6)]


def every_rank_stack(dims, seed):
    """Random states of every Schmidt rank (twice each), with their ranks and
    seeds: a stack whose smaller ranks are zero-padded by the kernels."""
    ranks = [1 + i % min(dims.dA, dims.dB) for i in range(2 * min(dims.dA, dims.dB))]
    seeds = [(seed, i) for i in range(len(ranks))]
    return ranks, seeds


@pytest.mark.parametrize("d_a, d_b", SHAPES)
def test_state_kernels_are_the_public_maps_row_by_row(d_a, d_b):
    dims = Dims(d_a, d_b)
    ranks, seeds = every_rank_stack(dims, (80, d_a, d_b))
    amps = _random_pure_states(dims, ranks, seeds)
    states = [random_pure_state(dims, r, seed=s) for r, s in zip(ranks, seeds)]
    assert all(np.array_equal(row, psi.amplitudes) for row, psi in zip(amps, states))

    coefficients, basis_a, basis_b, found = _schmidt_terms(amps.reshape(-1, d_a, d_b))
    assert list(found) == ranks
    for i, psi in enumerate(states):
        form = schmidt_decompose(psi)
        reference = schmidt_by_term_loop(psi)
        for kernel, public, loop in zip(
            (coefficients[i], basis_a[i], basis_b[i]),
            (form.coefficients, form.basis_a, form.basis_b),
            reference,
        ):
            assert np.array_equal(kernel, public) and np.array_equal(public, loop)
        assert form.rank == reference[3] == ranks[i]

    for k in (1, 2, 3):
        lifted, lifted_ranks = _lift_states(dims, amps, k)
        assert list(lifted_ranks) == ranks
        for row, psi in zip(lifted, states):
            assert np.array_equal(row, lift_state(psi, k).state.amplitudes)
        ensemble = [(0.1 + 0.2 * i, psi) for i, psi in enumerate(states)]
        by_member = np.stack([lift_state(psi, k).state.amplitudes for psi in states])
        expected = _projector_sum(ensemble, by_member, dims.with_ancillas(k)).matrix
        assert np.array_equal(lift_ensemble(ensemble, k).matrix, expected)


@pytest.mark.parametrize("d_a, d_b", SHAPES)
def test_operator_and_lowering_kernels_are_the_public_maps_row_by_row(d_a, d_b):
    dims = Dims(d_a, d_b)
    seeds = [(81, d_a, d_b, i) for i in range(3)]
    matrices = _random_hermitians(dims, seeds)
    operators = [random_hermitian(dims, seed=s) for s in seeds]
    assert all(np.array_equal(m, op.matrix) for m, op in zip(matrices, operators))
    for k in (1, 2, 3):
        lifted = _lift_operators(dims, matrices, k)
        for row, op in zip(lifted, operators):
            assert np.array_equal(row, lift_operator(op, k).operator.matrix)

        big = dims.with_ancillas(k)
        ranks, seeds = every_rank_stack(big, (82, d_a, d_b, k))
        amps = _random_pure_states(big, ranks, seeds)
        states = [PureState(big, row) for row in amps]
        lowered = _lower_states(big, amps)
        for row, psi in zip(lowered, states):
            assert np.array_equal(row, lower_state(psi, k).amplitudes)
        ensemble = [(0.1 + 0.2 * i, psi) for i, psi in enumerate(states)]
        expected = _projector_sum(ensemble, lowered, dims).matrix
        assert np.array_equal(lower_ensemble(ensemble, k).matrix, expected)
