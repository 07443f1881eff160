"""Tests for the dimension-aware linear algebra core."""

import numpy as np
import pytest

from snwitness import (
    DegenerateStateError,
    DimensionError,
    Dims,
    NotHermitianError,
    Operator,
    ParameterError,
    PureState,
    expectation,
    make_isotropic_witness,
    maximally_entangled_state,
    min_eigenpair,
    normalize,
    partial_expectation,
    partial_transpose,
    product_state,
    random_hermitian,
    random_pure_state,
    schmidt_decompose,
    schmidt_rank,
    trace_pair,
)
from snwitness.hilbert import HERMITICITY_TOL

from oracles import reduced_density_a, reduced_density_b

D33 = Dims(3, 3)


def basis_state(dims, index):
    vec = np.zeros(dims.total, dtype=complex)
    vec[index] = 1.0
    return PureState(dims, vec)


# ---------------------------------------------------------------------------
# Schmidt decomposition


def test_schmidt_product_state():
    psi = basis_state(Dims(2, 2), 0)  # |00>
    form = schmidt_decompose(psi)
    assert form.rank == 1
    assert abs(form.coefficients[0] - 1.0) < 1e-12


def test_schmidt_maximally_entangled():
    psi = maximally_entangled_state(3)
    form = schmidt_decompose(psi)
    assert form.rank == 3
    assert np.allclose(form.coefficients, [1 / np.sqrt(3)] * 3, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_schmidt_coefficients_match_reduced_spectrum(seed):
    psi = random_pure_state(D33, rank=3, seed=(101, seed))
    form = schmidt_decompose(psi)
    evals = np.sort(np.linalg.eigvalsh(reduced_density_a(psi)))[::-1]
    assert np.abs(form.coefficients**2 - evals).max() < 1e-9
    # both reduced operators carry the same spectrum
    evals_b = np.sort(np.linalg.eigvalsh(reduced_density_b(psi)))[::-1]
    assert np.abs(evals - evals_b).max() < 1e-9


def test_schmidt_reconstruction_and_orthonormality_500_states():
    worst = 0.0
    for t in range(500):
        rng = np.random.default_rng((102, t))
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        dims = Dims(da, db)
        vec = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        psi = PureState(dims, vec / np.linalg.norm(vec))
        form = schmidt_decompose(psi)
        worst = max(worst, np.abs(form.reconstruct() - psi.amplitudes).max())
        gram_a = form.basis_a.conj() @ form.basis_a.T
        gram_b = form.basis_b.conj() @ form.basis_b.T
        eye = np.eye(len(form.coefficients))
        assert np.abs(gram_a - eye).max() < 1e-10
        assert np.abs(gram_b - eye).max() < 1e-10
        assert np.all(np.diff(form.coefficients) <= 1e-12)
        assert abs(np.sum(form.coefficients**2) - 1.0) < 1e-10
    assert worst < 1e-10


def test_schmidt_phase_convention():
    psi = random_pure_state(D33, rank=2, seed=103)
    form = schmidt_decompose(psi)
    for vec in form.basis_a:
        lead = vec[np.abs(vec) > 1e-12][0]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_schmidt_zero_vector_rejected():
    psi = PureState(Dims(2, 2), np.zeros(4))
    with pytest.raises(DegenerateStateError):
        schmidt_decompose(psi)


def test_schmidt_rank_cases():
    assert schmidt_rank(basis_state(Dims(2, 2), 1)) == 1  # |01>
    bell = PureState(Dims(2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert schmidt_rank(bell) == 2
    tiny = PureState(Dims(2, 2), np.array([1.0, 0, 0, 1e-9]))
    assert schmidt_rank(tiny) == 1  # 1e-9 of the leading coefficient is cut off


# ---------------------------------------------------------------------------
# partial expectation


def test_partial_expectation_identity_factorizes():
    w = Operator(D33, np.eye(9) / 9)
    e = PureState(Dims(3, 1), np.array([1, 1j, -1]) / np.sqrt(3))
    out = partial_expectation(w, e, side="A")
    assert np.abs(out.matrix - np.eye(3) / 9).max() < 1e-12


def test_partial_expectation_isotropic_family_matrix():
    a = 0.21
    s = make_isotropic_witness(a, 3)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps /= np.linalg.norm(amps)
    e = PureState(Dims(3, 1), amps)
    got = (1 - a) * partial_expectation(s, e, side="A").matrix
    expected = np.eye(3) / 9 - (a / 3) * np.outer(amps.conj(), amps)
    assert np.abs(got - expected).max() < 1e-12
    # spectrum is {1/9, 1/9, 1/9 - a/3} for every unit e
    evals = np.sort(np.linalg.eigvalsh(got))
    assert np.abs(evals - [1 / 9 - a / 3, 1 / 9, 1 / 9]).max() < 1e-10


def test_partial_expectation_real_amplitudes_match_rank_one_update():
    a = 0.3
    s = make_isotropic_witness(a, 3)
    lam = np.array([0.6, 0.48, 0.64])
    e = PureState(Dims(3, 1), lam.astype(complex))
    got = (1 - a) * partial_expectation(s, e, side="A").matrix
    for i in range(3):
        for j in range(3):
            expected = (1 / 9 if i == j else 0.0) - (a / 3) * lam[i] * lam[j]
            assert abs(got[i, j] - expected) < 1e-12


def test_partial_expectation_is_linear():
    rng = np.random.default_rng(7)
    w1 = random_hermitian(D33, seed=71)
    w2 = random_hermitian(D33, seed=72)
    alpha, beta = 0.7, -1.3
    combo = Operator(D33, alpha * w1.matrix + beta * w2.matrix)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    e = PureState(Dims(3, 1), amps / np.linalg.norm(amps))
    lhs = partial_expectation(combo, e).matrix
    rhs = alpha * partial_expectation(w1, e).matrix + beta * partial_expectation(w2, e).matrix
    assert np.abs(lhs - rhs).max() < 1e-10


def test_partial_expectation_side_b():
    w = random_hermitian(Dims(2, 3), seed=9)
    rng = np.random.default_rng(10)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps /= np.linalg.norm(amps)
    f = PureState(Dims(1, 3), amps)
    out = partial_expectation(w, f, side="B")
    w4 = w.matrix.reshape(2, 3, 2, 3)
    expected = np.einsum("c,rcsd,d->rs", amps.conj(), w4, amps)
    assert np.abs(out.matrix - expected).max() < 1e-12


def test_partial_expectation_dimension_mismatch():
    w = random_hermitian(D33, seed=11)
    e = PureState(Dims(2, 1), np.array([1, 0]))
    with pytest.raises(DimensionError):
        partial_expectation(w, e, side="A")


# ---------------------------------------------------------------------------
# eigenpairs, expectations, traces


def test_min_eigenpair_identity():
    h = Operator(Dims(2, 2), np.eye(4))
    value, vec = min_eigenpair(h)
    assert abs(value - 1.0) < 1e-12
    assert abs(vec.norm() - 1.0) < 1e-12


def test_min_eigenpair_isotropic_family():
    a = 0.2
    s = make_isotropic_witness(a, 3)
    value, vec = min_eigenpair(s)
    assert abs(value - (1 / 9 - a) / (1 - a)) < 1e-12
    phi = maximally_entangled_state(3)
    overlap = abs(np.vdot(phi.amplitudes, vec.amplitudes))
    assert abs(overlap - 1.0) < 1e-9
    # eight-fold degenerate rest of the spectrum
    evals = np.linalg.eigvalsh(s.matrix)
    assert np.abs(evals[1:] - (1 / 9) / (1 - a)).max() < 1e-12


def test_min_eigenpair_diagonal():
    h = Operator(Dims(3, 1), np.diag([3.0, -2.0, 5.0]))
    value, vec = min_eigenpair(h)
    assert value == -2.0
    assert np.abs(np.abs(vec.amplitudes) - [0, 1, 0]).max() < 1e-12


def test_min_eigenpair_residual_and_bound():
    h = random_hermitian(Dims(2, 3), seed=12)
    value, vec = min_eigenpair(h)
    residual = np.linalg.norm(h.matrix @ vec.amplitudes - value * vec.amplitudes)
    assert residual < 1e-9
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        assert value <= np.vdot(v, h.matrix @ v).real + 1e-12


def test_min_eigenpair_rejects_non_hermitian():
    # eigh reads one triangle and would take this for the zero matrix; no
    # Operator holds it, so it never reaches min_eigenpair
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        Operator(Dims(2, 1), m)


def test_expectation_values():
    d = 3
    w = Operator(D33, np.eye(9) / 9)
    psi = random_pure_state(D33, rank=2, seed=14)
    assert abs(expectation(w, psi) - 1 / d**2) < 1e-12

    a = 0.17
    s = make_isotropic_witness(a, 3)
    phi = maximally_entangled_state(3)
    assert abs(expectation(s, phi) - (1 / 9 - a) / (1 - a)) < 1e-12


def test_expectation_scales_quadratically():
    w = random_hermitian(D33, seed=15)
    psi = random_pure_state(D33, rank=3, seed=16)
    scaled = PureState(D33, 2.5j * psi.amplitudes)
    assert abs(expectation(w, scaled) - 2.5**2 * expectation(w, psi)) < 1e-10


def test_trace_pair_values():
    w = random_hermitian(D33, seed=17)  # trace one
    uniform = Operator(D33, np.eye(9) / 9)
    assert abs(trace_pair(w, uniform) - 1 / 9) < 1e-12

    a = 0.25
    s = make_isotropic_witness(a, 3)
    phi = maximally_entangled_state(3).amplitudes
    proj = Operator(D33, np.outer(phi, phi.conj()))
    assert abs(trace_pair(s, proj) - (1 / 9 - a) / (1 - a)) < 1e-12


def test_values_are_real_for_every_operator_the_constructor_accepts():
    # an asymmetry just under the relative bound leaves imaginary parts far
    # above an absolute cutoff such as 1e-8: about 1e-5 in <psi|W|psi>, 3e4 in Tr(W W)
    rng = np.random.default_rng(20)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    matrix = 1e6 * (g @ g.conj().T)
    matrix[0, 1] += 0.5j * HERMITICITY_TOL * np.abs(matrix).max()
    w = Operator(D33, matrix)
    psi = random_pure_state(D33, rank=3, seed=18)
    value = np.vdot(psi.amplitudes, matrix @ psi.amplitudes)
    assert abs(value.imag) > 1e-6
    assert expectation(w, psi) == value.real
    pair = np.sum(matrix * matrix.T)
    assert abs(pair.imag) > 1.0
    assert trace_pair(w, w) == pair.real
    for got in (expectation(w, psi), trace_pair(w, w)):
        assert type(got) is float and np.isfinite(got)


def test_trace_pair_is_linear_over_ensembles():
    w = random_hermitian(D33, seed=18)
    rng = np.random.default_rng(19)
    total = np.zeros((9, 9), dtype=complex)
    acc = 0.0
    for i in range(5):
        p = rng.uniform(0.1, 1.0)
        psi = random_pure_state(D33, rank=1 + i % 3, seed=(20, i))
        total += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        acc += p * expectation(w, psi)
    rho = Operator(D33, total)
    assert abs(trace_pair(w, rho) - acc) < 1e-10


def test_psd_operator_has_nonnegative_expectations():
    rng = np.random.default_rng(21)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    mat = g.conj().T @ g
    psd = Operator(D33, mat / np.trace(mat).real)
    for t in range(50):
        psi = random_pure_state(D33, rank=1 + t % 3, seed=(22, t))
        assert expectation(psd, psi) >= -1e-10


# ---------------------------------------------------------------------------
# partial transpose


def test_partial_transpose_involution_and_trace():
    w = random_hermitian(Dims(2, 3), seed=23)
    for side in ("A", "B"):
        back = partial_transpose(partial_transpose(w, side), side)
        assert np.array_equal(back.matrix, w.matrix)
        assert abs(partial_transpose(w, side).trace() - w.trace()) < 1e-12


def test_partial_transpose_of_bell_projector():
    phi = maximally_entangled_state(2).amplitudes
    proj = Operator(Dims(2, 2), np.outer(phi, phi.conj()))
    swapped = partial_transpose(proj, side="B")
    evals = np.linalg.eigvalsh(swapped.matrix)
    assert abs(evals[0] + 0.5) < 1e-12


# ---------------------------------------------------------------------------
# type validation


def test_dims_validation():
    with pytest.raises(DimensionError):
        Dims(0, 2)
    with pytest.raises(DimensionError):
        Dims(2, 2, kA=-1)
    assert Dims(2, 3, 2, 2).total == 24


def test_state_validation():
    with pytest.raises(DimensionError):
        PureState(Dims(2, 2), np.zeros(3))


def test_operator_validation():
    with pytest.raises(NotHermitianError):
        Operator(Dims(2, 1), np.array([[0, 1], [0, 0]]))
    with pytest.raises(DimensionError):
        Operator(Dims(2, 1), np.zeros((3, 3)))


def test_operator_matrices_are_immutable():
    w = random_hermitian(Dims(2, 2), seed=24)
    with pytest.raises(ValueError):
        w.matrix[0, 0] = 1.0


def test_entries_whose_squared_moduli_overflow_are_rejected():
    # each entry is finite, the sum of their squared moduli is not: an
    # eigenvalue, trace or squared norm of these would read inf
    big = np.eye(4)
    big[0, 3] = big[3, 0] = 0.9
    big *= -1.7e308
    with pytest.raises(ParameterError, match="matrix is too large"):
        Operator(Dims(2, 2), big)
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4]] = 1e200
    with pytest.raises(ParameterError, match="amplitudes is too large"):
        PureState(D33, amps)
    # non-finite entries keep their own message
    with pytest.raises(ParameterError, match="amplitudes has non-finite entries"):
        PureState(D33, np.full(9, np.nan))
    # the largest accepted scale: the squared moduli sum to just below the limit
    edge = np.zeros(9, dtype=complex)
    edge[0] = 1.3e154
    assert PureState(D33, edge).norm() == 1.3e154



def test_expectation_that_overflows_a_float_is_rejected():
    """Both inputs pass the scale rule, but a non-unit state enters squared."""
    w = Operator(D33, 1e10 * np.eye(9))
    amplitudes = np.zeros(9, dtype=complex)
    amplitudes[4] = 1e100
    assert expectation(w, PureState(D33, amplitudes)) == pytest.approx(1e210, rel=1e-15)
    amplitudes[4] = 1e150
    with pytest.raises(ParameterError, match="expectation value overflows a float"):
        expectation(w, PureState(D33, amplitudes))

REJECTED = {
    "normalize-zero": (
        lambda: normalize(PureState(D33, np.zeros(9))), DegenerateStateError, "zero vector"),
    "product-of-non-factors": (
        lambda: product_state(basis_state(D33, 0), basis_state(D33, 0)),
        DimensionError, "A-side and a B-side factor"),
    "partial-expectation-b-mismatch": (
        lambda: partial_expectation(random_hermitian(Dims(2, 3), seed=9),
                                    PureState(Dims(1, 2), np.array([1, 0])), side="B"),
        DimensionError, "B-side factor"),
    "partial-expectation-unknown-side": (
        lambda: partial_expectation(random_hermitian(D33, seed=9),
                                    PureState(Dims(3, 1), np.array([1, 0, 0])), side="C"),
        ParameterError, "side must be 'A' or 'B'"),
    "expectation-dims": (
        lambda: expectation(random_hermitian(D33, seed=9), basis_state(Dims(3, 2), 0)),
        DimensionError, "dims mismatch"),
    "trace-pair-dims": (
        lambda: trace_pair(random_hermitian(D33, seed=9), random_hermitian(Dims(3, 2), seed=9)),
        DimensionError, "dims mismatch"),
    "partial-transpose-unknown-side": (
        lambda: partial_transpose(random_hermitian(D33, seed=9), side="C"),
        ParameterError, "side must be 'A' or 'B'"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_arguments_raise_their_error(name):
    call, error, message = REJECTED[name]
    with pytest.raises(error, match=message):
        call()
