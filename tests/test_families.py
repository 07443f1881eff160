"""Tests for the family constructors, random generators and the scanner."""

import sys

import numpy as np
import pytest

import snwitness.cli as cli
import snwitness.families as families
import snwitness.witness as witness
from snwitness import (
    Dims,
    OptimizerConfig,
    ParameterError,
    classify_schmidt_witness,
    embedding,
    lambda_max_subtraction,
    lift_operator,
    make_isotropic_witness,
    maximally_entangled_state,
    min_product_expectation,
    random_hermitian,
    random_pure_state,
    schmidt_rank,
    threshold_scan,
)
from snwitness.cli import main
from snwitness.families import IsotropicWitnessSpec, _bisect_predicate

D33 = Dims(3, 3)
FAST = OptimizerConfig(seed=4, restarts=12)


def isotropic(a, d=3):
    return make_isotropic_witness(IsotropicWitnessSpec(a, d))


def test_family_parameter_validation():
    with pytest.raises(ParameterError):
        IsotropicWitnessSpec(-0.01)
    with pytest.raises(ParameterError):
        IsotropicWitnessSpec(1.0)
    with pytest.raises(ParameterError):
        IsotropicWitnessSpec(0.2, d=1)


def test_family_trace_is_one():
    for a in (0.0, 1 / 9, 0.2, 0.9):
        assert abs(isotropic(a).trace() - 1.0) < 1e-12


def test_family_spectrum():
    # one eigenvalue (1/9 - a)/(1 - a) on the entangled direction, the rest flat
    a = 1 / 9
    evals = np.sort(np.linalg.eigvalsh(isotropic(a).matrix))
    assert abs(evals[0]) < 1e-12
    assert np.abs(evals[1:] - (1 / 9) / (1 - a)).max() < 1e-12


def test_family_boundary_member_vanishes_on_every_conditional():
    # at a = 1/3 the smallest eigenvalue of (1-a) <e|S(a)|e> is 0 for all e
    from snwitness import PureState, partial_expectation

    a = 1 / 3
    s = isotropic(a)
    rng = np.random.default_rng(79)
    for _ in range(20):
        vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        e = PureState(Dims(3, 1), vec / np.linalg.norm(vec))
        conditional = (1 - a) * partial_expectation(s, e, side="A").matrix
        assert abs(np.linalg.eigvalsh(conditional)[0] - (1 / 9 - a / 3)) < 1e-9


def test_family_generalizes_to_other_dimensions():
    a = 0.3
    w = isotropic(a, d=2)
    assert w.dims == Dims(2, 2)
    assert abs(w.trace() - 1.0) < 1e-12
    evals = np.sort(np.linalg.eigvalsh(w.matrix))
    assert abs(evals[0] - (1 / 4 - a) / (1 - a)) < 1e-12


def test_family_closed_under_mixing_with_its_center():
    rng = np.random.default_rng(80)
    center = isotropic(0.0).matrix  # the identity divided by d^2
    for _ in range(10):
        a1 = float(rng.uniform(0.0, 0.9))
        eps = float(rng.uniform(0.0, 0.9))
        mixed = (1 - eps) * isotropic(a1).matrix + eps * center
        derived = (1 - eps) * a1 / (1 - eps * a1)
        assert np.abs(mixed - isotropic(derived).matrix).max() < 1e-12


def test_maximally_entangled_state_values():
    bell = maximally_entangled_state(2)
    assert np.abs(bell.amplitudes - np.array([1, 0, 0, 1]) / np.sqrt(2)).max() < 1e-15
    psi = maximally_entangled_state(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.abs(psi.amplitudes - expected).max() < 1e-15
    for d in (2, 3, 4):
        assert schmidt_rank(maximally_entangled_state(d)) == d
    with pytest.raises(ParameterError):
        maximally_entangled_state(1)


def test_random_state_has_exact_rank():
    for t in range(100):
        rank = 1 + t % 3
        psi = random_pure_state(D33, rank=rank, seed=(81, t))
        assert schmidt_rank(psi) == rank
    assert schmidt_rank(random_pure_state(D33, rank=1, seed=82)) == 1


def test_random_state_is_deterministic():
    one = random_pure_state(D33, rank=2, seed=83)
    two = random_pure_state(D33, rank=2, seed=83)
    assert np.array_equal(one.amplitudes, two.amplitudes)
    other = random_pure_state(D33, rank=2, seed=84)
    assert not np.array_equal(one.amplitudes, other.amplitudes)


def test_random_state_rank_validation():
    with pytest.raises(ParameterError):
        random_pure_state(D33, rank=4, seed=85)
    with pytest.raises(ParameterError):
        random_pure_state(D33, rank=0, seed=85)


def test_random_hermitian_is_exactly_hermitian_and_normalized():
    op = random_hermitian(D33, seed=86)
    assert np.abs(op.matrix - op.matrix.conj().T).max() == 0.0
    assert abs(op.trace() - 1.0) < 1e-12
    again = random_hermitian(D33, seed=86)
    assert np.array_equal(op.matrix, again.matrix)


def test_per_level_minima_decrease_with_the_parameter():
    # strictly in the regime where each level's minimum is active
    grids = {1: np.linspace(0.05, 0.30, 5), 2: np.linspace(0.18, 0.30, 5)}
    for level, grid in grids.items():
        values = [
            min_product_expectation(lift_operator(isotropic(a), level).operator, FAST).value
            for a in grid
        ]
        assert np.all(np.diff(values) < -1e-6)
    # weakly everywhere else: the level-2 minimum sits at zero below its threshold
    low = min_product_expectation(lift_operator(isotropic(0.05), 2).operator, FAST).value
    high = min_product_expectation(lift_operator(isotropic(0.12), 2).operator, FAST).value
    assert high <= low + 1e-9


def test_scan_reproduces_the_three_regimes():
    scan = threshold_scan([0.05, 0.125, 0.2], d=3, config=FAST)
    verdicts = [row.verdict for row in scan.rows]
    assert verdicts == ["PositiveOperator", "3-SW", "2-SW"]
    for row in scan.rows:
        assert 1 in row.product_min and 2 in row.product_min
        assert row.converged
        assert row.error is None


def test_scan_bisects_boundaries():
    scan = threshold_scan(
        [0.05, 0.125, 0.2], d=3, config=FAST, bisect=True, bisect_tol=2e-3
    )
    assert len(scan.boundaries) == 2
    first, second = scan.boundaries
    assert (first.left_verdict, first.right_verdict) == ("PositiveOperator", "3-SW")
    assert abs(first.a_star - 1 / 9) <= 5e-3
    assert (second.left_verdict, second.right_verdict) == ("3-SW", "2-SW")
    assert abs(second.a_star - 1 / 6) <= 5e-3


def test_scan_marks_failed_rows_and_continues():
    scan = threshold_scan([0.05, 1.5], d=3, config=FAST)
    assert scan.rows[0].error is None
    assert scan.rows[1].verdict == "failed"
    assert "ParameterError" in scan.rows[1].error


def test_scan_rows_are_ordered_by_parameter():
    scan = threshold_scan([0.2, 0.05], d=3, config=FAST)
    assert [row.a for row in scan.rows] == [0.05, 0.2]


def test_scan_rejects_non_positive_bisect_tol():
    for bad in (0.0, -1e-3):
        with pytest.raises(ParameterError):
            threshold_scan([0.05, 0.2], d=3, config=FAST, bisect=True, bisect_tol=bad)


def test_bisection_stops_after_a_fixed_number_of_halvings():
    calls = []

    def predicate(a):
        calls.append(a)
        return a < 0.3

    # the endpoint verdicts come from the scan rows, so only midpoints are evaluated
    a_star, width = _bisect_predicate(predicate, 0.1, 0.5, 0.0, (True, False))
    assert abs(a_star - 0.3) < 1e-12 and width >= 0.0
    assert len(calls) == families.MAX_HALVINGS


def test_bisection_without_a_sign_change_evaluates_nothing():
    calls = []
    a_star, width = _bisect_predicate(calls.append, 0.1, 0.5, 0.01, (True, True))
    assert (a_star, width, calls) == (0.3, 0.4, [])


# isotropic thresholds: positive up to 1/d^2, level l negative beyond l/d
BOUNDARY_PAIRS = [
    pytest.param(3, 0.05, 0.125, id="0.05-0.125"),  # positive | 3-SW: level 3
    pytest.param(3, 0.125, 0.2, id="0.125-0.2"),  # 3-SW | 2-SW: level 2
    pytest.param(3, 0.2, 0.4, id="0.2-0.4"),  # 2-SW | 1-SW: level 1
    # positive | 2-SW: level 3, which the 2-SW row does not list
    pytest.param(3, 0.05, 0.2, id="0.05-0.2"),
    pytest.param(2, 0.1, 0.3, id="d2-0.1-0.3"),  # positive | 2-SW: level 2, in both rows
    pytest.param(2, 0.3, 0.6, id="d2-0.3-0.6"),  # 2-SW | 1-SW: level 1
]


@pytest.mark.parametrize("d, a_left, a_right", BOUNDARY_PAIRS)
def test_boundary_endpoint_verdicts_are_the_predicate_at_the_rows(d, a_left, a_right):
    def family(a):
        return isotropic(a, d)

    left, right = threshold_scan([a_left, a_right], d=d, config=FAST).rows
    assert left.verdict != right.verdict
    predicate, ends = families._boundary_predicate(family, d, left, right, FAST)
    assert ends == (predicate(a_left), predicate(a_right)) == (True, False)
    # the end values are the governing level's minima, bit for bit
    positive = "PositiveOperator" in (left.verdict, right.verdict)
    level = d if positive else min(left.k, right.k)
    for row in (left, right):
        value = families._level_minimum(family(row.a), level, FAST)[0]
        assert row.product_min.get(level, row.min_eigenvalue) == value


def test_scan_row_is_unconverged_when_a_level_fill_in_is(monkeypatch, tmp_path):
    # a positive row runs no see-saw to classify, but its level 1 and 2
    # fill-ins do; one iteration is too few for any restart to converge
    monkeypatch.setattr(witness, "MAX_ITERS", 1)
    (row,) = threshold_scan([0.05], d=3, config=FAST).rows
    assert (row.verdict, row.converged) == ("PositiveOperator", False)
    argv = ["scan", "--a-from", "0.05", "--a-to", "0.05", "--steps", "1", "--dim", "3",
            "--restarts", "4", "--output", str(tmp_path / "scan.json")]
    assert main(argv) == 3


def test_scan_csv_level_columns_follow_scan_levels(monkeypatch):
    monkeypatch.setattr(families, "SCAN_LEVELS", (1, 3))
    monkeypatch.setattr(cli, "SCAN_LEVELS", (1, 3))
    scan = threshold_scan([0.2], d=3, config=FAST)
    header, line = cli.scan_to_csv(scan).splitlines()
    assert header == "a,verdict,k,min_eig,prodmin_l1,prodmin_l3,restarts,converged"
    (row,) = scan.rows
    assert line.split(",")[4:6] == [repr(row.product_min[1]), repr(row.min_eigenvalue)]


def test_scan_lets_programming_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a scan failure")

    monkeypatch.setattr(families, "classify_schmidt_witness", broken)
    with pytest.raises(TypeError):
        threshold_scan([0.05, 0.2], d=3, config=FAST)


def test_classify_and_scan_never_build_the_lifted_operator(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("lift_operator called on the optimizer path")

    original = embedding.lift_operator
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "snwitness" and getattr(module, "lift_operator", None) is original:
            monkeypatch.setattr(module, "lift_operator", refuse)
    out = tmp_path / "out.json"
    assert main(["classify", "--family", "isotropic", "--a", "0.125", "--restarts", "8",
                 "--output", str(out)]) == 0
    assert main(["scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--restarts", "8",
                 "--bisect", "--bisect-tol", "0.01", "--output", str(out)]) == 0
    z = make_isotropic_witness(IsotropicWitnessSpec(0.0, 3))
    assert abs(lambda_max_subtraction(isotropic(1 / 8), z, 3, FAST).lambda0 - 2 / 7) < 1e-6
