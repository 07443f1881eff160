"""Tests for the family constructors, random generators and the scanner."""

import dataclasses
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
from snwitness.families import _boundary

D33 = Dims(3, 3)
FAST = OptimizerConfig(seed=4, restarts=12)


def isotropic(a, d=3):
    return make_isotropic_witness(a, d)


def threshold(d, level, tol=FAST.positivity_tol):
    """Where level l of the isotropic family reaches -tol: (1/d^2 + tol)/(l/d + tol)."""
    return (1 / d**2 + tol) / (level / d + tol)


def test_family_parameter_validation():
    with pytest.raises(ParameterError):
        make_isotropic_witness(-0.01, 3)
    with pytest.raises(ParameterError):
        make_isotropic_witness(1.0, 3)
    with pytest.raises(ParameterError):
        make_isotropic_witness(0.2, 1)


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
    assert abs(first.a_star - threshold(3, 3)) <= 1e-9
    assert (second.left_verdict, second.right_verdict) == ("3-SW", "2-SW")
    assert abs(second.a_star - threshold(3, 2)) <= 1e-9


def test_scan_marks_failed_rows_and_continues():
    scan = threshold_scan([0.05, 1.5], d=3, config=FAST)
    assert scan.rows[0].error is None
    assert scan.rows[1].verdict == "failed"
    assert "ParameterError" in scan.rows[1].error


@pytest.mark.parametrize(
    "d, max_k, message",
    [
        (1, None, "local dimension must be >= 2, got 1"),
        (3, 0, r"max_k must be in \[1, 3\], got 0"),
        (3, 4, r"max_k must be in \[1, 3\], got 4"),
    ],
)
def test_scan_rejects_a_bad_dimension_or_max_k(d, max_k, message):
    # either would fail every row alike, so the scan refuses it before the grid
    with pytest.raises(ParameterError, match=message):
        threshold_scan([0.05, 0.2], d=d, config=FAST, max_k=max_k)


def test_scan_rows_are_ordered_by_parameter():
    scan = threshold_scan([0.2, 0.05], d=3, config=FAST)
    assert [row.a for row in scan.rows] == [0.05, 0.2]


def test_scan_rejects_non_positive_bisect_tol():
    for bad in (0.0, -1e-3):
        with pytest.raises(ParameterError):
            threshold_scan([0.05, 0.2], d=3, config=FAST, bisect=True, bisect_tol=bad)


def count_level_evaluations(monkeypatch):
    """The list of levels of every ``_level_minimum`` call the scanner makes."""
    calls = []
    level_minimum = families._level_minimum

    def counted(spectra, level, config):
        calls.append(level)
        return level_minimum(spectra, level, config)

    monkeypatch.setattr(families, "_level_minimum", counted)
    return calls


def holds_at(d, level, a):
    """The verdict of level ``level`` at a: its minimum is >= -positivity_tol."""
    found = families._level_minimum(witness._Spectra(isotropic(a, d)), level, FAST)
    return found.value >= -FAST.positivity_tol


def test_boundary_bracket_is_certified_a_few_floats_wide():
    scan = threshold_scan([0.125, 0.2], d=3, config=FAST, bisect=True, bisect_tol=1e-300)
    (boundary,) = scan.boundaries
    # the half-width starts at one float spacing and doubles until the level
    # verdicts at both ends are certified
    half = boundary.width / 2
    assert [holds_at(3, 2, boundary.a_star + e) for e in (-half, half)] == [True, False]
    assert 0 < boundary.width <= 64 * np.spacing(boundary.a_star)
    assert abs(boundary.a_star - threshold(3, 2)) < 1e-15


def test_boundary_without_a_sign_change_evaluates_nothing(monkeypatch):
    left, right = threshold_scan([0.125, 0.2], d=3, config=FAST).rows
    # level 2 governs 3-SW | 2-SW; make it non-negative at the right row too
    right = dataclasses.replace(right, product_min={**right.product_min, 2: 0.0})
    calls = count_level_evaluations(monkeypatch)
    boundary = _boundary(3, left, right, witness._Spectra(isotropic(0.2)), FAST, 0.01)
    assert calls == []
    assert (boundary.a_low, boundary.a_high) == (0.125, 0.2)
    assert (boundary.a_star, boundary.width) == (0.5 * (0.125 + 0.2), 0.2 - 0.125)


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
def test_boundary_endpoint_verdicts_are_the_predicate_at_the_rows(monkeypatch, d, a_left, a_right):
    left, right = threshold_scan([a_left, a_right], d=d, config=FAST).rows
    assert left.verdict != right.verdict
    # the end values are the governing level's minima, bit for bit, and its
    # sign flips between them
    positive = "PositiveOperator" in (left.verdict, right.verdict)
    level = d if positive else min(left.k, right.k)
    ends = []
    for row in (left, right):
        value = families._level_minimum(witness._Spectra(isotropic(row.a, d)), level, FAST).value
        assert row.product_min.get(level, row.min_eigenvalue) == value
        ends.append(value >= -FAST.positivity_tol)
    assert ends == [True, False]
    # the search reads the right row's minimizer, finds the threshold as a
    # ratio and checks the level at the two ends of the bracket about it
    levels = count_level_evaluations(monkeypatch)
    boundary = _boundary(d, left, right, witness._Spectra(isotropic(a_right, d)), FAST, 0.01)
    monkeypatch.undo()
    assert len(levels) <= 3 and set(levels) == {level}
    half = boundary.width / 2
    assert [holds_at(d, level, boundary.a_star + e) for e in (-half, half)] == [True, False]
    assert abs(boundary.a_star - threshold(d, level)) < 1e-12


@pytest.mark.parametrize("d", [4, 5, 6])
def test_scan_finds_every_isotropic_boundary_at_its_threshold(monkeypatch, d):
    # one grid point per verdict region: positive, then d-SW down to 1-SW
    # (level l detects beyond 1/(d l), the positive region ends at 1/d^2)
    edges = [1 / d**2] + [1 / (d * level) for level in range(d - 1, 0, -1)] + [1.0]
    grid = [0.5 / d**2] + [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
    levels = count_level_evaluations(monkeypatch)
    per_boundary = []
    boundary = families._boundary

    def counted(*args):
        start = len(levels)
        found = boundary(*args)
        per_boundary.append(len(levels) - start)
        return found

    monkeypatch.setattr(families, "_boundary", counted)
    scan = threshold_scan(grid, d=d, config=FAST, bisect=True, bisect_tol=1e-3)
    assert [row.k for row in scan.rows] == [None] + list(range(d, 0, -1))
    assert len(scan.boundaries) == len(per_boundary) == d and max(per_boundary) <= 3
    for level, found in zip(range(d, 0, -1), scan.boundaries):
        assert abs(found.a_star - threshold(d, level)) <= 1e-12
        assert 0 < found.width <= 2 * 1e-3


def test_scan_row_is_unconverged_when_a_level_fill_in_is(monkeypatch, tmp_path):
    # a positive row runs no ladder to classify, but it fills in levels 1
    # and 2; the partial-transpose bound certifies both on the isotropic
    # family, so an unconverged fill-in is forced
    level_minimum = families._level_minimum

    def unconverged(spectra, level, config):
        return dataclasses.replace(level_minimum(spectra, level, config), converged=False)

    monkeypatch.setattr(families, "_level_minimum", unconverged)
    (row,) = threshold_scan([0.05], d=3, config=FAST).rows
    assert (row.verdict, row.converged) == ("PositiveOperator", False)
    argv = ["scan", "--a-from", "0.05", "--a-to", "0.05", "--steps", "1", "--dim", "3",
            "--restarts", "4", "--output", str(tmp_path / "scan.json")]
    assert main(argv) == 3


def count_transposed_spectra(monkeypatch):
    """The list of operators whose S^Gamma the scan computes."""
    calls = []
    partial_transpose = witness.partial_transpose

    def counted(s, *args):
        calls.append(s)
        return partial_transpose(s, *args)

    monkeypatch.setattr(witness, "partial_transpose", counted)
    return calls


@pytest.mark.parametrize(
    "a_values, spectra",
    [
        # a positive row: classification stops at the spectrum, and one
        # S^Gamma spectrum serves both fill-in levels
        ([0.05], 1),
        # the golden scan_thresholds rows: one positive row, and two witness
        # rows whose ladders list levels 1 and 2 already
        ([0.05, 0.125, 0.2], 3),
    ],
)
def test_scan_computes_one_transposed_spectrum_per_row(monkeypatch, a_values, spectra):
    calls = count_transposed_spectra(monkeypatch)
    threshold_scan(a_values, d=3, config=OptimizerConfig(seed=7, restarts=64))
    assert len(calls) == spectra


def count_full_size_eigh(monkeypatch, n):
    """The list of n x n matrices the scan decomposes with ``np.linalg.eigh``:
    a record's one eigh of S, which its lowest eigenpair and its rounding
    read.  The see-saw's half-steps would solve stacks of smaller ones."""
    calls = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        if np.shape(m) == (n, n):
            calls.append(m)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize(
    "a, eigenpairs",
    [
        # a positive row: both fill-ins are certified by the bound, so the
        # classification's eigenpair is the only one
        (0.05, 1),
        # 3-SW and 2-SW rows: the ladder lists levels 1 and 2, no fill-in
        (0.125, 1),
        (0.2, 1),
        # a 1-SW row: the level-2 fill-in is the truncated eigenvector, read
        # from the record the classification computed
        (0.4, 1),
    ],
)
def test_scan_computes_a_lowest_eigenpair_only_where_it_is_used(monkeypatch, a, eigenpairs):
    calls = count_full_size_eigh(monkeypatch, 9)
    threshold_scan([a], d=3, config=OptimizerConfig(seed=7, restarts=64))
    assert len(calls) == eigenpairs


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

    monkeypatch.setattr(families, "_classify", broken)
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
    z = make_isotropic_witness(0.0, 3)
    assert abs(lambda_max_subtraction(isotropic(1 / 8), z, 3, FAST).lambda0 - 2 / 7) < 1e-6
