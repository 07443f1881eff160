"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The golden files under
tests/golden/ are produced by the CLI commands listed in tests/golden/README
and are compared byte-for-byte by the determinism criterion.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from snwitness import (
    Dims,
    Operator,
    OptimizerConfig,
    classify_schmidt_witness,
    expectation,
    finer_certificate,
    lambda_max_subtraction,
    lift_ensemble,
    lift_operator,
    lift_state,
    lower_ensemble,
    lower_state,
    make_isotropic_witness,
    maximally_entangled_state,
    min_product_expectation,
    random_hermitian,
    random_pure_state,
    refine_by_subtraction,
    threshold_scan,
    trace_pair,
)
import snwitness.witness as witness
from snwitness.checks import grid_product_min
from snwitness.cli import main
from snwitness.hilbert import PureState, product_state

GOLDEN = Path(__file__).parent / "golden"
D33 = Dims(3, 3)


def isotropic(a, d=3):
    return make_isotropic_witness(a, d)


def identity_over_nine():
    return Operator(D33, np.eye(9) / 9)


def test_criterion_1_threshold_reproduction():
    """Verdicts PositiveOperator / 3-SW / 2-SW with boundaries at 1/9 and 1/6."""
    config = OptimizerConfig(seed=7, restarts=64)
    scan = threshold_scan(
        [0.05, 0.125, 0.2], d=3, config=config, bisect=True, bisect_tol=2e-3
    )
    verdicts = [row.verdict for row in scan.rows]
    assert verdicts == ["PositiveOperator", "3-SW", "2-SW"]
    assert all(row.converged for row in scan.rows)
    lower, upper = scan.boundaries
    # level l reaches -tol at (1/9 + tol)/(l/3 + tol): 1/9 and 1/6 for tol = 0
    tol = config.positivity_tol
    assert abs(lower.a_star - (1 / 9 + tol) / (1 + tol)) <= 1e-9
    assert abs(upper.a_star - (1 / 9 + tol) / (2 / 3 + tol)) <= 1e-9
    print(
        f"\nPASS criterion 1: verdicts {verdicts}, boundaries "
        f"{lower.a_star:.5f} (1/9 = {1/9:.5f}) and {upper.a_star:.5f} (1/6 = {1/6:.5f})"
    )


def test_criterion_2_level_one_boundary_eigenvalue():
    """(1-a) times the product minimum equals 1/9 - a/3; sign change at 1/3."""
    config = OptimizerConfig(seed=11, restarts=16)
    worst = 0.0
    for a in np.linspace(0.02, 0.33, 20):
        value = (1 - a) * min_product_expectation(isotropic(a), config).value
        worst = max(worst, abs(value - (1 / 9 - a / 3)))
    assert worst < 1e-8

    def positive_at(a):
        return (1 - a) * min_product_expectation(isotropic(a), config).value >= 0

    lo, hi = 0.30, 0.36
    assert positive_at(lo) and not positive_at(hi)
    while hi - lo > 2e-7:
        mid = 0.5 * (lo + hi)
        if positive_at(mid):
            lo = mid
        else:
            hi = mid
    a_star = 0.5 * (lo + hi)
    assert abs(a_star - 1 / 3) <= 1e-6
    print(
        f"\nPASS criterion 2: max |(1-a) prodmin - (1/9 - a/3)| = {worst:.2e}, "
        f"sign change at {a_star:.8f} (1/3 = {1/3:.8f})"
    )


def test_criterion_3_expectation_identity_500_pairs():
    """<psi|S|psi> equals the lifted expectation, including rank > k blocks."""
    worst = 0.0
    for t in range(500):
        k = 2 + t % 2
        rank = 1 + t % 3
        psi = random_pure_state(D33, rank=rank, seed=(300, t))
        s = random_hermitian(D33, seed=(301, t))
        lifted_psi = lift_state(psi, k).state
        lifted_s = lift_operator(s, k).operator
        rhs = np.vdot(lifted_psi.amplitudes, lifted_s.matrix @ lifted_psi.amplitudes)
        worst = max(worst, abs(expectation(s, psi) - rhs))
    assert worst < 1e-9
    print(f"\nPASS criterion 3: 500 pairs, max identity error {worst:.2e}")


def test_criterion_4_roundtrip_500_states():
    """Lowering inverts lifting for random states of rank at most k."""
    worst = 0.0
    for t in range(500):
        k = 2 + t % 2
        rank = 1 + t % k
        psi = random_pure_state(D33, rank=rank, seed=(400, t))
        back = lower_state(lift_state(psi, k).state, k)
        worst = max(worst, float(np.linalg.norm(back.amplitudes - psi.amplitudes)))
    assert worst < 1e-10
    print(f"\nPASS criterion 4: 500 round trips, max error {worst:.2e}")


def test_criterion_5_trace_correspondence_200_ensembles():
    """Trace pairings survive lifting (and lowering) of random ensembles."""
    worst_up = 0.0
    worst_down = 0.0
    for t in range(200):
        k = 2 + t % 2
        s = random_hermitian(D33, seed=(500, t))
        lifted_s = lift_operator(s, k).operator
        rng = np.random.default_rng((501, t))

        ensemble = []
        rho = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            p = float(rng.uniform(0.1, 1.0))
            state = random_pure_state(D33, rank=1 + int(rng.integers(3)), seed=(502, t, i))
            ensemble.append((p, state))
            rho += p * np.outer(state.amplitudes, state.amplitudes.conj())
        gamma = lift_ensemble(ensemble, k)
        lhs = trace_pair(s, Operator(D33, rho))
        worst_up = max(worst_up, abs(lhs - trace_pair(lifted_s, gamma)))

        big = D33.with_ancillas(k)
        big_ensemble = []
        theta_big = np.zeros((big.total, big.total), dtype=complex)
        for i in range(3):
            p = float(rng.uniform(0.1, 1.0))
            state = random_pure_state(
                big, rank=1 + int(rng.integers(big.a_dim)), seed=(503, t, i)
            )
            big_ensemble.append((p, state))
            theta_big += p * np.outer(state.amplitudes, state.amplitudes.conj())
        theta = lower_ensemble(big_ensemble, k)
        rhs = trace_pair(lifted_s, Operator(big, theta_big))
        worst_down = max(worst_down, abs(rhs - trace_pair(s, theta)))
    assert worst_up < 1e-9
    assert worst_down < 1e-9
    print(
        f"\nPASS criterion 5: 200 ensembles, lift error {worst_up:.2e}, "
        f"lower error {worst_down:.2e}"
    )


def test_criterion_6_matrix_element_identity_200_pairs():
    """Lifted matrix elements between product pairs match the lowered ones."""
    worst = 0.0
    for t in range(200):
        k = 2 + t % 2
        big = D33.with_ancillas(k)
        s = random_hermitian(D33, seed=(600, t))
        lifted_s = lift_operator(s, k).operator
        rng = np.random.default_rng((601, t))
        pair = []
        for _ in range(2):
            a = rng.normal(size=big.a_dim) + 1j * rng.normal(size=big.a_dim)
            b = rng.normal(size=big.b_dim) + 1j * rng.normal(size=big.b_dim)
            pair.append(
                product_state(
                    PureState(big.a_factor(), a / np.linalg.norm(a)),
                    PureState(big.b_factor(), b / np.linalg.norm(b)),
                )
            )
        lhs = np.vdot(pair[0].amplitudes, lifted_s.matrix @ pair[1].amplitudes)
        low = [lower_state(p, k) for p in pair]
        rhs = np.vdot(low[0].amplitudes, s.matrix @ low[1].amplitudes)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9
    print(f"\nPASS criterion 6: 200 product pairs, max error {worst:.2e}")


def test_criterion_7_optimizer_matches_grid_oracle():
    """See-saw equals dense brute force on random operators at small dims."""
    config = OptimizerConfig(seed=77, restarts=32)
    worst = 0.0
    for t in range(20):
        dims = Dims(2, 2) if t < 10 else Dims(2, 3)
        h = random_hermitian(dims, seed=(700, t))
        found = min_product_expectation(h, config).value
        reference = grid_product_min(h)
        worst = max(worst, abs(found - reference))
    assert worst < 1e-4
    print(f"\nPASS criterion 7: 20 operators, max |seesaw - grid| = {worst:.2e}")


def test_criterion_8_subtraction_threshold_consistency():
    """Both threshold formulations agree and the verdict flips at the threshold."""
    s = isotropic(1 / 8)
    z = identity_over_nine()
    config = OptimizerConfig(seed=8, restarts=32)
    result = lambda_max_subtraction(s, z, 3, config)
    assert abs(result.lambda0 - result.formula_sup_inv) < 1e-4

    below = classify_schmidt_witness(refine_by_subtraction(s, z, result.lambda0 - 1e-2), config=config)
    above = classify_schmidt_witness(refine_by_subtraction(s, z, result.lambda0 + 1e-2), config=config)
    assert below.k == 3
    assert above.k != 3
    print(
        f"\nPASS criterion 8: lambda0 = {result.lambda0:.6f} "
        f"(forms differ by {abs(result.lambda0 - result.formula_sup_inv):.2e}); "
        f"verdict below/above threshold: {below.k}-SW / {above.k}-SW"
    )


def test_criterion_9_finer_certificate_and_ordering():
    """Certificate for the finer pair, refutation reversed, ordered expectations."""
    w1, w2 = isotropic(1 / 3), isotropic(1 / 5)
    cert = finer_certificate(w1, w2)
    assert cert.found
    assert abs(cert.epsilon - 0.5) < 1e-12
    assert np.abs(cert.z.matrix - np.eye(9) / 9).max() < 1e-9

    refuted = finer_certificate(w2, w1)
    assert not refuted.found
    assert refuted.min_eigenvalue < -1e-3

    phi = maximally_entangled_state(3).amplitudes
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        g = rng.normal(size=9) + 1j * rng.normal(size=9)
        vec = phi + 0.4 * g / np.linalg.norm(g)
        vec /= np.linalg.norm(vec)
        rho = Operator(D33, np.outer(vec, vec.conj()))
        if trace_pair(w2, rho) < -1e-9:
            assert trace_pair(w1, rho) <= trace_pair(w2, rho) + 1e-10
            checked += 1
    print(
        f"\nPASS criterion 9: certificate (eps = {cert.epsilon}, Z = id/9), "
        f"reverse refuted (min eig {refuted.min_eigenvalue:.4f}), "
        f"100 detected states ordered"
    )


GOLDEN_COMMANDS = {
    "scan_thresholds.json": [
        "scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--dim", "3",
        "--seed", "7", "--restarts", "64", "--bisect", "--bisect-tol", "0.002",
        "--format", "json",
    ],
    "scan_thresholds.csv": [
        "scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--dim", "3",
        "--seed", "7", "--restarts", "64", "--bisect", "--bisect-tol", "0.002",
        "--format", "csv",
    ],
    "scan_boundary_sweep.json": [
        "scan", "--a-from", "0.02", "--a-to", "0.32", "--steps", "20", "--dim", "3",
        "--seed", "11", "--restarts", "16", "--format", "json",
    ],
    "scan_boundary_sweep.csv": [
        "scan", "--a-from", "0.02", "--a-to", "0.32", "--steps", "20", "--dim", "3",
        "--seed", "11", "--restarts", "16", "--format", "csv",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_criterion_10_determinism_against_golden(tmp_path, name):
    """Re-running a CLI command reproduces the checked-in bytes exactly."""
    golden_path = GOLDEN / name
    assert golden_path.exists(), f"golden file missing: {golden_path}"
    runs = []
    for attempt in (1, 2):
        out = tmp_path / f"{attempt}_{name}"
        code = main(GOLDEN_COMMANDS[name] + ["--output", str(out)])
        assert code == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1], "repeated runs differ"
    assert runs[0] == golden_path.read_bytes(), f"output differs from golden {name}"
    print(f"\nPASS criterion 10 [{name}]: byte-identical across runs and golden file")


def construction_counts(monkeypatch, argv):
    """Random generators built and product minimizations run by one CLI call."""
    counts = {"generators": 0, "product_min": 0}
    real_rng, real_min = np.random.default_rng, witness.min_product_expectation

    def default_rng(*args, **kwargs):
        counts["generators"] += 1
        return real_rng(*args, **kwargs)

    def min_product_expectation(*args, **kwargs):
        counts["product_min"] += 1
        return real_min(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    monkeypatch.setattr(witness, "min_product_expectation", min_product_expectation)
    assert main(argv) == 0
    return counts


def test_golden_scan_draws_no_start(monkeypatch, tmp_path):
    # every level of the three rows and of the bisection steps is the
    # spectrum, the partial-transpose bound, or (the 2-SW row's level 2 and
    # the steps on its side of a = 1/6) the truncated lowest eigenvector
    # meeting that bound, so no start is drawn and no see-saw runs
    argv = GOLDEN_COMMANDS["scan_thresholds.json"] + ["--output", str(tmp_path / "scan.json")]
    assert construction_counts(monkeypatch, argv) == {"generators": 0, "product_min": 0}


def test_classify_ladder_draws_no_start(monkeypatch, tmp_path):
    # a 5-SW member: the partial-transpose bound certifies levels 1..4 and
    # level 5 is the spectrum, so no start is drawn and no see-saw runs
    argv = ["classify", "--family", "isotropic", "--dim", "5", "--a", "0.045",
            "--output", str(tmp_path / "classify.json")]
    assert construction_counts(monkeypatch, argv) == {"generators": 0, "product_min": 0}


def test_criterion_10_golden_content_is_consistent():
    """The checked-in threshold scan carries the published classification."""
    report = json.loads((GOLDEN / "scan_thresholds.json").read_text())
    rows = report["result"]["rows"]
    assert [row["verdict"] for row in rows] == ["PositiveOperator", "3-SW", "2-SW"]
    boundaries = report["result"]["boundaries"]
    tol = report["inputs"]["config"]["positivityTol"]
    assert abs(boundaries[0]["aStar"] - (1 / 9 + tol) / (1 + tol)) <= 1e-9
    assert abs(boundaries[1]["aStar"] - (1 / 9 + tol) / (2 / 3 + tol)) <= 1e-9

    sweep = (GOLDEN / "scan_boundary_sweep.csv").read_text().strip().splitlines()
    worst = 0.0
    for line in sweep[1:]:
        cells = line.split(",")
        a, prodmin_l1 = float(cells[0]), float(cells[4])
        worst = max(worst, abs((1 - a) * prodmin_l1 - (1 / 9 - a / 3)))
    assert worst < 1e-8
    print(f"\nPASS criterion 10 [content]: golden scans consistent, sweep error {worst:.2e}")
