"""End-to-end tests of the command-line interface."""

import dataclasses
import json

import numpy as np
import pytest

from oracles import lower_operator_by_isometry
import snwitness.families as families
from snwitness import (
    Dims,
    Operator,
    PreconditionError,
    maximally_entangled_state,
    random_hermitian,
    random_pure_state,
)
from snwitness.cli import main, operator_to_json, state_from_json, state_to_json


def run_cli(*argv):
    return main(list(argv))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(path):
    return json.loads(path.read_text())


def test_classify_family_member(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "classify", "--family", "isotropic", "--a", "0.125", "--dim", "3",
        "--seed", "3", "--restarts", "8", "--output", str(out),
    )
    assert code == 0
    report = read_report(out)
    assert report["command"] == "classify"
    assert report["result"]["verdict"] == "SchmidtWitness"
    assert report["result"]["k"] == 3
    assert report["inputs"]["config"]["seed"] == 3
    assert report["version"]


def test_classify_operator_file(tmp_path):
    op = Operator(Dims(3, 3), np.eye(9) / 9, hermitian=True)
    path = write_json(tmp_path / "psd.json", operator_to_json(op))
    out = tmp_path / "report.json"
    code = run_cli("classify", "--input", path, "--restarts", "4", "--output", str(out))
    assert code == 0
    assert read_report(out)["result"]["verdict"] == "PositiveOperator"


def test_classify_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert run_cli("classify", "--input", str(path)) == 2


def test_classify_rejects_missing_field(tmp_path):
    path = write_json(tmp_path / "bad.json", {"dims": {"dA": 3, "dB": 3}})
    assert run_cli("classify", "--input", str(path)) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_input_is_rejected(tmp_path, capsys, bad):
    op = operator_to_json(Operator(Dims(3, 3), np.eye(9) / 9, hermitian=True))
    op["matrix"][1][2][0] = op["matrix"][2][1][0] = bad
    state = state_to_json(maximally_entangled_state(3))
    state["amplitudes"][4][1] = bad
    for command, payload in (("classify", op), ("lift", state), ("lift", op)):
        path = write_json(tmp_path / "bad.json", payload)
        extra = ["--k", "2"] if command == "lift" else []
        assert run_cli(command, "--input", path, *extra) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "non-finite" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        # once hung forever: the bisection never narrowed to a zero width
        ["scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--dim", "3",
         "--restarts", "4", "--bisect", "--bisect-tol", "0"],
        ["scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--bisect-tol", "-1"],
        # a negative tolerance once inverted the verdict (k = 1 for a 2-SW)
        ["classify", "--family", "isotropic", "--a", "0.2", "--dim", "3", "--tol", "-1"],
        ["classify", "--family", "isotropic", "--a", "0.2", "--tol", "nan"],
        ["scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--tol", "-1"],
    ],
)
def test_bad_tolerances_exit_2(capsys, argv):
    assert run_cli(*argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ParameterError")


def test_scan_csv_structure(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli(
        "scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3",
        "--seed", "3", "--restarts", "8", "--format", "csv", "--output", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,verdict,k,min_eig,prodmin_l1,prodmin_l2,restarts,converged"
    assert len(lines) == 4
    verdicts = [line.split(",")[1] for line in lines[1:]]
    assert verdicts == ["PositiveOperator", "3-SW", "2-SW"]


def test_scan_is_deterministic(tmp_path):
    args = (
        "scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3",
        "--seed", "9", "--restarts", "8",
    )
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert run_cli(*args, "--output", str(one)) == 0
    assert run_cli(*args, "--output", str(two)) == 0
    assert one.read_bytes() == two.read_bytes()


def test_scan_rejects_bad_grid():
    assert run_cli("scan", "--a-from", "0.1", "--a-to", "0.2", "--steps", "0") == 2
    assert run_cli("scan", "--a-from", "0.3", "--a-to", "0.1", "--steps", "2") == 2


@pytest.mark.parametrize("fault", ["failed", "unconverged"])
def test_scan_exits_3_on_a_bad_row(monkeypatch, tmp_path, fault):
    classify = families.classify_schmidt_witness
    calls = []

    def one_bad_row(s, *args):
        calls.append(s)
        cls = classify(s, *args)
        if len(calls) == 1:  # rows run in order of a; the second one is bad
            return cls
        if fault == "failed":
            raise PreconditionError("injected")
        return dataclasses.replace(cls, converged=False)

    monkeypatch.setattr(families, "classify_schmidt_witness", one_bad_row)
    out = tmp_path / "scan.json"
    code = run_cli("scan", "--a-from", "0.05", "--a-to", "0.1", "--steps", "2",
                   "--restarts", "4", "--output", str(out))
    assert code == 3
    rows = read_report(out)["result"]["rows"]
    assert [row["converged"] for row in rows] == [True, False]


def test_lift_then_lower_state_roundtrip(tmp_path):
    psi = random_pure_state(Dims(3, 3), rank=2, seed=90)
    input_path = write_json(tmp_path / "state.json", state_to_json(psi))
    lifted_report = tmp_path / "lifted.json"
    assert run_cli("lift", "--input", input_path, "--k", "2", "--output", str(lifted_report)) == 0
    report = read_report(lifted_report)
    assert report["diagnostics"]["sourceRank"] == 2
    assert abs(report["diagnostics"]["normSquared"] - 2.0) < 1e-9

    lifted_path = write_json(tmp_path / "lifted_state.json", report["result"])
    lowered_report = tmp_path / "lowered.json"
    assert run_cli("lower", "--input", lifted_path, "--k", "2", "--output", str(lowered_report)) == 0
    lowered = state_from_json(read_report(lowered_report)["result"])
    assert np.abs(lowered.amplitudes - psi.amplitudes).max() < 1e-10


def test_lift_operator_reports_trace(tmp_path):
    op = Operator(Dims(3, 3), np.eye(9) / 9, hermitian=True)
    path = write_json(tmp_path / "op.json", operator_to_json(op))
    out = tmp_path / "lifted.json"
    assert run_cli("lift", "--input", path, "--k", "2", "--output", str(out)) == 0
    report = read_report(out)
    assert abs(report["diagnostics"]["trace"] - 2.0) < 1e-12


def test_lower_rejects_mismatched_ancillas(tmp_path):
    psi = maximally_entangled_state(3)
    path = write_json(tmp_path / "state.json", state_to_json(psi))
    assert run_cli("lower", "--input", path, "--k", "2") == 2


def test_lower_operator_through_its_eigenensemble(tmp_path):
    psi = random_pure_state(Dims(3, 3), rank=2, seed=91)
    input_path = write_json(tmp_path / "state.json", state_to_json(psi))
    lifted_report = tmp_path / "lifted.json"
    run_cli("lift", "--input", input_path, "--k", "2", "--output", str(lifted_report))
    lifted_state = state_from_json(read_report(lifted_report)["result"])
    vec = lifted_state.amplitudes
    proj = Operator(lifted_state.dims, np.outer(vec, vec.conj()), hermitian=True)
    op_path = write_json(tmp_path / "proj.json", operator_to_json(proj))
    out = tmp_path / "lowered_op.json"
    assert run_cli("lower", "--input", op_path, "--k", "2", "--output", str(out)) == 0
    report = read_report(out)
    # the lifted vector has squared norm 2, which cancels against the
    # eigenvalue-weighted lowering: the projector drops back to |psi><psi|
    expected = np.outer(psi.amplitudes, psi.amplitudes.conj())
    got = np.array(
        [[complex(re, im) for re, im in row] for row in report["result"]["matrix"]]
    )
    assert np.abs(got - expected).max() < 1e-9


def test_lower_operator_is_linear_for_indefinite_input(tmp_path):
    h = random_hermitian(Dims(2, 2, 2, 2), seed=92)
    assert np.sum(np.linalg.eigvalsh(h.matrix) < 0) > 0
    path = write_json(tmp_path / "h.json", operator_to_json(h))
    out = tmp_path / "lowered.json"
    assert run_cli("lower", "--input", path, "--k", "2", "--output", str(out)) == 0
    got = np.array(
        [[complex(re, im) for re, im in row] for row in read_report(out)["result"]["matrix"]]
    )
    assert np.abs(got - lower_operator_by_isometry(h.matrix, 2, 2, 2)).max() < 1e-12


@pytest.mark.parametrize("suite", ["identities", "roundtrip", "trace", "lemma5"])
def test_verify_suites_pass(tmp_path, suite):
    out = tmp_path / "verify.json"
    code = run_cli(
        "verify", "--suite", suite, "--trials", "25", "--seed", "1",
        "--output", str(out),
    )
    assert code == 0
    report = read_report(out)
    assert report["result"]["pass"] is True
    assert report["result"]["trials"] >= 25
    assert report["result"]["maxError"] < report["result"]["tolerance"]


def test_verify_oracle_suite(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli(
        "verify", "--suite", "oracle", "--dims", "2x2", "--trials", "2",
        "--seed", "1", "--restarts", "16", "--output", str(out),
    )
    assert code == 0
    assert read_report(out)["result"]["maxError"] < 1e-4


def test_verify_unknown_suite():
    assert run_cli("verify", "--suite", "nope") == 2


@pytest.mark.parametrize(
    "argv",
    [
        # each once reported "pass": true with exit 0, the value unused
        ["--suite", "roundtrip", "--trials", "-3"],
        ["--suite", "roundtrip", "--trials", "0"],
        ["--suite", "oracle", "--trials", "1", "--tol", "-1"],
        ["--suite", "roundtrip", "--trials", "2", "--restarts", "-5"],
    ],
)
def test_verify_rejects_vacuous_or_ignored_arguments(capsys, argv):
    assert run_cli("verify", *argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        # both once died in numpy's seeding with a traceback and exit 1
        ["classify", "--family", "isotropic", "--a", "0.2", "--dim", "3",
         "--restarts", "2", "--seed", "-1"],
        ["verify", "--suite", "roundtrip", "--trials", "2", "--seed", "-1"],
    ],
)
def test_negative_seed_exits_2(capsys, argv):
    assert run_cli(*argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_reports_roundtrip_through_json(tmp_path):
    out = tmp_path / "report.json"
    run_cli(
        "classify", "--family", "isotropic", "--a", "0.05",
        "--restarts", "4", "--output", str(out),
    )
    text = out.read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
