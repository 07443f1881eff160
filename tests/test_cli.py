"""End-to-end tests of the command-line interface."""

import dataclasses
import errno
import io
import json
import tracemalloc

import numpy as np
import pytest

from oracles import lower_operator_by_isometry
import snwitness.families as families
from snwitness import (
    Dims,
    Operator,
    PreconditionError,
    PureState,
    __version__,
    lift_operator,
    lift_state,
    lower_operator,
    lower_state,
    maximally_entangled_state,
    random_hermitian,
    random_pure_state,
)
import snwitness.cli as cli
from snwitness.cli import _render, main, operator_to_json, state_from_json, state_to_json


def run_cli(*argv):
    return main(list(argv))


def write_json(path, payload):
    path.write_text("".join(_render(payload)))
    return str(path)


def write_matrix(path, dims, matrix):
    """An operator file holding any complex matrix, Hermitian or not."""
    return write_json(path, {"dims": cli.dims_to_json(dims), "matrix": matrix})


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
    # the constants the see-saw ran with are part of the report
    assert list(report["inputs"]["config"].items()) == [
        ("seed", 3),
        ("restarts", 8),
        ("maxIters", 500),
        ("convergenceTol", 1e-10),
        ("positivityTol", 1e-07),
        ("zeroTol", 1e-06),
    ]
    assert report["version"]


def test_classify_operator_file(tmp_path):
    op = Operator(Dims(3, 3), np.eye(9) / 9)
    path = write_json(tmp_path / "psd.json", operator_to_json(op))
    out = tmp_path / "report.json"
    code = run_cli("classify", "--input", path, "--restarts", "4", "--output", str(out))
    assert code == 0
    assert read_report(out)["result"]["verdict"] == "PositiveOperator"


def test_hermiticity_tolerance_is_relative_to_the_entries(tmp_path, capsys):
    # g g^dag rounds to an asymmetry of about 1e-15 of its largest entry,
    # which at scale 1e6 is above an absolute 1e-10
    rng = np.random.default_rng(20)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    psd = 1e6 * (g @ g.conj().T)
    assert np.abs(psd - psd.conj().T).max() > 1e-10
    path = write_matrix(tmp_path / "psd.json", Dims(3, 3), psd)
    out = tmp_path / "report.json"
    assert run_cli("classify", "--input", path, "--restarts", "4", "--output", str(out)) == 0
    assert read_report(out)["result"]["verdict"] == "PositiveOperator"
    # a relative asymmetry of 1e-6 is still rejected
    skewed = psd.copy()
    skewed[0, 1] += 1e-6 * np.abs(psd).max()
    path = write_matrix(tmp_path / "skewed.json", Dims(3, 3), skewed)
    assert run_cli("classify", "--input", path, "--restarts", "4") == 2
    assert "not Hermitian" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["lift", "--k", "2"], ["lower", "--k", "2"], ["classify", "--restarts", "4"]],
)
def test_non_hermitian_operator_files_exit_2(tmp_path, capsys, argv):
    dims = Dims(3, 3, 2, 2) if argv[0] == "lower" else Dims(3, 3)
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(dims.total,) * 2) + 1j * rng.normal(size=(dims.total,) * 2)
    path = write_matrix(tmp_path / "skewed.json", dims, matrix)
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--input", path, "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not Hermitian" in err and "Traceback" not in err
    assert not out.exists()


def test_classify_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert run_cli("classify", "--input", str(path)) == 2


def test_classify_rejects_missing_field(tmp_path):
    path = write_json(tmp_path / "bad.json", {"dims": {"dA": 3, "dB": 3}})
    assert run_cli("classify", "--input", str(path)) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_input_is_rejected(tmp_path, capsys, bad):
    op = json.loads("".join(_render(operator_to_json(Operator(Dims(3, 3), np.eye(9) / 9)))))
    op["matrix"][1][2][0] = op["matrix"][2][1][0] = bad
    state = json.loads("".join(_render(state_to_json(maximally_entangled_state(3)))))
    state["amplitudes"][4][1] = bad
    for command, payload in (("classify", op), ("lift", state), ("lift", op)):
        path = write_json(tmp_path / "bad.json", payload)
        extra = ["--k", "2"] if command == "lift" else []
        assert run_cli(command, "--input", path, *extra) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "non-finite" in lines[0]


@pytest.mark.parametrize(
    "dims",
    [{"dA": 2.7, "dB": 2}, {"dA": "2", "dB": 2}, {"dA": True, "dB": 2},
     {"dA": 2, "dB": 2, "kA": 1.5}, {"dA": 2.0, "dB": 2}, {"dB": 2}, [2, 2]],
    ids=["fraction", "string", "bool", "ancilla-fraction", "float", "missing", "not-an-object"],
)
def test_non_integer_dims_exit_2(tmp_path, capsys, dims):
    # int() once truncated these to a valid Dims and the command exited 0
    payload = json.loads("".join(_render(operator_to_json(random_hermitian(Dims(2, 2), 93)))))
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({**payload, "dims": dims}))
    assert run_cli("classify", "--input", str(path), "--restarts", "4") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: dims:")


@pytest.mark.parametrize(
    "bad",
    [[None, 0], ["x", 0], [1, [0]], [10**400, 0], "short"],
    ids=["null", "string", "nested", "huge", "short"],
)
def test_malformed_numbers_exit_2(tmp_path, capsys, bad):
    # each once ended in a TypeError, ValueError or OverflowError traceback, exit 1
    small, big = Dims(2, 2), Dims(2, 2, 2, 2)  # classify and lift take small, lower big
    jobs = [
        ("classify", operator_to_json(random_hermitian(small, seed=93)), []),
        ("lift", operator_to_json(random_hermitian(small, seed=93)), ["--k", "2"]),
        ("lift", state_to_json(random_pure_state(small, rank=2, seed=94)), ["--k", "2"]),
        ("lower", operator_to_json(random_hermitian(big, seed=93)), ["--k", "2"]),
        ("lower", state_to_json(random_pure_state(big, rank=2, seed=94)), ["--k", "2"]),
    ]
    for command, payload, extra in jobs:
        payload = json.loads("".join(_render(payload)))
        field = "matrix" if "matrix" in payload else "amplitudes"
        rows = payload["matrix"][1] if field == "matrix" else payload["amplitudes"]
        if bad == "short":
            rows.pop()
        else:
            rows[3] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run_cli(command, "--input", str(path), *extra) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert field in lines[0]  # rejected while reading the numbers


REJECTED_INPUTS = {
    "missing-file": ["classify", "--input", "{missing}"],
    "top-level-array": ["classify", "--input", "{array}"],
    "unknown-family": ["classify", "--family", "foo", "--a", "0.2"],
    "family-without-a": ["classify", "--family", "isotropic"],
    "lift-neither-field": ["lift", "--input", "{neither}", "--k", "2"],
    "lower-neither-field": ["lower", "--input", "{neither}", "--k", "2"],
    # both need more than the 128 TiB user address space, so the allocation
    # fails at once and touches no memory
    "lift-too-large-to-allocate": ["lift", "--input", "{operator}", "--k", "1000"],
    "oracle-too-large-to-allocate": ["verify", "--suite", "oracle", "--dims", "2x100000000",
                                     "--trials", "1"],
}


@pytest.mark.parametrize("name", sorted(REJECTED_INPUTS))
def test_rejected_inputs_exit_2_with_one_error_line(tmp_path, capsys, name):
    paths = {
        "missing": str(tmp_path / "missing.json"),
        "array": write_json(tmp_path / "array.json", [1, 2]),
        "neither": write_json(tmp_path / "neither.json", {"dims": {"dA": 2, "dB": 2}}),
        "operator": write_json(
            tmp_path / "operator.json", operator_to_json(random_hermitian(Dims(2, 2), seed=3))
        ),
    }
    assert run_cli(*[arg.format(**paths) for arg in REJECTED_INPUTS[name]]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and captured.out == ""


def overflowing_files(tmp_path):
    """Finite entries whose squared moduli overflow: without the scale check
    each command wrote an infinite figure and exited 0."""
    m2 = np.eye(4)
    m2[0, 3] = m2[3, 0] = 0.9  # |00><11| + |11><00|
    m2 *= -1.7e308
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4]] = 1e200  # |00> and |11>
    return {
        "m2": write_matrix(tmp_path / "m2.json", Dims(2, 2), m2),
        "m3": write_matrix(tmp_path / "m3.json", Dims(3, 3), 0.7e308 * np.eye(9)),
        "s3": write_json(tmp_path / "s3.json", {"dims": {"dA": 3, "dB": 3}, "amplitudes": amps}),
    }


@pytest.mark.parametrize(
    "argv, field",
    [
        (["classify", "--restarts", "4", "--input", "{m2}"], "matrix"),  # minEigenvalue -inf
        (["lift", "--k", "2", "--input", "{m2}"], "matrix"),  # trace -inf
        (["lower", "--k", "1", "--input", "{m3}"], "matrix"),  # trace inf
        (["lift", "--k", "2", "--input", "{s3}"], "amplitudes"),  # normSquared inf
    ],
    ids=["classify", "lift-operator", "lower-operator", "lift-state"],
)
def test_overflowing_input_files_exit_2(tmp_path, capsys, argv, field):
    argv = [arg.format(**overflowing_files(tmp_path)) for arg in argv]
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--output", str(out)) == 2
    message = f"{field} is too large: its squared moduli overflow a float"
    assert capsys.readouterr().err == f"error: ParameterError: {message}\n"
    assert not out.exists()


def test_state_file_numbers_read_back_bit_for_bit(tmp_path):
    pairs = np.array([[-0.0, 5e-324], [0.5, -0.0], [-5e-324, -0.0], [0.0, 1.0]])
    amps = pairs.view(np.complex128)[:, 0]
    write_json(tmp_path / "state.json", state_to_json(PureState(Dims(2, 2), amps)))
    got = state_from_json(read_report(tmp_path / "state.json")).amplitudes
    assert got.view(np.uint64).tolist() == amps.view(np.uint64).tolist()


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    calls = []
    real = cli.build_parser

    def build_parser():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", build_parser)
    cli._parser.cache_clear()
    try:
        path = write_json(tmp_path / "state.json", state_to_json(maximally_entangled_state(2)))
        for _ in range(3):
            assert run_cli("lift", "--input", path, "--k", "2", "--output", str(tmp_path / "o")) == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "extra",
    [["--dim", "3", "--max-k", "0"], ["--dim", "3", "--max-k", "4"], ["--dim", "1"]],
)
def test_scan_bad_dimension_or_max_k_exits_2_like_classify(capsys, extra):
    errors = []
    for argv in (["scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3"],
                 ["classify", "--family", "isotropic", "--a", "0.2"]):
        assert run_cli(*argv, *extra, "--restarts", "2") == 2
        errors.append(capsys.readouterr().err.strip().splitlines())
    assert len(errors[0]) == 1 and errors[0] == errors[1]
    assert errors[0][0].startswith("error: ParameterError")


def test_scan_below_the_order_labels_a_bound(tmp_path):
    # a = 1/8 at d = 3 is 3-SW: non-negative at levels 1 and 2, so a ladder
    # stopped at level 1 shows only that the order exceeds 1
    out = tmp_path / "scan.csv"
    code = run_cli("scan", "--a-from", "0.125", "--a-to", "0.125", "--steps", "1", "--dim", "3",
                   "--max-k", "1", "--restarts", "8", "--format", "csv", "--output", str(out))
    assert code == 0
    (line,) = out.read_text().splitlines()[1:]
    a, verdict, k, _, prodmin_l1, prodmin_l2 = line.split(",")[:6]
    assert (a, verdict, k) == ("0.125", ">1-SW", "")
    assert float(prodmin_l1) > 0 and float(prodmin_l2) > 0


def test_scan_bisects_between_a_bound_and_an_order(tmp_path):
    # >1-SW | 1-SW is governed by level 1, which crosses -tol just above a = 1/3
    out = tmp_path / "scan.json"
    code = run_cli("scan", "--a-from", "0.125", "--a-to", "0.4", "--steps", "2", "--dim", "3",
                   "--max-k", "1", "--restarts", "8", "--bisect", "--bisect-tol", "0.001",
                   "--output", str(out))
    assert code == 0
    result = read_report(out)["result"]
    assert [(row["verdict"], row["k"]) for row in result["rows"]] == [(">1-SW", None), ("1-SW", 1)]
    (boundary,) = result["boundaries"]
    assert (boundary["leftVerdict"], boundary["rightVerdict"]) == (">1-SW", "1-SW")
    assert abs(boundary["aStar"] - 1 / 3) <= boundary["width"] / 2


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
                   "--restarts", "4", "--bisect", "--output", str(out))
    assert code == 3
    result = read_report(out)["result"]
    assert [row["converged"] for row in result["rows"]] == [True, False]
    assert result["boundaries"] == []  # a failed row's pairs are not bisected


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
    op = Operator(Dims(3, 3), np.eye(9) / 9)
    path = write_json(tmp_path / "op.json", operator_to_json(op))
    out = tmp_path / "lifted.json"
    assert run_cli("lift", "--input", path, "--k", "2", "--output", str(out)) == 0
    report = read_report(out)
    assert abs(report["diagnostics"]["trace"] - 2.0) < 1e-12


@pytest.mark.parametrize(
    "command, kind",
    [("lift", "state"), ("lift", "operator"), ("lower", "state"), ("lower", "operator")],
    ids=["lift-state", "lift-operator", "lower-state", "lower-operator"],
)
def test_lift_and_lower_reports_have_the_documented_layout(tmp_path, command, kind):
    """A lift or lower report is the library map's result with the diagnostics
    keys the README lists, in that order, written as indent-2 JSON."""
    dims = Dims(3, 3) if command == "lift" else Dims(2, 2, 2, 2)
    if kind == "state":
        source = random_pure_state(dims, rank=2, seed=97)
        if command == "lift":
            lifted = lift_state(source, 2)
            result = state_to_json(lifted.state)
            diagnostics = {
                "kind": "state",
                "sourceRank": lifted.source_rank,
                "blockCount": lifted.block_count,
                "normSquared": float(lifted.state.norm() ** 2),
            }
        else:
            lowered = lower_state(source, 2)
            result = state_to_json(lowered)
            diagnostics = {"kind": "state", "normSquared": float(lowered.norm() ** 2)}
        path = write_json(tmp_path / "in.json", state_to_json(source))
    else:
        source = random_hermitian(dims, seed=98)
        if command == "lift":
            mapped = lift_operator(source, 2).operator
        else:
            mapped = lower_operator(source, 2)
        result = operator_to_json(mapped)
        diagnostics = {"kind": "operator", "trace": mapped.trace().real}
        path = write_json(tmp_path / "in.json", operator_to_json(source))
    expected = {
        "command": command,
        "inputs": {"input": path, "k": 2},
        "result": result,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    out = tmp_path / "report.json"
    assert run_cli(command, "--input", path, "--k", "2", "--output", str(out)) == 0
    assert out.read_text() == "".join(_render(expected)) + "\n"


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
    proj = Operator(lifted_state.dims, np.outer(vec, vec.conj()))
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


def rerun_from_inputs(inputs):
    """The verify argv that a report's own ``inputs`` spell out."""
    argv = ["verify", "--suite", inputs["suite"], "--trials", str(inputs["trials"]),
            "--seed", str(inputs["seed"])]
    if "dim" in inputs:
        return argv + ["--dim", str(inputs["dim"])]
    dims, config = inputs["dims"], inputs["config"]
    assert (dims["kA"], dims["kB"], config["seed"]) == (1, 1, inputs["seed"])
    return argv + ["--dims", f"{dims['dA']}x{dims['dB']}",
                   "--restarts", str(config["restarts"]), "--tol", repr(config["positivityTol"])]


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "identities", "--dim", "2", "--trials", "3", "--seed", "5"],
        ["--suite", "roundtrip", "--dim", "4", "--trials", "3", "--seed", "5"],
        ["--suite", "trace", "--dim", "2", "--trials", "3", "--seed", "5"],
        ["--suite", "lemma5", "--dim", "4", "--trials", "3", "--seed", "5"],
        ["--suite", "oracle", "--dims", "2x3", "--trials", "1", "--seed", "5",
         "--restarts", "8", "--tol", "1e-6"],
    ],
)
def test_verify_report_reruns_from_its_own_inputs(tmp_path, argv):
    # a report names every input its result depends on, defaults included
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run_cli("verify", *argv, "--output", str(first)) == 0
    inputs = read_report(first)["inputs"]
    assert run_cli(*rerun_from_inputs(inputs), "--output", str(second)) == 0
    # the whole report, its result included, byte for byte
    assert second.read_bytes() == first.read_bytes()


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
        # dims the oracle cannot read or run
        ["--suite", "oracle", "--dims", "2by3", "--trials", "1"],
        ["--suite", "oracle", "--dims", "3x2", "--trials", "1", "--restarts", "2"],
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


REPORTS = {
    "classify": ["classify", "--family", "isotropic", "--a", "0.2", "--dim", "3",
                 "--restarts", "4"],
    "scan": ["scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--restarts", "4",
             "--format", "json"],
    "lift-state": ["lift", "--input", "{state}", "--k", "2"],
    "lift-operator-k4": ["lift", "--input", "{operator}", "--k", "4"],
    "lower-state": ["lower", "--input", "{big_state}", "--k", "2"],
    "lower-operator": ["lower", "--input", "{big_operator}", "--k", "2"],
    "verify": ["verify", "--suite", "trace", "--dim", "2", "--trials", "3", "--seed", "1"],
}


def refuse_constant(name):
    """``parse_constant`` for reports: Infinity and NaN are not JSON."""
    raise ValueError(f"report holds {name}")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_roundtrip_through_json(tmp_path, capsys, name):
    """Every report is exactly the text json.dumps(report, indent=2) writes,
    to stdout as to --output."""
    small, big = Dims(3, 3), Dims(2, 2, 2, 2)
    files = {
        "state": state_to_json(random_pure_state(small, rank=3, seed=93)),
        "operator": operator_to_json(random_hermitian(small, seed=94)),
        "big_state": state_to_json(random_pure_state(big, rank=3, seed=95)),
        "big_operator": operator_to_json(random_hermitian(big, seed=96)),
    }
    paths = {key: write_json(tmp_path / f"{key}.json", payload) for key, payload in files.items()}
    out = tmp_path / "report.json"
    argv = [arg.format(**paths) for arg in REPORTS[name]]
    assert run_cli(*argv, "--output", str(out)) == 0
    text = out.read_text()
    report = json.loads(text, parse_constant=refuse_constant)
    assert json.dumps(report, indent=2) + "\n" == text
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == text
    if name == "classify":
        assert report["result"]["detectedState"] is not None
    if name == "lift-operator-k4":
        assert len(report["result"]["matrix"]) == 144


_TWICE = np.arange(4).reshape(2, 2) * (0.5 - 1j)

AWKWARD = {
    "negative-zero": -0.0,
    "subnormal": 5e-324,
    "1e16": 1e16,
    "sum-of-tenths": 0.1 + 0.2,
    "largest-float": 1.7976931348623157e308,
    "non-finite": [float("nan"), float("inf"), -float("inf")],
    "1-d-array": np.array([-0.0 + 5e-324j, 0.1 + 0.2 + 1e16j, 1.7976931348623157e308 - 1j]),
    "non-square-array": np.arange(6).reshape(2, 3) * (0.1 - 1j / 3),
    "3-d-array": np.arange(24).reshape(2, 3, 4) * (-0.1 + 1j / 7),
    "lifted-signed-zeros": lift_operator(Operator(Dims(2, 2), np.array(
        [[0.25, -0.0, 0, 0], [-0.0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
        dtype=complex)), 2).operator.matrix,
    "adjacent-arrays": {"a": _TWICE, "b": [np.ones((1, 2)), np.array([1j])], "c": _TWICE},
    "containers": {"e": {}, "l": [], "t": (1, None, True), "s": "\u00e9\"", 3: False, None: [[]]},
}


def _as_pairs(value):
    """Reference: complex arrays as nested [re, im] lists, containers as-is."""
    if isinstance(value, np.ndarray):
        return np.stack([value.real, value.imag], axis=-1).tolist()
    if isinstance(value, dict):
        return {key: _as_pairs(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_pairs(item) for item in value]
    return value


@pytest.mark.parametrize("name", sorted(AWKWARD))
def test_renderer_writes_the_json_module_text(name):
    value = AWKWARD[name]
    for nested in (value, {"outer": [value, {"inner": value}]}):
        assert "".join(_render(nested)) == json.dumps(_as_pairs(nested), indent=2)


def test_lifted_signed_zeros_case_holds_both_zeros():
    pairs = AWKWARD["lifted-signed-zeros"].view(np.float64)
    signs = np.signbit(pairs[pairs == 0])
    assert signs.any() and not signs.all()


UNWRITABLE = {
    "lift": ["lift", "--input", "{operator}", "--k", "2"],
    "classify": ["classify", "--family", "isotropic", "--a", "0.2", "--dim", "2",
                 "--restarts", "2"],
    "scan-csv": ["scan", "--a-from", "0.1", "--a-to", "0.2", "--steps", "2", "--dim", "2",
                 "--restarts", "2", "--format", "csv"],
}


class _FullStream:
    """A stdout that fails like /dev/full."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("where", ["missing-dir", "full-stdout"])
@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, name, where):
    """An output that cannot be opened or written once ended in a traceback
    with exit 1."""
    operator = write_json(
        tmp_path / "op.json", operator_to_json(random_hermitian(Dims(2, 2), seed=3))
    )
    argv = [arg.format(operator=operator) for arg in UNWRITABLE[name]]
    if where == "missing-dir":
        target = tmp_path / "missing" / "report"
        argv += ["--output", str(target)]
    else:
        target = "<stdout>"
        monkeypatch.setattr(cli.sys, "stdout", _FullStream())
    assert run_cli(*argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {target}: [Errno ")


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--input", "{operator}", "--k", "4"],
        ["scan", "--a-from", "0.05", "--a-to", "0.2", "--steps", "3", "--restarts", "4",
         "--format", "csv"],
        ["classify", "--family", "isotropic", "--a", "0.2", "--restarts", "4"],
    ],
    ids=["lift-k4", "scan-csv", "classify"],
)
def test_emitted_pieces_are_the_written_bytes(tmp_path, monkeypatch, argv):
    """Every byte written passes through ``cli._emit`` as its first argument,
    which is what the benchmark tracer counts as ``cli.report_bytes``."""
    operator = write_json(
        tmp_path / "op.json", operator_to_json(random_hermitian(Dims(3, 3), seed=4))
    )
    pieces = []
    emit = cli._emit

    def recording(text, stream):
        pieces.append(text)
        return emit(text, stream)

    monkeypatch.setattr(cli, "_emit", recording)
    out = tmp_path / "out"
    assert run_cli(*[arg.format(operator=operator) for arg in argv], "--output", str(out)) == 0
    assert "".join(pieces).encode("utf-8") == out.read_bytes()
    if argv[0] == "lift":
        assert len(pieces) > 144  # a piece per row of the 144 x 144 lifted matrix
    else:
        assert len(pieces) == 1


def test_lift_report_is_its_rendered_pieces_in_buffer_sized_writes(tmp_path, monkeypatch):
    """``cli._write`` joins the rendered pieces while they fit in
    io.DEFAULT_BUFFER_SIZE; the text is still the pieces in order, as when
    each piece was written on its own."""
    operator = write_json(
        tmp_path / "op.json", operator_to_json(random_hermitian(Dims(3, 3), seed=4))
    )
    calls, reports = [], []
    emit, emit_report = cli._emit, cli._emit_report

    def recording(text, stream):
        calls.append(text)
        return emit(text, stream)

    def keeping(report, output):
        reports.append(report)
        return emit_report(report, output)

    monkeypatch.setattr(cli, "_emit", recording)
    monkeypatch.setattr(cli, "_emit_report", keeping)
    out = tmp_path / "out"
    assert run_cli("lift", "--input", operator, "--k", "4", "--output", str(out)) == 0
    (report,) = reports
    assert out.read_text(encoding="utf-8") == "".join(_render(report)) + "\n"
    # no two consecutive writes would have fit in one
    assert all(len(a) + len(b) > io.DEFAULT_BUFFER_SIZE for a, b in zip(calls, calls[1:]))


def test_lift_report_memory_does_not_grow_with_its_text(tmp_path):
    """The lifted operator is written a row at a time: at d = k = 4 the 3.4 MB
    report never exists as one string (the lifted matrix itself is 1 MB)."""
    operator = write_json(
        tmp_path / "op.json", operator_to_json(random_hermitian(Dims(4, 4), seed=5))
    )
    out = tmp_path / "lifted.json"
    argv = ["lift", "--input", operator, "--k", "4", "--output", str(out)]
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 2


def test_scan_report_memory_does_not_grow_with_its_text(tmp_path):
    """A scan report is written as the encoder walks it: the text of 3,000
    rows is never held as one string."""
    rows = tuple(
        families.ScanRow(i / 3000, "2-SW", 2, -i / 7, {1: i / 9, 2: -i / 11}, 64, True)
        for i in range(3000)
    )
    report = cli.build_report("scan", {"steps": 3000}, cli.scan_to_json(families.ScanResult(rows)))
    out = tmp_path / "scan.json"
    tracemalloc.start()
    try:
        cli._emit_report(report, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text() == json.dumps(report, indent=2) + "\n"
    assert peak < out.stat().st_size / 2
