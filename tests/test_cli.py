"""End-to-end tests of the command-line interface."""

import dataclasses
import errno
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
    lift_operator,
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
    op = Operator(Dims(3, 3), np.eye(9) / 9)
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
    report = json.loads(text)
    assert json.dumps(report, indent=2) + "\n" == text
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == text
    if name == "classify":
        assert report["result"]["detectedState"] is not None
    if name == "lift-operator-k4":
        assert len(report["result"]["matrix"]) == 144


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
    ],
    ids=["lift-k4", "scan-csv"],
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
