"""Command-line front end: classify, scan, lift, lower and verify.

Every command is a pure function of its arguments, input files and seed;
reports embed the seed so a published number can be reproduced from its own
report.  Exit codes: 0 success, 2 input error (an input too large to
allocate and an output that cannot be written included), 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import sys

import numpy as np

from . import __version__
from .checks import SUITES, suite_oracle
from .embedding import lift_operator, lift_state, lower_operator, lower_state
from .errors import DimensionError, SnWitnessError
from .families import SCAN_LEVELS, ScanResult, make_isotropic_witness, threshold_scan
from .hilbert import Dims, Operator, PureState
from .witness import (
    OptimizerConfig,
    WitnessClassification,
    classify_schmidt_witness,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
_INDENT = "  "  # reports are json.dumps(report, indent=2) text


class CliInputError(SnWitnessError):
    """Malformed command-line input, an input file that is malformed or
    cannot be read, or an output that cannot be written."""


# ---------------------------------------------------------------------------
# JSON representations


def _complex_from_pairs(raw, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The complex array of ``shape`` written as nested [re, im] pairs of JSON
    numbers (not "0.5" or true), with every bit kept (-0.0 included)."""
    try:
        leaves = np.array(raw, dtype=object)
        if not set(map(type, leaves.ravel())) <= {int, float}:
            raise TypeError("an entry is not a JSON number")
        pairs = leaves.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliInputError(f"{where}: expected [re, im] pairs of numbers: {exc}") from exc
    if pairs.shape != shape + (2,):
        raise CliInputError(f"{where}: expected {shape} [re, im] pairs, got {pairs.shape}")
    return pairs.view(np.complex128)[..., 0]


def dims_to_json(dims: Dims) -> dict:
    return {"dA": dims.dA, "dB": dims.dB, "kA": dims.kA, "kB": dims.kB}


def dims_from_json(data) -> Dims:
    if not isinstance(data, dict):
        raise CliInputError("dims: expected an object")
    try:
        return Dims(data["dA"], data["dB"], data.get("kA", 1), data.get("kB", 1))
    except (KeyError, DimensionError) as exc:
        raise CliInputError(f"dims: {exc}") from exc


def state_to_json(state: PureState) -> dict:
    return {
        "dims": dims_to_json(state.dims),
        "amplitudes": state.amplitudes,
    }


def state_from_json(data: dict) -> PureState:
    dims = dims_from_json(data.get("dims"))
    amps = _complex_from_pairs(data.get("amplitudes"), (dims.total,), "amplitudes")
    return PureState(dims, amps)


def operator_to_json(op: Operator) -> dict:
    return {
        "dims": dims_to_json(op.dims),
        "matrix": op.matrix,
    }


def operator_from_json(data: dict) -> Operator:
    dims = dims_from_json(data.get("dims"))
    matrix = _complex_from_pairs(data.get("matrix"), (dims.total,) * 2, "matrix")
    return Operator(dims, matrix)


def load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliInputError(f"{path}: expected a JSON object")
    return data


def classification_to_json(cls: WitnessClassification) -> dict:
    return {
        "verdict": cls.verdict,
        "k": cls.k,
        "minEigenvalue": cls.min_eigenvalue,
        "perLevelProductMin": {str(l): v for l, v in cls.per_level_product_min.items()},
        "detectedState": None
        if cls.detected_state is None
        else state_to_json(cls.detected_state),
        "converged": cls.converged,
    }


def scan_to_json(scan: ScanResult) -> dict:
    return {
        "rows": [
            {
                "a": row.a,
                "verdict": row.verdict,
                "k": row.k,
                "minEigenvalue": None if np.isnan(row.min_eigenvalue) else row.min_eigenvalue,
                "productMin": {str(l): v for l, v in row.product_min.items()},
                "restarts": row.restarts,
                "converged": row.converged,
                "error": row.error,
            }
            for row in scan.rows
        ],
        "boundaries": [
            {
                "leftVerdict": b.left_verdict,
                "rightVerdict": b.right_verdict,
                "aLow": b.a_low,
                "aHigh": b.a_high,
                "aStar": b.a_star,
                "width": b.width,
            }
            for b in scan.boundaries
        ],
    }


def scan_to_csv(scan: ScanResult) -> str:
    levels = [f"prodmin_l{level}" for level in SCAN_LEVELS]
    lines = [",".join(["a,verdict,k,min_eig", *levels, "restarts,converged"])]
    for row in scan.rows:
        cells = [
            repr(row.a),
            row.verdict,
            "" if row.k is None else str(row.k),
            "" if np.isnan(row.min_eigenvalue) else repr(row.min_eigenvalue),
            *("" if v is None else repr(v) for v in map(row.product_min.get, SCAN_LEVELS)),
            str(row.restarts),
            "true" if row.converged else "false",
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def build_report(command: str, inputs: dict, result, diagnostics: dict | None = None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics or {},
        "version": __version__,
    }


def _emit(text: str, stream):
    """Every byte of every report is written here, as ``text``; perfbench
    sums it into ``cli.report_bytes``."""
    stream.write(text)


def _write(pieces, output: str | None):
    """Write the text ``pieces`` to the file ``output``, or to stdout when it
    is None, joining consecutive pieces while they fit in one buffer.  An
    output that cannot be opened or written is a CliInputError."""
    try:
        target = contextlib.nullcontext(sys.stdout)
        if output:
            target = open(output, "w", encoding="utf-8")
        with target as stream:
            pending = ""
            for piece in pieces:
                if pending and len(pending) + len(piece) > io.DEFAULT_BUFFER_SIZE:
                    _emit(pending, stream)
                    pending = ""
                pending += piece
            if pending:
                _emit(pending, stream)
            stream.flush()
    except OSError as exc:
        raise CliInputError(f"cannot write {output or '<stdout>'}: {exc}") from exc


def _template(shape: tuple[int, ...], level: int) -> str:
    """The indent-2 text of a nested list of ``shape`` at ``level``, with
    ``%s`` for each entry."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        inner = "\n" + _INDENT * (level + depth + 1)
        text = "[" + inner + ("," + inner).join([text] * shape[depth])
        text += "\n" + _INDENT * (level + depth) + "]"
    return text


def _render_array(arr: np.ndarray, level: int):
    """A complex array as its nested [re, im] lists: one piece per leading
    row, a 1-D array in one piece.  The entries are finite, as in every
    PureState and Operator, so each one is written as its float repr."""
    pairs = np.ascontiguousarray(arr, dtype=np.complex128).view(np.float64)
    if arr.ndim == 1:
        yield _template(arr.shape + (2,), level) % tuple(map(float.__repr__, pairs.tolist()))
        return
    row = _template(arr.shape[1:] + (2,), level + 1)
    inner = "\n" + _INDENT * (level + 1)
    first, rest = "[" + inner + row, "," + inner + row
    for i, values in enumerate(pairs.reshape(len(arr), -1)):
        yield (rest if i else first) % tuple(map(float.__repr__, values.tolist()))
    yield "\n" + _INDENT * level + "]"


def _render(value):
    """The text of ``json.dumps(value, indent=2)`` as the json module's
    encoder streams it, with complex numpy arrays written as nested [re, im]
    lists by ``_render_array``, so the whole text is never held at once.
    The encoder hands each array to ``default`` and writes the returned None
    as its very next chunk; that chunk is replaced by the array, indented as
    the last line the encoder started."""
    arrays, indent = [], ""
    for chunk in json.JSONEncoder(indent=2, default=arrays.append).iterencode(value):
        if arrays:
            yield from _render_array(arrays.pop(), len(indent) // len(_INDENT))
            continue
        if "\n" in chunk:
            indent = chunk.rpartition("\n")[2]
        yield chunk


def _emit_report(report: dict, output: str | None):
    _write(itertools.chain(_render(report), ("\n",)), output)


# ---------------------------------------------------------------------------
# commands


def _refuse_unrepresentable(entries: int, itemsize: int, what: str) -> None:
    """Refuse an array of ``entries`` items of ``itemsize`` bytes before numpy
    sees its size: beyond the address range numpy raises ValueError, not the
    MemoryError that ``main`` reports."""
    if entries * itemsize > np.iinfo(np.intp).max:
        raise CliInputError(f"{what} of {entries} entries is too large to allocate")


def _config_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        seed=args.seed, restarts=args.restarts, positivity_tol=args.tol
    )


def _load_operator_arg(args) -> tuple[Operator, dict]:
    if args.input:
        data = load_payload(args.input)
        if "matrix" not in data:
            raise CliInputError(f"{args.input}: missing field 'matrix'")
        return operator_from_json(data), {"input": args.input}
    if args.family != "isotropic":
        raise CliInputError(f"unknown family {args.family!r}")
    if args.a is None:
        raise CliInputError("--a is required with --family isotropic")
    source = {"family": "isotropic", "a": args.a, "dim": args.dim}
    _refuse_unrepresentable(max(args.dim, 0) ** 4, 16, "the isotropic witness")
    return make_isotropic_witness(args.a, args.dim), source


def cmd_classify(args) -> int:
    operator, source = _load_operator_arg(args)
    config = _config_from_args(args)
    cls = classify_schmidt_witness(operator, args.max_k, config)
    report = build_report(
        "classify",
        {**source, "maxK": args.max_k, "config": config.to_json()},
        classification_to_json(cls),
    )
    _emit_report(report, args.output)
    return EXIT_OK if cls.converged else EXIT_NUMERICAL


def cmd_scan(args) -> int:
    if args.steps < 1:
        raise CliInputError(f"--steps must be >= 1, got {args.steps}")
    if not 0 <= args.a_from < 1 or not 0 <= args.a_to < 1 or args.a_to < args.a_from:
        raise CliInputError("scan grid must satisfy 0 <= a-from <= a-to < 1")
    _refuse_unrepresentable(args.steps, 8, "the scan grid")
    _refuse_unrepresentable(max(args.dim, 0) ** 4, 16, "the isotropic witness")
    grid = np.linspace(args.a_from, args.a_to, args.steps)
    config = _config_from_args(args)
    scan = threshold_scan(
        grid,
        d=args.dim,
        config=config,
        max_k=args.max_k,
        bisect=args.bisect,
        bisect_tol=args.bisect_tol,
    )
    code = EXIT_OK if all(row.converged for row in scan.rows) else EXIT_NUMERICAL
    if args.format == "csv":
        _write((scan_to_csv(scan),), args.output)
        return code
    report = build_report(
        "scan",
        {
            "aFrom": args.a_from,
            "aTo": args.a_to,
            "steps": args.steps,
            "dim": args.dim,
            "maxK": args.max_k,
            "bisect": args.bisect,
            "bisectTol": args.bisect_tol,
            "config": config.to_json(),
        },
        scan_to_json(scan),
    )
    _emit_report(report, args.output)
    return code


def cmd_map(args) -> int:
    """``lift`` or ``lower`` (``args.cmd``) of a state or operator file."""
    data = load_payload(args.input)
    lift = args.cmd == "lift"
    k = max(args.k, 0)  # a k below 1 is the maps' own error
    if "amplitudes" in data:
        source = state_from_json(data)
        diagnostics = {"kind": "state"}
        if lift:
            _refuse_unrepresentable(source.dims.total * k * k, 16, "the lifted state")
            lifted = lift_state(source, args.k)
            state = lifted.state
            diagnostics.update(sourceRank=lifted.source_rank, blockCount=lifted.block_count)
        else:
            state = lower_state(source, args.k)
        payload = state_to_json(state)
        diagnostics["normSquared"] = float(state.norm() ** 2)
    elif "matrix" in data:
        source = operator_from_json(data)
        if lift:
            _refuse_unrepresentable((source.dims.total * k * k) ** 2, 16, "the lifted operator")
            operator = lift_operator(source, args.k).operator
        else:
            operator = lower_operator(source, args.k)
        payload = operator_to_json(operator)
        diagnostics = {"kind": "operator", "trace": operator.trace().real}
    else:
        raise CliInputError(f"{args.input}: missing field 'amplitudes' or 'matrix'")
    report = build_report(args.cmd, {"input": args.input, "k": args.k}, payload, diagnostics)
    _emit_report(report, args.output)
    return EXIT_OK


def _parse_dims(text: str) -> Dims:
    try:
        a, b = text.lower().split("x")
        return Dims(int(a), int(b))
    except (ValueError, SnWitnessError) as exc:
        raise CliInputError(f"--dims must look like 2x3, got {text!r}") from exc


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise CliInputError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    if args.trials < 1:
        raise CliInputError(f"--trials must be >= 1, got {args.trials}")
    config = _config_from_args(args)
    inputs = {"suite": args.suite, "trials": args.trials, "seed": args.seed}
    if args.suite == "oracle":
        dims = _parse_dims(args.dims)
        _refuse_unrepresentable(dims.total**2, 16, "a random operator")
        inputs.update(dims=dims_to_json(dims), config=config.to_json())
        result = suite_oracle(args.trials, args.seed, dims=dims, config=config)
    else:
        # roundtrip draws states of d^2 entries, the other suites operators of d^4
        exponent = 2 if args.suite == "roundtrip" else 4
        _refuse_unrepresentable(max(args.dim, 0) ** exponent, 16, f"one {args.suite} trial")
        inputs["dim"] = args.dim
        result = SUITES[args.suite](args.trials, args.seed, d=args.dim)
    report = build_report("verify", inputs, result)
    _emit_report(report, args.output)
    return EXIT_OK if result["pass"] else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="optimizer seed")
    parser.add_argument("--restarts", type=int, default=64, help="see-saw restarts")
    parser.add_argument(
        "--tol", type=float, default=1e-7, help="positivity tolerance for verdicts"
    )
    parser.add_argument("--output", default=None, help="write the report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snwitness",
        description="Construct, classify and optimize Schmidt-number witnesses.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="classify an operator")
    p.add_argument("--input", default=None, help="operator JSON file")
    p.add_argument("--family", default="isotropic", help="built-in family name")
    p.add_argument("--a", type=float, default=None, help="family parameter")
    p.add_argument("--dim", type=int, default=3, help="local dimension")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="classify the isotropic family on a grid")
    p.add_argument("--a-from", type=float, required=True, dest="a_from")
    p.add_argument("--a-to", type=float, required=True, dest="a_to")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--bisect", action="store_true", help="locate verdict boundaries")
    p.add_argument("--bisect-tol", type=float, default=5e-3, dest="bisect_tol",
                   help="half-width of each boundary's bracket")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    for name in ("lift", "lower"):
        p = sub.add_parser(name, help=f"{name} a state or operator JSON file")
        p.add_argument("--input", required=True)
        p.add_argument("--k", type=int, required=True, help="ancilla dimension")
        p.add_argument("--output", default=None)
        p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim", type=int, default=3, help="local dimension for the suites")
    p.add_argument("--dims", default="2x2", help="bipartite dims for the oracle suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building one costs more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SnWitnessError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: input too large to allocate: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
