"""Span tracing of snwitness layers, installed from outside the package.

``Tracer.install()`` wraps the public functions of each layer.  Modules import
functions by name, so a wrapper replaces every binding of the original
function in every loaded ``snwitness`` module (and in ``checks.SUITES``).
Spans (name, start, end, parent) are kept in memory; ``metrics()`` folds
them into the per-layer figures and ``dump()`` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name, hook run on each call's result and arguments);
# witness spans also count the eigensolves made while they are open
TRACED = (
    ("hilbert", "min_eigenpair", "hilbert.min_eigenpair", None),
    ("hilbert", "schmidt_decompose", "hilbert.schmidt_decompose", None),
    ("embedding", "lift_operator", "embedding.lift_operator", "_after_lift"),
    ("embedding", "lift_state", "embedding.lift_state", None),
    ("embedding", "lower_state", "embedding.lower_state", None),
    ("embedding", "lift_ensemble", "embedding.lift_ensemble", None),
    ("embedding", "lower_ensemble", "embedding.lower_ensemble", None),
    ("witness", "classify_schmidt_witness", "witness.classify", None),
    ("witness", "min_product_expectation", "witness.product_min", "_after_product_min"),
    ("witness", "seesaw_once", "witness.seesaw", "_after_seesaw"),
    ("families", "threshold_scan", "families.scan", None),
    ("checks", "suite_identities", "checks.identities", None),
    ("checks", "suite_roundtrip", "checks.roundtrip", None),
    ("checks", "suite_trace", "checks.trace", None),
    ("checks", "suite_product_pairs", "checks.lemma5", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.parse", "_after_build_parser"),
    ("cli", "load_payload", "cli.parse", None),
    ("cli", "operator_from_json", "cli.parse", None),
    ("cli", "state_from_json", "cli.parse", None),
    ("cli", "classification_to_json", "cli.encode", None),
    ("cli", "scan_to_json", "cli.encode", None),
    ("cli", "scan_to_csv", "cli.encode", None),
    ("cli", "state_to_json", "cli.encode", None),
    ("cli", "operator_to_json", "cli.encode", None),
    ("cli", "_emit_report", "cli.encode", None),
    ("cli", "_emit", "cli.encode", "_after_emit"),
)

# per-layer metric -> unit; "X_calls" counts spans X, "X_s" sums the
# outermost spans X (a span nested in another of the same name is not added)
METRICS = {
    "hilbert.min_eigenpair_calls": "count",
    "hilbert.min_eigenpair_s": "s",
    "hilbert.schmidt_decompose_calls": "count",
    "hilbert.schmidt_decompose_s": "s",
    "embedding.lift_operator_calls": "count",
    "embedding.lift_operator_s": "s",
    "embedding.lifted_mb": "MB",
    "embedding.lift_state_s": "s",
    "embedding.lower_state_calls": "count",
    "embedding.lower_state_s": "s",
    "embedding.lift_ensemble_s": "s",
    "embedding.lower_ensemble_s": "s",
    "witness.classify_calls": "count",
    "witness.classify_s": "s",
    "witness.product_min_calls": "count",
    "witness.product_min_s": "s",
    "witness.seesaw_runs": "count",
    "witness.halfsteps": "count",
    "witness.seesaw_s": "s",
    "witness.seesaw_converged": "count",
    "witness.basin_hits": "count",
    "witness.eigensolves": "count",
    "families.scan_s": "s",
    "families.level_evals": "count",
    "families.level_eval_s": "s",
    "checks.identities_s": "s",
    "checks.roundtrip_s": "s",
    "checks.trace_s": "s",
    "checks.lemma5_s": "s",
    "cli.parse_s": "s",
    "cli.encode_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
}
BASIN_TOL = 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._witness_depth = 0
        self._eigensolves = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, args)`` runs after it."""
        witness = name.startswith("witness.")

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._witness_depth += witness
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._witness_depth -= witness
                self._stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _count_eigensolves(self, fn):
        def counted(*args, **kwargs):
            if self._witness_depth:
                self._eigensolves += 1
            return fn(*args, **kwargs)

        return counted

    def _after_lift(self, lifted, args):
        n = lifted.operator.matrix.shape[0]
        mb = n * n * 16 / 1e6
        self.counts["embedding.lifted_mb"] = max(self.counts["embedding.lifted_mb"], mb)

    def _after_product_min(self, result, args):
        best = min(result.trace)
        self.counts["witness.basin_hits"] += sum(v <= best + BASIN_TOL for v in result.trace)

    def _after_seesaw(self, result, args):
        history, converged = result[3], result[4]
        self.counts["witness.halfsteps"] += len(history)
        self.counts["witness.seesaw_converged"] += bool(converged)

    def _after_build_parser(self, parser, args):
        parser.parse_args = self.wrap("cli.parse", parser.parse_args)

    def _after_emit(self, result, args):
        self.counts["cli.report_bytes"] += len(args[0].encode("utf-8"))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function that the imported program still has."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "snwitness"]
        for module, attr, name, hook in TRACED:
            original = getattr(sys.modules.get(f"snwitness.{module}"), attr, None)
            if original is None:
                continue  # gone from the program; its metrics read 0
            after = getattr(self, hook) if hook else None
            _rebind(modules, original, self.wrap(name, original, after))
        # calls from families into the optimizer are the scan's level evaluations
        families = sys.modules.get("snwitness.families")
        inner = getattr(families, "min_product_expectation", None)
        if inner is not None:
            families.min_product_expectation = self.wrap("families.level_eval", inner)
        for attr in ("eigh", "eigvalsh"):
            setattr(np.linalg, attr, self._count_eigensolves(getattr(np.linalg, attr)))

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures.  ``<layer>.<f>_calls`` counts spans
        ``<layer>.<f>``; ``<layer>.<f>_s`` sums those not nested in another
        span of the same name; the other metrics are counters."""
        spans = self.spans
        by_name: dict[str, list[int]] = {}
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child_time[parent] += end - start

        def outermost_time(name: str) -> float:
            total = 0.0
            for i in by_name.get(name, ()):
                parent = spans[i][3]
                while parent >= 0 and spans[parent][0] != name:
                    parent = spans[parent][3]
                if parent < 0:
                    total += spans[i][2] - spans[i][1]
            return total

        out = {}
        for metric in METRICS:
            layer, _, what = metric.partition(".")
            base, _, kind = what.rpartition("_")
            if kind == "calls":
                out[metric] = float(len(by_name.get(f"{layer}.{base}", ())))
            elif kind == "s":
                out[metric] = outermost_time(f"{layer}.{base}")
            else:
                out[metric] = float(self.counts[metric])
        out["witness.eigensolves"] = float(self._eigensolves)
        out["witness.seesaw_runs"] = float(len(by_name.get("witness.seesaw", ())))
        out["families.level_evals"] = float(len(by_name.get("families.level_eval", ())))
        out["cli.self_s"] = sum(
            end - start - child_time[i]
            for i, (name, start, end, _) in enumerate(spans)
            if name.startswith("cli.")
        )
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(modules, original, wrapped):
    """Point every module-level binding of ``original`` (and every entry of
    an upper-case module-level dict, such as ``checks.SUITES``) at ``wrapped``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
            elif isinstance(value, dict) and attr.isupper():
                for key, entry in value.items():
                    if entry is original:
                        value[key] = wrapped
