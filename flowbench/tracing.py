"""Spans around calls into benflow's layers, recorded from the benchmark side.

The tracer replaces module attributes with timing wrappers while an
operation is traced and puts the originals back afterwards, so untraced
operations run the program untouched.  A call resolves the attribute at
call time, so a wrapper placed where a caller imports the name (for
example `benflow.cli.spectrum`) sees every call that caller makes.
Spans live in memory and are written out once, at the end of the run.
A target that no longer exists is listed as missing, never raised.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); "{label}" is filled from Tracer.label.
# Callees of cli.main without a metric of their own are wrapped too, so
# that cli.analyze self time is the CLI's own work.
TARGETS = (
    ("flowsignal", "benford_verdict", "flowsignal.verdict"),
    ("flowsignal", "sample_log_signal", "flowsignal.sample.{label}"),
    ("cli", "main", "cli.analyze"),
    ("cli", "load_matrix", "dataio.load_matrix"),
    ("cli", "parse_exact_spectrum", "dataio.parse_exact_spectrum"),
    ("cli", "spectrum", "matrixcore.spectrum"),
    ("cli", "is_hyperbolic", "matrixcore.is_hyperbolic"),
    ("cli", "is_exp_b_nonresonant", "resonance.is_exp_b_nonresonant"),
    ("cli", "is_exp_nonresonant_algebraic", "resonance.is_exp_nonresonant_algebraic"),
    ("genericity", "resonance_census", "genericity.census"),
    ("genericity", "sample_generator", "genericity.sample_generator"),
    ("genericity", "numeric_relation_scan", "resonance.numeric_relation_scan"),
)

SAMPLE_PATHS = ("eigen_observable", "eigen_norm_d2", "eigen_norm_d3", "eigen_norm_frobenius", "stepping")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _annotate(name: str, args, kwargs, result) -> dict | None:
    """Counts taken at the boundary: samples, kept samples, matrices."""
    if name.startswith("flowsignal.sample."):
        return {"samples": getattr(_arg(args, kwargs, 1, "grid"), "count", 0)}
    if name == "flowsignal.verdict":
        return {"samples": result.sample_count, "kept": result.sample_count - result.excluded_sample_count}
    if name == "genericity.census":
        return {"matrices": getattr(_arg(args, kwargs, 0, "spec"), "N", 0)}
    return None


class Tracer:
    def __init__(self, bf):
        self.label = ""
        self.op = -1
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, attrs]
        self._stack: list[int] = []
        self.targets, self.missing = [], []
        for mod_name, attr, name in TARGETS:
            module = getattr(bf, mod_name, None)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"benflow.{mod_name}.{attr}")
            else:
                self.targets.append((module, attr, original, self._wrap(original, name)))

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name.format(label=self.label), 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _annotate(span[0], args, kwargs, result)
            return result

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapped in self.targets:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.targets:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "attrs"],
                       "missing": self.missing, "spans": self.spans}, fh, separators=(",", ":"))

    def layer_metrics(self, traced_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures from the spans; a layer never called reads 0."""
        total = defaultdict(int)  # ns, by span name
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        counts = defaultdict(int)  # (name, attr) -> summed attribute
        for name, start, end, parent, _, attrs in self.spans:
            total[name] += end - start
            self_ns[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
            for key, value in (attrs or {}).items():
                counts[name, key] += value

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {}
        for path in SAMPLE_PATHS:
            name = f"flowsignal.sample.{path}"
            out[f"{name}.ns_per_sample"] = (per(total[name], counts[name, "samples"]), "ns")
        samples = counts["flowsignal.verdict", "samples"]
        out["flowsignal.stats.self_ns_per_sample"] = (per(self_ns["flowsignal.verdict"], samples), "ns")
        out["flowsignal.stats.kept_share"] = (per(counts["flowsignal.verdict", "kept"], samples), "share")
        for name in ("dataio.load_matrix", "matrixcore.spectrum", "resonance.is_exp_b_nonresonant",
                     "cli.analyze", "genericity.sample_generator", "resonance.numeric_relation_scan"):
            out[f"{name}.self_us"] = (per(self_ns[name], calls[name], 1e-3), "us")
        out["genericity.census.self_us_per_matrix"] = (
            per(self_ns["genericity.census"], counts["genericity.census", "matrices"], 1e-3), "us")
        out["resonance.numeric_relation_scan.calls_per_op"] = (
            per(calls["resonance.numeric_relation_scan"], traced_ops), "calls/op")
        return out
