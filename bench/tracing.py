"""Spans around the calls into each ewkit module, recorded from outside ewkit.

Only the traced run installs the wrappers. Each span keeps its name, start,
end and parent, plus the call's arguments and result, so that byte counts and
scan counts are read after the op returns instead of inside its timing. A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter
from typing import Any, Callable

from ewkit.core import HermitianOp

from workloads import PAIR_DIMS

# (module, attribute, span name). The cli rows are the names ewkit.cli
# imports; the rest are the core kernels as certify and detect call them.
WRAPPED = [
    ("ewkit.cli", "read_operator", "serialize.read_operator"),
    ("ewkit.cli", "write_operator", "serialize.write_operator"),
    ("ewkit.cli", "read_map_table", "serialize.map_table"),
    ("ewkit.cli", "write_map_table", "serialize.map_table"),
    ("ewkit.cli", "write_sweep_csv", "serialize.write_sweep_csv"),
    ("ewkit.cli", "witness_dk", "construct.build"),
    ("ewkit.cli", "ha_state", "construct.build"),
    ("ewkit.cli", "projector_p", "construct.build"),
    ("ewkit.cli", "projector_q", "construct.build"),
    ("ewkit.cli", "perturbed_witness", "construct.build"),
    ("ewkit.cli", "jamiolkowski", "construct.jamiolkowski"),
    ("ewkit.cli", "dejamiolkowski", "construct.dejamiolkowski"),
    ("ewkit.cli", "trace_pair", "core.trace_pair"),
    ("ewkit.cli", "alpha_threshold", "detect.threshold"),
    ("ewkit.cli", "lambda_threshold", "detect.threshold"),
    ("ewkit.cli", "mu_threshold", "detect.threshold"),
    ("ewkit.cli", "sweep", "detect.sweep"),
    ("ewkit.cli", "certify_ppt", "certify.psd_certs"),
    ("ewkit.cli", "certify_indecomposable", "certify.psd_certs"),
    ("ewkit.cli", "certify_atomic_conditional", "certify.psd_certs"),
    ("ewkit.cli", "certify_completely_copositive", "certify.psd_certs"),
    ("ewkit.cli", "blockpos_scan", "certify.blockpos_scan"),
    ("ewkit.certify", "is_psd", "core.is_psd"),
    ("ewkit.certify", "partial_transpose", "core.partial_transpose"),
    ("ewkit.certify", "trace_pair", "core.trace_pair"),
    ("ewkit.detect", "is_psd", "core.is_psd"),
    ("ewkit.detect", "trace_pair", "core.trace_pair"),
]

ROOT_SPAN = "cli.self"  # the ewkit.cli.main call itself

# Kernels that also get one metric per local dimension of pair-pipeline.
SCALED = ("core.is_psd", "core.partial_transpose", "serialize.read_operator",
          "serialize.write_operator", "construct.jamiolkowski")

MS, COUNT = "ms/pass", "count/pass"
PER_LAYER: list[tuple[str, str]] = [
    ("cli.self.ms", MS),
    ("serialize.read_operator.ms", MS),
    ("serialize.read_operator.calls", COUNT),
    ("serialize.read_operator.bytes", "B/pass"),
    ("serialize.write_operator.ms", MS),
    ("serialize.write_operator.calls", COUNT),
    ("serialize.write_operator.bytes", "B/pass"),
    ("serialize.map_table.ms", MS),
    ("serialize.write_sweep_csv.ms", MS),
    ("serialize.write_sweep_csv.bytes", "B/pass"),
    ("serialize.cert.bytes", "B/pass"),
    ("core.gate.ms", MS),
    ("core.gate.calls", COUNT),
    ("core.partial_transpose.ms", MS),
    ("core.trace_pair.ms", MS),
    ("core.is_psd.ms", MS),
    ("core.is_psd.calls", COUNT),
    ("core.is_psd.flops_computed", "flop/pass"),
    ("construct.build.ms", MS),
    ("construct.jamiolkowski.ms", MS),
    ("construct.dejamiolkowski.ms", MS),
    ("detect.threshold.ms", MS),
    ("detect.sweep.ms", MS),
    ("detect.sweep.rows", COUNT),
    ("detect.sweep.rows_per_s", "1/s"),
    ("detect.sweep.verdict_mismatch", COUNT),
    ("certify.blockpos_scan.ms", MS),
    ("certify.scan.restarts", COUNT),
    ("certify.scan.iterations", COUNT),
    ("certify.scan.ms_per_iteration", "ms"),
    ("certify.scan.unconverged", COUNT),
    ("certify.scan.useful_frac", "ratio"),
    ("certify.psd_certs.ms", MS),
    *[(f"{name}.ms.d{d}", MS) for name in SCALED for d in PAIR_DIMS],
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.overhead.frac", "ratio"),
]

# Counts that must repeat exactly in every traced pass. The certificate size
# is left out: certificates are to record their wall time (ROADMAP item 4),
# whose printed length varies from run to run.
EXACT = [
    name for name, unit in PER_LAYER
    if unit in (COUNT, "B/pass", "flop/pass") and name != "serialize.cert.bytes"
] + ["certify.scan.useful_frac"]


class Tracer:
    """Records one span per wrapped call while an op runs."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, args, result]
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:  # outside an op: the benchmark's own calls
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], args, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                span[5] = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            return span[5]

        return traced

    def install(self) -> list[str]:
        """Wraps every boundary; returns those the program no longer has."""
        missing = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, name)
            else:
                missing.append(f"{module_name}.{attr}")
        self._patch(HermitianOp, "__post_init__", "core.gate")
        return missing

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def root(self, main: Callable[[list[str]], int]) -> Callable[[list[str]], int]:
        """main wrapped as the root span of one op."""

        def traced_main(argv: list[str]) -> int:
            self.spans.clear()
            span = [ROOT_SPAN, time.perf_counter(), 0.0, None, (), None]
            self.spans.append(span)
            self._stack.append(0)
            try:
                return main(argv)
            finally:
                span[2] = time.perf_counter()
                self._stack.clear()

        return traced_main


def _dims_suffix(name: str, dims: tuple[int, ...]) -> str | None:
    if name in SCALED and len(dims) == 2 and dims[0] == dims[1] and dims[0] in PAIR_DIMS:
        return f"{name}.ms.d{dims[0]}"
    return None


def add_op(spans: list[list[Any]], stats: Counter) -> None:
    """Fold the spans of one op into per-pass totals."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    for i, (name, start, end, _, args, result) in enumerate(spans):
        ms = (end - start - child_s[i]) * 1e3
        stats[f"{name}.ms"] += ms
        stats[f"{name}.calls"] += 1
        try:
            dims = _add_counts(name, args, result, stats)
        except (IndexError, AttributeError, TypeError, KeyError, OSError) as exc:
            # the call's signature or result changed: its counts read low
            sys.stderr.write(f"cannot count {name}: {exc!r}\n")
            continue
        if dims is not None and (scaled := _dims_suffix(name, dims)):
            stats[scaled] += ms


def _add_counts(name: str, args: tuple, result: Any, stats: Counter) -> tuple[int, ...] | None:
    """Adds the span's byte and work counts; returns the dims of its operator."""
    if name == "serialize.read_operator":
        stats[f"{name}.bytes"] += os.path.getsize(args[0])
        return result[0].space.dims
    if name == "serialize.write_operator":
        stats[f"{name}.bytes"] += os.path.getsize(args[0])
        return args[1].space.dims
    if name == "serialize.write_sweep_csv":
        stats[f"{name}.bytes"] += os.path.getsize(args[0])
    elif name == "core.is_psd":
        # leading-order real flops of a complex Hermitian eigenvalue solve
        stats[f"{name}.flops_computed"] += 16 * args[0].dim**3 // 3
        return args[0].space.dims
    elif name == "core.partial_transpose":
        return args[0].space.dims
    elif name == "construct.jamiolkowski":
        return (args[0].d_in, args[0].d_out)
    elif name == "detect.sweep":
        stats["detect.sweep.rows"] += len(result)
    elif name == "certify.blockpos_scan":
        _add_scan(result.evidence, stats)
    return None


def _add_scan(evidence: dict, stats: Counter) -> None:
    histories = evidence["histories"]
    tol = evidence["conv_tol"]
    best = min(h[-1] for h in histories)
    for h in histories:
        steps = (len(h) - 1) // 2  # each alternating step appends two values
        stats["certify.scan.restarts"] += 1
        stats["certify.scan.iterations"] += steps
        converged = abs(h[-3] - h[-1]) <= tol * max(1.0, abs(h[-1]))
        if steps == evidence["max_iters"] and not converged:
            stats["certify.scan.unconverged"] += 1
        if abs(h[-1] - best) <= tol * max(1.0, abs(best)):
            stats["certify.scan.useful"] += 1


def layer_metrics(stats: Counter, passes: int) -> dict[str, float]:
    """Per-pass values of every PER_LAYER metric except the overhead pair."""
    out = {name: stats[name] / passes for name, _ in PER_LAYER if not name.startswith("trace.")}
    sweep_s = stats["detect.sweep.ms"] / 1e3
    out["detect.sweep.rows_per_s"] = stats["detect.sweep.rows"] / sweep_s if sweep_s else 0.0
    iterations = stats["certify.scan.iterations"]
    out["certify.scan.ms_per_iteration"] = (
        stats["certify.blockpos_scan.ms"] / iterations if iterations else 0.0)
    restarts = stats["certify.scan.restarts"]
    out["certify.scan.useful_frac"] = stats["certify.scan.useful"] / restarts if restarts else 0.0
    return out
