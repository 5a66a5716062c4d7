"""In-memory span tracing of blocksc's public functions, for the traced run.

A probe names one public function and every module binding its callers
look it up through (``blocksc.deq.map_vjp`` and ``blocksc.unroll.map_vjp``
are both ``solver.map_vjp``).  ``tracing()`` swaps each binding for a
wrapper that records a span (name, parent span, duration, time covered by
child spans) and restores the originals on exit.  Calls made through a
private binding, such as the convolutions ``denoise_vjp`` runs through
``denoiser._CONV``, are not wrapped, so their time is self time of the
nearest wrapped caller.  A probe none of whose bindings exist is reported
as missing and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    parent: "Span | None"
    seconds: float = 0.0
    child_seconds: float = 0.0
    info: object = None

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


def _conv_info(args, out):
    x, weight = args[0], args[1]
    c_out, c_in = weight.shape[:2]
    return c_in, c_out, 2.0 * c_out * c_in * 9 * x.shape[1] * x.shape[2]


def _anderson_info(args, report):
    return report.iterations, report.converged


def _du_forward_info(args, out):
    return sum(g.nbytes for g in out[1])


def _batch_omp_info(args, out):
    return np.asarray(args[0]).shape[1]


def _train_info(args, out):
    return int(out[1][-1]["skipped"]) if out[1] else 0


def _bindings(modules, attrs):
    return [f"blocksc.{m}:{a}" for m in modules for a in attrs]


# probe name -> (bindings "module:attr[.attr]", info extractor or None)
PROBES = {
    "tensor.conv2d": (["blocksc.denoiser:conv2d"], _conv_info),
    "tensor.chol_factor": (["blocksc.solver:chol_factor"], None),
    "denoiser.denoise": (
        _bindings(("solver", "unroll", "training"), ("denoise",)), None),
    "denoiser.denoise_vjp": (
        _bindings(("solver", "unroll", "training"), ("denoise_vjp",)), None),
    "denoiser.spectral_normalize": (
        ["blocksc.training:spectral_normalize"], None),
    "solver.iteration_map": (
        _bindings(("deq", "unroll"), ("iteration_map",)), None),
    "solver.map_vjp": (_bindings(("deq", "unroll"), ("map_vjp",)), None),
    "solver.select_support": (
        _bindings(("pipeline", "deq", "unroll"), ("select_support",)), None),
    "solver.make_context": (
        _bindings(("pipeline", "deq", "unroll"),
                  ("make_context", "make_fast_context", "make_full_context")),
        None),
    "anderson.anderson_solve": (["blocksc.deq:anderson_solve"], _anderson_info),
    "deq.deq_forward": (_bindings(("deq", "pipeline"), ("deq_forward",)), None),
    "deq.deq_backward": (["blocksc.deq:deq_backward"], None),
    "unroll.du_forward": (
        _bindings(("unroll", "pipeline"), ("du_forward",)), _du_forward_info),
    "unroll.du_backward": (["blocksc.unroll:du_backward"], None),
    "dictionary.omp": (["blocksc.solver:omp"], None),
    "dictionary.batch_omp": (["blocksc.dictionary:batch_omp"], _batch_omp_info),
    "dictionary.ksvd": (["blocksc.dictionary:ksvd"], None),
    "cubes.split_blocks": (["blocksc.pipeline:split_blocks"], None),
    "cubes.reassemble": (["blocksc.pipeline:reassemble"], None),
    "pipeline.denoise_block": (["blocksc.pipeline:denoise_block"], None),
    "pipeline.denoise_cube": (["blocksc.pipeline:denoise_cube"], None),
    "training.Adam.step": (["blocksc.training:Adam.step"], None),
    "training.end_to_end_train": (
        _bindings(("deq", "unroll"), ("end_to_end_train",)), _train_info),
    "checkpoint.load_checkpoint": (["blocksc.pipeline:load_checkpoint"], None),
}

# name -> (unit, better); every name is reported by every traced run
COUNT, MS = ("count", "lower"), ("ms", "lower")
PER_LAYER = {}
for _shape in ("in", "mid", "out"):
    PER_LAYER[f"tensor.conv2d.{_shape}.calls"] = COUNT
    PER_LAYER[f"tensor.conv2d.{_shape}.self_ms"] = MS
    PER_LAYER[f"tensor.conv2d.{_shape}.gflops"] = ("computed-GFLOP/s", "higher")
PER_LAYER.update({
    "tensor.chol_factor.calls": COUNT,
    "tensor.chol_factor.self_ms": MS,
    "denoiser.denoise.calls": COUNT,
    "denoiser.denoise.total_ms": MS,
    "denoiser.denoise.self_ms": MS,
    "denoiser.denoise_vjp.calls": COUNT,
    "denoiser.denoise_vjp.total_ms": MS,
    "denoiser.spectral_normalize.total_ms": MS,
    "solver.iteration_map.calls": COUNT,
    "solver.iteration_map.self_ms": MS,
    "solver.map_vjp.calls": COUNT,
    "solver.map_vjp.total_ms": MS,
    "solver.map_vjp.self_ms": MS,
    "solver.select_support.total_ms": MS,
    "solver.make_context.total_ms": MS,
    "anderson.anderson_solve.self_ms": MS,
    "anderson.fwd_iters_mean": ("iterations", "lower"),
    "anderson.adj_iters_mean": ("iterations", "lower"),
    "anderson.converged_frac": ("share", "higher"),
    "deq.deq_forward.total_ms": MS,
    "deq.deq_backward.total_ms": MS,
    "deq.bwd_fwd_ratio": ("ratio", "lower"),
    "unroll.du_forward.total_ms": MS,
    "unroll.du_backward.total_ms": MS,
    "unroll.trace_mb": ("MB", "lower"),
    "dictionary.omp.calls": COUNT,
    "dictionary.omp.total_ms": MS,
    "dictionary.batch_omp.calls": COUNT,
    "dictionary.batch_omp.total_ms": MS,
    "dictionary.batch_omp.columns_per_s": ("columns/s", "higher"),
    "dictionary.ksvd.update_ms": MS,
    "cubes.split_blocks.total_ms": MS,
    "cubes.reassemble.total_ms": MS,
    "pipeline.denoise_block.calls": COUNT,
    "pipeline.denoise_block.total_ms": MS,
    "pipeline.block_ms_p50": MS,
    "pipeline.block_ms_p90": MS,
    "pipeline.denoise_cube.self_ms": MS,
    "training.Adam.step.total_ms": MS,
    "training.end_to_end_train.self_ms": MS,
    "training.skipped": COUNT,
    "checkpoint.load_checkpoint.total_ms": MS,
    "trace_overhead": ("share", "lower"),
})


def _resolve(binding):
    """(owner object, attribute) for "module:attr[.attr]", or None."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Collects spans from wrapped calls; single-threaded callers only."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.missing: list = []

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.seconds = time.perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent.child_seconds += span.seconds
                self.spans.append(span)
            if info is not None:
                span.info = info(args, out)
            return out

        return traced


@contextmanager
def tracing():
    """Wrap every probe binding for the duration of the block."""
    tracer = Tracer()
    patched = []
    try:
        for name, (bindings, info) in PROBES.items():
            found = [b for b in map(_resolve, bindings) if b is not None]
            if not found:
                tracer.missing.append(name)
            for owner, attr in found:
                original = getattr(owner, attr)
                patched.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def still_wrapped() -> list:
    """Bindings that hold a tracing wrapper; empty once ``tracing`` exits."""
    return [b for bindings, _ in PROBES.values() for b in bindings
            if (found := _resolve(b)) is not None
            and hasattr(getattr(*found), "__wrapped__")]


def _by_name(spans):
    out = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


def _with_info(spans):
    """Spans whose call returned (a call that raised carries no info)."""
    return [s for s in spans if s.info is not None]


def layer_metrics(unit_spans, load_spans, units, bands) -> dict:
    """Per-unit layer metrics from the spans of ``units`` traced units.

    ``load_spans`` come from one traced load of the inputs and feed the
    checkpoint metric.  ``bands`` tells the input conv (bands -> hidden)
    from the output conv (hidden -> bands).
    """
    spans = _by_name(unit_spans)

    def total(name):
        return sum(s.seconds for s in spans.get(name, []))

    def self_total(name):
        return sum(s.self_seconds for s in spans.get(name, []))

    def calls(name):
        return len(spans.get(name, ()))

    def conv_shape(span):
        c_in, c_out, _ = span.info
        return "in" if c_in == bands else "out" if c_out == bands else "mid"

    m = {}
    convs = _with_info(spans.get("tensor.conv2d", []))
    for shape in ("in", "mid", "out"):
        picked = [s for s in convs if conv_shape(s) == shape]
        busy = sum(s.self_seconds for s in picked)
        m[f"tensor.conv2d.{shape}.calls"] = len(picked) / units
        m[f"tensor.conv2d.{shape}.self_ms"] = 1e3 * busy / units
        m[f"tensor.conv2d.{shape}.gflops"] = (
            sum(s.info[2] for s in picked) / busy / 1e9 if busy > 0 else 0.0)

    for name, kinds in (("tensor.chol_factor", ("calls", "self_ms")),
                        ("denoiser.denoise", ("calls", "total_ms", "self_ms")),
                        ("denoiser.denoise_vjp", ("calls", "total_ms")),
                        ("denoiser.spectral_normalize", ("total_ms",)),
                        ("solver.iteration_map", ("calls", "self_ms")),
                        ("solver.map_vjp", ("calls", "total_ms", "self_ms")),
                        ("solver.select_support", ("total_ms",)),
                        ("solver.make_context", ("total_ms",)),
                        ("anderson.anderson_solve", ("self_ms",)),
                        ("deq.deq_forward", ("total_ms",)),
                        ("deq.deq_backward", ("total_ms",)),
                        ("unroll.du_forward", ("total_ms",)),
                        ("unroll.du_backward", ("total_ms",)),
                        ("dictionary.omp", ("calls", "total_ms")),
                        ("dictionary.batch_omp", ("calls", "total_ms")),
                        ("cubes.split_blocks", ("total_ms",)),
                        ("cubes.reassemble", ("total_ms",)),
                        ("pipeline.denoise_block", ("calls", "total_ms")),
                        ("pipeline.denoise_cube", ("self_ms",)),
                        ("training.Adam.step", ("total_ms",)),
                        ("training.end_to_end_train", ("self_ms",))):
        for kind in kinds:
            value = (calls(name) if kind == "calls" else
                     1e3 * total(name) if kind == "total_ms" else
                     1e3 * self_total(name))
            m[f"{name}.{kind}"] = value / units

    solves = _with_info(spans.get("anderson.anderson_solve", []))

    def mean_iters(parent):
        its = [s.info[0] for s in solves
               if s.parent is not None and s.parent.name == parent]
        return float(np.mean(its)) if its else 0.0

    m["anderson.fwd_iters_mean"] = mean_iters("deq.deq_forward")
    m["anderson.adj_iters_mean"] = mean_iters("deq.deq_backward")
    m["anderson.converged_frac"] = (
        float(np.mean([s.info[1] for s in solves])) if solves else 0.0)

    fwd = total("deq.deq_forward")
    m["deq.bwd_fwd_ratio"] = total("deq.deq_backward") / fwd if fwd else 0.0
    m["unroll.trace_mb"] = max(
        (s.info for s in _with_info(spans.get("unroll.du_forward", []))),
        default=0) / 1e6

    omp = _with_info(spans.get("dictionary.batch_omp", []))
    omp_s = sum(s.seconds for s in omp)
    m["dictionary.batch_omp.columns_per_s"] = (
        sum(s.info for s in omp) / omp_s if omp_s else 0.0)
    in_ksvd = sum(s.seconds for s in spans.get("dictionary.batch_omp", [])
                  if s.parent is not None and s.parent.name == "dictionary.ksvd")
    m["dictionary.ksvd.update_ms"] = (
        1e3 * (total("dictionary.ksvd") - in_ksvd) / units)

    block_ms = [1e3 * s.seconds
                for s in spans.get("pipeline.denoise_block", [])]
    for q in (50, 90):
        m[f"pipeline.block_ms_p{q}"] = (
            float(np.percentile(block_ms, q)) if block_ms else 0.0)
    m["training.skipped"] = sum(
        s.info for s in _with_info(spans.get("training.end_to_end_train", []))
    ) / units

    m["checkpoint.load_checkpoint.total_ms"] = 1e3 * sum(
        s.seconds for s in load_spans
        if s.name == "checkpoint.load_checkpoint")
    return m
