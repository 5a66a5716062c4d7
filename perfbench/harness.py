"""Run one workload: set-up, timed units, output checks, metrics.

Set-up is timed as the benchmark's import time, plus one load of the
generated inputs through the program's loaders, plus one untimed warm-up
unit, run under ``tracemalloc``; generating the inputs is not part of it.  The inputs of a seed are
those of input set ``seed % INPUT_SETS``, whose pinned numeric is
recorded in reference.json, so every seed is checked exactly.
Timed units then run back to back (a closed loop with one caller) until
``seconds`` have passed.  Every unit's output is checked, and must equal
the warm-up unit's output exactly.  A unit that raises counts as failed
against the items it attempted and the run goes on.

Gated times are in reference seconds.  On the shared 2-core host this
benchmark was built on, the CPU's speed drifts by 20-40% over seconds to
minutes, and not alike for BLAS and for interpreted Python: the median
set-up time of ten runs moved by 45% between two sets of runs, and the
median ksvd time of 15-second runs by 25% from run to run.  So every timed
interval is divided by the time of a fixed calibration kernel measured on
both sides of it, and multiplied by ``CAL_REF_S``, the kernel's time on
that host.  The kernel is one float64 GEMM, (64 x 576) @ (576 x 3600), the
product behind one hidden-layer conv of a 60 x 60 block, plus a pure-Python
loop of about the same duration, because denoise is BLAS-bound and ksvd
interpreter-bound.  Raw seconds stay in the record.  ``setup_s`` keeps
the unit "s" that the benchmark contract asks of it; ``unit_s_p50`` is
labelled "ref-s".

``peak_alloc_mb`` is the peak of the memory allocated during the warm-up
unit, as ``tracemalloc`` counts it (numpy arrays included), so the
interpreter, the imports, the inputs and the calibration arrays are not
part of it.  The process's resident high-water mark includes all of those
and would hide a change of a few MB; it stays in the record as
``peak_rss_mb``.  Tracing allocations slows interpreted code (the ksvd
warm-up about 4x, the others under 15%), which ``setup_s`` includes.

The traced run alternates plain and traced units for ``seconds``; its
metrics are the per-layer ones from the traced units, plus
``trace_overhead``, the ratio of the traced units' median time to the
plain units' median, minus 1.
"""

from __future__ import annotations

import itertools
import os
import platform
import resource
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from perfbench import tracer
from perfbench.workloads import FULL, WORKLOADS, relative_gap

ROOT = Path(__file__).resolve().parent.parent
INPUT_SETS = 32
CAL_REF_S = 0.013
CAL_LOOP = 60_000
# a pinned value must repeat the recorded one to this relative tolerance
REFERENCE_RTOL = 1e-6

# name -> (unit, better); reported for every workload by the untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "unit_s_p50": ("ref-s", "lower"),
    "peak_alloc_mb": ("MB", "lower"),
    "ok_frac": ("share", "higher"),
}


class SpeedClock:
    """Converts wall seconds to reference seconds with a calibration kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(64, 576))
        self.b = rng.normal(size=(576, 3600))
        self.last = self.kernel_s()

    def kernel_s(self) -> float:
        """Median of three timings of the kernel."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.a @ self.b
            acc = 0.0
            for i in range(CAL_LOOP):
                acc += i * 0.5
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` just ended: scale it by the kernel time around it."""
        before, self.last = self.last, self.kernel_s()
        return wall_s * CAL_REF_S / (0.5 * (before + self.last))


@dataclass
class Units:
    """Tally of a run of timed units."""

    seconds: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def p50(self) -> float:
        return statistics.median(self.reference_s) if self.seconds else 0.0


def timed_units(wl, size, state, seconds, first, clock, trace=False):
    """Units back to back for ``seconds``; at least one is attempted.

    Returns (plain Units, traced Units, traced spans, missing probes).
    With ``trace``, every second unit runs traced, and at least one does.
    """
    plain, traced, spans, missing = Units(), Units(), [], set()
    start = time.perf_counter()
    clock.last = clock.kernel_s()
    for i in itertools.count():
        if (i >= (2 if trace else 1)
                and time.perf_counter() - start >= seconds):
            break
        if trace and i % 2:
            with tracer.tracing() as unit_trace:
                tally_unit(wl, size, state, first, clock, traced)
            spans += unit_trace.spans
            missing.update(unit_trace.missing)
        else:
            tally_unit(wl, size, state, first, clock, plain)
    return plain, traced, spans, missing


def tally_unit(wl, size, state, first, clock, tally) -> None:
    """Run, time and check one unit into ``tally``."""
    t0 = time.perf_counter()
    try:
        out = wl.unit(size, state)
    except Exception as exc:  # a failing unit is counted, not fatal
        tally.attempted += wl.items(size)
        tally.failed += wl.items(size)
        tally.errors.append(f"{type(exc).__name__}: {exc}")
        return
    tally.seconds.append(time.perf_counter() - t0)
    tally.reference_s.append(clock.reference_s(tally.seconds[-1]))
    outcome = wl.outcome(size, state, out)
    tally.attempted += outcome.attempted
    tally.failed += outcome.failed
    tally.problems += wl.check(size, state, out)
    if outcome.quality != first.quality or any(
            not np.array_equal(a, first.arrays[k])
            for k, a in outcome.arrays.items()):
        tally.problems.append("unit output differs from the warm-up unit")


def reference_problems(reference, wl, input_set, value) -> list:
    """Compare a pinned numeric with the value recorded in reference.json."""
    want = reference.get(wl.name, {}).get(str(input_set))
    if want is None:
        return [f"input set {input_set} of {wl.name} not recorded in "
                "reference.json"]
    if relative_gap(value, want) > REFERENCE_RTOL:
        return [f"{wl.quality_name} {value!r} != recorded {want!r}"]
    return []


def prepare(wl, size, seed, work):
    """Generate, load, run the warm-up unit under ``tracemalloc``.

    Returns (state, load seconds, warm-up seconds, warm-up output,
    the warm-up unit's peak allocated MB).
    """
    wl.generate(size, seed, work)
    t0 = time.perf_counter()
    state = wl.load(size, work)
    load_s = time.perf_counter() - t0
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        out = wl.unit(size, state)
        warm_s = time.perf_counter() - t0
        alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return state, load_s, warm_s, out, alloc_mb


def run_workload(name, seed, seconds, trace, size=FULL, reference=None,
                 import_s=0.0, root=ROOT):
    """Returns (result, record): the contract's result object and the
    full record (machine, set-up split, issue-named metrics, problems).

    ``reference=None`` skips the pinned-value check (for sizes that have
    no recorded values).
    """
    wl = WORKLOADS[name]
    input_set = seed % INPUT_SETS
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        clock = SpeedClock()
        state, load_s, warm_s, warm, alloc_mb = prepare(
            wl, size, input_set, work)
        raw_setup_s = import_s + load_s + warm_s
        setup_s = clock.reference_s(raw_setup_s)
        first = wl.outcome(size, state, warm)
        problems = wl.check(size, state, warm)
        if reference is not None:
            problems += reference_problems(reference, wl, input_set,
                                           first.quality)
        if trace:
            with tracer.tracing() as load_trace:
                wl.load(size, work)
        plain, traced, spans, missing = timed_units(
            wl, size, state, seconds, first, clock, trace)
        if trace:
            problems += [f"{b} still wrapped after the traced run"
                         for b in tracer.still_wrapped()]
    finally:
        shutil.rmtree(work)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += plain.problems + traced.problems
    if not plain.seconds or (trace and not traced.seconds):
        problems.append("no unit succeeded")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    n = len(plain.seconds)
    raw_p50 = statistics.median(plain.seconds) if n else 0.0
    raw_rate = n / sum(plain.seconds) if n else 0.0

    if trace:
        values = dict.fromkeys(tracer.PER_LAYER, 0.0)
        if traced.seconds:
            values.update(tracer.layer_metrics(
                spans, load_trace.spans, len(traced.seconds), size.bands))
        if traced.seconds and n:
            values["trace_overhead"] = traced.p50() / plain.p50() - 1.0
        units_spec = tracer.PER_LAYER
    else:
        values = {"setup_s": setup_s, "unit_s_p50": plain.p50(),
                  "peak_alloc_mb": alloc_mb,
                  "ok_frac": 1.0 - failed / attempted}
        units_spec = END_TO_END

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units_spec[k][0]}
                          for k, v in values.items()}}
    # the issue's per-workload names, in wall seconds
    named = {
        "setup_s": (raw_setup_s, "s", "lower", 1),
        "peak_rss_mb": (peak_mb, "MB", "lower", 1),
        "failed_frac": (failed / attempted, "share", "lower", attempted),
        wl.rate_name: (raw_rate * wl.rate(size), wl.rate_unit, "higher", n),
        wl.p50_name: (raw_p50, "s", "lower", n),
        wl.quality_name: (first.quality, wl.quality_unit,
                          wl.quality_better, 1),
    }
    record = {
        "workload": name, "seed": seed, "input_set": input_set,
        "seconds": seconds, "trace": trace, "unit": wl.unit_name,
        "units": n, "traced_units": len(traced.seconds),
        "setup": {"import_s": import_s, "load_s": load_s, "warmup_s": warm_s},
        "calibration_s": clock.last, "calibration_ref_s": CAL_REF_S,
        "named": {k: {"value": v, "unit": u, "better": b, "n": c}
                  for k, (v, u, b, c) in named.items()},
        "machine": machine_info(root),
        "problems": problems, "errors": plain.errors + traced.errors,
        "missing": sorted(missing),
    }
    return result, record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(module) -> str:
    blas = module.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def machine_info(root: Path) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np),
        "scipy_blas": _blas_version(scipy),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "commit": _git_commit(root),
    }


def report_lines(result, record) -> list:
    """Human-readable lines: every metric by name, unit and workload."""
    wl = record["workload"]
    lines = [f"perfbench {wl} seed={record['seed']} trace={record['trace']} "
             f"units={record['units']} correct={result['correct']} "
             f"failed={result['failed']}/{result['attempted']}"]
    if not record["trace"]:
        lines.append("  per-workload metrics, wall seconds:")
        for name, m in record["named"].items():
            lines.append(f"  {wl:9} {name:16} {m['value']:>14.6g} "
                         f"{m['unit']:10} {m['better']:6} n={m['n']}")
        lines.append("  gated metrics, reference seconds:")
    for name, m in result["metrics"].items():
        lines.append(f"  {wl:9} {name:40} {m['value']:>14.6g} {m['unit']}")
    lines += [f"  problem: {p}" for p in record["problems"]]
    lines += [f"  failed unit: {e}" for e in record["errors"]]
    lines += [f"  missing probe: {p}" for p in record["missing"]]
    return lines
