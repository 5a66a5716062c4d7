"""Print the tracemalloc peak inside each ``blocksc`` function of one unit.

    python tools/peak_phases.py train_du --seed 2

Runs one perfbench-sized unit of a workload (``denoise``, ``train_deq``,
``train_du``, ``ksvd``) from the root of a source checkout, the way
``perfbench/harness.py`` times its warm-up unit: the inputs of the seed's
input set are generated and loaded first, then ``tracemalloc`` starts and
the unit runs, on one BLAS thread.  ``perfbench`` is only imported, never
changed.  For every ``blocksc`` function the unit calls, the table gives
its calls and the highest traced memory (MB, absolute, as perfbench's
``peak_alloc_mb`` counts it) seen while one of its calls was open, nested
calls included; the last line names the innermost open function at the
unit's peak.

The windows are opened and closed by a ``sys.setprofile`` hook on the
functions' call and return events, and the peak between two events is
folded into every window open at the time.  A wrapper around each
function would be simpler but reads wrong: its frame keeps the wrapped
call's arguments alive until the call returns, so it moves the peak it
measures (a seed-2 ``train_deq`` unit read 9.23 MB plain and 9.54 MB
under ``perfbench.tracer``'s wrappers).  The hook holds no argument and
names no function until the unit is done (building the names inside the
hook read 1.8 MB high); the unit's peak reads within 0.05 MB of the plain
one.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import tracemalloc  # noqa: E402

MB = 2.0 ** 20


class PeakWindows:
    """Per-function peaks from call/return events of ``blocksc`` code."""

    def __init__(self, package_dir: str):
        self.package_dir = package_dir
        self.open = []      # code objects of the open calls, innermost last
        self.peak = {}      # code -> highest traced bytes while open
        self.calls = {}     # code -> number of calls
        self.top = (0, None)  # (bytes, innermost open code) at the peak

    def fold(self) -> None:
        """Charge the peak since the last event to every open window."""
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for code in self.open:
            if peak > self.peak[code]:
                self.peak[code] = peak
        if peak > self.top[0]:
            self.top = (peak, self.open[-1] if self.open else None)

    def __call__(self, frame, event, arg) -> None:
        if event not in ("call", "return"):
            return
        code = frame.f_code
        if not code.co_filename.startswith(self.package_dir):
            return
        self.fold()
        if event == "call":  # keyed by code: naming here moved the peak
            self.open.append(code)
            self.peak.setdefault(code, 0)
            self.calls[code] = self.calls.get(code, 0) + 1
        else:
            self.open.pop()


def name(code) -> str:
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def run(workload: str, seed: int) -> PeakWindows:
    import blocksc
    from perfbench import harness, workloads

    wl = workloads.WORKLOADS[workload]
    size = workloads.FULL
    with tempfile.TemporaryDirectory() as work:
        wl.generate(size, seed % harness.INPUT_SETS, Path(work))
        state = wl.load(size, Path(work))
    windows = PeakWindows(str(Path(blocksc.__file__).parent))
    tracemalloc.start()
    sys.setprofile(windows)
    try:
        wl.unit(size, state)
    finally:
        sys.setprofile(None)
        windows.fold()
        tracemalloc.stop()
    return windows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=("denoise", "train_deq", "train_du",
                                         "ksvd"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    windows = run(args.workload, args.seed)
    rows = sorted(windows.peak.items(), key=lambda kv: -kv[1])
    width = max(len(name(code)) for code, _ in rows)
    print(f"{'function':<{width}}  {'calls':>6}  {'peak MB':>8}")
    for code, peak in rows:
        print(f"{name(code):<{width}}  {windows.calls[code]:>6}  "
              f"{peak / MB:>8.3f}")
    peak, where = windows.top
    print(f"{args.workload} seed {args.seed}: unit peak {peak / MB:.3f} MB "
          f"in {name(where) if where else 'no blocksc call'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
