"""Print the tracemalloc peak, or the minor page faults, inside each
``blocksc`` function of one unit.

    python tools/peak_phases.py train_du --seed 2
    python tools/peak_phases.py train_deq --seed 2 --live 12
    python tools/peak_phases.py denoise --seed 2 --faults --units 5

Runs perfbench-sized units of a workload (``denoise``, ``train_deq``,
``train_du``, ``ksvd``) from the root of a source checkout, on one BLAS
thread; the inputs of the seed's input set are generated and loaded first.
``perfbench`` is only imported, never changed.

By default one unit runs under ``tracemalloc``, the way
``perfbench/harness.py`` times its warm-up unit.  For every ``blocksc``
function the unit calls, the table gives its calls and the highest traced
memory (MB, absolute, as perfbench's ``peak_alloc_mb`` counts it) seen while
one of its calls was open, nested calls included; the last line names the
innermost open function at the unit's peak.

With ``--live N`` the tool also takes a ``tracemalloc`` snapshot at every
event where the peak since the last event is a new high for the unit and a
``blocksc`` call is open, and lists the N largest allocation sites (file
and line of the innermost Python frame, KB) of the last such snapshot: what
was alive at the unit's peak, as of the event that closed it.  A temporary
freed before that event is missing; the line above the list gives the
traced memory at the event.  The peak is reset once each snapshot is
read, so the snapshots themselves are not counted, but what reading them
leaves cached is: a seed-2 ``train_deq`` unit's peak read 8.587 MB with
``--live 14`` and 8.546 MB without.

With ``--faults`` nothing is traced.  One warm-up unit runs first, then
``--units`` units each print their minor page faults (``ru_minflt`` of the
whole process), then one more unit gives the table: each function's calls,
the faults taken while one of its calls was open (nested calls included)
and those taken while it was the innermost open ``blocksc`` function.  A
fault is a page the allocator got fresh from the kernel, so these count
memory freed and mapped again.

The windows are opened and closed by a ``sys.setprofile`` hook on the
functions' call and return events, and what happened between two events
is folded into every window open at the time.  A wrapper around each
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
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import tracemalloc  # noqa: E402

MB = 2.0 ** 20


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class PeakWindows:
    """Per-function peaks from call/return events of ``blocksc`` code."""

    def __init__(self, package_dir: str, live: int = 0):
        self.package_dir = package_dir
        self.open = []      # code objects of the open calls, innermost last
        self.total = {}     # code -> highest traced bytes while open
        self.calls = {}     # code -> number of calls
        self.top = (0, None)  # (bytes, innermost open code) at the peak
        self.live = live    # allocation sites to list (0: take no snapshot)
        self.sites = (0, [])  # live_sites() at the last new high

    def fold(self) -> None:
        """Charge the peak since the last event to every open window."""
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for code in self.open:
            if peak > self.total[code]:
                self.total[code] = peak
        if peak > self.top[0]:
            self.top = (peak, self.open[-1] if self.open else None)
            if self.live and self.open:
                self.sites = live_sites(self.live)

    def __call__(self, frame, event, arg) -> None:
        if event not in ("call", "return"):
            return
        code = frame.f_code
        if not code.co_filename.startswith(self.package_dir):
            return
        self.fold()
        if event == "call":  # keyed by code: naming here moved the peak
            self.open.append(code)
            self.total.setdefault(code, 0)
            self.calls[code] = self.calls.get(code, 0) + 1
        else:
            self.open.pop()


def live_sites(count: int):
    """(traced bytes now, the ``count`` largest allocation sites alive now
    as ("dir/file.py:line", bytes)); the snapshot is dropped and the peak
    reset before returning, so its own memory counts nowhere."""
    current = tracemalloc.get_traced_memory()[0]
    stats = tracemalloc.take_snapshot().statistics("lineno")
    sites = []
    for stat in stats:  # plain strings: pathlib caches what it parses
        frame = stat.traceback[0]
        if frame.filename != tracemalloc.__file__ and len(sites) < count:
            head, tail = os.path.split(frame.filename)
            sites.append((f"{os.path.basename(head)}/{tail}:{frame.lineno}",
                          stat.size))
    del stats
    tracemalloc.reset_peak()
    return current, sites


class FaultWindows(PeakWindows):
    """Per-function minor page faults: those since the last event are added
    to every open window and to the innermost one's own count."""

    def __init__(self, package_dir: str):
        super().__init__(package_dir)
        self.own = {}       # code -> faults while the innermost open call
        self.last = minor_faults()

    def fold(self) -> None:
        now = minor_faults()
        faults, self.last = now - self.last, now
        for code in self.open:
            self.total[code] += faults
        if self.open:
            inner = self.open[-1]
            self.own[inner] = self.own.get(inner, 0) + faults


def name(code) -> str:
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def load(workload: str, seed: int):
    """(workload, size, state) of the seed's input set."""
    from perfbench import harness, workloads

    wl = workloads.WORKLOADS[workload]
    size = workloads.FULL
    with tempfile.TemporaryDirectory() as work:
        wl.generate(size, seed % harness.INPUT_SETS, Path(work))
        state = wl.load(size, Path(work))
    return wl, size, state


def hooked(windows: PeakWindows, unit) -> PeakWindows:
    sys.setprofile(windows)
    try:
        unit()
    finally:
        sys.setprofile(None)
        windows.fold()
    return windows


def run(workload: str, seed: int, live: int) -> PeakWindows:
    import blocksc

    wl, size, state = load(workload, seed)
    windows = PeakWindows(str(Path(blocksc.__file__).parent), live)
    tracemalloc.start()
    try:
        return hooked(windows, lambda: wl.unit(size, state))
    finally:
        tracemalloc.stop()


def run_faults(workload: str, seed: int, units: int):
    """(faults of each unit after one warm-up unit, FaultWindows of one
    more unit)."""
    import blocksc

    wl, size, state = load(workload, seed)
    wl.unit(size, state)  # warm-up: first-use set-up and caches
    counts = []
    for _ in range(units):
        before = minor_faults()
        wl.unit(size, state)
        counts.append(minor_faults() - before)
    windows = FaultWindows(str(Path(blocksc.__file__).parent))
    return counts, hooked(windows, lambda: wl.unit(size, state))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=("denoise", "train_deq", "train_du",
                                         "ksvd"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--faults", action="store_true",
                    help="count minor page faults instead of the peak")
    ap.add_argument("--units", type=int, default=5,
                    help="units counted after the warm-up (--faults)")
    ap.add_argument("--live", type=int, default=0, metavar="N",
                    help="list the N largest allocation sites alive at the "
                         "unit's peak")
    args = ap.parse_args(argv)
    if args.live < 0 or (args.live and args.faults):
        ap.error("--live takes N >= 0, and not with --faults")
    if args.faults:
        counts, windows = run_faults(args.workload, args.seed, args.units)
    else:
        windows = run(args.workload, args.seed, args.live)
    rows = sorted(windows.total.items(), key=lambda kv: -kv[1])
    width = max(len(name(code)) for code, _ in rows)
    if args.faults:
        print(f"{'function':<{width}}  {'calls':>6}  {'faults':>8}  "
              f"{'own':>8}")
        for code, faults in rows:
            print(f"{name(code):<{width}}  {windows.calls[code]:>6}  "
                  f"{faults:>8}  {windows.own.get(code, 0):>8}")
        print(f"{args.workload} seed {args.seed}: minor faults per unit "
              f"after one warm-up unit: {' '.join(map(str, counts))}")
        return 0
    print(f"{'function':<{width}}  {'calls':>6}  {'peak MB':>8}")
    for code, peak in rows:
        print(f"{name(code):<{width}}  {windows.calls[code]:>6}  "
              f"{peak / MB:>8.3f}")
    peak, where = windows.top
    if args.live:
        at, sites = windows.sites
        print(f"alive at the event closing the last new high "
              f"({at / MB:.3f} MB traced):")
        for site, size in sites:
            print(f"  {size / 2 ** 10:>9.1f} KB  {site}")
    print(f"{args.workload} seed {args.seed}: unit peak {peak / MB:.3f} MB "
          f"in {name(where) if where else 'no blocksc call'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
