"""blocksc benchmark.

    python3 perfbench/run.py --workload denoise --seed 0 --seconds 20 --trace 0

Runs one workload (``denoise``, ``train_deq``, ``train_du``, ``ksvd``) from
the root of a source checkout, importing the program from ``src/``.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it, prefixed ``record``, holds the machine, the seed, the set-up
split and the metrics under the names of each workload (``cube_s_p50``,
``epoch_s_p50``, ...).  ``--workload all`` runs every workload in its own
process and prints their metrics side by side.

BLAS runs on one thread, pinned before numpy is imported: on two cores,
two BLAS threads made ``denoise`` 2.5x slower and three times as noisy.

Exit status: 0 when every output check holds, 1 when one fails (the
result is still printed), 2 when the program cannot be imported or
set-up fails (no result is printed).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("denoise", "train_deq", "train_du", "ksvd")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run_one(args) -> int:
    pin_blas_threads()
    try:
        import blocksc
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    if ROOT / "src" not in Path(blocksc.__file__).resolve().parents:
        print(f"perfbench: blocksc imported from {blocksc.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "perfbench" / "reference.json",
                  encoding="utf-8") as fh:
            reference = json.load(fh)
        result, record = harness.run_workload(
            args.workload, args.seed, args.seconds, args.trace,
            reference=reference, import_s=import_s)
    except Exception:  # set-up failed: report it, print no result
        traceback.print_exc()
        return 2
    print("\n".join(harness.report_lines(result, record)))
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; a combined table and result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
