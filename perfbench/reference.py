"""Record each workload's pinned numeric for a range of input sets.

    python3 perfbench/reference.py --seeds 0-31

Writes ``perfbench/reference.json``: workload -> input set -> the value of
``psnr_db`` (denoise), ``train_loss`` (train_deq, train_du) or
``coding_error`` (ksvd) that the warm-up unit of a run on that input set
must reproduce.  A run with seed s uses input set s % harness.INPUT_SETS,
so every set below INPUT_SETS must be recorded.  Record only at a commit
whose outputs are trusted; values already recorded for other sets are
kept.
"""

import argparse
import json
import shutil

from run import ROOT, WORKLOADS, pin_blas_threads


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    pin_blas_threads()
    from perfbench import harness
    from perfbench.workloads import FULL, WORKLOADS as ALL

    path = ROOT / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    for name in args.workload:
        wl = ALL[name]
        for seed in seeds:
            work = ROOT / ".perfbench_work" / f"reference-{name}-{seed}"
            work.mkdir(parents=True)
            try:
                state, _, _, out, _ = harness.prepare(wl, FULL, seed, work)
            finally:
                shutil.rmtree(work)
            value = wl.outcome(FULL, state, out).quality
            problems = wl.check(FULL, state, out)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            reference.setdefault(name, {})[str(seed)] = value
            print(name, seed, value, flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    main()
