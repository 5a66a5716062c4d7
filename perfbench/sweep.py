"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, each in its own process, for
``run_seconds`` from BENCHMARK.json.  For every metric it reports the
median and the quartiles of the per-run values
(``statistics.quantiles(n=4)``), and the distance between the quartiles as
a share of the median, next to the metric's bound.  ``--out`` stores the
summary, with every run's values and the machine, under "trace0" or
"trace1" of that file, keeping what the file already holds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def run_once(name, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = json.loads(lines[-2][len("record "):])
    return json.loads(lines[-1]), record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(med) if med else 0.0}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    for name in args.workload:
        per_metric, named, machine = {}, {}, None
        for seed in seeds:
            result, record = run_once(name, seed, spec["run_seconds"],
                                      args.trace)
            machine = record["machine"]
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
            for metric, m in record["named"].items():
                named.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v["value"], 4)
                               for k, v in result["metrics"].items()
                               if k in bounds or args.trace}, flush=True)
        entry = {"metrics": {}, "named": {}}
        for metric, values in per_metric.items():
            s = spread(values) if len(values) > 1 else {"median": values[0]}
            s.update(bound=bounds.get(metric), values=values)
            entry["metrics"][metric] = s
            if s.get("bound") is not None:
                print(f"  {name:9} {metric:14} median {s['median']:.6g} "
                      f"iqr/median {s['iqr_share']:.4f} bound {s['bound']}")
        for metric, values in named.items():
            entry["named"][metric] = statistics.median(values)
        summary["workloads"][name] = entry
        summary["machine"] = machine

    if args.out:
        stored = (json.loads(args.out.read_text(encoding="utf-8"))
                  if args.out.is_file() else {})
        stored[f"trace{args.trace}"] = summary
        args.out.write_text(json.dumps(stored, indent=1) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
