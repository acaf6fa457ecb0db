"""Run the benchmark over seeds 1-10 and summarise each metric.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each run is a separate ``run.py`` process, one at a time, over every
workload of BENCHMARK.json.  For every end-to-end metric and workload it
prints the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) and the spread, the quartile distance as a share of the median,
beside a third of the metric's bound from BENCHMARK.json.  One traced run
per workload at seed 1 adds the per-layer metrics as they are.  ``--out``
writes everything, with the Python version and CPU count, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed the check\n{proc.stdout}")
    report = next(line for line in lines if line.startswith("report "))
    result["report"] = json.loads(report[len("report "):])
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "machine": platform.machine(), "run_seconds": spec["run_seconds"],
           "seeds": SEEDS, "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in SEEDS]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            worst = max(worst, spread / bound)
            unit = summary[name]["unit"]
            print(f"{workload:12s} {name:14s} {unit:7s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:.4f}  bound/3 {bound / 3:.4f}{flag}",
                  flush=True)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": summary,
                 "report_seed": SEEDS[0], "report": runs[0]["report"]}
        traced = run_once(workload, TRACE_SEED, spec["run_seconds"], 1)
        entry["per_layer_seed"] = TRACE_SEED
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_report"] = traced["report"]
        doc["workloads"][workload] = entry
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
