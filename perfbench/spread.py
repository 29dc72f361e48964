"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads train_desk,restyle]

Runs the benchmark command from BENCHMARK.json once per (workload, seed),
one run at a time, untraced and for its `run_seconds`, and prints each run's
table, then for every metric and per-stage number the median over the seeds
and the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", help="comma-separated; default all")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for name in names:
        values: dict[str, list] = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
            cmd += ["--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            if proc.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}, {result}", file=sys.stderr)
            print("\n".join(lines[:-2]), flush=True)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            for stage, m in record["stages"].items():
                values.setdefault(stage, []).append(m["value"])
                values.setdefault(stage + " (calibrated)", []).append(m["calibrated"])
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            print(f"  {name:13s} {metric:40s} median {med:12.6g}  spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
