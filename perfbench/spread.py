#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10                      # every workload
    python3 perfbench/spread.py --workload verify-oracle --seeds 1-5 --out .bench_out/v.json

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential.  With
--out it also writes every run's result and environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int, seconds: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
    return {"seed": seed, "result": result, "env": env}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": metric.get("bound"), "values": values,
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {}
    for workload in args.workload or names:
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(spec, workload, seed, args.trace, args.seconds))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        summary = summarise(runs, metrics)
        report[workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = "" if s["bound"] is None else f"  bound {s['bound']}"
            print(f"  {name:45s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}{bound}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
