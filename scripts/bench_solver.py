#!/usr/bin/env python3
"""Time the moment-system solve: the Newton-basis `solve_equispaced` that
`weight_distribution` calls, against the Lagrange `solve_lagrange` it
replaced.

    PYTHONPATH=src python3 scripts/bench_solver.py --out BENCH_solver.json

Run from the repository root.  Two measurements go to one JSON file:

* the solve alone, best of --repeats, on the f1 systems with q = 1024, e = 1
  and t = (size - 1) / 2 for each --sizes, after checking that both solves
  return the same vector;
* `niho analyze` in process: the analyze-large ops of
  `perfbench/workloads.py` (seed 1, the first --rounds rounds) run
  through `cli.main` with stdout, stderr and the log captured by the
  harness of `transcripts.py`, --runs times with each solve in
  `weight_distribution`, alternating which solve goes first.  Every op must
  exit 0 and print the same stdout and stderr under both solves; the script
  exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import transcripts  # noqa: E402
import workloads  # noqa: E402
from nihocodes import cli, solver  # noqa: E402
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec  # noqa: E402

SOLVES = {"lagrange": solver.solve_lagrange, "equispaced": solver.solve_equispaced}
SEED = 1


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def time_solves(sizes, repeats: int) -> list[dict]:
    q, e = 1024, 1
    rows = []
    for size in sizes:
        t = (size - 1) // 2
        nodes = solver.moment_nodes(size, q, e)
        b = solver.b_vector(q, e, size)
        if solver.solve_lagrange(nodes, b) != solver.solve_equispaced(nodes, b):
            raise SystemExit(f"the solves differ at size {size}")
        row = {"size": size, "family": "f1", "q": q, "e": e, "t": t}
        for name, solve in SOLVES.items():
            row[f"{name}_s"] = best_of(repeats, lambda: solve(nodes, b))
        rows.append(row)
    return rows


def run_ops(argvs, log: logging.StreamHandler) -> tuple[float, list]:
    """Seconds for all ops, and each op's (exit code, stdout, stderr)."""
    outputs = []
    gc.collect()
    started = time.perf_counter()
    for argv in argvs:
        outputs.append(transcripts.call(list(argv), log))
    return time.perf_counter() - started, outputs


def time_analyze(rounds: int, runs: int) -> dict:
    admit = workloads.Admitter(CodeSpec, validate_spec, SpecValidationError)
    ops = [op for r in workloads.generate("analyze-large", SEED, admit)[:rounds] for op in r]
    argvs = [op.argv for op in ops]
    rates = {name: [] for name in SOLVES}
    reference = None
    with transcripts.capture_log() as log:
        run_ops(argvs[:10], log)  # warm the caches of both paths alike (n_r tables, parser)
        for run in range(runs):
            order = list(SOLVES) if run % 2 == 0 else list(reversed(SOLVES))
            for name in order:
                solver.solve_equispaced = SOLVES[name]
                try:
                    elapsed, outputs = run_ops(argvs, log)
                finally:
                    solver.solve_equispaced = SOLVES["equispaced"]
                if any(rc != 0 for rc, _, _ in outputs):
                    raise SystemExit(f"an analyze op failed under {name}")
                if reference is None:
                    reference = outputs
                elif outputs != reference:
                    raise SystemExit(f"output under {name} differs from the first run")
                rates[name].append(len(argvs) / elapsed)
    return {"workload": "analyze-large", "seed": SEED, "rounds": rounds, "ops": len(argvs),
            "runs": runs, "identical_stdout": True,
            **{f"{name}_ops_per_s": values for name, values in rates.items()},
            **{f"{name}_ops_per_s_median": statistics.median(values)
               for name, values in rates.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=Path("BENCH_solver.json"))
    parser.add_argument("--sizes", type=int, nargs="+", default=[37, 81, 121],
                        help="odd system sizes for the solve-alone timing")
    parser.add_argument("--repeats", type=int, default=5, help="best of this many solves")
    parser.add_argument("--rounds", type=int, default=20,
                        help="analyze-large rounds, 45 ops each")
    parser.add_argument("--runs", type=int, default=5, help="timed loops per solve")
    args = parser.parse_args()
    if any(size < 1 or size % 2 == 0 for size in args.sizes):
        parser.error("--sizes must be odd and positive (f1 systems have size 2t + 1)")
    if min(args.repeats, args.rounds, args.runs) < 1:
        parser.error("--repeats, --rounds and --runs must be positive")
    result = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "solve_alone_best_s": time_solves(args.sizes, args.repeats),
        "analyze_in_process": time_analyze(args.rounds, args.runs),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for row in result["solve_alone_best_s"]:
        print(f"size {row['size']:4d}: lagrange {row['lagrange_s'] * 1e3:9.3f} ms, "
              f"equispaced {row['equispaced_s'] * 1e3:9.3f} ms")
    loop = result["analyze_in_process"]
    print(f"analyze-large, {loop['ops']} ops x {loop['runs']} runs: "
          f"lagrange {loop['lagrange_ops_per_s_median']:.0f} ops/s, "
          f"equispaced {loop['equispaced_ops_per_s_median']:.0f} ops/s (medians)")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
