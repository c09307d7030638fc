#!/usr/bin/env python3
"""Time the cold start of `niho analyze` in fresh processes.

    PYTHONPATH=src python3 scripts/bench_startup.py --out BENCH_startup.json --label change

Each of --runs rounds starts three fresh interpreters, in turn:

  * `python -c pass`, the bare interpreter's start and exit;
  * `python -m nihocodes.cli analyze --json` on f1 q=1024 t=18 (h = delta = 1),
    the whole command, timed from outside;
  * a probe that times `import nihocodes.cli` from inside, then runs the same
    analyze through `cli.main` and reports whether numpy was loaded.

One untimed round comes first, so every tree is timed with its bytecode
cached.  The analyze output must be the same in every round and the probe
must exit cleanly; the script exits 1 otherwise.  Only the standard library
is used, so the script runs against any tree.

The walls go under --label in the JSON file with their median and quartiles.
A rerun with a label that is already there adds its walls to that label's
lists after checking that its output and numpy state match, so runs on two
trees can alternate: point PYTHONPATH at each tree's `src` in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = ["--family", "f1", "--p", "2", "--m", "10", "--h", "1", "--delta", "1", "--t", "18"]
ANALYZE = ["analyze", "--json", *SPEC]
PROBE = """
import contextlib, io, sys, time
started = time.perf_counter()
import nihocodes.cli
imported = time.perf_counter() - started
with contextlib.redirect_stdout(io.StringIO()):
    code = nihocodes.cli.main(sys.argv[1:])
print(imported, code, "numpy" in sys.modules)
"""
WALLS = ("python_pass_s", "analyze_s", "import_s")


def run(argv: list[str]) -> tuple[float, str]:
    """Wall seconds of one fresh process, and its stdout; exits on failure."""
    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"exit {done.returncode} from {' '.join(argv)}:\n{done.stderr}")
    return wall, done.stdout


def one_round() -> dict:
    python = sys.executable
    pass_s, _ = run([python, "-c", "pass"])
    analyze_s, out = run([python, "-m", "nihocodes.cli", *ANALYZE])
    _, probe = run([python, "-c", PROBE, *ANALYZE])
    imported, code, numpy_loaded = probe.split()
    if code != "0":
        raise SystemExit(f"cli.main exited {code} in the probe")
    return {"python_pass_s": pass_s, "analyze_s": analyze_s, "import_s": float(imported),
            "analyze_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "numpy_loaded": numpy_loaded == "True"}


def time_startup(runs: int) -> dict:
    first = one_round()  # warm-up: bytecode cached, output recorded
    entry = {"analyze_sha256": first["analyze_sha256"],
             "numpy_loaded": first["numpy_loaded"], **{wall: [] for wall in WALLS}}
    for _ in range(runs):
        sample = one_round()
        if (sample["analyze_sha256"], sample["numpy_loaded"]) != (
                entry["analyze_sha256"], entry["numpy_loaded"]):
            raise SystemExit("a round's analyze output or numpy state differs from the first")
        for wall in WALLS:
            entry[wall].append(sample[wall])
    return entry


def summary(walls: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    return {"median": statistics.median(walls), "q1": q1, "q3": q3, "iqr": q3 - q1}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=Path("BENCH_startup.json"))
    parser.add_argument("--label", default="change", help="entry of the JSON file to fill")
    parser.add_argument("--runs", type=int, default=15, help="timed rounds")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be positive")
    result = {"machine": {"python": platform.python_version(),
                          "platform": platform.platform(), "cpus": os.cpu_count()},
              "command": ["niho", *ANALYZE], "trees": {}}
    if args.out.exists():
        result = json.loads(args.out.read_text(encoding="utf-8"))
        if result["command"] != ["niho", *ANALYZE]:
            raise SystemExit(f"{args.out} times another command")
    entry = time_startup(args.runs)
    previous = result["trees"].get(args.label)
    if previous is not None:
        if any(previous[k] != entry[k] for k in ("analyze_sha256", "numpy_loaded")):
            raise SystemExit(f"output or numpy state differs from the runs already under "
                             f"{args.label!r}")
        for wall in WALLS:
            entry[wall] = previous[wall] + entry[wall]
    entry["summary"] = {wall: summary(entry[wall]) for wall in WALLS}
    result["trees"][args.label] = entry
    result["identical_outputs"] = len({t["analyze_sha256"]
                                       for t in result["trees"].values()}) == 1
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for label, tree in result["trees"].items():
        walls = ", ".join(f"{wall} {tree['summary'][wall]['median'] * 1e3:.1f} ms "
                          f"[IQR {tree['summary'][wall]['iqr'] * 1e3:.1f}]" for wall in WALLS)
        print(f"{label}: {walls}, numpy loaded: {tree['numpy_loaded']}, "
              f"{len(tree['analyze_s'])} rounds")
    print(f"analyze output identical across {len(result['trees'])} trees: "
          f"{result['identical_outputs']}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
