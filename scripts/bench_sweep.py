#!/usr/bin/env python3
"""Time `niho sweep` in process on the catalog-sweep workload and count its
moment solves and oracle sweeps.

    PYTHONPATH=src python3 scripts/bench_sweep.py --out BENCH_sweep.json --label change

Run from the repository root.  The catalog-sweep ops of
`perfbench/workloads.py` (seed 1, the first --rounds rounds) run through
`cli.main` with stdout, stderr and the log captured by the harness of
`transcripts.py`, each into a fresh catalog, --runs times.  The default is
every generated round, 1408 ops, so that one timed run lasts some seconds.
Every op must exit 0, and every run must write the same catalogs, compared
as raw lines with only the value of `elapsed_s` masked, so that a change of
spacing or key order shows; the script exits 1 otherwise.
The first run also counts the records written and the calls of
`cli.weight_distribution` and `cli.brute_distribution`.

The results go under --label in the JSON file.  A rerun with a label that
is already there adds its rates to that label's list after checking that
its catalogs and counts match, so runs on two trees can alternate:
point PYTHONPATH at each tree's `src` in turn.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import transcripts  # noqa: E402
import workloads  # noqa: E402
from nihocodes import cli  # noqa: E402
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec  # noqa: E402

SEED = 1
ELAPSED = re.compile(rb'"elapsed_s": [^,}]*')


def run_ops(argvs, catalog: Path, log: logging.StreamHandler) -> tuple[float, str, int]:
    """Seconds for all ops, a sha256 over each op's exit code and raw catalog
    lines with the value of `elapsed_s` masked, and the number of records
    written."""
    digest, records = hashlib.sha256(), 0
    elapsed = 0.0
    gc.collect()
    for argv in argvs:
        catalog.unlink(missing_ok=True)
        started = time.perf_counter()
        rc, out, err = transcripts.call([*argv, "--out", str(catalog)], log)
        elapsed += time.perf_counter() - started
        if rc != 0:
            raise SystemExit(f"exit {rc} from {' '.join(argv)}:\n{out}{err}")
        lines = catalog.read_bytes().splitlines(keepends=True)
        records += len(lines)
        digest.update(f"{rc}\n".encode())
        for line in lines:
            digest.update(ELAPSED.sub(b'"elapsed_s": <masked>', line, count=1))
    return elapsed, digest.hexdigest(), records


def time_sweeps(rounds: int, runs: int) -> dict:
    admit = workloads.Admitter(CodeSpec, validate_spec, SpecValidationError)
    ops = [op for r in workloads.generate("catalog-sweep", SEED, admit)[:rounds] for op in r]
    argvs = [op.argv for op in ops]
    solves, sweeps = [], []
    solve, sweep = cli.weight_distribution, cli.brute_distribution
    cli.weight_distribution = lambda vspec: solves.append(vspec.key) or solve(vspec)
    cli.brute_distribution = lambda vspec, **kw: sweeps.append(vspec.key) or sweep(vspec, **kw)
    with transcripts.capture_log() as log, tempfile.TemporaryDirectory() as tmp:
        catalog = Path(tmp) / "catalog.jsonl"
        try:
            _, reference, records = run_ops(argvs, catalog, log)  # also warms the caches
        finally:
            cli.weight_distribution, cli.brute_distribution = solve, sweep
        rates = []
        for _ in range(runs):
            elapsed, digest, _ = run_ops(argvs, catalog, log)
            if digest != reference:
                raise SystemExit("a run's catalogs differ from the first run's")
            rates.append(len(argvs) / elapsed)
    return {"ops": len(argvs), "records": records, "weight_distribution_calls": len(solves),
            "reused_frac": 1 - len(solves) / records, "brute_distribution_calls": len(sweeps),
            "catalog_sha256": reference, "ops_per_s": rates}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=Path("BENCH_sweep.json"))
    parser.add_argument("--label", default="change", help="entry of the JSON file to fill")
    rounds = workloads.WORKLOADS["catalog-sweep"].rounds
    parser.add_argument("--rounds", type=int, default=rounds,
                        help=f"catalog-sweep rounds, 11 ops each (at most {rounds})")
    parser.add_argument("--runs", type=int, default=3, help="timed loops")
    args = parser.parse_args()
    if min(args.rounds, args.runs) < 1 or args.rounds > rounds:
        parser.error(f"--runs must be positive and --rounds in 1..{rounds}")
    result = {"machine": {"python": platform.python_version(),
                          "platform": platform.platform(), "cpus": os.cpu_count()},
              "workload": "catalog-sweep", "seed": SEED, "rounds": args.rounds, "trees": {}}
    if args.out.exists():
        result = json.loads(args.out.read_text(encoding="utf-8"))
        if (result["workload"], result["seed"], result["rounds"]) != (
                "catalog-sweep", SEED, args.rounds):
            raise SystemExit(f"{args.out} holds another workload, seed or round count")
    entry = time_sweeps(args.rounds, args.runs)
    previous = result["trees"].get(args.label)
    if previous is not None:
        same = ("ops", "records", "weight_distribution_calls", "brute_distribution_calls",
                "catalog_sha256")
        if any(previous[k] != entry[k] for k in same):
            raise SystemExit(f"catalogs or counts differ from the runs already under "
                             f"{args.label!r}")
        entry["ops_per_s"] = previous["ops_per_s"] + entry["ops_per_s"]
    entry["ops_per_s_median"] = statistics.median(entry["ops_per_s"])
    result["trees"][args.label] = entry
    result["identical_catalogs"] = len({t["catalog_sha256"] for t in result["trees"].values()}) == 1
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for label, tree in result["trees"].items():
        print(f"{label}: {tree['records']} records from {tree['ops']} ops, "
              f"{tree['weight_distribution_calls']} solves ({tree['reused_frac']:.0%} reused), "
              f"{tree['brute_distribution_calls']} oracle sweeps, "
              f"{tree['ops_per_s_median']:.1f} ops/s median of {len(tree['ops_per_s'])}")
    print(f"catalogs identical across {len(result['trees'])} trees: "
          f"{result['identical_catalogs']}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
