#!/usr/bin/env python3
"""Time the brute-force oracles in process: `niho sweep --verify-small` op by
op, and `niho verify` by stratum and stage.

    PYTHONPATH=src python3 scripts/bench_verify.py --out BENCH_verify.json --label change

Run from the repository root.  Two parts run their seed-1 ops of
`perfbench/workloads.py` through the harness of `transcripts.py`, --runs
times after one untimed warm-up run:

  * catalog: the catalog-sweep ops of the first --sweep-rounds rounds (a
    claim runs all 128, 1408 ops), each into a fresh catalog: ops per
    second, the time of each `brute_distribution` call, and from the warm-up
    the records written and the calls of `weight_distribution` and
    `brute_distribution`.
  * verify: the verify-oracle ops of the first --rounds rounds, each op's
    time split into the stages `build_field`, `brute_distribution`,
    `n_r_brute` and `_check_weights`, summed per stratum: a showcase, or
    (family, q, t) for the drawn specs.

The catalog part runs first, as the benchmark runs it, in a process that has
made no large sweep: after the verify part's large arrays the allocator
serves the tiny sweeps differently, and their per-call time moved by
10-15 % with the order of the parts.  Every time is the CPU time of the
calling thread (`time.thread_time`): the work is single-threaded, and on a
shared machine the wall clock also counts the slices other processes take.

Every sweep must exit 0.  The verify ops' exit codes (showcase 1's N_4
refusal exits 3), stdout and stderr are hashed, and so are the catalogs'
raw lines with only the value of `elapsed_s` masked, so that a change of
spacing or key order shows.  Every run must give the warm-up's digests.
The script exits 1 otherwise.

The results go under --label in the JSON file.  A rerun with a label that
is already there adds its timings to that label's lists after checking that
its digests and counts match, so runs on two trees can alternate: point
PYTHONPATH at each tree's `src` in turn.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import transcripts  # noqa: E402
import workloads  # noqa: E402
from nihocodes import cli  # noqa: E402
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec  # noqa: E402

SEED = 1
STAGES = {"field_s": "build_field", "brute_s": "brute_distribution",
          "n_r_brute_s": "n_r_brute", "weights_s": "_check_weights"}
CATALOG_STAGES = {"solve_s": "weight_distribution", "brute_s": "brute_distribution"}


def stratum(op) -> str:
    if op.spec == workloads.SHOWCASE_1:
        return "showcase 1"
    if op.spec == workloads.SHOWCASE_2:
        return "showcase 2"
    family, p, m, _, _, t = op.spec
    return f"{family} q={p**m} t={t}"


class Stopwatch:
    """Replaces the cli's stage functions by timed wrappers while in use;
    calls[stage] lists the time of each call."""

    def __init__(self, stages: dict[str, str]):
        self.stages = stages
        self.calls: dict[str, list[float]] = defaultdict(list)

    def __enter__(self):
        self.originals = {name: getattr(cli, name) for name in self.stages.values()}
        for stage, name in self.stages.items():
            setattr(cli, name, self._timed(stage, self.originals[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self.originals.items():
            setattr(cli, name, fn)

    def _timed(self, stage, fn):
        def timed(*args, **kwargs):
            started = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[stage].append(time.thread_time() - started)
        return timed


def run_verify(ops, log) -> tuple[str, float, dict]:
    """One pass over the verify ops: digest, total seconds, and per stratum
    its op count and the seconds of each stage and of whole ops."""
    digest, total = hashlib.sha256(), 0.0
    strata: dict[str, dict] = {}
    gc.collect()
    for op in ops:
        entry = strata.setdefault(stratum(op), {"ops": 0, "op_s": 0.0,
                                                **{stage: 0.0 for stage in STAGES}})
        with Stopwatch(STAGES) as watch:
            started = time.thread_time()
            rc, out, err = transcripts.call(list(op.argv), log)
            spent = time.thread_time() - started
        total += spent
        entry["ops"] += 1
        entry["op_s"] += spent
        for stage in STAGES:
            entry[stage] += sum(watch.calls[stage])
        digest.update(json.dumps([op.argv, rc, out, err]).encode() + b"\n")
    return digest.hexdigest(), total, strata


def run_catalog(ops, catalog: Path, log) -> tuple[str, float, int, dict[str, list[float]]]:
    """One pass over the sweep ops: digest, total seconds, records written and
    the time of each call per stage of CATALOG_STAGES."""
    digest, total, records = hashlib.sha256(), 0.0, 0
    gc.collect()
    with Stopwatch(CATALOG_STAGES) as watch:
        for op in ops:
            catalog.unlink(missing_ok=True)
            argv = [*op.argv, "--out", str(catalog)]
            started = time.thread_time()
            rc, out, err = transcripts.call(argv, log)
            total += time.thread_time() - started
            if rc != 0:
                raise SystemExit(f"exit {rc} from {' '.join(argv)}:\n{out}{err}")
            lines = transcripts.mask_elapsed(catalog)
            records += lines.count(b"\n")
            # with the exit code, so that the digest equals the `catalog_sha256`
            # of BENCH_13, 21, 23 and 24 at the same rounds
            digest.update(f"{rc}\n".encode() + lines)
    return digest.hexdigest(), total, records, watch.calls


def time_oracles(rounds: int, sweep_rounds: int, runs: int) -> dict:
    admit = workloads.Admitter(CodeSpec, validate_spec, SpecValidationError)
    verify_ops = [op for r in workloads.generate("verify-oracle", SEED, admit)[:rounds]
                  for op in r]
    sweep_ops = [op for r in workloads.generate("catalog-sweep", SEED, admit)[:sweep_rounds]
                 for op in r]
    with transcripts.capture_log() as log, tempfile.TemporaryDirectory() as tmp:
        catalog = Path(tmp) / "catalog.jsonl"
        catalog_sha, _, records, calls = run_catalog(sweep_ops, catalog, log)  # warms caches
        entry = {"catalog_sha256": catalog_sha, "catalog_ops": len(sweep_ops),
                 "records": records, "solve_calls": len(calls["solve_s"]),
                 "brute_calls": len(calls["brute_s"]), "catalog_ops_per_s": [],
                 "brute_call_mean_s": [], "brute_call_median_s": []}
        for _ in range(runs):
            swept, total, _, calls = run_catalog(sweep_ops, catalog, log)
            if swept != catalog_sha:
                raise SystemExit("a run's catalogs differ from the warm-up run's")
            entry["catalog_ops_per_s"].append(len(sweep_ops) / total)
            entry["brute_call_mean_s"].append(statistics.fmean(calls["brute_s"]))
            entry["brute_call_median_s"].append(statistics.median(calls["brute_s"]))
        verify_sha, _, shape = run_verify(verify_ops, log)
        entry.update({"verify_sha256": verify_sha, "verify_ops": len(verify_ops),
                      "verify_ops_per_s": [],
                      "strata": {name: {"ops": s["ops"], "op_s": [],
                                        **{stage: [] for stage in STAGES}}
                                 for name, s in shape.items()}})
        for _ in range(runs):
            sha, total, strata = run_verify(verify_ops, log)
            if sha != verify_sha:
                raise SystemExit("a run's verify outputs differ from the warm-up run's")
            entry["verify_ops_per_s"].append(len(verify_ops) / total)
            for name, s in strata.items():
                for key in ("op_s", *STAGES):
                    entry["strata"][name][key].append(s[key] / s["ops"])
    return entry


SAME = ("verify_sha256", "catalog_sha256", "verify_ops", "catalog_ops", "records",
        "solve_calls", "brute_calls")


def merge(previous: dict, entry: dict) -> dict:
    """entry's timing lists appended to previous's, whose digests must match."""
    if any(previous.get(k) != entry[k] for k in SAME):
        raise SystemExit("outputs or counts differ from the runs already under this label")
    for key in ("verify_ops_per_s", "catalog_ops_per_s", "brute_call_mean_s",
                "brute_call_median_s"):
        entry[key] = previous[key] + entry[key]
    for name, s in entry["strata"].items():
        for key in ("op_s", *STAGES):
            s[key] = previous["strata"][name][key] + s[key]
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=Path("BENCH_verify.json"))
    parser.add_argument("--label", default="change", help="entry of the JSON file to fill")
    parser.add_argument("--rounds", type=int, default=16,
                        help="verify-oracle rounds, 17 ops each")
    parser.add_argument("--sweep-rounds", type=int, default=8,
                        help="catalog-sweep rounds, 11 ops each")
    parser.add_argument("--runs", type=int, default=3, help="timed passes")
    args = parser.parse_args()
    most = {name: workloads.WORKLOADS[name].rounds for name in ("verify-oracle", "catalog-sweep")}
    if (min(args.rounds, args.sweep_rounds, args.runs) < 1 or args.rounds > most["verify-oracle"]
            or args.sweep_rounds > most["catalog-sweep"]):
        parser.error(f"--runs must be positive, --rounds in 1..{most['verify-oracle']} and "
                     f"--sweep-rounds in 1..{most['catalog-sweep']}")
    for name in ("NIHO_BUDGET", "NIHO_TABLE_LIMIT"):  # as the benchmark clears them
        os.environ.pop(name, None)
    setup = {"seed": SEED, "rounds": args.rounds, "sweep_rounds": args.sweep_rounds}
    result = {"machine": {"python": platform.python_version(),
                          "platform": platform.platform(), "cpus": os.cpu_count()},
              **setup, "trees": {}}
    if args.out.exists():
        result = json.loads(args.out.read_text(encoding="utf-8"))
        if any(result[k] != v for k, v in setup.items()):
            raise SystemExit(f"{args.out} holds another seed or round count")
    entry = time_oracles(args.rounds, args.sweep_rounds, args.runs)
    previous = result["trees"].get(args.label)
    if previous is not None:
        entry = merge(previous, entry)
    result["trees"][args.label] = entry
    result["identical_outputs"] = len({(t["verify_sha256"], t["catalog_sha256"])
                                       for t in result["trees"].values()}) == 1
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for label, tree in result["trees"].items():
        med = statistics.median
        print(f"{label}: verify {med(tree['verify_ops_per_s']):.1f} ops/s, catalog "
              f"{med(tree['catalog_ops_per_s']):.1f} ops/s, {len(tree['verify_ops_per_s'])} runs")
        print(f"  catalog: {tree['records']} records from {tree['catalog_ops']} ops, "
              f"{tree['solve_calls']} solves, {tree['brute_calls']} brute calls of "
              f"{med(tree['brute_call_mean_s']) * 1e6:.0f} us mean "
              f"({med(tree['brute_call_median_s']) * 1e6:.0f} us median)")
        for name, s in sorted(tree["strata"].items()):
            stages = ", ".join(f"{stage} {med(s[stage]) * 1e3:.2f}" for stage in STAGES)
            print(f"  {name:14s} x{s['ops']:<3d} op {med(s['op_s']) * 1e3:.2f} ms: {stages}")
    print(f"outputs identical across {len(result['trees'])} trees: "
          f"{result['identical_outputs']}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
