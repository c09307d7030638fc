#!/usr/bin/env python3
"""The repository benchmark: one seeded workload, one process, one result.

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 30 --trace 0

Run from the repository root.  One closed-loop client calls the in-process
CLI, ``nihocodes.cli.main(argv)``, one call at a time with stdout and stderr
captured, and runs whole rounds of the workload until ``--seconds`` have
passed.  Outputs are checked afterwards by ``check.py``, outside the timed
region.  With ``--trace 0`` the end-to-end metrics are reported, each call's
time scaled by the speed probe of ``probe.py``; with ``--trace 1`` every call
runs once untraced and once under ``spans.Tracer``, and the per-layer
metrics are reported.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  The metric names and units are those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import check
import probe
import workloads
from spans import SELF_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7           # set-up is measured this many times; the median is reported
MIN_TAIL_SAMPLES = 10       # samples required beyond the reported tail percentile
CLEARED_ENV = ("NIHO_BUDGET", "NIHO_TABLE_LIMIT")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_environment() -> None:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)


def setup(workload: str, seed: int):
    """Import the package and generate and admit the inputs.  Returns the
    elapsed seconds, the probe's speed right after, the rounds, the cli
    module and the probe."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import nihocodes.cli as cli
    from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported nihocodes from {cli.__file__}, not from {SRC}")
    admit = workloads.Admitter(CodeSpec, validate_spec, SpecValidationError)
    rounds = workloads.generate(workload, seed, admit)
    elapsed = time.perf_counter() - started
    speed_probe = probe.Probe()
    return elapsed, statistics.median(speed_probe.speed() for _ in range(3)), rounds, cli, speed_probe


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time and speed measured in a fresh interpreter, so the import
    is cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    elapsed, speed = proc.stdout.split()
    return float(elapsed), float(speed)


@dataclass
class Result:
    op: workloads.Op
    argv: list
    rc: object
    out: str
    err: str
    latency: float
    catalog: str | None


class Client:
    """Closed-loop client of the in-process CLI.

    The root logger gets one handler before the first call, so the CLI's
    ``logging.basicConfig`` is a no-op and every call's log lines land in
    that call's captured stderr."""

    def __init__(self, cli, scratch: Path):
        self.cli = cli
        self.scratch = scratch
        self.seq = 0
        self.log_handler = logging.StreamHandler(io.StringIO())
        self.log_handler.setFormatter(logging.Formatter("%(message)s"))
        root = logging.getLogger()
        root.addHandler(self.log_handler)
        root.setLevel(logging.INFO)

    def argv_for(self, op: workloads.Op) -> tuple[list, str | None]:
        if op.kind != "sweep":
            return list(op.argv), None
        self.seq += 1
        path = str(self.scratch / f"catalog-{self.seq}.jsonl")
        return [*op.argv, "--out", path], path

    def call(self, argv: list) -> tuple[object, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        self.log_handler.setStream(err)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            except Exception:  # an op that raises is a failed op, not a crash
                rc = "raised"
                traceback.print_exc(file=err)
            latency = time.perf_counter() - started
        return rc, out.getvalue(), err.getvalue(), latency

    def run(self, op: workloads.Op) -> Result:
        argv, catalog = self.argv_for(op)
        rc, out, err, latency = self.call(argv)
        return Result(op, argv, rc, out, err, latency, catalog)


def run_window(client: Client, rounds, seconds: float, speed_probe: probe.Probe):
    """Whole rounds until at least `seconds` have passed.  The speed probe
    runs after every op, outside the op's timing.  Returns the results and
    the probe's speed after each."""
    gc.collect()
    results, speeds = [], []
    started = time.perf_counter()
    k = 0
    while True:
        for op in rounds[k % len(rounds)]:
            results.append(client.run(op))
            speeds.append(speed_probe.speed())
        k += 1
        if time.perf_counter() - started >= seconds:
            break
    return results, speeds


def run_traced(client: Client, rounds, seconds: float, tracer: Tracer):
    """Whole rounds until at least `seconds` have passed; every op runs once
    untraced and once traced, the order alternating from op to op.  Returns
    all results and the untraced and traced wall times."""
    gc.collect()
    results = []
    wall = {False: 0.0, True: 0.0}
    started = time.perf_counter()
    k = 0
    while True:
        for op in rounds[k % len(rounds)]:
            for traced in (False, True) if len(results) % 4 == 0 else (True, False):
                if traced:
                    tracer.op = len(results)
                    tracer.install()
                began = time.perf_counter()
                results.append(client.run(op))
                wall[traced] += time.perf_counter() - began
                if traced:
                    tracer.uninstall()
        k += 1
        if time.perf_counter() - started >= seconds:
            break
    return results, wall[False], wall[True]


def check_results(client: Client, results) -> list[tuple[int, list[str]]]:
    """Problems per failed op, by the independent checker.  Sweeps are run a
    second time into the same catalog, which must write nothing."""
    nr = check.NrTable()
    failures = []
    for i, res in enumerate(results):
        op = res.op
        if op.kind == "analyze":
            problems = check.check_analyze(op, res.rc, res.out, nr)
        elif op.kind == "verify":
            problems = check.check_verify(op, res.rc, res.out, res.err, nr)
        else:
            problems = check.check_sweep(op, res.rc, res.out, res.catalog, nr)
            if not problems:
                rc, out, _, _ = client.call(res.argv)
                problems = check.check_sweep_rerun(op, rc, out, res.catalog)
        if problems:
            failures.append((i, problems))
    return failures


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = fraction * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float], wanted: float) -> tuple[float, float]:
    """The workload's tail percentile, lowered in steps of 5 points while
    fewer than MIN_TAIL_SAMPLES samples lie beyond it."""
    n = len(latencies)
    fraction = wanted
    while fraction > 0.5 and n * (1 - fraction) < MIN_TAIL_SAMPLES:
        fraction = round(fraction - 0.05, 2)
    return percentile(sorted(latencies), fraction), fraction


def environment(args, rounds) -> dict:
    digest = hashlib.sha256()
    for rnd in rounds:
        for op in rnd:
            digest.update(json.dumps(op.argv).encode())
    source = hashlib.sha256()
    for path in sorted((SRC / "nihocodes").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": digest.hexdigest(),
        "source_sha256": source.hexdigest(), "git_commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": numpy.__version__, "pinned_env": PINNED_ENV,
        "cleared_env": list(CLEARED_ENV),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(client: Client, rounds, workload, seconds: float, speed_probe: probe.Probe,
            setup_samples) -> tuple[list[Result], dict]:
    """The untraced run and its end-to-end metrics."""
    results, speeds = run_window(client, rounds, seconds, speed_probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [r.latency for r in results]
    scaled = [t / f for t, f in zip(raw, probe.smooth(speeds))]
    tail_s, tail_fraction = tail(scaled, workload.tail_percentile)
    values = {
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_s": statistics.median(scaled),
        "latency_tail_s": tail_s,
        "setup_s": statistics.median(t / f for t, f in setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"window: {len(results)} ops in {len(results) // len(rounds[0])} rounds; "
          f"latency_tail_s is p{tail_fraction * 100:g} of n={len(results)}; "
          f"probe speed median {statistics.median(speeds):.4f} "
          f"(min {min(speeds):.4f}, max {max(speeds):.4f})")
    print(f"unscaled: ops_per_s {len(raw) / sum(raw)} latency_p50_s {statistics.median(raw)} "
          f"latency_tail_s {tail(raw, tail_fraction)[0]} "
          f"setup_s {statistics.median(t for t, _ in setup_samples)}")
    return results, values


def measure_traced(client: Client, rounds, seconds: float, spans_path: Path):
    """The traced run and its per-layer metrics; the spans go to spans_path."""
    tracer = Tracer()
    results, untraced_wall, traced_wall = run_traced(client, rounds, seconds, tracer)
    values = tracer.metrics(traced_wall, untraced_wall)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    self_total = sum(values[m] for m in SELF_METRICS.values())
    print(f"trace: {len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}; "
          f"layer self times {self_total:.6f} s + uncovered "
          f"{values['trace.uncovered_s']:.6f} s = traced wall {traced_wall:.6f} s; "
          f"overhead {values['trace.overhead_frac']:+.4f} over untraced {untraced_wall:.6f} s")
    return results, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nihocodes" / "cli.py").is_file():
        print(f"no nihocodes sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_only:
        elapsed, speed, *_ = setup(args.workload, args.seed)
        print(elapsed, speed)
        return 0

    elapsed, speed, rounds, cli, speed_probe = setup(args.workload, args.seed)
    print("env " + json.dumps(environment(args, rounds), sort_keys=True))
    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(cli, scratch)
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            results, values = measure_traced(client, rounds, args.seconds, spans_path)
        else:
            setup_samples = [(elapsed, speed)] + [setup_probe(args.workload, args.seed)
                                                  for _ in range(SETUP_SAMPLES - 1)]
            results, values = measure(client, rounds, workloads.WORKLOADS[args.workload],
                                      args.seconds, speed_probe, setup_samples)
        failures = check_results(client, results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no other run is using it

    for i, problems in failures[:5]:
        print(f"FAILED op {i} {' '.join(results[i].argv)}: rc={results[i].rc}; "
              + "; ".join(problems)[:2000], file=sys.stderr)
    units = declared_metrics(bool(args.trace))
    if set(units) != set(values):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    print(f"failed_frac = {len(failures) / len(results):.6f} ({len(failures)}/{len(results)})")
    for name in units:
        print(f"{name} = {values[name]} {units[name]}")
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
