#!/usr/bin/env python3
"""Time the three stages of `weight_distribution`: the right-hand side
`b_vector` (N_r by the factorial-moment triangle), the closed-form solution
`closed_form_frequencies` and the residual certificate `check_residual`.

    PYTHONPATH=src python3 scripts/bench_solver.py --out BENCH_solver.json

Run from the repository root.  The systems are f1 with q = 1024, e = 1 and
t = (size - 1) / 2 for each --sizes.  Each stage is timed alone, best of
--repeats; `b_vector` is timed cold, with the N_r table of (q, e) cleared
before each run, as a fresh process meets it.  The whole
`weight_distribution`, also cold, is timed the same way, and its frequencies
must equal the closed form's; the script exits 1 otherwise.  Byte identity
of the CLI's output is pinned by `scripts/transcripts.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from nihocodes import moments, solver
from nihocodes.codespec import CodeSpec, validate_spec

Q, E = 1024, 1


def best_of(repeats: int, fn, before=lambda: None) -> float:
    best = float("inf")
    for _ in range(repeats):
        before()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def time_stages(size: int, repeats: int) -> dict:
    t = (size - 1) // 2
    vspec = validate_spec(CodeSpec("f1", 2, 10, 1, 1, t))
    nodes = solver.moment_nodes(size, Q, E)
    b = solver.b_vector(Q, E, size)
    mu = solver.closed_form_frequencies(Q, E, size)
    if solver.weight_distribution(vspec).freq_by_j != tuple(mu):
        raise SystemExit(f"weight_distribution differs from the closed form at size {size}")
    cold = moments._N_TABLES.clear
    return {
        "size": size, "family": "f1", "q": Q, "e": E, "t": t,
        "b_vector_s": best_of(repeats, lambda: solver.b_vector(Q, E, size), cold),
        "closed_form_s": best_of(repeats, lambda: solver.closed_form_frequencies(Q, E, size)),
        "certificate_s": best_of(repeats, lambda: solver.check_residual(nodes, b, mu)),
        "weight_distribution_s": best_of(repeats, lambda: solver.weight_distribution(vspec),
                                         cold),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=Path("BENCH_solver.json"))
    parser.add_argument("--sizes", type=int, nargs="+", default=[37, 121, 401],
                        help="odd system sizes, at most 1025")
    parser.add_argument("--repeats", type=int, default=5, help="best of this many runs")
    args = parser.parse_args()
    if any(size < 1 or size % 2 == 0 or size > Q + 1 for size in args.sizes):
        parser.error(f"--sizes must be odd and in 1..{Q + 1} (f1 systems have size 2t + 1)")
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    result = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "repeats": args.repeats,
        "stages_best_s": [time_stages(size, args.repeats) for size in args.sizes],
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for row in result["stages_best_s"]:
        print(f"size {row['size']:4d}: b_vector {row['b_vector_s'] * 1e3:9.3f} ms, "
              f"closed form {row['closed_form_s'] * 1e3:9.3f} ms, "
              f"certificate {row['certificate_s'] * 1e3:9.3f} ms, "
              f"weight_distribution {row['weight_distribution_s'] * 1e3:9.3f} ms")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
