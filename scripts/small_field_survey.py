#!/usr/bin/env python3
"""Catalog every admissible code over small fields, oracle-verifying the
ones that fit the budget, and print a summary of weight-class counts.

Produces a JSONL catalog via the sweep machinery; re-runs are incremental.
"""

import argparse
import collections
import json

from nihocodes.cli import main as cli_main

FIELDS = [("f1", 2, 2), ("f2", 2, 2), ("f1", 2, 3), ("f2", 2, 3), ("f2", 3, 2)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="small_field_catalog.jsonl",
                        help="JSONL catalog, appended to; a rerun skips every spec "
                             "already in it, so delete it to re-check after an upgrade")
    parser.add_argument("--verify-small", type=int, default=10**8,
                        help="oracle-verify specs whose sweep cost fits this")
    args = parser.parse_args()

    for family, p, m in FIELDS:
        q = p**m
        rc = cli_main([
            "sweep", "--family", family, "--p", str(p), "--m", str(m),
            "--h-range", f"1:{q}", "--delta-range", f"1:{q - 1}",
            "--t-range", f"0:{(q + 1) // 2}",
            "--out", args.out, "--verify-small", str(args.verify_small),
        ])
        if rc != 0:
            raise SystemExit(f"sweep failed for {family} p={p} m={m} (exit {rc})")

    by_status = collections.Counter()
    by_weight_count = collections.Counter()
    with open(args.out, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            by_status[record["status"]] += 1
            nonzero = sum(1 for w in record["report"]["weights"]
                          if int(w["frequency"]) > 0)
            by_weight_count[nonzero] += 1
    print("status counts:", dict(by_status))
    print("codes by number of distinct nonzero weights:",
          dict(sorted(by_weight_count.items())))
    if by_status.get("mismatch"):
        raise SystemExit("oracle mismatches present in catalog")


if __name__ == "__main__":
    main()
