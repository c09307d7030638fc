#!/usr/bin/env python3
"""Hash the CLI transcripts of the benchmark workloads, one sha256 each.

    PYTHONPATH=src python3 scripts/transcripts.py

Run from the repository root.  The seed-1 ops of the first rounds of the
three workloads of `perfbench/workloads.py` (4 of analyze-large, 4 of
verify-oracle, 2 of catalog-sweep) run in process through `cli.main`, each
sweep into a fresh catalog.  For each workload the digest covers every op's
argv, exit code, stdout and stderr (the log included) and the records of its
catalog without `elapsed_s`, with the catalog path masked.  Two trees give
the same digests exactly when their transcripts agree: run the script with
PYTHONPATH pointing at each tree's `src` and compare the lines.

The in-process harness here (`capture_log` and `call`) is also what
`bench_verify.py` times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from nihocodes import cli  # noqa: E402
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec  # noqa: E402

SEED = 1
ROUNDS = {"analyze-large": 4, "verify-oracle": 4, "catalog-sweep": 2}
MASK = "<catalog>"


@contextlib.contextmanager
def capture_log():
    """One root log handler for the calls made inside, added before the first
    of them so that the CLI's basicConfig is a no-op; `call` points it at
    each call's captured stderr.  The root logger is restored on exit."""
    root = logging.getLogger()
    level = root.level
    log = logging.StreamHandler(io.StringIO())
    log.setFormatter(logging.Formatter("%(message)s"))
    root.addHandler(log)
    root.setLevel(logging.INFO)
    try:
        yield log
    finally:
        root.removeHandler(log)
        root.setLevel(level)


def call(argv: list[str], log: logging.StreamHandler) -> tuple[int | str, str, str]:
    """One `cli.main` call: (exit code, stdout, stderr with the log).  A
    SystemExit or a crash is reported in the exit code, the crash's message
    in stderr."""
    out, err = io.StringIO(), io.StringIO()
    log.setStream(err)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is part of the transcript
            rc = "raised"
            err.write("".join(traceback.format_exception_only(exc)))
    return rc, out.getvalue(), err.getvalue()


def catalog_records(catalog: Path) -> list[dict]:
    """The records of a catalog, without `elapsed_s`."""
    records = []
    for line in catalog.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("elapsed_s", None)
        records.append(record)
    return records


def run_op(argv: list[str], catalog: Path | None, log: logging.StreamHandler) -> dict:
    """One op's transcript, the catalog path masked."""
    rc, out, err = call(argv, log)
    records = catalog_records(catalog) if catalog is not None and catalog.exists() else []

    def mask(text: str) -> str:
        return text.replace(str(catalog), MASK) if catalog is not None else text

    return {"argv": [mask(a) for a in argv], "rc": rc, "stdout": mask(out),
            "stderr": mask(err), "records": records}


def digest_workload(name: str, rounds: int, scratch: Path,
                    log: logging.StreamHandler) -> tuple[int, str]:
    """(ops run, sha256 of their transcripts) for the first rounds of name."""
    admit = workloads.Admitter(CodeSpec, validate_spec, SpecValidationError)
    ops = [op for r in workloads.generate(name, SEED, admit)[:rounds] for op in r]
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        argv, catalog = list(op.argv), None
        if op.kind == "sweep":
            catalog = scratch / f"{name}-{i}.jsonl"
            argv += ["--out", str(catalog)]
        transcript = run_op(argv, catalog, log)
        digest.update(json.dumps(transcript, sort_keys=True).encode() + b"\n")
    return len(ops), digest.hexdigest()


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    for name in ("NIHO_BUDGET", "NIHO_TABLE_LIMIT"):  # as the benchmark clears them
        os.environ.pop(name, None)
    with capture_log() as log, tempfile.TemporaryDirectory() as tmp:
        for name, rounds in ROUNDS.items():
            ops, sha = digest_workload(name, rounds, Path(tmp), log)
            print(f"{name} seed={SEED} rounds={rounds} ops={ops} sha256={sha}")


if __name__ == "__main__":
    main()
