"""Tests of the benchmark's checker and tracer.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import SELF_METRICS, Tracer  # noqa: E402
from nihocodes import cli  # noqa: E402
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec  # noqa: E402
from nihocodes.moments import n_r  # noqa: E402

SHOWCASE_1 = workloads.SHOWCASE_1


def flags(spec):
    family, p, m, h, delta, t = spec
    return ["--family", family, "--p", str(p), "--m", str(m), "--h", str(h),
            "--delta", str(delta), "--t", str(t)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
def test_binomial_n_r_matches_partition_sum(q):
    for e in (d for d in range(1, q + 2) if (q + 1) % d == 0):
        assert check.binomial_n_r(q, e, 10) == [n_r(r, q, e) for r in range(11)]


def test_report_certified_and_corrupted_frequencies_rejected(capsys):
    assert cli.main(["analyze", *flags(SHOWCASE_1), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert check.certify_report(report, SHOWCASE_1, check.NrTable()) == []

    bad = copy.deepcopy(report)
    # move one codeword between two weights: the total p^dim - 1 is unchanged
    bad["weights"][0]["frequency"] = str(int(bad["weights"][0]["frequency"]) + 1)
    bad["weights"][1]["frequency"] = str(int(bad["weights"][1]["frequency"]) - 1)
    problems = check.certify_report(bad, SHOWCASE_1, check.NrTable())
    assert any("moment row" in p for p in problems)

    bad = copy.deepcopy(report)
    bad["n_values"][3] = str(int(bad["n_values"][3]) + 1)
    assert any("N_r" in p for p in check.certify_report(bad, SHOWCASE_1, check.NrTable()))


def test_verify_transcript_with_budget_refusal(capsys):
    op = workloads._verify_op(SHOWCASE_1, workloads.SHOWCASE_1_BUDGET)
    rc = cli.main(list(op.argv))
    captured = capsys.readouterr()
    assert check.check_verify(op, rc, captured.out, captured.err, check.NrTable()) == []
    tampered = captured.out.replace("N_3: brute 3570", "N_3: brute 3571")
    assert check.check_verify(op, rc, tampered, captured.err, check.NrTable())


def test_catalog_checked_and_corrupted_record_rejected(tmp_path, capsys):
    admit = workloads.Admitter(CodeSpec, validate_spec, SpecValidationError)
    op = workloads._sweep_op(admit, "f2", 3, 2, 3)
    path = str(tmp_path / "catalog.jsonl")
    argv = [*op.argv, "--out", path]
    rc = cli.main(argv)
    nr = check.NrTable()
    assert check.check_sweep(op, rc, capsys.readouterr().out, path, nr) == []
    rc = cli.main(argv)
    assert check.check_sweep_rerun(op, rc, capsys.readouterr().out, path) == []

    lines = Path(path).read_text().splitlines()
    record = json.loads(lines[0])
    weights = record["report"]["weights"]
    weights[0]["frequency"] = str(int(weights[0]["frequency"]) + 1)
    weights[-1]["frequency"] = str(int(weights[-1]["frequency"]) - 1)
    Path(path).write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
    assert check.check_catalog(op, path, nr)

    record = json.loads(lines[0])
    record["status"] = "mismatch"
    Path(path).write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
    assert any("status mismatch" in p for p in check.check_catalog(op, path, nr))


def test_tracer_self_times_add_up_and_uninstall_restores(capsys):
    import nihocodes.oracle
    import nihocodes.solver

    original = nihocodes.solver.n_r
    tracer = Tracer()
    tracer.install()
    try:
        assert nihocodes.solver.n_r is not original
        assert nihocodes.oracle.n_r is nihocodes.solver.n_r
        assert cli.main(["verify", *flags(("f1", 2, 2, 1, 1, 1)), "--checks", "all"]) == 0
    finally:
        tracer.uninstall()
    assert nihocodes.solver.n_r is original and nihocodes.oracle.n_r is original

    values = tracer.metrics(traced_wall=tracer.root_time(), untraced_wall=1.0)
    assert sum(values[m] for m in SELF_METRICS.values()) == pytest.approx(tracer.root_time())
    assert values["oracle.brute_distribution.fast.tuples"] == 2**6 - 1
    assert values["oracle.n_r_brute.charged"] == 15 + 15**2
    assert values["moments.n_r.calls"] > 0 and values["galois.build_field.calls"] == 1
