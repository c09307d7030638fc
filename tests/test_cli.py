import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihocodes import cli
from nihocodes.cli import CHECK_NAMES, AnalysisReport, build_report, main
from nihocodes.codespec import CodeSpec, validate_spec
from nihocodes.solver import ModelViolationError, weight_distribution

EXAMPLE1_FLAGS = ["--family", "f1", "--p", "2", "--m", "4", "--h", "2", "--delta", "1", "--t", "2"]
EXAMPLE2_FLAGS = ["--family", "f2", "--p", "3", "--m", "2", "--h", "3", "--delta", "1", "--t", "3"]
TINY_FLAGS = ["--family", "f1", "--p", "2", "--m", "2", "--h", "1", "--delta", "1", "--t", "1"]


def test_analyze_example1_text(capsys):
    assert main(["analyze", *EXAMPLE1_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "1+35700Y^104+30600Y^112+250920Y^120+377655Y^128+353700Y^136" in out
    assert "dimension = 20" in out


def test_analyze_example2_text(capsys):
    assert main(["analyze", *EXAMPLE2_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "1+2016Y^30+6720Y^36+40320Y^42+113760Y^48+205040Y^54+163584Y^60" in out


def test_analyze_invalid_exits_1(capsys):
    code = main(["analyze", "--family", "f2", "--p", "3", "--m", "2",
                 "--h", "2", "--delta", "1", "--t", "1"])
    assert code == 1
    assert "parity" in capsys.readouterr().err


def test_analyze_json_round_trip(capsys):
    assert main(["analyze", *EXAMPLE1_FLAGS, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    report = AnalysisReport.from_json_dict(data)
    vs = validate_spec(CodeSpec("f1", 2, 4, 2, 1, 2))
    assert report == build_report(vs, weight_distribution(vs))
    # big integers as decimal strings
    assert data["weights"][0]["frequency"] == "353700"
    assert data["n_values"] == ["1", "0", "255", "3570", "237405"]
    # self-consistency of the report
    assert sum(int(w["frequency"]) for w in data["weights"]) == 2**20 - 1


def test_verify_all_checks_tiny(capsys):
    assert main(["verify", *TINY_FLAGS, "--checks", "all"]) == 0


def test_verify_all_checks_example1(capsys):
    # the q = 16 showcase: full oracle suite agrees, N_4 (charged 255^4) included
    assert main(["verify", *EXAMPLE1_FLAGS, "--checks", "all"]) == 0


def test_cached_parser_gives_what_a_fresh_parser_gives(capsys, monkeypatch):
    """main parses with one parser per process; a parse that argparse
    rejects (exit 2) leaves it as it was for the next call."""
    assert cli.make_parser() is cli.make_parser()
    argvs = [["analyze", *TINY_FLAGS, "--json"],
             ["analyze", *TINY_FLAGS, "--t", "one"],
             ["verify", *TINY_FLAGS, "--checks", "all"]]

    def run_all():
        results = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cached = run_all()
    monkeypatch.setattr(cli, "make_parser", cli.make_parser.__wrapped__)
    fresh = run_all()
    assert [code for code, _, _ in cached] == [0, 2, 0]
    assert "invalid int value" in cached[1][2]
    assert cached == fresh


def test_verify_distribution_slow_path(capsys):
    assert main(["verify", *TINY_FLAGS, "--checks", "distribution", "--slow-path"]) == 0
    assert "slow path" in capsys.readouterr().out


def test_verify_invalid_exits_1():
    assert main(["verify", "--family", "f1", "--p", "3", "--m", "2",
                 "--h", "1", "--delta", "1", "--t", "1"]) == 1


def test_verify_budget_refusal_exits_3(capsys):
    code = main(["verify", "--family", "f1", "--p", "2", "--m", "8",
                 "--h", "2", "--delta", "1", "--t", "4", "--checks", "distribution"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_verify_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NIHO_BUDGET", "1")
    code = main(["verify", *TINY_FLAGS, "--checks", "distribution"])
    assert code == 3
    # flag beats environment
    code = main(["verify", *TINY_FLAGS, "--checks", "distribution", "--budget", "10000000"])
    assert code == 0


def test_verify_table_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("NIHO_TABLE_LIMIT", "8")
    code = main(["verify", *TINY_FLAGS, "--checks", "distribution"])
    assert code == 3
    assert "table limit" in capsys.readouterr().err


def test_nr_table(capsys):
    assert main(["nr", "--p", "2", "--m", "4", "--e", "1", "--rmax", "4"]) == 0
    out = capsys.readouterr().out
    values = [line.split()[1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "0", "255", "3570", "237405"]


def test_nr_example2_value(capsys):
    assert main(["nr", "--p", "3", "--m", "2", "--e", "1", "--rmax", "5"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].split()[1] == "439600"


def test_nr_closed_form_with_e3(capsys):
    # q = 8 is the smallest binary field with 3 | q+1: N_2 = 3*(64-1) = 189
    assert main(["nr", "--p", "2", "--m", "3", "--e", "3", "--rmax", "2"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].split()[1] == "189"


def test_nr_bad_e_exits_1(capsys):
    assert main(["nr", "--p", "2", "--m", "4", "--e", "2", "--rmax", "3"]) == 1
    # e = 3 does not divide q+1 = 5 either; gcd(h, q+1) can never be 3 here
    assert main(["nr", "--p", "2", "--m", "2", "--e", "3", "--rmax", "2"]) == 1


def test_nr_brute_column(capsys):
    assert main(["nr", "--p", "2", "--m", "2", "--e", "1", "--rmax", "2",
                 "--brute", *TINY_FLAGS]) == 0
    out = capsys.readouterr().out
    last = out.strip().splitlines()[-1].split()
    assert last == ["2", "15", "15", "ok"]


def test_nr_non_prime_p_exits_1(capsys):
    assert main(["nr", "--p", "6", "--m", "1", "--e", "1", "--rmax", "3"]) == 1
    captured = capsys.readouterr()
    assert "prime" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("m,rmax,flag", [("0", "2", "m"), ("-1", "2", "m"), ("4", "-3", "rmax")])
def test_nr_bad_m_or_rmax_exits_1(capsys, m, rmax, flag):
    assert main(["nr", "--p", "2", "--m", m, "--e", "1", "--rmax", rmax]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{flag} must be")
    assert len(captured.err.splitlines()) == 1


def test_nr_brute_needs_full_spec(capsys):
    assert main(["nr", "--p", "2", "--m", "2", "--e", "1", "--rmax", "2", "--brute"]) == 1
    assert "--brute needs" in capsys.readouterr().err


def test_sweep_catalog(tmp_path, capsys):
    out = tmp_path / "catalog.jsonl"
    args = ["sweep", "--family", "f1", "--p", "2", "--m", "2",
            "--h-range", "1:4", "--delta-range", "1:1", "--t-range", "0:1",
            "--out", str(out), "--verify-small", "100000"]
    assert main(args) == 0
    lines = out.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 8
    assert all(r["status"] == "oracle-verified" for r in records)
    keys = [r["key"] for r in records]
    assert len(set(keys)) == len(keys)

    # idempotent re-run appends nothing
    assert main(args) == 0
    assert out.read_text().strip().splitlines() == lines

    # reports round-trip through JSON
    for r in records:
        report = AnalysisReport.from_json_dict(r["report"])
        assert report.to_json_dict() == r["report"]


def test_sweep_interleaved_runs_keep_keys_unique(tmp_path):
    out = tmp_path / "catalog.jsonl"
    base = ["--p", "2", "--m", "2", "--h-range", "1:2", "--delta-range", "1:1",
            "--out", str(out)]
    assert main(["sweep", "--family", "f1", *base, "--t-range", "0:1"]) == 0
    assert main(["sweep", "--family", "f2", *base, "--t-range", "1:2"]) == 0
    assert main(["sweep", "--family", "f1", *base, "--t-range", "0:2"]) == 0  # overlap
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    keys = [r["key"] for r in records]
    assert len(set(keys)) == len(keys)
    assert sum(k.startswith("f1") for k in keys) == 6  # t in 0..2 for both h
    assert sum(k.startswith("f2") for k in keys) == 4


def test_sweep_skips_inadmissible(tmp_path):
    out = tmp_path / "catalog.jsonl"
    # h = 5 is 0 mod q+1 for q = 4: every combination is inadmissible
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "2",
                 "--h-range", "5:5", "--delta-range", "1:1", "--t-range", "0:1",
                 "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_sweep_unwritable_path():
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "2",
                 "--h-range", "1:1", "--delta-range", "1:1", "--t-range", "0:0",
                 "--out", "/nonexistent-dir/catalog.jsonl"]) == 1


SWEEP_TINY = ["sweep", "--family", "f1", "--p", "2", "--m", "2",
              "--h-range", "1:2", "--delta-range", "1:1", "--t-range", "0:1"]


def test_sweep_builds_oracle_field_once(tmp_path, monkeypatch):
    calls = []

    def counting_build_field(*args, **kwargs):
        calls.append(args)
        return build_field(*args, **kwargs)

    build_field = cli.build_field
    monkeypatch.setattr(cli, "build_field", counting_build_field)
    out = tmp_path / "catalog.jsonl"
    assert main([*SWEEP_TINY, "--out", str(out), "--verify-small", "100000"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 4
    assert all(r["status"] == "oracle-verified" for r in records)
    assert calls == [(2, 4)]


def test_sweep_budget_refusal_exits_3(tmp_path, capsys):
    out = tmp_path / "catalog.jsonl"
    code = main([*SWEEP_TINY, "--out", str(out), "--verify-small", "1000000",
                 "--budget", "10"])
    assert code == 3
    captured = capsys.readouterr()
    assert "budget refusal" in captured.err
    assert captured.out.splitlines() == [f"catalog {out}: 0 written, 0 inadmissible skipped"]


def test_sweep_table_limit_env_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NIHO_TABLE_LIMIT", "8")
    out = tmp_path / "catalog.jsonl"
    assert main([*SWEEP_TINY, "--out", str(out), "--verify-small", "100000"]) == 3
    assert "table limit" in capsys.readouterr().err


def test_sweep_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    def wrong_distribution(vspec, **kwargs):
        return dataclasses.replace(weight_distribution(vspec), entries=())

    monkeypatch.setattr(cli, "brute_distribution", wrong_distribution)
    out = tmp_path / "catalog.jsonl"
    assert main([*SWEEP_TINY, "--out", str(out), "--verify-small", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"catalog {out}: 4 written, 0 inadmissible skipped"]
    assert captured.err.count("MISMATCH") == 4
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["status"] for r in records] == ["mismatch"] * 4


@pytest.mark.parametrize("flag", ["--h-range", "--delta-range", "--t-range"])
def test_sweep_malformed_range_exits_1(tmp_path, capsys, flag):
    argv = [*SWEEP_TINY, "--out", str(tmp_path / "catalog.jsonl")]
    argv[argv.index(flag) + 1] = "1:x"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not (tmp_path / "catalog.jsonl").exists()


def test_sweep_recovers_from_truncated_catalog(tmp_path, caplog):
    out = tmp_path / "catalog.jsonl"
    args = [*SWEEP_TINY, "--out", str(out), "--verify-small", "100000"]
    assert main(args) == 0
    complete = out.read_text().splitlines()
    # a crash in the middle of writing the last record
    out.write_text("\n".join(complete[:-1]) + "\n" + complete[-1][:40])

    assert main(args) == 0
    assert "skipping unreadable line 4" in caplog.text
    lines = out.read_text().splitlines()
    assert lines[:3] == complete[:3]
    assert lines[3] == complete[-1][:40]
    rewritten = json.loads(lines[4])
    assert rewritten["key"] == json.loads(complete[-1])["key"]
    assert rewritten["status"] == "oracle-verified"

    # the fragment now sits mid-file; later runs still read past it
    assert main(args) == 0
    assert out.read_text().splitlines() == lines


def _violating(after_calls=0):
    """A weight_distribution stand-in that raises ModelViolationError once it
    has answered `after_calls` times."""
    answered = []

    def fake(vspec):
        if len(answered) == after_calls:
            raise ModelViolationError(f"frequencies are not non-negative integers for {vspec.key}",
                                      ())
        answered.append(vspec.key)
        return weight_distribution(vspec)

    return fake


@pytest.mark.parametrize("command", [["analyze", *TINY_FLAGS], ["verify", *TINY_FLAGS]])
def test_model_violation_exits_2(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "weight_distribution", _violating())
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "model violation: frequencies are not non-negative integers for f1:2:2:1:1:1"]


def test_sweep_model_violation_stops_and_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "weight_distribution", _violating(after_calls=1))
    out = tmp_path / "catalog.jsonl"
    assert main([*SWEEP_TINY, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"catalog {out}: 1 written, 0 inadmissible skipped"]
    assert captured.err.splitlines() == [
        "model violation: frequencies are not non-negative integers for f1:2:2:1:1:1"]
    assert [json.loads(line)["key"] for line in out.read_text().splitlines()] == ["f1:2:2:1:1:0"]


def _flags(**values):
    return [item for name, value in values.items() for item in (f"--{name}", value)]


SMALL_INT = st.integers(-2, 12).map(str)
FUZZ_P = st.sampled_from(["0", "1", "2", "3", "4", "5"])
FAMILY = st.sampled_from(["f1", "f2"])
BUDGET = st.just("100000")
SPEC_FLAGS = st.builds(_flags, family=FAMILY, p=FUZZ_P, m=SMALL_INT, h=SMALL_INT,
                       delta=SMALL_INT, t=SMALL_INT)
FUZZ_ARGV = st.one_of(
    st.tuples(st.just(["analyze"]), SPEC_FLAGS, st.sampled_from([[], ["--json"]])),
    st.tuples(st.just(["verify"]), SPEC_FLAGS,
              st.builds(_flags, budget=BUDGET, checks=st.sampled_from(CHECK_NAMES + ("all",))),
              st.sampled_from([[], ["--slow-path"]])),
    st.tuples(st.just(["nr"]),
              st.builds(_flags, p=FUZZ_P, m=SMALL_INT, e=SMALL_INT, rmax=SMALL_INT, budget=BUDGET),
              st.just([]) | st.builds(_flags, family=FAMILY, h=SMALL_INT, delta=SMALL_INT,
                                      t=SMALL_INT).map(lambda spec: ["--brute", *spec])),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=150, deadline=None)
@given(FUZZ_ARGV)
def test_no_argv_escapes_main(argv):
    # fields above 2^12 elements are refused (exit 3) so each call stays fast
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("NIHO_TABLE_LIMIT", "4096")
        assert main(argv) in (0, 1, 2, 3)
