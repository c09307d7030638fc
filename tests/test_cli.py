import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihocodes import cli, codespec, galois, moments, oracle
from nihocodes.cli import CHECK_NAMES, AnalysisReport, build_report, main
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec
from nihocodes.galois import build_field
from nihocodes.solver import ModelViolationError, weight_distribution

from exact_reference import report_dict, report_text, validate_spec_per_point

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


def test_closed_stdout_exits_1_without_traceback():
    # the N_r line alone is about 480 KB, far past a pipe's buffer, so the
    # CLI is still writing when the reader closes the pipe after one line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "nihocodes.cli", "analyze", "--family", "f1", "--p", "2",
            "--m", "10", "--h", "1", "--delta", "1", "--t", "200"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        assert proc.stdout.readline().startswith("family f1")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == ""


NUMPY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import nihocodes
import nihocodes.cli
from nihocodes.cli import main
from spans import Tracer

spec = ["--family", "f1", "--p", "2", "--m", "10", "--h", "1", "--delta", "1", "--t", "18"]
assert main(["analyze", "--json", *spec]) == 0
assert main(["nr", "--p", "2", "--m", "10", "--e", "1", "--rmax", "6"]) == 0
assert main(["sweep", "--family", "f1", "--p", "2", "--m", "4", "--h-range", "1:3",
             "--delta-range", "1:2", "--t-range", "0:3", "--out", sys.argv[2]]) == 0
tracer = Tracer()
tracer.install()  # reads every traced module from sys.modules
tracer.uninstall()
assert "numpy" not in sys.modules, "numpy loaded by a command that runs no oracle"
assert main(["verify", "--family", "f1", "--p", "2", "--m", "2", "--h", "1", "--delta", "1",
             "--t", "1"]) == 0
assert "numpy" in sys.modules, "verify ran without numpy"
"""


def test_numpy_stays_off_the_closed_form_path(tmp_path):
    # analyze, nr without --brute and sweep without --verify-small read no
    # field table, so they must not pay for importing numpy
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", NUMPY_PROBE, str(root / "perfbench"),
                           str(tmp_path / "catalog.jsonl")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert len((tmp_path / "catalog.jsonl").read_text().splitlines()) > 0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the int-to-str digit limit came with Python 3.10.7")
@pytest.mark.parametrize("argv, code", [
    (["analyze", "--family", "f2", "--p", "2", "--m", "2000", "--h", "1", "--delta", "1",
      "--t", "5", "--json"], 0),
    (["analyze", *TINY_FLAGS, "--t", "one"], 1),
    (["sweep", "-h"], 0),
], ids=["printed", "refused", "help"])
def test_main_restores_the_callers_digit_limit(capsys, argv, code):
    """main lifts the interpreter's int-to-str digit limit for its own
    output and gives the caller's limit back after a return, a refusal or
    the SystemExit of -h."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    if argv[0] == "analyze" and code == 0:  # frequencies of thousands of digits, in full
        weights = json.loads(capsys.readouterr().out)["weights"]
        assert max(len(w["frequency"]) for w in weights) > 5000


def test_big_integers_print_in_full():
    # 2^20000 - 1 nonzero codewords: the frequencies run past the
    # interpreter's default limit of 4300 digits for int -> str
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "nihocodes.cli", "analyze", "--family", "f2", "--p", "2",
            "--m", "2000", "--h", "1", "--delta", "1", "--t", "5", "--json"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    frequencies = [w["frequency"] for w in json.loads(done.stdout)["weights"]]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        total = sum(map(int, frequencies))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert total == 2**20000 - 1


# zero-frequency weights (q = 4 and 8), f1 at t = 0, odd p (q = 9 and 729)
# and f1 q = 1024 t = 18, whose frequencies run to hundreds of digits
WRITER_SPECS = ["f2:2:2:1:1:1", "f2:2:3:1:1:1", "f1:2:4:1:1:0", "f2:3:2:1:1:1",
                "f2:3:2:3:1:3", "f2:3:6:1:1:2", "f2:3:6:73:1:5", "f1:2:10:1:1:18"]


def test_analyze_json_round_trip(capsys):
    for key in WRITER_SPECS:
        family, *numbers = key.split(":")
        vs = validate_spec(CodeSpec(family, *map(int, numbers)))
        solution = cli.solve(vs)
        text = cli.report_json(vs, solution)
        assert AnalysisReport.from_json_dict(json.loads(text)) == build_report(vs, solution)
    assert main(["analyze", *EXAMPLE1_FLAGS, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    # big integers as decimal strings
    assert data["weights"][0]["frequency"] == "353700"
    assert data["n_values"] == ["1", "0", "255", "3570", "237405"]
    # self-consistency of the report
    assert sum(int(w["frequency"]) for w in data["weights"]) == 2**20 - 1


@pytest.mark.parametrize("key", WRITER_SPECS)
def test_report_json_is_json_dumps_of_the_report(capsys, key):
    family, *numbers = values = key.split(":")
    vs = validate_spec(CodeSpec(family, *map(int, numbers)))
    solution = cli.solve(vs)
    text = json.dumps(report_dict(build_report(vs, solution)), sort_keys=True)
    assert cli.report_json(vs, solution) == text
    names = ("family", "p", "m", "h", "delta", "t")
    assert main(["analyze", *_flags(**dict(zip(names, values))), "--json"]) == 0
    assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize("key", WRITER_SPECS)
def test_analyze_text_is_the_reference_rendering_of_the_json_report(capsys, key):
    # the whole text report, against the JSON report read back and rendered
    values = key.split(":")
    flags = _flags(**dict(zip(("family", "p", "m", "h", "delta", "t"), values)))
    assert main(["analyze", *flags, "--json"]) == 0
    report = AnalysisReport.from_json_dict(json.loads(capsys.readouterr().out))
    assert main(["analyze", *flags]) == 0
    assert capsys.readouterr().out == report_text(report)


@pytest.mark.parametrize("elapsed, written", [(0.0, "0.0"), (1e-06, "1e-06"), (5e-05, "5e-05"),
                                              (0.123457, "0.123457"), (0.1234567, "0.123457")])
def test_catalog_line_is_json_dumps_of_the_record(elapsed, written):
    vs = validate_spec(CodeSpec("f2", 2, 2, 1, 1, 1))
    report = cli.report_json(vs, cli.solve(vs))
    record = {"key": vs.key, "status": "oracle-verified", "elapsed_s": round(elapsed, 6),
              "report": json.loads(report)}
    line = cli.catalog_line(vs.key, "oracle-verified", elapsed, report)
    assert line == json.dumps(record, sort_keys=True)
    assert line.startswith(f'{{"elapsed_s": {written}, "key": "f2:2:2:1:1:1", ')


@pytest.mark.parametrize("flags", [EXAMPLE1_FLAGS, EXAMPLE2_FLAGS])
def test_report_spec_written_field_by_field(capsys, flags):
    assert main(["analyze", *flags, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    report = AnalysisReport.from_json_dict(data)
    assert data["spec"] == dataclasses.asdict(report.spec)


def test_verify_all_checks_tiny(capsys):
    assert main(["verify", *TINY_FLAGS, "--checks", "all"]) == 0


def test_verify_all_checks_example1(capsys):
    # the q = 16 showcase: full oracle suite agrees, N_4 (charged 255^4) included
    assert main(["verify", *EXAMPLE1_FLAGS, "--checks", "all"]) == 0


def test_cached_parser_gives_what_a_fresh_parser_gives(capsys, monkeypatch):
    """main parses with one parser per process; a parse that argparse
    rejects (exit 1) leaves it as it was for the next call."""
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
    assert [code for code, _, _ in cached] == [0, 1, 0]
    assert "invalid int value" in cached[1][2]
    assert cached == fresh


@pytest.mark.parametrize("argv, message", [
    (["analyze", *TINY_FLAGS, "--t", "one"],
     "niho analyze: error: argument --t: invalid int value: 'one'"),
    (["verify", *TINY_FLAGS, "--checks", "some"], "niho verify: error: argument --checks"),
    (["analyze", *TINY_FLAGS, "--extra"], "niho: error: unrecognized arguments: --extra"),
    (["bogus"], "niho: error: argument command: invalid choice: 'bogus'"),
    ([], "niho: error: the following arguments are required: command"),
], ids=["bad-int", "bad-choice", "unrecognized", "bad-command", "no-command"])
def test_argparse_errors_return_1_with_usage(capsys, argv, message):
    """A command line argparse rejects, at the top or in a subcommand, is an
    invalid parameter like any other: exit 1, argparse's usage and message
    on stderr, nothing on stdout."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: niho")
    assert message in captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-h"])
    assert exc.value.code == 0
    assert "--verify-small" in capsys.readouterr().out


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


@pytest.mark.parametrize("p, m", [(3, 5), (5, 3), (97, 1)])
def test_verify_odd_p_fields_need_no_addition_table(capsys, p, m):
    # admissible and inside the default budget; a dense addition table of
    # GF(q^2) would hold more than 2^26 entries, the packed adder holds none
    code = main(["verify", "--family", "f2", "--p", str(p), "--m", str(m), "--h", "1",
                 "--delta", "1", "--t", "1", "--checks", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks agree" in out


def test_verify_packs_exp_once_per_context(capsys, monkeypatch):
    # the q = 9 showcase: the fast sweep and N_1..N_4 all read the packed
    # exp view of the one context verify builds; the view gathers from the
    # packed range of the whole field, made once
    galois._kept_field.cache_clear()
    contexts, packed = [], []
    build, packed_range = cli.build_field, galois.packed_range
    monkeypatch.setattr(cli, "build_field",
                        lambda *args, **kwargs: contexts.append(build(*args, **kwargs))
                        or contexts[-1])
    monkeypatch.setattr(galois, "packed_range",
                        lambda p, k: packed.append((p, k)) or packed_range(p, k))
    assert main(["verify", *EXAMPLE2_FLAGS, "--checks", "all"]) == 0
    assert "N_4: brute" in capsys.readouterr().out
    assert len(contexts) == 1 and "packed_exp" in vars(contexts[0])
    assert packed.count((contexts[0].p, contexts[0].degree)) == 1


@pytest.mark.parametrize("slow", [False, True])
def test_verify_gf131_symbols_wider_than_a_byte(capsys, slow):
    # p = 131: a packed digit takes 9 bits, so GF(p) symbols held in one
    # byte must be widened before they are added
    code = main(["verify", "--family", "f2", "--p", "131", "--m", "1", "--h", "1",
                 "--delta", "1", "--t", "1", "--checks", "distribution",
                 *(["--slow-path"] if slow else [])])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks agree" in out


@pytest.mark.parametrize("flags, rows", [(EXAMPLE1_FLAGS, 4), (EXAMPLE2_FLAGS, 5)])
def test_verify_moments_sweeps_once(capsys, monkeypatch, flags, rows):
    # without the distribution check, every power-moment row reads one sweep
    sweeps = []
    sweep = oracle.brute_distribution

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cli, "brute_distribution", counted)
    monkeypatch.setattr(oracle, "brute_distribution", counted)
    assert main(["verify", *flags, "--checks", "moments"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("power moment")] == [
        f"power moment r={r}: ok" for r in range(1, rows + 1)]
    assert len(sweeps) == 1


def test_nr_brute_leaves_no_field_behind(capsys, monkeypatch):
    """Nothing outlives `nr --brute`: once it returns, its spec's half sums
    are gone and the field it built, which galois does not keep at this
    KEEP_ORDER, is freed."""
    monkeypatch.setattr(oracle, "_half_sums", weakref.WeakKeyDictionary())
    monkeypatch.setattr(galois, "KEEP_ORDER", 16)
    contexts, build = [], cli.build_field

    def tracked(*args, **kwargs):
        ctx = build(*args, **kwargs)
        contexts.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(cli, "build_field", tracked)
    assert main(["nr", "--p", "2", "--m", "3", "--e", "1", "--rmax", "3", "--brute",
                 "--family", "f1", "--h", "1", "--delta", "1", "--t", "2"]) == 0
    assert [line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]] == ["ok"] * 4
    gc.collect()
    assert len(contexts) == 1 and contexts[0]() is None
    assert not oracle._half_sums


def test_verify_nr_builds_one_half_sums_for_all_its_r(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_half_sums", weakref.WeakKeyDictionary())
    built, half_sums = [], oracle._HalfSums
    monkeypatch.setattr(oracle, "_HalfSums",
                        lambda *args: built.append(args) or half_sums(*args))
    assert main(["verify", *EXAMPLE2_FLAGS, "--checks", "nr"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:4]] == [
        "N_1", "N_2", "N_3", "N_4"]
    assert len(built) == 1


def test_showcase1_n4_refused_at_the_benchmark_budget(capsys):
    """N_r is charged (q^2-1)^r: showcase 1's N_4 costs 255^4, about 4.2e9,
    so --budget 10^9 runs N_1..N_3 and refuses N_4 with exit 3."""
    assert main(["verify", *EXAMPLE1_FLAGS, "--checks", "nr", "--budget", "1000000000"]) == 3
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["N_1", "N_2", "N_3"]
    assert captured.err == ("budget refusal: operation requires a budget of 4228250625, "
                            "only 1000000000 allowed\n")


def test_verify_moments_budget_refusal_prints_no_row(capsys):
    code = main(["verify", *EXAMPLE1_FLAGS, "--checks", "moments", "--budget", "1000"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


# both showcases, then one spec per stratum of the benchmark's verify workload
# (family, p, m, t): the domain lengths depend on those alone
@pytest.mark.parametrize("spec", [
    CodeSpec("f1", 2, 4, 2, 1, 2), CodeSpec("f2", 3, 2, 3, 1, 3),
    *(CodeSpec("f1", 2, 3, 1, 1, t) for t in range(5)),
    *(CodeSpec("f2", 2, 3, 1, 1, t) for t in range(1, 5)),
    *(CodeSpec("f2", 3, 2, 1, 1, t) for t in range(1, 4))])
def test_weight_draws_are_the_inline_draws(spec):
    """The memoised draws are the loop of rng.randrange(len(domain)) that
    the weight check made per call, slot by slot, as tuples, and a second
    call returns the same object."""
    vs = validate_spec(spec)
    domains = oracle.coefficient_domains(vs, build_field(vs.p, 2 * vs.m))
    rng = random.Random(0)
    inline = [[rng.randrange(len(domain)) for domain in domains]
              for _ in range(cli.WEIGHT_SAMPLES)]
    lengths = tuple(map(len, domains))
    draws = cli._weight_draws(lengths)
    assert type(draws) is tuple and all(type(slot) is tuple for slot in draws)
    assert draws == tuple(zip(*inline))
    assert cli._weight_draws(lengths) is draws


@pytest.mark.parametrize("spec", [CodeSpec("f1", 2, 4, 2, 1, 2), CodeSpec("f2", 3, 2, 3, 1, 3)])
def test_weight_samples_match_list_domains(monkeypatch, spec):
    """The weight check's index draws, gathered per slot, give the tuples
    that random.choice draws from the domains, as ints: from the domains
    written as Python lists, and from the oracle's arrays themselves."""
    vs = validate_spec(spec)
    ctx = build_field(vs.p, 2 * vs.m)
    full = [0] + ctx.exp.tolist()
    domains = ([ctx.subfield_elements(vs.m)] if vs.family == "f1" else []) + [full] * vs.t
    rng = random.Random(0)
    draws = [tuple(rng.choice(d) for d in domains) for _ in range(cli.WEIGHT_SAMPLES)]
    rng = random.Random(0)
    arrays = oracle.coefficient_domains(vs, ctx)
    assert draws == [tuple(int(rng.choice(d)) for d in arrays)
                     for _ in range(cli.WEIGHT_SAMPLES)]
    seen = []
    real = cli.column_weights
    monkeypatch.setattr(cli, "column_weights",
                        lambda vspec, columns, ctx: seen.append(columns) or real(vspec, columns, ctx))
    assert cli._check_weights(vs, ctx) == []
    [columns] = seen
    samples = [_tuple_at(columns, i) for i in range(len(columns[0]))]
    assert samples == [a for a in draws if any(a)]
    assert all(type(c) is int for a in samples for c in a)


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


def test_nr_brute_compares_only_moment_rows(capsys):
    # the formula is claimed for r <= n = 3; past it the brute count differs
    # wherever |W| > n, and its rows carry no verdict
    assert main(["nr", "--p", "2", "--m", "2", "--e", "1", "--rmax", "6",
                 "--brute", *TINY_FLAGS]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[-1] for row in rows[:4]] == ["ok"] * 4
    assert [row.split(maxsplit=2)[-1] for row in rows[4:]] == [
        "1005  -", "11100  -", "182715  -"]


@pytest.mark.parametrize("limit, code, message", [
    ("-1", 1, "environment variable NIHO_TABLE_LIMIT must be >= 0, got -1\n"),
    ("8", 3, "table limit refusal: field order 16 exceeds table limit 8\n"),
])
def test_nr_brute_refusal_prints_no_header(capsys, monkeypatch, limit, code, message):
    """The table limit is read and the field built before the first line,
    so a refusal leaves stdout empty."""
    monkeypatch.setenv("NIHO_TABLE_LIMIT", limit)
    assert main(["nr", "--p", "2", "--m", "2", "--e", "1", "--rmax", "2",
                 "--brute", *TINY_FLAGS]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


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
    assert lines == [json.dumps(r, sort_keys=True) for r in records]
    assert all(r["status"] == "oracle-verified" for r in records)
    keys = [r["key"] for r in records]
    assert len(set(keys)) == len(keys)

    # idempotent re-run appends nothing
    assert main(args) == 0
    assert out.read_text().strip().splitlines() == lines

    # reports round-trip through JSON
    for r in records:
        report = AnalysisReport.from_json_dict(r["report"])
        assert report_dict(report) == r["report"]


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


def test_sweep_logs_no_skip_lines_at_info(tmp_path, capsys, caplog):
    caplog.set_level("INFO", logger="nihocodes")
    args = ["sweep", "--family", "f1", "--p", "2", "--m", "2",
            "--h-range", "1:5", "--delta-range", "1:1", "--t-range", "0:2",
            "--out", str(tmp_path / "catalog.jsonl")]
    assert main(args) == 0
    assert main(args) == 0  # the second run finds every admissible key in the catalog
    out = capsys.readouterr().out
    assert "inadmissible skipped" in out and " 0 inadmissible" not in out
    assert not [r for r in caplog.records if "skip" in r.getMessage()]


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _reference_sweep(family, p, m, hs, deltas, ts, existing):
    """The catalog lines (elapsed_s 0.0) and the skip count of a per-point
    sweep over the reference admission, past the keys already in the catalog."""
    lines, skipped = [], 0
    for h in hs:
        for delta in deltas:
            for t in ts:
                spec = CodeSpec(family, p, m, h, delta, t)
                if spec.key in existing:
                    continue
                try:
                    vspec = validate_spec_per_point(spec)
                except SpecValidationError:
                    skipped += 1
                    continue
                report = cli.report_json(vspec, cli.solve(vspec))
                lines.append(cli.catalog_line(spec.key, "formula-only", 0.0, report))
    return lines, skipped


def test_sweep_counts_like_a_per_point_reference(tmp_path, capsys, caplog, monkeypatch):
    """A catalog holding admissible records and hand-written keys of refused
    points: the sweep appends the reference's records and skips as many
    points, a key already in the catalog never counted, one admission per
    (h, delta)."""
    out = tmp_path / "catalog.jsonl"
    first = ["sweep", "--family", "f1", "--p", "2", "--m", "3", "--h-range", "2:4",
             "--delta-range", "1:2", "--t-range", "1:2", "--out", str(out)]
    assert main(first) == 0
    hand_written = [
        "f1:2:3:1:1:9",    # above the window
        "f1:2:3:1:1:-1",   # below it
        "f1:2:3:5:7:2",    # a refused row: gcd(7, 7) != 1
        "f1:2:3:9:1:0",    # h = 0 mod q+1
        "f1:2:3:01:1:8",   # not a key the sweep makes: still counted
        "f2:2:3:1:1:9",    # another family
        7,                 # not a string
        ["f1", 2, 3, 1, 1, 7],  # unreadable: skipped with a warning, not counted
    ]
    with out.open("a", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"key": key}) + "\n" for key in hand_written)
    before = out.read_text()
    array_line = before.splitlines().index(json.dumps({"key": hand_written[-1]})) + 1
    capsys.readouterr()

    rows = _counting(monkeypatch, cli, "admit_row")
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "3", "--h-range", "1:9",
                 "--delta-range", "1:7", "--t-range=-1:9", "--out", str(out)]) == 0
    unreadable = [r.getMessage() for r in caplog.records if "unreadable" in r.getMessage()]
    assert unreadable == [f"catalog {out}: skipping unreadable line {array_line}"]
    existing = {json.loads(line)["key"] for line in before.splitlines()[:-1]}
    lines, skipped = _reference_sweep("f1", 2, 3, range(1, 10), range(1, 8), range(-1, 10),
                                      existing)
    assert capsys.readouterr().out.splitlines() == [
        f"catalog {out}: {len(lines)} written, {skipped} inadmissible skipped"]
    text = out.read_text()
    assert text.startswith(before)
    masked = [json.dumps(dict(json.loads(line), elapsed_s=0.0), sort_keys=True)
              for line in text[len(before):].splitlines()]
    assert masked == lines
    assert sorted(rows) == [("f1", 2, 3, h, delta) for h in range(1, 10) for delta in range(1, 8)]

    # a rerun writes nothing and skips the same refused points
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "3", "--h-range", "1:9",
                 "--delta-range", "1:7", "--t-range=-1:9", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"catalog {out}: 0 written, {skipped} inadmissible skipped"]
    assert out.read_text() == text


def test_sweep_wide_t_range_works_per_row(tmp_path, capsys, monkeypatch):
    """200,001 t's a row, 12 of them admissible: one admission per
    (h, delta) and one spec built per record, whatever the t range."""
    rows = _counting(monkeypatch, cli, "admit_row")
    built, real = [], codespec.Row.specs

    def counting_specs(row, ts):
        result = real(row, ts)
        built.extend(result)
        return result

    monkeypatch.setattr(codespec.Row, "specs", counting_specs)
    out = tmp_path / "catalog.jsonl"
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "2", "--h-range", "1:2",
                 "--delta-range", "1:3", "--t-range", "0:200000", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"catalog {out}: 12 written, 1199994 inadmissible skipped"]
    assert len(rows) == 6
    assert len(built) == 12
    assert len(out.read_text().splitlines()) == 12


def test_sweep_logs_one_debug_line_per_refused_span(tmp_path, caplog, monkeypatch):
    caplog.set_level("DEBUG", logger="nihocodes")
    fields = _counting(monkeypatch, codespec, "validate_field")
    # q = 4: delta = 3 and h = 5 refuse their rows whole; every other row
    # admits t = 0..2 and refuses 3..4 above its window
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "2", "--h-range", "1:5",
                 "--delta-range", "1:3", "--t-range", "0:4",
                 "--out", str(tmp_path / "catalog.jsonl")]) == 0
    skips = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skip")]
    assert len(skips) == 15
    assert "skip f1:2:2:5:1:t=0..4: h = 5 is 0 mod q+1 = 5 (h_zero_mod)" in skips
    assert "skip f1:2:2:1:3:t=0..4: gcd(delta, q-1) = gcd(3, 3) != 1 (delta_not_coprime)" in skips
    assert "skip f1:2:2:1:1:t=3..4: t = 3 exceeds (q+1)/(2e) = 5/2 (t_out_of_range)" in skips
    assert sum(s.endswith("(t_out_of_range)") for s in skips) == 8
    # the checks run once per row, in admit_row; a span's debug line runs none
    assert len(fields) == 15


def test_sweep_unwritable_path():
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "2",
                 "--h-range", "1:1", "--delta-range", "1:1", "--t-range", "0:0",
                 "--out", "/nonexistent-dir/catalog.jsonl"]) == 1


SWEEP_TINY = ["sweep", "--family", "f1", "--p", "2", "--m", "2",
              "--h-range", "1:2", "--delta-range", "1:1", "--t-range", "0:1"]
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def test_sweep_appends_to_a_pipe_without_reading_it(tmp_path):
    """--out a FIFO: the sweep appends its records without reading the path,
    which would not end while the sweep itself holds it open.  A sweep that
    reads it waits for a writer, and the timeout fails the test."""
    fifo = tmp_path / "catalog.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
    reader.start()
    try:
        done = subprocess.run([sys.executable, "-m", "nihocodes.cli", *SWEEP_TINY,
                               "--out", str(fifo)],
                              env=SRC_ENV, capture_output=True, text=True, timeout=30)
    finally:
        # a reader still waiting for a writer gets end of file
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"catalog {fifo}: 4 written, 0 inadmissible skipped\n"
    assert [json.loads(line)["key"] for line in received[0].splitlines()] == [
        f"f1:2:2:{h}:1:{t}" for h in (1, 2) for t in (0, 1)]


def _limit_file_size():
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (2000, 2000))


def test_sweep_reports_a_failed_catalog_write(tmp_path, caplog):
    """A catalog write that fails, here past a 2000-byte file size limit in the
    child process as on a full disk, exits 1 with a message and the summary
    line, not a traceback.  The next run skips the fragment it leaves."""
    out = tmp_path / "lim.jsonl"
    argv = ["sweep", "--family", "f1", "--p", "2", "--m", "3", "--h-range", "1:3",
            "--delta-range", "1", "--t-range", "0:2", "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "nihocodes.cli", *argv], env=SRC_ENV,
                          preexec_fn=_limit_file_size, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1
    assert done.stderr == f"cannot write catalog {out}: [Errno 27] File too large\n"
    assert done.stdout == f"catalog {out}: 3 written, 0 inadmissible skipped\n"
    assert out.stat().st_size == 2000

    assert main(argv) == 0
    assert "skipping unreadable line 4" in caplog.text
    keys = [json.loads(line)["key"] for i, line in enumerate(out.read_text().splitlines())
            if i != 3]
    assert keys == [f"f1:2:3:{h}:1:{t}" for h in (1, 2, 3) for t in (0, 1, 2) if (h, t) != (3, 2)]


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


def test_sweep_solves_each_moment_system_once(tmp_path, capsys, monkeypatch):
    # q = 8: h = 3 and 6 give e = 3, the other h e = 1 (h = 9 is 0 mod q+1),
    # so t = 0 and t = 1 each occur with two values of e
    calls, real = [], cli.weight_distribution
    monkeypatch.setattr(cli, "weight_distribution",
                        lambda vspec: calls.append((vspec.e, vspec.t)) or real(vspec))
    out = tmp_path / "catalog.jsonl"
    assert main(["sweep", "--family", "f1", "--p", "2", "--m", "3", "--h-range", "1:9",
                 "--delta-range", "1:7", "--t-range", "0:4", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    keys = {(r["report"]["e"], r["report"]["spec"]["t"]) for r in records}
    assert {e for e, _ in keys} == {1, 3} and len(records) > len(keys)
    assert sorted(calls) == sorted(keys)
    capsys.readouterr()
    for r in records:
        family, p, m, h, delta, t = r["key"].split(":")
        assert main(["analyze", "--family", family, "--p", p, "--m", m, "--h", h,
                     "--delta", delta, "--t", t, "--json"]) == 0
        assert r["report"] == json.loads(capsys.readouterr().out)

    calls.clear()
    assert main([*SWEEP_TINY, "--out", str(tmp_path / "tiny.jsonl")]) == 0
    assert len((tmp_path / "tiny.jsonl").read_text().splitlines()) == 4
    assert calls == [(1, 0), (1, 1)]


def test_a_solve_reads_one_slice_of_the_n_r_table_per_use(monkeypatch):
    """`solve` reads the (q, e) table once for `b_vector` and once for the
    report's N_r row, not once per moment row."""
    calls, real = [], moments.n_r
    monkeypatch.setattr(moments, "n_r", lambda r, q, e: calls.append(r) or real(r, q, e))
    cli.solve(validate_spec(CodeSpec("f1", 2, 10, 1, 1, 18)))  # moment size 37
    assert calls == [36, 36]


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


@pytest.mark.parametrize("command, extra, env, code, name", [
    ("verify", ["--budget", "-5"], {}, 1, "--budget"),
    ("nr", ["--budget", "-5"], {}, 1, "--budget"),
    ("sweep", ["--budget", "-5"], {}, 1, "--budget"),
    ("sweep", ["--verify-small", "-1"], {}, 1, "--verify-small"),
    ("verify", [], {"NIHO_BUDGET": "-1"}, 1, "NIHO_BUDGET"),
    ("verify", [], {"NIHO_TABLE_LIMIT": "-1"}, 1, "NIHO_TABLE_LIMIT"),
    ("sweep", ["--verify-small", "100000"], {"NIHO_TABLE_LIMIT": "-1"}, 1, "NIHO_TABLE_LIMIT"),
    # 0 is a budget and a limit like any other: it refuses every sweep
    ("verify", ["--budget", "0"], {}, 3, "budget refusal"),
    ("sweep", ["--verify-small", "0", "--budget", "0"], {}, 0, "4 written"),
    ("verify", [], {"NIHO_TABLE_LIMIT": "0"}, 3, "table limit refusal"),
], ids=["verify-budget", "nr-budget", "sweep-budget", "sweep-verify-small", "env-budget",
        "env-table-limit", "sweep-env-table-limit", "budget-0", "sweep-0", "table-limit-0"])
def test_negative_budgets_and_limits_exit_1(tmp_path, command, extra, env, code, name):
    argv = {"verify": ["verify", *TINY_FLAGS, "--checks", "distribution"],
            "nr": ["nr", "--p", "2", "--m", "2", "--e", "1", "--rmax", "2"],
            "sweep": [*SWEEP_TINY, "--out", str(tmp_path / "catalog.jsonl")]}[command]
    environ = dict(os.environ, **env,
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "nihocodes.cli", *argv, *extra], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    assert name in (done.stderr if code else done.stdout)
    if code == 1:
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "catalog.jsonl").exists()


@pytest.mark.parametrize("command, env, message", [
    (["verify", *TINY_FLAGS, "--budget", "-5"], {}, "--budget must be >= 0, got -5"),
    (["verify", *TINY_FLAGS], {"NIHO_BUDGET": "abc"},
     "environment variable NIHO_BUDGET must be an integer, got 'abc'"),
    (["nr", "--p", "2", "--m", "2", "--e", "1", "--rmax", "2", "--brute", "--family", "f1",
      "--h", "1", "--delta", "1", "--t", "1"], {"NIHO_TABLE_LIMIT": "-1"},
     "environment variable NIHO_TABLE_LIMIT must be >= 0, got -1"),
    ([*SWEEP_TINY, "--verify-small", "-1"], {}, "--verify-small must be >= 0, got -1"),
    ([*SWEEP_TINY, "--verify-small", "100000"], {"NIHO_TABLE_LIMIT": "abc"},
     "environment variable NIHO_TABLE_LIMIT must be an integer, got 'abc'"),
], ids=["budget", "env-budget", "nr-env-table-limit", "verify-small", "sweep-env-table-limit"])
def test_usage_errors_return_1_in_process(tmp_path, capsys, monkeypatch, command, env, message):
    """main returns 1 with the message alone on stderr, and raises nothing."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    catalog = tmp_path / "catalog.jsonl"
    argv = [*command, "--out", str(catalog)] if command[0] == "sweep" else command
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert not catalog.exists()


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


# q = 8, every delta: for p = 2 a multiplier class depends on h and t but not
# on delta, and at t = 0 not on h either while e is kept, so the 48 records
# (h = 3 has e = 3 and t <= 1) fall into 7 classes
SWEEP_SHARED = ["sweep", "--family", "f1", "--p", "2", "--m", "3", "--h-range", "1:3",
                "--delta-range", "1:6", "--t-range", "0:2", "--verify-small", "10000000"]


def _records(path):
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_s"}
            for line in path.read_text().splitlines()]


def test_sweep_verifies_each_multiplier_class_once(tmp_path, monkeypatch):
    """One brute sweep per multiplier class, and the catalog a sweep per
    spec writes, elapsed_s aside."""
    calls, real = [], cli.brute_distribution
    monkeypatch.setattr(cli, "brute_distribution",
                        lambda vspec, **kwargs: calls.append(vspec) or real(vspec, **kwargs))
    shared = tmp_path / "shared.jsonl"
    assert main([*SWEEP_SHARED, "--out", str(shared)]) == 0
    records = _records(shared)
    classes = {oracle.multiplier_class(validate_spec(CodeSpec(**r["report"]["spec"])))
               for r in records}
    assert (len(records), len(classes)) == (48, 7)
    assert sorted(map(oracle.multiplier_class, calls)) == sorted(classes)
    assert all(r["status"] == "oracle-verified" for r in records)

    calls.clear()
    monkeypatch.setattr(cli, "multiplier_class", lambda vspec: vspec.key)
    per_spec = tmp_path / "per-spec.jsonl"
    assert main([*SWEEP_SHARED, "--out", str(per_spec)]) == 0
    assert len(calls) == 48
    assert _records(per_spec) == records


def test_sweep_shared_class_mismatch_marks_every_member(tmp_path, capsys, monkeypatch):
    calls = []

    def wrong_distribution(vspec, **kwargs):
        calls.append(vspec.key)
        return dataclasses.replace(weight_distribution(vspec), entries=())

    monkeypatch.setattr(cli, "brute_distribution", wrong_distribution)
    out = tmp_path / "catalog.jsonl"
    assert main([*SWEEP_SHARED, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"catalog {out}: 48 written, 6 inadmissible skipped"]
    assert len(calls) == 7
    assert captured.err.count("MISMATCH") == 48
    assert [r["status"] for r in _records(out)] == ["mismatch"] * 48


def _corrupt_one(real, index, delta, seen):
    """real, with entry index of its result moved by delta; the per-slot
    columns it was handed are recorded in seen."""
    def corrupted(vspec, columns, ctx):
        seen.append(columns)
        out = real(vspec, columns, ctx)
        out[index] += delta
        return out
    return corrupted


def _tuple_at(columns, index):
    """The index-th tuple of per-slot columns, as Python ints."""
    return tuple(int(column[index]) for column in columns)


def _mismatch_lines(err):
    lines = err.splitlines()
    assert lines[0] == "MISMATCH:"
    return [line.strip() for line in lines[1:]]


def test_verify_weights_path_disagreement_exits_2(capsys, monkeypatch):
    # a character sum 2 higher is a binary weight 1 lower
    seen = []
    monkeypatch.setattr(cli, "column_char_sums", _corrupt_one(cli.column_char_sums, 5, 2, seen))
    assert main(["verify", *EXAMPLE1_FLAGS, "--checks", "weights"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "weights: path equivalence and containment FAILED\n"
    [line] = _mismatch_lines(captured.err)
    [columns] = seen
    assert line.startswith(f"tuple {_tuple_at(columns, 5)}: positionwise ")
    assert "root path" in line


def test_verify_weights_outside_predicted_set_exits_2(capsys, monkeypatch):
    # both paths agree on a weight 1 off the predicted set, spaced by 8
    seen = []
    monkeypatch.setattr(cli, "column_char_sums", _corrupt_one(cli.column_char_sums, 0, 2, []))
    monkeypatch.setattr(cli, "column_weights",
                        _corrupt_one(cli.column_weights, 0, -1, seen))
    assert main(["verify", *EXAMPLE1_FLAGS, "--checks", "weights"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "weights: path equivalence and containment FAILED\n"
    [line] = _mismatch_lines(captured.err)
    [columns] = seen
    assert line.startswith(f"tuple {_tuple_at(columns, 0)}: weight ")
    assert line.endswith(" outside predicted set")


def test_verify_stray_swept_weight_exits_2(capsys, monkeypatch):
    """A swept weight outside the predicted set fails the distribution and
    the power moments that aggregate it, and verify exits 2 with no
    traceback."""
    real = cli.brute_distribution

    def stray(vspec, **kwargs):
        dist = real(vspec, **kwargs)
        (w, f), *rest = dist.entries
        return dataclasses.replace(dist, entries=((w + 1, f), *rest), freq_by_j=None)

    monkeypatch.setattr(cli, "brute_distribution", stray)
    assert main(["verify", *TINY_FLAGS, "--checks", "all"]) == 2
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert "distribution (fast path): FAILED" in out
    assert "power moment r=1: FAILED" in out and "power moment r=2: FAILED" in out
    lines = _mismatch_lines(captured.err)
    assert lines[0].startswith("distribution: brute ((")
    assert [line.split(":")[0] for line in lines[1:]] == ["power moment r=1", "power moment r=2"]


@pytest.mark.parametrize("flag", ["--h-range", "--delta-range", "--t-range"])
def test_sweep_malformed_range_exits_1(tmp_path, capsys, flag):
    argv = [*SWEEP_TINY, "--out", str(tmp_path / "catalog.jsonl")]
    argv[argv.index(flag) + 1] = "1:x"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not (tmp_path / "catalog.jsonl").exists()


def test_sweep_negative_range_needs_the_equals_form(tmp_path, capsys):
    """A range below zero sweeps in the --t-range=A:B form.  Written as two
    arguments, Python 3.11's argparse reads -2:3 as an option and the call
    exits 1 with a usage message, where an argparse that takes it sweeps
    the same catalog.  Neither prints a traceback."""
    joined = tmp_path / "joined.jsonl"
    argv = [*SWEEP_TINY[:-2], "--t-range=-2:3", "--out", str(joined)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"catalog {joined}: 6 written, 6 inadmissible skipped\n"
    records = [json.loads(line) for line in joined.read_text().splitlines()]
    assert [r["key"] for r in records] == [f"f1:2:2:{h}:1:{t}" for h in (1, 2) for t in (0, 1, 2)]

    split = tmp_path / "split.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "nihocodes.cli", *SWEEP_TINY[:-1], "-2:3",
                           "--out", str(split)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    if done.returncode == 0:
        strip = [json.dumps(dict(json.loads(line), elapsed_s=0.0))
                 for text in (joined.read_text(), split.read_text())
                 for line in text.splitlines()]
        assert strip[:len(strip) // 2] == strip[len(strip) // 2:]
    else:
        assert done.returncode == 1
        assert "--t-range: expected one argument" in done.stderr
        assert done.stdout == "" and not split.exists()


@pytest.mark.parametrize("flag", ["--h-range", "--delta-range", "--t-range"])
def test_sweep_reversed_range_exits_1(tmp_path, capsys, flag):
    argv = [*SWEEP_TINY, "--out", str(tmp_path / "catalog.jsonl")]
    argv[argv.index(flag) + 1] = "3:1"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"{flag} must be A:B" in captured.err
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


def test_sweep_refuses_catalog_that_is_not_utf8(tmp_path, capsys):
    out = tmp_path / "catalog.jsonl"
    garbage = b'{"key": "f1:2:2:1:1:0"}\n\xff\xfe not text\n'
    out.write_bytes(garbage)
    assert main([*SWEEP_TINY, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read catalog {out}: ")
    assert len(captured.err.splitlines()) == 1
    assert out.read_bytes() == garbage


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


# -- the table-driven parse ------------------------------------------------

def _argparse_namespace(argv):
    """What make_parser().parse_args(argv) returns, or None when it refuses
    the line or exits (as -h does)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.make_parser().parse_args(argv)
    except (cli.UsageError, SystemExit):
        return None


def _typed(namespace):
    return {name: (type(value), value) for name, value in vars(namespace).items()}


SWEEP_FLAGS = ["--family", "f1", "--p", "2", "--m", "3", "--h-range", "1:2",
               "--delta-range", "1", "--t-range", "0:3", "--out", "catalog.jsonl"]
CANONICAL_LINES = [
    ["analyze", *EXAMPLE1_FLAGS, "--json"],
    ["verify", *EXAMPLE2_FLAGS, "--checks", "nr", "--slow-path", "--budget", "1000"],
    ["nr", "--p", "2", "--m", "4", "--e", "1", "--rmax", "3", "--brute", *EXAMPLE1_FLAGS[:2],
     "--h", "2", "--delta", "1", "--t", "2"],
    ["sweep", *SWEEP_FLAGS, "--verify-small", "1000"],
]


@pytest.mark.parametrize("argv", CANONICAL_LINES, ids=lambda argv: argv[0])
def test_canonical_lines_take_the_flag_table(argv):
    fast = cli._parse_canonical(argv)
    assert fast is not None
    assert _typed(fast) == _typed(_argparse_namespace(argv))


@pytest.mark.parametrize("argv, dest, value", [
    (["analyze", *TINY_FLAGS, "--t", "0"], "t", 0),
    (["verify", *TINY_FLAGS, "--checks", "nr", "--checks", "moments"], "checks", "moments"),
    (["sweep", *SWEEP_FLAGS, "--out", "other.jsonl"], "out", "other.jsonl"),
])
def test_a_repeated_flag_keeps_its_last_value(argv, dest, value):
    fast = cli._parse_canonical(argv)
    assert getattr(fast, dest) == value
    assert _typed(fast) == _typed(_argparse_namespace(argv))


@pytest.mark.parametrize("argv", [
    [],
    ["bogus", *TINY_FLAGS],
    ["analyze", *TINY_FLAGS, "-h"],
    ["analyze", *TINY_FLAGS[:-2], "--t=1"],
    ["analyze", *TINY_FLAGS[:-2], "--t", "-1"],
    ["analyze", "--fam", *TINY_FLAGS[1:]],
    ["analyze", *TINY_FLAGS[2:]],
    ["analyze", *TINY_FLAGS[:-1]],
    ["analyze", *TINY_FLAGS, "--"],
    ["analyze", *TINY_FLAGS, "--json", "1"],
    ["verify", *TINY_FLAGS, "--checks", "some"],
    ["sweep", *SWEEP_FLAGS[:-4], "-2:3", *SWEEP_FLAGS[-2:]],
    ["sweep", *SWEEP_FLAGS[:-1], "--verify-small", "1"],
    ["sweep", *SWEEP_FLAGS[:-1], ""],
], ids=["empty", "bogus", "help", "equals", "negative", "abbreviation", "missing-flag",
        "missing-value", "double-dash", "stray-value", "bad-choice", "range-below-zero",
        "flag-as-value", "empty-value"])
def test_unusual_lines_are_left_to_argparse(argv):
    assert cli._parse_canonical(argv) is None


@pytest.mark.parametrize("workload", ["analyze-large", "verify-oracle", "catalog-sweep"])
def test_benchmark_lines_take_the_flag_table(tmp_path, monkeypatch, workload):
    """Every seed-1 op of every round of the benchmark's workloads, a sweep
    with the --out its runner appends, is read from the flag table, as
    argparse reads it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    admit = workloads.Admitter(CodeSpec, validate_spec, SpecValidationError)
    out = ["--out", str(tmp_path / "catalog.jsonl")]
    for ops in workloads.generate(workload, 1, admit):
        for op in ops:
            argv = [*op.argv, *out] if op.kind == "sweep" else list(op.argv)
            fast = cli._parse_canonical(argv)
            assert fast is not None, argv
            assert _typed(fast) == _typed(_argparse_namespace(argv)), argv


FLAGS = ["--family", "--p", "--m", "--h", "--delta", "--t", "--json", "--budget", "--checks",
         "--slow-path", "--e", "--rmax", "--brute", "--h-range", "--delta-range", "--t-range",
         "--out", "--verify-small"]
ABBREVIATIONS = ["--fam", "--del", "--che", "--slow", "--rm", "--br", "--h-r", "--t-ra",
                 "--verify", "--ou", "--j"]
GOOD_INT = st.integers(0, 30).map(str)
VALUE = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["-1", "+5", " 7", "1_0", "one", "f1", "f2", "f3", "1:3", "-2:3", "all",
                     "nr", "some", "c.jsonl"]))
TOKEN = st.one_of(
    st.sampled_from([*FLAGS, *ABBREVIATIONS, "-h", "--help", "--", "-", ""]),
    VALUE,
    st.builds("{}={}".format, st.sampled_from(FLAGS + ABBREVIATIONS), GOOD_INT | VALUE),
)
INT_VALUE = st.sampled_from([GOOD_INT] * 5 + [VALUE]).flatmap(lambda values: values)
FAMILY_VALUE = st.sampled_from([st.sampled_from(["f1", "f2"])] * 3 + [VALUE]).flatmap(
    lambda values: values)
SPEC_REQUIRED = st.builds(_flags, family=FAMILY_VALUE, p=INT_VALUE, m=INT_VALUE, h=INT_VALUE,
                          delta=INT_VALUE, t=INT_VALUE)
# each command's required flags, so that the table accepts a good share of
# the lines; bogus takes analyze's
REQUIRED = {
    "analyze": SPEC_REQUIRED,
    "verify": SPEC_REQUIRED,
    "nr": st.builds(_flags, p=INT_VALUE, m=INT_VALUE, e=INT_VALUE, rmax=INT_VALUE),
    "sweep": st.builds(lambda family, p, m, h, delta, t: _flags(
        family=family, p=p, m=m, **{"h-range": h, "delta-range": delta, "t-range": t},
        out="c.jsonl"), FAMILY_VALUE, INT_VALUE, INT_VALUE, INT_VALUE, VALUE, VALUE),
    "bogus": SPEC_REQUIRED,
}
EXTRA = st.lists(st.one_of(st.tuples(st.sampled_from(FLAGS), INT_VALUE | TOKEN).map(list),
                           TOKEN.map(lambda token: [token])), max_size=3)
COMMAND = st.sampled_from(sorted(REQUIRED))
COMPLETE = COMMAND.flatmap(lambda command: st.builds(
    lambda required, extra: [command, *required, *sum(extra, [])],
    REQUIRED[command], st.just([]) | EXTRA))
PARSE_ARGV = st.sampled_from([COMPLETE] * 3 + [
    st.builds(lambda command, tokens: [command, *tokens], COMMAND, st.lists(TOKEN, max_size=6)),
    st.lists(TOKEN, max_size=6),
]).flatmap(lambda lines: lines)


@settings(max_examples=400, deadline=None)
@given(PARSE_ARGV)
def test_flag_table_reads_what_argparse_reads_or_declines(argv):
    """The table-driven parse gives None or exactly argparse's Namespace,
    and argparse accepts every line the table accepted."""
    fast = cli._parse_canonical(argv)
    if fast is not None:
        slow = _argparse_namespace(argv)
        assert slow is not None
        assert _typed(fast) == _typed(slow)
