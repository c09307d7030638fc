import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from test_acceptance import EXAMPLE1_ENUM, EXAMPLE2_ENUM

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_examples_prints_both_showcases():
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "scripts/reproduce_examples.py", "--skip-oracle"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert EXAMPLE1_ENUM in done.stdout
    assert EXAMPLE2_ENUM in done.stdout


def test_small_field_survey_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "scripts/small_field_survey.py",
         "--out", str(tmp_path / "catalog.jsonl")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    status = [line for line in done.stdout.splitlines() if line.startswith("status counts:")]
    assert len(status) == 1 and "oracle-verified" in status[0]
    assert "mismatch" not in status[0]


def test_bench_solver_writes_timings(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, "scripts/bench_solver.py", "--out", str(out), "--sizes", "5", "9",
         "--repeats", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(out.read_text())
    rows = result["stages_best_s"]
    assert [row["size"] for row in rows] == [5, 9]
    assert [row["t"] for row in rows] == [2, 4]
    stages = ("b_vector_s", "closed_form_s", "certificate_s", "weight_distribution_s")
    assert all(row[stage] > 0 for row in rows for stage in stages)


def test_bench_startup_times_fresh_processes(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    out = tmp_path / "bench.json"
    argv = [sys.executable, "scripts/bench_startup.py", "--out", str(out), "--runs", "1"]
    for label in ("first", "first", "second"):
        done = subprocess.run([*argv, "--label", label], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(out.read_text())
    first, second = result["trees"]["first"], result["trees"]["second"]
    walls = ("python_pass_s", "analyze_s", "import_s")
    assert [len(first[wall]) for wall in walls] == [2, 2, 2]
    assert [len(second[wall]) for wall in walls] == [1, 1, 1]
    assert all(v > 0 for tree in (first, second) for wall in walls for v in tree[wall])
    assert first["summary"]["analyze_s"]["q1"] <= first["summary"]["analyze_s"]["q3"]
    assert not first["numpy_loaded"] and result["identical_outputs"]


def test_transcripts_hashes_each_workload_reproducibly(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import transcripts

    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    with transcripts.capture_log() as log:
        digests = {name: transcripts.digest_workload(name, 1, first, log)
                   for name in transcripts.ROUNDS}
        # the catalog path is masked, so another scratch directory hashes the same
        again = transcripts.digest_workload("catalog-sweep", 1, second, log)
    assert len(list(first.glob("catalog-sweep-*.jsonl"))) == 11
    assert again == digests["catalog-sweep"]
    # The output is byte-identical by contract: a change that alters it on
    # purpose updates these digests and says so.
    assert digests == {
        "analyze-large": (45, "8705f741bb26f4ebda816b01daf41cd1c05910ab702482c31baf15637604298a"),
        "verify-oracle": (17, "e7d975f1e5348ce0e84c26c4a54bdcafb0d0487e962b3b28346af00220b20968"),
        "catalog-sweep": (11, "6a08692c5d7f7aa276c0e57be69f4dbea41f823f395d65528a514e383a340841"),
    }


def test_bench_verify_times_stages_and_catalog_calls(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    out = tmp_path / "bench.json"
    argv = [sys.executable, "scripts/bench_verify.py", "--out", str(out), "--rounds", "1",
            "--sweep-rounds", "1", "--runs", "1"]
    for label in ("first", "first", "second"):
        done = subprocess.run([*argv, "--label", label], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(out.read_text())
    first, second = result["trees"]["first"], result["trees"]["second"]
    assert result["identical_outputs"]
    # one verify-oracle round: 17 ops in 14 strata, both showcases among them
    assert first["verify_ops"] == 17 and sum(s["ops"] for s in first["strata"].values()) == 17
    assert {"showcase 1", "showcase 2", "f2 q=8 t=4"} <= set(first["strata"])
    assert len(first["verify_ops_per_s"]) == 2 and len(second["verify_ops_per_s"]) == 1
    showcase = first["strata"]["showcase 1"]
    stages = [showcase[k] for k in ("brute_s", "n_r_brute_s", "weights_s")]
    assert all(len(walls) == 2 and min(walls) > 0 for walls in (showcase["op_s"], *stages))
    # a kept field may build in no measurable time
    assert len(showcase["field_s"]) == 2 and min(showcase["field_s"]) >= 0
    # the stages run inside the op
    assert all(sum(parts) < op
               for op, *parts in zip(showcase["op_s"], showcase["field_s"], *stages))
    # one catalog-sweep round: 11 sweeps write 254 records; they hold 42
    # distinct (e, t) pairs, and their 106 oracle-verified records fall into
    # 24 multiplier classes
    assert first["catalog_ops"] == 11 and first["records"] == 254
    assert first["solve_calls"] == 42 and first["brute_calls"] == 24
    assert len(first["catalog_ops_per_s"]) == 2 and len(second["catalog_ops_per_s"]) == 1
    assert min(first["catalog_ops_per_s"]) > 0
    assert len(first["brute_call_mean_s"]) == 2 and min(first["brute_call_mean_s"]) > 0
    # every median is printed with the best run beside it
    rates = first["verify_ops_per_s"]
    assert (f"first: verify {statistics.median(rates):.1f} (best {max(rates):.1f}) ops/s"
            in done.stdout)
    # each run's p50 and p75 of its op times, printed beside the rate
    p50s, p75s = first["verify_p50_s"], first["verify_p75_s"]
    assert len(p50s) == len(p75s) == 2 and len(second["verify_p75_s"]) == 1
    assert all(0 < p50 <= p75 for p50, p75 in zip(p50s, p75s))
    assert (f"ops/s, p50 {statistics.median(p50s) * 1e3:.3f} (best {min(p50s) * 1e3:.3f}) ms, "
            f"p75 {statistics.median(p75s) * 1e3:.3f} (best {min(p75s) * 1e3:.3f}) ms"
            in done.stdout)
    strata = [line for line in done.stdout.splitlines() if " op " in line]
    assert len(strata) == 2 * len(first["strata"])
    assert all(line.count("(best ") == 5 for line in strata)  # the op and its four stages


def test_bench_verify_catalog_digest_masks_only_elapsed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import transcripts

    catalog = tmp_path / "catalog.jsonl"
    record = {"elapsed_s": 0.000123, "key": "f1:2:2:1:1:1", "status": "formula-only"}

    def masked(line: str) -> bytes:
        catalog.write_text(line + "\n", encoding="utf-8")
        return transcripts.mask_elapsed(catalog)

    reference = masked(json.dumps(record))
    assert masked(json.dumps({**record, "elapsed_s": 1.5})) == reference
    assert masked(json.dumps(record, separators=(",", ":"))) != reference
    assert masked(json.dumps(dict(reversed(record.items())))) != reference


def test_bench_verify_ends_on_a_failing_sweep(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_verify

    reversed_range = SimpleNamespace(argv=("sweep", "--family", "f1", "--p", "2", "--m", "2",
                                           "--h-range", "4:1", "--delta-range", "1",
                                           "--t-range", "0:1"))
    with bench_verify.transcripts.capture_log() as log, pytest.raises(SystemExit) as ended:
        bench_verify.run_catalog([reversed_range], tmp_path / "catalog.jsonl", log)
    # a message, not an int, so the interpreter exits 1
    assert str(ended.value.code).startswith("exit 1 from sweep")
