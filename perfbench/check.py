"""Independent checker for the outputs of the benchmark's CLI calls.

It imports nothing from ``nihocodes``.  N_r comes from the binomial form

    N_r = e^r q^(-k) * sum_{i=0..k} C(k, i) (q-1)^(k-i) (q*i - k)^r,   k = (q+1)/e,

not from the partition sum in ``nihocodes.moments``, and the weight
frequencies are checked against every row of the moment system directly,
without solving it:

    sum_j f_j * node_j^i = scale * N_i - (q^2 - 1)^i,   node_j = j*e*q - q - 1.

Each ``check_*`` function returns a list of problems; an empty list means
the output is accepted.
"""

from __future__ import annotations

import json
import math

DEFAULT_BUDGET = 10**10


class NrTable:
    """N_0..N_rmax per (q, e), computed once and extended on demand."""

    def __init__(self):
        self._tables: dict[tuple[int, int], list[int]] = {}

    def get(self, q: int, e: int, r: int) -> int:
        table = self._tables.get((q, e))
        if table is None or len(table) <= r:
            table = binomial_n_r(q, e, max(r, 2 * len(table or ())))
            self._tables[(q, e)] = table
        return table[r]


def binomial_n_r(q: int, e: int, rmax: int) -> list[int]:
    """[N_0, ..., N_rmax] from the binomial form; raises if not integral."""
    if e < 1 or (q + 1) % e:
        raise ValueError(f"e = {e} does not divide q+1 = {q + 1}")
    k = (q + 1) // e
    q_k = q**k
    terms = [math.comb(k, i) * (q - 1) ** (k - i) for i in range(k + 1)]
    nodes = [q * i - k for i in range(k + 1)]
    out = []
    for r in range(rmax + 1):
        total = e**r * sum(terms)
        if total % q_k:
            raise ArithmeticError(f"N_{r}(q={q}, e={e}) is not integral")
        out.append(total // q_k)
        terms = [a * x for a, x in zip(terms, nodes)]
    return out


def spec_facts(family: str, p: int, m: int, h: int, t: int) -> dict:
    q = p**m
    return {
        "q": q,
        "e": math.gcd(h, q + 1),
        "length": q * q - 1,
        "dimension": (2 * t + 1) * m if family == "f1" else 2 * t * m,
        "size": 2 * t + 1 if family == "f1" else 2 * t,
    }


def predicted_weight(family: str, p: int, q: int, e: int, j: int) -> int:
    base = q * q - (j * e - 1) * q
    return base // 2 if family == "f1" else (p - 1) * base // p


def certify_report(report: dict, spec: tuple, nr: NrTable) -> list[str]:
    """Check an ``analyze --json`` report (also a catalog record's report)
    for the spec (family, p, m, h, delta, t)."""
    family, p, m, h, delta, t = spec
    facts = spec_facts(family, p, m, h, t)
    q, e, size = facts["q"], facts["e"], facts["size"]
    problems = []
    echo = {"family": family, "p": p, "m": m, "h": h, "delta": delta, "t": t}
    if report.get("spec") != echo:
        problems.append(f"spec echo {report.get('spec')} != {echo}")
    for name in ("q", "e", "length", "dimension"):
        if report.get(name) != facts[name]:
            problems.append(f"{name} = {report.get(name)}, expected {facts[name]}")
    if problems:
        return problems

    n_values = [int(v) for v in report["n_values"]]
    expected_n = [nr.get(q, e, r) for r in range(size)]
    if n_values != expected_n:
        problems.append(f"N_r {n_values} != binomial form {expected_n}")

    weights = report["weights"]
    if [w["j"] for w in weights] != list(range(size)):
        return problems + [f"weight indices {[w['j'] for w in weights]} != 0..{size - 1}"]
    freqs = [int(w["frequency"]) for w in weights]
    for j, w in enumerate(weights):
        expected_w = predicted_weight(family, p, q, e, j)
        if w["weight"] != expected_w:
            problems.append(f"w_{j} = {w['weight']}, expected {expected_w}")
    if any(f < 0 for f in freqs):
        problems.append(f"negative frequency in {freqs}")
    if sum(freqs) != p ** facts["dimension"] - 1:
        problems.append(f"frequencies sum to {sum(freqs)}, expected p^dim - 1")

    scale = q ** (2 * t + 1) if family == "f1" else q ** (2 * t)
    nodes = [j * e * q - q - 1 for j in range(size)]
    for i in range(size):
        lhs = sum(f * x**i for f, x in zip(freqs, nodes))
        rhs = scale * expected_n[i] - (q * q - 1) ** i
        if lhs != rhs:
            problems.append(f"moment row {i}: sum f_j node_j^{i} = {lhs} != {rhs}")
            break

    zero_w = [w["weight"] for w, f in zip(weights, freqs) if f == 0]
    if report.get("zero_frequency_weights") != zero_w:
        problems.append(f"zero_frequency_weights {report.get('zero_frequency_weights')} != {zero_w}")
    terms = sorted((w["weight"], f) for w, f in zip(weights, freqs) if f)
    enumerator = "1" + "".join(f"+{f}Y^{w}" for w, f in terms)
    if report.get("enumerator") != enumerator:
        problems.append("enumerator string does not match the frequencies")
    return problems


def check_analyze(op, rc, out: str, nr: NrTable) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON report: {exc}"]
    return certify_report(report, op.spec, nr)


def expected_verify_transcript(op, nr: NrTable) -> tuple[list[str], int]:
    """The stdout lines and exit code of ``verify --checks all`` under the
    documented cost model: sweeps cost p^dim * (q^2-1), N_r counts (q^2-1)^r,
    and the first step over budget is refused."""
    family, p, m, h, delta, t = op.spec
    facts = spec_facts(family, p, m, h, t)
    q, e, n, size = facts["q"], facts["e"], facts["length"], facts["size"]
    budget = op.budget if op.budget is not None else DEFAULT_BUDGET
    lines = ["weights: path equivalence and containment ok"]
    if p ** facts["dimension"] * n > budget:
        return lines, 3
    lines.append(f"distribution ({'slow' if op.slow else 'fast'} path): ok")
    for r in range(1, min(4, size - 1) + 1):
        if n**r > budget:
            return lines, 3
        value = nr.get(q, e, r)
        lines.append(f"N_{r}: brute {value}, formula {value}, ok")
    lines += [f"power moment r={r}: ok" for r in range(1, size)]
    lines.append(f"all checks agree for {family}:{p}:{m}:{h}:{delta}:{t}")
    return lines, 0


def check_verify(op, rc, out: str, err: str, nr: NrTable) -> list[str]:
    lines, expected_rc = expected_verify_transcript(op, nr)
    problems = []
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    if out.splitlines() != lines:
        problems.append(f"transcript {out.splitlines()} != expected {lines}")
    if expected_rc == 3 and "budget refusal" not in err:
        problems.append("refusal not reported on stderr")
    return problems


def sweep_summary(path: str, written: int, skipped: int) -> str:
    return f"catalog {path}: {written} written, {skipped} inadmissible skipped"


def check_catalog(op, path: str, nr: NrTable) -> list[str]:
    """Every record of a fresh catalog is admitted, keyed once, carries the
    status the verify threshold implies, and has a certified report."""
    problems = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"unreadable catalog line: {exc}")
            continue
        key = record.get("key")
        if key in seen:
            problems.append(f"duplicate record {key}")
        seen.add(key)
        if key not in op.admitted:
            problems.append(f"record {key} was not expected")
            continue
        family, p, m, h, delta, t = key.split(":")
        spec = (family, int(p), int(m), int(h), int(delta), int(t))
        facts = spec_facts(family, spec[1], spec[2], spec[3], spec[5])
        cost = spec[1] ** facts["dimension"] * facts["length"]
        status = "oracle-verified" if cost <= op.verify_small else "formula-only"
        if record.get("status") != status:
            problems.append(f"record {key} has status {record.get('status')}, expected {status}")
        problems += [f"record {key}: {msg}" for msg in certify_report(record["report"], spec, nr)]
    missing = op.admitted - seen
    if missing:
        problems.append(f"{len(missing)} admitted specs missing, e.g. {sorted(missing)[0]}")
    return problems


def check_sweep(op, rc, out: str, path: str, nr: NrTable) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    summary = sweep_summary(path, len(op.admitted), op.grid - len(op.admitted))
    if out.strip() != summary:
        return [f"summary {out.strip()!r} != {summary!r}"]
    return check_catalog(op, path, nr)


def check_sweep_rerun(op, rc, out: str, path: str) -> list[str]:
    """A second run of the same sweep into the same catalog writes nothing."""
    summary = sweep_summary(path, 0, op.grid - len(op.admitted))
    if rc != 0 or out.strip() != summary:
        return [f"re-run wrote records or failed: exit {rc}, {out.strip()!r}"]
    return []
