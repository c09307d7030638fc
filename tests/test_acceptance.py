"""Acceptance suite: one test per contract criterion, each printing a
PASS line with its measured runtime.  Run with `pytest tests/test_acceptance.py -v`
(the PASS lines print even under captured output)."""

import itertools
import math
import random
import time
from dataclasses import dataclass

import pytest

from nihocodes.codespec import (
    CodeSpec,
    SpecValidationError,
    validate_spec,
    _conjugates,
)
from nihocodes.galois import build_field
from nihocodes.moments import n_r
from nihocodes.oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    brute_distribution,
    n_r_brute,
    power_moment_check,
)
from nihocodes.solver import (
    b_vector,
    enumerator_string,
    weight_distribution,
)

from conftest import field
from exact_reference import (
    cyclotomic_coset,
    invert_exact,
    invert_lagrange,
    mds_freq_by_j,
    moment_rows,
    n2_closed_form,
    n3_closed_form,
    n4_closed_form,
    n5_closed_form,
)
from test_solver import INVERSE_Q16_T2, INVERSE_Q9_T3, inverse_by_solve, showcase_nodes

EXAMPLE1_ENUM = "1+35700Y^104+30600Y^112+250920Y^120+377655Y^128+353700Y^136"
EXAMPLE2_ENUM = "1+2016Y^30+6720Y^36+40320Y^42+113760Y^48+205040Y^54+163584Y^60"


def announce(capsys, criterion: int, elapsed: float, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: PASS in {elapsed:.2f}s  ({detail})")


# -- criterion 4 sweep definition ------------------------------------------

SWEEP_FIELDS = [(2, 2), (2, 3), (3, 2)]  # q = 4, 8, 9


def admissible_specs():
    """Every admissible spec with q in {4, 8, 9}, h in 1..q, delta in 1..q-1,
    and every admissible t."""
    for p, m in SWEEP_FIELDS:
        q = p**m
        for family in ("f1", "f2"):
            if family == "f1" and p != 2:
                continue
            t_lo = 0 if family == "f1" else 1
            for h, delta, t in itertools.product(
                    range(1, q + 1), range(1, q), range(t_lo, q + 2)):
                try:
                    yield validate_spec(CodeSpec(family, p, m, h, delta, t))
                except SpecValidationError:
                    continue


@dataclass
class SweepRecord:
    vspec: object
    solver_dist: object
    brute_dist: object
    path: str


@dataclass
class SweepResults:
    records: list
    excluded: list  # (vspec, required budget) pairs refused by the oracle
    elapsed: float


@pytest.fixture(scope="session")
def sweep_results():
    started = time.perf_counter()
    contexts = {(p, m): build_field(p, 2 * m) for p, m in SWEEP_FIELDS}
    records, excluded = [], []
    for vspec in admissible_specs():
        ctx = contexts[(vspec.p, vspec.m)]
        cost = vspec.codeword_count * vspec.length
        if cost > DEFAULT_BUDGET:
            with pytest.raises(BudgetExceeded):
                brute_distribution(vspec, ctx=ctx)
            excluded.append((vspec, cost))
            continue
        path = "slow" if vspec.dimension <= 16 else "fast"
        brute = brute_distribution(vspec, ctx=ctx, path=path)
        solver = weight_distribution(vspec)
        records.append(SweepRecord(vspec, solver, brute, path))
    return SweepResults(records=records, excluded=excluded,
                        elapsed=time.perf_counter() - started)


# -- criteria ---------------------------------------------------------------

def test_criterion_1_example1_golden(capsys):
    started = time.perf_counter()
    vs = validate_spec(CodeSpec("f1", 2, 4, 2, 1, 2))
    assert vs.exponents == (136, 166, 196)
    assert vs.dimension == 20
    assert tuple(n_r(r, vs.q, vs.e) for r in range(5)) == (1, 0, 255, 3570, 237405)
    assert b_vector(16, 1, 5) == (1048575, -255, 267321855, 3726834945, 244708934655)
    dist = weight_distribution(vs)
    assert dist.freq_by_j == (353700, 377655, 250920, 30600, 35700)
    assert enumerator_string(dist) == EXAMPLE1_ENUM
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(capsys, 1, elapsed, "binary q=16 showcase reproduced exactly")


def test_criterion_2_example2_golden(capsys):
    started = time.perf_counter()
    vs = validate_spec(CodeSpec("f2", 3, 2, 3, 1, 3))
    assert vs.exponents == (17, 41, 65)
    assert vs.dimension == 12
    assert n_r(5, 9, 1) == 439600
    dist = weight_distribution(vs)
    assert enumerator_string(dist) == EXAMPLE2_ENUM
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(capsys, 2, elapsed, "ternary q=9 showcase reproduced exactly")


def test_criterion_3_printed_inverses(capsys):
    started = time.perf_counter()
    nodes1 = showcase_nodes("f1", 2, 16, 1)
    rows1 = moment_rows(nodes1)
    inv1 = invert_exact(rows1)
    assert inv1 == INVERSE_Q16_T2
    assert inverse_by_solve(nodes1) == INVERSE_Q16_T2
    assert invert_lagrange(nodes1) == INVERSE_Q16_T2
    assert inv1[0][0] == INVERSE_Q16_T2[0][0]  # spot entry -7285/524288

    nodes2 = showcase_nodes("f2", 3, 9, 1)
    rows2 = moment_rows(nodes2)
    inv2 = invert_exact(rows2)
    # the (5,5) entry of the golden table is the forced 1/7085880, not the
    # tempting 1/708588; see the table definition in test_solver
    assert inv2 == INVERSE_Q9_T3
    assert inverse_by_solve(nodes2) == INVERSE_Q9_T3
    assert invert_lagrange(nodes2) == INVERSE_Q9_T3
    assert inv2[0][0] == INVERSE_Q9_T3[0][0]  # spot entry -3094/177147
    for rows, inv in ((rows1, inv1), (rows2, inv2)):
        n = len(rows)
        for i in range(n):
            for j in range(n):
                assert sum(inv[i][k] * rows[k][j] for k in range(n)) == (i == j)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(capsys, 3, elapsed,
             "5x5 and 6x6 golden inverses reproduced entry by entry")


def test_criterion_4_oracle_equivalence(capsys, sweep_results):
    assert sweep_results.records, "sweep produced no specs"
    for rec in sweep_results.records:
        assert rec.brute_dist == rec.solver_dist, rec.vspec.key
        if rec.vspec.dimension <= 16:
            assert rec.path == "slow"
    # the only default-budget refusals are the q=9 t=5 codes (dimension 20)
    for vspec, cost in sweep_results.excluded:
        assert cost > DEFAULT_BUDGET
        assert (vspec.q, vspec.t) == (9, 5)
    assert sweep_results.elapsed < 600
    slow = sum(1 for r in sweep_results.records if r.path == "slow")
    announce(capsys, 4, sweep_results.elapsed,
             f"{len(sweep_results.records)} specs agree exactly "
             f"({slow} slow-path, {len(sweep_results.records) - slow} fast-path, "
             f"{len(sweep_results.excluded)} beyond default budget)")


def test_mds_enumerator_matches_enumeration(sweep_results):
    # the MDS weight enumerator, the solver's reference at large q, against
    # every criterion-4 sweep on either path
    for rec in sweep_results.records:
        vs = rec.vspec
        assert rec.brute_dist.freq_by_j == mds_freq_by_j(vs.family, vs.q, vs.e, vs.t), vs.key
    assert {rec.path for rec in sweep_results.records} == {"slow", "fast"}


def test_criterion_5_example_scale_oracles(capsys, example1_spec, example2_spec):
    started = time.perf_counter()
    brute1 = brute_distribution(example1_spec, ctx=field(2, 8), path="fast")
    assert brute1 == weight_distribution(example1_spec)
    t1 = time.perf_counter() - started
    assert t1 < 300

    mid = time.perf_counter()
    brute2 = brute_distribution(example2_spec, ctx=field(3, 4), path="slow")
    assert brute2 == weight_distribution(example2_spec)
    t2 = time.perf_counter() - mid
    assert t2 < 300
    announce(capsys, 5, t1 + t2,
             "2^20-tuple and 3^12-tuple sweeps reproduce the closed forms")


def nr_check_specs():
    """Representative admissible specs per field: every achievable e, the
    extreme admissible t values, two (h, delta) choices each."""
    chosen = []
    for p, m in [(3, 1), (2, 2), (2, 3), (3, 2)]:
        q = p**m
        for family in ("f1", "f2"):
            if family == "f1" and p != 2:
                continue
            groups = {}
            for h, delta in itertools.product(range(1, q + 1), (1, 3)):
                t_lo = 0 if family == "f1" else 1
                for t in range(t_lo, q + 2):
                    try:
                        vs = validate_spec(CodeSpec(family, p, m, h, delta, t))
                    except SpecValidationError:
                        continue
                    groups.setdefault((vs.e, vs.t), []).append(vs)
            by_e = {}
            for (e, t), specs in groups.items():
                lo, hi = by_e.get(e, (None, None))
                by_e[e] = (t if lo is None else min(lo, t),
                           t if hi is None else max(hi, t))
            for e, (lo, hi) in sorted(by_e.items()):
                for t in {lo, hi}:
                    chosen.extend(groups[(e, t)][:2])
    return chosen


def test_criterion_6_nr_equivalence(capsys):
    started = time.perf_counter()
    contexts = {}
    checked = 0
    for vs in nr_check_specs():
        key = (vs.p, 2 * vs.m)
        ctx = contexts.setdefault(key, build_field(*key))
        rmax = min(4, vs.moment_size - 1)
        for r in range(1, rmax + 1):
            assert n_r_brute(vs, r, ctx=ctx) == n_r(r, vs.q, vs.e), (vs.key, r)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    announce(capsys, 6, elapsed, f"{checked} brute tuple counts match the formula")


PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
                   27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def formula_only_specs():
    """Larger fields for the solver-integrality sweep: no oracle runs, only
    exact solves."""
    for p, m in [(2, 4), (2, 5), (5, 2), (3, 3)]:  # q = 16, 32, 25, 27
        q = p**m
        for family in ("f1", "f2"):
            if family == "f1" and p != 2:
                continue
            t_lo = 0 if family == "f1" else 1
            for h, t in itertools.product(range(1, q + 1), range(t_lo, q + 2)):
                try:
                    yield validate_spec(CodeSpec(family, p, m, h, 1, t))
                except SpecValidationError:
                    continue


def test_criterion_7_property_suite(capsys, sweep_results):
    started = time.perf_counter()

    closed_forms = 0
    for q in PRIME_POWERS_64:
        for e in range(1, q + 2):
            if (q + 1) % e:
                continue
            assert n_r(2, q, e) == n2_closed_form(q, e)
            assert n_r(3, q, e) == n3_closed_form(q, e)
            assert n_r(4, q, e) == n4_closed_form(q, e)
            assert n_r(5, q, e) == n5_closed_form(q, e)
            for r in range(2, 9):
                assert n_r(r, q, e) % (q * q - 1) == 0
            closed_forms += 1

    solved = 0
    for vspec in formula_only_specs():
        dist = weight_distribution(vspec)  # integrality and non-negativity inside
        assert sum(dist.freq_by_j) == vspec.codeword_count - 1
        solved += 1
    for rec in sweep_results.records:
        assert sum(rec.solver_dist.freq_by_j) == rec.vspec.codeword_count - 1
        solved += 1

    moments_checked = 0
    for rec in sweep_results.records:
        for r in range(1, rec.vspec.moment_size):
            report = power_moment_check(rec.vspec, r, dist=rec.brute_dist)
            assert report.ok, (rec.vspec.key, r, report)
            moments_checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 900
    announce(capsys, 7, elapsed,
             f"{closed_forms} (q,e) closed-form cells, {solved} exact solves, "
             f"{moments_checked} power moments")


def test_criterion_8_minpoly_rules_match_cosets(capsys):
    started = time.perf_counter()
    rng = random.Random(20140908)
    fields_qp = [(4, 2), (8, 2), (9, 3), (16, 2), (25, 5)]
    exponents_checked = 0
    for q, p in fields_qp:
        m = round(math.log(q, p))
        n = q * q - 1
        deltas = [d for d in range(1, q) if math.gcd(d, q - 1) == 1]
        for _ in range(100):
            delta = rng.choice(deltas)
            s1, s2 = rng.randint(0, q), rng.randint(0, q)
            d1 = (s1 * (q - 1) + delta) % n
            d2 = (s2 * (q - 1) + delta) % n
            c1 = cyclotomic_coset(n, p, d1)
            c2 = cyclotomic_coset(n, p, d2)
            k1, k2 = _conjugates(s1, delta, q), _conjugates(s2, delta, q)
            assert m * len(k1) == len(c1)
            assert m * len(k2) == len(c2)
            assert (k1 == k2) == (c1 == c2)
            exponents_checked += 2
    assert exponents_checked == 1000
    elapsed = time.perf_counter() - started
    announce(capsys, 8, elapsed,
             "1000 randomized exponents agree with coset ground truth")
