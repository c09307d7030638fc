import itertools
import random

import numpy as np
import pytest

from nihocodes import oracle
from nihocodes.codespec import CodeSpec, validate_spec
from nihocodes.moments import n_r
from nihocodes.oracle import (
    BudgetExceeded,
    brute_distribution,
    char_sum,
    char_sum_direct,
    codeword_weight,
    coefficient_domains,
    n_r_brute,
    power_moment_check,
    unit_circle,
    weight_from_char_sum,
)
from nihocodes.solver import theoretical_weights, weight_distribution

from conftest import field


def all_tuples(vspec, ctx):
    return itertools.product(*coefficient_domains(vspec, ctx))


def test_unit_circle_structure(gf16):
    uc = unit_circle(gf16, 4, 1)
    assert len(uc.u) == 5
    assert len(set(uc.u)) == 5
    for z in uc.u:
        assert gf16.mul(z, gf16.pow(z, 4)) == 1
    uc5 = unit_circle(field(3, 2), 3, 2)
    assert len(uc5.w) == 2


def test_zero_codeword(tiny_f1_spec, gf16):
    assert codeword_weight(tiny_f1_spec, (0, 0), gf16) == 0
    assert char_sum(tiny_f1_spec, (0, 0), gf16) == 16  # q^2 for the zero tuple


def test_char_sum_zero_tuple_f2(tiny_f2_spec, gf9):
    assert char_sum(tiny_f2_spec, (0, 0), gf9) == 2 * 9  # (p-1) q^2


def test_tuple_validation(tiny_f1_spec, gf16):
    with pytest.raises(ValueError):
        codeword_weight(tiny_f1_spec, (0,), gf16)
    with pytest.raises(ValueError):
        codeword_weight(tiny_f1_spec, (gf16.generator, 0), gf16)  # gamma not in GF(4)


def test_paths_agree_everywhere_tiny_f1(tiny_f1_spec, gf16):
    """Positionwise weights, direct character sums and W-root character sums
    must agree tuple by tuple on the full 63-codeword space."""
    q = 4
    for a in all_tuples(tiny_f1_spec, gf16):
        s_fast = char_sum(tiny_f1_spec, a, gf16)
        s_slow = char_sum_direct(tiny_f1_spec, a, gf16)
        assert s_fast == s_slow
        w = codeword_weight(tiny_f1_spec, a, gf16)
        assert w == weight_from_char_sum(tiny_f1_spec, s_fast)
        assert w == (q * q) // 2 - s_fast // 2


def test_paths_agree_everywhere_tiny_f2(tiny_f2_spec, gf9):
    p, q = 3, 3
    for a in all_tuples(tiny_f2_spec, gf9):
        s_fast = char_sum(tiny_f2_spec, a, gf9)
        assert s_fast == char_sum_direct(tiny_f2_spec, a, gf9)
        w = codeword_weight(tiny_f2_spec, a, gf9)
        assert w == weight_from_char_sum(tiny_f2_spec, s_fast)
        assert w * p == q * q * (p - 1) - s_fast * 1


def test_paths_agree_on_samples_example1(example1_spec, gf256):
    rng = random.Random(7)
    domains = coefficient_domains(example1_spec, gf256)
    weights = set(theoretical_weights("f1", 2, 16, 1, 2))
    for _ in range(25):
        a = tuple(rng.choice(d) for d in domains)
        s = char_sum(example1_spec, a, gf256)
        assert s == char_sum_direct(example1_spec, a, gf256)
        w = codeword_weight(example1_spec, a, gf256)
        assert w == weight_from_char_sum(example1_spec, s)
        if any(a):
            assert w in weights


def test_char_sum_values_lie_in_predicted_set(tiny_f1_spec, gf16):
    q, e, t = 4, 1, 1
    allowed = {(j * e - 1) * q for j in range(2 * t + 1)}
    for a in all_tuples(tiny_f1_spec, gf16):
        if any(a):
            assert char_sum(tiny_f1_spec, a, gf16) in allowed


def test_brute_distribution_tiny_f1(tiny_f1_spec):
    solver = weight_distribution(tiny_f1_spec)
    fast = brute_distribution(tiny_f1_spec, path="fast")
    slow = brute_distribution(tiny_f1_spec, path="slow")
    assert fast == solver
    assert slow == solver
    assert fast.freq_by_j == solver.freq_by_j
    assert sum(f for _, f in fast.entries) == 63


def test_brute_distribution_tiny_f2(tiny_f2_spec):
    solver = weight_distribution(tiny_f2_spec)
    assert brute_distribution(tiny_f2_spec, path="fast") == solver
    assert brute_distribution(tiny_f2_spec, path="slow") == solver


def test_brute_distribution_zero_frequency_weight():
    # q = 4, f2, t = 1: weight 10 never occurs; the brute path must agree
    vs = validate_spec(CodeSpec("f2", 2, 2, 1, 1, 1))
    solver = weight_distribution(vs)
    fast = brute_distribution(vs, path="fast")
    assert fast == solver
    assert fast.entries == ((8, 15),)
    assert fast.freq_by_j == (0, 15)


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
def test_shard_count_invariance(shards):
    vs = validate_spec(CodeSpec("f1", 2, 3, 1, 1, 2))
    base_fast = brute_distribution(vs, path="fast", shards=1)
    base_slow = brute_distribution(vs, path="slow", shards=1)
    assert brute_distribution(vs, path="fast", shards=shards) == base_fast
    assert brute_distribution(vs, path="slow", shards=shards) == base_slow
    assert n_r_brute(vs, 3, shards=shards) == n_r_brute(vs, 3, shards=1)
    # the q = 9 showcase is too large for one block on either path, so its
    # leading slot is walked as an outer index through the addition table
    odd = validate_spec(CodeSpec("f2", 3, 2, 3, 1, 3))
    solver = weight_distribution(odd)
    assert brute_distribution(odd, path="fast", shards=shards) == solver
    assert brute_distribution(odd, path="slow", shards=shards) == solver


@pytest.mark.parametrize("p, degree", [(2, 2), (3, 2)])
@pytest.mark.parametrize("block_entries", [1, 1 << 22])
def test_zero_count_histogram_matches_enumeration(monkeypatch, p, degree, block_entries):
    """The engine on random tables whose columns are not closed under
    negation, against a loop over every tuple; block_entries = 1 walks all
    but the last slot as outer index."""
    monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", block_entries)
    ctx = field(p, degree)
    rng = np.random.default_rng(5)
    tables = [rng.integers(0, ctx.order, size=(6, size), dtype=np.uint8)
              for size in (3, 2, 4)]
    for table in tables:
        table[:, 0] = 0
    expected = [0] * 7
    for idx in itertools.product(*(range(t.shape[1]) for t in tables)):
        if any(idx):
            sums = [0] * 6
            for table, i in zip(tables, idx):
                sums = [ctx.add(s, int(v)) for s, v in zip(sums, table[:, i])]
            expected[sums.count(0)] += 1
    add, neg = oracle._group_ops(p, ctx.order)
    for shards in (1, 2, 5):
        assert oracle._zero_count_histogram(tables, add, neg, shards) == expected


def test_brute_distribution_wide_entries_and_counts():
    # q = 32: element codes reach 1023 and the slow path counts up to
    # n = 1023 zero positions, both beyond one byte
    vs = validate_spec(CodeSpec("f1", 2, 5, 1, 1, 0))
    solver = weight_distribution(vs)
    assert brute_distribution(vs, path="fast") == solver
    assert brute_distribution(vs, path="slow") == solver


def test_budget_refusal():
    vs = validate_spec(CodeSpec("f1", 2, 8, 2, 1, 4))
    with pytest.raises(BudgetExceeded) as exc:
        brute_distribution(vs)
    assert exc.value.required == 2**72 * (2**16 - 1)
    with pytest.raises(BudgetExceeded):
        n_r_brute(validate_spec(CodeSpec("f1", 2, 4, 2, 1, 2)), 4, budget=10**6)


def test_n_r_brute_golden(tiny_f1_spec, tiny_f2_spec):
    assert n_r_brute(tiny_f1_spec, 1) == 0
    assert n_r_brute(tiny_f1_spec, 2) == 15  # e (q^2 - 1)
    assert n_r_brute(tiny_f2_spec, 3) == n_r(3, 3, 1) == 8


def test_n_r_brute_rejects_r0(tiny_f1_spec):
    with pytest.raises(ValueError):
        n_r_brute(tiny_f1_spec, 0)


def test_power_moment_r1_is_zero(tiny_f1_spec, tiny_f2_spec):
    for vs in (tiny_f1_spec, tiny_f2_spec):
        rep = power_moment_check(vs, 1)
        assert rep.ok and rep.lhs == 0 and rep.rhs == 0


def test_power_moment_q4_r2(tiny_f1_spec):
    rep = power_moment_check(tiny_f1_spec, 2)
    assert rep.ok
    assert rep.lhs == rep.rhs == 4**3 * 15  # q^(1+2t) N_2


def test_power_moment_example1(example1_spec, gf256):
    dist = brute_distribution(example1_spec, ctx=gf256, path="fast")
    rep = power_moment_check(example1_spec, 2, dist=dist)
    assert rep.ok
    assert rep.lhs == 16**5 * 255


def test_power_moment_uses_supplied_distribution(tiny_f2_spec):
    dist = brute_distribution(tiny_f2_spec, path="slow")
    for r in range(1, 4):
        assert power_moment_check(tiny_f2_spec, r, dist=dist).ok


def test_domains_order_and_sizes(example1_spec, gf256):
    domains = coefficient_domains(example1_spec, gf256)
    assert [len(d) for d in domains] == [16, 256, 256]
    assert domains[0][0] == 0 and domains[1][0] == 0
    assert domains[1][1:] == list(gf256.exp_table)
    for x in domains[0]:
        assert gf256.is_subfield_element(x, 4)
