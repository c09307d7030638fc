import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihocodes import cli, moments
from nihocodes.moments import n_r

import exact_reference
from conftest import field
from exact_reference import (
    add,
    b_count,
    n2_closed_form,
    n3_closed_form,
    n4_closed_form,
    n5_closed_form,
    n_r_miller,
)
from partition_sum import PartitionVector, n_r_partition_sum, partitions_min2


def brute_zero_sum_tuples(ctx, j):
    """Independent oracle for b_count: walk all j-tuples of nonzero elements
    and count the ones summing to zero."""
    nonzero = list(range(1, ctx.order))
    count = 0
    for combo in itertools.product(nonzero, repeat=j - 1):
        acc = 0
        for x in combo:
            acc = add(ctx, acc, x)
        if acc != 0:  # the forced last coordinate -acc must be nonzero
            count += 1
    return count


def test_b_count_pairs():
    for q in (3, 4, 9, 16):
        assert b_count(2, q) == q - 1


def test_b_count_gf9_triples_against_brute_force():
    ctx = field(3, 2)
    assert brute_zero_sum_tuples(ctx, 3) == 56
    assert b_count(3, 9) == 56


def test_b_count_gf9_quintuples_against_brute_force():
    ctx = field(3, 2)
    assert b_count(5, 9) == brute_zero_sum_tuples(ctx, 5) == 3640


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)])
def test_b_count_small_vs_brute(p, k):
    q = p**k
    ctx = field(p, k)
    for j in (2, 3, 4, 5):
        assert b_count(j, q) == brute_zero_sum_tuples(ctx, j)


def test_b_count_rejects_small_j():
    with pytest.raises(ValueError):
        b_count(1, 9)


def test_partitions_golden():
    as_dicts = lambda r: [dict(pv.parts) for pv in partitions_min2(r)]
    assert as_dicts(4) == [{4: 1}, {2: 2}]
    assert as_dicts(5) == [{5: 1}, {3: 1, 2: 1}]
    assert as_dicts(1) == []
    assert as_dicts(0) == [{}]


def test_partition_vector_fields():
    pv = PartitionVector.from_mapping({2: 2, 3: 1})
    assert pv.r == 7
    assert pv.blocks == 3


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 24))
def test_partitions_are_valid_and_unique(r):
    seen = set()
    for pv in partitions_min2(r):
        assert all(part >= 2 and mult >= 1 for part, mult in pv.parts)
        assert pv.r == r
        assert pv.parts not in seen
        seen.add(pv.parts)


def test_partitions_count_matches_reference():
    # partitions with no part of size 1: p(r) - p(r-1)
    def p_all(r):
        counts = [1] + [0] * r
        for part in range(1, r + 1):
            for v in range(part, r + 1):
                counts[v] += counts[v - part]
        return counts[r]

    for r in range(2, 20):
        assert sum(1 for _ in partitions_min2(r)) == p_all(r) - p_all(r - 1)


def test_n_r_base_cases():
    assert n_r(0, 16, 1) == 1
    assert n_r(1, 16, 1) == 0


def test_n_r_golden():
    assert n_r(2, 16, 1) == 255
    assert n_r(3, 16, 1) == 3570
    assert n_r(4, 16, 1) == 237405
    assert n_r(5, 9, 1) == 439600


def test_n_r_rejects_bad_e():
    with pytest.raises(ValueError):
        n_r(2, 16, 2)


PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
                   27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_closed_forms_across_q_and_e():
    for q in PRIME_POWERS_64:
        for e in range(1, q + 2):
            if (q + 1) % e:
                continue
            assert n_r(2, q, e) == n2_closed_form(q, e)
            assert n_r(3, q, e) == n3_closed_form(q, e)
            assert n_r(4, q, e) == n4_closed_form(q, e)
            assert n_r(5, q, e) == n5_closed_form(q, e)


def test_divisibility_by_group_order():
    for q in PRIME_POWERS_64:
        for e in range(1, q + 2):
            if (q + 1) % e:
                continue
            for r in range(2, 9):
                assert n_r(r, q, e) % (q * q - 1) == 0


def test_exactness_no_floats():
    # a value far beyond float precision must still be exact
    value = n_r(12, 64, 1)
    assert value % (64 * 64 - 1) == 0
    assert isinstance(value, int)
    recomputed = n_r(12, 64, 1)
    assert recomputed == value


def test_fraction_internals_visible_in_b_count():
    # B_j / j! is non-integral mid-formula; make sure the pieces are exact
    assert Fraction(b_count(3, 9), 6) == Fraction(28, 3)


def divisors_of_q_plus_1(q):
    return [e for e in range(1, q + 2) if (q + 1) % e == 0]


def binomial_n_r(q, e, rmax):
    """N_0..N_rmax from N_r = e^r q^-k sum_i C(k,i) (q-1)^(k-i) (qi-k)^r,
    k = (q+1)/e: the binomial expansion of (1 + f)^k, by plain powers of the
    nodes, independent of the triangle's Newton basis."""
    k = (q + 1) // e
    weights = [comb(k, i) * (q - 1) ** (k - i) for i in range(k + 1)]
    nodes = [e * (q * i - k) for i in range(k + 1)]
    powers = [1] * (k + 1)
    out = []
    for _ in range(rmax + 1):
        total = sum(w * x for w, x in zip(weights, powers))
        assert total % q**k == 0
        out.append(total // q**k)
        powers = [x * node for x, node in zip(powers, nodes)]
    return out


PARTITION_SUM_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64]


# "recurrence" in the next two names is the library's factorial-moment
# triangle, a recurrence in r; Miller's recurrence is `n_r_miller`.
@pytest.mark.parametrize("q", PARTITION_SUM_QS)
def test_recurrence_matches_partition_sum(q):
    for e in divisors_of_q_plus_1(q):
        for r in range(15):
            assert n_r(r, q, e) == n_r_partition_sum(r, q, e), (r, q, e)


@pytest.mark.parametrize("q,rmax", [(11, 15), (13, 15), (1024, 40)])
def test_recurrence_matches_binomial_form(q, rmax):
    for e in divisors_of_q_plus_1(q):
        assert [n_r(r, q, e) for r in range(rmax + 1)] == binomial_n_r(q, e, rmax), e


@pytest.mark.parametrize("e", [1, 5, 41])
def test_triangle_matches_miller_at_large_q(e):
    # the triangle and the closed-form solution share E[P_j(X)]; Miller's
    # recurrence over B_j does not read it, so it checks that identity
    moments._N_TABLES.clear()
    assert [n_r(r, 1024, e) for r in range(121)] == n_r_miller(1024, e, 120)


def test_table_fill_order_does_not_matter():
    cases = [(1024, 1), (1024, 41), (729, 5)]
    moments._N_TABLES.clear()
    descending = {}
    for q, e in cases:
        for r in (36, 5, 4, 3, 2, 1, 0):
            descending[q, e, r] = n_r(r, q, e)
    moments._N_TABLES.clear()
    for q, e in cases:
        ascending = [n_r(r, q, e) for r in range(37)]
        assert ascending == binomial_n_r(q, e, 36)
        for r in (36, 5, 4, 3, 2, 1, 0):
            assert descending[q, e, r] == ascending[r]


def test_n_r_rejects_negative_r():
    with pytest.raises(ValueError):
        n_r(-1, 16, 1)


def test_recurrence_refuses_inexact_division(monkeypatch):
    # integral B_j always give integral G_n; a B_j that is not an integer
    # must surface as an error, not be rounded away by the division by n
    monkeypatch.setattr(exact_reference, "b_count", lambda j, q: Fraction(1, 2))
    with pytest.raises(ArithmeticError):
        n_r_miller(16, 1, 3)


def test_nr_cli_prints_binomial_values_to_r60(capsys):
    assert cli.main(["nr", "--p", "2", "--m", "10", "--e", "1", "--rmax", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r  N_r"
    assert lines[1:] == [f"{r}  {v}" for r, v in enumerate(binomial_n_r(1024, 1, 60))]
