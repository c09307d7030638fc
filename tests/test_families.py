"""The library writes the zero set, the weights, the moment scale and the
power moments once, for (p, q, e, n); the paper states each once per
family.  These grids check the one against the other (the statements live
in exact_reference)."""

import math

from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec
from nihocodes.moments import n_r
from nihocodes.oracle import brute_distribution, power_moment_check
from nihocodes.solver import b_vector, theoretical_weights

from conftest import field
from exact_reference import (
    exponents_f1,
    exponents_f2,
    moment_scale,
    moment_size,
    power_moment_by_nodes,
    weight_f1,
    weight_f2,
)
from test_acceptance import PRIME_POWERS_64

# Fields whose small specs are swept for the power moments, and the largest
# sweep charged, p^dimension * (q^2-1).
SWEPT_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
SWEEP_COST = 10**7


def _field_of(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return p, round(math.log(q, p))


def _admitted(p: int, m: int, deltas):
    """Every admitted spec over GF(p^m) for h up to q and the given deltas."""
    q = p**m
    for family in ("f1", "f2") if p == 2 else ("f2",):
        for h in range(1, q + 1):
            for delta in deltas:
                for t in range(0 if family == "f1" else 1, (q + 1) // 2 + 1):
                    try:
                        yield validate_spec(CodeSpec(family, p, m, h, delta, t))
                    except SpecValidationError:
                        break  # every refusal here holds for all larger t too


def test_unified_formulas_match_family_statements():
    checked, formulas = 0, set()
    for q in PRIME_POWERS_64:
        p, m = _field_of(q)
        for vs in _admitted(p, m, range(1, 8)):
            f1 = vs.family == "f1"
            ref = (exponents_f1(m, vs.h, vs.delta, vs.t) if f1
                   else exponents_f2(p, m, vs.h, vs.delta, vs.t))
            assert (vs.s_values, vs.exponents) == ref, vs.key
            assert vs.moment_size == moment_size(vs.family, vs.t), vs.key
            # the GF(q) slots, those of coset size m, are f1's leading slot alone
            assert [i for i, size in enumerate(vs.coset_sizes) if size == m] == (
                [0] if f1 else []), vs.key
            assert moment_scale(vs.family, q, vs.t) == q**vs.moment_size == p**vs.dimension
            checked += 1
            key = (vs.family, p, q, vs.e, vs.t)
            if key in formulas:
                continue
            formulas.add(key)
            n = vs.moment_size
            assert theoretical_weights(p, q, vs.e, n) == tuple(
                weight_f1(q, vs.e, j) if f1 else weight_f2(p, q, vs.e, j) for j in range(n))
            assert b_vector(q, vs.e, n) == tuple(
                moment_scale(vs.family, q, vs.t) * n_r(i, q, vs.e) - (q * q - 1) ** i
                for i in range(n))
    assert (checked, len(formulas)) == (36228, 569)

    swept = {}
    for p, m in SWEPT_FIELDS:
        for vs in _admitted(p, m, (1, 3)):
            key = (vs.family, p, vs.q, vs.e, vs.t)
            if key not in swept and vs.codeword_count * vs.length <= SWEEP_COST:
                swept[key] = vs
    for vs in swept.values():
        dist = brute_distribution(vs, ctx=field(vs.p, 2 * vs.m))
        for r in range(1, vs.moment_size + 2):
            rep = power_moment_check(vs, r, dist)
            assert (rep.lhs, rep.rhs) == power_moment_by_nodes(vs, r, dist.freq_by_j)
            assert rep.ok or r >= vs.moment_size, (vs.key, r)
    assert len(swept) == 28
