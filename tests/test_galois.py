import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihocodes import galois
from nihocodes.galois import (
    FieldBuildError,
    TableLimitExceeded,
    build_field,
    is_prime,
    prime_factors,
)

from conftest import field
from exact_reference import add, field_by_walk, frobenius, inv, mul, power, trace_to_prime

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 2), (7, 1)]
WALK_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 12), (3, 6), (3, 8), (5, 4), (7, 3), (97, 2)]


def test_gf4_build():
    ctx = field(2, 2)
    assert ctx.modulus_poly == (1, 1, 1)  # x^2 + x + 1, the only primitive choice
    assert ctx.order == 4
    g = ctx.generator
    assert power(ctx, g, 3) == 1
    assert power(ctx, g, 1) != 1 and power(ctx, g, 2) != 1


def test_gf4_arithmetic():
    ctx = field(2, 2)
    g = ctx.generator
    assert mul(ctx, g, power(ctx, g, 2)) == 1  # gamma has order 3
    assert add(ctx, g, g) == 0  # characteristic 2


def test_gf9_generator_order():
    ctx = field(3, 2)
    assert power(ctx, ctx.generator, 8) == 1
    for k in (1, 2, 4):
        assert power(ctx, ctx.generator, k) != 1


def test_gf81_order_by_direct_powering():
    # multiply out gamma^k step by step instead of using the pow table
    ctx = build_field(3, 4)
    acc = 1
    seen = {}
    for k in range(1, 81):
        acc = mul(ctx, acc, ctx.generator)
        seen[k] = acc
    assert seen[80] == 1
    assert seen[16] != 1
    assert seen[40] != 1


def test_build_rejections():
    with pytest.raises(FieldBuildError):
        build_field(4, 2)  # non-prime p
    with pytest.raises(FieldBuildError):
        build_field(2, 0)
    with pytest.raises(TableLimitExceeded):
        build_field(2, 5, table_limit=16)


def test_build_determinism():
    a = build_field(2, 4)
    b = build_field(2, 4)
    assert a == b and hash(a) == hash(b)
    assert a.exp.tolist() == b.exp.tolist()


def test_small_fields_are_kept():
    assert build_field(2, 4) is build_field(2, 4)
    assert build_field(3, 4, table_limit=81) is build_field(3, 4)
    assert 2**16 == galois.KEEP_ORDER and build_field(2, 16) is build_field(2, 16)


def test_table_limit_refuses_a_kept_field():
    kept = build_field(2, 4)
    with pytest.raises(TableLimitExceeded):
        build_field(2, 4, table_limit=8)
    assert build_field(2, 4) is kept


def test_large_fields_are_built_per_call():
    a, b = build_field(2, 17), build_field(2, 17)
    assert a == b and a is not b
    assert a.exp.tolist() == b.exp.tolist()


def test_kept_fields_are_few():
    galois._kept_field.cache_clear()
    first = build_field(2, 2)
    for k in range(3, 3 + galois._KEPT_FIELDS):
        build_field(2, k)
    assert build_field(2, 2) == first and build_field(2, 2) is not first
    assert galois._kept_field.cache_info().currsize == galois._KEPT_FIELDS


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (131, 2)])
def test_doubled_views_repeat_the_views(p, k):
    ctx = field(p, k)
    for doubled, view in ((ctx.trace2, ctx.trace), (ctx.packed_exp2, ctx.packed_exp)):
        assert doubled.dtype == view.dtype
        assert doubled.tolist() == view.tolist() * 2
        assert not doubled.flags.writeable
    assert ctx.trace2 is ctx.trace2


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (2, 8), (5, 2)])
def test_kept_constants(p, k):
    """The full and GF(q) domains as int64 arrays, and log theta: theta
    times any x in GF(q) has the trace of x down from GF(q)."""
    ctx = field(p, k)
    n = ctx.order - 1
    assert ctx.elements.dtype == ctx.half_subfield.dtype == np.int64
    assert ctx.elements.tolist() == [0] + ctx.exp.tolist()
    assert ctx.half_subfield.tolist() == ctx.subfield_elements(k // 2)
    assert not ctx.elements.flags.writeable and not ctx.half_subfield.flags.writeable
    assert 0 <= ctx.theta_log < n
    for x in ctx.half_subfield[1:].tolist():
        theta_x = int(ctx.exp[(ctx.theta_log + int(ctx.log[x])) % n])
        assert trace_to_prime(ctx, theta_x) == trace_to_prime(ctx, x, k // 2)
    with pytest.raises(ValueError):
        field(2, 3).theta_log


@pytest.mark.parametrize("p,k", WALK_FIELDS)
def test_build_matches_polynomial_walk(p, k):
    ctx = build_field(p, k)
    modulus, generator, exp, log = field_by_walk(p, k)
    assert ctx.modulus_poly == modulus
    assert ctx.generator == generator
    assert ctx.exp.tolist() == exp
    assert ctx.log.tolist() == log
    assert not ctx.exp.flags.writeable and not ctx.log.flags.writeable


@pytest.mark.parametrize("p,k", WALK_FIELDS)
def test_basis_traces_by_newton_identities(p, k):
    # the basis element p^j is gamma^j (gamma^0 = 1 when k = 1)
    ctx = field(p, k)
    expected = [trace_to_prime(ctx, p**j) for j in range(k)]
    assert galois._basis_traces(ctx.modulus_poly, p) == expected
    assert expected == [trace_to_prime(ctx, ctx.exp.item(j)) for j in range(k)]


def test_modulus_search_runs_once_per_field(monkeypatch):
    galois._find_primitive_modulus.cache_clear()
    galois._kept_field.cache_clear()
    tested = []
    has_full_order = galois._has_full_order
    monkeypatch.setattr(galois, "_has_full_order",
                        lambda *args: tested.append(args) or has_full_order(*args))
    first = build_field(5, 3)
    searched = len(tested)
    second = build_field(5, 3)
    assert searched >= 1 and len(tested) == searched
    assert first.modulus_poly == second.modulus_poly == field_by_walk(5, 3)[0]
    assert first.exp.tolist() == second.exp.tolist()


def test_log_exp_mutually_inverse():
    ctx = field(3, 2)
    assert len(ctx.exp) == ctx.order - 1
    for x in range(1, ctx.order):
        assert ctx.exp[ctx.log[x]] == x


def test_trace_examples():
    gf4 = field(2, 2)
    assert trace_to_prime(gf4, 0) == 0
    # gamma^2 = gamma + 1 under x^2+x+1, so gamma + gamma^2 = 1
    assert trace_to_prime(gf4, gf4.generator) == 1
    gf9 = field(3, 2)
    assert trace_to_prime(gf9, 1) == 2


def test_trace_rejects_elements_outside_subfield():
    ctx = field(2, 4)
    with pytest.raises(ValueError):
        trace_to_prime(ctx, ctx.generator, 2)
    with pytest.raises(ValueError):
        trace_to_prime(ctx, 1, 3)  # 3 does not divide 4


def test_subfield_membership():
    ctx = field(2, 4)
    g = ctx.generator
    assert ctx.is_subfield_element(power(ctx, g, 5), 2)  # gamma^5 has order 3
    assert not ctx.is_subfield_element(g, 2)
    assert ctx.is_subfield_element(0, 2)
    with pytest.raises(ValueError):
        ctx.is_subfield_element(1, 3)


def test_subfield_elements_fixed_by_frobenius():
    ctx = field(2, 4)
    sub = ctx.subfield_elements(2)
    assert len(sub) == 4
    for x in sub:
        assert power(ctx, x, 4) == x


def test_inversion_of_zero():
    ctx = field(2, 2)
    with pytest.raises(ZeroDivisionError):
        inv(ctx, 0)


def test_pow_zero_base():
    ctx = field(3, 2)
    assert power(ctx, 0, 5) == 0
    assert power(ctx, 0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        power(ctx, 0, -1)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_lagrange_order(p, k):
    ctx = field(p, k)
    for x in range(1, ctx.order):
        assert power(ctx, x, ctx.order - 1) == 1


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2), (2, 8), (3, 4)])
def test_trace_surjective_and_balanced(p, k):
    ctx = field(p, k)
    assert ctx.trace.tolist() == [trace_to_prime(ctx, x) for x in ctx.exp.tolist()]
    for sub in (d for d in range(1, k + 1) if k % d == 0):
        counts = {}
        for x in ctx.subfield_elements(sub):
            counts[trace_to_prime(ctx, x, sub)] = counts.get(trace_to_prime(ctx, x, sub), 0) + 1
        assert counts == {v: p ** (sub - 1) for v in range(p)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_field_laws(pk, data):
    ctx = field(*pk)
    elem = st.integers(0, ctx.order - 1)
    x, y, z = data.draw(elem), data.draw(elem), data.draw(elem)
    assert add(ctx, x, y) == add(ctx, y, x)
    assert mul(ctx, x, y) == mul(ctx, y, x)
    assert mul(ctx, x, add(ctx, y, z)) == add(ctx, mul(ctx, x, y), mul(ctx, x, z))
    assert mul(ctx, mul(ctx, x, y), z) == mul(ctx, x, mul(ctx, y, z))
    if x:
        assert mul(ctx, x, inv(ctx, x)) == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_frobenius_is_additive_and_multiplicative(pk, data):
    ctx = field(*pk)
    elem = st.integers(0, ctx.order - 1)
    x, y = data.draw(elem), data.draw(elem)
    fx, fy = frobenius(ctx, x), frobenius(ctx, y)
    assert frobenius(ctx, add(ctx, x, y)) == add(ctx, fx, fy)
    assert frobenius(ctx, mul(ctx, x, y)) == mul(ctx, fx, fy)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 4), (3, 2), (2, 2)]), st.data())
def test_trace_is_linear(pk, data):
    ctx = field(*pk)
    elem = st.integers(0, ctx.order - 1)
    x, y = data.draw(elem), data.draw(elem)
    assert (trace_to_prime(ctx, add(ctx, x, y))
            == (trace_to_prime(ctx, x) + trace_to_prime(ctx, y)) % ctx.p)


def test_is_prime_and_factors():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(255) == (3, 5, 17)
    assert prime_factors(80) == (2, 5)
