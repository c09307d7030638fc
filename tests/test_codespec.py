import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihocodes.codespec import (
    FAMILIES,
    CodeSpec,
    SpecValidationError,
    ValidatedSpec,
    admit_row,
    half_mod,
    validate_spec,
    _conjugates,
    _zero_set,
)

from exact_reference import cyclotomic_coset, validate_spec_per_point


def test_example1_exponents():
    s, d = _zero_set("f1", 2, 4, 2, 1, 2)
    assert s == (9, 11, 13)
    assert d == (136, 166, 196)


def test_exponents_f1_derived_small():
    # q = 4: the inverse of 2 mod 5 is 3, so s_0 = 3, s_1 = 1 + 3 = 4
    s, d = _zero_set("f1", 2, 2, 1, 1, 1)
    assert s == (3, 4)
    assert d == (10, 13)


def test_exponents_f1_t0_prefix():
    _, d = _zero_set("f1", 2, 4, 2, 1, 0)
    assert d == (136,)


def test_example2_exponents():
    s, d = _zero_set("f2", 3, 2, 3, 1, 3)
    assert s == (2, 5, 8)
    assert d == (17, 41, 65)


def test_exponents_f2_binary_halving():
    # p = 2, q = 4: (delta-h)/2 = 0, so s_1 = 1 and d_1 = 1*3 + 1 = 4
    s, d = _zero_set("f2", 2, 2, 1, 1, 1)
    assert s == (1,)
    assert d == (4,)


def test_exponents_f2_parity_rejection():
    with pytest.raises(SpecValidationError) as exc:
        _zero_set("f2", 3, 2, 2, 1, 1)
    assert exc.value.code == "parity"


def test_half_mod():
    assert half_mod(1, 17, 2) == 9  # 2*9 = 18 = 1 mod 17
    assert half_mod(-2, 10, 3) == 9  # exact halving of an even value
    with pytest.raises(SpecValidationError):
        half_mod(3, 10, 3)


def test_validate_example1():
    vs = validate_spec(CodeSpec("f1", 2, 4, 2, 1, 2))
    assert (vs.q, vs.e) == (16, 1)
    assert vs.dimension == 20
    assert vs.length == 255
    assert vs.exponents == (136, 166, 196)
    assert vs.coset_sizes == (4, 8, 8)


def test_validate_example2():
    vs = validate_spec(CodeSpec("f2", 3, 2, 3, 1, 3))
    assert (vs.q, vs.e) == (9, 1)
    assert vs.dimension == 12
    assert vs.length == 80
    assert vs.exponents == (17, 41, 65)


@pytest.mark.parametrize("spec,code", [
    (CodeSpec("f2", 3, 2, 2, 1, 1), "parity"),
    (CodeSpec("f2", 3, 2, 3, 2, 1), "delta_not_coprime"),  # even delta also breaks gcd(2,8)
    (CodeSpec("f1", 3, 2, 1, 1, 1), "f1_needs_p2"),
    (CodeSpec("f1", 4, 2, 1, 1, 1), "p_not_prime"),
    (CodeSpec("f1", 2, 2, 5, 1, 1), "h_zero_mod"),
    (CodeSpec("f1", 2, 2, 1, 3, 1), "delta_not_coprime"),
    (CodeSpec("f1", 2, 2, 1, 1, 3), "t_out_of_range"),
    (CodeSpec("f2", 2, 2, 1, 1, 0), "t_out_of_range"),
    (CodeSpec("f1", 2, 2, 1, 1, -1), "t_out_of_range"),
    (CodeSpec("bad", 2, 2, 1, 1, 1), "bad_family"),
])
def test_validate_rejections(spec, code):
    with pytest.raises(SpecValidationError) as exc:
        validate_spec(spec)
    assert exc.value.code == code


def _admission(admit, spec):
    """The validated spec, or the refusal's (code, message)."""
    try:
        return admit(spec)
    except SpecValidationError as exc:
        return exc.code, str(exc)


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_row_admission_matches_per_point_reference(p, m):
    """Over every h in 1..q+2, delta in 1..q and t in -1..(q+1)/2+1 of both
    families: validate_spec gives the per-point reference's spec or refusal,
    and the row admission, over t ranges that start and stop below, at and
    inside the window's ends and above it, gives the admitted specs in t
    order and as many refused t's as the reference."""
    q = p**m
    ts = range(-1, (q + 1) // 2 + 2)
    rows = 0
    for family in FAMILIES:
        for h in range(1, q + 3):
            for delta in range(1, q + 1):
                expected = {t: _admission(validate_spec_per_point,
                                          CodeSpec(family, p, m, h, delta, t)) for t in ts}
                for t in ts:
                    assert _admission(validate_spec, CodeSpec(family, p, m, h, delta, t)) \
                        == expected[t], (family, h, delta, t)
                admitted = [t for t in ts if isinstance(expected[t], ValidatedSpec)]
                ends = {ts.start, ts[-1]}
                for end in admitted[:1] + admitted[-1:]:
                    ends |= {end - 1, end, end + 1}
                ends = sorted(t for t in ends if t in ts)
                try:
                    row = admit_row(family, p, m, h, delta)
                except SpecValidationError as exc:
                    assert not admitted
                    assert all(expected[t] == (exc.code, str(exc)) for t in ts)
                    continue
                rows += 1
                for lo in ends:
                    for hi in (t for t in ends if t >= lo):
                        span = range(lo, hi + 1)
                        below, inside, above = row.split(span)
                        assert row.specs(inside) == [expected[t] for t in span if t in admitted]
                        assert len(below) + len(above) == sum(t not in admitted for t in span)
                        for t in (*below, *above):
                            refusal = row.refusal(t)
                            assert (refusal.code, str(refusal)) == expected[t]
    assert rows > 0


@pytest.mark.parametrize("family", ["f1", "f2", "f3"])
def test_validate_spec_matches_reference_on_invalid_fields(family):
    # every check before the field's own, and the field's, in the reference's order
    for p, m in [(0, 1), (1, 2), (4, 1), (6, 2), (2, 0), (3, -1), (2, 1), (3, 1)]:
        for h in range(-1, 4):
            for delta in range(-1, 4):
                for t in range(-1, 3):
                    spec = CodeSpec(family, p, m, h, delta, t)
                    assert _admission(validate_spec, spec) == \
                        _admission(validate_spec_per_point, spec), spec


def test_row_admission_of_a_wide_t_range_builds_only_the_window():
    row = admit_row("f1", 2, 2, 1, 1)
    below, inside, above = row.split(range(-5, 200001))
    assert (below, inside, above) == (range(-5, 0), range(0, 3), range(3, 200001))
    assert [vs.t for vs in row.specs(inside)] == [0, 1, 2]
    assert row.specs(range(0)) == []
    # odd p with an even h: t < 1 is out of range, every t >= 1 refused by parity
    row = admit_row("f2", 3, 2, 2, 1)
    assert row.window == range(1, 1)
    below, inside, above = row.split(range(-1, 6))
    assert (below, inside, above) == (range(-1, 1), range(1, 1), range(1, 6))
    assert [row.refusal(t).code for t in (-1, 0, 1, 5)] == [
        "t_out_of_range", "t_out_of_range", "parity", "parity"]


def test_cyclotomic_cosets():
    assert cyclotomic_coset(255, 2, 136) == frozenset({136, 17, 34, 68})
    assert cyclotomic_coset(255, 2, 0) == frozenset({0})
    assert len(cyclotomic_coset(80, 3, 17)) == 4
    with pytest.raises(ValueError):
        cyclotomic_coset(10, 2, 3)


def test_minpoly_degree_example1():
    # the minimal polynomial of d = s*15 + 1 in GF(256) has degree 4|{s, 1-s}|
    # s = 9 (d = 136): 2*9 = 18 = 1 = delta mod 17, so degree m
    assert 4 * len(_conjugates(9, 1, 16)) == len(cyclotomic_coset(255, 2, 136)) == 4
    # s = 11, 13 (d = 166, 196): 22 = 5 != 1 mod 17, so degree 2m
    assert 4 * len(_conjugates(11, 1, 16)) == len(cyclotomic_coset(255, 2, 166)) == 8
    assert 4 * len(_conjugates(13, 1, 16)) == len(cyclotomic_coset(255, 2, 196)) == 8


def test_minpoly_degree_example2_all_2m():
    # d = s*8 + 1 in GF(81) for s = 2, 5, 8
    for s, d in zip((2, 5, 8), (17, 41, 65)):
        assert 2 * len(_conjugates(s, 1, 9)) == len(cyclotomic_coset(80, 3, d)) == 4


def test_minpoly_same():
    assert _conjugates(11, 1, 16) != _conjugates(13, 1, 16)
    assert cyclotomic_coset(255, 2, 166) != cyclotomic_coset(255, 2, 196)
    # s = 5 and s' = 13: delta - s' = -12 = 5 mod 17
    d_a = (5 * 15 + 1) % 255
    d_b = (13 * 15 + 1) % 255
    assert _conjugates(5, 1, 16) == _conjugates(13, 1, 16)
    assert cyclotomic_coset(255, 2, d_a) == cyclotomic_coset(255, 2, d_b)


def _assert_rule_matches_cosets(vs, pairs=None):
    """The validated coset sizes and the conjugate-class rule against the
    enumerated cosets; `pairs` limits the O(t^2) check of shared cosets."""
    q, p, m = vs.q, vs.p, vs.m
    cosets = [cyclotomic_coset(vs.length, p, d) for d in vs.exponents]
    classes = [_conjugates(s, vs.delta, q) for s in vs.s_values]
    assert sum(vs.coset_sizes) == vs.dimension
    assert len(set(cosets)) == len(cosets)
    for i, (s, d) in enumerate(zip(vs.s_values, vs.exponents)):
        assert d % (q - 1) == vs.delta % (q - 1)
        assert d == (s * (q - 1) + vs.delta) % vs.length
        assert m * len(classes[i]) == vs.coset_sizes[i] == len(cosets[i])
    k = len(vs.exponents)
    for i, j in pairs if pairs is not None else ((i, j) for i in range(k) for j in range(k)):
        assert (classes[i] == classes[j]) == (cosets[i] == cosets[j])


def test_dimension_equals_coset_sum_everywhere():
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5)]:
        q = p**m
        for family in ("f1", "f2"):
            if family == "f1" and p != 2:
                continue
            for h in range(1, q + 1):
                for delta in (1, 3):
                    for t in range(0, q + 2):
                        try:
                            vs = validate_spec(CodeSpec(family, p, m, h, delta, t))
                        except SpecValidationError:
                            continue
                        _assert_rule_matches_cosets(vs)

    # the analyze-large fields: every t up to the bound for sampled (h, delta);
    # each t's exponents are a prefix of the largest t's, checked once in full
    rng = random.Random(14)
    for family, p, m in [("f1", 2, 10), ("f2", 3, 6), ("f2", 2, 8)]:
        q = p**m
        deltas = [d for d in range(1, 40) if math.gcd(d, q - 1) == 1 and (p == 2 or d % 2)]
        hs = [h for h in range(1, q + 1) if p == 2 or h % 2]
        for h, delta in zip(rng.sample(hs, 3), rng.sample(deltas, 3)):
            bound = (q + 1) // (2 * math.gcd(h, q + 1))
            specs = [validate_spec(CodeSpec(family, p, m, h, delta, t))
                     for t in range(0 if family == "f1" else 1, bound + 1)]
            top = specs[-1]
            for vs in specs:
                k = len(vs.exponents)
                assert vs.exponents == top.exponents[:k]
                assert vs.coset_sizes == top.coset_sizes[:k]
                assert sum(vs.coset_sizes) == vs.dimension
            k = len(top.exponents)
            pairs = [(i, i) for i in range(k)]
            pairs += [(rng.randrange(k), rng.randrange(k)) for _ in range(2000)]
            _assert_rule_matches_cosets(top, pairs)


def _random_niho_exponent(data, q, p):
    """(s, d = s(q-1) + delta mod q^2-1, delta) for a drawn s and delta."""
    deltas = [d for d in range(1, q) if math.gcd(d, q - 1) == 1]
    delta = data.draw(st.sampled_from(deltas))
    s = data.draw(st.integers(0, q))
    return s, (s * (q - 1) + delta) % (q * q - 1), delta


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(4, 2), (8, 2), (9, 3), (16, 2), (25, 5)]), st.data())
def test_minpoly_degree_matches_coset_size(qp, data):
    q, p = qp
    m = round(math.log(q, p))
    s, d, delta = _random_niho_exponent(data, q, p)
    assert m * len(_conjugates(s, delta, q)) == len(cyclotomic_coset(q * q - 1, p, d))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(4, 2), (8, 2), (9, 3), (16, 2), (25, 5)]), st.data())
def test_minpoly_same_matches_coset_equality(qp, data):
    q, p = qp
    s, d, delta = _random_niho_exponent(data, q, p)
    s2 = data.draw(st.integers(0, q))
    d2 = (s2 * (q - 1) + delta) % (q * q - 1)
    n = q * q - 1
    assert (_conjugates(s, delta, q) == _conjugates(s2, delta, q)) == (
        cyclotomic_coset(n, p, d) == cyclotomic_coset(n, p, d2))
