from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nihocodes import solver
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec
from nihocodes.solver import (
    ModelViolationError,
    WeightDistribution,
    b_vector,
    enumerator_string,
    moment_nodes,
    solve_bareiss,
    solve_lagrange,
    theoretical_weights,
    weight_distribution,
)

from exact_reference import (
    invert_exact,
    invert_lagrange,
    lagrange_numerators_direct,
    mds_freq_by_j,
    moment_rows,
    moment_size,
    parse_enumerator,
)

F = Fraction

# Golden 5x5 inverse for q = 16, e = 1, t = 2 (rows of the inverse of the
# matrix with entries (16j - 17)^i; row j holds the Lagrange coefficients
# of node 16j - 17).
INVERSE_Q16_T2 = (
    (F(-7285, 524288), F(-4807, 393216), F(1267, 786432), F(-23, 393216), F(1, 1572864)),
    (F(123845, 131072), F(-5701, 98304), F(-523, 196608), F(19, 98304), F(-1, 393216)),
    (F(24769, 262144), F(6225, 65536), F(35, 131072), F(-15, 65536), F(1, 262144)),
    (F(-3995, 131072), F(-2909, 98304), F(197, 196608), F(11, 98304), F(-1, 393216)),
    (F(2635, 524288), F(1897, 393216), F(-173, 786432), F(-7, 393216), F(1, 1572864)),
)

# Golden 6x6 inverse for q = 9, e = 1, t = 3 (nodes 9j - 10).  The (5,5)
# entry is forced: it equals 1/prod(35 - x_k) = 1/(45*36*27*18*9)
# = 1/7085880; beware the easy 1/708588 misreading, which makes the matrix
# fail to invert M.
INVERSE_Q9_T3 = (
    (F(-3094, 177147), F(-46357, 3542940), F(5695, 1417176), F(-497, 1417176),
     F(17, 1417176), F(-1, 7085880)),
    (F(154700, 177147), F(-46675, 354294), F(-667, 177147), F(1711, 1417176),
     F(-19, 354294), F(1, 1417176)),
    (F(38675, 177147), F(37675, 177147), F(-5167, 708588), F(-1099, 708588),
     F(67, 708588), F(-1, 708588)),
    (F(-18200, 177147), F(-16525, 177147), F(1852, 177147), F(649, 708588),
     F(-29, 354294), F(1, 708588)),
    (F(5950, 177147), F(21125, 708588), F(-5761, 1417176), F(-361, 1417176),
     F(49, 1417176), F(-1, 1417176)),
    (F(-884, 177147), F(-7759, 1771470), F(115, 177147), F(47, 1417176),
     F(-1, 177147), F(1, 7085880)),
)


def test_theoretical_weights_golden():
    assert theoretical_weights(2, 16, 1, 5) == (136, 128, 120, 112, 104)
    assert theoretical_weights(3, 9, 1, 6) == (60, 54, 48, 42, 36, 30)
    assert theoretical_weights(2, 16, 1, 1) == (136,)


def showcase_nodes(family, t, q, e):
    return moment_nodes(moment_size(family, t), q, e)


def inverse_by_solve(nodes):
    """The inverse of [node_j^i], column i solved from the unit vector e_i."""
    n = len(nodes)
    columns = [solve_lagrange(nodes, [int(i == k) for k in range(n)]) for i in range(n)]
    return tuple(zip(*columns))


def test_moment_matrix_structure():
    nodes = showcase_nodes("f1", 2, 16, 1)
    rows = moment_rows(nodes)
    assert len(rows) == 5
    assert rows[0] == (1, 1, 1, 1, 1)
    assert nodes == (-17, -1, 15, 31, 47)
    nodes2 = showcase_nodes("f2", 3, 9, 1)
    assert len(moment_rows(nodes2)) == 6
    assert nodes2 == (-10, -1, 8, 17, 26, 35)


def test_golden_inverse_q16():
    nodes = showcase_nodes("f1", 2, 16, 1)
    assert invert_exact(moment_rows(nodes)) == INVERSE_Q16_T2
    assert inverse_by_solve(nodes) == INVERSE_Q16_T2
    assert invert_lagrange(nodes) == INVERSE_Q16_T2


def test_golden_inverse_q9():
    nodes = showcase_nodes("f2", 3, 9, 1)
    rows = moment_rows(nodes)
    inv = invert_exact(rows)
    assert inv == INVERSE_Q9_T3
    assert inverse_by_solve(nodes) == INVERSE_Q9_T3
    assert invert_lagrange(nodes) == INVERSE_Q9_T3
    # definitional check: the computed matrix actually inverts M
    n = len(rows)
    for i in range(n):
        for j in range(n):
            acc = sum(inv[i][k] * rows[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


def test_b_vector_golden():
    assert b_vector(16, 1, 5) == (1048575, -255, 267321855, 3726834945, 244708934655)
    assert b_vector(9, 1, 6) == (531440, -80, 42508880, 297094960,
                                       11565711440, 230344663600)


def test_b_vector_leading_entry_is_code_size():
    # N_0 = 1 and (q^2-1)^0 = 1, so b_0 = scale - 1 = p^dimension - 1
    assert b_vector(16, 1, 5)[0] == 2**20 - 1
    assert b_vector(9, 1, 6)[0] == 3**12 - 1


def test_weight_distribution_example1(example1_spec):
    dist = weight_distribution(example1_spec)
    assert dist.freq_by_j == (353700, 377655, 250920, 30600, 35700)
    assert sum(dist.freq_by_j) == 2**20 - 1
    assert dist.entries == ((104, 35700), (112, 30600), (120, 250920),
                            (128, 377655), (136, 353700))


def test_weight_distribution_example2(example2_spec):
    dist = weight_distribution(example2_spec)
    assert dist.freq_by_j == (163584, 205040, 113760, 40320, 6720, 2016)
    assert sum(dist.freq_by_j) == 3**12 - 1


def test_weight_distribution_zero_frequency_is_dropped_but_reported():
    # q = 4, f2, t = 1: the simplex code in disguise; one theoretical weight
    # never occurs
    vs = validate_spec(CodeSpec("f2", 2, 2, 1, 1, 1))
    dist = weight_distribution(vs)
    assert dist.freq_by_j == (0, 15)
    assert dist.entries == ((8, 15),)
    assert dist.zero_frequency_weights == (10,)


def test_enumerator_strings(example1_spec, example2_spec):
    assert enumerator_string(weight_distribution(example1_spec)) == (
        "1+35700Y^104+30600Y^112+250920Y^120+377655Y^128+353700Y^136")
    assert enumerator_string(weight_distribution(example2_spec)) == (
        "1+2016Y^30+6720Y^36+40320Y^42+113760Y^48+205040Y^54+163584Y^60")


def test_enumerator_empty_distribution():
    dist = WeightDistribution(length=15, dimension=0, entries=(),
                              weights_by_j=(), freq_by_j=())
    assert enumerator_string(dist) == "1"


def test_enumerator_round_trip(example1_spec):
    dist = weight_distribution(example1_spec)
    assert parse_enumerator(enumerator_string(dist)) == dist.entries


def test_parse_enumerator_rejects_garbage():
    with pytest.raises(ValueError):
        parse_enumerator("2+3Y^4")
    with pytest.raises(ValueError):
        parse_enumerator("1+3Z^4")
    with pytest.raises(ValueError):
        parse_enumerator("1+3Y^9+2Y^4")


def test_solvers_verify_residual(example1_spec):
    rows = moment_rows(showcase_nodes("f1", 2, 16, 1))
    b = b_vector(16, 1, 5)
    mu = solve_bareiss(rows, b)
    for row, target in zip(rows, b):
        assert sum(r * x for r, x in zip(row, mu)) == target


def test_residual_certificate_rejects_a_wrong_solve(monkeypatch, example1_spec):
    # the true example-1 frequencies with one codeword moved from weight 104
    # to weight 136, and with one moved from weight 128 to weight 120: row 0
    # (the total) still holds in both, row 1 does not
    for wrong in [[353701, 377655, 250920, 30600, 35699],
                  [353700, 377654, 250921, 30600, 35700]]:
        monkeypatch.setattr(solver, "closed_form_frequencies", lambda q, e, n, mu=wrong: mu)
        with pytest.raises(AssertionError, match="residual nonzero in row 1"):
            weight_distribution(example1_spec)


def test_model_violation_carries_solution(monkeypatch):
    # a doctored system whose exact solution has a negative frequency: the
    # residual certificate passes, the sign check does not
    vs = validate_spec(CodeSpec("f1", 2, 2, 1, 1, 1))
    negative = [70, -10, 3]
    rows = moment_rows(moment_nodes(vs.moment_size, vs.q, vs.e))
    doctored_b = tuple(sum(r * f for r, f in zip(row, negative)) for row in rows)
    monkeypatch.setattr(solver, "b_vector", lambda q, e, n: doctored_b)
    monkeypatch.setattr(solver, "closed_form_frequencies", lambda q, e, n: negative)
    with pytest.raises(ModelViolationError,
                       match="frequencies are not non-negative integers for f1:2:2:1:1:1") as exc:
        weight_distribution(vs)
    assert exc.value.solution == (70, -10, 3)


def test_weight_distribution_large_parameters():
    # f1, q = 1024, t = 40: an 81 x 81 system with entries of thousands of
    # bits.  Rows 0..3 are recomputed from the binomial form
    # N_r = e^r q^-k sum_i C(k,i) (q-1)^(k-i) (qi-k)^r, k = (q+1)/e.
    vs = validate_spec(CodeSpec("f1", 2, 10, 1, 1, 40))
    q, e, t = vs.q, vs.e, vs.t
    dist = weight_distribution(vs)
    assert len(dist.weights_by_j) == len(dist.freq_by_j) == 81
    assert all(f >= 0 for f in dist.freq_by_j)
    assert sum(dist.freq_by_j) == 2**810 - 1
    k = (q + 1) // e
    nodes = [j * e * q - q - 1 for j in range(81)]
    for r in range(4):
        total = sum(comb(k, i) * (q - 1) ** (k - i) * (q * i - k) ** r for i in range(k + 1))
        n_r, rem = divmod(e**r * total, q**k)
        assert rem == 0
        lhs = sum(f * x**r for f, x in zip(dist.freq_by_j, nodes))
        assert lhs == q ** (2 * t + 1) * n_r - (q * q - 1) ** r


def test_row_one_moment_identity():
    # sum_j mu_j (jeq - q - 1) must equal the r = 1 right-hand side exactly
    for spec in [CodeSpec("f1", 2, 3, 1, 1, 3), CodeSpec("f2", 3, 2, 1, 1, 2)]:
        vs = validate_spec(spec)
        dist = weight_distribution(vs)
        nodes = moment_nodes(vs.moment_size, vs.q, vs.e)
        lhs = sum(f * x for f, x in zip(dist.freq_by_j, nodes))
        assert lhs == b_vector(vs.q, vs.e, vs.moment_size)[1]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bareiss_matches_lagrange_on_random_vandermonde(data):
    n = data.draw(st.integers(1, 6))
    nodes = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    rhs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    rows = [[x**i for x in nodes] for i in range(n)]
    assert solve_bareiss(rows, rhs) == solve_lagrange(nodes, rhs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_inverse_agrees_with_lagrange(data):
    n = data.draw(st.integers(1, 5))
    nodes = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
    rows = [[x**i for x in nodes] for i in range(n)]
    assert invert_exact(rows) == invert_lagrange(nodes)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
def test_lagrange_numerators_match_direct_construction(nodes):
    assert solver._lagrange_numerators(nodes) == lagrange_numerators_direct(nodes)


@pytest.mark.parametrize("q", [4, 9, 1024])
@pytest.mark.parametrize("e", [1, 5])
def test_lagrange_numerators_on_moment_nodes(q, e):
    # the nodes e(qj - k) are an arithmetic progression of step eq, so
    # prod_{k != j}(x_j - x_k) = (-1)^(n-1-j) j! (n-1-j)! (eq)^(n-1)
    for n in range(1, 42):
        nodes = moment_nodes(n, q, e)
        pairs = solver._lagrange_numerators(nodes)
        assert pairs == lagrange_numerators_direct(nodes)
        assert [den for _, den in pairs] == [
            (-1) ** (n - 1 - j) * factorial(j) * factorial(n - 1 - j) * (e * q) ** (n - 1)
            for j in range(n)]


def test_residual_certificate_checks_the_last_row(monkeypatch, example1_spec):
    # v_j = L / P'(x_j) has sum_j x_j^i v_j = 0 for i < n-1 (the leading
    # coefficients of the Lagrange interpolant of x^i) and L for i = n-1:
    # a wrong solve that only the last row of M mu = b can see
    true = weight_distribution(example1_spec).freq_by_j
    nodes = moment_nodes(example1_spec.moment_size, example1_spec.q, example1_spec.e)
    dens = [den for _, den in lagrange_numerators_direct(nodes)]
    common = lcm(*dens)
    v = [common // den for den in dens]
    n = len(nodes)
    rows = [sum(x**i * vj for x, vj in zip(nodes, v)) for i in range(n)]
    assert rows == [0] * (n - 1) + [common]
    wrong = [f + vj for f, vj in zip(true, v)]
    monkeypatch.setattr(solver, "closed_form_frequencies", lambda q, e, n: wrong)
    with pytest.raises(AssertionError, match="residual nonzero in row 4"):
        weight_distribution(example1_spec)


def one_spec_per_e(family, p, m, t):
    """One admissible spec for each e = gcd(h, q+1) that admits this t:
    h = e*u and delta are the smallest that validate."""
    q = p**m
    specs = []
    for e in range(1, q + 2):
        if (q + 1) % e or 2 * e * t > q + 1 or (p != 2 and e % 2 == 0):
            continue
        k = (q + 1) // e
        candidates = ((e * u, delta) for u in range(1, k) if gcd(u, k) == 1
                      for delta in range(1, q) if gcd(delta, q - 1) == 1)
        for h, delta in candidates:
            try:
                specs.append(validate_spec(CodeSpec(family, p, m, h, delta, t)))
                break
            except SpecValidationError:
                pass
    return specs


# the fields of the analyze-large benchmark workload, with every e that
# admits some of its t values
ANALYZE_STRATA = [("f1", 2, 10, {1, 5, 25, 41, 205}), ("f2", 3, 6, {1, 5, 73, 365}),
                  ("f2", 2, 8, {1})]
ANALYZE_T = (*range(1, 13), 14, 16, 18)


@pytest.mark.parametrize("family, p, m, all_e", ANALYZE_STRATA)
def test_solver_matches_mds_enumerator_at_large_q(family, p, m, all_e):
    checked = set()
    for t in ANALYZE_T:
        for vs in one_spec_per_e(family, p, m, t):
            assert weight_distribution(vs).freq_by_j == mds_freq_by_j(family, vs.q, vs.e, t)
            checked.add(vs.e)
    assert checked == all_e


def test_solver_matches_mds_enumerator_on_small_fields():
    count = 0
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5)]:
        for family in ("f1", "f2") if p == 2 else ("f2",):
            for t in range(0 if family == "f1" else 1, 6):
                for vs in one_spec_per_e(family, p, m, t):
                    assert weight_distribution(vs).freq_by_j == mds_freq_by_j(
                        family, vs.q, vs.e, t)
                    count += 1
    assert count > 50


def test_solver_matches_newton_closed_form_at_large_q():
    # every admissible h < 60 at delta = 1 on the analyze-large fields: the
    # closed form against a general solve of M mu = b, once per (q, e, n)
    checked, solved = 0, {}
    for family, p, m, _ in ANALYZE_STRATA:
        for t in range(0 if family == "f1" else 1, 19):
            for h in range(1, 60):
                try:
                    vs = validate_spec(CodeSpec(family, p, m, h, 1, t))
                except SpecValidationError:
                    continue
                q, e, n = key = vs.q, vs.e, vs.moment_size
                if key not in solved:
                    solved[key] = solve_lagrange(moment_nodes(n, q, e), b_vector(q, e, n))
                assert weight_distribution(vs).freq_by_j == solved[key]
                checked += 1
    assert checked == 2717
    assert len(solved) == 124


def test_solver_matches_mds_enumerator_q4096_t60():
    # a 121 x 121 system
    vs = validate_spec(CodeSpec("f1", 2, 12, 1, 1, 60))
    assert weight_distribution(vs).freq_by_j == mds_freq_by_j("f1", 4096, 1, 60)
