"""Independent references for library computations.

`invert_exact` is Gauss-Jordan inversion on rationals, and `invert_lagrange`
the inverse from the Lagrange coefficients of `nihocodes.solver`'s
`_lagrange_numerators`; both are references for the inverse that
`solve_lagrange` gives on unit vectors.  `invert_exact` treats
the moment matrix, built here by `moment_rows` from the library's nodes (the
library builds no matrix), as a general square matrix and uses none of its
Vandermonde structure, so agreement with `invert_lagrange` on the golden
tables checks the closed form against plain elimination.
`lagrange_numerators_direct` builds each Lagrange basis numerator from
scratch, by n - 1 polynomial multiplications per node (O(n^3) in all), the
reference for the library's synthetic division of one master polynomial.
`taylor_shift_frequencies` solves the moment system in the Newton basis
term by term, the reference for the library's summed closed form.

`mds_freq_by_j` is the weight distribution from the MDS weight enumerator
(MacWilliams & Sloane, ch. 11, Thm 6).  On the unit circle a tuple's
root-counting polynomial, times a fixed power of u, takes values in GF(q),
and the tuples form a GF(q)-space of polynomials of degree < K (K = 2t+1
for f1, 2t for f2) evaluated at the N = (q+1)/e points of W: an MDS code
of length N, whose words with j zeros are the tuples of weight index j.
It uses neither N_r nor the moment system, so it checks the library's
closed-form solution at any q, far past the reach of enumeration.

`n_r_recursive` counts the r-tuples behind N_r one tuple at a time, the
reference for the meet-in-the-middle `nihocodes.oracle.n_r_brute`.  It walks
the first r-1 coordinates in plain Python, with no histograms and no numpy,
so agreement checks the halving, the convolutions and the matching of the
library's counter.  `n_r_unreduced` is the plain meet in the middle: both
halves start from the zero signature and add every one of the q^2-1
signatures at each step.  It is the reference for the library's counter,
whose larger half starts from one first coordinate per orbit of GF(q)*
scaling and Frobenius, weighted by the orbit's size.

`symbol_at` evaluates one codeword symbol with this module's scalar `add`,
`mul` and `trace_to_prime`, taking the f1 leading term's trace from GF(q) directly, and
`char_sum_direct` sums it over all of GF(q^2).  They are the scalar
reference for the array paths of `nihocodes.oracle`, whose positionwise
builder reads the field's trace view and whose root counter reads its
exp/log views.  `weight_from_char_sum` turns a character sum S into the
weight ((p-1)q^2 - S)/p, refusing an S that gives no integer, so that
character sums and weights of the two paths can be compared.

`field_by_walk` builds GF(p^k) the way the library once did, walking the
powers of gamma one interpreted polynomial multiply at a time, the
reference for `nihocodes.galois.build_field`, which fills its tables by
pointer doubling on the "times gamma" map.  It also finds the modulus
independently: a candidate is primitive when the walk of its gamma first
returns to 1 after p^k - 1 steps, where the library tests powers of gamma
against the prime factors of p^k - 1.

`add`, `mul`, `power`, `trace_to_prime`, `neg`, `inv` and `frobenius` are
scalar field operations on one element code at a time, which only the
tests use: the library's field has array views and no scalar arithmetic.
`trace_to_prime` sums the Frobenius conjugates, so it checks the field's
trace view, built from the modulus by Newton's identities, by another
route.  `mul` and `power` read the field's exp/log tables, and `add` works
digit by digit.

`n2_closed_form`..`n5_closed_form` are known low-order evaluations of N_r,
independent cross-checks of `nihocodes.moments.n_r`.  `n_r_miller` is a
second derivation of the whole row, the reference for the library's
factorial-moment triangle.  With k = (q+1)/e, N_r is a power-series
coefficient,

    N_r = e^r G_r,   G_r = r! [x^r] (1 + f(x))^k,

where 1 + f(x) = (e^{(q-1)x} + (q-1)e^{-x})/q is the exponential generating
function of 1, 0, B_2, B_3, ...: B_j, `b_count`, counts j-tuples of nonzero
GF(q) elements summing to zero (there is no such 1-tuple).  J.C.P. Miller's
rule for a power of a power series (Knuth, TAOCP vol. 2, 4.7), written for
EGF coefficients, gives the G_n in exact integers:

    G_0 = 1,   G_n = (1/n) sum_{j=2..n} ((k+1)j - n) C(n, j) B_j G_{n-j}.

Every G_n is an integer, so the division by n must be exact; a remainder
raises ArithmeticError instead of being rounded.  Expanding the power
binomially gives the library's binomial form, but the recurrence never
reads the moment nodes or the measure's factorial moments, which the
library's triangle and closed-form solution share.

`cyclotomic_coset` enumerates the orbit of an exponent under multiplication
by p, the reference for the minimal-polynomial rule of `nihocodes.codespec`:
`_conjugates` and the coset sizes of `validate_spec` read the coset
structure from s mod q+1 alone, and the tests compare that rule with the
enumerated cosets.

`pack` packs base-p codes digit by digit, W bits a digit, the reference for
`nihocodes.galois.packed_range` and the field's `packed_exp` view, which
are built by broadcast ORs and gathers.

The paper states its formulas once per family: f1 (p = 2, t+1 zeroes
from j = 0) and f2 (any p, t zeroes from j = 1).  `moment_size` gives the
system sizes 2t+1 and 2t, `exponents_f1` and `exponents_f2` derive the zero
sets, `weight_f1` and `weight_f2` the weights, `moment_scale` the scales
q^(2t+1) and q^(2t), and `power_moment_by_nodes` the two power-moment
identities, aggregated over the moment nodes as the paper writes them.
The library writes each once, for (p, q, e, n), and the tests check it
against these statements.

`validate_spec_per_point` admits one spec at a time: every check in order
at each (h, delta, t), then the zero set of that t alone, with the coset
sizes read from `_conjugates`.  It is the reference for the library's row
admission (`nihocodes.codespec.admit_row`), which runs the checks that do
not read t once per (h, delta), reads the t window by arithmetic and takes
each t's zero set as a prefix of the largest t's; `validate_spec` is its
one-t case.

`parse_enumerator` reads the text of `nihocodes.solver.enumerator_string`
back into (weight, frequency) pairs, for the round-trip test; the library
never reads an enumerator.

`report_dict` writes a `nihocodes.cli.AnalysisReport` as a JSON dict field
by field, and `report_text` renders it as `niho analyze` prints it.  They
are the references for the CLI's one report writer, `report_json`, which
assembles the JSON text from a spec and its solution's pre-encoded fields,
and for its text printer, which reads the spec and solution directly.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import numpy as np

from nihocodes.cli import SCHEMA_VERSION
from nihocodes.codespec import (
    FAMILIES,
    CodeSpec,
    SpecValidationError,
    ValidatedSpec,
    _conjugates,
    _zero_set,
    half_mod,
    validate_field,
)
from nihocodes.galois import adder, digit_bits, packed_dtype
from nihocodes.moments import n_r
from nihocodes.solver import _lagrange_numerators


def invert_exact(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan on rationals."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def invert_lagrange(nodes) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the matrix [node_j^i] from Lagrange basis coefficients."""
    n = len(nodes)
    out = []
    for num, den in _lagrange_numerators(nodes):
        row = [Fraction(num[i] if i < len(num) else 0, den) for i in range(n)]
        out.append(tuple(row))
    return tuple(out)


def lagrange_numerators_direct(nodes) -> list[tuple[list[int], int]]:
    """For each node x_j: coefficients of prod_{k != j}(x - x_k), ascending,
    and the denominator prod_{k != j}(x_j - x_k), each built from scratch."""
    out = []
    for j, xj in enumerate(nodes):
        num = [1]
        den = 1
        for k, xk in enumerate(nodes):
            if k == j:
                continue
            num = [0] + num
            for i in range(len(num) - 1):
                num[i] -= xk * num[i + 1]
            den *= xj - xk
        out.append((num, den))
    return out


def mds_freq_by_j(family: str, q: int, e: int, t: int) -> tuple[int, ...]:
    """Nonzero tuples with exactly j roots on W, j = 0..K-1, from the MDS
    weight enumerator of the length-N, dimension-K code over GF(q).

    For K <= N, freq_by_j[j] = A_{N-j} with d = N - K + 1 and
    A_w = C(N,w) sum_{i=0}^{w-d} (-1)^i C(w,i) (q^(w-d+1-i) - 1) for
    w >= d, 0 below.  For K > N every value vector is hit q^(K-N) times.
    """
    n = (q + 1) // e
    k = moment_size(family, t)
    if k > n:
        return tuple(comb(n, j) * (q - 1) ** (n - j) * q ** (k - n) - (j == n)
                     for j in range(k))
    d = n - k + 1

    def weight_count(w):
        if w < d:
            return 0
        return comb(n, w) * sum((-1) ** i * comb(w, i) * (q ** (w - d + 1 - i) - 1)
                                for i in range(w - d + 1))

    return tuple(weight_count(n - j) for j in range(k))


def n_r_recursive(vspec, r: int, ctx) -> int:
    """Number of r-tuples of nonzero GF(q^2) elements that satisfy every
    defining power-sum equation, by exhaustive iteration.

    Per-coordinate signature tables (the exponent powers of each element)
    are precomputed; the first r-1 coordinates are iterated and the last is
    resolved by an exact count of matching signatures: O(n^(r-1)) signature
    additions for n = q^2 - 1.
    """
    n = vspec.length
    exps = vspec.exponents
    sigs = [tuple(int(ctx.exp[(d * i) % n]) for d in exps) for i in range(n)]
    sig_counts = Counter(sigs)

    if vspec.p == 2:
        def add_sig(u, v):
            return tuple(a ^ b for a, b in zip(u, v))

        def neg_sig(u):
            return u
    else:
        add_code = [[add(ctx, x, y) for y in range(ctx.order)] for x in range(ctx.order)]
        neg_code = [neg(ctx, x) for x in range(ctx.order)]

        def add_sig(u, v):
            return tuple(add_code[a][b] for a, b in zip(u, v))

        def neg_sig(u):
            return tuple(neg_code[a] for a in u)

    if r == 1:
        return sig_counts.get((0,) * len(exps), 0)

    get = sig_counts.get

    def count_below(partial, depth):
        if depth == 0:
            return get(neg_sig(partial), 0)
        if depth == 1:
            return sum(get(neg_sig(add_sig(partial, s)), 0) for s in sigs)
        return sum(count_below(add_sig(partial, s), depth - 1) for s in sigs)

    return sum(count_below(s, r - 2) for s in sigs)


def n_r_unreduced(vspec, r: int, ctx) -> int:
    """N_r by the plain meet in the middle: the histograms A and B of the
    sums of ceil(r/2) and floor(r/2) signatures of nonzero elements, each
    grown from the zero signature one whole set of q^2-1 signatures at a
    time, and N_r = sum_s A[s] B[-s]."""
    n = vspec.length
    add_sig, neg_sig = adder(ctx.p, ctx.degree)
    powers = np.arange(n)
    sigs = np.stack([ctx.packed_exp[d * powers % n] for d in vspec.exponents], axis=1)

    def plus_one(keys, counts):
        sums = add_sig(keys[:, None, :], sigs[None, :, :]).reshape(-1, sigs.shape[1])
        keys, ids = np.unique(sums, axis=0, return_inverse=True)
        merged = np.zeros(len(keys), dtype=np.int64)
        np.add.at(merged, ids.ravel(), np.repeat(counts, n))
        return keys, merged

    halves = [(np.zeros((1, sigs.shape[1]), dtype=sigs.dtype), np.ones(1, dtype=np.int64))]
    while len(halves) <= (r + 1) // 2:
        halves.append(plus_one(*halves[-1]))
    keys_a, counts_a = halves[(r + 1) // 2]
    keys_b, counts_b = halves[r // 2]
    count_b = dict(zip(map(tuple, neg_sig(keys_b).tolist()), counts_b.tolist()))
    return sum(c * count_b.get(k, 0) for k, c in zip(map(tuple, keys_a.tolist()),
                                                        counts_a.tolist()))


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic of degree k, given as k+1 digits; a, b have length k.
    k = len(mod) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    return prod[:k]


def _code(digits: list[int], p: int) -> int:
    return sum(d * p**i for i, d in enumerate(digits))


def field_by_walk(p: int, k: int) -> tuple[tuple[int, ...], int, list[int], list[int]]:
    """(modulus digits, generator code, exp, log) of GF(p^k): the modulus
    is the lexicographically smallest monic degree-k polynomial (compared
    from the highest coefficient down) whose residue gamma of the
    indeterminate has order p^k - 1; exp[i] is the code of gamma^i and
    log[0] = -1."""
    order = p**k
    one = [1] + [0] * (k - 1)
    for n in range(1, order):
        if n % p == 0:  # zero constant term: the indeterminate divides it
            continue
        mod = [n // p**i % p for i in range(k)] + [1]
        gamma = [(-mod[0]) % p] if k == 1 else [0, 1] + [0] * (k - 2)
        exp, cur = [], one
        for _ in range(order - 1):
            exp.append(_code(cur, p))
            cur = _poly_mul_mod(cur, gamma, mod, p)
            if cur == one:
                break
        if len(exp) == order - 1:
            log = [-1] * order
            for i, c in enumerate(exp):
                log[c] = i
            return tuple(mod), _code(gamma, p), exp, log
    raise AssertionError(f"no primitive polynomial of degree {k} over GF({p})")


def _check(ctx, x: int) -> int:
    if not 0 <= x < ctx.order:
        raise ValueError(f"element code {x!r} outside GF({ctx.order})")
    return x


def add(ctx, x: int, y: int) -> int:
    """x + y, digit by digit (XOR for p = 2)."""
    _check(ctx, x)
    _check(ctx, y)
    if ctx.p == 2:
        return x ^ y
    p, out, mult = ctx.p, 0, 1
    while x or y:
        x, dx = divmod(x, p)
        y, dy = divmod(y, p)
        out += ((dx + dy) % p) * mult
        mult *= p
    return out


def mul(ctx, x: int, y: int) -> int:
    _check(ctx, x)
    _check(ctx, y)
    if x == 0 or y == 0:
        return 0
    return ctx.exp.item((ctx.log.item(x) + ctx.log.item(y)) % (ctx.order - 1))


def power(ctx, x: int, k: int) -> int:
    _check(ctx, x)
    if x == 0:
        if k > 0:
            return 0
        if k == 0:
            return 1
        raise ZeroDivisionError("negative power of zero")
    return ctx.exp.item((ctx.log.item(x) * k) % (ctx.order - 1))


def trace_to_prime(ctx, x: int, from_degree: int | None = None) -> int:
    """Sum of Frobenius conjugates x + x^p + ... down to GF(p).

    from_degree names the subfield x is claimed to live in; it must
    divide the field degree and x must actually lie there.
    """
    if from_degree is None:
        from_degree = ctx.degree
    if ctx.degree % from_degree:
        raise ValueError(f"degree {from_degree} does not divide {ctx.degree}")
    if not ctx.is_subfield_element(x, from_degree):
        raise ValueError(f"element {x} is not in the degree-{from_degree} subfield")
    acc = 0
    y = x
    for _ in range(from_degree):
        acc = add(ctx, acc, y)
        y = power(ctx, y, ctx.p)
    if acc >= ctx.p:
        raise AssertionError("trace left the prime field")
    return acc


def neg(ctx, x: int) -> int:
    """-x, digit by digit."""
    _check(ctx, x)
    if ctx.p == 2:
        return x
    p, out, mult = ctx.p, 0, 1
    while x:
        x, dx = divmod(x, p)
        out += ((-dx) % p) * mult
        mult *= p
    return out


def inv(ctx, x: int) -> int:
    _check(ctx, x)
    if x == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return int(ctx.exp[-ctx.log[x] % (ctx.order - 1)])


def frobenius(ctx, x: int, i: int = 1) -> int:
    return power(ctx, x, ctx.p**i)


def cyclotomic_coset(modulus: int, p: int, exponent: int) -> frozenset[int]:
    """Orbit of exponent under multiplication by p mod modulus."""
    if gcd(p, modulus) != 1:
        raise ValueError(f"p = {p} shares a factor with modulus {modulus}")
    exponent %= modulus
    coset = {exponent}
    x = exponent * p % modulus
    while x != exponent:
        coset.add(x)
        x = x * p % modulus
    return frozenset(coset)


def taylor_shift_frequencies(q: int, e: int, n: int) -> list[int]:
    """mu_j = sum_{i>=j} (-1)^(i-j) C(i,j) G_i, G_i = C(k,i) (q^(n-i) - 1),
    k = (q+1)/e: the Newton-basis solution of the moment system by a term-
    by-term Taylor shift, the reference for the summed closed form of
    `nihocodes.solver.closed_form_frequencies`."""
    k = (q + 1) // e
    g = [comb(k, i) * (q ** (n - i) - 1) for i in range(n)]
    return [sum((-1) ** (i - j) * comb(i, j) * g[i] for i in range(j, n)) for j in range(n)]


def moment_rows(nodes) -> list[tuple[int, ...]]:
    """The moment matrix [node_j^i], row i holding the i-th powers."""
    return [tuple(x**i for x in nodes) for i in range(len(nodes))]


def symbol_at(vspec, a, ctx, i: int) -> int:
    """Symbol i of the codeword of coefficient tuple a."""
    n = vspec.length
    if vspec.family == "f1":
        head = mul(ctx, a[0], int(ctx.exp[(vspec.exponents[0] * i) % n]))
        sym = trace_to_prime(ctx, head, vspec.m)
        rest_exps = vspec.exponents[1:]
        rest = a[1:]
    else:
        sym = 0
        rest_exps = vspec.exponents
        rest = a
    acc = 0
    for coeff, d in zip(rest, rest_exps):
        acc = add(ctx, acc, mul(ctx, coeff, int(ctx.exp[(d * i) % n])))
    return (sym + trace_to_prime(ctx, acc)) % vspec.p


def char_sum_direct(vspec, a, ctx) -> int:
    """Character sum by positionwise summation over all of GF(q^2): counts
    zero symbols Z (the origin included) and returns p*Z - q^2."""
    zeros = 1  # the x = 0 term
    for i in range(vspec.length):
        if symbol_at(vspec, a, ctx, i) == 0:
            zeros += 1
    return vspec.p * zeros - vspec.q * vspec.q


def weight_from_char_sum(vspec, s: int) -> int:
    q, p = vspec.q, vspec.p
    num = q * q * (p - 1) - s
    if num % p:
        raise ValueError(f"character sum {s} is not a valid value for {vspec.key}")
    return num // p


def b_count(j: int, q: int) -> int:
    """Number of j-tuples of nonzero GF(q) elements summing to zero:
    ((q-1)^j + (-1)^j (q-1)) / q, always an integer."""
    if j < 2:
        raise ValueError(f"b_count needs j >= 2, got {j}")
    num = (q - 1) ** j + (-1) ** j * (q - 1)
    if num % q:
        raise ArithmeticError(f"b_count({j}, {q}) is not integral")
    return num // q


def n_r_miller(q: int, e: int, rmax: int) -> list[int]:
    """N_0..N_rmax for the given q and divisor e of q+1, from Miller's
    recurrence (see the module docstring)."""
    k = (q + 1) // e
    b = [0, 0] + [b_count(j, q) for j in range(2, rmax + 1)]
    g = [1]
    for n in range(1, rmax + 1):
        total = sum(((k + 1) * j - n) * comb(n, j) * b[j] * g[n - j]
                    for j in range(2, n + 1))
        value, rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"G_{n}(q={q}, e={e}) is not integral: {total}/{n}")
        g.append(value)
    return [e**r * gr for r, gr in enumerate(g)]


def n2_closed_form(q: int, e: int) -> int:
    return e * (q * q - 1)


def n3_closed_form(q: int, e: int) -> int:
    return e * e * (q - 2) * (q * q - 1)


def n4_closed_form(q: int, e: int) -> int:
    return e * e * (q * q - 1) * ((e + 3) * q * q - 6 * e * q + 6 * e - 3)


def n5_closed_form(q: int, e: int) -> int:
    return (e**4 * (q * q - 1) * (q * q - 2 * q + 2) * (q - 2)
            + 10 * e**3 * (q * q - 1) * (q - 1) * (q - 2) * (q + 1 - e))


def pack(codes, p: int, k: int) -> np.ndarray:
    """Base-p codes below p^k in packed form (for odd p in packed_dtype(p, k))."""
    if p == 2:
        return np.asarray(codes)
    rest, out = np.asarray(codes), 0
    for i in range(k):
        rest, digit = np.divmod(rest, p)
        out = out | digit.astype(packed_dtype(p, k)) << digit_bits(p) * i
    return out


def exponents_f1(m: int, h: int, delta: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(s_0..s_t, d_0..d_t) for the binary family, canonical residues:
    s_j = j*h + delta/2 mod q+1."""
    q = 2**m
    n = q * q - 1
    half = half_mod(delta % (q + 1), q + 1, 2)
    s_values = tuple((j * h + half) % (q + 1) for j in range(t + 1))
    exponents = tuple((s * (q - 1) + delta) % n for s in s_values)
    return s_values, exponents


def exponents_f2(p: int, m: int, h: int, delta: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(s_1..s_t, d_1..d_t) for the p-ary family, canonical residues:
    s_j = j*h + (delta-h)/2 mod q+1."""
    q = p**m
    n = q * q - 1
    if p == 2:
        half = half_mod((delta - h) % (q + 1), q + 1, 2)
    else:
        if delta % 2 == 0:
            raise SpecValidationError("parity", f"delta must be odd for odd p, got {delta}")
        if h % 2 == 0:
            raise SpecValidationError("parity", f"h must be odd for odd p, got {h}")
        half = half_mod(delta - h, q + 1, p)
    s_values = tuple((j * h + half) % (q + 1) for j in range(1, t + 1))
    exponents = tuple((s * (q - 1) + delta) % n for s in s_values)
    return s_values, exponents


def moment_size(family: str, t: int) -> int:
    """The moment system size, the number of possible nonzero weights: 2t+1
    for f1, 2t for f2."""
    return 2 * t + 1 if family == "f1" else 2 * t


def weight_f1(q: int, e: int, j: int) -> int:
    """f1: w_j = (q^2 - (je-1)q)/2."""
    return (q * q - (j * e - 1) * q) // 2


def weight_f2(p: int, q: int, e: int, j: int) -> int:
    """f2: w_j = (p-1)/p * (q^2 - (je-1)q)."""
    return (p - 1) * (q * q - (j * e - 1) * q) // p


def moment_scale(family: str, q: int, t: int) -> int:
    """The right-hand side's scale: q^(2t+1) for f1, q^(2t) for f2."""
    return q ** moment_size(family, t)


def power_moment_by_nodes(vspec, r: int, freq_by_j) -> tuple[int, int]:
    """(lhs, rhs) of the r-th power moment identity as stated per family,

        f1:  sum over all tuples of (S(a)-1)^r        = q^(2t+1) N_r
        f2:  sum over all tuples of (S(a)-(p-1))^r    = (p-1)^r q^(2t) N_r

    aggregated over the moment nodes: a tuple with j roots on W has
    S(a) - (p-1) = (p-1)(jeq - q - 1), and the zero tuple (p-1)(q^2-1).
    freq_by_j counts the nonzero tuples by j."""
    q, e, p, t = vspec.q, vspec.e, vspec.p, vspec.t
    core = (q * q - 1) ** r
    for j, f in enumerate(freq_by_j):
        core += f * (j * e * q - q - 1) ** r
    rhs = moment_scale(vspec.family, q, t) * n_r(r, q, e)
    if vspec.family == "f1":
        return core, rhs
    return (p - 1) ** r * core, (p - 1) ** r * rhs


def parse_enumerator(text: str) -> tuple[tuple[int, int], ...]:
    """Inverse of enumerator_string: (weight, frequency) pairs, ascending."""
    terms = text.split("+")
    if terms[0] != "1":
        raise ValueError(f"enumerator must start with 1, got {text!r}")
    out = []
    for term in terms[1:]:
        freq, _, weight = term.partition("Y^")
        if not weight:
            raise ValueError(f"malformed enumerator term {term!r}")
        out.append((int(weight), int(freq)))
    if out != sorted(out):
        raise ValueError("enumerator weights are not ascending")
    return tuple(out)


def validate_spec_per_point(raw: CodeSpec) -> ValidatedSpec:
    """Admit one spec at a time: every check in order, then the zero set of
    this t alone, its coset sizes read from `_conjugates`."""
    if raw.family not in FAMILIES:
        raise SpecValidationError("bad_family", f"family must be one of {FAMILIES}, got {raw.family!r}")
    validate_field(raw.p, raw.m)
    if raw.h < 1:
        raise SpecValidationError("bad_h", f"h must be >= 1, got {raw.h}")
    if raw.delta < 1:
        raise SpecValidationError("bad_delta", f"delta must be >= 1, got {raw.delta}")

    q = raw.p**raw.m
    if math.gcd(raw.delta, q - 1) != 1:
        raise SpecValidationError(
            "delta_not_coprime", f"gcd(delta, q-1) = gcd({raw.delta}, {q - 1}) != 1")
    if raw.h % (q + 1) == 0:
        raise SpecValidationError("h_zero_mod", f"h = {raw.h} is 0 mod q+1 = {q + 1}")
    e = math.gcd(raw.h, q + 1)

    if raw.family == "f1":
        if raw.p != 2:
            raise SpecValidationError("f1_needs_p2", "family f1 requires p = 2")
        if raw.t < 0:
            raise SpecValidationError("t_out_of_range", f"t must be >= 0, got {raw.t}")
    else:
        if raw.t < 1:
            raise SpecValidationError("t_out_of_range", f"family f2 requires t >= 1, got {raw.t}")
        if raw.p != 2 and (raw.delta % 2 == 0 or raw.h % 2 == 0):
            raise SpecValidationError(
                "parity", f"odd p requires odd delta and h, got delta={raw.delta}, h={raw.h}")
    if 2 * e * raw.t > q + 1:
        raise SpecValidationError(
            "t_out_of_range",
            f"t = {raw.t} exceeds (q+1)/(2e) = {(q + 1)}/{2 * e}")

    s_values, exponents = _zero_set(raw.family, raw.p, raw.m, raw.h, raw.delta, raw.t)
    coset_sizes = tuple(raw.m * len(_conjugates(s, raw.delta, q)) for s in s_values)
    return ValidatedSpec(
        family=raw.family, p=raw.p, m=raw.m, h=raw.h, delta=raw.delta, t=raw.t,
        q=q, e=e, s_values=s_values, exponents=exponents,
        coset_sizes=coset_sizes, length=q * q - 1, dimension=sum(coset_sizes),
    )


def report_dict(report) -> dict:
    """The report as a JSON-serializable dict: big integers as decimal
    strings, one weight entry per j."""
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": {"family": report.spec.family, "p": report.spec.p, "m": report.spec.m,
                 "h": report.spec.h, "delta": report.spec.delta, "t": report.spec.t},
        "q": report.q,
        "e": report.e,
        "s_values": list(report.s_values),
        "exponents": list(report.exponents),
        "coset_sizes": list(report.coset_sizes),
        "length": report.length,
        "dimension": report.dimension,
        "n_values": [str(v) for v in report.n_values],
        "weights": [
            {"j": j, "weight": w, "frequency": str(f)}
            for j, (w, f) in enumerate(zip(report.weights_by_j, report.freq_by_j))
        ],
        "zero_frequency_weights": list(report.zero_frequency_weights),
        "enumerator": report.enumerator,
    }


def report_text(report) -> str:
    """The text `niho analyze` prints for the report, newline-terminated."""
    s = report.spec
    exps = ", ".join(f"{d} (coset size {c})"
                     for d, c in zip(report.exponents, report.coset_sizes))
    lines = [
        f"family {s.family}  p={s.p} m={s.m} h={s.h} delta={s.delta} t={s.t}",
        f"q = {report.q}  e = {report.e}  length = {report.length}  "
        f"dimension = {report.dimension}",
        f"s-values: {', '.join(map(str, report.s_values))}",
        f"exponents: {exps}",
        f"N_r: {', '.join(map(str, report.n_values))}",
        "weights (j, weight, frequency):",
        *(f"  {j:2d}  {w:6d}  {f}"
          for j, (w, f) in enumerate(zip(report.weights_by_j, report.freq_by_j))),
        f"weight enumerator: {report.enumerator}",
    ]
    return "\n".join(lines) + "\n"
