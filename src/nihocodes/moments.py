"""Exact evaluation of the tuple counts N_r.

N_r counts r-tuples of nonzero GF(q^2) elements whose defining power sums
all vanish.  With k = (q+1)/e it is a power-series coefficient,

    N_r = e^r G_r,   G_r = r! [x^r] (1 + f(x))^k,

where 1 + f(x) = (e^{(q-1)x} + (q-1)e^{-x})/q is the exponential generating
function of 1, 0, B_2, B_3, ...: B_j counts j-tuples of nonzero GF(q)
elements summing to zero (there is no such 1-tuple).  J.C.P. Miller's rule
for a power of a power series (Knuth, TAOCP vol. 2, 4.7), written for EGF
coefficients, gives the G_n in exact integers:

    G_0 = 1,   G_n = (1/n) sum_{j=2..n} ((k+1)j - n) C(n, j) B_j G_{n-j}.

Every G_n is an integer, so the division by n must be exact; a remainder
raises ArithmeticError instead of being rounded.  One table G_0..G_R per
(q, e) is kept and extended on demand, so all N_r of one (q, e) cost
O(R^2) integer operations in total.

Expanding the power binomially gives the closed form

    N_r = q^{-k} sum_{i=0..k} C(k, i) (q-1)^{k-i} (e(qi - k))^r,

and e(qi - k) = eqi - (q+1) is the solver's moment node i, with node k
equal to q^2 - 1.  N_r is thus the r-th moment of a binomial measure,
Bin(k, 1/q), carried on the same nodes as the moment system.
"""

from __future__ import annotations

from math import comb

# (q, e) -> [G_0, G_1, ...], extended by n_r as larger r is asked for.
_G_TABLES: dict[tuple[int, int], list[int]] = {}


def b_count(j: int, q: int) -> int:
    """Number of j-tuples of nonzero GF(q) elements summing to zero:
    ((q-1)^j + (-1)^j (q-1)) / q, always an integer."""
    if j < 2:
        raise ValueError(f"b_count needs j >= 2, got {j}")
    num = (q - 1) ** j + (-1) ** j * (q - 1)
    if num % q:
        raise ArithmeticError(f"b_count({j}, {q}) is not integral")
    return num // q


def n_r(r: int, q: int, e: int) -> int:
    """N_r for the given q and divisor e of q+1, from Miller's recurrence.
    N_0 = 1 and N_1 = 0."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if e < 1 or (q + 1) % e:
        raise ValueError(f"e = {e} does not divide q+1 = {q + 1}")
    g = _G_TABLES.setdefault((q, e), [1])
    if r >= len(g):
        k = (q + 1) // e
        b = [0, 0] + [b_count(j, q) for j in range(2, r + 1)]
        for n in range(len(g), r + 1):
            total = sum(((k + 1) * j - n) * comb(n, j) * b[j] * g[n - j]
                        for j in range(2, n + 1))
            value, rem = divmod(total, n)
            if rem:
                raise ArithmeticError(f"G_{n}(q={q}, e={e}) is not integral: {total}/{n}")
            g.append(value)
    return e**r * g[r]

