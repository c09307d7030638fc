"""Exact evaluation of the tuple counts N_r.

N_r counts r-tuples of nonzero GF(q^2) elements whose defining power sums
all vanish.  With k = (q+1)/e it has the binomial form

    N_r = q^{-k} sum_{i=0..k} C(k, i) (q-1)^{k-i} (e(qi - k))^r,

and e(qi - k) = eqi - (q+1) is the node x_i of `moment_nodes`, with node k
equal to q^2 - 1.  N_r is thus the r-th moment of a binomial measure,
Bin(k, 1/q), carried on the same nodes as the solver's moment system.  (Its
derivation as an EGF power, and Miller's recurrence for it, are the tests'
reference in `exact_reference`.)

In the Newton basis P_j(x) = prod_{l<j} (x - x_l) on those nodes the
measure's factorial moments are E[P_j(X)] = e^j k!/(k-j)!.  Write
x^r = sum_j T_{r,j} P_j(x) and keep u_j = e^j k!/(k-j)! T_{r,j}; then

    N_r = sum_j u_j,   u_j <- x_j u_j + e(k-j+1) u_{j-1}   (r -> r+1),

for j <= min(r+1, k), from u = [1] at r = 0, since x P_j = P_{j+1} + x_j P_j.
Every product has one small factor and nothing is divided.  One table per
(q, e) keeps N_0..N_R and the last row u, extended on demand, so all N_r of
one (q, e) cost O(R k) big x small operations in total; `n_row` reads a
prefix of that table in one call.
"""

from __future__ import annotations

from operator import add, mul

# (q, e) -> ([N_0, N_1, ...], u of the last row), extended by n_r as larger
# r is asked for.
_N_TABLES: dict[tuple[int, int], tuple[list[int], list[int]]] = {}


def moment_nodes(size: int, q: int, e: int) -> tuple[int, ...]:
    """The moment nodes x_j = eqj - (q+1), j < size."""
    return tuple(range(-q - 1, size * e * q - q - 1, e * q))


def n_r(r: int, q: int, e: int) -> int:
    """N_r for the given q and divisor e of q+1, by the factorial-moment
    triangle.  N_0 = 1 and N_1 = 0."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if e < 1 or (q + 1) % e:
        raise ValueError(f"e = {e} does not divide q+1 = {q + 1}")
    values, u = _N_TABLES.setdefault((q, e), ([1], [1]))
    if r >= len(values):
        k = (q + 1) // e
        top = min(r, k) + 1  # u_j = 0 for j > k
        nodes = moment_nodes(top, q, e)
        steps = [e * (k - j + 1) for j in range(top)]
        for _ in range(len(values), r + 1):
            u[:] = map(add, map(mul, nodes, u + [0]), map(mul, steps, [0] + u))
            values.append(sum(u))
    return values[r]


def n_row(q: int, e: int, n: int) -> tuple[int, ...]:
    """(N_0, ..., N_{n-1}): one slice of the (q, e) table, which `n_r` checks
    its arguments for and extends to r = n-1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    n_r(max(n - 1, 0), q, e)
    return tuple(_N_TABLES[q, e][0][:n])
