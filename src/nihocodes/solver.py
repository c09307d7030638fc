"""Exact moment system and weight distribution.

The weight frequencies mu_j solve M mu = b where M is the Vandermonde-type
matrix with entries (j*e*q - q - 1)^i and b_i = q^n N_i - (q^2-1)^i, for
i, j < n, where n is the moment system size, `ValidatedSpec.moment_size`;
the scale q^n is p^dimension.  M is never built: the library holds only
its nodes, moment_nodes.  The nodes x_j = e(qj - k), k = (q+1)/e, are also
the support of the binomial measure Bin(k, 1/q) whose r-th moment is N_r
(see `moments`); node k is q^2 - 1, the node of the (q^2-1)^i term.

So the system has a closed-form solution.  Take the Newton basis
P_i(x) = prod_{l<i} (x - x_l) on the nodes.  Combining the rows of
M mu = b into P_i gives sum_j P_i(x_j) mu_j = q^n E[P_i(X)] - P_i(x_k),
X binomial as above, and on the equally spaced nodes

    P_i(x_j) = (eq)^i i! C(j,i),  E[P_i(X)] = e^i k!/(k-i)!,
    P_i(x_k) = (eq)^i k!/(k-i)!.

Dividing by (eq)^i i! leaves

    G_i = sum_{j>=i} C(j,i) mu_j = C(k,i) (q^(n-i) - 1),

mu in the basis (1 + y)^j, and a Taylor shift by -1 gives mu back, an
integer vector.  `closed_form_frequencies` builds G by running products
and shifts it: O(n^2) additions, and only exact divisions.

The nodes are distinct, so M is invertible, and an exact residual check of
M mu = b on every row, `check_residual`, certifies that mu is the unique
solution.  It builds no matrix: row i sums v_j = x_j^i mu_j, and v is
multiplied by the nodes for the next row, O(n^2) big x small products in
all.  `b_vector` reads N_r from the factorial-moment triangle of `moments`,
so the check compares two computations that share one identity,
E[P_i(X)] = e^i k!/(k-i)!: the closed form (running binomials and a Taylor
shift) and the triangle (running powers in the Newton basis).  A fault in
either is caught on every row; the identity itself is checked by the tests
against Miller's recurrence, the partition sum, the binomial form and the
brute count.  Non-negativity of the result is checked after it.

`solve_lagrange` (Lagrange coefficients from one master polynomial) and
`solve_bareiss` (fraction-free elimination) have no library caller; they are
the tests' general solves of M mu = b, the references for the closed form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .codespec import ValidatedSpec
from .moments import moment_nodes, n_r


class ModelViolationError(ArithmeticError):
    """The exact solution has a negative frequency.

    Carries the full integer solution; this signals parameters outside the
    validity of the frequency model, or a bug.
    """

    def __init__(self, message: str, solution: tuple[int, ...]):
        super().__init__(message)
        self.solution = solution


def weight_for_index(p: int, q: int, e: int, j: int) -> int:
    """w_j = (p-1)/p * (q^2 - (je-1)q), the weight of a codeword whose
    root-counting polynomial has j roots on W ((q^2 - (je-1)q)/2 for f1,
    where p = 2)."""
    return (p - 1) * (q * q - (j * e - 1) * q) // p


def theoretical_weights(p: int, q: int, e: int, n: int) -> tuple[int, ...]:
    """Possible nonzero weights w_j, j = 0..n-1, n the moment system size,
    ascending in j (weights descending)."""
    return tuple(weight_for_index(p, q, e, j) for j in range(n))


def b_vector(q: int, e: int, n: int) -> tuple[int, ...]:
    """b_i = q^n N_i - (q^2-1)^i for i < n, n the moment system size."""
    scale = q**n
    return tuple(scale * n_r(i, q, e) - (q * q - 1) ** i for i in range(n))


def closed_form_frequencies(q: int, e: int, n: int) -> list[int]:
    """mu_j, j < n, from G_i = C(k,i) (q^(n-i) - 1), k = (q+1)/e, and a
    Taylor shift by -1 (see the module docstring).

    C(k,i) and q^(n-i) are running products, each step one exact division.
    """
    k = (q + 1) // e
    g = []
    binom, power = 1, q**n
    for i in range(n):
        g.append(binom * (power - 1))
        binom = binom * (k - i) // (i + 1)
        power //= q
    # Taylor shift by -1: mu_j = sum_{i>=j} (-1)^(i-j) C(i,j) G_i
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            g[j] -= g[j + 1]
    return g


def check_residual(nodes, rhs, mu) -> None:
    """Raise AssertionError unless sum_j x_j^i mu_j = rhs_i on every row i.

    Row by row, with v_j = x_j^i mu_j kept as running powers; no matrix is
    built.
    """
    v = list(mu)
    for i, bi in enumerate(rhs):
        if sum(v) != bi:
            raise AssertionError(f"residual nonzero in row {i}")
        v = list(map(operator.mul, v, nodes))


def solve_bareiss(rows, rhs) -> tuple[Fraction, ...]:
    """Exact solve of a square integer system by fraction-free elimination
    (Bareiss) followed by rational back-substitution.

    A reference for closed_form_frequencies in the tests, on the matrix
    built there; nothing in the library calls it, and it stays here while
    the benchmark traces it.
    """
    n = len(rows)
    aug = [list(map(int, rows[i])) + [int(rhs[i])] for i in range(n)]
    prev = 1
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col]
            for c in range(col + 1, n + 1):
                aug[r][c] = (aug[r][c] * piv - factor * aug[col][c]) // prev
            aug[r][col] = 0
        prev = piv
    sol = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        if aug[r][r] == 0:
            raise ZeroDivisionError("singular matrix")
        acc = Fraction(aug[r][n])
        for c in range(r + 1, n):
            acc -= aug[r][c] * sol[c]
        sol[r] = acc / aug[r][r]
    return tuple(sol)


def _lagrange_numerators(nodes) -> list[tuple[list[int], int]]:
    """For each node x_j: coefficients of prod_{k != j}(x - x_k) and the
    denominator prod_{k != j}(x_j - x_k).

    The master polynomial P = prod_k (x - x_k) is built once; each
    numerator is P / (x - x_j) by synthetic division, and its value at x_j,
    P'(x_j), is the denominator.  Only solve_lagrange and the tests'
    invert_lagrange use it.
    """
    master = [1]
    for xk in nodes:
        master = [0] + master
        for i in range(len(master) - 1):
            master[i] -= xk * master[i + 1]
    n = len(nodes)
    out = []
    for xj in nodes:
        num = [0] * n
        acc = 1
        for i in range(n - 1, 0, -1):
            num[i] = acc
            acc = master[i] + xj * acc
        num[0] = acc
        den = 0
        for c in reversed(num):
            den = den * xj + c
        out.append((num, den))
    return out


def solve_lagrange(nodes, rhs) -> tuple[Fraction, ...]:
    """Exact solve of sum_j x_j^i mu_j = b_i via Lagrange coefficients: the
    inverse matrix row for node x_j is the coefficient vector of its basis
    polynomial.

    The tests' reference for closed_form_frequencies, and for the inverse
    on any distinct nodes; nothing in the library calls it, and it stays
    here while the benchmark traces it.
    """
    if len(set(nodes)) != len(nodes):
        raise ZeroDivisionError("repeated interpolation nodes")
    sol = []
    for num, den in _lagrange_numerators(nodes):
        acc = sum(map(operator.mul, num, rhs))
        sol.append(Fraction(acc, den))
    return tuple(sol)


@dataclass(frozen=True)
class WeightDistribution:
    """Sorted (weight, frequency) pairs for the nonzero codewords.

    `entries` lists only weights with nonzero frequency, ascending; the full
    frequency vector indexed by j (including zero entries) is kept as
    diagnostics and excluded from equality.
    """

    length: int
    dimension: int
    entries: tuple[tuple[int, int], ...]
    weights_by_j: tuple[int, ...] = field(compare=False)
    freq_by_j: tuple[int, ...] | None = field(compare=False)

    @property
    def zero_frequency_weights(self) -> tuple[int, ...]:
        if self.freq_by_j is None:
            return ()
        return tuple(w for w, f in zip(self.weights_by_j, self.freq_by_j) if f == 0)


def weight_distribution(vspec: ValidatedSpec) -> WeightDistribution:
    """The moment system's solution in closed form, with the distribution.

    The closed form is certified by the exact residual M mu = b on every
    row, with no matrix built (the nodes are distinct, so the solution is
    unique); row 0 is the total, b_0 = p^dimension - 1 nonzero codewords.
    A negative frequency is then rejected, carrying the solution.
    """
    q, e, n = vspec.q, vspec.e, vspec.moment_size
    nodes = moment_nodes(n, q, e)
    b = b_vector(q, e, n)
    mu = tuple(closed_form_frequencies(q, e, n))
    check_residual(nodes, b, mu)
    if any(f < 0 for f in mu):
        raise ModelViolationError(
            f"frequencies are not non-negative integers for {vspec.key}", mu)
    weights = theoretical_weights(vspec.p, q, e, n)
    return WeightDistribution(
        length=vspec.length, dimension=vspec.dimension,
        entries=tuple(sorted((w, f) for w, f in zip(weights, mu) if f)),
        weights_by_j=weights, freq_by_j=mu)


def enumerator_string(dist: WeightDistribution, decimal=None) -> str:
    """Canonical weight enumerator text: 1 + sum of {freq}Y^{weight},
    ascending weights.  `decimal`, if given, maps each weight to its
    frequency's decimal text, for a caller that has converted them already."""
    terms = dist.entries if decimal is None else ((w, decimal[w]) for w, _ in dist.entries)
    return "1" + "".join(f"+{f}Y^{w}" for w, f in terms)
