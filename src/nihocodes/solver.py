"""Exact moment system and weight distribution.

The weight frequencies mu_j solve M mu = b where M is the Vandermonde-type
matrix with entries (j*e*q - q - 1)^i and b_i = scale * N_i - (q^2-1)^i,
scale = q^(2t+1) for family f1 and q^(2t) for f2.  The nodes
j*e*q - q - 1 = e(qj - k), k = (q+1)/e, are also the support of the
binomial measure whose r-th moment is N_r (see `moments`); node k is
q^2 - 1, the node of the (q^2-1)^i term.  The system is solved once, by
the Lagrange-coefficient closed form for transposed Vandermonde systems.
The nodes are distinct, so M is invertible, and an exact residual check
M mu = b on every row certifies that mu is the unique solution; integrality
and non-negativity of the result are checked after it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .codespec import ValidatedSpec
from .moments import n_r


class ModelViolationError(ArithmeticError):
    """The exact solution is not a vector of non-negative integers.

    Carries the full rational solution; this signals parameters outside the
    validity of the frequency model, or a bug.
    """

    def __init__(self, message: str, solution: tuple[Fraction, ...]):
        super().__init__(message)
        self.solution = solution


def theoretical_weights(family: str, p: int, q: int, e: int, t: int) -> tuple[int, ...]:
    """Possible nonzero weights w_j, j ascending (weights descending).

    f1: (q^2 - (je-1)q)/2 for j = 0..2t.
    f2: (p-1)/p * (q^2 - (je-1)q) for j = 0..2t-1.
    """
    if family == "f1":
        return tuple((q * q - (j * e - 1) * q) // 2 for j in range(2 * t + 1))
    return tuple((p - 1) * (q * q - (j * e - 1) * q) // p for j in range(2 * t))


def moment_nodes(size: int, q: int, e: int) -> tuple[int, ...]:
    return tuple(j * e * q - q - 1 for j in range(size))


@dataclass(frozen=True)
class MomentMatrix:
    """Square matrix with rows (node_j)^i, recorded with its provenance."""

    rows: tuple[tuple[int, ...], ...]
    family: str
    t: int
    q: int
    e: int

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def nodes(self) -> tuple[int, ...]:
        return moment_nodes(self.size, self.q, self.e)


def moment_matrix(family: str, t: int, q: int, e: int) -> MomentMatrix:
    size = 2 * t + 1 if family == "f1" else 2 * t
    if size < 1:
        raise ValueError(f"empty moment system for family {family}, t = {t}")
    nodes = moment_nodes(size, q, e)
    # Rows are built from lists: CPython sizes a tuple built from a generator
    # by resizing, and on release parks it on a free list that such tuples
    # never draw from, so a long-running caller would grow with every call.
    rows = tuple([tuple([x**i for x in nodes]) for i in range(size)])
    return MomentMatrix(rows=rows, family=family, t=t, q=q, e=e)


def b_vector(family: str, t: int, q: int, e: int) -> tuple[int, ...]:
    size = 2 * t + 1 if family == "f1" else 2 * t
    scale = q ** (2 * t + 1) if family == "f1" else q ** (2 * t)
    return tuple(scale * n_r(i, q, e) - (q * q - 1) ** i for i in range(size))


def solve_bareiss(rows, rhs) -> tuple[Fraction, ...]:
    """Exact solve of a square integer system by fraction-free elimination
    (Bareiss) followed by rational back-substitution.

    The tests' independent cross-check of solve_lagrange; nothing in the
    library calls it, and it stays here while the benchmark traces it.
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
    denominator prod_{k != j}(x_j - x_k)."""
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


def solve_lagrange(nodes, rhs) -> tuple[Fraction, ...]:
    """Exact solve of sum_j x_j^i mu_j = b_i via Lagrange coefficients: the
    inverse matrix row for node x_j is the coefficient vector of its basis
    polynomial."""
    if len(set(nodes)) != len(nodes):
        raise ZeroDivisionError("repeated interpolation nodes")
    sol = []
    for num, den in _lagrange_numerators(nodes):
        acc = sum(c * b for c, b in zip(num, rhs))
        sol.append(Fraction(acc, den))
    return tuple(sol)


def invert_lagrange(nodes) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the matrix [node_j^i] from Lagrange basis coefficients."""
    n = len(nodes)
    out = []
    for num, den in _lagrange_numerators(nodes):
        row = [Fraction(num[i] if i < len(num) else 0, den) for i in range(n)]
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class WeightDistribution:
    """Sorted (weight, frequency) pairs for the nonzero codewords.

    `entries` lists only weights with nonzero frequency, ascending; the full
    frequency vector indexed by j (including zero entries) is kept as
    diagnostics and excluded from equality.
    """

    family: str
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

    @classmethod
    def from_freq_by_j(cls, vspec: ValidatedSpec, weights_by_j, freq_by_j) -> "WeightDistribution":
        freq_by_j = tuple(int(f) for f in freq_by_j)
        if any(f < 0 for f in freq_by_j):
            raise ValueError(f"negative frequency in {freq_by_j}")
        total = sum(freq_by_j)
        expected = vspec.codeword_count - 1
        if total != expected:
            raise ValueError(f"frequencies sum to {total}, expected {expected}")
        entries = tuple(sorted((w, f) for w, f in zip(weights_by_j, freq_by_j) if f))
        return cls(family=vspec.family, length=vspec.length, dimension=vspec.dimension,
                   entries=entries, weights_by_j=tuple(weights_by_j), freq_by_j=freq_by_j)


def weight_distribution(vspec: ValidatedSpec) -> WeightDistribution:
    """Solve the moment system exactly and return the distribution.

    One Lagrange solve, certified by the exact residual M mu = b on every
    row (the nodes are distinct, so the solution is unique); any
    non-integral or negative frequency is then rejected.
    """
    mm = moment_matrix(vspec.family, vspec.t, vspec.q, vspec.e)
    b = b_vector(vspec.family, vspec.t, vspec.q, vspec.e)
    mu = solve_lagrange(mm.nodes, b)
    # The residual in integers: sum_j M_ij (mu_j D) = b_i D, D the common
    # denominator of mu.
    den = math.lcm(*(f.denominator for f in mu))
    scaled = [f.numerator * (den // f.denominator) for f in mu]
    for i, row in enumerate(mm.rows):
        if sum(map(operator.mul, row, scaled)) != b[i] * den:
            raise AssertionError(f"residual nonzero in row {i}")
    if any(f.denominator != 1 or f < 0 for f in mu):
        raise ModelViolationError(
            f"frequencies are not non-negative integers for {vspec.key}", mu)
    freq_by_j = tuple(int(f) for f in mu)
    weights = theoretical_weights(vspec.family, vspec.p, vspec.q, vspec.e, vspec.t)
    return WeightDistribution.from_freq_by_j(vspec, weights, freq_by_j)


def enumerator_string(dist: WeightDistribution) -> str:
    """Canonical weight enumerator text: 1 + sum of {freq}Y^{weight},
    ascending weights."""
    return "1" + "".join(f"+{f}Y^{w}" for w, f in dist.entries)


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
