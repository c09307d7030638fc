"""Independent references for two library computations.

`invert_exact` is Gauss-Jordan inversion on rationals, the reference for
the Lagrange-coefficient inverse in `nihocodes.solver`.  It treats the
moment matrix as a general square matrix and uses none of its Vandermonde
structure, so agreement with `invert_lagrange` on the golden tables checks
the closed form against plain elimination.

`n_r_recursive` counts the r-tuples behind N_r one tuple at a time, the
reference for the meet-in-the-middle `nihocodes.oracle.n_r_brute`.  It walks
the first r-1 coordinates in plain Python, with no histograms and no numpy,
so agreement checks the halving, the convolutions and the matching of the
library's counter.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


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
    sigs = [tuple(ctx.exp_table[(d * i) % n] for d in exps) for i in range(n)]
    sig_counts = Counter(sigs)

    if vspec.p == 2:
        def add_sig(u, v):
            return tuple(a ^ b for a, b in zip(u, v))

        def neg_sig(u):
            return u
    else:
        add_code = [[ctx.add(x, y) for y in range(ctx.order)] for x in range(ctx.order)]
        neg_code = [ctx.neg(x) for x in range(ctx.order)]

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
