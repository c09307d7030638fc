"""Gauss-Jordan inversion on rationals, kept as an independent reference
for the Lagrange-coefficient inverse in `nihocodes.solver`.

It treats the moment matrix as a general square matrix and uses none of
its Vandermonde structure, so agreement with `invert_lagrange` on the
golden tables checks the closed form against plain elimination.
"""

from __future__ import annotations

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
