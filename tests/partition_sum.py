"""The partition sum for N_r, kept as an independent reference for the
recurrence in `nihocodes.moments`.

It sums over integer partitions of r with all parts >= 2 (size-1 blocks
would force a zero coordinate):

    N_r = r! e^r * sum over partitions of
          C((q+1)/e, D) * D! * prod_j (B_j / j!)^lam_j / lam_j!

where lam_j is the number of blocks of size j, D = sum lam_j, and B_j
counts j-tuples of nonzero GF(q) elements summing to zero.  Intermediate
values are exact rationals (B_j/j! is usually not an integer); the final
value is checked integral, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterator

from nihocodes.moments import b_count


@dataclass(frozen=True)
class PartitionVector:
    """A partition of r with all parts >= 2, stored as (part, multiplicity)
    pairs with parts descending."""

    parts: tuple[tuple[int, int], ...]

    @classmethod
    def from_mapping(cls, lam: dict[int, int]) -> "PartitionVector":
        return cls(tuple(sorted(((j, lam[j]) for j in lam if lam[j]), reverse=True)))

    @property
    def r(self) -> int:
        return sum(j * lam for j, lam in self.parts)

    @property
    def blocks(self) -> int:
        """D, the total number of blocks."""
        return sum(lam for _, lam in self.parts)


def partitions_min2(r: int) -> Iterator[PartitionVector]:
    """All partitions of r with parts >= 2, largest part first, each once.

    r = 0 yields the empty partition; r = 1 yields nothing.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")

    def rec(remaining: int, max_part: int) -> Iterator[dict[int, int]]:
        if remaining == 0:
            yield {}
            return
        for part in range(min(max_part, remaining), 1, -1):
            rest = remaining - part
            if rest == 1:
                continue
            for tail in rec(rest, part):
                lam = dict(tail)
                lam[part] = lam.get(part, 0) + 1
                yield lam

    for lam in rec(r, r):
        yield PartitionVector.from_mapping(lam)


def n_r_partition_sum(r: int, q: int, e: int) -> int:
    """N_r for the given q and divisor e of q+1 by the partition sum."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if e < 1 or (q + 1) % e:
        raise ValueError(f"e = {e} does not divide q+1 = {q + 1}")
    if r == 0:
        return 1
    if r == 1:
        return 0
    k = (q + 1) // e
    total = Fraction(0)
    for pv in partitions_min2(r):
        d = pv.blocks
        term = Fraction(comb(k, d) * factorial(d))
        for j, lam in pv.parts:
            term *= Fraction(b_count(j, q), factorial(j)) ** lam
            term /= factorial(lam)
        total += term
    total *= factorial(r) * e**r
    if total.denominator != 1:
        raise ArithmeticError(f"N_{r}(q={q}, e={e}) is not integral: {total}")
    return int(total)
