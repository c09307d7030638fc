"""Parameter validation and the zero sets of the two code families.

Both families live in GF(q^2), q = p^m, and use zero exponents congruent to
delta mod q-1 (with gcd(delta, q-1) = 1), so each exponent is determined by
a residue s mod q+1 through d = s(q-1) + delta mod q^2-1.

The family fixes only the zero set: s_j = j*h + (delta - first*h)/2 mod q+1
for j = first..t, with first = 0 for "f1" (binary only, t+1 zeroes) and
first = 1 for "f2" (any prime p, t zeroes).  For p = 2 the halving is
division by 2 mod the odd number q+1; for odd p it is exact integer
halving, which forces delta and h to be odd.  Nothing past this module reads
the family.

Each zero's p-cyclotomic coset is read from its conjugate class
{s, delta - s} mod q+1 (see `_conjugates`): it has m elements when the
class is one residue and 2m otherwise.  A slot whose coset has size m
takes its coefficient from GF(q), which in f1 is the leading slot.  The
cyclic code has length q^2-1 and dimension the sum of the coset sizes, and
the moment system has size n = dimension/m, the number of residues in the
classes: 2t+1 for f1 and 2t for f2.  Everything downstream (the weights,
the moment scale q^n = p^dimension, the power moments, the oracle's slot
layout) reads only (p, q, e, n) and the coset sizes.  The tests check the
class rule against the cosets that tests/exact_reference.py enumerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .galois import is_prime

FAMILIES = ("f1", "f2")


class SpecValidationError(ValueError):
    """A code-parameter constraint is violated.

    The `code` attribute names the violated constraint so callers can react
    without parsing the message.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class CodeSpec:
    """Raw user parameters, unvalidated."""

    family: str
    p: int
    m: int
    h: int
    delta: int
    t: int

    @property
    def key(self) -> str:
        """Unique key family:p:m:h:delta:t, as used by the sweep catalog."""
        return f"{self.family}:{self.p}:{self.m}:{self.h}:{self.delta}:{self.t}"


@dataclass(frozen=True)
class ValidatedSpec(CodeSpec):
    """A CodeSpec together with everything derived from it."""

    q: int
    e: int
    s_values: tuple[int, ...]
    exponents: tuple[int, ...]
    coset_sizes: tuple[int, ...]
    length: int
    dimension: int

    @property
    def moment_size(self) -> int:
        """Size of the moment system, the number of possible nonzero weights."""
        return self.dimension // self.m

    @property
    def codeword_count(self) -> int:
        return self.p**self.dimension


def half_mod(x: int, modulus: int, p: int) -> int:
    """x/2 mod modulus: multiplicative inverse of 2 when p = 2 (modulus is
    then odd), exact integer halving of an even x when p is odd."""
    if p == 2:
        return (x * pow(2, -1, modulus)) % modulus
    if x % 2:
        raise SpecValidationError("parity", f"cannot halve odd value {x} exactly")
    return (x // 2) % modulus


def _zero_set(family: str, p: int, m: int, h: int, delta: int,
             t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(s_j, d_j) for j = first..t, canonical residues: s_j = j*h +
    (delta - first*h)/2 mod q+1, first 0 for f1 and 1 for f2.

    Expects parameters that `validate_spec` has admitted (f1 only with
    p = 2, odd delta and h when p is odd) and checks none of them beyond
    `half_mod`'s parity refusal."""
    q = p**m
    first = 0 if family == "f1" else 1
    half = half_mod(delta - first * h, q + 1, p)
    s_values = tuple((j * h + half) % (q + 1) for j in range(first, t + 1))
    exponents = tuple((s * (q - 1) + delta) % (q * q - 1) for s in s_values)
    return s_values, exponents


def _conjugates(s: int, delta: int, q: int) -> frozenset[int]:
    """{s, delta - s} mod q+1: the s-values whose exponents share the minimal
    polynomial of d = s(q-1) + delta, m elements of d's coset for each.

    Exact, as gcd(delta, q-1) = 1: d*p^i keeps d's residue delta mod q-1
    only when q-1 | p^i - 1, that is when m | i, so d's coset meets the
    delta shape only in d and d*q, and d*q has parameter delta - s.  The
    coset therefore has m elements when 2s = delta mod q+1 and 2m
    otherwise, and two exponents of the same delta share a coset exactly
    when their classes are equal."""
    return frozenset((s % (q + 1), (delta - s) % (q + 1)))


def validate_spec(raw: CodeSpec) -> ValidatedSpec:
    """Check every parameter constraint and derive the validated spec.

    Raises SpecValidationError naming the first violated constraint.

    The coset sizes come from the conjugate classes of the s-values, and
    the t bound 2et <= q+1 keeps those classes pairwise distinct, so the
    dimension is their sum and nothing is lost to a collision.  With
    k = (q+1)/e, s_j = j*h + c and 2c = delta - first*h mod q+1,

      * s_i = s_j needs (j-i)h = 0 mod q+1,
      * s_i = delta - s_j needs (i+j-first)h = 0 mod q+1,
      * a class of one residue, 2s_j = delta, needs (2j-first)h = 0,

    and as gcd(h/e, k) = 1 each means that k divides j-i, i+j-first or
    2j-first.  For first <= i < j <= t these lie in 1..2t-1, below
    k >= 2t, so no two slots collide.  2j-first is 0 at f1's leading slot
    and otherwise lies in 1..2t without being k: for f1 it is even while k
    is odd (q+1 is odd for p = 2), and for f2 it is at most 2t-1.  Hence
    only f1's leading slot has a coset of size m.
    """
    if raw.family not in FAMILIES:
        raise SpecValidationError("bad_family", f"family must be one of {FAMILIES}, got {raw.family!r}")
    if not is_prime(raw.p):
        raise SpecValidationError("p_not_prime", f"p must be prime, got {raw.p}")
    if raw.m < 1:
        raise SpecValidationError("bad_m", f"m must be >= 1, got {raw.m}")
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
