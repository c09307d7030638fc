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

For fixed (family, p, m, h, delta) only the bound 2et <= q+1 and the lower
bound first <= t read t, and s_j does not depend on t, so every t's zero
set, exponents and coset sizes are a prefix of the largest admissible t's
and its dimension is a running sum.  `admit_row` is the one place the
checks run: it runs those that do not read t once for the row and reads
its t window by arithmetic.  The `Row` it returns runs no check:
`refusal` reads the error of a t outside the window from the window and
the row's fields, and `specs` builds the zero set once for a range of t's
and slices it.  `validate_spec` is the one-t case, with the same error
codes, messages and order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .galois import is_prime

FAMILIES = ("f1", "f2")


class SpecValidationError(ValueError):
    """A code-parameter constraint is violated: SpecValidationError(code,
    message).

    The `code` attribute names the violated constraint so callers can react
    without parsing the message, and str() gives the message.  Both are
    read from `args`, so raising one runs no Python-level constructor.
    """

    def __str__(self) -> str:
        return self.args[1]

    @property
    def code(self) -> str:
        return self.args[0]


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

    Expects parameters that `admit_row` has admitted (f1 only with
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


def validate_field(p: int, m: int) -> None:
    """Check the constraints on q = p^m alone: p prime and m >= 1.  Raises
    SpecValidationError, as validate_spec does."""
    if not is_prime(p):
        raise SpecValidationError("p_not_prime", f"p must be prime, got {p}")
    if m < 1:
        raise SpecValidationError("bad_m", f"m must be >= 1, got {m}")


class Row(NamedTuple):
    """The t axis of one (family, p, m, h, delta), admitted by `admit_row`:
    q, e and `window`, the admissible t's.  Its methods read only these
    fields and call no check."""

    family: str
    p: int
    m: int
    h: int
    delta: int
    q: int
    e: int
    window: range

    def split(self, ts: range) -> tuple[range, range, range]:
        """The t's of ts (a range of step 1) below, inside and above the
        window."""
        start = min(max(ts.start, self.window.start), ts.stop)
        stop = max(min(ts.stop, self.window.stop), start)
        return range(ts.start, start), range(start, stop), range(stop, ts.stop)

    def refusal(self, t: int) -> SpecValidationError | None:
        """The error `validate_spec` raises for t, None inside the window.
        Below the window t is out of range before parity is read."""
        if t in self.window:
            return None
        if t < self.window.start:
            if self.family == "f1":
                return SpecValidationError("t_out_of_range", f"t must be >= 0, got {t}")
            return SpecValidationError("t_out_of_range", f"family f2 requires t >= 1, got {t}")
        if not self.window:
            return SpecValidationError(
                "parity", f"odd p requires odd delta and h, got delta={self.delta}, h={self.h}")
        return SpecValidationError(
            "t_out_of_range", f"t = {t} exceeds (q+1)/(2e) = {self.q + 1}/{2 * self.e}")

    def specs(self, ts: range) -> list[ValidatedSpec]:
        """The validated specs of the t's of ts, a range inside the window,
        in t order, equal to what `validate_spec` gives for each.  The zero
        set is built once, for the last t: each t's s-values, exponents and
        coset sizes are a prefix of it, and its dimension is the running sum
        of the coset sizes."""
        if not ts:
            return []
        family, p, m, h, delta, q, e, window = self
        first = window.start
        s_values, exponents = _zero_set(family, p, m, h, delta, ts[-1])
        # the class {s, delta - s} of `_conjugates` is one residue when 2s = delta
        coset_sizes = tuple(m if (2 * s - delta) % (q + 1) == 0 else 2 * m for s in s_values)
        length = q * q - 1
        dimension = sum(coset_sizes[:ts[0] - first])
        specs = []
        for k in range(ts[0] - first + 1, len(s_values) + 1):
            dimension += coset_sizes[k - 1]
            # positional: family, p, m, h, delta, t, q, e, s_values, exponents,
            # coset_sizes, length, dimension
            specs.append(ValidatedSpec(family, p, m, h, delta, first + k - 1, q, e, s_values[:k],
                                       exponents[:k], coset_sizes[:k], length, dimension))
        return specs


def admit_row(family: str, p: int, m: int, h: int, delta: int) -> Row:
    """Admit the row of every t of (family, p, m, h, delta), or raise
    SpecValidationError naming the first violated check that does not read
    t, in `validate_spec`'s order.  The window of admissible t's is
    first <= t <= (q+1)/(2e), or empty when odd p meets an even delta or h."""
    if family not in FAMILIES:
        raise SpecValidationError("bad_family", f"family must be one of {FAMILIES}, got {family!r}")
    validate_field(p, m)
    if h < 1:
        raise SpecValidationError("bad_h", f"h must be >= 1, got {h}")
    if delta < 1:
        raise SpecValidationError("bad_delta", f"delta must be >= 1, got {delta}")

    q = p**m
    if math.gcd(delta, q - 1) != 1:
        raise SpecValidationError(
            "delta_not_coprime", f"gcd(delta, q-1) = gcd({delta}, {q - 1}) != 1")
    if h % (q + 1) == 0:
        raise SpecValidationError("h_zero_mod", f"h = {h} is 0 mod q+1 = {q + 1}")
    e = math.gcd(h, q + 1)

    if family == "f1":
        if p != 2:
            raise SpecValidationError("f1_needs_p2", "family f1 requires p = 2")
        first = 0
    else:
        first = 1
    stop = first if p != 2 and (delta % 2 == 0 or h % 2 == 0) else (q + 1) // (2 * e) + 1
    return Row(family, p, m, h, delta, q, e, range(first, stop))


def validate_spec(raw: CodeSpec) -> ValidatedSpec:
    """Check every parameter constraint and derive the validated spec: the
    one-t case of `admit_row`, whose row gives t's refusal or its spec.

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
    row = admit_row(raw.family, raw.p, raw.m, raw.h, raw.delta)
    refused = row.refusal(raw.t)
    if refused is not None:
        raise refused
    return row.specs(range(raw.t, raw.t + 1))[0]
