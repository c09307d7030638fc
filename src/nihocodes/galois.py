"""Arbitrary GF(p^k) arithmetic on integer codes.

An element is an integer 0 <= x < p^k whose base-p digits are its
coordinates in the polynomial basis (constant term in the least significant
digit).  An exp/log table pair pins every nonzero element to a power of
a fixed primitive element gamma, so multiplication, inversion and powering
are table lookups.  gamma is the residue class of the indeterminate modulo
the lexicographically smallest primitive polynomial, which makes builds
reproducible: two calls of build_field(p, k) return identical tables.

The tables are read-only numpy arrays, the context's only copy: exp[i] is
the code of gamma^i and log its inverse permutation (log[0] = -1).
build_field makes the "times gamma" map of all codes at once (shift the
digits up one place, then add back the top digit times the negated low
coefficients of the modulus) and fills exp by pointer doubling: with
sigma = times gamma^B, exp[B:2B] = sigma[exp[:B]], then sigma <- sigma[sigma],
while B^2 < p^k - 1.  The rest is filled block by block with that fixed
sigma, exp[i:i+B] = sigma[exp[i-B:i]]: about sqrt(p^k) gathers of B entries
in place of further squarings of the whole map.  The modulus search is
memoized per (p, k).  The tables of a field of order at most KEEP_ORDER =
2^16 are kept too: build_field returns one context per (p, k) for the last
_KEPT_FIELDS such fields it built, so the oracles' many small calls neither
rebuild the tables nor the views below.  A kept field holds at most about
2 MB with every view built.  Larger fields are built per call and freed
with their last reference, since GF(2^24) holds 669 MB.  build_field checks
the table limit before it looks for a kept field, so a limit below a kept
field's order still refuses it.

The subfield GF(p^d) for d | k is never built separately; it is the fixed
field of the d-th Frobenius power, reachable through is_subfield_element
and subfield_elements.

All arithmetic reads these arrays; the context has no scalar add, mul or
pow.  The read-only trace view, built once per context on first use, holds
Tr(gamma^i) down to GF(p) for every exponent i.  The trace is GF(p)-linear,
so it is the digit vector of exp[i] times the basis traces Tr(gamma^j),
j < k, mod p.  Those are the power sums of the modulus's roots, which
Newton's identities give from its coefficients in k^2 integer steps.  The
doubled view trace2 is trace twice over, so a sum of two exponents below
p^k - 1 reads it without a reduction.  Every view, and the per-field
constants elements, half_subfield and theta_log, lives as long as its
context.

Addition reads a second, packed form of the codes (Knuth's broadword
arithmetic, TAOCP Vol. 4A, 7.1.3): digit i sits in bits W i .. W i + W - 1,
W = digit_bits(p) = bitlen(p-1) + 1 for odd p, so 2^(W-1) >= p and two
digits plus 2^(W-1) - p stay below 2^W.  With ONES a 1 at the bottom of
every field, adder(p, k) gives add(x, y) = wrap(x + y) and neg(x) =
wrap(p ONES - x) on whole arrays, no table and no digit loop, where
wrap(s) = s - p (((s + (2^(W-1) - p) ONES) >> (W-1)) & ONES).  For p = 2
(W = 1) the packed form is the code, add is XOR and neg the identity.  Zero
packs to 0.  packed_range(p, k), the packed form of every code below p^k, is
built by one broadcast OR per digit with no digit pass over the range.  The
read-only packed_exp view is one gather from it, built on first use like the
trace; build_field makes its "times gamma" map with the adder on the packed
range one degree down.

numpy is imported by the functions that use it, on the first field build or
array call, not with this module: codespec reads is_prime from here, and
the commands that run no oracle (analyze, nr without --brute, sweep without
--verify-small) never load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TABLE_LIMIT = 1 << 24
# Fields of order at most KEEP_ORDER are built once per process, and the
# last _KEPT_FIELDS of them kept (see the module doc).
KEEP_ORDER = 1 << 16
_KEPT_FIELDS = 4


class FieldBuildError(ValueError):
    """Invalid field construction parameters."""


class TableLimitExceeded(FieldBuildError):
    """Requested field order exceeds the configured table limit."""


def is_prime(n: int) -> bool:
    return n > 1 and (n < 4 or all(n % d for d in range(2, math.isqrt(n) + 1)))


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


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


def _poly_pow_mod(base: list[int], exponent: int, mod: list[int], p: int) -> list[int]:
    result = [1] + [0] * (len(mod) - 2)
    acc = list(base)
    while exponent:
        if exponent & 1:
            result = _poly_mul_mod(result, acc, mod, p)
        exponent >>= 1
        if exponent:
            acc = _poly_mul_mod(acc, acc, mod, p)
    return result


def _has_full_order(gen: list[int], mod: list[int], p: int, group_order: int,
                    factors: tuple[int, ...]) -> bool:
    one = [1] + [0] * (len(mod) - 2)
    if _poly_pow_mod(gen, group_order, mod, p) != one:
        return False
    for ell in factors:
        if _poly_pow_mod(gen, group_order // ell, mod, p) == one:
            return False
    return True


@lru_cache(maxsize=None)
def _find_primitive_modulus(p: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Smallest monic degree-k polynomial whose root gamma generates the
    multiplicative group.  Returns (modulus digits, gamma digits).  A pure
    function of (p, k), searched once per process."""
    order = p**k
    factors = prime_factors(order - 1) if order > 2 else ()
    for n in range(1, order):
        if n % p == 0:  # zero constant term: the indeterminate divides it
            continue
        mod = [n // p**i % p for i in range(k)] + [1]  # base-p digits, then monic
        gamma = [-mod[0] % p] if k == 1 else [0, 1] + [0] * (k - 2)
        if _has_full_order(gamma, mod, p, order - 1, factors):
            return tuple(mod), tuple(gamma)
    raise FieldBuildError(f"no primitive polynomial of degree {k} over GF({p})")


@dataclass(frozen=True)
class FieldContext:
    """A fully built GF(p^degree) with exp/log tables.

    Immutable after construction and safe to share across workers.  The
    tables are determined by the other fields, which alone take part in ==
    and hash.
    """

    p: int
    degree: int
    order: int
    modulus_poly: tuple[int, ...]
    generator: int
    # exp[i] = gamma^i in the smallest unsigned dtype that holds a code
    exp: np.ndarray = field(compare=False, repr=False)
    # log as int64, log[0] = -1
    log: np.ndarray = field(compare=False, repr=False)

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, degree={self.degree}, order={self.order})"

    # -- subfields ----------------------------------------------------------

    def is_subfield_element(self, x: int, sub_degree: int) -> bool:
        if self.degree % sub_degree:
            raise ValueError(f"degree {sub_degree} does not divide {self.degree}")
        if not 0 <= x < self.order:
            raise ValueError(f"element code {x!r} outside GF({self.order})")
        if x == 0:
            return True
        return ((self.p**sub_degree - 1) * self.log.item(x)) % (self.order - 1) == 0

    def subfield_elements(self, sub_degree: int) -> list[int]:
        """Codes of GF(p^sub_degree) inside this field: zero first, then
        ascending powers of the subgroup generator."""
        if self.degree % sub_degree:
            raise ValueError(f"degree {sub_degree} does not divide {self.degree}")
        step = (self.order - 1) // (self.p**sub_degree - 1)
        return [0] + self.exp[::step].tolist()

    @cached_property
    def half_subfield(self) -> np.ndarray:
        """subfield_elements(degree / 2) as a read-only int64 array: the
        domain of a GF(q) coefficient in GF(q^2), q = p^(degree/2)."""
        import numpy as np
        if self.degree % 2:
            raise ValueError(f"degree {self.degree} is odd")
        return _read_only(np.array(self.subfield_elements(self.degree // 2)))

    @cached_property
    def theta_log(self) -> int:
        """log theta mod p^degree - 1, theta = gamma / (gamma + gamma^q),
        q = p^(degree/2).  gamma + gamma^q is nonzero and lies in GF(q), so
        theta + theta^q = 1 and Tr(theta x) down from GF(q^2) is the trace
        of x down from GF(q) for every x in GF(q)."""
        if self.degree % 2:
            raise ValueError(f"degree {self.degree} is odd")
        add, _ = adder(self.p, self.degree)
        q = self.p ** (self.degree // 2)
        relative = unpack(add(self.packed_exp[1], self.packed_exp[q]), self.p, self.degree)
        return (1 - int(self.log[relative])) % (self.order - 1)

    # -- read-only array views -------------------------------------------

    @cached_property
    def elements(self) -> np.ndarray:
        """Every code, zero first, then gamma^0, gamma^1, ..: [0, *exp] as
        int64, the domain of a GF(p^degree) coefficient."""
        import numpy as np
        return _read_only(np.concatenate(([0], self.exp)))

    @cached_property
    def trace(self) -> np.ndarray:
        """Tr(gamma^i) down to GF(p) for every exponent i, by GF(p)-linearity
        from the basis traces."""
        import numpy as np
        rest = self.exp.astype(np.int64)
        acc = np.zeros(self.order - 1, dtype=np.int64)
        for s in _basis_traces(self.modulus_poly, self.p):
            rest, digit = np.divmod(rest, self.p)
            acc += digit * s
        return _read_only((acc % self.p).astype(np.min_scalar_type(self.p - 1)))

    @cached_property
    def trace2(self) -> np.ndarray:
        """trace twice over: trace2[i] = Tr(gamma^(i mod (p^degree - 1)))
        for i below 2 (p^degree - 1)."""
        import numpy as np
        return _read_only(np.concatenate((self.trace, self.trace)))

    @cached_property
    def packed_exp(self) -> np.ndarray:
        """exp in packed form: gamma^i for every exponent i, as the adder's
        operand."""
        if self.p == 2:
            return self.exp
        return _read_only(packed_range(self.p, self.degree)[self.exp])

    @cached_property
    def packed_exp2(self) -> np.ndarray:
        """packed_exp twice over, as trace2 doubles trace."""
        import numpy as np
        return _read_only(np.concatenate((self.packed_exp, self.packed_exp)))


def _basis_traces(modulus: tuple[int, ...], p: int) -> list[int]:
    """Tr(gamma^j) for j < k, gamma a root of the monic degree-k modulus:
    the power sums s_j of its roots, by Newton's identities,
    s_0 = k and s_i = -(i c_(k-i) + sum_(0<j<i) c_(k-j) s_(i-j)) mod p."""
    k = len(modulus) - 1
    s = [k % p]
    for i in range(1, k):
        s.append(-(i * modulus[k - i]
                   + sum(modulus[k - j] * s[i - j] for j in range(1, i))) % p)
    return s


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def digit_bits(p: int) -> int:
    """Bits W of one packed base-p digit: 1 for p = 2, else bitlen(p-1) + 1."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def packed_dtype(p: int, k: int) -> np.dtype:
    """The smallest unsigned dtype that holds a packed GF(p^k) element."""
    import numpy as np
    return np.min_scalar_type((1 << digit_bits(p) * k) - 1)


def packed_range(p: int, k: int) -> np.ndarray:
    """The codes below p^k in packed form, without a digit pass over the
    whole range: digit i joins by one broadcast OR,
    (arange(p) << W i)[:, None] | out[None, :], over an array p times
    smaller than the result."""
    import numpy as np
    dtype = packed_dtype(p, k)
    if p == 2:
        return np.arange(1 << k, dtype=dtype)
    out = np.zeros(1, dtype=dtype)
    for i in range(k):
        out = ((np.arange(p, dtype=dtype) << digit_bits(p) * i)[:, None] | out).ravel()
    return out


def unpack(packed, p: int, k: int) -> np.ndarray:
    """Packed GF(p^k) elements as base-p codes, in the smallest unsigned
    dtype that holds p^k - 1."""
    import numpy as np
    if p == 2:
        return np.asarray(packed)
    bits, dtype, out = digit_bits(p), np.min_scalar_type(p**k - 1), 0
    for i in reversed(range(k)):
        out = out * p + (packed >> bits * i & (1 << bits) - 1).astype(dtype)
    return out


def adder(p: int, k: int):
    """(add, neg) on packed GF(p^k) elements, elementwise on broadcastable
    arrays.  For odd p they compute in packed_dtype(p, k), so narrower
    operands (GF(p) symbols in one byte for p > 128) are widened first."""
    import numpy as np
    if p == 2:
        return np.bitwise_xor, lambda x: x  # -x = x in characteristic 2
    bits, dtype = digit_bits(p), packed_dtype(p, k)
    ones = sum(1 << bits * i for i in range(k))
    bias = ((1 << bits - 1) - p) * ones

    def wrap(s):
        return s - p * ((s + bias) >> bits - 1 & ones)

    def add(x, y):
        return wrap(np.add(x, y, dtype=dtype))

    def neg(x):
        return wrap(np.subtract(p * ones, x, dtype=dtype))

    return add, neg


def build_field(p: int, degree: int, table_limit: int = DEFAULT_TABLE_LIMIT) -> FieldContext:
    """Construct GF(p^degree) with deterministic tables.

    The modulus is the lexicographically smallest primitive polynomial
    (coefficient tuples compared from the highest degree down), so repeated
    builds are bit-identical.  A field of order at most KEEP_ORDER is the
    kept context of an earlier build while it stays among the last
    _KEPT_FIELDS such fields built.
    """
    if not is_prime(p):
        raise FieldBuildError(f"p must be prime, got {p}")
    if degree < 1:
        raise FieldBuildError(f"degree must be >= 1, got {degree}")
    order = p**degree
    if order > table_limit:
        raise TableLimitExceeded(
            f"field order {order} exceeds table limit {table_limit}")
    return _kept_field(p, degree) if order <= KEEP_ORDER else _build(p, degree)


@lru_cache(maxsize=_KEPT_FIELDS)
def _kept_field(p: int, degree: int) -> FieldContext:
    return _build(p, degree)


def _build(p: int, degree: int) -> FieldContext:
    """GF(p^degree) built anew, parameters already checked."""
    import numpy as np
    order = p**degree
    mod, _ = _find_primitive_modulus(p, degree)
    # A code is top x^(degree-1) + low, so times gamma it is low x, the packed
    # range of p^(degree-1) shifted up one digit, plus top x^degree =
    # top (-mod[:degree]), packed by placing digit i at bit W i; the sum is
    # laid out as a (top, low) grid.
    dtype, bits = packed_dtype(p, degree), digit_bits(p)
    low = packed_range(p, degree - 1).astype(dtype) << bits
    fold = -np.arange(p)[:, None] * mod[:degree] % p @ (1 << bits * np.arange(degree))
    add, _ = adder(p, degree)
    times_gamma = unpack(add(low, fold.astype(dtype)[:, None]).ravel(), p, degree)

    n = order - 1
    exp = np.empty(n, dtype=times_gamma.dtype)
    exp[0] = 1
    step, done = times_gamma, 1
    while done * done < n:  # step is times gamma^done, and 2 * done <= n
        exp[done:2 * done] = step[exp[:done]]
        done *= 2
        step = step[step]
    for i in range(done, n, done):  # the rest by the fixed step
        exp[i:i + done] = step[exp[i - done:min(i, n - done)]]
    log = np.full(order, -1, dtype=np.int64)
    log[exp] = np.arange(n)
    if times_gamma[exp[-1]] != 1:
        raise AssertionError("generator order is not the group order")
    if np.count_nonzero(log == -1) != 1:
        raise AssertionError("exp table is not a bijection onto nonzero elements")

    return FieldContext(
        p=p,
        degree=degree,
        order=order,
        modulus_poly=mod,
        generator=int(times_gamma[1]),
        exp=_read_only(exp),
        log=_read_only(log),
    )
