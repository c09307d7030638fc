"""Arbitrary GF(p^k) arithmetic on packed integer codes.

An element is an integer 0 <= x < p^k whose base-p digits are its
coordinates in the polynomial basis (constant term in the least significant
digit).  A full exp/log table pair pins every nonzero element to a power of
a fixed primitive element gamma, so multiplication, inversion and powering
are table lookups.  gamma is the residue class of the indeterminate modulo
the lexicographically smallest primitive polynomial, which makes builds
reproducible: two calls of build_field(p, k) return identical tables.

The subfield GF(p^d) for d | k is never built separately; it is the fixed
field of the d-th Frobenius power, reachable through is_subfield_element
and subfield_elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_TABLE_LIMIT = 1 << 24


class FieldBuildError(ValueError):
    """Invalid field construction parameters."""


class TableLimitExceeded(FieldBuildError):
    """Requested field order exceeds the configured table limit."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


def _digits(code: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _code(digits: list[int], p: int) -> int:
    c = 0
    for d in reversed(digits):
        c = c * p + d
    return c


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
    k = len(mod) - 1
    result = [0] * k
    result[0] = 1
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
    k = len(mod) - 1
    one = [0] * k
    one[0] = 1
    if _poly_pow_mod(gen, group_order, mod, p) != one:
        return False
    for ell in factors:
        if _poly_pow_mod(gen, group_order // ell, mod, p) == one:
            return False
    return True


def _find_primitive_modulus(p: int, k: int) -> tuple[list[int], list[int]]:
    """Smallest monic degree-k polynomial whose root gamma generates the
    multiplicative group.  Returns (modulus digits, gamma digits)."""
    order = p**k
    factors = prime_factors(order - 1) if order > 2 else ()
    for n in range(1, order):
        if n % p == 0:  # zero constant term: the indeterminate divides it
            continue
        mod = _digits(n, p, k) + [1]
        if k == 1:
            gamma = [(-mod[0]) % p]
        else:
            gamma = [0] * k
            gamma[1] = 1
        if _has_full_order(gamma, mod, p, order - 1, factors):
            return mod, gamma
    raise FieldBuildError(f"no primitive polynomial of degree {k} over GF({p})")


@dataclass(frozen=True)
class FieldContext:
    """A fully built GF(p^degree) with exp/log tables.

    Immutable after construction and safe to share across workers.  All
    operations are pure functions of integer codes.
    """

    p: int
    degree: int
    order: int
    modulus_poly: tuple[int, ...]
    generator: int
    exp_table: tuple[int, ...] = field(repr=False)
    log_table: tuple[int, ...] = field(repr=False)

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, degree={self.degree}, order={self.order})"

    # -- basic arithmetic ------------------------------------------------

    def _check(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise ValueError(f"element code {x!r} outside GF({self.order})")
        return x

    def add(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        if self.p == 2:
            return x ^ y
        p, out, mult = self.p, 0, 1
        while x or y:
            x, dx = divmod(x, p)
            y, dy = divmod(y, p)
            out += ((dx + dy) % p) * mult
            mult *= p
        return out

    def neg(self, x: int) -> int:
        self._check(x)
        if self.p == 2:
            return x
        p, out, mult = self.p, 0, 1
        while x:
            x, dx = divmod(x, p)
            out += ((-dx) % p) * mult
            mult *= p
        return out

    def mul(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        if x == 0 or y == 0:
            return 0
        n = self.order - 1
        return self.exp_table[(self.log_table[x] + self.log_table[y]) % n]

    def inv(self, x: int) -> int:
        self._check(x)
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        n = self.order - 1
        return self.exp_table[(-self.log_table[x]) % n]

    def pow(self, x: int, k: int) -> int:
        self._check(x)
        if x == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        n = self.order - 1
        return self.exp_table[(self.log_table[x] * k) % n]

    # -- Frobenius, traces, subfields ------------------------------------

    def frobenius(self, x: int, i: int = 1) -> int:
        return self.pow(x, self.p**i)

    def is_subfield_element(self, x: int, sub_degree: int) -> bool:
        if self.degree % sub_degree:
            raise ValueError(f"degree {sub_degree} does not divide {self.degree}")
        self._check(x)
        if x == 0:
            return True
        return ((self.p**sub_degree - 1) * self.log_table[x]) % (self.order - 1) == 0

    def subfield_elements(self, sub_degree: int) -> list[int]:
        """Codes of GF(p^sub_degree) inside this field: zero first, then
        ascending powers of the subgroup generator."""
        if self.degree % sub_degree:
            raise ValueError(f"degree {sub_degree} does not divide {self.degree}")
        sub_order = self.p**sub_degree
        step = (self.order - 1) // (sub_order - 1)
        return [0] + [self.exp_table[i * step] for i in range(sub_order - 1)]

    def trace_to_prime(self, x: int, from_degree: int | None = None) -> int:
        """Sum of Frobenius conjugates x + x^p + ... down to GF(p).

        from_degree names the subfield x is claimed to live in; it must
        divide the field degree and x must actually lie there.
        """
        if from_degree is None:
            from_degree = self.degree
        if self.degree % from_degree:
            raise ValueError(f"degree {from_degree} does not divide {self.degree}")
        if not self.is_subfield_element(x, from_degree):
            raise ValueError(f"element {x} is not in the degree-{from_degree} subfield")
        acc = 0
        y = x
        for _ in range(from_degree):
            acc = self.add(acc, y)
            y = self.frobenius(y)
        if acc >= self.p:
            raise AssertionError("trace left the prime field")
        return acc


def build_field(p: int, degree: int, table_limit: int = DEFAULT_TABLE_LIMIT) -> FieldContext:
    """Construct GF(p^degree) with deterministic tables.

    The modulus is the lexicographically smallest primitive polynomial
    (coefficient tuples compared from the highest degree down), so repeated
    builds are bit-identical.
    """
    if not is_prime(p):
        raise FieldBuildError(f"p must be prime, got {p}")
    if degree < 1:
        raise FieldBuildError(f"degree must be >= 1, got {degree}")
    order = p**degree
    if order > table_limit:
        raise TableLimitExceeded(
            f"field order {order} exceeds table limit {table_limit}")

    mod, gamma = _find_primitive_modulus(p, degree)
    gamma_code = _code(gamma, p)

    exp = [0] * (order - 1)
    log = [-1] * order
    cur = [0] * degree
    cur[0] = 1
    for i in range(order - 1):
        c = _code(cur, p)
        exp[i] = c
        log[c] = i
        cur = _poly_mul_mod(cur, gamma, mod, p)
    if cur != [1] + [0] * (degree - 1):
        raise AssertionError("generator order is not the group order")
    if log.count(-1) != 1:
        raise AssertionError("exp table is not a bijection onto nonzero elements")

    return FieldContext(
        p=p,
        degree=degree,
        order=order,
        modulus_poly=tuple(mod),
        generator=gamma_code,
        exp_table=tuple(exp),
        log_table=tuple(log),
    )
