"""Independent ground truth by direct enumeration.

Two weight paths are kept separate by method, and each is implemented
once, as a table builder over the field's array views:

  * the positionwise path, _symbol_tables, evaluates the defining trace
    expression of a codeword symbol by symbol over all q^2-1 coordinates,
    as GF(p) symbols read from the trace view;
  * the root-counting path, _root_tables, evaluates a polynomial of
    degree below the moment system size n over the small subgroup W of
    the unit circle (order (q+1)/e) and converts the number of roots into
    a character-sum value and hence a weight; its values are GF(q^2)
    elements in the packed form of galois, read from the packed_exp view.

The zero set enters through its coset sizes alone: a slot whose coset has
size m takes GF(q) coefficients and one root-counting term, any other slot
all of GF(q^2) and a second term for its conjugate (see _slot_terms).

A builder gives, per coefficient slot, one value per entry (W point or
position) and coefficient of the slot's domain.  A tuple's entry is the sum
of its slots under the (add, neg) pair of galois.adder, for GF(q^2) or
GF(p); zero packs to 0, so roots and zero symbols are counted without
unpacking, and domains, validation and log lookups stay on base-p codes.
The batch evaluators codeword_weights and char_sums give slot s the s-th
coefficients of a list of tuples as its domain, so column i of every table
is tuple i, in chunks of at most _BATCH_ENTRIES entries per slot;
codeword_weight and char_sum are batches of one.  Full-space sweeps hand
the tables of whole domains to one engine, _zero_count_histogram, which
histograms how many entries vanish; brute_distribution maps that count to
a weight.  n_r_brute sums packed signatures with the same adder.  The
scalar references both paths are tested against live in the tests.

brute_distribution sweeps one representative per cyclic orbit of j0, the
first slot whose coset has size 2m and whose coefficient therefore ranges
over all of GF(q^2) (slot 0 for f2, slot 1 for f1 with t >= 1).  A cyclic
shift by s keeps every weight and maps a_j to a_j * gamma^(d_j s), so the
nonzero values of a_j0 fall into g = gcd(d_j0, q^2-1) orbits of equal size
(q^2-1)/g, one through each of gamma^0..gamma^(g-1).  The sweep builds the
tables of that restricted domain, weights its histogram by (q^2-1)/g and
adds the a_j0 = 0 slice unweighted.  The rule uses only the cyclicity of
the code, none of the paper's formulas.  A zero set with no such slot
(f1 with t = 0) is swept whole.

n_r_brute counts by meet in the middle: the histogram of the q^2-1
signatures (an element's exponent powers) is convolved with itself up to
ceil(r/2) times, and N_r pairs the half-sums s and -s.

power_moment_check aggregates a swept distribution into the one power
moment identity of both families, sum over all tuples of
(S(a) - (p-1))^r = (p-1)^r q^n N_r, n the moment system size (f1 is the
case p = 2); it sweeps nothing itself.

The full-space sweep brute_distribution and the tuple counter n_r_brute
run under an operation budget; an over-budget request is refused
outright, never truncated.  The stated cost model charges
p^dimension * (q^2-1) for a distribution sweep regardless of path, and
(q^2-1)^r for counting r-tuples.  These are the costs of plain
enumeration; the budget charges them even though the orbit reduction and
the meet in the middle do less work.

Like galois, this module imports numpy inside the functions that use it,
so importing it (as the CLI does) costs no numpy import.

Domains list their coefficients in a fixed order: zero first, then
ascending generator exponents, over GF(q) for a slot whose coset has size m
and over GF(q^2) otherwise.  Results are exact counts and do not depend on
the order in which the engine walks the tuples.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from .codespec import ValidatedSpec
from .galois import FieldContext, adder, build_field, digit_bits, unpack
from .moments import n_r
from .solver import WeightDistribution, theoretical_weights, weight_for_index

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 10**10
_BLOCK_ENTRIES = 1 << 22
# Table entries per slot in one chunk of a batch path (codeword_weights,
# char_sums): larger chunks save no numpy calls worth having and cost memory.
_BATCH_ENTRIES = 1 << 16


class BudgetExceeded(RuntimeError):
    """The requested sweep is larger than the operation budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"operation requires a budget of {required}, only {budget} allowed")
        self.required = required
        self.budget = budget


def _context_for(vspec: ValidatedSpec, ctx: FieldContext | None) -> FieldContext:
    if ctx is None:
        return build_field(vspec.p, 2 * vspec.m)
    if ctx.p != vspec.p or ctx.order != vspec.q * vspec.q:
        raise ValueError(f"context {ctx!r} does not match spec {vspec.key}")
    return ctx


def coefficient_domains(vspec: ValidatedSpec, ctx: FieldContext) -> list[np.ndarray]:
    """Per-coefficient code arrays in sweep order: zero first, then ascending
    generator exponents.  A slot whose coset has size m takes its
    coefficient from the subfield GF(q), reached as zero plus powers of
    gamma^(q+1), and every other slot from all of GF(q^2)."""
    import numpy as np
    full = np.concatenate(([0], ctx.exp))
    return [np.array(ctx.subfield_elements(vspec.m)) if size == vspec.m else full
            for size in vspec.coset_sizes]


def _slot_terms(vspec: ValidatedSpec) -> list[list[tuple[bool, int]]]:
    """Per coefficient slot i, the (conjugate?, W-point exponent) pairs of
    the root-counting polynomial: (False, t+i), and (True, n-1-t-i) when
    the slot's coset has size 2m (a GF(q) coefficient is its own
    conjugate), n the moment system size.

    For f1 this is the reflection Q(u) = u^(n-1) P(1/u) of the polynomial P
    with slot i's coefficient at u^(t-i) and its conjugate at u^(t+i).
    Inversion permutes W, so Q and P have the same number of roots on W
    for every tuple."""
    t, n = vspec.t, vspec.moment_size
    return [[(False, t + i)] + ([(True, n - 1 - t - i)] if size > vspec.m else [])
            for i, size in enumerate(vspec.coset_sizes)]


def validate_tuple(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> None:
    if len(a) != len(vspec.exponents):
        raise ValueError(
            f"coefficient tuple has length {len(a)}, expected {len(vspec.exponents)}")
    for c in a:
        if not 0 <= c < ctx.order:
            raise ValueError(f"element code {c!r} outside GF({ctx.order})")
    for c, size in zip(a, vspec.coset_sizes):
        # only f1's leading slot has a coset of size m (see validate_spec)
        if size == vspec.m and not ctx.is_subfield_element(c, vspec.m):
            raise ValueError(f"leading coefficient {c} is not in GF({vspec.q})")


# -- batch paths -------------------------------------------------------------

def _columns(vspec: ValidatedSpec, tuples: list[tuple[int, ...]], ctx: FieldContext,
             rows: int):
    """Validate every tuple, then yield them in chunks of at most
    _BATCH_ENTRIES // rows tuples, each chunk as per-slot domains: slot s
    holds the chunk's s-th coefficients, in input order."""
    for a in tuples:
        validate_tuple(vspec, a, ctx)
    size = max(1, _BATCH_ENTRIES // rows)
    for start in range(0, len(tuples), size):
        yield list(zip(*tuples[start:start + size]))


def codeword_weights(vspec: ValidatedSpec, tuples: list[tuple[int, ...]],
                     ctx: FieldContext) -> list[int]:
    """Hamming weights by direct positionwise evaluation of the defining
    trace expression, in input order; independent of the root-counting
    shortcut.  Column i of the slot tables is tuple i, so the symbols are
    the slot tables summed elementwise."""
    import numpy as np
    add, _ = adder(vspec.p, 1)
    weights = []
    for domains in _columns(vspec, tuples, ctx, vspec.length):
        symbols = reduce(add, _symbol_tables(vspec, ctx, domains))
        weights += np.count_nonzero(symbols, axis=0).tolist()
    return weights


def char_sums(vspec: ValidatedSpec, tuples: list[tuple[int, ...]],
              ctx: FieldContext) -> list[int]:
    """Character sums via root counting over W, in input order.

    Evaluates each tuple's coefficient polynomial at every point of W; each
    root accounts for e unit-circle solutions, giving N = e * roots and the
    sum (p-1)q(N-1).  The zero tuple makes the polynomial vanish
    identically, which yields (p-1)q^2.
    """
    import numpy as np
    scale = (vspec.p - 1) * vspec.q
    add, _ = adder(ctx.p, ctx.degree)
    sums = []
    for domains in _columns(vspec, tuples, ctx, (vspec.q + 1) // vspec.e):
        values = reduce(add, _root_tables(vspec, ctx, domains))
        sums += [scale * (vspec.e * roots - 1)
                 for roots in np.count_nonzero(values == 0, axis=0).tolist()]
    return sums


def codeword_weight(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> int:
    """One tuple's Hamming weight: codeword_weights of a batch of one."""
    return codeword_weights(vspec, [a], ctx)[0]


def char_sum(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> int:
    """One tuple's character sum: char_sums of a batch of one."""
    return char_sums(vspec, [a], ctx)[0]


def weight_from_char_sum(vspec: ValidatedSpec, s: int) -> int:
    q, p = vspec.q, vspec.p
    num = q * q * (p - 1) - s
    if num % p:
        raise ValueError(f"character sum {s} is not a valid value for {vspec.key}")
    return num // p


# -- the sweep engine -----------------------------------------------------

def _root_tables(vspec: ValidatedSpec, ctx: FieldContext,
                 domains: list) -> list[np.ndarray]:
    """Per coefficient slot, its term of the root-counting polynomial at
    every W point for every coefficient of its domain, as packed elements:
    shape (|W|, |domain|).  A term z * u^k is gamma^((log z + k log u) mod n)
    and its conjugate z^q * u^k is gamma^((q log z + k log u) mod n), both
    read from the packed_exp view and masked to 0 where z = 0."""
    import numpy as np
    q, n = vspec.q, ctx.order - 1
    add, _ = adder(ctx.p, ctx.degree)
    wlog = np.arange(0, n, (q - 1) * vspec.e)[:, None]  # W = <gamma^((q-1)e)>
    tables = []
    for slot, domain in zip(_slot_terms(vspec), domains):
        z = np.asarray(domain)[None, :]
        zlog, nonzero = ctx.log[z], z != 0
        terms = [ctx.packed_exp[((q if conjugate else 1) * zlog + uexp * wlog) % n] * nonzero
                 for conjugate, uexp in slot]
        tables.append(reduce(add, terms))
    return tables


def _symbol_tables(vspec: ValidatedSpec, ctx: FieldContext,
                   domains: list) -> list[np.ndarray]:
    """Per coefficient slot, its trace symbol at every codeword position for
    every coefficient of its domain: shape (q^2-1, |domain|).  The symbol
    of z at position i is Tr(z gamma^(d i)), one read of the trace view at
    exponent (log z + d i) mod n, masked to 0 where z = 0.

    A slot whose coset has size m takes its trace from GF(q) only, since
    its coefficient and gamma^(d i) both lie in GF(q).  For x in GF(q) that
    trace is Tr(theta x) down from GF(q^2), where theta =
    gamma / (gamma + gamma^q) has theta + theta^q = 1 (gamma + gamma^q is
    nonzero and lies in GF(q)), so every slot reads the one trace view."""
    import numpy as np
    n = vspec.length
    positions = np.arange(n)[:, None]
    tables = []
    for domain, d, size in zip(domains, vspec.exponents, vspec.coset_sizes):
        z = np.asarray(domain)[None, :]
        zlog = ctx.log[z]
        if size == vspec.m:
            add, _ = adder(ctx.p, ctx.degree)
            relative = unpack(add(ctx.packed_exp[1], ctx.packed_exp[vspec.q]),
                              ctx.p, ctx.degree)
            zlog = zlog + 1 - ctx.log[relative]
        tables.append(ctx.trace[(zlog + d * positions) % n] * (z != 0))
    return tables


def _zero_count_histogram(tables: list[np.ndarray], add, neg) -> list[int]:
    """How many coefficient tuples make exactly c of the L summed entries
    zero, for c = 0..L, the all-zero tuple removed.

    tables[s][k, i] is slot s's entry k when its coefficient is the i-th of
    its domain, a packed element; a tuple's entry k is the sum over its
    slots by the adder's add, and neg negates.  A domain that holds the
    zero coefficient holds it first, as an all-zero column; when every
    domain does, the all-zero tuple (count L) is swept and removed.  The
    trailing slots are folded into one block of at most _BLOCK_ENTRIES
    entries, which is then negated; the leading (outer) slots are walked as
    one flat index, and an outer tuple's partial sum is matched against
    every negated block column at once.
    """
    import numpy as np
    n_entries = tables[0].shape[0]
    split, cols = len(tables) - 1, tables[-1].shape[1]
    while split > 0 and n_entries * cols * tables[split - 1].shape[1] <= _BLOCK_ENTRIES:
        split -= 1
        cols *= tables[split].shape[1]
    block = tables[split]
    for nxt in tables[split + 1:]:
        block = add(block[:, :, None], nxt[:, None, :]).reshape(n_entries, -1)
    block = neg(block)

    outer_sizes = [t.shape[1] for t in tables[:split]]
    count_dtype = np.min_scalar_type(n_entries)
    hist = np.zeros(n_entries + 1, dtype=np.int64)
    for outer in itertools.product(*map(range, outer_sizes)):
        partial = np.zeros(n_entries, dtype=block.dtype)
        for table, zi in zip(tables, outer):
            partial = add(partial, table[:, zi])
        counts = (block == partial[:, None]).sum(axis=0, dtype=count_dtype)
        hist += np.bincount(counts, minlength=n_entries + 1)
    if not any(table[:, 0].any() for table in tables):
        hist[n_entries] -= 1
    return [int(c) for c in hist]


def brute_distribution(vspec: ValidatedSpec, ctx: FieldContext | None = None,
                       budget: int = DEFAULT_BUDGET, path: str = "fast") -> WeightDistribution:
    """Exact weight distribution over all nonzero coefficient tuples.

    path "fast" counts W-roots per tuple; path "slow" evaluates every
    codeword position.  Both are charged p^dimension * (q^2-1) against the
    budget and refused, not truncated, when it does not fit.
    """
    required = vspec.codeword_count * vspec.length
    if required > budget:
        raise BudgetExceeded(required, budget)
    ctx = _context_for(vspec, ctx)
    if path == "fast":
        build = _root_tables
        add, neg = adder(ctx.p, ctx.degree)

        def weight_of(roots):
            return weight_for_index(vspec.p, vspec.q, vspec.e, roots)
    elif path == "slow":
        build = _symbol_tables
        add, neg = adder(vspec.p, 1)

        def weight_of(zeros):
            return vspec.length - zeros
    else:
        raise ValueError(f"path must be 'fast' or 'slow', got {path!r}")

    domains = coefficient_domains(vspec, ctx)
    j0 = next((i for i, size in enumerate(vspec.coset_sizes) if size > vspec.m), None)
    if j0 is not None:
        # one representative per cyclic orbit of a_j0 (see the module doc)
        n = vspec.length
        g = math.gcd(vspec.exponents[j0], n)
        domains[j0] = ctx.exp[:g]
        tables = build(vspec, ctx, domains)
        rest = tables[:j0] + tables[j0 + 1:]
        hist = [n // g * c for c in _zero_count_histogram([tables[j0]] + rest, add, neg)]
        if rest:
            hist = [a + b for a, b in zip(hist, _zero_count_histogram(rest, add, neg))]
    else:
        hist = _zero_count_histogram(build(vspec, ctx, domains), add, neg)

    counts_by_weight = Counter()
    for count, f in enumerate(hist):
        if f:
            counts_by_weight[weight_of(count)] += f
    weights = theoretical_weights(vspec.p, vspec.q, vspec.e, vspec.moment_size)
    freq_by_j = tuple(counts_by_weight.get(w, 0) for w in weights)
    stray = any(w not in weights for w in counts_by_weight)

    total = sum(counts_by_weight.values())
    expected = vspec.codeword_count - 1
    if total != expected:
        raise AssertionError(f"swept {total} tuples, expected {expected}")
    entries = tuple(sorted(counts_by_weight.items()))
    return WeightDistribution(
        length=vspec.length, dimension=vspec.dimension, entries=entries,
        weights_by_j=weights, freq_by_j=None if stray else freq_by_j)


# -- tuple counting and power moments --------------------------------------

def _row_ids(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the rows of a (R, k) array of unsigned entries below
    `base` (packed elements below 2^(W k) in n_r_brute), equal rows sharing
    an id, and the index of each id's first row.

    The columns are combined base `base` into one int64 key; when the next
    column would not fit, the key built so far is first replaced by its
    rank, which is below R, and if it still would not, so is the column.
    """
    import numpy as np
    ids = np.zeros(len(rows), dtype=np.int64)
    bound = 1
    for col in rows.T:
        width = base
        if bound * width > 1 << 63:
            _, ids = np.unique(ids, return_inverse=True)
            bound = len(rows)
        if bound * width > 1 << 63:
            _, col = np.unique(col, return_inverse=True)
            width = len(rows)
        ids = ids * width + col.astype(np.int64)
        bound *= width
    _, first, ids = np.unique(ids, return_index=True, return_inverse=True)
    return ids, first


def _merge_rows(keys: np.ndarray, counts: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of keys, each with the sum of its rows' counts."""
    import numpy as np
    ids, first = _row_ids(keys, base)
    merged = np.zeros(len(first), dtype=counts.dtype)
    np.add.at(merged, ids, counts)
    return keys[first], merged


def n_r_brute(vspec: ValidatedSpec, r: int, ctx: FieldContext | None = None,
              budget: int = DEFAULT_BUDGET) -> int:
    """Number of r-tuples of nonzero GF(q^2) elements that satisfy every
    defining power-sum equation, by meet in the middle.

    An element's signature is the vector of its exponent powers, packed.  The
    histogram of the n = q^2-1 signatures is convolved with itself
    ceil(r/2) and floor(r/2) times, equal sums merged after each step, into
    the histograms A and B of signature sums over ceil(r/2)- and
    floor(r/2)-tuples; N_r = sum_s A[s] B[-s].  That is O(n^ceil(r/2))
    work.  The counts of an h-fold sum add up to n^h, so they are int64
    while n^ceil(r/2) fits and Python ints beyond; the final sum is taken
    in Python ints.  Charged (q^2-1)^r against the budget.
    """
    import numpy as np
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = vspec.length
    required = n**r
    if required > budget:
        raise BudgetExceeded(required, budget)
    ctx = _context_for(vspec, ctx)
    add, neg = adder(ctx.p, ctx.degree)
    base = 1 << digit_bits(ctx.p) * ctx.degree

    powers = np.arange(n, dtype=np.int64)
    sigs = np.stack([ctx.packed_exp[d * powers % n] for d in vspec.exponents], axis=1)
    width = sigs.shape[1]
    count_dtype = np.int64 if n ** ((r + 1) // 2) < 1 << 63 else object
    one_keys, one_counts = _merge_rows(sigs, np.ones(n, dtype=count_dtype), base)

    def plus_one(keys, counts):
        """The histogram of the sums with one more signature."""
        sums = add(keys[:, None, :], one_keys[None, :, :])
        return _merge_rows(sums.reshape(-1, width), (counts[:, None] * one_counts).reshape(-1),
                           base)

    high = low = (np.zeros((1, width), dtype=sigs.dtype), np.ones(1, dtype=count_dtype))
    for size in range(1, (r + 1) // 2 + 1):
        high = plus_one(*high)
        if size == r // 2:
            low = high
    keys_a, counts_a = high
    keys_b, counts_b = low
    ids, _ = _row_ids(np.concatenate([keys_a, neg(keys_b)]), base)
    counts_by_id = np.zeros(len(ids), dtype=count_dtype)
    counts_by_id[ids[len(keys_a):]] = counts_b
    return sum(map(operator.mul, counts_a.tolist(), counts_by_id[ids[:len(keys_a)]].tolist()))


@dataclass(frozen=True)
class PowerMomentReport:
    r: int
    ok: bool
    lhs: int
    rhs: int


def power_moment_check(vspec: ValidatedSpec, r: int,
                       dist: WeightDistribution) -> PowerMomentReport:
    """Compare the r-th power moment of the character sums, aggregated from
    a swept distribution, with its predicted value from N_r:

        sum over all tuples of (S(a) - (p-1))^r = (p-1)^r q^n N_r,

    n the moment system size (f1 is the case p = 2).  A tuple of weight w
    has S(a) = (p-1)q^2 - p w, so its term is (top - p w)^r with
    top = (p-1)(q^2-1), the zero tuple's term.  Every entry of dist is
    aggregated, a weight outside the model too, so a stray weight shows as
    a mismatch.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    q, p = vspec.q, vspec.p
    top = (p - 1) * (q * q - 1)
    lhs = top**r + sum(f * (top - p * w) ** r for w, f in dist.entries)
    rhs = (p - 1) ** r * q**vspec.moment_size * n_r(r, q, vspec.e)
    return PowerMomentReport(r=r, ok=lhs == rhs, lhs=lhs, rhs=rhs)
