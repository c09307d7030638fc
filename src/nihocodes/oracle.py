"""Independent ground truth by direct enumeration.

Two weight paths are kept separate by method, and each is implemented
once, as a table builder over the field's array views; _path names each
one's builder, entries, adder and weight, which column_weights and
brute_distribution both read:

  * the positionwise ("slow") path, _symbol_tables, evaluates the defining
    trace expression of a codeword symbol by symbol over all q^2-1
    coordinates, as GF(p) symbols read from the doubled trace view trace2;
    a tuple's weight is its count of nonzero symbols;
  * the root-counting ("fast") path, _root_tables, evaluates a polynomial
    of degree below the moment system size n over the small subgroup W of
    the unit circle (order (q+1)/e); a tuple with j roots there has weight
    solver.weight_for_index(j).  Its values are GF(q^2) elements in the
    packed form of galois, read from the doubled packed_exp2 view.

Both builders add two exponents below n = q^2-1, each reduced on its own
short vector (the coefficients' logs, or d i over the entries), and gather
the sum from a view repeated twice, so no % n runs over a whole table.  The
field's views and constants (galois) live as long as its context, and a
small field's context is kept for the process, so they are built once.

The zero set enters through its coset sizes alone: a slot whose coset has
size m takes GF(q) coefficients and one root-counting term, any other slot
all of GF(q^2) and a second term for its conjugate (see _slot_terms).

brute_distribution sweeps orbit representatives of the group H that the
cyclic shift, Frobenius and GF(p)* scaling generate: the multipliers of
MacWilliams & Sloane, The Theory of Error-Correcting Codes, ch. 8 §5.  Each
keeps every weight.  On the exponent x of a nonzero coefficient
a_j = gamma^x, H acts slot by slot as

    x -> p^k (x + d_j s) + L  (mod n = q^2-1),  L a multiple of n/(p-1),

with one shift s, Frobenius power k and scalar gamma^L of GF(p)* for all
slots; a zero coefficient stays zero.  Only the code's cyclicity,
GF(p)-linearity and Frobenius are used, none of the paper's formulas.

The full slots (coset size 2m, coefficients in all of GF(q^2)) are taken two
at a time.  Level i sweeps the tuples whose earlier full slots are zero and
whose i-th pair (a_j, a_j') is not, by one call of the engine,
_zero_count_histogram, over a head: the H-orbit representatives of the
nonzero pairs, each column weighted by its orbit's size, with the later
full slots and the GF(q) slot free.  H maps the tuples with head
(a_j, a_j') one to one onto those with the image head, weights kept, so
every pair of an orbit has the same histogram.  The last level, which may
hold one full slot, also carries the zero column with weight 1, for the
tuples whose full slots are all zero; so up to two full slots take one
engine call.  A zero set with no full slot (f1 with t = 0) is swept whole.

_head_orbits finds the representatives with Python integers on small
moduli:

  * a_j: the shifts and scalings move x through g Z_n,
    g = gcd(d_j, n/(p-1)), so the orbits of a_j are the p-orbits of Z_g;
    one of size c stands for c n/g exponents.  (a_j, 0) and (0, a_j') are
    such orbits of one coordinate.
  * a_j' given a_j = gamma^x, x a representative: the stabiliser of x is
    made of the shifts and scalings that fix x, which move the exponent x'
    of a_j' through D Z_n, and of the powers of one map x' -> p^c x' + b,
    c the size of x's p-orbit: Frobenius to the power c, then the shift and
    scaling that take p^c x back to x.  The representatives of x' are the
    cycles of that map on Z_D; a cycle of length l stands for l n/D
    exponents, so (x, x') for c n/g * l n/D pairs.

Multipliers outside H relate different specs.  multiplier_class scales a
spec's exponents by the unit u of Z_n that makes them 1 mod q-1 and keeps
them mod q+1.  Two specs with equal classes have codes that the position
map i -> v i, v a unit, carries onto each other, so their distributions are
equal and one sweep serves both; its docstring has the proof.  `niho sweep`
keys its oracle sweeps by it.  The class reads each spec's own exponents;
it does not rest on the paper's claim that the distribution depends on
(e, t) alone.

n_r_brute counts by meet in the middle.  Every exponent has
d_j = delta mod q-1, so lambda in GF(q)* maps a solution (x_1, .., x_r) to
the solution (lambda x_1, .., lambda x_r), every power sum scaled by
lambda^delta, and GF(q)* acts freely; Frobenius maps solutions to
solutions too.  The ceil(r/2) half therefore starts from the signatures (an
element's exponent powers) of x_1 = gamma^i, one i per p-orbit of
Z_(q+1), each counted (q-1) times its orbit's size, since the cosets of
GF(q)* are the gamma^i GF(q)*.  It and the floor(r/2) half, grown from the
zero signature, are histograms convolved with the q^2-1 signatures one
coordinate at a time, and N_r pairs the half-sums s and -s.  A signature is
packed whole elements to a 64-bit lane, so one lane holds it whenever
W * 2m * (number of exponents) <= 64, as at every spec of the benchmark's
verify workload (at most 48 bits), and lanes add by the adder.  Equal
sums merge by one sort of the rows, cut where the row changes, and the
halves pair as the equal neighbours of one sort of A and -B.  A spec's
halves live as long as the spec object, so one verify's calls for r = 1..4
share the signatures and every level grown, and none outlive the command.
The floor(r/2) half stays unreduced: keyed by GF(q)*-orbits too, it
measured 1.5-2 times slower at r <= 3 for q = 8 and 9 and won only at
q = 16 with r = 4, which the benchmark refuses by budget.

power_moment_check aggregates a swept distribution into the one power
moment identity of both families, sum over all tuples of
(S(a) - (p-1))^r = (p-1)^r q^n N_r, n the moment system size (f1 is the
case p = 2); it sweeps nothing itself.

The full-space sweep brute_distribution and the tuple counter n_r_brute
run under an operation budget; an over-budget request is refused
outright, never truncated.  The stated cost model charges sweep_charge,
p^dimension * (q^2-1), for a distribution sweep regardless of path, and
(q^2-1)^r for counting r-tuples: the costs of plain enumeration, though
the orbit reductions and the meet in the middle do far less work.  f1 at
q = 8, t = 4 is charged 2^27 * 63, about 8.5e9, and sweeps 491,656
tuples; showcase 1's N_3 is charged 255^3, and its larger half holds 765 sums.

Like galois, this module imports numpy inside the functions that use it,
so importing it (as the CLI does) costs no numpy import.

Domains list their coefficients in a fixed order: zero first, then
ascending generator exponents, over GF(q) for a slot whose coset has size m
and over GF(q^2) otherwise.  Results are exact counts and do not depend on
the order in which the engine walks the tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from .codespec import ValidatedSpec
from .galois import FieldContext, adder, build_field, digit_bits, packed_dtype
from .moments import n_r
from .solver import WeightDistribution, theoretical_weights, weight_for_index

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 10**10
_BLOCK_ENTRIES = 1 << 22
# Table entries per slot in one chunk of column_weights: larger chunks save
# no numpy calls worth having and cost memory.
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
    return [ctx.half_subfield if size == vspec.m else ctx.elements
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

def _chunks(columns, rows: int):
    """The per-slot coefficient columns, all of one length, in chunks of at
    most _BATCH_ENTRIES // rows tuples, each chunk as per-slot domains:
    slot s holds the chunk's part of columns[s], in input order."""
    size = max(1, _BATCH_ENTRIES // rows)
    for start in range(0, len(columns[0]), size):
        yield {slot: column[start:start + size] for slot, column in enumerate(columns)}


def _path(vspec: ValidatedSpec, path: str):
    """(table builder, entries per table, add, neg, weight) of a weight
    path, weight mapping a tuple's count of zero entries to its Hamming
    weight.  "fast" counts the roots on W of the root-counting polynomial,
    whose j roots give weight_for_index(j) (see solver); "slow" counts the
    zero symbols over every codeword position."""
    if path == "fast":
        return (_root_tables, (vspec.q + 1) // vspec.e, *adder(vspec.p, 2 * vspec.m),
                functools.partial(weight_for_index, vspec.p, vspec.q, vspec.e))
    if path == "slow":
        return (_symbol_tables, vspec.length, *adder(vspec.p, 1),
                functools.partial(operator.sub, vspec.length))
    raise ValueError(f"path must be 'fast' or 'slow', got {path!r}")


def column_weights(vspec: ValidatedSpec, columns, ctx: FieldContext, path: str) -> list[int]:
    """Hamming weights on one weight path (see _path) of the tuples whose
    s-th coefficients are columns[s], in column order.  The coefficients
    must lie in their slots' domains, as draws from coefficient_domains do;
    nothing is validated.  Column i of the slot tables is tuple i, so the
    tuples' entries are the slot tables summed elementwise; the zero tuple
    makes every entry zero, weight 0 on either path."""
    import numpy as np
    build, entries, add, _, weight = _path(vspec, path)
    weights = []
    for domains in _chunks(columns, entries):
        nonzero = np.count_nonzero(reduce(add, build(vspec, ctx, domains)), axis=0)
        weights += map(weight, (entries - nonzero).tolist())
    return weights


def codeword_weight(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> int:
    """One tuple's Hamming weight on the slow path, validated first.

    No command calls it: the CLI calls `column_weights` on whole batches.  It
    stays for the tests and while the benchmark traces it.
    """
    validate_tuple(vspec, a, ctx)
    return column_weights(vspec, [(c,) for c in a], ctx, "slow")[0]


def char_sum(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> int:
    """One tuple's character sum (p-1)q^2 - p w, w its weight on the fast
    path, validated first; the zero tuple gives (p-1)q^2.

    No command calls it, like codeword_weight.
    """
    validate_tuple(vspec, a, ctx)
    w = column_weights(vspec, [(c,) for c in a], ctx, "fast")[0]
    return (vspec.p - 1) * vspec.q**2 - vspec.p * w


# -- the sweep engine -----------------------------------------------------

def _root_tables(vspec: ValidatedSpec, ctx: FieldContext,
                 domains: dict) -> list[np.ndarray]:
    """Per coefficient slot s of domains, in their order, its term of the
    root-counting polynomial at every W point for every coefficient of its
    domain, as packed elements: shape (|W|, |domain|).  A term z * u^k is
    gamma^(log z + (k log u mod n)) and its conjugate z^q * u^k is
    gamma^((q log z mod n) + (k log u mod n)), both read from the doubled
    packed_exp2 view, so the sum of two exponents below n needs no
    reduction; their sum is masked to 0 where z = 0 (log 0 = -1 reads a
    valid entry, as k log u mod n >= 0)."""
    import numpy as np
    q, n = vspec.q, ctx.order - 1
    add, _ = adder(ctx.p, ctx.degree)
    wlog = np.arange(0, n, (q - 1) * vspec.e)[:, None]  # W = <gamma^((q-1)e)>
    slot_terms = _slot_terms(vspec)
    tables = []
    for slot, domain in domains.items():
        z = np.asarray(domain)[None, :]
        zlog, nonzero = ctx.log[z], z != 0
        terms = [ctx.packed_exp2[(q * zlog % n if conjugate else zlog) + uexp * wlog % n]
                 for conjugate, uexp in slot_terms[slot]]
        tables.append(reduce(add, terms) * nonzero)
    return tables


def _symbol_tables(vspec: ValidatedSpec, ctx: FieldContext,
                   domains: dict) -> list[np.ndarray]:
    """Per coefficient slot s of domains, in their order, its trace symbol
    at every codeword position for every coefficient of its domain: shape
    (q^2-1, |domain|).  The symbol of z at position i is Tr(z gamma^(d i)),
    one read of the doubled trace2 view at exponent log z + (d i mod n):
    d i mod n is taken once per slot over the n positions, and the table is
    one add and one gather with no reduction.  It is masked to 0 where
    z = 0 (log 0 = -1 reads a valid entry, as d i mod n >= 0).

    A slot whose coset has size m takes its trace from GF(q) only, since
    its coefficient and gamma^(d i) both lie in GF(q).  For x in GF(q) that
    trace is Tr(theta x) down from GF(q^2), theta the field's theta_log
    power of gamma, so every slot reads the one trace view; the shifted
    log z is reduced mod n on its one row."""
    import numpy as np
    n = vspec.length
    positions = np.arange(n)[:, None]
    tables = []
    for slot, domain in domains.items():
        z = np.asarray(domain)[None, :]
        zlog = ctx.log[z]
        if vspec.coset_sizes[slot] == vspec.m:
            zlog = (zlog + ctx.theta_log) % n
        steps = vspec.exponents[slot] * positions % n
        tables.append(ctx.trace2[zlog + steps] * (z != 0))
    return tables


def _zero_count_histogram(tables: list[np.ndarray], add, neg,
                          weights: list[int] | None = None) -> list[int]:
    """How many coefficient tuples make exactly c of the L summed entries
    zero, for c = 0..L, the all-zero tuple removed.

    tables[s][k, i] is slot s's entry k when its coefficient is the i-th of
    its domain, a packed element; a tuple's entry k is the sum over its
    slots by the adder's add, and neg negates.  A domain that holds the
    zero coefficient holds it first, as an all-zero column; when every
    domain does, the all-zero tuple (count L) is swept and removed.  The
    trailing slots are folded into one block of at most _BLOCK_ENTRIES
    entries; the leading (outer) slots are walked as one flat index, and an
    outer tuple's partial sum is matched against every column of the
    negated block at once.  With no outer slot the block's zeros are
    counted as they are.

    Column i of tables[0] stands for weights[i] tuples, one each when
    weights is None (an all-zero column for the zero tuple alone, weight
    1): the counts are binned per column of tables[0], and the rows summed
    with those weights in int64, like the counts themselves.
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
    if split:  # with no outer slot the partial sums are 0, and neg keeps 0
        block = neg(block)

    outer_sizes = [t.shape[1] for t in tables[:split]]
    count_dtype = np.min_scalar_type(n_entries)
    bins = n_entries + 1
    rows = tables[0].shape[1]
    hist = np.zeros((rows, bins), dtype=np.int64)
    # a block column's leading digit is its column of tables[0]; an offset
    # moves its count into that row
    offsets = np.arange(0, hist.size, bins)[:, None]
    for outer in itertools.product(*map(range, outer_sizes)):
        partial = 0
        for table, zi in zip(tables, outer):
            partial = add(partial, table[:, zi, None])
        counts = (block == partial).sum(axis=0, dtype=count_dtype)
        if split:  # the outer index leads with the column of tables[0]
            hist[outer[0]] += np.bincount(counts, minlength=bins)
        else:
            keys = (counts.reshape(rows, -1) + offsets).ravel()
            hist += np.bincount(keys, minlength=hist.size).reshape(rows, bins)
    if not any(table[:, 0].any() for table in tables):
        hist[0, n_entries] -= 1
    weights = [1] * rows if weights is None else weights
    return (np.asarray(weights, dtype=np.int64) @ hist).tolist()


def _cycles(mult: int, shift: int, modulus: int) -> list[tuple[int, int]]:
    """(least element, length) of each cycle of y -> mult*y + shift on
    Z_modulus, ascending; mult is a unit mod modulus, so the map permutes
    Z_modulus."""
    seen = bytearray(modulus)
    cycles = []
    for start in range(modulus):
        if seen[start]:
            continue
        y, length = start, 0
        while True:
            seen[y] = 1
            length += 1
            y = (mult * y + shift) % modulus
            if y == start:
                break
        cycles.append((start, length))
    return cycles


def _head_orbits(vspec: ValidatedSpec, head: list[int],
                 zero: bool) -> tuple[list[list[int]], list[int]]:
    """One representative per H-orbit of the nonzero coefficients of the
    one or two full slots in head, and the orbit sizes.  A representative
    is given per head slot by its index in the slot's full domain: 0 for
    the zero coefficient, 1 + x for gamma^x.  With zero, the zero column
    comes first, of weight 1.  See the module doc for H and the orbits."""
    n, p = vspec.length, vspec.p
    scale = n // (p - 1)  # GF(p)* = <gamma^scale>
    firsts, seconds, sizes = ([0], [0], [1]) if zero else ([], [], [])
    d = vspec.exponents[head[0]]
    g = math.gcd(d, scale)
    pair = len(head) == 2
    if pair:
        d2 = vspec.exponents[head[1]]
        # the shifts and scalings that fix a_j translate a_j' by D Z_n, and
        # d s + L = g for s = alpha, L = beta * scale
        D = math.gcd(d2 * (scale // g) - d // g * scale, n)
        alpha = pow(d // g, -1, scale // g)
        beta = (g - d * alpha) // scale
    for x, size in _cycles(p, 0, g):
        orbit = size * (n // g)
        firsts.append(1 + x)
        seconds.append(0)
        sizes.append(orbit)
        if pair:
            # x's stabiliser acts on a_j' mod D by its Frobenius power p^size
            # and the shift and scaling that take p^size x back to x
            shift = (d2 * alpha + beta * scale) * (x * (1 - p**size) // g) % D
            for y, length in _cycles(p**size % D, shift, D):
                firsts.append(1 + x)
                seconds.append(1 + y)
                sizes.append(orbit * length * (n // D))
    if pair:
        g2 = math.gcd(d2, scale)
        for y, size in _cycles(p, 0, g2):
            firsts.append(0)
            seconds.append(1 + y)
            sizes.append(size * (n // g2))
    return [firsts, seconds][:len(head)], sizes


def sweep_charge(vspec: ValidatedSpec) -> int:
    """What brute_distribution charges against the budget: p^dimension * (q^2-1)."""
    return vspec.codeword_count * vspec.length


def brute_distribution(vspec: ValidatedSpec, ctx: FieldContext | None = None,
                       budget: int = DEFAULT_BUDGET, path: str = "fast") -> WeightDistribution:
    """Exact weight distribution over all nonzero coefficient tuples.

    path "fast" counts W-roots per tuple; path "slow" evaluates every
    codeword position.  Either sweeps orbit representatives, one engine
    call per pair of full slots (see the module doc).  Both are charged
    sweep_charge and refused, not truncated, when it exceeds the budget.
    """
    build, _, add, neg, weight_of = _path(vspec, path)
    required = sweep_charge(vspec)
    if required > budget:
        raise BudgetExceeded(required, budget)
    ctx = _context_for(vspec, ctx)
    domains = coefficient_domains(vspec, ctx)
    full = [i for i, size in enumerate(vspec.coset_sizes) if size > vspec.m]
    heads = [full[i:i + 2] for i in range(0, len(full), 2)] or [[]]
    hists = []
    for level, head in enumerate(heads):
        # the earlier full slots are zero; the later ones and the GF(q) slot are free
        done = full[:2 * level + len(head)]
        free = {i: domains[i] for i in range(len(domains)) if i not in done}
        if head:
            columns, sizes = _head_orbits(vspec, head, zero=level == len(heads) - 1)
            tables = build(vspec, ctx, {**{j: domains[j][c] for j, c in zip(head, columns)},
                                        **free})
            tables[:len(head)] = [reduce(add, tables[:len(head)])]
        else:  # no full slot: the GF(q) slot alone, swept whole
            tables, sizes = build(vspec, ctx, free), None
        hists.append(_zero_count_histogram(tables, add, neg, sizes))

    counts_by_weight = Counter()
    for count, f in enumerate(reduce(lambda a, b: [x + y for x, y in zip(a, b)], hists)):
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


def multiplier_class(vspec: ValidatedSpec) -> tuple[int, int, tuple[int, ...]]:
    """(e, t, sorted u*d mod n over the exponents d), n = q^2-1 and u the
    least unit of Z_n with u = delta^-1 (mod q-1) and u = 1 (mod q+1).
    Specs of one p and m with equal classes have equal brute_distribution
    results, so one sweep serves them all.

    Proof.  Let specs A and B have equal classes, so u_A d_j^A = u_B d_pi(j)^B
    (mod n) for a bijection pi of the slots, and put v = u_A u_B^-1, a unit
    with v d_j^A = d_pi(j)^B.  Multiplying by a unit keeps d q = d (mod n),
    so slot j of A and slot pi(j) of B have cosets of one size and take
    coefficients from one domain; coset sizes, dimension, length and the
    tuple count p^dimension agree.  For a tuple a of A, give B's slot pi(j)
    the coefficient a_j: B's symbol at position i is the sum of the traces
    of a_j gamma^(v d_j^A i), A's symbol at position v i.  So the position
    map i -> u_A^-1 u_B i, a permutation of Z_n (the multipliers of
    MacWilliams & Sloane ch. 8 §5), carries A's codeword of a onto B's
    codeword of the relabelled tuple, one to one, and keeps its weight.  The
    distributions agree as counts, and e and t fix the weight list they are
    read against.

    Such a u exists: when q is odd the two moduli share the factor 2, and
    both conditions ask for an odd u, as delta is then odd.  Since
    d_j = delta (mod q-1) and d_j = h (first - 2j) (mod q+1) whatever
    delta, u d_j is 1 (mod q-1) and h (first - 2j) (mod q+1); for p = 2
    the class therefore depends on the family, h and t, and not on delta.
    The paper's formulas are not used."""
    q, n = vspec.q, vspec.length
    u = next(u for u in range(1, n, q + 1) if (u * vspec.delta - 1) % (q - 1) == 0)
    return vspec.e, vspec.t, tuple(sorted(u * d % n for d in vspec.exponents))


# -- tuple counting and power moments --------------------------------------

def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of keys, an (R, L) array of packed
    lanes, and for each pair of neighbours in that order whether their rows
    differ.  One lane sorts by argsort: lexsort, which more lanes need, took
    4-5 times as long on one uint64 key of 4,000 to 65,000 rows."""
    import numpy as np
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    ranked = keys[order]
    return order, (ranked[1:] != ranked[:-1]).any(axis=1)


def _merge(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of keys, ascending, each with the sum of its rows'
    counts (int64 or Python ints): one sort, cut where the row changes."""
    import numpy as np
    order, differs = _runs(keys)
    starts = np.flatnonzero(np.concatenate(([True], differs)))
    return keys[order[starts]], np.add.reduceat(counts[order], starts)


def _pair(keys_a: np.ndarray, counts_a: np.ndarray,
          keys_b: np.ndarray, counts_b: np.ndarray) -> int:
    """sum over rows s of A[s] B[s], the rows of keys_a distinct and those
    of keys_b too, in Python ints: sorted together, an equal row of A and
    one of B are neighbours."""
    import numpy as np
    order, differs = _runs(np.concatenate([keys_a, keys_b]))
    same = np.flatnonzero(~differs)
    left, right = order[same], order[same + 1]
    a, b = np.minimum(left, right), np.maximum(left, right) - len(keys_a)
    return sum(map(operator.mul, counts_a[a].tolist(), counts_b[b].tolist()))


class _HalfSums:
    """The histograms of packed signature sums of one spec, grown on demand.

    An element's signature, the vector of its exponent powers, is packed
    whole elements to a lane: as many W*degree-bit packed elements as 64
    bits hold, the first in the low bits, in the smallest unsigned dtype
    that holds them.  Every spec of the benchmark fits one lane.  The adder
    of galois on degree*(elements per lane) digits adds lanes digit by
    digit, and is XOR for p = 2.  half(k, reduced) is the histogram of
    the sums of k signatures; reduced, the first of them is one gamma^i
    per p-orbit of i in Z_(q+1), standing for its orbit's cosets of GF(q)*
    (see the module doc).  Each level is grown from the one below by one
    add of every signature, then merged.  The counts of k signatures add
    up to n^k, so they are int64 while n^k fits and Python ints beyond."""

    def __init__(self, vspec: ValidatedSpec, ctx: FieldContext):
        import numpy as np
        n, width = vspec.length, len(vspec.exponents)
        bits = digit_bits(ctx.p) * ctx.degree
        per_lane = min(64 // bits, width)
        dtype = packed_dtype(ctx.p, ctx.degree * per_lane)
        self.add, self.neg = adder(ctx.p, ctx.degree * per_lane)
        self.n = n
        powers = np.arange(n, dtype=np.int64)
        lanes = np.zeros((n, -(-width // per_lane)), dtype=dtype)
        for slot, d in enumerate(vspec.exponents):
            lane, place = divmod(slot, per_lane)
            lanes[:, lane] |= ctx.packed_exp[d * powers % n].astype(dtype) << bits * place
        self.one = _merge(lanes, np.ones(n, dtype=np.int64))
        reps = _cycles(ctx.p, 0, vspec.q + 1)
        first = _merge(lanes[[i for i, _ in reps]],
                       np.array([(vspec.q - 1) * size for _, size in reps], dtype=np.int64))
        # levels[k] sums k signatures; the reduced half has no level 0
        self.levels = {True: [None, first],
                       False: [(np.zeros((1, lanes.shape[1]), dtype=dtype),
                                np.ones(1, dtype=np.int64))]}

    def half(self, size: int, reduced: bool) -> tuple[np.ndarray, np.ndarray]:
        levels = self.levels[reduced]
        one_keys, one_counts = self.one
        while len(levels) <= size:
            keys, counts = levels[-1]
            if self.n ** len(levels) >= 1 << 63:
                counts = counts.astype(object)
            sums = self.add(keys[:, None, :], one_keys[None, :, :])
            levels.append(_merge(sums.reshape(-1, keys.shape[1]),
                                 (counts[:, None] * one_counts).reshape(-1)))
        return levels[size]


# n_r_brute's half sums per live spec object; a _HalfSums must not hold its spec or field
_half_sums = weakref.WeakKeyDictionary()


def n_r_brute(vspec: ValidatedSpec, r: int, ctx: FieldContext | None = None,
              budget: int = DEFAULT_BUDGET) -> int:
    """Number of r-tuples of nonzero GF(q^2) elements that satisfy every
    defining power-sum equation, by meet in the middle.

    With A the histogram of the sums of ceil(r/2) signatures, the first
    reduced to one per orbit of GF(q)* scaling and Frobenius, and B that of
    floor(r/2) signatures, N_r = sum_s A[s] B[-s] (see _HalfSums).  A takes
    O((q+1) n^(ceil(r/2)-1)) work and B O(n^floor(r/2)), n = q^2-1.  Levels
    serve every later r of the spec object while it lives, so ctx=None builds
    a field once.  The sum is taken in Python ints.  Charged (q^2-1)^r.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    required = vspec.length**r
    if required > budget:
        raise BudgetExceeded(required, budget)
    sums = _half_sums.get(vspec)
    if sums is None or ctx is not None:  # a passed field is checked on every call
        ctx = _context_for(vspec, ctx)
    if sums is None:
        sums = _half_sums[vspec] = _HalfSums(vspec, ctx)
    keys_a, counts_a = sums.half((r + 1) // 2, reduced=True)
    keys_b, counts_b = sums.half(r // 2, reduced=False)
    return _pair(keys_a, counts_a, sums.neg(keys_b), counts_b)


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
