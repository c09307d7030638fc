"""Independent ground truth by direct enumeration.

Two weight paths are kept deliberately separate at the scalar level:

  * the positionwise path evaluates the defining trace expression of a
    codeword symbol by symbol over all q^2-1 coordinates;
  * the root-counting path evaluates a degree <= 2t polynomial over the
    small subgroup W of the unit circle (order (q+1)/e) and converts the
    number of roots into a character-sum value and hence a weight.

Full-space distribution sweeps run both paths through one engine.  Two
independent table builders give, per coefficient slot, one value per entry
and coefficient: _root_tables the slot's term at each W point (entries are
W points, values GF(q^2) codes), _symbol_tables its trace symbol at each
position (entries are positions, values GF(p) symbols).  The engine,
_zero_count_histogram, sums a tuple's slots entrywise and histograms how
many entries vanish; brute_distribution maps that count to a weight.

brute_distribution sweeps one representative per cyclic orbit of the first
full-field slot j0 (slot 0 for f2, slot 1 for f1 with t >= 1).  A cyclic
shift by s keeps every weight and maps a_j to a_j * gamma^(d_j s), so the
nonzero values of a_j0 fall into g = gcd(d_j0, q^2-1) orbits of equal size
(q^2-1)/g, one through each of gamma^0..gamma^(g-1).  The sweep builds the
tables of that restricted domain, weights its histogram by (q^2-1)/g and
adds the a_j0 = 0 slice unweighted.  The rule uses only the cyclicity of
the code, none of the paper's formulas.  Family f1 with t = 0 has no
full-field slot and is swept whole.

n_r_brute counts by meet in the middle: the histogram of the q^2-1
signatures (an element's exponent powers) is convolved with itself up to
ceil(r/2) times, and N_r pairs the half-sums s and -s.

Full-space sweeps (brute_distribution, power_moment_check) and the tuple
counter n_r_brute run under an operation budget; an over-budget request is
refused outright, never truncated.  The stated cost model charges
p^dimension * (q^2-1) for a distribution sweep regardless of path, and
(q^2-1)^r for counting r-tuples.  These are the costs of plain
enumeration; the budget charges them even though the orbit reduction and
the meet in the middle do less work.

Domains list their coefficients in a fixed order: zero first, then
ascending generator exponents, with the f1 leading coefficient restricted
to GF(q).  Results are exact counts and do not depend on the order in which
the engine walks the tuples.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .codespec import ValidatedSpec
from .galois import FieldContext, build_field
from .moments import n_r
from .solver import WeightDistribution, moment_nodes, theoretical_weights

DEFAULT_BUDGET = 10**10
_BLOCK_ENTRIES = 1 << 22


class BudgetExceeded(RuntimeError):
    """The requested sweep is larger than the operation budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"operation requires a budget of {required}, only {budget} allowed")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class UnitCircle:
    """The order-(q+1) subgroup U of GF(q^2)* and its index-e subgroup W."""

    u: tuple[int, ...]
    w: tuple[int, ...]


def unit_circle(ctx: FieldContext, q: int, e: int) -> UnitCircle:
    n = ctx.order - 1
    if n != q * q - 1:
        raise ValueError(f"context of order {ctx.order} does not match q = {q}")
    u = tuple(ctx.exp_table[(i * (q - 1)) % n] for i in range(q + 1))
    w = tuple(ctx.exp_table[(i * (q - 1) * e) % n] for i in range((q + 1) // e))
    return UnitCircle(u=u, w=w)


def _context_for(vspec: ValidatedSpec, ctx: FieldContext | None) -> FieldContext:
    if ctx is None:
        return build_field(vspec.p, 2 * vspec.m)
    if ctx.p != vspec.p or ctx.order != vspec.q * vspec.q:
        raise ValueError(f"context {ctx!r} does not match spec {vspec.key}")
    return ctx


def coefficient_domains(vspec: ValidatedSpec, ctx: FieldContext) -> list[list[int]]:
    """Per-coefficient code lists in sweep order: zero first, then ascending
    generator exponents.  Family f1 restricts the leading coefficient to the
    subfield GF(q), reached as zero plus powers of gamma^(q+1)."""
    full = [0] + list(ctx.exp_table)
    if vspec.family == "f1":
        return [ctx.subfield_elements(vspec.m)] + [full] * vspec.t
    return [full] * vspec.t


def _slot_terms(vspec: ValidatedSpec) -> list[list[tuple[bool, int]]]:
    """Per coefficient: the (conjugate?, W-point exponent) pairs that build
    the root-counting polynomial."""
    t = vspec.t
    if vspec.family == "f1":
        return [[(False, t)]] + [[(False, t - j), (True, t + j)] for j in range(1, t + 1)]
    return [[(False, t + j - 1), (True, t - j)] for j in range(1, t + 1)]


def validate_tuple(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> None:
    if len(a) != len(vspec.exponents):
        raise ValueError(
            f"coefficient tuple has length {len(a)}, expected {len(vspec.exponents)}")
    if vspec.family == "f1" and not ctx.is_subfield_element(a[0], vspec.m):
        raise ValueError(f"leading coefficient {a[0]} is not in GF({vspec.q})")


# -- scalar paths ---------------------------------------------------------

def codeword_weight(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> int:
    """Hamming weight by direct positionwise evaluation of the defining
    trace expression; independent of the root-counting shortcut."""
    validate_tuple(vspec, a, ctx)
    n = vspec.length
    weight = 0
    for i in range(n):
        if _symbol_at(vspec, a, ctx, i):
            weight += 1
    return weight


def _symbol_at(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext, i: int) -> int:
    n = vspec.length
    if vspec.family == "f1":
        head = ctx.mul(a[0], ctx.exp_table[(vspec.exponents[0] * i) % n])
        sym = ctx.trace_to_prime(head, vspec.m)
        rest_exps = vspec.exponents[1:]
        rest = a[1:]
    else:
        sym = 0
        rest_exps = vspec.exponents
        rest = a
    acc = 0
    for coeff, d in zip(rest, rest_exps):
        acc = ctx.add(acc, ctx.mul(coeff, ctx.exp_table[(d * i) % n]))
    return (sym + ctx.trace_to_prime(acc)) % vspec.p


def char_sum(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> int:
    """Character sum via root counting over W.

    Evaluates the coefficient polynomial at every point of W; each root
    accounts for e unit-circle solutions, giving N = e * roots and the sum
    q(N-1) for family f1 or (p-1)q(N-1) for f2.  The zero tuple makes the
    polynomial vanish identically, which yields q^2 resp. (p-1)q^2.
    """
    validate_tuple(vspec, a, ctx)
    q, e = vspec.q, vspec.e
    w_points = unit_circle(ctx, q, e).w
    terms = _slot_terms(vspec)
    roots = 0
    for u in w_points:
        acc = 0
        for coeff, slot in zip(a, terms):
            for conjugate, uexp in slot:
                c = ctx.pow(coeff, q) if conjugate else coeff
                acc = ctx.add(acc, ctx.mul(c, ctx.pow(u, uexp)))
        if acc == 0:
            roots += 1
    n_sol = e * roots
    if vspec.family == "f1":
        return q * (n_sol - 1)
    return (vspec.p - 1) * q * (n_sol - 1)


def char_sum_direct(vspec: ValidatedSpec, a: tuple[int, ...], ctx: FieldContext) -> int:
    """Character sum by positionwise summation over all of GF(q^2): counts
    zero symbols Z (the origin included) and returns p*Z - q^2.  Slow; used
    to spot-check char_sum."""
    validate_tuple(vspec, a, ctx)
    zeros = 1  # the x = 0 term
    for i in range(vspec.length):
        if _symbol_at(vspec, a, ctx, i) == 0:
            zeros += 1
    return vspec.p * zeros - vspec.q * vspec.q


def weight_from_char_sum(vspec: ValidatedSpec, s: int) -> int:
    q, p = vspec.q, vspec.p
    num = q * q * (p - 1) - s
    if num % p:
        raise ValueError(f"character sum {s} is not a valid value for {vspec.key}")
    return num // p


def _weight_for_count(vspec: ValidatedSpec, roots: int) -> int:
    q, e, p = vspec.q, vspec.e, vspec.p
    if vspec.family == "f1":
        return (q * q - (roots * e - 1) * q) // 2
    return (p - 1) * (q * q - (roots * e - 1) * q) // p


# -- the sweep engine -----------------------------------------------------

def _decode_outer(flat: int, sizes: list[int]) -> list[int]:
    idx = [0] * len(sizes)
    for pos in range(len(sizes) - 1, -1, -1):
        flat, idx[pos] = divmod(flat, sizes[pos])
    return idx


def _group_ops(p: int, size: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Addition table and negation map of the packed base-p codes
    0..size-1 (size a power of p), built digitwise in numpy because an
    interpreted table over GF(q^2) would cost more than a small sweep;
    (None, None) for p = 2, where addition is XOR and every element is its
    own negative."""
    if p == 2:
        return None, None
    codes = np.arange(size)
    add = np.zeros((size, size), dtype=np.int64)
    neg = np.zeros(size, dtype=np.int64)
    place = 1
    while place < size:
        digit = codes // place % p
        add += (digit[:, None] + digit[None, :]) % p * place
        neg += (-digit) % p * place
        place *= p
    dtype = np.min_scalar_type(size - 1)
    return add.astype(dtype), neg.astype(dtype)


def _root_tables(vspec: ValidatedSpec, ctx: FieldContext,
                 domains: list[list[int]]) -> list[np.ndarray]:
    """Per coefficient slot, its term of the root-counting polynomial at
    every W point for every coefficient of its domain, as element codes:
    shape (|W|, |domain|)."""
    q = vspec.q
    w_points = unit_circle(ctx, q, vspec.e).w
    dtype = np.min_scalar_type(ctx.order - 1)
    tables = []
    for slot, domain in zip(_slot_terms(vspec), domains):
        conj = [ctx.pow(z, q) for z in domain]
        table = np.zeros((len(w_points), len(domain)), dtype=dtype)
        for ki, u in enumerate(w_points):
            upows = [ctx.pow(u, uexp) for _, uexp in slot]
            for zi, z in enumerate(domain):
                acc = 0
                for (conjugate, _), upow in zip(slot, upows):
                    acc = ctx.add(acc, ctx.mul(conj[zi] if conjugate else z, upow))
                table[ki, zi] = acc
        tables.append(table)
    return tables


def _symbol_tables(vspec: ValidatedSpec, ctx: FieldContext,
                   domains: list[list[int]]) -> list[np.ndarray]:
    """Per coefficient slot, its trace symbol at every codeword position for
    every coefficient of its domain: shape (q^2-1, |domain|).  Family f1
    takes the leading slot's trace from GF(q) only."""
    n = vspec.length
    exp_arr = np.array(ctx.exp_table, dtype=np.int64)
    dtype = np.min_scalar_type(vspec.p - 1)
    tr_full = np.array([0] + [ctx.trace_to_prime(x) for x in range(1, ctx.order)], dtype=dtype)
    tables = []
    for s, (domain, d) in enumerate(zip(domains, vspec.exponents)):
        tr = tr_full
        if vspec.family == "f1" and s == 0:
            tr = np.zeros(ctx.order, dtype=dtype)
            for x in domain:
                tr[x] = ctx.trace_to_prime(x, vspec.m)
        dlog = d * np.arange(n, dtype=np.int64) % n
        table = np.zeros((n, len(domain)), dtype=dtype)
        for zi, z in enumerate(domain):
            if z:
                table[:, zi] = tr[exp_arr[(ctx.log_table[z] + dlog) % n]]
        tables.append(table)
    return tables


def _zero_count_histogram(tables: list[np.ndarray], add: np.ndarray | None,
                          neg: np.ndarray | None) -> list[int]:
    """How many coefficient tuples make exactly c of the L summed entries
    zero, for c = 0..L, the all-zero tuple removed.

    tables[s][k, i] is slot s's entry k when its coefficient is the i-th of
    its domain; a tuple's entry k is the group sum over its slots, under
    XOR when add is None and through the table add otherwise.  A domain
    that holds the zero coefficient holds it first, as an all-zero column;
    when every domain does, the all-zero tuple (count L) is swept and
    removed.  The trailing slots are folded into one block of at most
    _BLOCK_ENTRIES entries; the leading (outer) slots are walked as one
    flat index, and an outer tuple's partial sum is matched against every
    block column at once.
    """
    n_entries = tables[0].shape[0]
    split, cols = len(tables) - 1, tables[-1].shape[1]
    while split > 0 and n_entries * cols * tables[split - 1].shape[1] <= _BLOCK_ENTRIES:
        split -= 1
        cols *= tables[split].shape[1]
    block = tables[split]
    for nxt in tables[split + 1:]:
        if add is None:
            block = block[:, :, None] ^ nxt[:, None, :]
        else:
            block = add[block[:, :, None], nxt[:, None, :]]
        block = block.reshape(n_entries, -1)

    outer_sizes = [t.shape[1] for t in tables[:split]]
    count_dtype = np.min_scalar_type(n_entries)
    hist = np.zeros(n_entries + 1, dtype=np.int64)
    for flat in range(math.prod(outer_sizes)):
        partial = np.zeros(n_entries, dtype=block.dtype)
        for table, zi in zip(tables, _decode_outer(flat, outer_sizes)):
            partial = partial ^ table[:, zi] if add is None else add[partial, table[:, zi]]
        target = partial if neg is None else neg[partial]
        counts = (block == target[:, None]).sum(axis=0, dtype=count_dtype)
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
        add, neg = _group_ops(vspec.p, ctx.order)

        def weight_of(roots):
            return _weight_for_count(vspec, roots)
    elif path == "slow":
        build = _symbol_tables
        add, neg = _group_ops(vspec.p, vspec.p)

        def weight_of(zeros):
            return vspec.length - zeros
    else:
        raise ValueError(f"path must be 'fast' or 'slow', got {path!r}")

    domains = coefficient_domains(vspec, ctx)
    j0 = 1 if vspec.family == "f1" else 0
    if j0 < len(domains):
        # one representative per cyclic orbit of a_j0 (see the module doc)
        n = vspec.length
        g = math.gcd(vspec.exponents[j0], n)
        domains[j0] = list(ctx.exp_table[:g])
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
    weights = theoretical_weights(vspec.family, vspec.p, vspec.q, vspec.e, vspec.t)
    freq_by_j = tuple(counts_by_weight.get(w, 0) for w in weights)
    stray = any(w not in weights for w in counts_by_weight)

    total = sum(counts_by_weight.values())
    expected = vspec.codeword_count - 1
    if total != expected:
        raise AssertionError(f"swept {total} tuples, expected {expected}")
    entries = tuple(sorted(counts_by_weight.items()))
    return WeightDistribution(
        family=vspec.family, length=vspec.length, dimension=vspec.dimension,
        entries=entries, weights_by_j=weights,
        freq_by_j=None if stray else freq_by_j)


# -- tuple counting and power moments --------------------------------------

def _row_ids(rows: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the rows of a (R, k) array of element codes below
    `order`, equal rows sharing an id, and the index of each id's first row.

    The columns are packed base `order` into one int64 key; when the next
    column would not fit, the key packed so far is first replaced by its
    rank, which is below R.
    """
    ids = np.zeros(len(rows), dtype=np.int64)
    bound = 1
    for col in rows.T:
        if bound * order > 1 << 63:
            _, ids = np.unique(ids, return_inverse=True)
            bound = len(rows)
        ids = ids * order + col
        bound *= order
    _, first, ids = np.unique(ids, return_index=True, return_inverse=True)
    return ids, first


def _merge_rows(keys: np.ndarray, counts: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of keys, each with the sum of its rows' counts."""
    ids, first = _row_ids(keys, order)
    merged = np.zeros(len(first), dtype=counts.dtype)
    np.add.at(merged, ids, counts)
    return keys[first], merged


def n_r_brute(vspec: ValidatedSpec, r: int, ctx: FieldContext | None = None,
              budget: int = DEFAULT_BUDGET) -> int:
    """Number of r-tuples of nonzero GF(q^2) elements that satisfy every
    defining power-sum equation, by meet in the middle.

    An element's signature is the vector of its exponent powers.  The
    histogram of the n = q^2-1 signatures is convolved with itself
    ceil(r/2) and floor(r/2) times, equal sums merged after each step, into
    the histograms A and B of signature sums over ceil(r/2)- and
    floor(r/2)-tuples; N_r = sum_s A[s] B[-s].  That is O(n^ceil(r/2))
    work.  The counts of an h-fold sum add up to n^h, so they are int64
    while n^ceil(r/2) fits and Python ints beyond; the final sum is taken
    in Python ints.  Charged (q^2-1)^r against the budget.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = vspec.length
    required = n**r
    if required > budget:
        raise BudgetExceeded(required, budget)
    ctx = _context_for(vspec, ctx)
    add, neg = _group_ops(vspec.p, ctx.order)

    exp_arr = np.array(ctx.exp_table, dtype=np.min_scalar_type(ctx.order - 1))
    powers = np.arange(n, dtype=np.int64)
    sigs = np.stack([exp_arr[d * powers % n] for d in vspec.exponents], axis=1)
    width = sigs.shape[1]
    count_dtype = np.int64 if n ** ((r + 1) // 2) < 1 << 63 else object
    one_keys, one_counts = _merge_rows(sigs, np.ones(n, dtype=count_dtype), ctx.order)

    def plus_one(keys, counts):
        """The histogram of the sums with one more signature."""
        if add is None:
            sums = keys[:, None, :] ^ one_keys[None, :, :]
        else:
            sums = add[keys[:, None, :], one_keys[None, :, :]]
        return _merge_rows(sums.reshape(-1, width), (counts[:, None] * one_counts).reshape(-1),
                           ctx.order)

    high = low = (np.zeros((1, width), dtype=sigs.dtype), np.ones(1, dtype=count_dtype))
    for size in range(1, (r + 1) // 2 + 1):
        high = plus_one(*high)
        if size == r // 2:
            low = high
    keys_a, counts_a = high
    keys_b, counts_b = low
    if neg is not None:
        keys_b = neg[keys_b]
    ids, _ = _row_ids(np.concatenate([keys_a, keys_b]), ctx.order)
    counts_by_id = np.zeros(len(ids), dtype=count_dtype)
    counts_by_id[ids[len(keys_a):]] = counts_b
    return sum(map(operator.mul, counts_a.tolist(), counts_by_id[ids[:len(keys_a)]].tolist()))


@dataclass(frozen=True)
class PowerMomentReport:
    r: int
    ok: bool
    lhs: int
    rhs: int


def power_moment_check(vspec: ValidatedSpec, r: int, ctx: FieldContext | None = None,
                       budget: int = DEFAULT_BUDGET,
                       dist: WeightDistribution | None = None) -> PowerMomentReport:
    """Compare the r-th power moment of the character sums, aggregated from
    a swept distribution, with its predicted value from N_r.

    f1:  sum over all tuples of (S(a)-1)^r        = q^(2t+1) N_r
    f2:  sum over all tuples of (S(a)-(p-1))^r    = (p-1)^r q^(2t) N_r
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if dist is None:
        dist = brute_distribution(vspec, ctx=ctx, budget=budget, path="fast")
    if dist.freq_by_j is None:
        raise ValueError("distribution carries weights outside the model; "
                         "cannot aggregate power moments")
    q, e, p, t = vspec.q, vspec.e, vspec.p, vspec.t
    nodes = moment_nodes(vspec.moment_size, q, e)
    core = (q * q - 1) ** r
    for node, f in zip(nodes, dist.freq_by_j):
        core += f * node**r
    if vspec.family == "f1":
        lhs = core
        rhs = q ** (2 * t + 1) * n_r(r, q, e)
    else:
        lhs = (p - 1) ** r * core
        rhs = (p - 1) ** r * q ** (2 * t) * n_r(r, q, e)
    return PowerMomentReport(r=r, ok=lhs == rhs, lhs=lhs, rhs=rhs)
