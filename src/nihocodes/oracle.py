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

Full-space sweeps (brute_distribution, power_moment_check) and the tuple
counter n_r_brute run under an operation budget; an over-budget request is
refused outright, never truncated.  The stated cost model charges
p^dimension * (q^2-1) for a distribution sweep regardless of path, and
(q^2-1)^r for counting r-tuples.

Sweeps iterate the coefficient space in a fixed deterministic order
(a_0 outermost for family f1, then a_1..a_t, each coefficient running
through zero followed by ascending generator exponents).  The outer index
range can be partitioned into shards whose partial histograms merge by
exact addition, so results are identical for any shard count.
"""

from __future__ import annotations

import math
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

def _shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(total, shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


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


def _root_tables(vspec: ValidatedSpec, ctx: FieldContext) -> list[np.ndarray]:
    """Per coefficient slot, its term of the root-counting polynomial at
    every W point, as element codes: shape (|W|, |domain|)."""
    q = vspec.q
    w_points = unit_circle(ctx, q, vspec.e).w
    dtype = np.min_scalar_type(ctx.order - 1)
    tables = []
    for slot, domain in zip(_slot_terms(vspec), coefficient_domains(vspec, ctx)):
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


def _symbol_tables(vspec: ValidatedSpec, ctx: FieldContext) -> list[np.ndarray]:
    """Per coefficient slot, its trace symbol at every codeword position:
    shape (q^2-1, |domain|).  Family f1 takes the leading slot's trace from
    GF(q) only."""
    n = vspec.length
    exp_arr = np.array(ctx.exp_table, dtype=np.int64)
    dtype = np.min_scalar_type(vspec.p - 1)
    tr_full = np.array([0] + [ctx.trace_to_prime(x) for x in range(1, ctx.order)], dtype=dtype)
    tables = []
    for s, (domain, d) in enumerate(zip(coefficient_domains(vspec, ctx), vspec.exponents)):
        tr = tr_full
        if vspec.family == "f1" and s == 0:
            tr = np.zeros(ctx.order, dtype=dtype)
            for x in domain[1:]:
                tr[x] = ctx.trace_to_prime(x, vspec.m)
        dlog = d * np.arange(n, dtype=np.int64) % n
        table = np.zeros((n, len(domain)), dtype=dtype)
        for zi, z in enumerate(domain[1:], 1):
            table[:, zi] = tr[exp_arr[(ctx.log_table[z] + dlog) % n]]
        tables.append(table)
    return tables


def _zero_count_histogram(tables: list[np.ndarray], add: np.ndarray | None,
                          neg: np.ndarray | None, shards: int) -> list[int]:
    """How many coefficient tuples make exactly c of the L summed entries
    zero, for c = 0..L, the all-zero tuple removed.

    tables[s][k, i] is slot s's entry k when its coefficient is the i-th of
    its domain; a tuple's entry k is the group sum over its slots, under
    XOR when add is None and through the table add otherwise.  The
    trailing slots are folded into one block of at most _BLOCK_ENTRIES
    entries; the leading (outer) slots are walked in shards, and an outer
    tuple's partial sum is matched against every block column at once.
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
    hist = [0] * (n_entries + 1)
    for start, stop in _shard_bounds(math.prod(outer_sizes), shards):
        shard_hist = np.zeros(n_entries + 1, dtype=np.int64)
        for flat in range(start, stop):
            partial = np.zeros(n_entries, dtype=block.dtype)
            for table, zi in zip(tables, _decode_outer(flat, outer_sizes)):
                partial = partial ^ table[:, zi] if add is None else add[partial, table[:, zi]]
            target = partial if neg is None else neg[partial]
            counts = (block == target[:, None]).sum(axis=0, dtype=count_dtype)
            shard_hist += np.bincount(counts, minlength=n_entries + 1)
            if flat == 0:
                shard_hist[counts[0]] -= 1  # remove the all-zero tuple
        hist = [h + int(c) for h, c in zip(hist, shard_hist)]
    return hist


def brute_distribution(vspec: ValidatedSpec, ctx: FieldContext | None = None,
                       budget: int = DEFAULT_BUDGET, path: str = "fast",
                       shards: int = 1) -> WeightDistribution:
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
        tables = _root_tables(vspec, ctx)
        add, neg = _group_ops(vspec.p, ctx.order)

        def weight_of(roots):
            return _weight_for_count(vspec, roots)
    elif path == "slow":
        tables = _symbol_tables(vspec, ctx)
        add, neg = _group_ops(vspec.p, vspec.p)

        def weight_of(zeros):
            return vspec.length - zeros
    else:
        raise ValueError(f"path must be 'fast' or 'slow', got {path!r}")

    counts_by_weight = Counter()
    for count, f in enumerate(_zero_count_histogram(tables, add, neg, shards)):
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

def n_r_brute(vspec: ValidatedSpec, r: int, ctx: FieldContext | None = None,
              budget: int = DEFAULT_BUDGET, shards: int = 1) -> int:
    """Number of r-tuples of nonzero GF(q^2) elements that satisfy every
    defining power-sum equation, by exhaustive iteration.

    Per-coordinate signature tables (the exponent powers of each element)
    are precomputed; the last coordinate is resolved by an exact count of
    matching signatures.  Charged (q^2-1)^r against the budget.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = vspec.length
    required = n**r
    if required > budget:
        raise BudgetExceeded(required, budget)
    ctx = _context_for(vspec, ctx)
    p = vspec.p

    exps = vspec.exponents
    sigs = [tuple(ctx.exp_table[(d * i) % n] for d in exps) for i in range(n)]
    sig_counts = Counter(sigs)

    if p == 2:
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

    total = 0
    for start, stop in _shard_bounds(n, shards):
        for i in range(start, stop):
            total += count_below(sigs[i], r - 2)
    return total


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
