import functools
import itertools
import math
import random
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from nihocodes import galois, oracle
from nihocodes.codespec import CodeSpec, SpecValidationError, validate_spec
from nihocodes.galois import (
    FieldContext,
    adder,
    build_field,
    digit_bits,
    packed_dtype,
    packed_range,
    unpack,
)
from nihocodes.moments import n_r
from nihocodes.oracle import (
    BudgetExceeded,
    brute_distribution,
    char_sum,
    codeword_weight,
    coefficient_domains,
    column_weights,
    n_r_brute,
    power_moment_check,
)
from nihocodes.solver import theoretical_weights, weight_distribution, weight_for_index

from conftest import field
from exact_reference import (
    add as scalar_add,
    char_sum_direct,
    mds_freq_by_j,
    mul,
    n_r_recursive,
    n_r_unreduced,
    neg as scalar_neg,
    pack,
    power,
    symbol_at,
    trace_to_prime,
    weight_from_char_sum,
)


def spec_of(key):
    family, *params = key.split(":")
    return validate_spec(CodeSpec(family, *map(int, params)))


def all_tuples(vspec, ctx):
    return itertools.product(*coefficient_domains(vspec, ctx))


def test_unit_circle_structure(gf16):
    # U = <gamma^(q-1)> has order q+1, W = <gamma^((q-1)e)> order (q+1)/e
    u = gf16.exp[::4 - 1].tolist()
    assert len(u) == 5
    assert len(set(u)) == 5
    for z in u:
        assert mul(gf16, z, power(gf16, z, 4)) == 1
    w = field(3, 2).exp[::(3 - 1) * 2].tolist()
    assert len(w) == 2


def test_zero_codeword(tiny_f1_spec, gf16):
    assert codeword_weight(tiny_f1_spec, (0, 0), gf16) == 0
    assert char_sum(tiny_f1_spec, (0, 0), gf16) == 16  # q^2 for the zero tuple


def test_char_sum_zero_tuple_f2(tiny_f2_spec, gf9):
    assert char_sum(tiny_f2_spec, (0, 0), gf9) == 2 * 9  # (p-1) q^2


def test_tuple_validation(tiny_f1_spec, gf16):
    with pytest.raises(ValueError):
        codeword_weight(tiny_f1_spec, (0,), gf16)
    with pytest.raises(ValueError):
        codeword_weight(tiny_f1_spec, (gf16.generator, 0), gf16)  # gamma not in GF(4)
    # a numpy gather would wrap -1 to the last entry instead of failing
    for fn in (codeword_weight, char_sum):
        for code in (-1, gf16.order):
            with pytest.raises(ValueError):
                fn(tiny_f1_spec, (1, code), gf16)


def test_paths_agree_everywhere_tiny_f1(tiny_f1_spec):
    """Positionwise weights, direct character sums and W-root character sums
    must agree tuple by tuple on the full 63-codeword space, and on the 511
    codewords of an e = 3 spec."""
    for vs in (tiny_f1_spec, spec_of("f1:2:3:3:1:1")):
        ctx = field(vs.p, 2 * vs.m)
        q = vs.q
        for a in all_tuples(vs, ctx):
            s_fast = char_sum(vs, a, ctx)
            s_slow = char_sum_direct(vs, a, ctx)
            assert s_fast == s_slow
            w = codeword_weight(vs, a, ctx)
            assert w == weight_from_char_sum(vs, s_fast)
            assert w == (q * q) // 2 - s_fast // 2


def test_paths_agree_everywhere_tiny_f2(tiny_f2_spec):
    # the second spec has p = 3 and e = 5
    for vs in (tiny_f2_spec, spec_of("f2:3:2:5:1:1")):
        ctx = field(vs.p, 2 * vs.m)
        p, q = vs.p, vs.q
        for a in all_tuples(vs, ctx):
            s_fast = char_sum(vs, a, ctx)
            assert s_fast == char_sum_direct(vs, a, ctx)
            w = codeword_weight(vs, a, ctx)
            assert w == weight_from_char_sum(vs, s_fast)
            assert w * p == q * q * (p - 1) - s_fast * 1


def test_paths_agree_on_samples_example1(example1_spec, gf256):
    rng = random.Random(7)
    domains = coefficient_domains(example1_spec, gf256)
    weights = set(theoretical_weights(2, 16, 1, 5))
    for _ in range(25):
        a = tuple(rng.choice(d) for d in domains)
        s = char_sum(example1_spec, a, gf256)
        assert s == char_sum_direct(example1_spec, a, gf256)
        w = codeword_weight(example1_spec, a, gf256)
        assert w == weight_from_char_sum(example1_spec, s)
        if any(a):
            assert w in weights


def test_root_count_weight_is_the_char_sum_weight():
    """A tuple with j roots on W has character sum (p-1)q(ej-1), so its
    weight read from that sum is weight_for_index(j): for every j up to
    |W| = (q+1)/e and every e, at q <= 64 and at the benchmark's large q.
    p divides q, so the sum's weight is always an integer."""
    primes = [p for p in range(2, 65) if all(p % d for d in range(2, p))]
    fields = [(p, p**m) for p in primes for m in range(1, 7) if p**m <= 64]
    for p, q in fields + [(2, 256), (3, 729), (2, 1024)]:
        vs = SimpleNamespace(p=p, q=q, key=f"p={p} q={q}")
        for e in (e for e in range(1, q + 2) if (q + 1) % e == 0):
            for j in range((q + 1) // e + 1):
                s = (p - 1) * q * (e * j - 1)
                assert weight_for_index(p, q, e, j) == weight_from_char_sum(vs, s)


def mixed_batch(vspec, ctx, rng, size):
    """The zero tuple, random tuples, and tuples that differ from the first
    random one in one slot only."""
    domains = coefficient_domains(vspec, ctx)
    base = tuple(rng.choice(d) for d in domains)
    batch = [tuple(0 for _ in domains), base]
    for slot, domain in enumerate(domains):
        batch.append(base[:slot] + (rng.choice(domain),) + base[slot + 1:])
    batch += [tuple(rng.choice(d) for d in domains) for _ in range(size)]
    rng.shuffle(batch)
    return batch


@pytest.mark.parametrize("key", ["f1:2:4:2:1:2", "f2:3:2:3:1:3", "f2:5:1:1:1:1", "f2:3:2:5:1:1"])
def test_batch_paths_match_scalar_references(key):
    """Each entry of a mixed batch equals the scalar positionwise symbols
    and the direct character sum, on both showcases and odd-p fields."""
    vs = spec_of(key)
    ctx = field(vs.p, 2 * vs.m)
    batch = mixed_batch(vs, ctx, random.Random(key), 6)
    columns = list(zip(*batch))
    weights = column_weights(vs, columns, ctx, "slow")
    root_weights = column_weights(vs, columns, ctx, "fast")
    assert len(weights) == len(root_weights) == len(batch)
    for a, w, w_roots in zip(batch, weights, root_weights):
        assert w == sum(symbol_at(vs, a, ctx, i) != 0 for i in range(vs.length))
        assert w_roots == weight_from_char_sum(vs, char_sum_direct(vs, a, ctx))
        assert w == w_roots


@pytest.mark.parametrize("batch_entries", [oracle._BATCH_ENTRIES, 64])
def test_batch_longer_than_a_chunk_matches_tuple_by_tuple(monkeypatch, batch_entries):
    """At f1 q = 32 a positionwise chunk holds 2^16 // 1023 = 64 tuples, so
    150 tuples take three; at 64 entries every root-path chunk holds one
    tuple and every positionwise chunk holds one too."""
    vs = spec_of("f1:2:5:1:1:2")
    ctx = field(vs.p, 2 * vs.m)
    batch = mixed_batch(vs, ctx, random.Random(5), 150 - 2 - len(vs.exponents))
    expected_w = [codeword_weight(vs, a, ctx) for a in batch]
    expected_roots = [weight_from_char_sum(vs, char_sum(vs, a, ctx)) for a in batch]
    monkeypatch.setattr(oracle, "_BATCH_ENTRIES", batch_entries)
    assert len(batch) == 150
    columns = list(zip(*batch))
    assert column_weights(vs, columns, ctx, "slow") == expected_w
    assert column_weights(vs, columns, ctx, "fast") == expected_roots


def test_char_sum_values_lie_in_predicted_set(tiny_f1_spec, gf16):
    q, e, t = 4, 1, 1
    allowed = {(j * e - 1) * q for j in range(2 * t + 1)}
    for a in all_tuples(tiny_f1_spec, gf16):
        if any(a):
            assert char_sum(tiny_f1_spec, a, gf16) in allowed


def test_brute_distribution_tiny_f1(tiny_f1_spec):
    solver = weight_distribution(tiny_f1_spec)
    fast = brute_distribution(tiny_f1_spec, path="fast")
    slow = brute_distribution(tiny_f1_spec, path="slow")
    assert fast == solver
    assert slow == solver
    assert fast.freq_by_j == solver.freq_by_j
    assert sum(f for _, f in fast.entries) == 63


def test_brute_distribution_tiny_f2(tiny_f2_spec):
    solver = weight_distribution(tiny_f2_spec)
    assert brute_distribution(tiny_f2_spec, path="fast") == solver
    assert brute_distribution(tiny_f2_spec, path="slow") == solver


def test_mds_enumerator_matches_enumeration_on_showcases(example1_spec, example2_spec):
    # the MDS weight enumerator, the solver's large-q reference, checked
    # against the root counts of every tuple
    for vs in (example1_spec, example2_spec):
        brute = brute_distribution(vs, ctx=field(vs.p, 2 * vs.m), path="fast")
        assert brute.freq_by_j == mds_freq_by_j(vs.family, vs.q, vs.e, vs.t)


def test_brute_distribution_zero_frequency_weight():
    # q = 4, f2, t = 1: weight 10 never occurs; the brute path must agree
    vs = validate_spec(CodeSpec("f2", 2, 2, 1, 1, 1))
    solver = weight_distribution(vs)
    fast = brute_distribution(vs, path="fast")
    assert fast == solver
    assert fast.entries == ((8, 15),)
    assert fast.freq_by_j == (0, 15)


def _unreduced_entries(vs, path):
    """The weight distribution from the engine on full-domain tables,
    without the orbit reduction."""
    ctx = field(vs.p, 2 * vs.m)
    domains = dict(enumerate(coefficient_domains(vs, ctx)))
    if path == "fast":
        tables = oracle._root_tables(vs, ctx, domains)
        add, neg = adder(ctx.p, ctx.degree)
    else:
        tables = oracle._symbol_tables(vs, ctx, domains)
        add, neg = adder(vs.p, 1)
    by_weight = Counter()
    for count, f in enumerate(oracle._zero_count_histogram(tables, add, neg)):
        weight = (weight_for_index(vs.p, vs.q, vs.e, count) if path == "fast"
                  else vs.length - count)
        by_weight[weight] += f
    return tuple(sorted((w, f) for w, f in by_weight.items() if f))


def _modular_tables(vs, ctx, domains):
    """The root and symbol tables in the form that reduces every summed
    exponent by % n over the whole (entries x coefficients) array, read
    from the undoubled views, with theta = gamma / (gamma + gamma^q)
    worked out per slot."""
    q, n = vs.q, vs.length
    add, _ = adder(ctx.p, ctx.degree)
    wlog = np.arange(0, n, (q - 1) * vs.e)[:, None]
    positions = np.arange(n)[:, None]
    roots, symbols = [], []
    for slot, domain in domains.items():
        z = np.asarray(domain)[None, :]
        zlog = ctx.log[z]
        terms = [ctx.packed_exp[((q * zlog if conjugate else zlog) + uexp * wlog) % n]
                 for conjugate, uexp in oracle._slot_terms(vs)[slot]]
        roots.append(functools.reduce(add, terms) * (z != 0))
        if vs.coset_sizes[slot] == vs.m:
            relative = unpack(add(ctx.packed_exp[1], ctx.packed_exp[q]), ctx.p, ctx.degree)
            zlog = zlog + 1 - ctx.log[relative]
        symbols.append(ctx.trace[(zlog + vs.exponents[slot] * positions) % n] * (z != 0))
    return roots, symbols


@pytest.mark.parametrize("key", ["f1:2:3:1:1:3", "f2:3:2:3:1:3", "f1:2:4:2:1:2",
                                 "f2:131:1:1:1:1"])
def test_tables_without_modulo_match_the_modular_form(key):
    """The gathers from the doubled views, with d i mod n taken once per
    slot and the GF(q) slot's shifted log reduced on its one row, equal
    the % n form entry for entry, dtype included: over GF(2^6) and GF(2^8)
    with the GF(q) slot, GF(3^4), and GF(131^2) on a sample of each
    domain.  Every domain holds the zero coefficient (log -1), and every
    full domain gamma^(n-1), the largest log."""
    vs = spec_of(key)
    ctx = field(vs.p, 2 * vs.m)
    domains = {}
    for slot, domain in enumerate(coefficient_domains(vs, ctx)):
        if len(domain) > 300:
            rng = np.random.default_rng(slot)
            domain = domain[np.concatenate(([0, len(domain) - 1],
                                            rng.integers(1, len(domain), 60)))]
        assert domain[0] == 0
        assert ctx.log[domain].max() == vs.length - 1 or vs.coset_sizes[slot] == vs.m
        domains[slot] = domain
    roots, symbols = _modular_tables(vs, ctx, domains)
    for got, expected in ((oracle._root_tables(vs, ctx, domains), roots),
                          (oracle._symbol_tables(vs, ctx, domains), symbols)):
        assert len(got) == len(expected) == len(domains)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def full_slots(vs):
    return [i for i, size in enumerate(vs.coset_sizes) if size > vs.m]


# (key, g = gcd(d_j, (q^2-1)/(p-1)) of the first full slot j, the modulus
# of its orbit representatives, or None for f1 t = 0, which has no full
# slot).  The sweep takes the full slots two at a time: 2 full slots make
# one pair level, 3 a pair and an odd last level, 4 two pair levels.
# f1:2:3:1:1:3 has g = 3 on its odd last level, f2:3:2:1:1:3 has g = 5
# there, f2:3:2:1:1:4 has g = 5 and D = 16 on its second pair level, and
# f2:11:1:3:1:2 has g = 3 on its only pair level.
ORBIT_SPECS = [
    ("f1:2:2:1:1:2", 1), ("f2:2:2:1:1:2", 1), ("f2:3:2:1:1:2", 1), ("f2:3:2:1:1:1", 1),
    ("f1:2:3:3:1:1", 3), ("f2:2:3:3:1:1", 3), ("f2:3:2:5:1:1", 5),
    ("f1:2:3:1:1:0", None), ("f1:2:3:3:1:0", None),
    ("f1:2:3:1:1:2", 1), ("f1:2:3:1:1:3", 1), ("f2:2:3:1:1:4", 1),
    ("f2:3:2:1:1:3", 1), ("f2:3:2:1:1:4", 1),
    ("f2:5:2:1:1:2", 1), ("f2:5:2:1:7:2", 1), ("f2:11:1:3:1:2", 3),
]


@pytest.mark.parametrize("path", ["fast", "slow"])
@pytest.mark.parametrize("key, g", ORBIT_SPECS)
def test_orbit_reduction_matches_unreduced_sweep(key, g, path):
    vs = spec_of(key)
    full = full_slots(vs)
    if g is None:
        assert not full
    else:
        assert g == math.gcd(vs.exponents[full[0]], vs.length // (vs.p - 1))
    ctx = field(vs.p, 2 * vs.m)
    expected = _unreduced_entries(vs, path)
    assert brute_distribution(vs, ctx=ctx, path=path).entries == expected
    assert expected == weight_distribution(vs).entries


def h_orbit(vs, head, start):
    """The orbit of a tuple of exponents (-1 for a zero coefficient) of the
    slots in head under the cyclic shift, GF(p)* scaling and Frobenius,
    by a walk over those three generators."""
    n, p = vs.length, vs.p
    scale = n // (p - 1)
    ds = [vs.exponents[j] for j in head]
    moves = [lambda x, d: (x + d) % n, lambda x, d: (x + scale) % n, lambda x, d: p * x % n]
    orbit, todo = {start}, [start]
    while todo:
        point = todo.pop()
        for move in moves:
            image = tuple(-1 if x < 0 else move(x, d) for x, d in zip(point, ds))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


@pytest.mark.parametrize("key, level", [
    ("f1:2:3:1:1:4", 0), ("f1:2:3:1:1:4", 1), ("f1:2:3:1:1:3", 1), ("f2:3:2:1:1:4", 1),
    ("f2:3:2:1:1:3", 1), ("f2:11:1:3:1:2", 0), ("f2:17:1:15:11:2", 0), ("f2:5:1:1:1:3", 1),
])
def test_head_orbits_partition_the_head_tuples(key, level):
    """One representative per orbit of the head's nonzero tuples, with the
    orbit's size as weight, the zero tuple first with weight 1: the walked
    orbits of the representatives are disjoint, have those sizes and cover
    every tuple.  f1:2:3:1:1:4's second level has g = 3 and D = 21 < n."""
    vs = spec_of(key)
    head = full_slots(vs)[2 * level:2 * level + 2]
    columns, sizes = oracle._head_orbits(vs, head, zero=True)
    assert [c[0] for c in columns] == [0] * len(head) and sizes[0] == 1
    covered = set()
    for rep, size in zip(zip(*columns), sizes):
        orbit = h_orbit(vs, head, tuple(i - 1 for i in rep))
        assert len(orbit) == size and not orbit & covered
        covered |= orbit
    assert len(covered) == (vs.length + 1) ** len(head)


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
def test_shard_count_invariance(monkeypatch, shards):
    """Cutting the sweep into more outer steps leaves the histogram as it is:
    with a block budget of about 1/shards of all entries, the leading slots
    are walked in at least `shards` steps, against one block and a loop
    over every tuple."""
    for p in (2, 3):
        ctx = field(p, 2)
        rng = np.random.default_rng(17 + p)
        tables = [rng.integers(0, ctx.order, size=(5, 2), dtype=np.uint8)
                  for _ in range(8)]
        for table in tables:
            table[:, 0] = 0
        expected = [0] * 6
        for idx in itertools.product(range(2), repeat=8):
            if any(idx):
                sums = [0] * 5
                for table, i in zip(tables, idx):
                    sums = [scalar_add(ctx, s, int(v)) for s, v in zip(sums, table[:, i])]
                expected[sums.count(0)] += 1
        tables = [pack(table, p, 2) for table in tables]
        add, neg = adder(p, 2)
        assert oracle._zero_count_histogram(tables, add, neg) == expected

        steps = []

        def counted_product(*ranges):
            for outer in itertools.product(*ranges):
                steps.append(outer)
                yield outer

        monkeypatch.setattr(oracle, "itertools", SimpleNamespace(product=counted_product))
        monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", 5 * 2 ** 8 // shards)
        assert oracle._zero_count_histogram(tables, add, neg) == expected
        assert len(steps) >= shards
        monkeypatch.undo()


def test_outer_index_walk_matches_solver():
    # the q = 9 showcase is too large for one block on either path, so its
    # leading slot is walked as an outer index through the packed adder
    odd = validate_spec(CodeSpec("f2", 3, 2, 3, 1, 3))
    solver = weight_distribution(odd)
    assert brute_distribution(odd, path="fast") == solver
    assert brute_distribution(odd, path="slow") == solver


@pytest.mark.parametrize("p, degree", [(2, 2), (3, 2)])
@pytest.mark.parametrize("block_entries", [1, 1 << 22])
def test_zero_count_histogram_matches_enumeration(monkeypatch, p, degree, block_entries):
    """The engine on random tables whose columns are not closed under
    negation, against a loop over every tuple; block_entries = 1 walks all
    but the last slot as outer index."""
    monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", block_entries)
    ctx = field(p, degree)
    rng = np.random.default_rng(5)
    tables = [rng.integers(0, ctx.order, size=(6, size), dtype=np.uint8)
              for size in (3, 2, 4)]
    for table in tables:
        table[:, 0] = 0
    expected = [0] * 7
    for idx in itertools.product(*(range(t.shape[1]) for t in tables)):
        if any(idx):
            sums = [0] * 6
            for table, i in zip(tables, idx):
                sums = [scalar_add(ctx, s, int(v)) for s, v in zip(sums, table[:, i])]
            expected[sums.count(0)] += 1
    tables = [pack(table, p, degree) for table in tables]
    add, neg = adder(p, degree)
    assert oracle._zero_count_histogram(tables, add, neg) == expected


def test_oracle_hot_paths_are_table_driven(example1_spec, example2_spec):
    """The field has no scalar arithmetic, so the per-tuple and batch paths,
    both sweep paths and the tuple counter run on its array views."""
    cases = [(vs, field(vs.p, 2 * vs.m)) for vs in (example1_spec, example2_spec)]
    for _, ctx in cases:
        ctx.exp, ctx.log, ctx.trace

    for name in ("add", "mul", "pow", "trace_to_prime"):
        assert not hasattr(FieldContext, name)
    for vs, ctx in cases:
        rng = random.Random(11)
        domains = coefficient_domains(vs, ctx)
        batch = [tuple(rng.choice(d) for d in domains) for _ in range(8)]
        for a in batch:
            assert codeword_weight(vs, a, ctx) == weight_from_char_sum(vs, char_sum(vs, a, ctx))
        columns = list(zip(*batch))
        assert column_weights(vs, columns, ctx, "slow") == column_weights(vs, columns, ctx, "fast")
        solver = weight_distribution(vs)
        for path in ("fast", "slow"):
            assert brute_distribution(vs, ctx=ctx, path=path) == solver
        for r in (1, 2, 3):
            assert n_r_brute(vs, r, ctx=ctx) == n_r(r, vs.q, vs.e)


@pytest.mark.parametrize("p, degree", [
    (3, 6), (5, 4), (7, 4), (97, 2), (131, 2), (3, 1), (97, 1), (131, 1)])
def test_packed_adder_matches_digitwise_add(p, degree):
    """add and neg on packed elements against the scalar digit-by-digit
    reference; at p = 131 a digit takes 9 bits, and k = 1 operands held in
    one byte (the slow path's GF(p) symbols) are widened by the adder."""
    ctx = field(p, degree)
    codes = np.arange(ctx.order)
    assert unpack(pack(codes, p, degree), p, degree).tolist() == codes.tolist()
    rng = np.random.default_rng(p * degree)
    x, y = rng.integers(0, ctx.order, size=(2, 500))
    add, neg = adder(p, degree)
    px, py = pack(x, p, degree), pack(y, p, degree)
    if degree == 1:
        px, py = px.astype(np.min_scalar_type(p - 1)), py.astype(np.min_scalar_type(p - 1))
    assert unpack(add(px, py), p, degree).tolist() == [
        scalar_add(ctx, a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert unpack(neg(px), p, degree).tolist() == [scalar_neg(ctx, a) for a in x.tolist()]
    assert not add(px, neg(px)).any()


@pytest.mark.parametrize("p, degree", [(3, 6), (5, 4), (131, 2), (2, 6)])
def test_packed_range_matches_pack(p, degree):
    """The broadcast-OR packed range and the packed exp view gathered from it
    against the digit-by-digit pack, dtype included."""
    codes = np.arange(p**degree)
    expected = pack(codes, p, degree).astype(packed_dtype(p, degree))
    got = packed_range(p, degree)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
    ctx = field(p, degree)
    assert ctx.packed_exp.tolist() == pack(ctx.exp, p, degree).tolist()
    assert not ctx.packed_exp.flags.writeable


def test_gf3_15_packs_into_45_bits():
    # no field build: the largest odd-p field under the default table limit
    assert digit_bits(3) * 15 == 45 and packed_dtype(3, 15) == np.uint64
    top = 3**15 - 1  # every digit 2
    assert int(pack([top], 3, 15)[0]) == sum(2 << 3 * i for i in range(15)) < 1 << 45
    codes = np.random.default_rng(15).integers(0, 3**15, size=1000)
    assert unpack(pack(codes, 3, 15), 3, 15).tolist() == codes.tolist()


def test_brute_distribution_wide_entries_and_counts():
    # q = 32: element codes reach 1023 and the slow path counts up to
    # n = 1023 zero positions, both beyond one byte
    vs = validate_spec(CodeSpec("f1", 2, 5, 1, 1, 0))
    solver = weight_distribution(vs)
    assert brute_distribution(vs, path="fast") == solver
    assert brute_distribution(vs, path="slow") == solver


def test_budget_refusal():
    vs = validate_spec(CodeSpec("f1", 2, 8, 2, 1, 4))
    with pytest.raises(BudgetExceeded) as exc:
        brute_distribution(vs)
    assert exc.value.required == 2**72 * (2**16 - 1)
    with pytest.raises(BudgetExceeded):
        n_r_brute(validate_spec(CodeSpec("f1", 2, 4, 2, 1, 2)), 4, budget=10**6)


@pytest.mark.parametrize("key", ["f1:2:3:1:1:0", "f1:2:2:1:1:2", "f2:3:2:1:1:2", "f2:5:1:1:1:3"])
def test_charges_are_the_plain_enumeration_costs(key):
    """The orbit reductions leave the charges as they were: a sweep costs
    p^dimension * (q^2-1) on either path and an r-tuple count (q^2-1)^r,
    refused one operation short of that and run at exactly that budget."""
    vs = spec_of(key)
    ctx = field(vs.p, 2 * vs.m)
    sweep = vs.p ** vs.dimension * (vs.q ** 2 - 1)
    assert oracle.sweep_charge(vs) == sweep
    for path in ("fast", "slow"):
        with pytest.raises(BudgetExceeded) as exc:
            brute_distribution(vs, ctx=ctx, budget=sweep - 1, path=path)
        assert (exc.value.required, exc.value.budget) == (sweep, sweep - 1)
        assert brute_distribution(vs, ctx=ctx, budget=sweep, path=path) == weight_distribution(vs)
    for r in (1, 2, 3):
        count = (vs.q ** 2 - 1) ** r
        with pytest.raises(BudgetExceeded) as exc:
            n_r_brute(vs, r, ctx=ctx, budget=count - 1)
        assert (exc.value.required, exc.value.budget) == (count, count - 1)
        assert n_r_brute(vs, r, ctx=ctx, budget=count) == n_r_unreduced(vs, r, ctx)


def multiplier_classes():
    """Every admissible spec at q = 4, 8 and 9, both families, h up to q+1,
    delta below 2q and t <= 2, grouped by (family, p, m, multiplier
    class): 649 specs in 65 classes, every class with two members or more."""
    classes = {}
    for p, m in ((2, 2), (2, 3), (3, 2)):
        q = p**m
        for family, h, delta, t in itertools.product(
                ("f1", "f2") if p == 2 else ("f2",), range(1, q + 2), range(1, 2 * q), range(3)):
            try:
                vs = validate_spec(CodeSpec(family, p, m, h, delta, t))
            except SpecValidationError:
                continue
            classes.setdefault((family, p, m, oracle.multiplier_class(vs)), []).append(vs)
    return list(classes.values())


def test_multiplier_classes_carry_codewords_onto_each_other():
    """Within a class, some unit v of Z_n (found by search, not from the
    class's own u) maps the first member's exponents onto each other
    member's; giving the member's slot of exponent v d the first member's
    coefficient at d, the member's symbol at i is the first member's symbol
    at v i, by the scalar reference, on sampled tuples."""
    rng = random.Random(21)
    classes = multiplier_classes()
    assert sum(map(len, classes)) == 649 and len(classes) == 65
    assert all(len(members) > 1 for members in classes)
    for first, *rest in classes:
        n = first.length
        ctx = field(first.p, 2 * first.m)
        domains = coefficient_domains(first, ctx)
        for vs in rest:
            v = next(v for v in range(1, n) if math.gcd(v, n) == 1
                     and sorted(v * d % n for d in first.exponents) == sorted(vs.exponents))
            slot_of = [vs.exponents.index(v * d % n) for d in first.exponents]
            for _ in range(2):
                a = [int(rng.choice(domain)) for domain in domains]
                b = [0] * len(a)
                for j, c in zip(slot_of, a):
                    b[j] = c
                assert [symbol_at(vs, b, ctx, i) for i in range(n)] == [
                    symbol_at(first, a, ctx, v * i % n) for i in range(n)], (first.key, vs.key)


def test_brute_distribution_agrees_within_each_multiplier_class():
    for first, *rest in multiplier_classes():
        ctx = field(first.p, 2 * first.m)
        expected = brute_distribution(first, ctx=ctx)
        assert all(brute_distribution(vs, ctx=ctx) == expected for vs in rest), first.key


def test_multiplier_class_joins_deltas_and_keeps_e_and_t():
    """For p = 2 the class does not depend on delta; the specs it joins have
    equal e, t, coset sizes and charge."""
    keys = {oracle.multiplier_class(spec_of(f"f1:2:3:1:{delta}:2")) for delta in range(1, 7)}
    assert len(keys) == 1
    [(e, t, exponents)] = keys
    assert (e, t, len(exponents)) == (1, 2, 3)
    assert oracle.multiplier_class(spec_of("f1:2:3:1:1:1")) not in keys
    for members in multiplier_classes():
        assert len({(vs.e, vs.t, vs.coset_sizes, vs.codeword_count * vs.length)
                    for vs in members}) == 1


def test_n_r_brute_golden(tiny_f1_spec, tiny_f2_spec):
    assert n_r_brute(tiny_f1_spec, 1) == 0
    assert n_r_brute(tiny_f1_spec, 2) == 15  # e (q^2 - 1)
    assert n_r_brute(tiny_f2_spec, 3) == n_r(3, 3, 1) == 8


@pytest.mark.parametrize("key, rmax", [
    ("f1:2:2:1:1:1", 5), ("f2:2:2:1:1:2", 5), ("f2:3:1:1:1:2", 5),
    ("f1:2:3:1:1:2", 4), ("f1:2:3:3:1:1", 4), ("f2:2:3:1:1:1", 4),
    ("f2:3:2:1:1:2", 4), ("f2:3:2:5:1:1", 4),
    ("f1:2:4:1:1:8", 3),  # nine 8-bit columns: more than one int64 key holds
])
def test_n_r_brute_matches_recursive_counter(key, rmax):
    """Meet in the middle against the tuple-by-tuple counter, r = 1..rmax:
    odd r splits into unequal halves, r = 1 into one signature and none."""
    vs = spec_of(key)
    ctx = field(vs.p, 2 * vs.m)
    for r in range(1, rmax + 1):
        assert n_r_brute(vs, r, ctx=ctx) == n_r_recursive(vs, r, ctx), (key, r)


@pytest.mark.parametrize("key, rmax", [
    ("f1:2:2:1:1:1", 4), ("f2:2:2:1:1:2", 4), ("f1:2:3:1:1:2", 4), ("f1:2:3:3:1:1", 4),
    ("f2:2:3:1:1:1", 4), ("f2:3:2:1:1:2", 4), ("f2:3:2:5:1:1", 4), ("f2:5:2:1:1:2", 3),
    ("f2:5:2:13:1:1", 4), ("f1:2:4:2:1:2", 3),
])
def test_n_r_brute_matches_unreduced_meet_in_the_middle(key, rmax):
    """The counter whose larger half starts from one x_1 per orbit of
    GF(q)* scaling and Frobenius against the plain meet in the middle,
    r = 1..rmax, at q = 4, 8, 9, 25 and on showcase 1 (q = 16)."""
    vs = spec_of(key)
    ctx = field(vs.p, 2 * vs.m)
    for r in range(1, rmax + 1):
        got = n_r_brute(vs, r, ctx=ctx, budget=vs.length**r)
        assert got == n_r_unreduced(vs, r, ctx), (key, r)


@pytest.mark.parametrize("order", [4, 256, 1 << 20, 1 << 52, 1 << 62, 1 << 64])
@pytest.mark.parametrize("lanes", [1, 12])
def test_merge_and_pair_match_row_equality(order, lanes):
    """_merge keeps one row per distinct row with the sum of its counts, and
    _pair multiplies the counts of equal rows only.  Rows that differ only
    in their first lane, or only in the last bit of their last lane, must
    stay apart; at 2^64 the lanes use the top bit, and the object counts
    pass int64."""
    rng = np.random.default_rng(order + lanes)
    base = rng.integers(0, order, size=(40, lanes), dtype=np.uint64)
    changed, nearby = base.copy(), base.copy()
    changed[:, 0] ^= rng.integers(1, order, size=40, dtype=np.uint64)
    nearby[:, -1] ^= np.uint64(1)
    rows = np.concatenate([base, changed, nearby, base[::-1]])
    for counts in (rng.integers(1, 1 << 20, size=len(rows)),
                   np.array([(1 << 70) + i for i in range(len(rows))], dtype=object)):
        expected = Counter()
        for row, count in zip(map(tuple, rows.tolist()), counts.tolist()):
            expected[row] += count
        keys, merged = oracle._merge(rows, counts)
        as_tuples = list(map(tuple, keys.tolist()))
        assert as_tuples == sorted(expected)
        assert dict(zip(as_tuples, merged.tolist())) == expected
        half = len(keys) // 2
        other_keys, other_counts = oracle._merge(
            np.concatenate([keys[half:], nearby]), np.ones(len(keys) - half + 40, dtype=np.int64))
        other = dict(zip(map(tuple, other_keys.tolist()), other_counts.tolist()))
        assert oracle._pair(keys, merged, other_keys, other_counts) == sum(
            c * other.get(k, 0) for k, c in expected.items())


@pytest.mark.parametrize("key, rmax", [
    ("f1:2:5:1:1:6", 2), ("f1:2:5:1:1:8", 2), ("f2:5:2:1:1:5", 2),
    ("f2:3:3:1:1:4", 2), ("f2:3:3:1:1:6", 2),
])
def test_n_r_brute_on_two_lanes_matches_unreduced(key, rmax):
    """Signatures too wide for one 64-bit lane (f1 q = 32, t = 6 and 8;
    f2 q = 25, t = 5; f2 q = 27, t = 4 and 6) against the plain meet in the
    middle, for every r with (q^2-1)^r <= 10^7."""
    vs = spec_of(key)
    ctx = field(vs.p, 2 * vs.m)
    keys, _ = oracle._HalfSums(vs, ctx).one
    assert keys.shape[1] == 2
    assert vs.length ** rmax <= 10**7 < vs.length ** (rmax + 1)
    for r in range(1, rmax + 1):
        assert n_r_brute(vs, r, ctx=ctx, budget=vs.length**r) == n_r_unreduced(vs, r, ctx), r


def test_n_r_brute_shared_halves_match_fresh_counts():
    """The half sums kept between calls never leak from one spec or field
    to another, and levels built for a large r serve a smaller one: calls
    that alternate specs (two over GF(64) and two over GF(81), with
    different e, so their counts differ), pass the field, omit it or
    rebuild it, and take r = 4 before r = 1, equal counts made with the
    memo cleared before every call."""
    a, b = spec_of("f1:2:3:1:1:2"), spec_of("f1:2:3:3:1:1")
    c, d = spec_of("f2:3:2:1:1:2"), spec_of("f2:3:2:5:1:1")
    calls = [(a, 4), (a, 1), (b, 4), (a, 2), (c, 4), (c, 1), (d, 4), (a, 3), (b, 2), (c, 2),
             (d, 3), (b, 3), (d, 2), (c, 3), (a, 4)]
    fresh = {}
    for vs, r in calls:
        oracle._half_sums.clear()
        fresh[vs, r] = n_r_brute(vs, r)
    for r in (2, 3, 4):
        assert fresh[a, r] != fresh[b, r] and fresh[c, r] != fresh[d, r], r
    oracle._half_sums.clear()
    fields = {(2, 3): field(2, 6), (3, 2): field(3, 4)}
    for i, (vs, r) in enumerate(calls):
        ctx = [fields[vs.p, vs.m], None, build_field(vs.p, 2 * vs.m)][i % 3]
        assert n_r_brute(vs, r, ctx=ctx) == fresh[vs, r], (vs.key, r)


def test_n_r_brute_without_a_field_builds_one_per_spec_object(monkeypatch):
    """Calls with ctx=None on one spec object share its half sums, so they
    build its field once, even a field galois does not keep; a passed field
    that does not match the spec is refused on a hit too."""
    monkeypatch.setattr(oracle, "_half_sums", weakref.WeakKeyDictionary())
    monkeypatch.setattr(galois, "KEEP_ORDER", 16)
    builds = []
    monkeypatch.setattr(oracle, "build_field",
                        lambda *args: builds.append(args) or build_field(*args))
    vs = spec_of("f1:2:3:1:1:2")
    assert [n_r_brute(vs, r) for r in (1, 2, 3, 1)] == [n_r(r, vs.q, vs.e) for r in (1, 2, 3, 1)]
    assert builds == [(2, 6)]
    with pytest.raises(ValueError, match="does not match"):
        n_r_brute(vs, 1, ctx=field(2, 4))


def test_brute_distribution_refuses_a_bad_path_before_building_a_field(tiny_f1_spec, gf16,
                                                                        monkeypatch):
    """column_weights refuses an unknown path the same way, before any table."""
    def no_build(*args, **kwargs):
        raise AssertionError("a field or table was built")

    for name in ("build_field", "_root_tables", "_symbol_tables"):
        monkeypatch.setattr(oracle, name, no_build)
    for refused in (lambda: brute_distribution(tiny_f1_spec, path="medium"),
                    lambda: column_weights(tiny_f1_spec, [(0, 1), (1, 0)], gf16, "medium")):
        with pytest.raises(ValueError, match="path must be 'fast' or 'slow', got 'medium'"):
            refused()


def test_n_r_brute_showcase_n4_under_default_budget(example1_spec, gf256):
    # charged 255^4 (about 4.2e9 operations), inside the default budget
    assert example1_spec.length ** 4 <= oracle.DEFAULT_BUDGET
    assert n_r_brute(example1_spec, 4, ctx=gf256) == n_r(4, 16, 1) == 237405


def test_n_r_brute_counts_beyond_int64(tiny_f1_spec, gf16):
    """Once n^ceil(r/2) passes 2^63 the counts are Python ints.  Reference:
    the character-sum count N_r = |G|^-1 sum_b S_b^r over the characters
    b of G = GF(16)^2, S_b = sum_i (-1)^Tr(b . sig(gamma^i))."""
    n, exps = tiny_f1_spec.length, tiny_f1_spec.exponents
    sigs = [[int(gf16.exp[d * i % n]) for d in exps] for i in range(n)]
    sums = []
    for b in itertools.product(range(gf16.order), repeat=len(exps)):
        s = 0
        for sig in sigs:
            acc = 0
            for bj, x in zip(b, sig):
                acc = scalar_add(gf16, acc, mul(gf16, bj, x))
            s += (-1) ** trace_to_prime(gf16, acc)
        sums.append(s)
    for r in (16, 33, 40, 41):
        expected, rem = divmod(sum(s**r for s in sums), gf16.order ** len(exps))
        assert rem == 0
        got = n_r_brute(tiny_f1_spec, r, ctx=gf16, budget=n**r)
        assert got == expected, r
    assert n ** 20 >= 1 << 63 and expected >= 1 << 63


def test_n_r_brute_rejects_r0(tiny_f1_spec):
    with pytest.raises(ValueError):
        n_r_brute(tiny_f1_spec, 0)


def test_power_moment_r1_is_zero(tiny_f1_spec, tiny_f2_spec):
    for vs in (tiny_f1_spec, tiny_f2_spec):
        rep = power_moment_check(vs, 1, brute_distribution(vs))
        assert rep.ok and rep.lhs == 0 and rep.rhs == 0


def test_power_moment_q4_r2(tiny_f1_spec):
    rep = power_moment_check(tiny_f1_spec, 2, brute_distribution(tiny_f1_spec))
    assert rep.ok
    assert rep.lhs == rep.rhs == 4**3 * 15  # q^(1+2t) N_2


def test_power_moment_example1(example1_spec, gf256):
    dist = brute_distribution(example1_spec, ctx=gf256, path="fast")
    rep = power_moment_check(example1_spec, 2, dist=dist)
    assert rep.ok
    assert rep.lhs == 16**5 * 255


def test_power_moment_uses_supplied_distribution(tiny_f2_spec):
    dist = brute_distribution(tiny_f2_spec, path="slow")
    for r in range(1, 4):
        assert power_moment_check(tiny_f2_spec, r, dist=dist).ok


def test_domains_order_and_sizes(example1_spec, gf256):
    domains = coefficient_domains(example1_spec, gf256)
    assert [len(d) for d in domains] == [16, 256, 256]
    assert domains[0][0] == 0 and domains[1][0] == 0
    assert domains[1][1:].tolist() == gf256.exp.tolist()
    for x in domains[0]:
        assert gf256.is_subfield_element(x, 4)
