"""Seeded workload generators.

A workload is a list of rounds; a round is a fixed set of strata (field,
family, t) in seeded order, and the seed draws only the parameters within a
stratum (h, hence e, and delta).  Every round therefore has the same cost
profile, and a run measures whole rounds, so runs with different seeds are
comparable.  Each generator admits its specs with ``validate_spec`` so that
no generated call is rejected unexpectedly; the admission is part of set-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One CLI call and what the checker needs to judge its output."""

    kind: str                     # "analyze", "verify" or "sweep"
    argv: tuple[str, ...]         # sweep calls get "--out <fresh path>" appended
    spec: tuple                   # (family, p, m, h, delta, t); t and delta unused for sweep
    budget: int | None = None     # verify: --budget, None for the default
    slow: bool = False            # verify: --slow-path
    verify_small: int | None = None
    admitted: frozenset = field(default=frozenset())  # sweep: keys it must write
    grid: int = 0                 # sweep: number of (delta, t) pairs tried


@dataclass(frozen=True)
class Workload:
    """A workload's rationale is recorded in BENCHMARK.json."""

    name: str
    rounds: int                   # rounds generated in set-up; a run cycles through them
    # Fixed per workload so that runs stay comparable, and chosen to fall
    # inside one stratum's cost band rather than between two.
    tail_percentile: float
    generate: object              # (rng, admit) -> list[Op], one round


class Admitter:
    """``validate_spec`` as a yes/no test, cached per spec."""

    def __init__(self, code_spec, validate_spec, rejection):
        self._code_spec = code_spec
        self._validate = validate_spec
        self._rejection = rejection
        self._cache: dict[tuple, bool] = {}

    def __call__(self, family, p, m, h, delta, t) -> bool:
        key = (family, p, m, h, delta, t)
        ok = self._cache.get(key)
        if ok is None:
            try:
                self._validate(self._code_spec(family, p, m, h, delta, t))
                ok = True
            except self._rejection:
                ok = False
            self._cache[key] = ok
        return ok


def _spec_flags(family, p, m, h, delta, t) -> list[str]:
    return ["--family", family, "--p", str(p), "--m", str(m), "--h", str(h),
            "--delta", str(delta), "--t", str(t)]


def _draw_spec(rng: random.Random, admit: Admitter, family: str, p: int, m: int,
               t: int) -> tuple:
    """An admissible (family, p, m, h, delta, t): e = gcd(h, q+1) is drawn
    uniformly from the divisors that allow this t, then h and delta."""
    q = p**m
    odd = p != 2
    divisors = [d for d in range(1, q + 1)
                if (q + 1) % d == 0 and 2 * d * t <= q + 1 and (not odd or d % 2)]
    for _ in range(1000):
        e = rng.choice(divisors)
        u = rng.randrange(1, (q + 1) // e)
        if math.gcd(u, (q + 1) // e) != 1 or (odd and u % 2 == 0):
            continue
        delta = rng.randrange(1, q)
        if math.gcd(delta, q - 1) != 1:
            continue
        spec = (family, p, m, e * u, delta, t)
        if admit(*spec):
            return spec
    raise RuntimeError(f"no admissible spec drawn for {family} q={q} t={t}")


# -- analyze-large ---------------------------------------------------------

ANALYZE_FIELDS = (("f1", 2, 10), ("f2", 3, 6), ("f2", 2, 8))
ANALYZE_T = (*range(1, 13), 14, 16, 18)


def analyze_round(rng: random.Random, admit: Admitter) -> list[Op]:
    ops = []
    for family, p, m in ANALYZE_FIELDS:
        for t in ANALYZE_T:
            spec = _draw_spec(rng, admit, family, p, m, t)
            ops.append(Op("analyze", ("analyze", *_spec_flags(*spec), "--json"), spec))
    rng.shuffle(ops)
    return ops


# -- verify-oracle ---------------------------------------------------------

SHOWCASE_1 = ("f1", 2, 4, 2, 1, 2)
SHOWCASE_2 = ("f2", 3, 2, 3, 1, 3)
# Showcase 1's N_4 count charges 255^4 ~ 4.2e9 and runs about 25 s in the
# recursive counter, longer than a whole run; this budget admits its sweep
# (2^20 * 255) and N_1..N_3 and refuses N_4, so the refusal path is measured.
SHOWCASE_1_BUDGET = 10**9
# Seventeen calls a round: the median then falls on showcase 1 and the 75th
# percentile inside the two f2 q=8 t=4 calls, not between two strata.
VERIFY_STRATA = (
    *(("f1", 2, 3, t) for t in (0, 0, 1, 2, 3, 4)),
    *(("f2", 2, 3, t) for t in (1, 2, 3, 4, 4)),
    *(("f2", 3, 2, t) for t in (1, 1, 2, 3)),
)
SLOW_PATH_MAX_DIM = 16  # the acceptance suite's rule for the positionwise path


def _verify_op(spec: tuple, budget: int | None = None) -> Op:
    family, p, m, h, delta, t = spec
    dim = (2 * t + 1) * m if family == "f1" else 2 * t * m
    slow = dim <= SLOW_PATH_MAX_DIM
    argv = ["verify", *_spec_flags(*spec), "--checks", "all"]
    if slow:
        argv.append("--slow-path")
    if budget is not None:
        argv += ["--budget", str(budget)]
    return Op("verify", tuple(argv), spec, budget=budget, slow=slow)


def verify_round(rng: random.Random, admit: Admitter) -> list[Op]:
    ops = [_verify_op(SHOWCASE_1, SHOWCASE_1_BUDGET), _verify_op(SHOWCASE_2)]
    for family, p, m, t in VERIFY_STRATA:
        ops.append(_verify_op(_draw_spec(rng, admit, family, p, m, t)))
    rng.shuffle(ops)
    return ops


# -- catalog-sweep ---------------------------------------------------------

# (family, p, m, e): h is drawn with gcd(h, q+1) = e.  The cost of a sweep
# depends mostly on q and e, so fixing them per stratum keeps rounds alike.
# Eleven calls a round, so that the median falls inside the f2 q=9 e=5 stratum.
SWEEP_STRATA = (
    ("f1", 2, 2, 1), ("f2", 2, 2, 1), ("f1", 2, 3, 1), ("f2", 2, 3, 1), ("f2", 3, 2, 1),
    ("f1", 2, 4, 1), ("f2", 2, 4, 1), ("f1", 2, 3, 3), ("f1", 2, 3, 3), ("f2", 2, 3, 3),
    ("f2", 3, 2, 5),
)
VERIFY_SMALL = 10**7


def _sweep_op(admit: Admitter, family: str, p: int, m: int, h: int) -> Op:
    q = p**m
    deltas = range(1, q)
    ts = range(0, (q + 1) // 2 + 1)
    admitted = frozenset(f"{family}:{p}:{m}:{h}:{d}:{t}"
                         for d in deltas for t in ts if admit(family, p, m, h, d, t))
    argv = ("sweep", "--family", family, "--p", str(p), "--m", str(m),
            "--h-range", str(h), "--delta-range", f"1:{q - 1}",
            "--t-range", f"0:{(q + 1) // 2}", "--verify-small", str(VERIFY_SMALL))
    return Op("sweep", argv, (family, p, m, h, None, None), verify_small=VERIFY_SMALL,
              admitted=admitted, grid=len(deltas) * len(ts))


def sweep_round(rng: random.Random, admit: Admitter) -> list[Op]:
    ops = []
    for family, p, m, e in SWEEP_STRATA:
        q = p**m
        hs = [h for h in range(1, q + 1) if math.gcd(h, q + 1) == e]
        while True:
            op = _sweep_op(admit, family, p, m, rng.choice(hs))
            if op.admitted:
                break
        ops.append(op)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("analyze-large", rounds=24, tail_percentile=0.88, generate=analyze_round),
        Workload("verify-oracle", rounds=16, tail_percentile=0.75, generate=verify_round),
        Workload("catalog-sweep", rounds=128, tail_percentile=0.85, generate=sweep_round),
    )
}


def generate(name: str, seed: int, admit: Admitter) -> list[list[Op]]:
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [workload.generate(rng, admit) for _ in range(workload.rounds)]
