"""Command-line surface.

Subcommands:
  analyze  validate parameters and print the closed-form weight distribution
  verify   compare the closed forms against the brute-force oracles
  nr       tabulate the tuple counts N_r, optionally with a brute column
  sweep    walk parameter ranges and append reports to a JSONL catalog

Exit codes: 0 success / full agreement, 1 invalid parameters, 2 oracle
mismatch or a solution outside the frequency model, 3 budget refusal.  Big
integers are serialized as decimal strings.  Configuration precedence is
flags, then the NIHO_BUDGET / NIHO_TABLE_LIMIT environment variables, then
defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import logging
import os
import random
import sys
import time

from .codespec import CodeSpec, SpecValidationError, ValidatedSpec, validate_spec
from .galois import DEFAULT_TABLE_LIMIT, TableLimitExceeded, build_field, is_prime
from .moments import n_r
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    brute_distribution,
    codeword_weight,
    char_sum,
    coefficient_domains,
    n_r_brute,
    power_moment_check,
    weight_from_char_sum,
)
from .solver import (
    ModelViolationError,
    WeightDistribution,
    enumerator_string,
    theoretical_weights,
    weight_distribution,
)

log = logging.getLogger("nihocodes")

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

CHECK_NAMES = ("weights", "distribution", "nr", "moments")
WEIGHT_SAMPLES = 48


@dataclasses.dataclass(frozen=True)
class AnalysisReport:
    """Everything analyze knows about one spec, JSON-serializable."""

    spec: CodeSpec
    q: int
    e: int
    s_values: tuple[int, ...]
    exponents: tuple[int, ...]
    coset_sizes: tuple[int, ...]
    length: int
    dimension: int
    n_values: tuple[int, ...]
    weights_by_j: tuple[int, ...]
    freq_by_j: tuple[int, ...]
    zero_frequency_weights: tuple[int, ...]
    enumerator: str

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": dataclasses.asdict(self.spec),
            "q": self.q,
            "e": self.e,
            "s_values": list(self.s_values),
            "exponents": list(self.exponents),
            "coset_sizes": list(self.coset_sizes),
            "length": self.length,
            "dimension": self.dimension,
            "n_values": [str(v) for v in self.n_values],
            "weights": [
                {"j": j, "weight": w, "frequency": str(f)}
                for j, (w, f) in enumerate(zip(self.weights_by_j, self.freq_by_j))
            ],
            "zero_frequency_weights": list(self.zero_frequency_weights),
            "enumerator": self.enumerator,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnalysisReport":
        if data["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {data['schema_version']}")
        return cls(
            spec=CodeSpec(**data["spec"]),
            q=data["q"],
            e=data["e"],
            s_values=tuple(data["s_values"]),
            exponents=tuple(data["exponents"]),
            coset_sizes=tuple(data["coset_sizes"]),
            length=data["length"],
            dimension=data["dimension"],
            n_values=tuple(int(v) for v in data["n_values"]),
            weights_by_j=tuple(w["weight"] for w in data["weights"]),
            freq_by_j=tuple(int(w["frequency"]) for w in data["weights"]),
            zero_frequency_weights=tuple(data["zero_frequency_weights"]),
            enumerator=data["enumerator"],
        )


def build_report(vspec: ValidatedSpec, dist: WeightDistribution) -> AnalysisReport:
    n_values = tuple(n_r(i, vspec.q, vspec.e) for i in range(vspec.moment_size))
    return AnalysisReport(
        spec=CodeSpec(vspec.family, vspec.p, vspec.m, vspec.h, vspec.delta, vspec.t),
        q=vspec.q, e=vspec.e,
        s_values=vspec.s_values, exponents=vspec.exponents,
        coset_sizes=vspec.coset_sizes,
        length=vspec.length, dimension=vspec.dimension,
        n_values=n_values,
        weights_by_j=dist.weights_by_j,
        freq_by_j=dist.freq_by_j,
        zero_frequency_weights=dist.zero_frequency_weights,
        enumerator=enumerator_string(dist),
    )


def _print_report_text(report: AnalysisReport, out) -> None:
    s = report.spec
    print(f"family {s.family}  p={s.p} m={s.m} h={s.h} delta={s.delta} t={s.t}", file=out)
    print(f"q = {report.q}  e = {report.e}  length = {report.length}  "
          f"dimension = {report.dimension}", file=out)
    print(f"s-values: {', '.join(map(str, report.s_values))}", file=out)
    exps = ", ".join(f"{d} (coset size {c})"
                     for d, c in zip(report.exponents, report.coset_sizes))
    print(f"exponents: {exps}", file=out)
    print(f"N_r: {', '.join(map(str, report.n_values))}", file=out)
    print("weights (j, weight, frequency):", file=out)
    for j, (w, f) in enumerate(zip(report.weights_by_j, report.freq_by_j)):
        print(f"  {j:2d}  {w:6d}  {f}", file=out)
    print(f"weight enumerator: {report.enumerator}", file=out)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"environment variable {name} must be an integer, got {raw!r}")


def _resolve_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    return _env_int("NIHO_BUDGET", DEFAULT_BUDGET)


def _resolve_table_limit() -> int:
    return _env_int("NIHO_TABLE_LIMIT", DEFAULT_TABLE_LIMIT)


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, choices=("f1", "f2"))
    sub.add_argument("--p", required=True, type=int)
    sub.add_argument("--m", required=True, type=int)
    sub.add_argument("--h", required=True, type=int)
    sub.add_argument("--delta", required=True, type=int)
    sub.add_argument("--t", required=True, type=int)


def _spec_from_args(args) -> ValidatedSpec:
    return validate_spec(CodeSpec(args.family, args.p, args.m, args.h, args.delta, args.t))


def cmd_analyze(args) -> int:
    try:
        vspec = _spec_from_args(args)
        dist = weight_distribution(vspec)
    except SpecValidationError as exc:
        print(f"invalid parameters [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    report = build_report(vspec, dist)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        _print_report_text(report, sys.stdout)
    return EXIT_OK


def _check_weights(vspec, ctx):
    """Spot-check path equivalence on a deterministic pseudo-random sample
    of coefficient tuples, and containment in the predicted weight set."""
    rng = random.Random(0)
    domains = coefficient_domains(vspec, ctx)
    predicted = set(theoretical_weights(vspec.family, vspec.p, vspec.q, vspec.e, vspec.t))
    failures = []
    for _ in range(WEIGHT_SAMPLES):
        a = tuple(rng.choice(domain) for domain in domains)
        if all(c == 0 for c in a):
            continue
        w_direct = codeword_weight(vspec, a, ctx)
        w_roots = weight_from_char_sum(vspec, char_sum(vspec, a, ctx))
        if w_direct != w_roots:
            failures.append(f"tuple {a}: positionwise {w_direct} != root path {w_roots}")
        elif w_direct not in predicted:
            failures.append(f"tuple {a}: weight {w_direct} outside predicted set")
    return failures


def cmd_verify(args) -> int:
    try:
        vspec = _spec_from_args(args)
    except SpecValidationError as exc:
        print(f"invalid parameters [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INVALID
    budget = _resolve_budget(args)
    checks = list(CHECK_NAMES) if args.checks == "all" else [args.checks]
    try:
        solver_dist = weight_distribution(vspec)
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    mismatches = []
    brute = None
    try:
        ctx = build_field(vspec.p, 2 * vspec.m, table_limit=_resolve_table_limit())
        for check in checks:
            if check == "weights":
                mismatches += _check_weights(vspec, ctx)
                print(f"weights: path equivalence and containment "
                      f"{'ok' if not mismatches else 'FAILED'}")
            elif check == "distribution":
                path = "slow" if args.slow_path else "fast"
                brute = brute_distribution(vspec, ctx=ctx, budget=budget, path=path)
                if brute != solver_dist:
                    mismatches.append(
                        f"distribution: brute {brute.entries} != solver {solver_dist.entries}")
                print(f"distribution ({path} path): "
                      f"{'ok' if brute == solver_dist else 'FAILED'}")
            elif check == "nr":
                rmax = min(4, vspec.moment_size - 1)
                for r in range(1, rmax + 1):
                    nb = n_r_brute(vspec, r, ctx=ctx, budget=budget)
                    nf = n_r(r, vspec.q, vspec.e)
                    if nb != nf:
                        mismatches.append(f"N_{r}: brute {nb} != formula {nf}")
                    print(f"N_{r}: brute {nb}, formula {nf}, "
                          f"{'ok' if nb == nf else 'FAILED'}")
            elif check == "moments":
                for r in range(1, vspec.moment_size):
                    rep = power_moment_check(vspec, r, ctx=ctx, budget=budget, dist=brute)
                    if not rep.ok:
                        mismatches.append(
                            f"power moment r={r}: swept {rep.lhs} != predicted {rep.rhs}")
                    print(f"power moment r={r}: {'ok' if rep.ok else 'FAILED'}")
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TableLimitExceeded as exc:
        print(f"table limit refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if mismatches:
        print("MISMATCH:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"all checks agree for {vspec.key}")
    return EXIT_OK


def cmd_nr(args) -> int:
    if not is_prime(args.p):
        print(f"p must be prime, got {args.p}", file=sys.stderr)
        return EXIT_INVALID
    if args.m < 1:
        print(f"m must be >= 1, got {args.m}", file=sys.stderr)
        return EXIT_INVALID
    if args.rmax < 0:
        print(f"rmax must be >= 0, got {args.rmax}", file=sys.stderr)
        return EXIT_INVALID
    q = args.p**args.m
    if args.e < 1 or (q + 1) % args.e:
        print(f"e = {args.e} does not divide q+1 = {q + 1}", file=sys.stderr)
        return EXIT_INVALID
    budget = _resolve_budget(args)
    vspec = None
    if args.brute:
        missing = [f for f in ("family", "h", "delta", "t") if getattr(args, f) is None]
        if missing:
            print(f"--brute needs the full spec; missing {', '.join('--' + f for f in missing)}",
                  file=sys.stderr)
            return EXIT_INVALID
        try:
            vspec = validate_spec(CodeSpec(args.family, args.p, args.m, args.h, args.delta, args.t))
        except SpecValidationError as exc:
            print(f"invalid parameters [{exc.code}]: {exc}", file=sys.stderr)
            return EXIT_INVALID
        if vspec.e != args.e:
            print(f"spec has e = {vspec.e}, flag says {args.e}", file=sys.stderr)
            return EXIT_INVALID
    header = "r  N_r" + ("  brute  match" if vspec else "")
    print(header)
    mismatch = False
    try:
        ctx = build_field(args.p, 2 * args.m, table_limit=_resolve_table_limit()) if vspec else None
        for r in range(args.rmax + 1):
            value = n_r(r, q, args.e)
            line = f"{r}  {value}"
            if vspec:
                nb = value if r == 0 else n_r_brute(vspec, r, ctx=ctx, budget=budget)
                ok = nb == value
                mismatch |= not ok
                line += f"  {nb}  {'ok' if ok else 'FAILED'}"
            print(line)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TableLimitExceeded as exc:
        print(f"table limit refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _parse_range(flag: str, text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise ValueError(f"{flag} must be A:B or a single integer, got {text!r}") from None


def _read_catalog(path: str) -> tuple[set[str], bool]:
    """Keys already in the catalog, and whether the file ends mid-line.

    A line that does not parse is the fragment of a record whose write was
    cut short.  It is skipped with a warning; it need not be the last line,
    because later runs append their records after it."""
    if not os.path.exists(path):
        return set(), False
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    keys = set()
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            keys.add(json.loads(line)["key"])
        except (ValueError, KeyError, TypeError):
            log.warning("catalog %s: skipping unreadable line %d", path, number)
    return keys, bool(text) and not text.endswith("\n")


def cmd_sweep(args) -> int:
    budget = _resolve_budget(args)
    try:
        grid = itertools.product(_parse_range("--h-range", args.h_range),
                                 _parse_range("--delta-range", args.delta_range),
                                 _parse_range("--t-range", args.t_range))
    except ValueError as exc:
        print(f"invalid range: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        existing, torn = _read_catalog(args.out)
        out_fh = open(args.out, "a", encoding="utf-8")
    except OSError as exc:
        print(f"cannot open catalog {args.out}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    written = skipped = 0
    code = EXIT_OK
    ctx = None
    with out_fh:
        if torn:
            out_fh.write("\n")  # keep the next record off the fragment's line
        try:
            for h, delta, t in grid:
                spec = CodeSpec(args.family, args.p, args.m, h, delta, t)
                if spec.key in existing:
                    log.info("skip %s: already in catalog", spec.key)
                    continue
                try:
                    vspec = validate_spec(spec)
                except SpecValidationError as exc:
                    log.info("skip %s: %s (%s)", spec.key, exc, exc.code)
                    skipped += 1
                    continue
                started = time.perf_counter()
                dist = weight_distribution(vspec)
                status = "formula-only"
                if args.verify_small is not None:
                    cost = vspec.codeword_count * vspec.length
                    if cost <= args.verify_small:
                        if ctx is None:
                            ctx = build_field(vspec.p, 2 * vspec.m,
                                              table_limit=_resolve_table_limit())
                        brute = brute_distribution(vspec, ctx=ctx, budget=budget)
                        status = "oracle-verified" if brute == dist else "mismatch"
                record = {
                    "key": spec.key,
                    "status": status,
                    "elapsed_s": round(time.perf_counter() - started, 6),
                    "report": build_report(vspec, dist).to_json_dict(),
                }
                out_fh.write(json.dumps(record, sort_keys=True) + "\n")
                out_fh.flush()
                existing.add(spec.key)
                written += 1
                if status == "mismatch":
                    print(f"MISMATCH {spec.key}: brute {brute.entries} != solver {dist.entries}",
                          file=sys.stderr)
                    code = EXIT_MISMATCH
        except BudgetExceeded as exc:
            print(f"budget refusal: {exc}", file=sys.stderr)
            code = EXIT_BUDGET
        except TableLimitExceeded as exc:
            print(f"table limit refusal: {exc}", file=sys.stderr)
            code = EXIT_BUDGET
        except ModelViolationError as exc:
            print(f"model violation: {exc}", file=sys.stderr)
            code = EXIT_MISMATCH
    print(f"catalog {args.out}: {written} written, {skipped} inadmissible skipped")
    return code


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `niho` parser, built once per process: parse_args keeps no state
    between calls, and a build costs more than a small analyze call."""
    parser = argparse.ArgumentParser(
        prog="niho",
        description="Closed-form weight distributions of generalized-Niho cyclic "
                    "codes, with brute-force verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="validate a spec and print its distribution")
    _add_spec_flags(p_analyze)
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = subs.add_parser("verify", help="compare closed forms against oracles")
    _add_spec_flags(p_verify)
    p_verify.add_argument("--budget", type=int, default=None,
                          help="operation budget (default NIHO_BUDGET or 10^10)")
    p_verify.add_argument("--checks", default="all", choices=CHECK_NAMES + ("all",))
    p_verify.add_argument("--slow-path", action="store_true",
                          help="force positionwise evaluation for the distribution check")
    p_verify.set_defaults(func=cmd_verify)

    p_nr = subs.add_parser("nr", help="tabulate N_r")
    p_nr.add_argument("--p", required=True, type=int)
    p_nr.add_argument("--m", required=True, type=int)
    p_nr.add_argument("--e", required=True, type=int)
    p_nr.add_argument("--rmax", required=True, type=int)
    p_nr.add_argument("--brute", action="store_true")
    p_nr.add_argument("--family", choices=("f1", "f2"))
    p_nr.add_argument("--h", type=int)
    p_nr.add_argument("--delta", type=int)
    p_nr.add_argument("--t", type=int)
    p_nr.add_argument("--budget", type=int, default=None)
    p_nr.set_defaults(func=cmd_nr)

    p_sweep = subs.add_parser("sweep", help="catalog admissible specs over ranges")
    p_sweep.add_argument("--family", required=True, choices=("f1", "f2"))
    p_sweep.add_argument("--p", required=True, type=int)
    p_sweep.add_argument("--m", required=True, type=int)
    p_sweep.add_argument("--h-range", required=True, help="inclusive range A:B or a single value")
    p_sweep.add_argument("--delta-range", required=True)
    p_sweep.add_argument("--t-range", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--verify-small", type=int, default=None,
                         help="oracle-verify specs whose sweep cost is at most this")
    p_sweep.add_argument("--budget", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
