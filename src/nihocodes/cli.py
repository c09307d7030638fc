"""Command-line surface.

Subcommands:
  analyze  validate parameters and print the closed-form weight distribution
  verify   compare the closed forms against the brute-force oracles
  nr       tabulate the tuple counts N_r, optionally with a brute column
  sweep    walk parameter ranges and append reports to a JSONL catalog

`analyze --json` and `sweep` write a report through one writer,
`report_json`: `solve` encodes the fields that depend on (e, t) alone once,
and a report adds its spec's own fields, keys in sorted order as
json.dumps(..., sort_keys=True) writes them; `AnalysisReport.from_json_dict`
reads a report back.  A sweep reuses one solution for every record of its
(e, t) and flushes each record as written.
It reads its catalog once, when --out is a regular file, into the t's
each (h, delta) row already has there, and walks its grid one row at a
time: `codespec.admit_row` runs the checks that do not read t once, the
specs of the t's in the row's window come from one zero set, and the
refused t's below and above the window, or of a refused row, are counted
as spans (t's already in the catalog excluded) with one debug line each,
so a sweep's work follows its rows and records and not the length of its
t range.

A command line in canonical form, the subcommand name and then exact flags
with plain values (not empty, not starting with "-"), every required flag
present, is read from a flag table that `_flag_table` builds once per
process from the actions `make_parser` declares, and gives the Namespace
argparse gives.  argparse reads every other line and stays the only source
of help, usage and error messages: -h, the --flag=value form, a value that
starts with "-", an abbreviated flag, and any unknown, missing or bad value.

Exit codes: 0 success / full agreement, 1 invalid parameters (a command
line argparse rejects among them), a reader that closed stdout early
(as `| head` does) or a sweep catalog that cannot be read, opened or
written (a full disk, say; the summary line still prints, and the next
run skips the fragment a failed write leaves), 2 oracle mismatch or a
solution outside the frequency model, 3 budget refusal.  Big
integers are printed and serialized as decimal strings of any length:
`main` lifts the interpreter's int-to-str digit limit for the call and
restores the caller's limit on the way out.
`nr --brute` compares the rows r <= n, the spec's moment system size, where
the formula is claimed; later rows print the brute count with `-` in the
match column.  Configuration precedence is
flags, then the NIHO_BUDGET / NIHO_TABLE_LIMIT environment variables, then
defaults.  A budget, table limit or --verify-small below 0 exits 1, as does
a sweep range A:B with A > B; a budget or limit of 0 refuses every sweep
(exit 3).
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

from .codespec import (
    CodeSpec,
    SpecValidationError,
    ValidatedSpec,
    admit_row,
    validate_field,
    validate_spec,
)
from .galois import DEFAULT_TABLE_LIMIT, TableLimitExceeded, build_field
from .moments import n_r, n_row
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    brute_distribution,
    coefficient_domains,
    column_weights,
    multiplier_class,
    n_r_brute,
    power_moment_check,
    sweep_charge,
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
    """Everything analyze knows about one spec, as read back from the JSON
    text of `report_json`."""

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


@dataclasses.dataclass(frozen=True)
class Solution:
    """The part of a report that depends on (family, p, m, e, t) alone: the
    certified distribution, the N_r row and the enumerator, and the report's
    N_r, weight and zero-frequency fields as JSON text, encoded once for
    every report of that (e, t)."""

    dist: WeightDistribution
    n_values: tuple[int, ...]
    enumerator: str
    n_values_json: str
    weights_json: str
    zero_frequency_weights_json: str


def _ints(values) -> str:
    """A list of ints as json.dumps writes it."""
    return f"[{', '.join(map(str, values))}]"


def solve(vspec: ValidatedSpec) -> Solution:
    dist = weight_distribution(vspec)
    n_values = n_row(vspec.q, vspec.e, vspec.moment_size)
    # one decimal conversion per frequency, shared by the enumerator and the weights
    decimal = dict(zip(dist.weights_by_j, map(str, dist.freq_by_j)))
    enumerator = enumerator_string(dist, decimal)
    weights = ", ".join(f'{{"frequency": "{decimal[w]}", "j": {j}, "weight": {w}}}'
                        for j, w in enumerate(dist.weights_by_j))
    n_values_json = ", ".join(f'"{v}"' for v in n_values)
    return Solution(dist, n_values, enumerator,
                    n_values_json=f"[{n_values_json}]",
                    weights_json=f"[{weights}]",
                    zero_frequency_weights_json=_ints(dist.zero_frequency_weights))


def report_json(vspec: ValidatedSpec, solution: Solution) -> str:
    """The report as JSON text, as json.dumps(..., sort_keys=True) writes
    it, built from the solution's encoded fields and the spec's own ones:
    big integers as decimal strings, one weight entry per j.  Every string
    in a report is a validated family name, a decimal or an enumerator, none
    with a character JSON escapes."""
    return (f'{{"coset_sizes": {_ints(vspec.coset_sizes)}, "dimension": {vspec.dimension}, '
            f'"e": {vspec.e}, "enumerator": "{solution.enumerator}", '
            f'"exponents": {_ints(vspec.exponents)}, "length": {vspec.length}, '
            f'"n_values": {solution.n_values_json}, "q": {vspec.q}, '
            f'"s_values": {_ints(vspec.s_values)}, "schema_version": {SCHEMA_VERSION}, '
            f'"spec": {{"delta": {vspec.delta}, "family": "{vspec.family}", "h": {vspec.h}, '
            f'"m": {vspec.m}, "p": {vspec.p}, "t": {vspec.t}}}, '
            f'"weights": {solution.weights_json}, '
            f'"zero_frequency_weights": {solution.zero_frequency_weights_json}}}')


def catalog_line(key: str, status: str, elapsed_s: float, report: str) -> str:
    """The catalog record json.dumps({"elapsed_s": round(elapsed_s, 6), "key":
    key, "report": ..., "status": status}, sort_keys=True) gives, with the
    report already in JSON text (`report_json`)."""
    return (f'{{"elapsed_s": {round(elapsed_s, 6)!r}, "key": "{key}", '
            f'"report": {report}, "status": "{status}"}}')


def build_report(vspec: ValidatedSpec, solution: Solution) -> AnalysisReport:
    """The report that `AnalysisReport.from_json_dict` reads back from
    `report_json(vspec, solution)`.

    No command calls it: `report_json` writes the text directly.  It stays
    for the tests' round trip and while the benchmark traces it.
    """
    dist = solution.dist
    return AnalysisReport(
        spec=CodeSpec(vspec.family, vspec.p, vspec.m, vspec.h, vspec.delta, vspec.t),
        q=vspec.q, e=vspec.e,
        s_values=vspec.s_values, exponents=vspec.exponents,
        coset_sizes=vspec.coset_sizes,
        length=vspec.length, dimension=vspec.dimension,
        n_values=solution.n_values,
        weights_by_j=dist.weights_by_j,
        freq_by_j=dist.freq_by_j,
        zero_frequency_weights=dist.zero_frequency_weights,
        enumerator=solution.enumerator,
    )


def _print_report_text(vspec: ValidatedSpec, solution: Solution) -> None:
    print(f"family {vspec.family}  p={vspec.p} m={vspec.m} h={vspec.h} "
          f"delta={vspec.delta} t={vspec.t}")
    print(f"q = {vspec.q}  e = {vspec.e}  length = {vspec.length}  "
          f"dimension = {vspec.dimension}")
    print(f"s-values: {', '.join(map(str, vspec.s_values))}")
    exps = ", ".join(f"{d} (coset size {c})"
                     for d, c in zip(vspec.exponents, vspec.coset_sizes))
    print(f"exponents: {exps}")
    print(f"N_r: {', '.join(map(str, solution.n_values))}")
    print("weights (j, weight, frequency):")
    for j, (w, f) in enumerate(zip(solution.dist.weights_by_j, solution.dist.freq_by_j)):
        print(f"  {j:2d}  {w:6d}  {f}")
    print(f"weight enumerator: {solution.enumerator}")


class UsageError(ValueError):
    """A flag or environment value outside its range, or a command line
    argparse rejects; main prints the message and exits 1."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subcommands' parsers too, whose errors raise
    UsageError with argparse's usage and message, in place of exit 2."""

    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} must be an integer, got {raw!r}")
    if value < 0:
        raise UsageError(f"environment variable {name} must be >= 0, got {value}")
    return value


def _resolve_budget(args) -> int:
    budget = getattr(args, "budget", None)
    if budget is None:
        return _env_int("NIHO_BUDGET", DEFAULT_BUDGET)
    if budget < 0:
        raise UsageError(f"--budget must be >= 0, got {budget}")
    return budget


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
    vspec = _spec_from_args(args)
    solution = solve(vspec)
    if args.json:
        print(report_json(vspec, solution))
    else:
        _print_report_text(vspec, solution)
    return EXIT_OK


@functools.lru_cache(maxsize=64)
def _weight_draws(lengths: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The sample's indices into domains of these lengths, slot by slot:
    entry s holds slot s's index in each of the WEIGHT_SAMPLES tuples drawn
    by random.Random(0), tuple by tuple.  rng.choice(domain) is
    domain[rng.randrange(len(domain))]: the same draws, made once per
    tuple of lengths."""
    rng = random.Random(0)
    draws = [[rng.randrange(length) for length in lengths] for _ in range(WEIGHT_SAMPLES)]
    return tuple(zip(*draws))


def _check_weights(vspec, ctx):
    """Spot-check path equivalence on a deterministic pseudo-random sample
    of coefficient tuples, and containment in the predicted weight set.
    Each path evaluates the whole sample in one batch, slot by slot."""
    import numpy as np
    domains = coefficient_domains(vspec, ctx)
    predicted = set(theoretical_weights(vspec.p, vspec.q, vspec.e, vspec.moment_size))
    draws = _weight_draws(tuple(map(len, domains)))
    columns = np.stack([domain[list(index)] for domain, index in zip(domains, draws)])
    columns = columns[:, columns.any(axis=0)]  # the zero tuple has no weight to check
    failures = []
    for a, w_direct, w_roots in zip(columns.T.tolist(),
                                    column_weights(vspec, columns, ctx, "slow"),
                                    column_weights(vspec, columns, ctx, "fast")):
        if w_direct != w_roots:
            failures.append(f"tuple {tuple(a)}: positionwise {w_direct} != root path {w_roots}")
        elif w_direct not in predicted:
            failures.append(f"tuple {tuple(a)}: weight {w_direct} outside predicted set")
    return failures


def cmd_verify(args) -> int:
    vspec = _spec_from_args(args)
    budget = _resolve_budget(args)
    checks = list(CHECK_NAMES) if args.checks == "all" else [args.checks]
    solver_dist = weight_distribution(vspec)
    mismatches = []
    brute = None
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
            if brute is None and vspec.moment_size > 1:
                # one sweep serves every row
                brute = brute_distribution(vspec, ctx=ctx, budget=budget, path="fast")
            for r in range(1, vspec.moment_size):
                rep = power_moment_check(vspec, r, brute)
                if not rep.ok:
                    mismatches.append(
                        f"power moment r={r}: swept {rep.lhs} != predicted {rep.rhs}")
                print(f"power moment r={r}: {'ok' if rep.ok else 'FAILED'}")
    if mismatches:
        print("MISMATCH:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"all checks agree for {vspec.key}")
    return EXIT_OK


def cmd_nr(args) -> int:
    # validate_field and n_r own their checks' messages; nr prints them bare
    try:
        validate_field(args.p, args.m)
        if args.rmax < 0:
            raise UsageError(f"rmax must be >= 0, got {args.rmax}")
        q = args.p**args.m
        n_r(0, q, args.e)  # refuses an e that does not divide q+1
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    budget = _resolve_budget(args)
    vspec = None
    if args.brute:
        missing = [f for f in ("family", "h", "delta", "t") if getattr(args, f) is None]
        if missing:
            print(f"--brute needs the full spec; missing {', '.join('--' + f for f in missing)}",
                  file=sys.stderr)
            return EXIT_INVALID
        vspec = _spec_from_args(args)
        if vspec.e != args.e:
            print(f"spec has e = {vspec.e}, flag says {args.e}", file=sys.stderr)
            return EXIT_INVALID
    # a bad or too small table limit refuses before the header is printed
    ctx = build_field(args.p, 2 * args.m, table_limit=_resolve_table_limit()) if vspec else None
    print("r  N_r" + ("  brute  match" if vspec else ""))
    mismatch = False
    for r in range(args.rmax + 1):
        value = n_r(r, q, args.e)
        line = f"{r}  {value}"
        if vspec:
            nb = value if r == 0 else n_r_brute(vspec, r, ctx=ctx, budget=budget)
            if r > vspec.moment_size:  # past the moment rows no match is claimed
                line += f"  {nb}  -"
            else:
                ok = nb == value
                mismatch |= not ok
                line += f"  {nb}  {'ok' if ok else 'FAILED'}"
        print(line)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _parse_range(flag: str, text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        values = range(0)
    if not values:  # malformed, or A > B
        raise ValueError(f"{flag} must be A:B or a single integer, got {text!r}")
    return values


def _read_catalog(path: str, family: str, p: int,
                  m: int) -> tuple[dict[tuple[int, int], set[int]], bool]:
    """The t's each (h, delta) of family, p and m already has in the
    catalog, and whether the file ends mid-line.  Only a regular file is
    read: a sweep appends to any other path, such as /dev/null or a pipe,
    without reading it.

    A line that does not parse, or whose key is a JSON array or object, is
    the fragment of a record whose write was cut short.  It is skipped with
    a warning; it need not be the last line, because later runs append their
    records after it.  Keys are read as `CodeSpec.key` writes them, and any
    other key, which equals no key the sweep makes, is ignored."""
    if not os.path.isfile(path):
        return {}, False
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    rows = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            key = json.loads(line)["key"]
            hash(key)  # a JSON array or object is unreadable as a key
        except (ValueError, KeyError, TypeError):
            log.warning("catalog %s: skipping unreadable line %d", path, number)
            continue
        if not isinstance(key, str):
            continue
        family_key, *numbers = key.split(":")
        try:
            spec = CodeSpec(family_key, *map(int, numbers))
        except (TypeError, ValueError):
            continue
        if spec.key == key and (spec.family, spec.p, spec.m) == (family, p, m):
            rows.setdefault((spec.h, spec.delta), set()).add(spec.t)
    return rows, bool(text) and not text.endswith("\n")


def _skip_span(row: tuple, ts: range, catalogued, refusal) -> int:
    """Count the refused t's of a row that have no key in the catalog, and
    log one debug line naming the constraint `refusal(t)` gives for them."""
    if log.isEnabledFor(logging.DEBUG):
        exc = refusal(ts[0])
        log.debug("skip %s:%s:%s:%s:%s:t=%s..%s: %s (%s)", *row, ts[0], ts[-1], exc, exc.code)
    return len(ts) - sum(t in ts for t in catalogued)


def cmd_sweep(args) -> int:
    budget = _resolve_budget(args)
    if args.verify_small is not None and args.verify_small < 0:
        raise UsageError(f"--verify-small must be >= 0, got {args.verify_small}")
    # read before the catalog is opened, so a bad value leaves no file behind
    table_limit = _resolve_table_limit() if args.verify_small is not None else None
    try:
        rows = itertools.product(_parse_range("--h-range", args.h_range),
                                 _parse_range("--delta-range", args.delta_range))
        ts = _parse_range("--t-range", args.t_range)
    except ValueError as exc:
        print(f"invalid range: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        catalogued, torn = _read_catalog(args.out, args.family, args.p, args.m)
        out_fh = open(args.out, "a", encoding="utf-8")
    except UnicodeDecodeError as exc:
        print(f"cannot read catalog {args.out}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cannot open catalog {args.out}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    written = skipped = 0
    code = EXIT_OK
    ctx = None
    solved = {}  # (e, t) -> Solution: h and delta enter the distribution only through e
    swept = {}  # multiplier class -> brute distribution, one sweep per class
    try:  # the summary is printed after a refusal too
        with out_fh:
            if torn:
                out_fh.write("\n")  # keep the next record off the fragment's line
            for h, delta in rows:
                # one admission per row; the refused t's are counted a span
                # at a time, in t order around the records
                row = (args.family, args.p, args.m, h, delta)
                done = catalogued.get((h, delta), ())
                try:
                    admitted = admit_row(*row)
                except SpecValidationError as exc:
                    skipped += _skip_span(row, ts, done, lambda _: exc)
                    continue
                below, inside, above = admitted.split(ts)
                if below:
                    skipped += _skip_span(row, below, done, admitted.refusal)
                for vspec in admitted.specs(inside):
                    key = vspec.key
                    if vspec.t in done:
                        log.debug("skip %s: already in catalog", key)
                        continue
                    started = time.perf_counter()
                    solution = solved.get((vspec.e, vspec.t))
                    if solution is None:
                        solution = solved[vspec.e, vspec.t] = solve(vspec)
                    dist = solution.dist
                    status = "formula-only"
                    if args.verify_small is not None and sweep_charge(vspec) <= args.verify_small:
                        cls = multiplier_class(vspec)
                        brute = swept.get(cls)
                        if brute is None:
                            if ctx is None:
                                ctx = build_field(vspec.p, 2 * vspec.m, table_limit=table_limit)
                            brute = swept[cls] = brute_distribution(vspec, ctx=ctx, budget=budget)
                        status = "oracle-verified" if brute == dist else "mismatch"
                    elapsed = time.perf_counter() - started
                    out_fh.write(catalog_line(key, status, elapsed, report_json(vspec, solution))
                                 + "\n")
                    out_fh.flush()
                    written += 1
                    if status == "mismatch":
                        print(f"MISMATCH {key}: brute {brute.entries} != solver {dist.entries}",
                              file=sys.stderr)
                        code = EXIT_MISMATCH
                if above:
                    skipped += _skip_span(row, above, done, admitted.refusal)
    except OSError as exc:  # in here only the catalog's writes, flushes and close raise it
        print(f"cannot write catalog {args.out}: {exc}", file=sys.stderr)
        code = EXIT_INVALID
    finally:
        print(f"catalog {args.out}: {written} written, {skipped} inadmissible skipped")
    return code


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `niho` parser, built once per process: parse_args keeps no state
    between calls, and a build costs more than a small analyze call."""
    parser = _Parser(
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
    for flag in ("--h-range", "--delta-range", "--t-range"):
        p_sweep.add_argument(flag, required=True,
                             help=f"inclusive range A:B or a single value; one that starts "
                                  f"below zero needs the = form, {flag}=-1:3")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--verify-small", type=int, default=None,
                         help="oracle-verify specs whose sweep cost is at most this")
    p_sweep.add_argument("--budget", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _flag_table() -> dict:
    """Per subcommand, read once from the actions `make_parser` declares:
    the Namespace values argparse starts from (the command, every dest's
    default and func), the action of each exact store or store-const flag,
    and the required actions."""
    commands = next(a for a in make_parser()._actions if a.dest == "command")
    table = {}
    for name, sub in commands.choices.items():
        defaults = {"command": name}
        flags = {}
        for action in sub._actions:
            if argparse.SUPPRESS not in (action.dest, action.default):
                defaults[action.dest] = action.default
            store = isinstance(action, argparse._StoreAction) and action.nargs is None
            if store or isinstance(action, argparse._StoreConstAction):
                flags.update(dict.fromkeys(action.option_strings, action))
        defaults["func"] = sub.get_default("func")
        required = frozenset(a for a in sub._actions if a.required)
        table[name] = (defaults, flags, required)
    return table


def _parse_canonical(argv) -> argparse.Namespace | None:
    """The Namespace `make_parser().parse_args(argv)` returns, read from the
    flag table when argv is a subcommand name followed by exact flags, each
    store flag with a value that passes its type and choices, is not empty
    and does not start with "-", and every required flag is given; None for
    any other line, which is left to argparse."""
    entry = _flag_table().get(argv[0]) if argv else None
    if entry is None:
        return None
    defaults, flags, required = entry
    values = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        action = flags.get(flag)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:  # a store-const flag takes no value
            values[action.dest] = action.const
            continue
        text = next(tokens, "")
        if not text or text[0] == "-":
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values) if required <= seen else None


def main(argv=None) -> int:
    """Run one subcommand and map its refusals to exit codes: invalid
    parameters, a command line argparse rejects or a closed stdout 1, a
    model violation 2, a budget or table-limit refusal 3.  -h exits 0
    through argparse.  The interpreter's int-to-str digit limit is lifted
    for the call and restored on the way out."""
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    # the digit limit, from Python 3.10.7; 0 is no limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse_canonical(argv) or make_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot raise (the recipe of the `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    except SpecValidationError as exc:
        print(f"invalid parameters [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TableLimitExceeded as exc:
        print(f"table limit refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
