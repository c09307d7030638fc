"""Span tracing of the library's layers from outside the library.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper in
every ``nihocodes`` module namespace that holds it (``solver.n_r``,
``oracle.n_r``, ``cli.n_r``, ...), so calls from inside the library are
caught too; ``uninstall`` puts the originals back.  The wrappers are made
once, so a run can switch tracing on and off between calls.  A wrapper records a
span (name, start, end, parent, op id, outcome) in memory and derives work
counters from the call's arguments and result only.  Self time is a span's
duration minus the time covered by its child spans, so the self times of
all spans add up to the duration of the root spans (``cli.main``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = (
    ("galois", "build_field"),
    ("codespec", "validate_spec"),
    ("moments", "n_r"),
    ("solver", "weight_distribution"),
    ("solver", "b_vector"),
    ("solver", "solve_bareiss"),
    ("solver", "solve_lagrange"),
    ("oracle", "brute_distribution"),
    ("oracle", "n_r_brute"),
    ("oracle", "power_moment_check"),
    ("oracle", "codeword_weight"),
    ("oracle", "char_sum"),
    ("cli", "main"),
    ("cli", "build_report"),
)
# Refusals the CLI maps to an exit code; counted apart from errors.
EXPECTED_REFUSALS = ("SpecValidationError", "BudgetExceeded", "TableLimitExceeded")

# Metric name of each span's self time; cli.main's self time is the CLI's own
# work (parsing, reports, JSON, catalog I/O) outside every child span.
SELF_METRICS = {
    "galois.build_field": "galois.build_field.self_s",
    "codespec.validate_spec": "codespec.validate_spec.self_s",
    "moments.n_r": "moments.n_r.self_s",
    "solver.weight_distribution": "solver.weight_distribution.self_s",
    "solver.b_vector": "solver.b_vector.self_s",
    "solver.solve_bareiss": "solver.solve_bareiss.self_s",
    "solver.solve_lagrange": "solver.solve_lagrange.self_s",
    "oracle.brute_distribution.fast": "oracle.brute_distribution.fast.self_s",
    "oracle.brute_distribution.slow": "oracle.brute_distribution.slow.self_s",
    "oracle.n_r_brute": "oracle.n_r_brute.self_s",
    "oracle.power_moment_check": "oracle.power_moment_check.self_s",
    "oracle.codeword_weight": "oracle.codeword_weight.self_s",
    "oracle.char_sum": "oracle.char_sum.self_s",
    "cli.main": "cli.self_s",
    "cli.build_report": "cli.build_report.self_s",
}


def _bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, int):
            best = max(best, abs(v).bit_length())
        else:  # Fraction
            best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, outcome]
        self.stack: list[int] = []
        self.op = None
        self.nr_args: list[tuple] = []
        self.field_args: list[tuple] = []
        self.counts: Counter = Counter()
        self.solver_max_size = 0
        self.solver_max_bits = 0
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "nihocodes" or name.startswith("nihocodes."))]
        if not self._wrappers:
            for mod_name, fn_name in TRACED:
                original = getattr(sys.modules[f"nihocodes.{mod_name}"], fn_name)
                self._wrappers[id(original)] = (original, self._wrap(f"{mod_name}.{fn_name}", original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in self._wrappers and self._wrappers[id(value)][0] is value:
                    setattr(mod, attr, self._wrappers[id(value)][1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            span_name = name
            if name == "oracle.brute_distribution":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span_name = f"{name}.{bound.arguments['path']}"
            idx = len(tracer.spans)
            span = [span_name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                    tracer.op, "ok"]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[5] = "refused" if type(exc).__name__ in EXPECTED_REFUSALS else "error"
                raise
            finally:
                tracer.stack.pop()
            span[2] = time.perf_counter()
            if note is not None:
                if bound is None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                note(bound.arguments, result)
            return result

        return wrapper

    # -- work counters, from arguments and results only ---------------------

    def _note_moments_n_r(self, a, result) -> None:
        self.nr_args.append((a["r"], a["q"], a["e"]))

    def _note_galois_build_field(self, a, result) -> None:
        self.field_args.append((a["p"], a["degree"]))

    def _note_oracle_brute_distribution(self, a, result) -> None:
        vspec = a["vspec"]
        self.counts[f"tuples.{a['path']}"] += vspec.p**vspec.dimension - 1

    def _note_oracle_n_r_brute(self, a, result) -> None:
        self.counts["charged"] += a["vspec"].length ** a["r"]

    def _note_solver_b_vector(self, a, result) -> None:
        self.solver_max_size = max(self.solver_max_size, len(result))
        self.solver_max_bits = max(self.solver_max_bits, _bits(result))

    def _note_solve(self, a, result) -> None:
        self.solver_max_size = max(self.solver_max_size, len(result))
        self.solver_max_bits = max(self.solver_max_bits, _bits(a["rhs"]), _bits(result))

    _note_solver_solve_bareiss = _note_solve
    _note_solver_solve_lagrange = _note_solve

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter, Counter]:
        """Self seconds and call counts per span name, and outcomes."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, outcome in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        outcomes: Counter = Counter()
        for i, (name, start, end, parent, op, outcome) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            outcomes[outcome] += 1
        return self_s, calls, outcomes

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent is None)

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        self_s, calls, outcomes = self.self_times()
        out = {metric: self_s.get(span, 0.0) for span, metric in SELF_METRICS.items()}
        nr_calls = len(self.nr_args)
        out["moments.n_r.calls"] = nr_calls
        out["moments.n_r.distinct_frac"] = len(set(self.nr_args)) / nr_calls if nr_calls else 0.0
        out["moments.n_r.max_r"] = max((r for r, _, _ in self.nr_args), default=0)
        out["solver.max_size"] = self.solver_max_size
        out["solver.max_bits"] = self.solver_max_bits
        for path in ("fast", "slow"):
            tuples = self.counts[f"tuples.{path}"]
            busy = self_s.get(f"oracle.brute_distribution.{path}", 0.0)
            out[f"oracle.brute_distribution.{path}.tuples"] = tuples
            out[f"oracle.brute_distribution.{path}.tuples_per_s"] = tuples / busy if busy else 0.0
        out["oracle.n_r_brute.charged"] = self.counts["charged"]
        out["galois.build_field.calls"] = len(self.field_args)
        out["galois.build_field.distinct_frac"] = (
            len(set(self.field_args)) / len(self.field_args) if self.field_args else 0.0)
        out["codespec.validate_spec.calls"] = calls["codespec.validate_spec"]
        out["codespec.validate_spec.rejected"] = sum(
            1 for s in self.spans if s[0] == "codespec.validate_spec" and s[5] == "refused")
        out["trace.refused"] = outcomes["refused"]
        out["trace.errors"] = outcomes["error"]
        out["trace.wall_s"] = traced_wall
        out["trace.uncovered_s"] = traced_wall - self.root_time()
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, outcome in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "outcome": outcome}) + "\n")
