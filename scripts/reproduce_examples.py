#!/usr/bin/env python3
"""Walk the two showcase parameter sets through the whole pipeline and print
every intermediate object: exponents, N_r table, moment matrix inverse,
b-vector, frequencies, enumerator, and the brute-force confirmation."""

import argparse
import time

from nihocodes.codespec import CodeSpec, validate_spec
from nihocodes.galois import build_field
from nihocodes.moments import n_r
from nihocodes.oracle import brute_distribution
from nihocodes.solver import (
    b_vector,
    enumerator_string,
    moment_nodes,
    solve_lagrange,
    weight_distribution,
)

SHOWCASES = {
    "binary": CodeSpec("f1", 2, 4, 2, 1, 2),
    "ternary": CodeSpec("f2", 3, 2, 3, 1, 3),
}


def run(name: str, spec: CodeSpec, check_oracle: bool) -> None:
    print(f"=== {name}: {spec} ===")
    vs = validate_spec(spec)
    print(f"q = {vs.q}, e = {vs.e}, length = {vs.length}, dimension = {vs.dimension}")
    print(f"s-values {vs.s_values}  exponents {vs.exponents}  coset sizes {vs.coset_sizes}")
    print("N_r:", [n_r(r, vs.q, vs.e) for r in range(vs.moment_size)])
    nodes = moment_nodes(vs.moment_size, vs.q, vs.e)
    print(f"moment matrix nodes: {nodes}")
    print("inverse:")
    size = len(nodes)
    columns = [solve_lagrange(nodes, [int(i == k) for k in range(size)]) for i in range(size)]
    for row in zip(*columns):
        print("  " + "  ".join(str(x) for x in row))
    print("b:", b_vector(vs.q, vs.e, vs.moment_size))
    dist = weight_distribution(vs)
    print("frequencies by j:", dist.freq_by_j)
    print("enumerator:", enumerator_string(dist))
    if check_oracle:
        ctx = build_field(vs.p, 2 * vs.m)
        path = "slow" if vs.dimension <= 16 else "fast"
        started = time.perf_counter()
        brute = brute_distribution(vs, ctx=ctx, path=path)
        elapsed = time.perf_counter() - started
        verdict = "MATCH" if brute == dist else "MISMATCH"
        print(f"brute force ({path} path, {vs.codeword_count - 1} codewords, "
              f"{elapsed:.2f}s): {verdict}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-oracle", action="store_true",
                        help="print only the closed-form pipeline")
    args = parser.parse_args()
    for name, spec in SHOWCASES.items():
        run(name, spec, check_oracle=not args.skip_oracle)


if __name__ == "__main__":
    main()
