#!/usr/bin/env python3
"""Scan subset sizes N and record the bracket around the PPT optimum.

For one resource spectrum, runs N from d+1 up to d*d and tabulates the
completion lower bound, the rescaled certificate upper bound, and, with
--sdp, the solver value that must sit between them.

    python3 scripts/incomplete_bounds_scan.py --dim 3 --seed 4 --sdp
"""

import argparse
import csv
import sys

from entdist.cli import EXIT_INPUT, MAX_DENSE_BYTES, dense_bytes, parse_spectrum
from entdist.protocol import incomplete_bounds
from entdist.sdp import SDPProblem, solve_primal_ppt
from entdist.states import weyl_basis


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--spectrum", default="random",
                        help="uniform | product | random | comma list of p_i")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sdp", action="store_true")
    parser.add_argument("--accuracy", type=float, default=1e-4)
    parser.add_argument("--out", help="CSV path (default stdout)")
    args = parser.parse_args()

    sizes = range(args.dim + 1, args.dim * args.dim + 1)
    try:
        spec = parse_spectrum(args.spectrum, args.dim, amplitudes=False, seed=args.seed)
        solved = sizes if args.sdp else ()
        need = max(
            [dense_bytes("bounds", args.dim, args.dim * args.dim)]
            + [dense_bytes("sdp", args.dim, n) for n in solved]
        )
        if need > MAX_DENSE_BYTES:
            raise ValueError(
                f"scan at d={args.dim} needs about {need / 2**30:.3g} GiB of dense "
                f"arrays, more than the {MAX_DENSE_BYTES / 2**30:.3g} GiB limit"
            )
        basis = weyl_basis(args.dim)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    fields = ["n_states", "lower_completion", "lower_projector", "upper", "sdp"]
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(sink, fieldnames=fields)
    writer.writeheader()

    for n in sizes:
        completion = incomplete_bounds(basis, spec, n)
        projector = incomplete_bounds(basis, spec, n, strategy="projector")
        row = {
            "n_states": n,
            "lower_completion": f"{completion.lower:.12f}",
            "lower_projector": f"{projector.lower:.12f}",
            "upper": f"{completion.upper:.12f}",
            "sdp": "",
        }
        if args.sdp:
            result = solve_primal_ppt(
                SDPProblem.from_basis(basis, spec, n, accuracy=args.accuracy)
            )
            row["sdp"] = f"{result.primal_value:.8f}"
        writer.writerow(row)

    if args.out:
        sink.close()
        print(f"scan complete: {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
