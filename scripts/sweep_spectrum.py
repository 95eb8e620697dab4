#!/usr/bin/env python3
"""Sweep the qubit resource spectrum and tabulate the three routes.

Walks the larger squared Schmidt weight p from 0.5 (maximally entangled)
to 1.0 (product), recording the protocol value, the certificate trace and
optionally the solver optimum at each point. Writes CSV.

    python3 scripts/sweep_spectrum.py --steps 26 --sdp --out sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from entdist.certificate import build_certificate
from entdist.measures import fef
from entdist.protocol import protocol_success
from entdist.sdp import SDPProblem, solve_primal_ppt
from entdist.states import ResourceSpectrum, weyl_basis


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=26,
                        help="number of grid points on [0.5, 1]")
    parser.add_argument("--sdp", action="store_true",
                        help="also solve the PPT program at every point")
    parser.add_argument("--accuracy", type=float, default=1e-4)
    parser.add_argument("--out", help="CSV path (default stdout)")
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be at least 2")

    basis = weyl_basis(2)
    fields = ["p1", "fef", "protocol", "certificate", "sdp"]
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(sink, fieldnames=fields)
    writer.writeheader()

    for p1 in np.linspace(0.5, 1.0, args.steps):
        spec = ResourceSpectrum.from_probabilities([p1, 1.0 - p1])
        row = {
            "p1": f"{p1:.6f}",
            "fef": f"{fef(spec):.12f}",
            "protocol": f"{protocol_success(basis, spec):.12f}",
            "certificate": f"{build_certificate(basis, spec).trace_value:.12f}",
            "sdp": "",
        }
        if args.sdp:
            result = solve_primal_ppt(
                SDPProblem.from_basis(basis, spec, accuracy=args.accuracy)
            )
            row["sdp"] = f"{result.primal_value:.8f}"
        writer.writerow(row)

    if args.out:
        sink.close()
        print(f"wrote {args.steps} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
