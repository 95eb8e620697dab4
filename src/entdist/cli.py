"""Command-line front end.

Every subcommand resolves its inputs into a RunConfig before any numerics
run, emits a JSON report (or a flat CSV table with --csv) to stdout or
--out, and exits 0 on success, 1 on a numerical check failure or a solve
that did not converge, 2 on bad input. A subcommand offers only the flags
its handler reads, so any other flag is bad input too. A run whose dense
arrays would exceed MAX_DENSE_BYTES is refused before anything is built.
Reports are byte-identical for identical configuration and seed; progress
lines go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np

from .certificate import (
    build_certificate,
    upsilon_spectrum_check,
    verify_dual_feasibility,
)
from .measures import fef, negativity
from .protocol import (
    incomplete_bounds,
    incomplete_bounds_sweep,
    sample_protocol_success,
    simulate_protocol,
)
from .sdp import DEFAULT_ACCURACY, DEFAULT_MAX_ITERS, sandwich_report, solve_bytes, solve_primal_ppt
from .states import (
    BASIS_DEFECT_TOL,
    MaxEntBasis,
    ResourceSpectrum,
    basis_from_entries,
    build_ensemble,
    dump_basis_file,
    random_spectrum,
    read_basis_file,
    weyl_basis,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

_PRESETS = ("uniform", "product", "random")

# Refuse a run whose dense arrays would need more than this.
MAX_DENSE_BYTES = 4 * 2**30
# Bytes per Schmidt coefficient while fef builds and reads the spectrum;
# tracemalloc peaks at 220-390 of them at d = 10^4-10^6.
_SPECTRUM_BYTES = 400
# Basis-sized arrays (d^2 matrices of d x d, 16 d^4 bytes) that basis, protocol,
# bounds, certificate and verify hold at their peak. Parsing a basis file's
# JSON alone costs about 14 of them (tracemalloc peaks at 14.1-14.6 at
# d = 6-16, against 4.0-7.2 for the built-in basis). Whole runs after a
# d = 2 warm-up peak at 5.1-8.0 of them for certificate (the margins'
# psi_k psi_k^dag stack is one) and at 9.2-14.3 for verify, at d = 4-16.
_BASIS_ARRAYS = 16
# Bytes per point of a sweep: its grid entry, its row and the row's text in
# the report; tracemalloc peaks at 1,650-1,850 of them per point at 50-3,000
# steps, with or without --sdp (less with --csv).
_SWEEP_ROW_BYTES = 2000
# Refuse a run that would take hours: a sampled shot takes 14-28 ns and a
# sweep step 0.1 ms, or about 1.2 ms with --sdp, at d = 2.
MAX_SHOTS = 10**9
MAX_STEPS = 10**5


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs for one subcommand invocation."""

    command: str
    dim: int
    spec: ResourceSpectrum | None
    spectrum_label: str
    n_states: int
    basis: MaxEntBasis | None
    tol: float
    accuracy: float
    max_iters: int
    seed: int
    out: str | None
    csv: bool
    strategy: str
    shots: int
    dump: str | None
    sdp: bool
    steps: int


def parse_spectrum(text: str, dim: int, amplitudes: bool, seed: int) -> ResourceSpectrum:
    if text == "uniform":
        return ResourceSpectrum.uniform(dim)
    if text == "product":
        return ResourceSpectrum.product(dim)
    if text == "random":
        return random_spectrum(dim, np.random.default_rng(seed))
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(
            f"spectrum must be one of {_PRESETS} or comma-separated numbers, "
            f"got {text!r}"
        ) from exc
    if len(values) != dim:
        raise ValueError(f"spectrum has {len(values)} entries, expected {dim}")
    if amplitudes:
        return ResourceSpectrum.from_amplitudes(values)
    return ResourceSpectrum.from_probabilities(values)


def dense_bytes(
    command: str, dim: int, n_states: int, max_iters: int = DEFAULT_MAX_ITERS
) -> int:
    """Estimated peak bytes of the dense arrays a run holds.

    fef holds only the d Schmidt coefficients. basis, protocol, bounds,
    certificate and verify hold a fixed number of basis-sized arrays: the
    basis, the (N, d, d) stack of the ensemble factors psi_k and stacks of
    d x d matrices derived from them. sdp holds the basis and what
    ``solve_bytes`` counts for a solve of up to ``max_iters`` iterations;
    sandwich adds the certificate route to its solve.
    """
    if command == "fef":
        return _SPECTRUM_BYTES * dim
    basis = 16 * dim**4 * _BASIS_ARRAYS
    if command in ("basis", "protocol", "bounds", "certificate", "verify"):
        return basis
    solver = basis + solve_bytes(dim, n_states, max_iters)
    return {"sdp": solver, "sandwich": solver + basis}[command]


def _check_size(
    command: str,
    dim: int,
    n_states: int,
    sdp: bool,
    steps: int,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> None:
    # A sweep runs all three routes on the complete basis, like sandwich, and
    # holds its grid and rows; its solves run one at a time. A scan holds
    # what bounds holds; with --sdp its largest solve is N = d^2 - 1.
    if command == "sweep":
        need = dense_bytes("sandwich", dim, dim * dim, max_iters) + _SWEEP_ROW_BYTES * steps
        what = f"sweep with {steps} steps"
    else:
        if command == "scan":
            command, n_states = ("sdp", dim * dim - 1) if sdp else ("bounds", dim * dim)
        need = dense_bytes(command, dim, n_states, max_iters)
        what = f"{command} at d={dim}" + ("" if command == "fef" else f" with {n_states} states")
    if need > MAX_DENSE_BYTES:
        raise ValueError(
            f"{what} needs about {need / 2**30:.3g} GiB, more than the "
            f"{MAX_DENSE_BYTES / 2**30:.3g} GiB limit"
        )


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Validate and resolve CLI arguments; raises ValueError on bad input."""
    entries = None
    if args.basis_file is not None:
        dim, entries = read_basis_file(args.basis_file)
        if args.dim is not None and args.dim != dim:
            raise ValueError(
                f"--dim {args.dim} contradicts basis file dimension {dim}"
            )
    else:
        dim = 2 if args.dim is None else args.dim
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if args.command == "sweep" and dim != 2:
        raise ValueError(f"sweep walks the qubit spectrum and needs d=2, got {dim}")

    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    n_states = dim * dim if args.n_states is None else args.n_states
    if not 1 <= n_states <= dim * dim:
        raise ValueError(f"--n-states must lie in [1, {dim * dim}], got {n_states}")

    for name in ("tol", "accuracy"):
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"--{name} must be positive and finite, got {value}")
    if args.max_iters < 1:
        raise ValueError("--max-iters must be at least 1")
    if args.shots < 0:
        raise ValueError(f"--shots must not be negative, got {args.shots}")
    if args.shots > MAX_SHOTS:
        raise ValueError(f"--shots must be at most {MAX_SHOTS}, got {args.shots}")
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")

    for flag in ("out", "dump"):
        if getattr(args, flag) == "":
            raise ValueError(f"--{flag} needs a file name, got an empty path")

    _check_size(args.command, dim, n_states, args.sdp, args.steps, args.max_iters)
    # After the size guard, which names the memory a longer sweep would need.
    if args.steps > MAX_STEPS:
        raise ValueError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")

    # Only after the size guard: the spectrum alone holds d numbers.
    spectrum_label = args.spectrum if args.spectrum is not None else "uniform"
    if args.command == "verify" and args.spectrum is None:
        spec = None
        spectrum_label = "presets"
    else:
        spec = parse_spectrum(spectrum_label, dim, args.amplitudes, args.seed)

    basis = None
    if entries is not None:
        basis = basis_from_entries(dim, entries, args.basis_file)
    elif args.command != "fef":
        basis = weyl_basis(dim)

    return RunConfig(
        command=args.command,
        dim=dim,
        spec=spec,
        spectrum_label=spectrum_label,
        n_states=n_states,
        basis=basis,
        tol=args.tol,
        accuracy=args.accuracy,
        max_iters=args.max_iters,
        seed=args.seed,
        out=args.out,
        csv=args.csv,
        strategy=args.strategy,
        shots=args.shots,
        dump=args.dump,
        sdp=args.sdp,
        steps=args.steps,
    )


def fields_of(report) -> dict:
    """A report dataclass as the dict of its fields by name, in field order;
    a field declared ``repr=False`` (an array kept for later use) is left out."""
    return {
        f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.repr
    }


def _json_value(obj):
    """A report dataclass, numpy scalar or array as the dict, Python value or
    list ``json`` encodes.

    The report writer, like json.dumps given it as ``default``, calls it only
    on what it cannot encode itself; numpy float64 is a float and is encoded
    as one.
    """
    if dataclasses.is_dataclass(obj):
        return fields_of(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


_QUOTE = json.encoder.encode_basestring_ascii
_FLOAT = float.__repr__
_INT = int.__repr__


def _json_text(obj, newline: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
    default=_json_value)`` writes it, byte for byte, with the same ValueError
    on a NaN or an infinity; ``newline`` is the line break and indent that
    precede its closing bracket (``"\\n"`` at the top level). Dict keys must
    be strings, as every report's are.

    With an indent json.dumps runs its pure-Python encoder, which makes a
    generator for every list and dict and yields every separator on its own;
    this writer builds each container's text with one join, and a list of
    floats, such as a spectrum, with one join of their reprs.
    """
    if isinstance(obj, str):
        return _QUOTE(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _INT(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return _FLOAT(obj)
    inner = newline + "  "
    separator = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if isinstance(obj[0], float):
            try:
                text = separator.join(map(_FLOAT, obj))
            except TypeError:  # an item that is not a float
                pass
            else:
                if "n" not in text:  # a finite float's repr has none; nan and inf do
                    return "[" + inner + text + newline + "]"
        text = separator.join([_json_text(value, inner) for value in obj])
        return "[" + inner + text + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        text = separator.join(
            [_QUOTE(key) + ": " + _json_text(value, inner) for key, value in sorted(obj.items())]
        )
        return "{" + inner + text + newline + "}"
    return _json_text(_json_value(obj), newline)


def emit(config: RunConfig, payload: dict, rows: list[dict]) -> None:
    """Write the report; one holding a non-finite number is a numerical failure.

    The JSON report is the text of ``json.dumps(payload, sort_keys=True,
    indent=2)`` plus a line break, written by ``_json_text``. The whole text
    is formatted before anything is written, so a refused report leaves
    stdout empty.
    """
    if config.csv:
        rows = [
            {k: v.item() if isinstance(v, np.generic) else v for k, v in row.items()}
            for row in rows
        ]
        if any(
            isinstance(v, float) and not math.isfinite(v)
            for row in rows
            for v in row.values()
        ):
            raise RuntimeError("report holds a non-finite number")
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        try:
            text = _json_text(payload, "\n") + "\n"
        except ValueError as exc:
            raise RuntimeError(f"report holds a non-finite number: {exc}") from exc
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_fields(spec: ResourceSpectrum) -> dict:
    return {
        "amplitudes": list(spec.coeffs),
        "probabilities": [a * a for a in spec.coeffs],
    }


def cmd_fef(config: RunConfig):
    spec = config.spec
    f = fef(spec)
    neg = negativity(spec)
    relation_defect = abs(f - (1.0 + 2.0 * neg) / spec.dim)
    payload = {
        "command": "fef",
        "dim": spec.dim,
        **_spectrum_fields(spec),
        "fef": f,
        "negativity": neg,
        "relation_defect": relation_defect,
        "relation_ok": relation_defect <= 1e-12,
    }
    rows = [
        {
            "dim": spec.dim,
            "fef": f,
            "negativity": neg,
            "relation_defect": relation_defect,
        }
    ]
    return EXIT_OK, payload, rows


def cmd_basis(config: RunConfig):
    # A rejected basis exits 2 at construction, so this report is accepted.
    report = config.basis.validation
    payload = {"command": "basis", **fields_of(report)}
    if config.dump is not None:
        dump_basis_file(config.basis, config.dump)
        payload["dumped_to"] = config.dump
    rows = [fields_of(report)]
    return EXIT_OK, payload, rows


def cmd_protocol(config: RunConfig):
    run = simulate_protocol(config.basis, config.spec)
    payload = {
        "command": "protocol",
        "dim": run.dim,
        **_spectrum_fields(config.spec),
        "value": run.value,
        "fef": run.expected,
        "deviation_from_fef": abs(run.value - run.expected),
        "max_term_deviation": run.max_term_deviation,
        "per_state": list(run.per_state),
    }
    if config.shots > 0:
        rng = np.random.default_rng(config.seed)
        sampled = sample_protocol_success(run, config.shots, rng)
        payload["shots"] = config.shots
        payload["seed"] = config.seed
        payload["sampled_value"] = sampled
        payload["sampling_error"] = abs(sampled - run.value)
    rows = [
        {"state": i, "success": p, "deviation": abs(p - run.expected)}
        for i, p in enumerate(run.per_state)
    ]
    return EXIT_OK, payload, rows


def cmd_certificate(config: RunConfig):
    cert = build_certificate(config.basis, config.spec, config.n_states)
    ens = build_ensemble(config.basis, config.spec, config.n_states)
    feas = verify_dual_feasibility(cert, ens, config.tol)
    ups = upsilon_spectrum_check(config.basis)
    passed = feas.passed and ups.passed
    payload = {
        "command": "certificate",
        "dim": cert.dim,
        "n_states": cert.n_states,
        "scale": cert.scale,
        "trace_value": cert.trace_value,
        "fef": fef(config.spec),
        "feasibility": feas,
        "upsilon": ups,
        "passed": passed,
    }
    rows = [
        {
            "k": k,
            "lambda_min": feas.lambda_mins[k],
            "decomposition_residual": feas.decomposition_residuals[k],
        }
        for k in range(len(feas.lambda_mins))
    ]
    return EXIT_OK if passed else EXIT_NUMERICAL, payload, rows


def cmd_sdp(config: RunConfig):
    result = solve_primal_ppt(
        config.basis,
        config.spec,
        config.n_states,
        accuracy=config.accuracy,
        max_iters=config.max_iters,
    )
    payload = {
        "command": "sdp",
        "dim": config.dim,
        "n_states": config.n_states,
        "accuracy": config.accuracy,
        "max_iters": config.max_iters,
        **fields_of(result),
    }
    rows = list(result.trace)
    return EXIT_OK if result.converged else EXIT_NUMERICAL, payload, rows


def cmd_bounds(config: RunConfig):
    bounds = incomplete_bounds(
        config.basis, config.spec, config.n_states, strategy=config.strategy
    )
    payload = {"command": "bounds", **fields_of(bounds)}
    rows = [
        {
            "completion_index": i,
            "assigned_state": bounds.assignments[i],
            "overlap": bounds.overlaps[i],
        }
        for i in range(len(bounds.assignments))
    ] or [{"completion_index": -1, "assigned_state": -1, "overlap": 0.0}]
    return EXIT_OK, payload, rows


def cmd_sandwich(config: RunConfig):
    report = sandwich_report(
        config.basis,
        config.spec,
        config.n_states,
        accuracy=config.accuracy,
        max_iters=config.max_iters,
        tol=config.tol,
        strategy=config.strategy,
    )
    payload = {"command": "sandwich", **fields_of(report)}
    rows = [
        {
            "dim": report.dim,
            "n_states": report.n_states,
            "lower": report.lower,
            "sdp": report.sdp_value,
            "upper": report.upper,
            "fef": report.fef_value,
            "agreement": report.agreement,
        }
    ]
    code = EXIT_OK if report.agreement and report.sdp.converged else EXIT_NUMERICAL
    return code, payload, rows


def _table(config: RunConfig, rows: list[dict], solves: list[bool], **fields):
    """Report of a sweep or scan; with --sdp, any unconverged solve exits 1.

    ``solves`` holds whether each solve converged: a solve's result, its
    trace included, is dropped once its row is written.
    """
    converged = all(solves)
    payload = {"command": config.command, "dim": config.dim, **fields, "rows": rows}
    if config.sdp:
        payload.update(
            accuracy=config.accuracy, max_iters=config.max_iters, converged=converged
        )
    return EXIT_OK if converged else EXIT_NUMERICAL, payload, rows


def cmd_sweep(config: RunConfig):
    basis = config.basis
    rows, solves = [], []
    for p1 in np.linspace(0.5, 1.0, config.steps):
        spec = ResourceSpectrum.from_probabilities([p1, 1.0 - p1])
        row = {
            "p1": p1,
            "fef": fef(spec),
            "protocol": simulate_protocol(basis, spec).value,
            "certificate": build_certificate(basis, spec).trace_value,
            "sdp": None,
        }
        if config.sdp:
            result = solve_primal_ppt(
                basis, spec, accuracy=config.accuracy, max_iters=config.max_iters
            )
            solves.append(result.converged)
            row["sdp"] = result.primal_value
        rows.append(row)
    return _table(config, rows, solves, steps=config.steps)


def cmd_scan(config: RunConfig):
    basis, spec, d = config.basis, config.spec, config.dim
    rows, solves = [], []
    run = simulate_protocol(basis, spec)
    completions = incomplete_bounds_sweep(run)
    projectors = incomplete_bounds_sweep(run, strategy="projector")
    for completion, projector in zip(completions, projectors):
        n = completion.n_states
        start = time.perf_counter()
        row = {
            "n_states": n,
            "lower_completion": completion.lower,
            "lower_projector": projector.lower,
            "upper": completion.upper,
            "sdp": None,
        }
        if config.sdp:
            result = solve_primal_ppt(
                basis, spec, n, accuracy=config.accuracy, max_iters=config.max_iters
            )
            solves.append(result.converged)
            row["sdp"] = result.primal_value
        rows.append(row)
        elapsed = time.perf_counter() - start
        print(f"scan: N={n} in {elapsed:.2f} s (N = {d + 1}..{d * d})", file=sys.stderr)
    return _table(config, rows, solves, **_spectrum_fields(spec))


def _verify_one(config: RunConfig, label: str, spec: ResourceSpectrum) -> list[dict]:
    """Invariant suite for one spectrum; one dict per named check."""
    basis = config.basis
    d = basis.dim
    checks = []

    def check(name: str, passed: bool, detail: float | str) -> None:
        checks.append(
            {"check": f"{label}:{name}", "passed": bool(passed), "detail": detail}
        )

    run = simulate_protocol(basis, spec)
    check(
        "protocol_equals_fef",
        abs(run.value - run.expected) <= 1e-10,
        abs(run.value - run.expected),
    )
    check("protocol_per_term", run.max_term_deviation <= 1e-10, run.max_term_deviation)

    # Each outcome row sums to its residual's squared norm.
    norm_defect = float(np.max(np.abs(run.outcomes.sum(axis=1) - 1.0)))
    check("gram_normalized", norm_defect <= 1e-12, norm_defect)

    cert = build_certificate(basis, spec)
    ens = build_ensemble(basis, spec, d * d)
    feas = verify_dual_feasibility(cert, ens, config.tol)
    check(
        "certificate_trace",
        abs(cert.trace_value - fef(spec)) <= 1e-12,
        abs(cert.trace_value - fef(spec)),
    )
    check("dual_feasibility", feas.passed, feas.worst_lambda_min)
    check(
        "decomposition_residual",
        feas.worst_decomposition_residual <= 1e-12,
        feas.worst_decomposition_residual,
    )

    bounds_ok = True
    worst = 0.0
    for b in incomplete_bounds_sweep(run):
        slack = max(fef(spec) - b.lower, b.lower - b.upper, b.upper - 1.0)
        worst = max(worst, slack)
        bounds_ok = bounds_ok and slack <= 1e-12
    check("bound_ordering", bounds_ok, worst)
    return checks


def cmd_verify(config: RunConfig):
    basis = config.basis
    d = basis.dim
    checks: list[dict] = []

    # The strict bound validate_basis accepts with, read here again.
    report = basis.validation
    defect = max(report.unitarity_defect, report.orthogonality_defect)
    checks.append(
        {"check": "basis_validation", "passed": defect < BASIS_DEFECT_TOL, "detail": defect}
    )

    ups = upsilon_spectrum_check(basis)
    checks.append(
        {
            "check": "upsilon_spectra",
            "passed": ups.passed,
            "detail": max(ups.spectrum_defect, ups.complement_defect),
        }
    )

    if config.spec is not None:
        spectra = [(config.spectrum_label, config.spec)]
    else:
        spectra = [
            (label, parse_spectrum(label, d, False, config.seed)) for label in _PRESETS
        ]
    for label, spec in spectra:
        checks.extend(_verify_one(config, label, spec))

    passed = all(c["passed"] for c in checks)
    payload = {
        "command": "verify",
        "dim": d,
        "seed": config.seed,
        "checks": checks,
        "passed": passed,
    }
    return EXIT_OK if passed else EXIT_NUMERICAL, payload, checks


_HANDLERS = {
    "fef": cmd_fef,
    "basis": cmd_basis,
    "protocol": cmd_protocol,
    "certificate": cmd_certificate,
    "sdp": cmd_sdp,
    "bounds": cmd_bounds,
    "sandwich": cmd_sandwich,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "scan": cmd_scan,
}

_COMMAND_HELP = {
    "fef": "fully entangled fraction and negativity of a spectrum",
    "basis": "validate (and optionally dump) a maximally entangled basis",
    "protocol": "exact simulation of the teleportation protocol",
    "certificate": "build the dual certificate and verify feasibility",
    "sdp": "solve the primal PPT discrimination program",
    "bounds": "lower and upper bounds for an incomplete set",
    "sandwich": "protocol lower bound, SDP value, certificate upper bound",
    "verify": "run the full invariant suite at one dimension",
    "sweep": "tabulate all three routes along the qubit spectrum",
    "scan": "tabulate the incomplete-set bracket for N = d+1 ... d^2",
}

_FLAGS = {
    "--dim": dict(type=int, help="local dimension d (default 2)"),
    "--spectrum": dict(help="comma-separated squared Schmidt weights, or uniform|product|random"),
    "--amplitudes": dict(action="store_true", help="read --spectrum as Schmidt coefficients"),
    "--seed": dict(type=int, default=0, help="seed for random spectra and sampling"),
    "--basis-file": dict(help="JSON basis file instead of the built-in basis"),
    "--n-states": dict(type=int, help="ensemble size N (default d^2)"),
    "--tol": dict(type=float, default=1e-9, help="feasibility tolerance (default 1e-9)"),
    "--accuracy": dict(
        type=float,
        default=DEFAULT_ACCURACY,
        help="solver target accuracy (default "
        f"{np.format_float_scientific(DEFAULT_ACCURACY, trim='-', exp_digits=1)})",
    ),
    "--max-iters": dict(
        type=int,
        default=DEFAULT_MAX_ITERS,
        help=f"solver iteration cap (default {DEFAULT_MAX_ITERS})",
    ),
    "--strategy": dict(
        choices=("completion", "projector"),
        default="completion",
        help="incomplete-set measurement strategy",
    ),
    "--shots": dict(type=int, default=0, help="also sample the measurement this many times"),
    "--dump": dict(help="write the resolved basis to this path as a basis file"),
    "--sdp": dict(action="store_true", help="also solve the PPT program for every row"),
    "--steps": dict(type=int, default=26, help="grid points p1 on [0.5, 1] (default 26)"),
    "--out": dict(help="write the report to this path instead of stdout"),
    "--csv": dict(action="store_true", help="emit a flat CSV table instead of JSON"),
}

_SPECTRUM = ("--dim", "--spectrum", "--amplitudes", "--seed")
_SOLVER = ("--accuracy", "--max-iters")
# The flags each handler reads; every subcommand also takes --out and --csv.
_COMMAND_FLAGS = {
    "fef": _SPECTRUM,
    "basis": ("--dim", "--basis-file", "--dump"),
    "protocol": (*_SPECTRUM, "--basis-file", "--shots"),
    "certificate": (*_SPECTRUM, "--basis-file", "--n-states", "--tol"),
    "sdp": (*_SPECTRUM, "--basis-file", "--n-states", *_SOLVER),
    "bounds": (*_SPECTRUM, "--basis-file", "--n-states", "--strategy"),
    "sandwich": (*_SPECTRUM, "--basis-file", "--n-states", "--tol", *_SOLVER, "--strategy"),
    "verify": (*_SPECTRUM, "--basis-file", "--tol"),
    "sweep": ("--basis-file", "--steps", "--sdp", *_SOLVER),
    "scan": (*_SPECTRUM, "--basis-file", "--sdp", *_SOLVER),
}


# Built once per process: building it costs more than a small d = 2 run.
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict, dict]:
    """The full parser, each subcommand's argparse actions by option string
    under its name, and the default of every flag by destination.

    ``parse_args`` matches a well-formed argv against the actions alone; the
    full parser runs only for argv they do not match."""
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="three independent routes to the entanglement-assisted "
        "discrimination probability of a maximally entangled basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The defaults of the flags a subcommand is not offered fill its namespace.
    actions, defaults = {}, {}
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        actions[name] = {}
        for flag in (*flags, "--out", "--csv"):
            action = actions[name][flag] = p.add_argument(flag, **_FLAGS[flag])
            defaults[action.dest] = action.default
    parser.set_defaults(**defaults)
    return parser, actions, defaults


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _exact_match(argv: list) -> argparse.Namespace | None:
    """The namespace of a well-formed argv (see ``parse_args``), else None."""
    _, actions, defaults = _parsers()
    table = actions.get(argv[0]) if argv else None
    if table is None:
        return None
    namespace = argparse.Namespace(command=argv[0], **defaults)
    arguments = iter(argv[1:])
    for option in arguments:
        action = table.get(option)
        if action is None:
            return None
        value = action.const
        if action.nargs != 0:
            value = next(arguments, None)
            if value is None or value.startswith("-"):
                return None
            try:
                value = value if action.type is None else action.type(value)
            except (TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(namespace, action.dest, value)
    return namespace


def parse_args(argv) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` returns.

    A well-formed argv, a subcommand and then only its own option strings
    spelled out, is matched against that subcommand's argparse actions
    without running a parser. An option takes the next argument as its
    value if there is one and it does not start with "-"; the action's
    ``type`` converts it and its ``choices`` must hold it. A flag stores the
    action's ``const``. The namespace holds the command, then every default,
    then the parsed values, as the full parser's does.

    Any other argv runs the full parser: no subcommand first,
    ``--flag=value``, an abbreviation, a value that starts with "-" (a
    negative number too), an unknown flag, a missing or bad value, ``-h``.
    So help, usage, error text and exit codes stay argparse's.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    namespace = _exact_match(argv)
    if namespace is not None:
        return namespace
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    argv is parsed by ``parse_args``, by exact match on the subcommand's
    argparse actions when it is well formed and by the full parser
    otherwise, and resolved into a RunConfig; the handler's report is
    written by ``emit``. Help exits 0 and a flag the subcommand does not
    take exits 2, both through argparse.
    """
    args = parse_args(argv)
    try:
        config = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        code, payload, rows = _HANDLERS[config.command](config)
        emit(config, payload, rows)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
