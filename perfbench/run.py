#!/usr/bin/env python3
"""Closed-loop benchmark harness for the entdist command line.

Run from the repository root:

    python3 perfbench/run.py --workload weyl_d3 --seed 1 --seconds 40 --trace 0

One client runs the workload's cases one after another; each case is one
in-process call to ``entdist.cli.main(argv)`` with stdout captured, the
path a user runs minus interpreter start-up. The harness generates every
input from ``--seed`` (comma-list spectra, strategies, a basis file) and
checks every report against the fully entangled fraction it computes
itself. Passes over the case list repeat while the next one still fits
in ``--seconds``, and a fixed reference kernel is timed between passes so
that each pass's time can be read against the host's speed around it.
With ``--trace 1`` untraced and traced passes alternate and the
traced ones give the per-layer figures (see spans.py). The last stdout
line is the result object; the full record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy is first imported: one
# thread against two moves the d=3 solve time by about 25% and leaves the
# iteration counts unchanged, so an inherited default would be a hidden
# machine variable. ENTDIST_THREADS is pinned to its default for the same
# reason.
THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "ENTDIST_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)
NPROC = len(os.sched_getaffinity(0))  # before main() pins the harness to one CPU

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ACCURACY = 1e-4  # passed explicitly so a change of CLI default is not a workload change
SOLVER_FLAGS = ("--accuracy", repr(ACCURACY))
SETUP_PROBES = 8  # at most this many fresh processes repeat the set-up, one after each
# pass, so that they meet the host in different phases; this process adds one more
# Reference spectra for the solver workloads: the seed jitters each weight by
# up to +-JITTER. Inside these neighbourhoods every seed needs the same
# number of solver iterations (175 complete, 300 at N=5 measured at this
# benchmark's creation), so the seed changes the report bytes and not the
# amount of work; across wider spectra the count moves between 150 and 275.
WEYL_REFERENCE = (0.55, 0.30, 0.15)
SUBSET_REFERENCE = (0.60, 0.30, 0.10)
SUBSET_SOLVE_N = 5
JITTER = 0.01
QUBIT_GRID = 12
REFERENCE_ROUNDS = 6  # rounds of the reference kernel timed between two passes, ~0.5 s


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what its report must satisfy."""

    id: str
    argv: tuple[str, ...]
    command: str
    dim: int
    n_states: int
    fef: float


def _fef(p) -> float:
    """(sum_i a_i)^2 / d from squared weights, computed apart from the program."""
    return math.fsum(math.sqrt(x) for x in p) ** 2 / len(p)


def _add(cases: list[Case], command: str, p, *flags: str, n_states: int | None = None) -> None:
    """Append one case on squared Schmidt weights ``p``, written with every digit."""
    d = len(p)
    argv = [command, "--dim", str(d), "--spectrum", ",".join(repr(float(x)) for x in p)]
    if n_states is not None:
        argv += ["--n-states", str(n_states)]
    argv += flags
    cases.append(
        Case(
            id=f"{len(cases):03d}-{command}",
            argv=tuple(argv),
            command=command,
            dim=d,
            n_states=d * d if n_states is None else n_states,
            fef=_fef(p),
        )
    )


def _near(np, rng, reference):
    p = np.asarray(reference) + rng.uniform(-JITTER, JITTER, len(reference))
    return p / p.sum()


def weyl_d3(np, rng, smoke: bool, workdir: Path) -> list[Case]:
    """Complete Weyl basis at d=3: the solver's (9, 81, 81) eigh stacks dominate."""
    cases: list[Case] = []
    _add(cases, "sandwich", _near(np, rng, (0.7, 0.3) if smoke else WEYL_REFERENCE), *SOLVER_FLAGS)
    return cases


def subset_d3(np, rng, smoke: bool, workdir: Path) -> list[Case]:
    """Incomplete d=3 set: the subset breaks the Weyl group, convergence is slower.

    The sandwich also runs ``incomplete_bounds`` for its lower bound.
    """
    cases: list[Case] = []
    strategy = str(rng.choice(["completion", "projector"]))
    if smoke:
        p, n_states = _near(np, rng, (0.7, 0.3)), 3
    else:
        p, n_states = _near(np, rng, SUBSET_REFERENCE), SUBSET_SOLVE_N
    _add(cases, "sandwich", p, "--strategy", strategy, *SOLVER_FLAGS, n_states=n_states)
    return cases


def cert_d5(np, rng, smoke: bool, workdir: Path) -> list[Case]:
    """certificate --dim 5: the dense (25 x 625 x 625) feasibility sweep, no solver."""
    cases: list[Case] = []
    p = rng.exponential(size=2 if smoke else 5)
    _add(cases, "certificate", p / p.sum())
    return cases


def _haar_basis_file(np, rng, path: Path) -> None:
    """The d=2 Weyl basis conjugated by a Haar-random unitary, as a basis file."""
    paulis = [
        np.eye(2),
        np.diag([1.0, -1.0]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, -1.0], [1.0, 0.0]]),
    ]  # X^a Z^b in a-major order, as the built-in basis lists them
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    unitaries = [v @ u @ v.conj().T for u in paulis]
    payload = {
        "dim": 2,
        "unitaries": [[[float(z.real), float(z.imag)] for z in u.reshape(-1)] for u in unitaries],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def qubit_sweep(np, rng, smoke: bool, workdir: Path) -> list[Case]:
    """d=2 spectrum grid over every subcommand: per-call overhead dominates."""
    basis_file = workdir / "haar_basis.json"
    _haar_basis_file(np, rng, basis_file)
    cases: list[Case] = []
    if smoke:
        p = _near(np, rng, (0.7, 0.3))
        _add(cases, "sandwich", p, "--basis-file", str(basis_file), *SOLVER_FLAGS)
        return cases
    # Stratified grid: one point in each of QUBIT_GRID equal slices of
    # p1 in (0.5, 1), so every seed covers the range from maximally
    # entangled towards product the same way.
    offsets = rng.uniform(0.0, 1.0, QUBIT_GRID)
    for k, u in enumerate(offsets):
        p1 = 0.5 + 0.5 * (k + u) / QUBIT_GRID
        p = (p1, 1.0 - p1)
        _add(cases, "fef", p)
        _add(cases, "protocol", p)
        _add(cases, "certificate", p)
        _add(cases, "sdp", p, *SOLVER_FLAGS)
        _add(cases, "sandwich", p, *SOLVER_FLAGS)
        _add(cases, "bounds", p, "--strategy", "completion", n_states=3)
        _add(cases, "bounds", p, "--strategy", "projector", n_states=3)
        if k % 4 == 0:
            _add(cases, "protocol", p, "--shots", "2000", "--seed", str(int(rng.integers(1 << 30))))
            _add(cases, "sandwich", p, "--basis-file", str(basis_file), *SOLVER_FLAGS)
    _add(cases, "verify", (0.5, 0.5), "--seed", str(int(rng.integers(1 << 30))))
    return cases


WORKLOADS = {
    "weyl_d3": weyl_d3,
    "subset_d3": subset_d3,
    "cert_d5": cert_d5,
    "qubit_sweep": qubit_sweep,
}


def check(case: Case, code, text: str) -> str | None:
    """None when the report is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    f = case.fef
    slack = ACCURACY + 1e-6
    upper_expected = min(1.0, case.dim**2 * f / case.n_states)
    try:
        if case.command == "sandwich":
            lower, value, upper = report["lower"], report["sdp_value"], report["upper"]
            if case.n_states == case.dim**2:
                ok = report["agreement"] is True and all(
                    abs(x - f) <= slack for x in (lower, value, upper)
                )
            else:
                ok = (
                    lower - slack <= value <= upper + slack
                    and abs(upper - upper_expected) <= 1e-12
                )
        elif case.command == "certificate":
            ok = (
                report["passed"] is True
                and abs(report["trace_value"] - case.dim**2 * f / case.n_states) <= 1e-12
            )
        elif case.command == "fef":
            ok = abs(report["fef"] - f) <= 1e-10
        elif case.command == "protocol":
            ok = abs(report["value"] - f) <= 1e-10
        elif case.command == "sdp":
            ok = report["converged"] is True
        elif case.command == "verify":
            ok = report["passed"] is True
        elif case.command == "bounds":
            ok = (
                f - 1e-12 <= report["lower"] <= report["upper"] + 1e-12
                and abs(report["upper"] - upper_expected) <= 1e-12
            )
        else:
            return f"no check for {case.command}"
    except (KeyError, TypeError) as exc:
        return f"report lacks {exc}"
    return None if ok else f"{case.command} report fails its check against F={f!r}"


def solver_stats(case: Case, text: str):
    """(iterations, converged) from a solver report, or None."""
    if case.command not in ("sdp", "sandwich"):
        return None
    try:
        report = json.loads(text)
        solver = report if case.command == "sdp" else report["sdp"]
        return solver["iterations"], solver["converged"]
    except (ValueError, KeyError, TypeError):
        return None


def run_case(cli, case: Case):
    """Run one case; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing case is a failed case; the run goes on
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(cli, cases: list[Case], tracer=None):
    """All cases once, back to back; returns (wall seconds, per-case results)."""
    results = []
    start = time.perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.case = case.id
        results.append(run_case(cli, case))
    return time.perf_counter() - start, results


class Reference:
    """A fixed kernel, independent of entdist, that gauges the host's speed.

    On a shared host the speed of a core moves by up to 1.5x in phases of
    seconds to tens of seconds, and a phase can cover a whole run. Timing
    the same work before and after each pass lets the pass be read in
    units of this kernel's time around it. The kernel mixes the program's
    two kinds of work: batched Hermitian eigen-decompositions and small
    numpy calls from Python. Its inputs come from a fixed seed, not the
    workload's, so it does the same work in every run, and it keeps the
    eigen functions it was built with, so a traced pass's rebinding never
    reaches it.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((9, 81, 81)) + 1j * rng.standard_normal((9, 81, 81))
        large = rng.standard_normal((2, 300, 300)) + 1j * rng.standard_normal((2, 300, 300))
        self._small = small + small.conj().transpose(0, 2, 1)
        self._large = large + large.conj().transpose(0, 2, 1)
        self._eye = np.eye(2)
        self._eigh, self._eigvalsh, self._trace = np.linalg.eigh, np.linalg.eigvalsh, np.trace

    def run(self) -> float:
        """Seconds for REFERENCE_ROUNDS rounds of the kernel."""
        start = time.perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            self._eigh(self._small)
            self._eigvalsh(self._large)
            x = self._eye
            for i in range(3000):
                self._trace(x @ x)
                json.dumps({"i": i, "v": [1.0, 2.0]})
        return time.perf_counter() - start


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import entdist, generate the inputs and run one warm-up case.

    Returns (seconds, cli module, cases). The warm-up is the workload's
    d=2 smoke case, which loads every lazily imported module on the path
    without adding a full-size case to the set-up.
    """
    start = time.perf_counter()
    import numpy as np

    sys.path.insert(0, str(SRC))
    import entdist.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"entdist imported from {cli.__file__}, not from {SRC}")
    cases = WORKLOADS[workload](np, np.random.default_rng(seed), smoke, workdir)
    warm = WORKLOADS[workload](np, np.random.default_rng(seed), True, workdir)[0]
    run_case(cli, warm)
    return time.perf_counter() - start, cli, cases


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Set-up seconds measured inside a fresh harness process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": THREADS,
        "cpus": sorted(os.sched_getaffinity(0)),
        "thread_vars": list(THREAD_VARS),
        "machine": platform.machine(),
        "seed": seed,
    }


def tail(latencies: list[float]):
    """(percentile, value): the highest of a fixed ladder of percentiles
    with at least ten samples above it, or None when only the median has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_frac": "ratio", "_share": "ratio",
         "_bytes": "B", "_pct": "%", "ms_per_iter": "ms", "_ref": "ref"}


def unit(name: str) -> str:
    for suffix, value in UNITS.items():
        if name.endswith(suffix):
            return value
    return "count"


def measure(cli, cases, seconds: float, traced: bool, probe, probes: int):
    """Repeat passes while the next one, judged by the last, still ends
    within ``seconds``; with ``traced`` alternate plain and traced passes,
    at least one of each. After each of the first ``probes`` passes the
    set-up ``probe`` runs once. The reference kernel runs before the first
    pass and after every pass (and probe), and a pass's ``ref`` is the
    mean of the two timings around it. Returns the pass records, every
    reference timing, the probes' set-up times and the tracer."""
    import numpy as np

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
    reference = Reference(np)
    reference.run()  # warm-up
    passes, setups = [], []
    start = time.perf_counter()
    refs = [reference.run()]
    while True:
        kinds = {p["traced"] for p in passes}
        if passes and (not traced or kinds == {False, True}):
            if time.perf_counter() - start + passes[-1]["wall"] + refs[-1] > seconds:
                break
        trace_this = traced and len(passes) % 2 == 1
        if trace_this:
            lo = len(tracer.spans)
            with tracer.installed():
                wall, results = run_pass(cli, cases, tracer)
            passes.append({"traced": True, "wall": wall, "results": results,
                           "spans": (lo, len(tracer.spans))})
        else:
            wall, results = run_pass(cli, cases)
            passes.append({"traced": False, "wall": wall, "results": results})
        if len(setups) < probes:
            setups.append(probe())
        refs.append(reference.run())
        passes[-1]["ref"] = (refs[-2] + refs[-1]) / 2
    return passes, refs, setups, tracer


def layer_metrics(cases, passes, tracer) -> dict:
    import spans

    per_pass = []
    plain = statistics.median(p["wall"] / p["ref"] for p in passes if not p["traced"])
    for p in passes:
        if not p["traced"]:
            continue
        figures = spans.summarize(tracer.spans, *p["spans"])
        stats = [solver_stats(c, r[1]) for c, r in zip(cases, p["results"])]
        stats = [s for s in stats if s is not None]
        iterations = sum(s[0] for s in stats)
        figures["sdp.iterations"] = iterations
        converged = sum(bool(s[1]) for s in stats)
        figures["sdp.converged_frac"] = converged / len(stats) if stats else 0.0
        figures["sdp.ms_per_iter"] = (
            1e3 * figures["sdp.solve_s"] / iterations if iterations else 0.0
        )
        figures["cli.report_bytes"] = sum(len(r[1].encode()) for r in p["results"])
        figures["linalg.eig_share"] = figures["linalg.eig_s"] / p["wall"]
        per_pass.append(figures)
    traced = statistics.median(p["wall"] / p["ref"] for p in passes if p["traced"])
    # Counts repeat exactly from pass to pass; median_low keeps them integers.
    out = {
        name: (statistics.median_low if isinstance(value, int) else statistics.median)(
            f[name] for f in per_pass
        )
        for name, value in per_pass[0].items()
    }
    out["trace_overhead_frac"] = traced / plain - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one d=2 case per workload and one set-up probe; finishes in seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU: on a shared virtual machine each vCPU's speed moves on its
    # own, and the passes and the reference timings (see Reference) must
    # see the same one. Set-up probes inherit the pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "entdist" / "__init__.py").is_file():
        print(f"error: no entdist sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_s, cli, cases = setup(args.workload, args.seed, args.smoke, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        passes, refs, probed, tracer = measure(
            cli, cases, args.seconds, bool(args.trace),
            lambda: probe_setup(args.workload, args.seed, args.smoke),
            1 if args.smoke else SETUP_PROBES,
        )
        setups = [setup_s] + probed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Validation happens after timing, on every result of every pass; a
    # report whose bytes differ from the first pass's counts as failed.
    digests = {}
    failures = []
    attempted = 0
    for p in passes:
        for case, (code, text, err, _) in zip(cases, p["results"]):
            attempted += 1
            digest = hashlib.sha256(text.encode()).hexdigest()
            reason = check(case, code, text)
            if reason is None and digests.setdefault(case.id, digest) != digest:
                reason = "report bytes differ between passes"
            if reason is not None:
                failures.append({"case": case.id, "reason": reason, "stderr": err[-2000:]})

    plain = [p for p in passes if not p["traced"]]
    latencies = [r[3] * 1e3 for p in plain for r in p["results"]]
    metrics = {
        "wall_ref": statistics.median(p["wall"] / p["ref"] for p in plain),
        "case_p50_ref": statistics.median(r[3] / p["ref"] for p in plain for r in p["results"]),
        "wall_s": statistics.median(p["wall"] for p in plain),
        "case_p50_ms": statistics.median(latencies),
        "ref_s": statistics.median(p["ref"] for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(failures) / attempted,
    }
    samples = {"wall_ref": len(plain), "case_p50_ref": len(latencies), "wall_s": len(plain),
               "case_p50_ms": len(latencies), "ref_s": len(plain), "setup_s": len(setups)}
    found = tail(latencies)
    if found is not None:
        metrics["case_tail_ms"] = found[1]
        metrics["case_tail_pct"] = found[0]
        samples["case_tail_ms"] = len(latencies)
    if args.trace:
        metrics.update(layer_metrics(cases, passes, tracer))

    named = spec["per_layer" if args.trace else "end_to_end"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        "samples": samples,
        "setup_samples_s": setups,
        "pass_walls_s": [[p["traced"], p["wall"]] for p in passes],
        "ref_samples_s": refs,
        "failures": failures[:20],
        "cases": {c.id: list(c.argv) for c in cases},
        "digests": digests,
        "report_digest": hashlib.sha256(
            "".join(digests[k] for k in sorted(digests)).encode()
        ).hexdigest(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    print(json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in named},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
