"""Primal PPT discrimination program and the certificate sandwich.

The primal is solved by a three-block consensus splitting: one block keeps
the measurement operators summing to the identity, one keeps each operator
PSD, one keeps each partial transpose PSD, and a consensus variable ties
them together while the linear objective drives the ascent. All projections
are exact (the affine step is a closed-form mean shift, the cone steps are
eigenvalue clips, and partial transposition is a Frobenius isometry so
transpose-clip-transpose projects onto the PPT cone). The iteration is
deterministic: fixed initialization, fixed summation order, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificate import DualCertificate, FeasibilityReport, build_certificate, verify_dual_feasibility
from .measures import fef
from .protocol import incomplete_bounds, protocol_success
from .states import Ensemble, MaxEntBasis, ResourceSpectrum, build_ensemble
from .tensor import SubsystemLayout, psd_clip, transpose_party_a

DEFAULT_ACCURACY = 1e-4
DEFAULT_MAX_ITERS = 50000
DEFAULT_STEP = 0.5

_CHECK_EVERY = 25
_TRACE_EVERY = 100
_STALL_WINDOW = 50


@dataclass(frozen=True)
class SDPProblem:
    """Discrimination instance: states, priors, cut, and solver options."""

    states: tuple[np.ndarray, ...]
    priors: tuple[float, ...]
    layout: SubsystemLayout
    accuracy: float = DEFAULT_ACCURACY
    max_iters: int = DEFAULT_MAX_ITERS
    step: float = DEFAULT_STEP

    def __post_init__(self):
        states = tuple(np.asarray(s, dtype=complex) for s in self.states)
        priors = tuple(float(p) for p in self.priors)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)
        if len(states) != len(priors) or not states:
            raise ValueError("need one prior per state and at least one state")
        if abs(sum(priors) - 1.0) > 1e-12 or any(p < 0 for p in priors):
            raise ValueError(f"priors must form a probability vector, got {priors}")
        for i, rho in enumerate(states):
            self.layout.check_matrix(rho)
            if abs(np.trace(rho).real - 1.0) > 1e-10:
                raise ValueError(f"state {i} does not have unit trace")
            if np.linalg.eigvalsh(rho)[0] < -1e-10:
                raise ValueError(f"state {i} is not positive semidefinite")
        if self.accuracy <= 0 or self.max_iters < 1 or self.step <= 0:
            raise ValueError("accuracy, max_iters, and step must be positive")

    @classmethod
    def from_ensemble(cls, ens: Ensemble, **options) -> "SDPProblem":
        return cls(
            states=tuple(ens.density_operators()),
            priors=ens.priors,
            layout=ens.layout,
            **options,
        )


@dataclass(frozen=True)
class SDPResult:
    """Solver output; residuals describe the returned operators."""

    primal_value: float
    rounded_value: float
    operators: tuple[np.ndarray, ...] = field(repr=False)
    primal_residual: float
    cone_residual: float
    iterations: int
    converged: bool
    trace: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "primal_value": self.primal_value,
            "rounded_value": self.rounded_value,
            "primal_residual": self.primal_residual,
            "cone_residual": self.cone_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": list(self.trace),
        }


def _affine_project(stack: np.ndarray) -> np.ndarray:
    """Shift the stack so the operators sum to the identity exactly."""
    n, dim = stack.shape[0], stack.shape[1]
    dev = (stack.sum(axis=0) - np.eye(dim)) / n
    return stack - dev[None, :, :]


def _objective(cost: np.ndarray, stack: np.ndarray) -> float:
    return float(np.einsum("kij,kji->", cost, stack).real)


def _ppt_clip(stack: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Project every matrix of the stack onto the PPT cone."""
    return transpose_party_a(psd_clip(transpose_party_a(stack, layout)), layout)


def _residuals(stack: np.ndarray, layout: SubsystemLayout) -> tuple[float, float]:
    dim = stack.shape[1]
    primal = float(np.linalg.norm(stack.sum(axis=0) - np.eye(dim)))
    eig_min = min(
        float(np.linalg.eigvalsh(stack).min()),
        float(np.linalg.eigvalsh(transpose_party_a(stack, layout)).min()),
    )
    return primal, min(0.0, eig_min)


def solve_primal_ppt(problem: SDPProblem) -> SDPResult:
    """Maximize sum_i p_i <Phi_i|P_i|Phi_i> over PPT measurements.

    Runs the consensus splitting until max(primal residual, cone violation,
    relative objective change over the stall window) drops below the target
    accuracy, checking every few iterations; hitting the iteration cap
    returns the best iterate with converged=False rather than raising.
    """
    n = len(problem.states)
    layout = problem.layout
    dim = layout.dim
    rho_step = problem.step

    cost = np.stack([p * s for p, s in zip(problem.priors, problem.states)])
    z = np.stack([np.eye(dim, dtype=complex) / n] * n)
    duals = [np.zeros_like(z) for _ in range(3)]
    drive = cost / (3.0 * rho_step)

    history: list[float] = []
    trace: list[dict] = []
    converged = False
    iterations = 0
    primal_res = cone_res = np.inf

    for it in range(1, problem.max_iters + 1):
        x_affine = _affine_project(z - duals[0])
        x_psd = psd_clip(z - duals[1])
        x_ppt = _ppt_clip(z - duals[2], layout)

        z = (
            x_affine + duals[0] + x_psd + duals[1] + x_ppt + duals[2]
        ) / 3.0 + drive
        duals[0] += x_affine - z
        duals[1] += x_psd - z
        duals[2] += x_ppt - z

        iterations = it
        if it % _CHECK_EVERY == 0 or it == problem.max_iters:
            obj = _objective(cost, z)
            primal_res, cone_res = _residuals(z, layout)
            history.append(obj)
            lag = _STALL_WINDOW // _CHECK_EVERY
            if len(history) > lag:
                change = abs(obj - history[-1 - lag]) / max(1.0, abs(obj))
            else:
                change = np.inf
            if it % _TRACE_EVERY == 0 or it == problem.max_iters:
                trace.append(
                    {
                        "iteration": it,
                        "objective": obj,
                        "primal_residual": primal_res,
                        "cone_residual": cone_res,
                    }
                )
            if max(primal_res, -cone_res, change) < problem.accuracy:
                converged = True
                break

    primal_value = _objective(cost, z)
    if not trace or trace[-1]["iteration"] != iterations:
        trace.append(
            {
                "iteration": iterations,
                "objective": primal_value,
                "primal_residual": primal_res,
                "cone_residual": cone_res,
            }
        )

    rounded = _ppt_clip(psd_clip(_affine_project(z)), layout)
    rounded_value = _objective(cost, rounded)

    return SDPResult(
        primal_value=primal_value,
        rounded_value=rounded_value,
        operators=tuple(z),
        primal_residual=primal_res,
        cone_residual=cone_res,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def dual_bound_from_certificate(
    cert: DualCertificate,
    ens: Ensemble,
    tol: float = 1e-9,
    report: FeasibilityReport | None = None,
) -> float:
    """Certificate trace as a weak-duality upper bound on the PPT value.

    Feasibility is verified first (or taken from a supplied report) and a
    failed report is an error: an infeasible operator bounds nothing.
    """
    if report is None:
        report = verify_dual_feasibility(cert, ens, tol)
    if not report.passed:
        raise ValueError(
            "certificate is not dual feasible "
            f"(worst margin {report.worst_lambda_min:.3e} < {report.threshold:.3e})"
        )
    return cert.trace_value


@dataclass(frozen=True)
class SandwichReport:
    """Lower bound, solver value, and upper bound for one instance."""

    dim: int
    n_states: int
    fef_value: float
    lower: float
    sdp_value: float
    upper: float
    upper_unclipped: float
    accuracy: float
    agreement: bool
    feasibility: FeasibilityReport
    result: SDPResult

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_states": self.n_states,
            "fef_value": self.fef_value,
            "lower": self.lower,
            "sdp_value": self.sdp_value,
            "upper": self.upper,
            "upper_unclipped": self.upper_unclipped,
            "accuracy": self.accuracy,
            "agreement": self.agreement,
            "feasibility": self.feasibility.to_dict(),
            "sdp": self.result.to_dict(),
        }


def sandwich_report(
    basis: MaxEntBasis,
    spec: ResourceSpectrum,
    n_states: int | None = None,
    accuracy: float = DEFAULT_ACCURACY,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = 1e-9,
    strategy: str = "completion",
) -> SandwichReport:
    """Compute all three routes to the success probability and compare.

    For a complete basis the lower bound comes from the exact protocol
    simulation and must agree with both the solver value and the certificate
    trace within the solver accuracy plus 1e-6; disagreement raises. For an
    incomplete set the protocol bound and the clipped certificate trace
    bracket the solver value without a tightness claim.
    """
    d = basis.dim
    if n_states is None:
        n_states = d * d
    ens = build_ensemble(basis, spec, n_states)
    cert = build_certificate(basis, spec, n_states)
    feas = verify_dual_feasibility(cert, ens, tol, basis=basis, spec=spec)
    upper_unclipped = dual_bound_from_certificate(cert, ens, tol, report=feas)
    upper = min(1.0, upper_unclipped)

    if n_states == d * d:
        lower = protocol_success(basis, spec)
    else:
        lower = incomplete_bounds(basis, spec, n_states, strategy=strategy).lower

    result = solve_primal_ppt(
        SDPProblem.from_ensemble(ens, accuracy=accuracy, max_iters=max_iters)
    )

    slack = accuracy + 1e-6
    if n_states == d * d:
        spread = max(
            abs(lower - result.primal_value),
            abs(result.primal_value - upper),
            abs(lower - upper),
        )
        agreement = spread <= slack
        if not agreement:
            raise RuntimeError(
                f"three-way agreement failed: lower {lower!r}, "
                f"sdp {result.primal_value!r}, upper {upper!r}, "
                f"spread {spread:.3e} > {slack:.3e}"
            )
    else:
        agreement = (
            lower - slack <= result.primal_value <= upper + slack
        )

    return SandwichReport(
        dim=d,
        n_states=n_states,
        fef_value=fef(spec),
        lower=lower,
        sdp_value=result.primal_value,
        upper=upper,
        upper_unclipped=upper_unclipped,
        accuracy=accuracy,
        agreement=agreement,
        feasibility=feas,
        result=result,
    )
