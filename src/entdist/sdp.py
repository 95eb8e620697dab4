"""Primal PPT discrimination program and the certificate sandwich.

The primal is solved by a three-block consensus splitting: one block keeps
the measurement operators summing to the identity, one keeps each operator
PSD, one keeps each partial transpose PSD, and a consensus variable ties
them together while the linear objective drives the ascent. All projections
are exact (the affine step is a closed-form mean shift, the cone steps are
eigenvalue clips, and partial transposition is a Frobenius isometry so
transpose-clip-transpose projects onto the PPT cone). The iteration is
deterministic: fixed initialization, fixed summation order, no randomness.

A problem that carries an orbit is covariant: its states are
rho_k = W_k rho_0 W_k† with W_k the k-th basis unitary on B1. Summing W_k X W_k†
over a trace-orthogonal basis of d² unitaries gives d Tr_B1(X) ⊗ I_B1, which
commutes with every W_k, and the cone clips commute with W_k too, so from
the covariant start every iterate keeps P_k = W_k P_0 W_k†. The loop then
carries P_0 alone: the sum of the whole measurement becomes the twirl of
P_0 and the objective counts P_0 once for each of the d² operators. Every
complete basis qualifies (its first unitary is the identity, so state k is
state 0 moved by W_k); the basis need not be a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificate import DualCertificate, FeasibilityReport, build_certificate, verify_dual_feasibility
from .measures import fef
from .protocol import incomplete_bounds, protocol_success
from .states import (
    B1_FACTOR,
    Ensemble,
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    four_factor_layout,
    validate_basis,
)
from .tensor import (
    SubsystemLayout,
    conjugate_factor,
    factor_twirl,
    psd_clip,
    transpose_party_a,
)

DEFAULT_ACCURACY = 1e-4
DEFAULT_MAX_ITERS = 50000
# Penalty step of the three-way consensus splitting.
STEP = 0.5

_CHECK_EVERY = 25
_TRACE_EVERY = 100
_STALL_WINDOW = 50


def is_covariant(dim: int, n_states: int) -> bool:
    """Whether the first n_states states of a basis are solved on one operator.

    Only the complete set of d² states is covariant; a subset breaks the orbit.
    """
    return n_states == dim * dim


@dataclass(frozen=True)
class SDPProblem:
    """Discrimination instance: states, priors, cut, and solver options.

    ``orbit``, when given, holds the d² basis unitaries U_k with
    states[k] = W_k states[0] W_k† for W_k = U_k acting on B1, and the
    solver iterates on one operator.
    """

    states: tuple[np.ndarray, ...]
    priors: tuple[float, ...]
    layout: SubsystemLayout
    accuracy: float = DEFAULT_ACCURACY
    max_iters: int = DEFAULT_MAX_ITERS
    orbit: tuple[np.ndarray, ...] = field(default=(), repr=False)

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
        if self.accuracy <= 0 or self.max_iters < 1:
            raise ValueError("accuracy and max_iters must be positive")
        if self.orbit:
            self._check_orbit()

    def _check_orbit(self) -> None:
        orbit = tuple(np.asarray(u, dtype=complex) for u in self.orbit)
        object.__setattr__(self, "orbit", orbit)
        report = validate_basis(orbit)
        if not (report.accepted and report.complete):
            raise ValueError("an orbit must be a complete trace-orthogonal unitary basis")
        if self.layout != four_factor_layout(report.dim):
            raise ValueError(f"an orbit needs the A1,A2,B1,B2 layout of dimension {report.dim}")
        if len(orbit) != len(self.states):
            raise ValueError(f"orbit has {len(orbit)} unitaries for {len(self.states)} states")
        if any(p != self.priors[0] for p in self.priors):
            raise ValueError("a covariant problem needs uniform priors")
        rho0 = self.states[0]
        for k, (u, rho) in enumerate(zip(orbit, self.states)):
            moved = conjugate_factor(rho0, u, self.layout, B1_FACTOR)
            if np.max(np.abs(moved - rho)) > 1e-10:
                raise ValueError(f"state {k} is not state 0 moved by unitary {k} on B1")

    @classmethod
    def from_ensemble(
        cls, ens: Ensemble, basis: MaxEntBasis | None = None, **options
    ) -> "SDPProblem":
        """The program for an ensemble, solved operator by operator.

        Given the basis that built the ensemble, a complete ensemble carries
        the basis unitaries as its orbit and is solved on one operator.
        """
        if basis is not None and is_covariant(basis.dim, len(ens)):
            options.setdefault("orbit", basis.unitaries)
        return cls(
            states=tuple(ens.density_operators()),
            priors=ens.priors,
            layout=ens.layout,
            **options,
        )

    @classmethod
    def from_basis(
        cls,
        basis: MaxEntBasis,
        spec: ResourceSpectrum,
        n_states: int | None = None,
        **options,
    ) -> "SDPProblem":
        """The program for the first n_states basis states (all d² by default)."""
        n = len(basis) if n_states is None else n_states
        return cls.from_ensemble(build_ensemble(basis, spec, n), basis, **options)


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


def _affine_project(stack: np.ndarray, total, n: int) -> np.ndarray:
    """Shift the stack so the n operators of the measurement sum to the identity."""
    dev = (total(stack) - np.eye(stack.shape[1])) / n
    return stack - dev[None, :, :]


def _objective(cost: np.ndarray, stack: np.ndarray) -> float:
    return float(np.einsum("kij,kji->", cost, stack).real)


def _ppt_clip(stack: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Project every matrix of the stack onto the PPT cone."""
    return transpose_party_a(psd_clip(transpose_party_a(stack, layout)), layout)


def _residuals(stack: np.ndarray, total, layout: SubsystemLayout) -> tuple[float, float]:
    primal = float(np.linalg.norm(total(stack) - np.eye(stack.shape[1])))
    eig_min = min(
        float(np.linalg.eigvalsh(stack).min()),
        float(np.linalg.eigvalsh(transpose_party_a(stack, layout)).min()),
    )
    return primal, min(0.0, eig_min)


def _measurement_sum(problem: SDPProblem):
    """(number of iterated operators, map from their stack to the sum of all n).

    A covariant problem iterates on P_0 alone, whose orbit sums to the twirl
    d Tr_B1(P_0) ⊗ I_B1; any other problem iterates on every operator.
    """
    if problem.orbit:
        return 1, lambda stack: factor_twirl(stack[0], problem.layout, B1_FACTOR)
    return len(problem.states), lambda stack: stack.sum(axis=0)


def solve_primal_ppt(problem: SDPProblem) -> SDPResult:
    """Maximize sum_i p_i <Phi_i|P_i|Phi_i> over PPT measurements.

    Runs the consensus splitting until max(primal residual, cone violation,
    relative objective change over the stall window) drops below the target
    accuracy, checking every few iterations; hitting the iteration cap
    returns the best iterate with converged=False rather than raising. A
    covariant problem runs the same iterations on one orbit representative
    and expands it into all n operators at the end.
    """
    n = len(problem.states)
    layout = problem.layout
    dim = layout.dim
    kept, total = _measurement_sum(problem)
    multiplicity = n // kept

    cost = np.stack([p * s for p, s in zip(problem.priors[:kept], problem.states)])
    z = np.stack([np.eye(dim, dtype=complex) / n] * kept)
    duals = [np.zeros_like(z) for _ in range(3)]
    drive = cost / (3.0 * STEP)

    history: list[float] = []
    trace: list[dict] = []
    converged = False
    iterations = 0
    primal_res = cone_res = np.inf

    for it in range(1, problem.max_iters + 1):
        x_affine = _affine_project(z - duals[0], total, n)
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
            obj = multiplicity * _objective(cost, z)
            primal_res, cone_res = _residuals(z, total, layout)
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

    primal_value = multiplicity * _objective(cost, z)
    if not trace or trace[-1]["iteration"] != iterations:
        trace.append(
            {
                "iteration": iterations,
                "objective": primal_value,
                "primal_residual": primal_res,
                "cone_residual": cone_res,
            }
        )

    rounded = _ppt_clip(psd_clip(_affine_project(z, total, n)), layout)
    rounded_value = multiplicity * _objective(cost, rounded)

    if problem.orbit:
        operators = tuple(
            conjugate_factor(z[0], u, layout, B1_FACTOR) for u in problem.orbit
        )
    else:
        operators = tuple(z)

    return SDPResult(
        primal_value=primal_value,
        rounded_value=rounded_value,
        operators=operators,
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
        SDPProblem.from_ensemble(ens, basis, accuracy=accuracy, max_iters=max_iters)
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
