"""Teleportation-based discrimination protocol and incomplete-set bounds.

Teleporting one half of the resource through the unknown basis state leaves
the receiving lab holding a residual ket gamma_i = (1 (x) U_i)|tau>, reducing
the task to single-lab discrimination of the gammas. Measuring them in the
maximally entangled basis of that lab succeeds with probability equal to the
fully entangled fraction of the resource, term by term. For a set of N < d^2
states the same measurement, with each unused outcome (or their sum, a single
remainder projector) credited to a residual, gives a computable lower bound,
and the scaled certificate trace gives the matching upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import fef
from .states import MaxEntBasis, ResourceSpectrum
from .tensor import require_hermitian

GRAM_TOL = 1e-12
TIE_TOL = 1e-12


@dataclass(frozen=True)
class ResidualEnsemble:
    """Post-teleportation kets, one per row of ``gammas``, and their Gram matrix."""

    dim: int
    gammas: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        require_hermitian(self.gram)
        if np.max(np.abs(np.diag(self.gram) - 1.0)) > GRAM_TOL:
            raise ValueError("residual states must be normalized")

    def __len__(self) -> int:
        return len(self.gammas)


def teleport_residuals(
    basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int | None = None
) -> ResidualEnsemble:
    """Residuals gamma_i = sum_k a_k |k> (x) U_i|k> for the first n_states,
    with their Gram matrix."""
    d = basis.dim
    if spec.dim != d:
        raise ValueError(f"spectrum dimension {spec.dim} does not match basis {d}")
    if n_states is None:
        n_states = d * d
    if not 1 <= n_states <= d * d:
        raise ValueError(f"n_states must lie in [1, {d * d}], got {n_states}")

    a = np.asarray(spec.coeffs)
    unitaries = basis.unitaries[:n_states]
    gammas = (a[:, None] * unitaries.transpose(0, 2, 1)).reshape(n_states, d * d)
    return ResidualEnsemble(dim=d, gammas=gammas, gram=gammas.conj() @ gammas.T)


def _outcome_matrix(basis: MaxEntBasis, residuals: ResidualEnsemble) -> np.ndarray:
    """P[i, j] = |<psi_j|gamma_i>|^2: residual i measured in the whole basis."""
    return np.abs(residuals.gammas @ basis.kets().conj().T) ** 2


@dataclass(frozen=True)
class ProtocolRun:
    """Exact single-lab simulation of the discrimination measurement."""

    dim: int
    value: float
    per_state: tuple[float, ...]
    expected: float
    residuals: ResidualEnsemble

    @property
    def max_term_deviation(self) -> float:
        """Largest |per-state success - expected|; zero up to roundoff."""
        return max(abs(t - self.expected) for t in self.per_state)


def simulate_protocol(basis: MaxEntBasis, spec: ResourceSpectrum) -> ProtocolRun:
    """Run the full-basis protocol exactly and tabulate per-state successes.

    Each residual is measured in the maximally entangled basis of the
    receiving lab; outcome i on residual i counts as success. Outcome
    distributions are checked to sum to one.
    """
    residuals = teleport_residuals(basis, spec)
    outcomes = _outcome_matrix(basis, residuals)
    off = np.flatnonzero(np.abs(outcomes.sum(axis=1) - 1.0) > 1e-12)
    if off.size:
        raise ValueError(f"outcome distribution for state {off[0]} is not normalized")
    per_state = tuple(float(p) for p in np.diag(outcomes))
    return ProtocolRun(
        dim=basis.dim,
        value=float(np.mean(per_state)),
        per_state=per_state,
        expected=fef(spec),
        residuals=residuals,
    )


def protocol_success(basis: MaxEntBasis, spec: ResourceSpectrum) -> float:
    """Exact success probability of the teleportation protocol."""
    return simulate_protocol(basis, spec).value


def sample_protocol_success(
    basis: MaxEntBasis,
    spec: ResourceSpectrum,
    shots: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate: draw inputs uniformly, sample the measurement.

    Frequencies converge to the exact value at the usual 1/sqrt(shots) rate;
    this exists for demonstration, the exact simulation is authoritative.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    n = len(basis)
    outcomes = _outcome_matrix(basis, teleport_residuals(basis, spec))
    counts = rng.multinomial(shots, [1.0 / n] * n)
    hits = 0
    for i, draws in enumerate(counts):
        if draws == 0:
            continue
        dist = outcomes[i] / outcomes[i].sum()
        hits += int(np.sum(rng.choice(n, size=draws, p=dist) == i))
    return hits / shots


@dataclass(frozen=True)
class IncompleteBounds:
    """Lower and upper bounds on the N-state success probability.

    Iterates as (lower, upper). ``assignments`` records, per completion
    direction (one entry for the projector), which residual claimed it: the
    lowest index within TIE_TOL of the largest overlap, which ``overlaps``
    holds. ``in_range`` flags whether N sits in the locally indistinguishable
    regime d+1 <= N <= d^2 the bounds are framed for.
    """

    dim: int
    n_states: int
    strategy: str
    lower: float
    upper: float
    fef_value: float
    assignments: tuple[int, ...]
    overlaps: tuple[float, ...]
    in_range: bool

    def __iter__(self):
        return iter((self.lower, self.upper))

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_states": self.n_states,
            "strategy": self.strategy,
            "lower": self.lower,
            "upper": self.upper,
            "fef_value": self.fef_value,
            "assignments": list(self.assignments),
            "overlaps": list(self.overlaps),
            "in_range": self.in_range,
        }


def incomplete_bounds(
    basis: MaxEntBasis,
    spec: ResourceSpectrum,
    n_states: int,
    strategy: str = "completion",
) -> IncompleteBounds:
    """Bracket the success probability for the first n_states basis states.

    The receiver measures in the whole basis, so the completion is the
    unused basis states psi_j, j >= N. With the "completion" strategy every
    completion outcome is mapped back to the residual most likely to have
    produced it: lower = F + (1/N) sum_j max_i |<psi_j|gamma_i>|^2. The
    "projector" strategy lumps the completion into one projector
    Q = sum_{j>=N} |psi_j><psi_j|, the orthocomplement of the measured set
    since the basis is complete, and scores only its best residual:
    lower = F + (1/N) max_i <gamma_i|Q|gamma_i>. Each outcome goes to the
    lowest index within TIE_TOL of the maximum, and ``overlaps`` keeps the
    maximum itself. Either way upper = min(1, (d^2/N) F) and lower <= upper
    is enforced.
    """
    _check_bounds_args(basis, spec, strategy, n_states)
    outcomes = _outcome_matrix(basis, teleport_residuals(basis, spec, n_states))
    return _bounds(outcomes, spec, strategy)


def incomplete_bounds_sweep(
    basis: MaxEntBasis, spec: ResourceSpectrum, strategy: str = "completion"
) -> tuple[IncompleteBounds, ...]:
    """``incomplete_bounds`` for every N from d + 1 to d^2, in that order.

    Row i of the outcome matrix depends only on residual i, so one matrix
    for the whole basis serves every N: the first N states read its first N
    rows.
    """
    _check_bounds_args(basis, spec, strategy)
    d = basis.dim
    outcomes = _outcome_matrix(basis, teleport_residuals(basis, spec))
    return tuple(_bounds(outcomes[:n], spec, strategy) for n in range(d + 1, d * d + 1))


def _check_bounds_args(
    basis: MaxEntBasis, spec: ResourceSpectrum, strategy: str, n_states: int | None = None
) -> None:
    d = basis.dim
    if spec.dim != d:
        raise ValueError(f"spectrum dimension {spec.dim} does not match basis {d}")
    if n_states is not None and not 1 <= n_states <= d * d:
        raise ValueError(f"n_states must lie in [1, {d * d}], got {n_states}")
    if strategy not in ("completion", "projector"):
        raise ValueError(f"unknown strategy {strategy!r}")


def _bounds(outcomes: np.ndarray, spec: ResourceSpectrum, strategy: str) -> IncompleteBounds:
    """The bounds of ``incomplete_bounds`` from the outcome rows of the N residuals."""
    n_states, d = len(outcomes), spec.dim
    # One column per completion outcome, one row per residual that may claim it.
    scores = outcomes[:, n_states:]
    if strategy == "projector":
        scores = scores.sum(axis=1, keepdims=True)
    best = scores.max(axis=0)
    assignments = np.argmax(scores >= best - TIE_TOL, axis=0)
    overlaps = [float(m) for m in best]

    fef_value = fef(spec)
    lower = fef_value + sum(overlaps) / n_states
    upper = min(1.0, (d * d / n_states) * fef_value)
    if lower > upper + 1e-12:
        raise RuntimeError(
            f"bound ordering violated: lower {lower!r} > upper {upper!r}"
        )
    return IncompleteBounds(
        dim=d,
        n_states=n_states,
        strategy=strategy,
        lower=float(lower),
        upper=float(upper),
        fef_value=fef_value,
        assignments=tuple(int(i) for i in assignments),
        overlaps=tuple(overlaps),
        in_range=d + 1 <= n_states <= d * d,
    )
