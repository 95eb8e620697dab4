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

from dataclasses import dataclass, field

import numpy as np

from .measures import fef
from .states import MaxEntBasis, ResourceSpectrum, problem_size

NORM_TOL = 1e-12
TIE_TOL = 1e-12
# Measurement outcomes sample_protocol_success draws per call: each holds
# about 16 bytes while it is drawn.
_DRAW_CHUNK = 2**16


def teleport_residuals(
    basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int | None = None
) -> np.ndarray:
    """Residuals gamma_i = sum_k a_k |k> (x) U_i|k> for the first n_states,
    one per row of an (N, d^2) array."""
    d = basis.dim
    n_states = problem_size(basis, spec, n_states)
    a = np.asarray(spec.coeffs)
    unitaries = basis.unitaries[:n_states]
    return (a[:, None] * unitaries.transpose(0, 2, 1)).reshape(n_states, d * d)


def _outcome_matrix(
    basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int | None = None
) -> np.ndarray:
    """P[i, j] = |<psi_j|gamma_i>|^2: residual i of the first n_states
    measured in the whole basis.

    Row i sums to <gamma_i|gamma_i> by Parseval over the complete basis, so
    checking that every row sums to one is the residuals' normalization
    check.
    """
    gammas = teleport_residuals(basis, spec, n_states)
    outcomes = np.abs(gammas @ basis.kets().conj().T) ** 2
    off = np.flatnonzero(np.abs(outcomes.sum(axis=1) - 1.0) > NORM_TOL)
    if off.size:
        raise ValueError(f"outcome distribution for state {off[0]} is not normalized")
    return outcomes


@dataclass(frozen=True)
class ProtocolRun:
    """Exact single-lab simulation of the discrimination measurement, with
    the outcome matrix every protocol number is read from."""

    dim: int
    value: float
    per_state: tuple[float, ...]
    expected: float
    outcomes: np.ndarray = field(repr=False)

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
    outcomes = _outcome_matrix(basis, spec)
    per_state = tuple(float(p) for p in np.diag(outcomes))
    return ProtocolRun(
        dim=basis.dim,
        value=float(np.mean(per_state)),
        per_state=per_state,
        expected=fef(spec),
        outcomes=outcomes,
    )


def sample_protocol_success(
    run: ProtocolRun, shots: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate: draw inputs uniformly, sample the measurement.

    Frequencies converge to the exact value at the usual 1/sqrt(shots) rate;
    this exists for demonstration, the exact simulation is authoritative.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    outcomes = run.outcomes
    n = len(outcomes)
    counts = rng.multinomial(shots, [1.0 / n] * n)
    hits = 0
    for i, draws in enumerate(counts):
        if draws == 0:
            continue
        dist = outcomes[i] / outcomes[i].sum()
        # Chunks draw the same stream as one call, in bounded memory.
        for done in range(0, draws, _DRAW_CHUNK):
            size = min(_DRAW_CHUNK, draws - done)
            hits += int(np.count_nonzero(rng.choice(n, size=size, p=dist) == i))
    return hits / shots


@dataclass(frozen=True)
class IncompleteBounds:
    """Lower and upper bounds on the N-state success probability.

    ``assignments`` records, per completion direction (one entry for the
    projector), which residual claimed it: the lowest index within TIE_TOL
    of the largest overlap, which ``overlaps`` holds. ``in_range`` flags
    whether N sits in the locally indistinguishable regime d+1 <= N <= d^2
    the bounds are framed for.
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
    _check_strategy(strategy)
    outcomes = _outcome_matrix(basis, spec, n_states)
    return _bounds(outcomes, spec.dim, fef(spec), strategy)


def incomplete_bounds_sweep(
    run: ProtocolRun, strategy: str = "completion"
) -> tuple[IncompleteBounds, ...]:
    """``incomplete_bounds`` for every N from d + 1 to d^2, in that order.

    Row i of the outcome matrix depends only on residual i, so the run's
    matrix for the whole basis serves every N: the first N states read its
    first N rows.
    """
    _check_strategy(strategy)
    d = run.dim
    return tuple(
        _bounds(run.outcomes[:n], d, run.expected, strategy) for n in range(d + 1, d * d + 1)
    )


def _check_strategy(strategy: str) -> None:
    if strategy not in ("completion", "projector"):
        raise ValueError(f"unknown strategy {strategy!r}")


def _bounds(outcomes: np.ndarray, d: int, fef_value: float, strategy: str) -> IncompleteBounds:
    """The bounds of ``incomplete_bounds`` from the outcome rows of the N residuals."""
    n_states = len(outcomes)
    # One column per completion outcome, one row per residual that may claim it.
    scores = outcomes[:, n_states:]
    if strategy == "projector":
        scores = scores.sum(axis=1, keepdims=True)
    best = scores.max(axis=0)
    assignments = np.argmax(scores >= best - TIE_TOL, axis=0)
    overlaps = [float(m) for m in best]

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
