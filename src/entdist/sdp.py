"""Primal PPT discrimination program and the certificate sandwich.

The primal is solved by a three-block consensus splitting: one block keeps
the measurement operators summing to the identity, one keeps each operator
PSD, one keeps each partial transpose PSD, and a consensus variable ties
them together while the linear objective drives the ascent. All projections
are exact (the affine step is a closed-form mean shift, the cone steps are
eigenvalue clips, and partial transposition is a Frobenius isometry so
transpose-clip-transpose projects onto the PPT cone). The iteration is
deterministic: fixed initialization, fixed summation order, no randomness.

A complete basis (N = d²) is solved in the commutant of its symmetries.
State k is W_k (Φ_0 ⊗ τ) W_k†, with W_k the k-th basis unitary on B1 and
Φ_0 the maximally entangled projector on A1B1. Summing W_k M W_k† over a
trace-orthogonal basis of d² unitaries gives d Tr_B1(M) ⊗ I_B1, and the
cone clips commute with W_k, so from the covariant start every iterate
keeps P_k = W_k P_0 W_k†. U ⊗ Ū on A1B1 fixes Φ_0, commutes with that
twirl and maps the PPT cone onto itself, so P_0 also stays in its
commutant: P_0 = Φ_0 ⊗ X + (I − Φ_0) ⊗ Y with X and Y on A2B2 (Rains,
IEEE TIT 2001; Gatermann and Parrilo, JPAA 2004). T_A1 Φ_0 = S/d, with S
the swap of A1 and B1, so T_A P_0 = Π_sym ⊗ M_s + Π_anti ⊗ M_a with
M_s = (X^Γ + (d−1) Y^Γ)/d and M_a = (−X^Γ + (d+1) Y^Γ)/d, where Γ
transposes A2; Y^Γ = (M_s + M_a)/2 and X^Γ = ((d+1) M_s − (d−1) M_a)/2
map back. The twirl of P_0 is I ⊗ (X + (d²−1) Y).

τ = Σ a_i |ii⟩ is fixed by the phases e^{iθ_i} on A2 and e^{−iθ_i} on B2,
which commute with every step of the loop, so X and Y stay in their
commutant too: a d × d block on span{|ii⟩} and one scalar on each |ij⟩,
i ≠ j. τ is real, so both stay real. The loop carries each of X and Y as
two real d × d arrays, P[i, j] = X[ij, ij] and Q[i, j] = X[ii, jj] for
i ≠ j with Q[i, i] = 0, and works on them entry by entry:

- PSD: X ⪰ 0 exactly when its block B = Q + diag(P) is PSD and P[i, j] ≥ 0
  for i ≠ j: one eigh of the (2, d, d) stack of blocks and a clip at 0.
- PPT: Γ moves X[ii, jj] to |ji⟩⟨ij|, so X^Γ, Y^Γ, M_s and M_a are the
  scalars P[i, i] on |ii⟩ and the 2 × 2 blocks [[P_ij, Q_ij], [Q_ij, P_ji]]
  on {|ij⟩, |ji⟩}. Swapping the parties (A1A2 ↔ B1B2) fixes Φ_0 ⊗ τ, the
  start, the drive, the affine set and both cones (T_B = T ∘ T_A), so
  every iterate has P = Pᵀ and each block is [[p, q], [q, p]], with the
  eigenvectors (|ij⟩ ± |ji⟩)/√2 and the eigenvalues p ± q. The clip maps
  the (P, Q) of (X, Y) to them by mix ⊗ [[1, 1], [1, −1]], where
  mix = [[1, d−1], [−1, d+1]]/d gives (M_s, M_a), clips at 0 and maps back
  by mix⁻¹ ⊗ [[1, 1], [1, −1]]/2; the scalars are the diagonal, Q = 0.
- Affine: with E = X + (d²−1) Y − I, X and Y both shift by E/d², one
  2 × 2 map on (X, Y) plus a constant, and the primal residual is d·‖E‖_F.
- Objective: Σ_k Tr(Φ_k P_k)/d² = Tr(τ X) = Σ a_i a_j B[i, j].

The twirl identity holds for every trace-orthogonal basis, which starts at
the identity, so the complete program depends only on d and the spectrum.

The loop is a fixed-point iteration s → f(s) on the state s = (z, duals),
and each iteration extrapolates by a type-II Anderson step of memory 2
(Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30, 2020): with g = f(s) − s,
s ← f(s) − Σ_j γ_j Δf_j, where γ least-squares fits g by the last two
differences Δg_j. The fit uses the Frobenius norm of the full space: for
the pair that is ‖X‖² + (d² − 1)‖Y‖² per operator, so on the (P, Q)
arrays every entry of Y weighs d² − 1 and every entry of X one, and the
operator-by-operator solve, the solve on the sectors and a dense solve on
(X, Y) take the same steps. The step is safeguarded: its memory restarts
when ‖g‖ grows, and it is taken only when the fit removes a tenth of ‖g‖²
and the step is at most 10‖g‖ long; otherwise the iteration takes the
plain step f(s). The stop test reads f(s): the primal residual, the cone
violation and the spread of the three blocks about z, all in the
full-space norm, the objective change over the stall window and, for a
complete program, the ADMM dual residual √3·‖z' − z‖/STEP. Near the
optimum a complete program can drift for thousands of iterations with its
objective rising by less than the accuracy per window, and the dual
residual holds it until the drift ends. On a subset the dual residual
falls slowly after the value has settled (d = 3, N = 5: 1.6e-3 at 175
iterations and 2.0e-4 at 2,475, with the value 3e-5 from where it ends
at 5,350), so there it is reported but not waited on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .certificate import DualCertificate, FeasibilityReport, build_certificate, verify_dual_feasibility
from .measures import fef
from .protocol import incomplete_bounds, protocol_success
from .states import (
    Ensemble,
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    four_factor_layout,
)
from .tensor import SubsystemLayout, psd_clip, transpose_party_a

DEFAULT_ACCURACY = 1e-4
DEFAULT_MAX_ITERS = 50000
# Penalty step of the three-way consensus splitting.
STEP = 0.5

# Averages the three blocks of the splitting.
_MEAN = np.full((1, 3), 1.0 / 3.0)

# The Anderson step (``_consensus``). Restart its memory when |g|² grows by
# more than _GROWTH; forget a difference with |Δg|² ≤ _ROUNDING |g|²; step
# only when the fit removes at least _MIN_FIT of |g|², when the step is at
# most _MAX_STEP |g| long, and while |g|² > _FLOOR max(|s|², 1), with |s|²
# read at the last check. A step the fit explains less is set by
# rounding-level structure of g and turns differences of 1e-16 between
# two coordinates of one program into differences of 1e-8.
_GROWTH = 1.0 + 1e-8
_ROUNDING = 1e-12
_MIN_FIT = 0.1
_MAX_STEP = 10.0
_FLOOR = 1e-26

_CHECK_EVERY = 25
_TRACE_EVERY = 100
# The stop test reads the objective change since the previous check. On a
# complete program the dual residual catches the slow drift a longer window
# used to wait out; on a subset the primal and consensus residuals bind
# later than either window.
_STALL_WINDOW = 25


def is_covariant(dim: int, n_states: int) -> bool:
    """Whether the first n_states states of a basis are solved on the pair (X, Y).

    Only the complete set of d² states is covariant; a subset breaks the orbit.
    """
    return n_states == dim * dim


@dataclass(frozen=True)
class SDPProblem:
    """Discrimination instance: states, priors, cut, and solver options.

    ``resource``, given in place of states, poses the complete program: the
    d² states of any complete basis on that resource, with uniform priors,
    solved on the pair (X, Y) of the module docstring.
    """

    states: np.ndarray
    priors: tuple[float, ...]
    layout: SubsystemLayout
    accuracy: float = DEFAULT_ACCURACY
    max_iters: int = DEFAULT_MAX_ITERS
    resource: ResourceSpectrum | None = None

    def __post_init__(self):
        priors = tuple(float(p) for p in self.priors)
        object.__setattr__(self, "priors", priors)
        accuracy, max_iters = self.accuracy, self.max_iters
        if not (isinstance(accuracy, Real) and math.isfinite(accuracy) and accuracy > 0):
            raise ValueError(f"accuracy must be finite and positive, got {accuracy!r}")
        if isinstance(max_iters, bool) or not isinstance(max_iters, Integral) or max_iters < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
        if self.resource is not None:
            if len(self.states) or priors or self.layout != four_factor_layout(self.resource.dim):
                raise ValueError(
                    "a complete program takes a resource in place of states and "
                    f"the A1,A2,B1,B2 layout of dimension {self.resource.dim}"
                )
            return
        if len(self.states) != len(priors) or not priors:
            raise ValueError("need one prior per state and at least one state")
        if abs(sum(priors) - 1.0) > 1e-12 or any(p < 0 for p in priors):
            raise ValueError(f"priors must form a probability vector, got {priors}")
        states = self.layout.stack(self.states, 2)
        object.__setattr__(self, "states", states)
        off_trace = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0) > 1e-10
        bad = np.flatnonzero(off_trace | (np.linalg.eigvalsh(states)[:, 0] < -1e-10))
        if bad.size:
            i = bad[0]
            if off_trace[i]:
                raise ValueError(f"state {i} does not have unit trace")
            raise ValueError(f"state {i} is not positive semidefinite")

    @classmethod
    def from_ensemble(cls, ens: Ensemble, **options) -> "SDPProblem":
        """The program for an ensemble, solved operator by operator."""
        return cls(
            states=ens.density_operators(),
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
        """The program for the first n_states basis states (all d² by default).

        The complete program builds no state: it depends on d and the spectrum.
        """
        n = len(basis) if n_states is None else n_states
        if is_covariant(basis.dim, n):
            layout = four_factor_layout(basis.dim)
            return cls(states=(), priors=(), layout=layout, resource=spec, **options)
        return cls.from_ensemble(build_ensemble(basis, spec, n), **options)


@dataclass(frozen=True)
class SDPResult:
    """Solver output; residuals describe the returned operators.

    For a program posed by states, ``operators`` holds the n operators P_k.
    For a complete program it holds the real pair (X, Y), from which
    P_k = W_k (Φ_0 ⊗ X + (I − Φ_0) ⊗ Y) W_k† for any complete basis.
    """

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


class _Coordinates:
    """How the consensus loop reads its stack of iterated matrices.

    The loop starts from ``start()``; ``cost`` drives the stack and the
    objective counts it ``multiplicity`` times; the measurement has ``n``
    operators. ``deviation`` is the defect of the measurement's sum from the
    identity. ``metric`` weighs the squared entries of a stack, and ``weight``
    times the weighted norm is the Frobenius norm on the full space.
    ``to_blocks`` maps the stack onto matrices that are all PSD exactly
    when every partial transpose is, and ``from_blocks`` maps them back.
    ``operators`` gives the matrices a result returns. ``dual_stop`` says
    whether the stop test reads the dual residual (``_consensus``).
    """

    metric = 1.0
    dual_stop = True

    def start(self) -> np.ndarray:
        return np.stack([np.eye(self.cost.shape[1], dtype=complex) / self.n] * len(self.cost))

    def affine(self, stack: np.ndarray) -> np.ndarray:
        """Shift the stack so the n operators of the measurement sum to the identity."""
        return stack - self.deviation(stack)[None] / self.n

    def psd_clip(self, stack: np.ndarray) -> np.ndarray:
        return psd_clip(stack)

    def ppt_clip(self, stack: np.ndarray) -> np.ndarray:
        return self.from_blocks(psd_clip(self.to_blocks(stack)))

    def objective(self, stack: np.ndarray) -> float:
        return self.multiplicity * float(np.einsum("kij,kji->", self.cost, stack).real)

    def cone_min(self, stack: np.ndarray) -> float:
        """The smallest eigenvalue of any iterated matrix or partial transpose."""
        return min(
            float(np.linalg.eigvalsh(stack).min()),
            float(np.linalg.eigvalsh(self.to_blocks(stack)).min()),
        )

    def residuals(self, stack: np.ndarray) -> tuple[float, float]:
        primal = self.weight * float(np.linalg.norm(self.deviation(stack)))
        return primal, min(0.0, self.cone_min(stack))

    def operators(self, stack: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(stack)


class _Operators(_Coordinates):
    """A program posed by states, iterated on every operator P_k."""

    multiplicity = 1
    weight = 1.0

    def __init__(self, problem: SDPProblem):
        self.layout = problem.layout
        self.cost = np.asarray(problem.priors)[:, None, None] * problem.states
        self.n = len(self.cost)
        # A complete basis: d² states on the d⁴-dimensional space.
        self.dual_stop = self.n**2 == self.layout.dim

    def deviation(self, stack: np.ndarray) -> np.ndarray:
        return stack.sum(axis=0) - np.eye(stack.shape[1])

    def to_blocks(self, stack: np.ndarray) -> np.ndarray:
        return transpose_party_a(stack, self.layout)

    from_blocks = to_blocks


class _Sectors(_Coordinates):
    """The complete program on the (P, Q) arrays of X and Y (module docstring).

    The stack is (2, 2, d, d): stack[0] = (P, Q) of X, stack[1] that of Y.
    """

    def __init__(self, spec: ResourceSpectrum):
        d = self.d = spec.dim
        n = self.n = d * d
        self.weight = float(d)
        # ‖P_0‖² = ‖X‖² + (d² − 1)‖Y‖², and P_k is P_0 conjugated by a unitary.
        self.metric = np.array([1.0, n - 1.0]).reshape(2, 1, 1, 1)
        self.a = np.asarray(spec.coeffs, dtype=float)
        self.eye = np.eye(d)
        self.off = self.eye == 0
        # The identity on A2B2: every P is 1, every Q is 0.
        self.unit = np.stack([np.ones((d, d)), np.zeros((d, d))])
        # B = Q + diag(P) scattered back: its diagonal to P, the rest to Q.
        self.split = np.stack([self.eye, self.off])
        # The affine step (X, Y) -= E/n as a map on (X, Y) plus a constant.
        self.shift = np.eye(2) - np.array([[1.0, n - 1.0]] * 2) / n
        self.offset = self.start()
        # (X, Y) → (M_s, M_a) entry by entry, then (P, Q) → (P + Q, P − Q),
        # the eigenvalues of the 2 × 2 blocks; and back.
        mix = np.array([[1.0, d - 1.0], [-1.0, d + 1.0]]) / d
        unmix = np.array([[d + 1.0, 1.0 - d], [1.0, 1.0]]) / 2
        signs = np.array([[1.0, 1.0], [1.0, -1.0]])
        self.to_ppt = np.einsum("ij,kl->ikjl", mix, signs).reshape(4, 4)
        self.from_ppt = np.einsum("ij,kl->ikjl", unmix, signs / 2).reshape(4, 4)
        tau = np.outer(self.a, self.a) / n
        self.cost = np.stack([np.stack([tau * self.eye, tau * self.off]), np.zeros((2, d, d))])

    def start(self) -> np.ndarray:
        return np.stack([self.unit, self.unit]) / self.n

    def deviation(self, stack: np.ndarray) -> np.ndarray:
        return stack[0] + (self.n - 1) * stack[1] - self.unit

    def affine(self, stack: np.ndarray) -> np.ndarray:
        return (self.shift @ stack.reshape(2, -1)).reshape(stack.shape) + self.offset

    def _blocks(self, stack: np.ndarray) -> np.ndarray:
        """B = Q + diag(P), the blocks of X and Y on span{|ii⟩}."""
        return stack[:, 1] + stack[:, 0] * self.eye

    def _ppt_eigenvalues(self, stack: np.ndarray) -> np.ndarray:
        """Rows P ± Q of M_s, then of M_a: the eigenvalues of every 2 × 2 block."""
        return self.to_ppt @ stack.reshape(4, -1)

    def objective(self, stack: np.ndarray) -> float:
        return float(self.a @ self._blocks(stack)[0] @ self.a)

    def psd_clip(self, stack: np.ndarray) -> np.ndarray:
        out = psd_clip(self._blocks(stack))[:, None] * self.split
        np.maximum(stack[:, 0], 0.0, out=out[:, 0], where=self.off)
        return out

    def ppt_clip(self, stack: np.ndarray) -> np.ndarray:
        clipped = np.maximum(self._ppt_eigenvalues(stack), 0.0)
        return (self.from_ppt @ clipped).reshape(stack.shape)

    def cone_min(self, stack: np.ndarray) -> float:
        return min(
            float(np.linalg.eigvalsh(self._blocks(stack)).min()),
            float(stack[:, 0][:, self.off].min()),
            float(self._ppt_eigenvalues(stack).min()),
        )

    def operators(self, stack: np.ndarray) -> tuple[np.ndarray, ...]:
        """The dense pair (X, Y) on A2B2, with |ij⟩ at index i·d + j."""
        d, n = self.d, self.n
        dense = np.zeros((2, n, n))
        ii = np.arange(d) * (d + 1)
        dense[:, ii[:, None], ii] = stack[:, 1]
        dense[:, np.arange(n), np.arange(n)] = stack[:, 0].reshape(2, n)
        return tuple(dense)


def solve_primal_ppt(problem: SDPProblem) -> SDPResult:
    """Maximize sum_i p_i <Phi_i|P_i|Phi_i> over PPT measurements.

    Runs the Anderson-accelerated consensus splitting until max(primal
    residual, cone violation, consensus residual, relative objective change
    over the stall window and, for a complete program, the ADMM dual
    residual) drops below the target accuracy, checking every few
    iterations; hitting the iteration cap returns the last iterate with
    converged=False rather than raising. A complete program runs the same
    iterations on the (P, Q) arrays of X and Y.
    """
    coords = _Operators(problem) if problem.resource is None else _Sectors(problem.resource)
    return _consensus(coords, problem.accuracy, problem.max_iters)


def _map(coords: _Coordinates, s: np.ndarray, out: np.ndarray, drive: np.ndarray) -> None:
    """One plain step of the splitting from the state s = (z, three duals) into ``out``.

    The projections x_i of z − dual_i land in out[1:], then z' = mean(x +
    duals) + drive and dual_i' = x_i + dual_i − z'.
    """
    z, duals, x = s[0], s[1:], out[1:]
    np.subtract(z, duals, out=x)
    x[0] = coords.affine(x[0])
    x[1] = coords.psd_clip(x[1])
    x[2] = coords.ppt_clip(x[2])
    x += duals
    np.matmul(_MEAN, x.reshape(3, -1), out=out[0].reshape(1, -1))
    out[0] += drive
    x -= out[0]


def _consensus(coords: _Coordinates, accuracy: float, max_iters: int) -> SDPResult:
    """The consensus splitting of ``solve_primal_ppt`` in the given coordinates.

    The state s stacks z and the three duals, and the plain step is the map
    s → f(s) of ``_map``. Each iteration evaluates f once and takes a type-II
    Anderson step of memory 2 (Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30,
    2020) on the residual g = f(s) − s: s ← f(s) − Σ_j γ_j Δf_j, where γ fits
    g by the last differences Δg_j in the full-space Frobenius norm, so every
    set of coordinates of one program takes the same steps. Every check reads
    f(s), the operators the solve returns.
    """
    # The state (z, three duals) starts at z = start() with zero duals; f
    # holds its image under the map.
    s = np.stack([coords.start()] * 4)
    s[1:] = 0.0
    f = np.empty_like(s)
    # Both as real arrays (complex entries as pairs), flat and shaped.
    s_flat, f_flat = s.reshape(-1).view(float), f.reshape(-1).view(float)
    s_real = s.view(float)
    # The rows one product reads: Δg of the two history slots, g, and Δf of
    # the two slots, each times the square root of the metric, so that the
    # plain inner product of two rows is the weighted one.
    window = np.zeros((5, s_flat.size))
    g, diffs = window[2], window[3:]
    shaped = window.reshape(5, *s_real.shape)
    root = np.sqrt(coords.metric)
    coeffs = np.zeros(2)
    drive = coords.cost / (3.0 * STEP)
    scale = coords.weight**2
    quarter = s_flat.size // 4

    history: list[float] = []
    trace: list[dict] = []
    memory: list[int] = []
    gg_prev = np.inf
    s_square = scale * float(np.vdot(s_real, s_real * coords.metric))

    for it in range(1, max_iters + 1):
        if it > 1:
            # Δg and Δf go to a free slot or the older one, which takes −g
            # and −f before the map overwrites them and adds the new ones.
            slot = memory[0] if len(memory) == 2 else 1 - memory[0] if memory else 0
            np.negative(g, out=window[slot])
            np.negative(f_flat, out=diffs[slot])
        _map(coords, s, f, drive)
        np.subtract(f_flat, s_flat, out=g)
        shaped[2] *= root
        if it > 1:
            window[slot] += g
            diffs[slot] += f_flat
            shaped[3 + slot] *= root
            memory = [j for j in memory if j != slot] + [slot]
        gram = (window @ window.T).tolist()
        gg = gram[2][2]

        if it % _CHECK_EVERY == 0 or it == max_iters:
            obj = coords.objective(f[0])
            primal_res, cone_res = coords.residuals(f[0])
            # The ADMM dual residual and the spread of the blocks about z.
            dual_res = math.sqrt(3.0 * scale * float(g[:quarter] @ g[:quarter])) / STEP
            consensus_res = math.sqrt(scale * float(g[quarter:] @ g[quarter:]))
            f_real = f.view(float)
            s_square = scale * float(np.vdot(f_real, f_real * coords.metric))
            history.append(obj)
            lag = _STALL_WINDOW // _CHECK_EVERY
            if len(history) > lag:
                change = abs(obj - history[-1 - lag]) / max(1.0, abs(obj))
            else:
                change = np.inf
            row = {
                "iteration": it,
                "objective": obj,
                "primal_residual": primal_res,
                "cone_residual": cone_res,
                "dual_residual": dual_res,
                "consensus_residual": consensus_res,
            }
            stop = [primal_res, -cone_res, change, consensus_res]
            if coords.dual_stop:
                stop.append(dual_res)
            converged = max(stop) < accuracy
            if it % _TRACE_EVERY == 0 or converged or it == max_iters:
                trace.append(row)
            if converged or it == max_iters:
                break

        if gg > _GROWTH * gg_prev:
            memory = []
        memory = [j for j in memory if gram[j][j] > _ROUNDING * gg]
        gg_prev = gg
        if memory and scale * gg > _FLOOR * max(s_square, 1.0):
            c0, c1 = _anderson_weights(gram, memory)
            # |g − Σ γ_j Δg_j|², the residual the fit predicts.
            if gg - c0 * gram[0][2] - c1 * gram[1][2] <= (1.0 - _MIN_FIT) * gg:
                # |s' − s|² = |g − Σ γ_j Δf_j|².
                step = (
                    gg
                    - 2.0 * (c0 * gram[3][2] + c1 * gram[4][2])
                    + c0 * c0 * gram[3][3]
                    + 2.0 * c0 * c1 * gram[3][4]
                    + c1 * c1 * gram[4][4]
                )
                if step <= _MAX_STEP**2 * gg:
                    coeffs[0], coeffs[1] = c0, c1
                    np.dot(coeffs, diffs, out=s_flat)
                    s_real /= root
                    np.subtract(f_flat, s_flat, out=s_flat)
                    continue
                memory = []
        s[...] = f

    z = f[0].copy()
    rounded = coords.ppt_clip(coords.psd_clip(coords.affine(z)))
    return SDPResult(
        primal_value=obj,
        rounded_value=coords.objective(rounded),
        operators=coords.operators(z),
        primal_residual=primal_res,
        cone_residual=cone_res,
        iterations=it,
        converged=converged,
        trace=tuple(trace),
    )


def _anderson_weights(gram: list[list[float]], memory: list[int]) -> tuple[float, float]:
    """γ minimising |g − Σ_j γ_j Δg_j| over the slots in memory, one γ per slot.

    ``gram`` holds the inner products of Δg_0, Δg_1 and g, in that order; a
    slot out of memory gets γ = 0. Solves the 1 × 1 or 2 × 2 normal
    equations on floats; two differences parallel to rounding level leave
    the newer one.
    """
    gamma = [0.0, 0.0]
    if len(memory) == 2:
        j, k = memory
        a, b, c = gram[j][j], gram[j][k], gram[k][k]
        det = a * c - b * b
        if det > _ROUNDING * a * c:
            rj, rk = gram[j][2], gram[k][2]
            gamma[j], gamma[k] = (c * rj - b * rk) / det, (a * rk - b * rj) / det
            return gamma[0], gamma[1]
    j = memory[-1]
    gamma[j] = gram[j][2] / gram[j][j]
    return gamma[0], gamma[1]


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
    feas = verify_dual_feasibility(cert, ens, tol)
    upper_unclipped = dual_bound_from_certificate(cert, ens, tol, report=feas)
    upper = min(1.0, upper_unclipped)

    if n_states == d * d:
        lower = protocol_success(basis, spec)
    else:
        lower = incomplete_bounds(basis, spec, n_states, strategy=strategy).lower

    result = solve_primal_ppt(
        SDPProblem.from_basis(basis, spec, n_states, accuracy=accuracy, max_iters=max_iters)
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
