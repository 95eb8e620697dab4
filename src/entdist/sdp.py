"""Primal PPT discrimination program and the certificate sandwich.

``solve_primal_ppt(basis, spec, n_states)`` poses the program for the first
N states of a maximally entangled basis on a pure resource, with uniform
priors, and picks its coordinates: the complete program (N = d²) runs on
the Schmidt sectors below, builds no state and returns the (P, Q) arrays
of its last iterate, and a subset runs operator by operator on the density
operators of its ensemble. ``solve_bytes`` estimates what either keeps in
memory.

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

Every step of the loop but the eigh is linear on the rows (X_P, X_Q, Y_P,
Y_Q) of z and the three duals u₁, u₂, u₃, so one iteration is two small
products on one work buffer around the clips. The buffer's 32 rows, each
of d² entries, are the state s = (z, u₁, u₂, u₃) (16 rows), a row of ones,
the drive's rows X_P and X_Q (it has no Y part), the 12 rows x of the
projections and a row whose first 2d entries take the blocks'
eigenvalues, so each product reads one slice of it and every constant is
a column of its matrix:

- The first, 12 × 17, reads s and the ones and writes x: the affine
  projection of z − u₁ with its constant, the PSD input z − u₂ in the rows
  (Q_X, Q_Y, P_X, P_Y) and the PPT eigenvalues of z − u₃.
- Q's diagonal is zero, so trading the diagonals of the Q and P rows puts
  the blocks B in the Q rows. One eigh of the (2, d, d) blocks writes
  their eigenvalues into the last row, one clip at 0 serves the P rows,
  the PPT eigenvalues and that row together, the blocks are rebuilt from
  the clipped eigenvalues, and the trade back moves their diagonal to P.
- The second, 32 × 31, reads the first 31 rows, all but the eigenvalues,
  and writes f(s), the next z = mean(x + u) + drive and duals x + u − z,
  together with g = f(s) − s, the residual the Anderson step reads. (A
  product over all 32 rows, with a zero column for the last, sums in
  another order and moves the last bits of the iterates.)

Both products, the bracket's two (below), the maps shift, to_ppt and
from_ppt and every other constant of the sectors depend only on d:
``_sector_maps`` builds them once per d, read-only, for every solve at d.

The eigh is one call of ``eigh_lo``, the gufunc ``np.linalg.eigh`` wraps,
into the buffer's last row and a preallocated eigenvector buffer: on
blocks this small the wrapper's checks, conversions and error-state switch
cost more than LAPACK (at d = 3 ``np.linalg.eigh`` takes about 8 µs a
call, the gufunc 3.5 µs). The convergence checks' eigenvalues and the
final rounding's clip call the same gufuncs (``eigvalsh_lo`` and
``eigh_lo``). The wrapper's error state turns a failed decomposition into
LinAlgError;
``_consensus`` enters it once per solve, around the whole loop and the
rounding, so a failed eigensolver or a NaN the loop makes still raises
LinAlgError, and the caller's error state comes back on return and on
raise. A NaN that no eigensolver reads (one off the blocks' diagonal)
reaches the objective, and a check that reads a non-finite objective or
residual raises LinAlgError too.

The twirl identity holds for every trace-orthogonal basis, which starts at
the identity, so the complete program depends only on d and the spectrum.

The penalty ρ of the splitting is STEP times the full-space Frobenius norm
of the cost stack, ``weight`` · √(Σ metric·|cost|²): 1/d for a complete
program and 1/√N for N pure states with uniform priors. Every set of
coordinates of one program computes the same ρ. The drive cost/(3ρ) then
keeps its strength against the penalty as d grows; ADMM's rate depends on
that ratio (Boyd et al. 2011, §3.4.1).

The loop is a fixed-point iteration s → f(s) on the state s = (z, duals),
and each iteration extrapolates by a type-II Anderson step of memory 2
(Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30, 2020): with g = f(s) − s,
s ← f(s) − Σ_j γ_j Δf_j, where γ least-squares fits g by the last two
differences Δg_j. The fit uses the Frobenius norm of the full space: for
the pair that is ‖X‖² + (d² − 1)‖Y‖² per operator, so on the (P, Q)
arrays every entry of Y weighs d² − 1 and every entry of X one, and the
operator-by-operator solve, the solve on the sectors and a dense solve on
(X, Y) take the same steps. The loop carries the state with every entry
of Y times √(d² − 1), so the fit reads plain inner products. The step is
safeguarded: its memory restarts when ‖g‖ grows, and it is taken only
when the fit removes a tenth of ‖g‖² and the step is at most 10‖g‖ long;
otherwise the iteration takes the plain step f(s). The memory is two
slots of differences, held as two flags with the index of the slot the
newest difference went to: a difference at rounding level is forgotten,
a new one goes to the slot that does not hold the later of the held
differences (the newest, or the older when the newest was forgotten),
and the 1 × 1 or 2 × 2 fit is solved inline on the Gram matrix's floats.

The stop test reads f(s): the primal residual, the cone violation and the
spread of the three blocks about z, all in the full-space norm, and then,
for a complete program, a certified bracket [lower, upper] on its optimum
(``bracket``) and, for a subset, the objective change since the previous
check. Every check reports the ADMM dual residual √3·‖z' − z‖/ρ, but no
stop test waits on it. The bracket holds a feasible point of each program:

- Upper: the consensus multipliers give a dual point (O'Donoghue, Chu,
  Parikh and Boyd, JOTA 169, 2016). y_i = ρ·(proj_i(z − u_i) − (z − u_i))
  lies in the dual cone of block i by construction, and at a fixed point
  C_k + y₂,k + y₃,k is one operator M for every k. Take M₀ = I ⊗ μ₀, the
  twirl average of C + y₂ + y₃ (on the sectors μ₀ = (X-part + (d² − 1)
  Y-part)/d²), and shift it by εI with ε = max(0, λ_max(C_X + y₃,X − μ₀),
  λ_max(y₃,Y − μ₀)), as Jansson, Chaykin and Keil (SIAM J. Numer. Anal. 46,
  2007) size a shift by eigenvalue bounds: then M₀ + εI − C_k − y₃,k is
  PSD and y₃,k is the partial transpose of a PSD operator, so
  Tr(M₀ + εI) = d²·Tr μ₀ + d⁴ε bounds the optimum from above.
- Lower: the PSD clip v of z, shifted by δ(I, I) until its partial
  transpose is PSD, mixed to v/c + (I − S/c)/d² with S = Σ_k v_k and
  c = max(λ_max S, λ_max S^Γ): every term is PSD and PPT and the terms
  sum to I, so its objective bounds the optimum from below. The point is
  the affine projection of v/c.

Each eigenvalue the bracket reads moves by a margin for eigensolver
rounding, ``_MARGIN`` times its operators' scale, so a bracket from dense
eigensolvers and one from the sectors agree far inside 1e-10. On the
sectors it is two products around one eigh of the four d × d blocks of
z − u₂ and z and one eigvalsh of three (``_bracket_products``), about
40 µs at d = 2, 3, a few iterations' worth.

A complete program stops once its residuals pass and upper − lower ≤
accuracy. The bracket is computed only at checks whose residuals pass,
and at the last iterate, so a capped solve reports one too. At d = 12 and
the random spectrum of seed 0 the residuals pass at iteration 750 with
the value 4.9e-5 below the optimum, the gap reads 0.56, and it holds the
solve to 825. The first check reads no residuals unless it is the last or
a trace row is due: a subset has no earlier objective to compare there,
and no complete program's residuals have passed there at the default
accuracy (d = 2…16 at the uniform and random spectra; at accuracy 1e-2
one of nine small solves would stop there). A subset keeps the stall
test. Its dual residual falls slowly after the value has settled (d = 3,
N = 5: 1.9e-3 at 125 iterations, with the value 1.5e-5 from where it ends
at 9,550), so a gap there would wait as long until the penalty adapts
(ROADMAP item 4), and N < d² operators have no twirl average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral, Real

import numpy as np
from numpy.linalg import _umath_linalg

from .certificate import FeasibilityReport, build_certificate, verify_dual_feasibility
from .measures import fef
from .protocol import incomplete_bounds, simulate_protocol
from .states import MaxEntBasis, ResourceSpectrum, build_ensemble, problem_size
from .tensor import psd_clip

DEFAULT_ACCURACY = 1e-4
DEFAULT_MAX_ITERS = 50000
# The penalty of the three-way consensus splitting is STEP times the
# full-space Frobenius norm of the cost (``_Coordinates.penalty``), so it
# shrinks with the cost: 1/d for a complete program and 1/√N for N pure
# states with uniform priors. A scale of 0.2 cut the complete solves at
# d = 2…16 (random spectra of seeds 0–5) from 16,625 to 10,250 iterations,
# but took the d = 3 subsets N = 4…8 near the spectrum (0.6, 0.3, 0.1)
# from 1,050 to 1,400.
STEP = 0.5

# The gufuncs ``np.linalg.eigh`` and ``np.linalg.eigvalsh`` wrap (lower
# triangle), which ``_Sectors`` calls directly (module docstring).
_EIGH = _umath_linalg.eigh_lo
_EIGVALSH = _umath_linalg.eigvalsh_lo


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _require_finite(*values: float) -> None:
    """Raise LinAlgError unless every value a check reads is finite."""
    if not all(map(math.isfinite, values)):
        raise np.linalg.LinAlgError(f"a convergence check read a non-finite value: {values}")


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

# A subset's stop test reads the objective change since the previous check;
# its primal and consensus residuals bind later than a longer window would.
# A complete program stops on the certified gap instead.
_CHECK_EVERY = 25
_TRACE_EVERY = 100
# The bracket's margin for eigensolver rounding (``_Sectors.bracket``):
# each extreme eigenvalue it reads moves outward by _MARGIN times the scale
# of its operators, 1 for the clipped measurement and its sum (about I) and
# 1/d² for the dual's, whose cost is τ/d².
_MARGIN = 1e-12

# Rows of d² floats (8 d² bytes each) a complete solve holds: its work
# buffer (32), the Anderson step's six rows of 16 (96), the bracket's work
# (27) and the temporaries of its checks and rounding. With the table of
# ``_sector_maps`` built in the solve, tracemalloc peaks at 202, 193 and
# 189 of them at d = 16, 32 and 64, the small arrays below included.
_SECTOR_ROWS = 208
# Bytes a complete solve holds besides them: its small fixed arrays and the
# table's products. They set the peak at small d: 33 kB at d = 2 and 48 kB
# at d = 4, where the rows count 7 kB and 27 kB.
_SECTOR_BYTES = 2**15
# Bytes of one row of a solve's trace, which gains a row every _TRACE_EVERY
# iterations and one at the end: a d = 2 solve capped at 50,000 iterations
# peaks at 228 kB in tracemalloc, 430 bytes for each of its 500 rows above
# the 13 kB of a solve that stops at iteration 50.
_TRACE_ROW_BYTES = 430
# Arrays of 16 d⁸ bytes per operator that an operator-by-operator solve
# holds: its state and cost, the Anderson step's six rows (the map's image
# among them), four arrays each, and the projections' temporaries;
# tracemalloc peaks at 37.0-38.3 of them at d = 2, 3.
_OPERATOR_ARRAYS = 39


def solve_bytes(dim: int, n_states: int, max_iters: int = DEFAULT_MAX_ITERS) -> int:
    """Estimated peak bytes of what ``solve_primal_ppt`` builds.

    The complete program (n_states = d²) holds a fixed number of rows of d²
    entries and some small arrays; a subset holds a fixed number of d⁴ × d⁴
    matrices per operator. Either holds the trace of a solve that runs to
    ``max_iters``. Neither counts the basis it is given.
    """
    trace = _TRACE_ROW_BYTES * (max_iters // _TRACE_EVERY + 1)
    if n_states == dim * dim:
        return 8 * dim**2 * _SECTOR_ROWS + _SECTOR_BYTES + trace
    return 16 * dim**8 * _OPERATOR_ARRAYS * n_states + trace


@dataclass(frozen=True)
class SDPResult:
    """Solver output; the residuals are those of the last iterate, which
    ``operators`` holds.

    For a subset of N states that is its N operators P_k. For a complete
    program it is the (P, Q) arrays of X and Y, two real (2, d, d) arrays
    (module docstring), from which P_k = W_k (Φ_0 ⊗ X + (I − Φ_0) ⊗ Y) W_k†
    for any complete basis.
    """

    primal_value: float
    rounded_value: float
    operators: tuple[np.ndarray, ...] = field(repr=False)
    primal_residual: float
    cone_residual: float
    iterations: int
    converged: bool
    lower_bound: float | None
    upper_bound: float | None
    trace: tuple[dict, ...]


class _Coordinates:
    """How the consensus loop reads its stack of iterated matrices.

    The loop starts from ``start()``; ``cost`` drives the stack and the
    objective reads it; the measurement has ``n`` operators. ``deviation``
    is the defect of the measurement's sum from the identity. ``metric``
    weighs the squared entries of a stack, and ``weight`` times the weighted
    norm is the Frobenius norm on the full space.
    ``to_blocks`` maps the stack onto matrices that are all PSD exactly
    when every partial transpose is, and ``from_blocks`` maps them back.
    ``gap_stop`` says whether the stop test reads the certified gap of
    ``bracket``, as a complete program's does (``_consensus``), and
    ``penalty`` is the ADMM penalty ρ of the module docstring.

    The loop iterates the state s = (z, three duals) held in ``state``,
    each stack times √metric (``root``), so that ``weight`` times its plain
    Euclidean norm is the full-space one; ``step(out)`` writes the residual
    g = f(s) − s and the image f(s) to out = (g, f), of ``image_shape``.
    """

    metric = 1.0

    @cached_property
    def root(self) -> np.ndarray:
        return np.sqrt(self.metric)

    @cached_property
    def state(self) -> np.ndarray:
        return np.empty((4, *self.cost.shape), dtype=complex)

    @cached_property
    def image_shape(self) -> tuple[int, ...]:
        return (2, *self.state.shape)

    @cached_property
    def penalty(self) -> float:
        """The ADMM penalty: ``STEP`` times the full-space Frobenius norm of the cost."""
        return STEP * self.weight * math.sqrt(float(np.sum(self.metric * np.abs(self.cost) ** 2)))

    @cached_property
    def drive(self) -> np.ndarray:
        return self.cost / (3.0 * self.penalty)

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
        return float(np.einsum("kij,kji->", self.cost, stack).real)

    def min_eigenvalue(self, stack: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(stack).min())

    def cone_min(self, stack: np.ndarray) -> float:
        """The smallest eigenvalue of any iterated matrix or partial transpose."""
        return min(self.min_eigenvalue(stack), self.min_eigenvalue(self.to_blocks(stack)))

    def residuals(self, stack: np.ndarray) -> tuple[float, float]:
        primal = self.weight * float(np.linalg.norm(self.deviation(stack)))
        return primal, min(0.0, self.cone_min(stack))


class _Operators(_Coordinates):
    """A program iterated on every operator P_k; ``cost`` stacks p_k ρ_k.

    ``solve_primal_ppt`` builds it only for a subset, which has no bracket.
    """

    weight = 1.0
    gap_stop = False

    def __init__(self, cost: np.ndarray):
        self.cost = cost
        self.n = len(cost)
        # Each operator acts on A1⊗A2⊗B1⊗B2, of dimension d⁴.
        self.d = math.isqrt(math.isqrt(cost.shape[1]))

    def deviation(self, stack: np.ndarray) -> np.ndarray:
        return stack.sum(axis=0) - np.eye(stack.shape[1])

    def step(self, out: np.ndarray) -> None:
        # The metric is 1, so the state needs no weighting.
        g, f = out
        _map(self, self.state, f, self.drive)
        np.subtract(f, self.state, out=g)

    def to_blocks(self, stack: np.ndarray) -> np.ndarray:
        """The partial transpose over A1A2: party A's row and column indices swap."""
        m = self.d**2
        return stack.reshape(-1, m, m, m, m).swapaxes(1, 3).reshape(stack.shape)

    from_blocks = to_blocks


# The clips' bound, an array so that ``step`` converts no scalar.
_ZERO = np.zeros(())
_SIGNS = ((1.0, 1.0), (1.0, -1.0))
_EYE4 = np.eye(4)
# Block i of the first product reads z − u_i.
_SELECT = np.hstack([np.ones((3, 1)), -np.eye(3)])
# The consensus update (z', u') from x + u of the three blocks.
_UPDATE = np.vstack([_MEAN, np.eye(3) - _MEAN])
# The second product's columns for s, the ones and the drive, which carry
# no constant: its rows f = (z', u') take u by the consensus update, z'
# takes the drive and each u' gives it back, and its rows g = f − s are the
# same less s.
_SECOND_HEAD = np.zeros((2, 16, 19))
_SECOND_HEAD[:, :, 4:16] = (_UPDATE[:, None, :, None] * _EYE4[None, :, None, :]).reshape(16, 12)
_SECOND_HEAD[:, ::4, 17] = _SECOND_HEAD[:, 1::4, 18] = [1.0, -1.0, -1.0, -1.0]
_SECOND_HEAD[0, :, :16] -= np.eye(16)
_SECOND_HEAD = _SECOND_HEAD.reshape(32, 19)


def _kron(m, k) -> np.ndarray:
    """The Kronecker product of two 2 × 2 matrices: entry (2i + p, 2j + q)
    is m[i, j] times k[p, q]."""
    return (np.asarray(m)[:, None, :, None] * np.asarray(k)[None, :, None, :]).reshape(4, 4)


@lru_cache
def _sector_maps(d: int) -> tuple[np.ndarray, ...]:
    """The constants of the complete program at d (module docstring),
    read-only and shared by every ``_Sectors`` at d, in the order
    ``_Sectors.__init__`` names them.
    """
    n = d * d
    r = math.sqrt(n - 1.0)
    # ‖P_0‖² = ‖X‖² + (d² − 1)‖Y‖², and P_k is P_0 conjugated by a unitary.
    metric = np.array([1.0, n - 1.0]).reshape(2, 1, 1, 1)
    root = np.array([1.0, r]).reshape(2, 1, 1, 1)
    eye = np.eye(d)
    off = eye == 0
    # B = Q + diag(P) scattered back: its diagonal to P, the rest to Q.
    split = np.array([eye, off])
    # The identity on A2B2: every P is 1, every Q is 0.
    unit = np.zeros((2, d, d))
    unit[0] = 1.0
    # The affine step (X, Y) -= E/n is the map shift on (X, Y) plus unit/n.
    shift = np.array([[1.0 - 1.0 / n, -(n - 1.0) / n], [-1.0 / n, 1.0 - (n - 1.0) / n]])
    # mix takes (X, Y) to (M_s, M_a) entry by entry, and to_ppt then
    # (P, Q) to (P + Q, P − Q), the eigenvalues of the 2 × 2 blocks;
    # unmix and from_ppt map back.
    to_ppt = _kron(np.array([[1.0, d - 1.0], [-1.0, d + 1.0]]) / d, _SIGNS)
    from_ppt = _kron(np.array([[d + 1.0, 1.0 - d], [1.0, 1.0]]) / 4, _SIGNS)

    # The weighted state carries the Y rows times r; the PSD input takes the
    # rows (Q_X, Q_Y, P_X, P_Y).
    weights, psd = np.array([1.0, 1.0, r, r]), _EYE4[[1, 3, 0, 2]]
    # The first product, 12 × 17, maps z − u_i to x_i: the affine map
    # (weighted in and out), and the PSD input and the PPT eigenvalues, both
    # unweighted.
    (s0, s1), (s2, s3) = shift.tolist()
    into = np.array(
        [_kron([[s0, s1 / r], [r * s2, s3]], np.eye(2)), psd / weights, to_ppt / weights]
    )
    first = np.zeros((12, 17))
    first[:, :16] = (into[:, :, None] * _SELECT[:, None, :, None]).reshape(12, 16)
    # The ones carry the affine constant unit/n to the rows X_P and Y_P.
    first[0, 16], first[2, 16] = 1.0 / n, r / n
    # The second, 32 × 31, maps x_i back to the weighted rows: the affine
    # projection as it is, the PSD and the PPT projections by psd's
    # transpose and by from_ppt, then weighted, and takes them by the
    # consensus update into both g and f.
    back = np.array([_EYE4, psd.T * weights[:, None], from_ppt * weights[:, None]])
    second = np.empty((32, 31))
    second[:, :19] = _SECOND_HEAD
    update = (_UPDATE[:, None, :, None] * back.swapaxes(0, 1)).reshape(16, 12)
    second[:16, 19:] = second[16:, 19:] = update

    maps = (
        metric, root, eye, off, split, unit, unit / n, shift, to_ppt, from_ppt,
        first, second, *_bracket_products(d, to_ppt, from_ppt),
    )
    for array in maps:
        array.flags.writeable = False
    return maps


def _bracket_products(
    d: int, to_ppt: np.ndarray, from_ppt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two products of ``_Sectors.bracket``, 12 × 16 and 13 × 14, for
    the table of ``_sector_maps``: they read its to_ppt and from_ppt, so the
    bracket maps to and from the PPT eigenvalues as ``_Sectors.step`` does.

    The first maps the weighted state (z, u₁, u₂, u₃) to the Q rows, then
    the P rows, of u₂ − z and of z, unweighted, and to the PPT eigenvalues
    of u₃ − z; the clips at 0 make them y₂/ρ, the clip v of z and the PPT
    eigenvalues of y₃/ρ. The second reads those 12 rows and C/ρ (X_P and
    X_Q) and writes the Q rows, then the P rows, of (C_X + y₃,X − μ₀)/ρ,
    (y₃,Y − μ₀)/ρ and S/d² = (v_X + (d² − 1) v_Y)/d², the rows P ± Q of
    S/d², the PPT eigenvalues of v and the P row of μ₀/ρ, μ₀ the twirl
    average of C + y₂ + y₃.
    """
    n = d * d
    # Rows X_P, X_Q, Y_P, Y_Q of z, u₂ and u₃, unweighted.
    r = math.sqrt(n - 1.0)
    z, u2, u3 = np.zeros((3, 4, 16))
    for rows, j in ((z, 0), (u2, 8), (u3, 12)):
        rows[:, j : j + 4] = np.diag([1.0, 1.0, 1.0 / r, 1.0 / r])
    psd = u2 - z
    first = np.vstack([psd[[1, 3]], z[[1, 3]], psd[[0, 2]], z[[0, 2]], to_ppt @ (u3 - z)])

    pick = np.eye(14)
    # Rows X_P, X_Q, Y_P, Y_Q of y₂/ρ, v and C/ρ.
    y2, v = pick[[4, 0, 5, 1]], pick[[6, 2, 7, 3]]
    cost = np.zeros((4, 14))
    cost[:2] = pick[12:14]
    y3 = from_ppt @ pick[8:12]
    dual = cost + y2 + y3
    mean = (dual[:2] + (n - 1) * dual[2:]) / n
    gap = cost + y3 - np.vstack([mean, mean])
    total = (v[:2] + (n - 1) * v[2:]) / n
    second = np.vstack([
        gap[1], gap[3], total[1], gap[0], gap[2], total[0],
        total[0] + total[1], total[0] - total[1], to_ppt @ v, mean[0],
    ])
    return first, second


class _Sectors(_Coordinates):
    """The complete program on the (P, Q) arrays of X and Y (module docstring).

    The stack is (2, 2, d, d): stack[0] = (P, Q) of X, stack[1] that of Y.
    The rows (X_P, X_Q, Y_P, Y_Q) of a stack index its first two axes, and
    the state weighs the Y rows by r = √(d² − 1).
    """

    gap_stop = True

    def __init__(self, spec: ResourceSpectrum):
        d = self.d = spec.dim
        n = self.n = d * d
        self.weight = float(d)
        # The constants every solve at d shares (``_sector_maps``): ``step``
        # reads the two products _first and _second, the second writing
        # (g, f) as 32 rows, and ``bracket`` the last two.
        (
            self.metric, self.root, self.eye, self.off, self.split, self.unit, self.offset,
            self.shift, self.to_ppt, self.from_ppt,
            self._first, self._second, self._bracket_first, self._bracket_second,
        ) = _sector_maps(d)
        self.image_shape = (32, n)
        self.a = np.asarray(spec.coeffs, dtype=float)
        tau = self.a[:, None] * self.a / n
        self.cost = np.zeros((2, 2, d, d))
        np.multiply(tau, self.eye, out=self.cost[0, 0])
        np.multiply(tau, self.off, out=self.cost[0, 1])
        # The full-space norm of the cost is d‖τ‖_F = d |a|²/n.
        self.penalty = STEP * self.weight * float(self.a @ self.a) / n
        self.drive = self.cost / (3.0 * self.penalty)

        # The work buffer: the state s (z, u₁, u₂, u₃), a row of ones, the
        # drive's rows X_P and X_Q (it has no Y part), the rows x and a row
        # whose first 2d entries take the blocks' eigenvalues.
        self._work = np.zeros((32, n))
        self._work[16] = 1.0
        self._work[17:19] = self.drive[0].reshape(2, n)
        self.state = self._work[:16].reshape(4, 2, 2, d, d)
        # The views ``step`` reads, in one attribute: the rows the first
        # product reads and writes, the diagonals of the rows (Q_X, Q_Y, P_X,
        # P_Y) and the same with Q and P traded, the rows the clip at 0
        # serves (P, the PPT eigenvalues and the blocks' eigenvalues), the
        # stack of blocks, the blocks' eigenvalues (as the eigensolver
        # writes them, and shaped to scale the eigenvectors' columns), the
        # eigenvectors it writes (and their transpose), the scaled
        # eigenvectors and the rows the second product reads.
        diagonals = self._work[23:27].reshape(2, 2, n)[:, :, :: d + 1]
        eigenvalues, vectors = self._work[31, : 2 * d], np.empty((2, d, d))
        self._views = (
            self._work[:17],
            self._work[19:31],
            diagonals,
            diagonals[::-1],
            self._work[25:],
            self._work[23:25].reshape(2, d, d),
            eigenvalues.reshape(2, d),
            eigenvalues.reshape(2, 1, d),
            vectors,
            vectors.swapaxes(1, 2),
            np.empty((2, d, d)),
            self._work[:31],
        )

    def step(self, out: np.ndarray) -> None:
        """``_map`` on the weighted state in two products around the cone clips."""
        head, x, diagonals, traded, clip, blocks, w, eigenvalues, v, vt, scaled, rows = self._views
        np.dot(self._first, head, out=x)
        # Q's diagonal is zero, so trading the diagonals of Q and P puts
        # B = Q + diag(P) in the Q rows and zero on P's diagonal; then one
        # clip serves P, the PPT eigenvalues and the blocks' eigenvalues.
        diagonals[...] = traded
        _EIGH(blocks, out=(w, v), signature="d->dd")
        np.maximum(clip, _ZERO, out=clip)
        np.multiply(v, eigenvalues, out=scaled)
        np.matmul(scaled, vt, out=blocks)
        # Trading back moves the clipped blocks' diagonal to P and zero to Q.
        diagonals[...] = traded
        np.dot(self._second, rows, out=out)

    def start(self) -> np.ndarray:
        return self.offset[None].repeat(2, axis=0)

    def deviation(self, stack: np.ndarray) -> np.ndarray:
        out = (self.n - 1) * stack[1]
        out += stack[0]
        out -= self.unit
        return out

    def affine(self, stack: np.ndarray) -> np.ndarray:
        out = (self.shift @ stack.reshape(2, -1)).reshape(stack.shape)
        out += self.offset
        return out

    def _blocks(self, stack: np.ndarray) -> np.ndarray:
        """B = Q + diag(P), the blocks of X and Y on span{|ii⟩}."""
        out = stack[:, 0] * self.eye
        out += stack[:, 1]
        return out

    def _ppt_eigenvalues(self, stack: np.ndarray) -> np.ndarray:
        """Rows P ± Q of M_s, then of M_a: the eigenvalues of every 2 × 2 block."""
        return self.to_ppt @ stack.reshape(4, -1)

    def objective(self, stack: np.ndarray) -> float:
        block = stack[0, 0] * self.eye
        block += stack[0, 1]
        return float(self.a @ block @ self.a)

    def psd_clip(self, stack: np.ndarray) -> np.ndarray:
        w, v = _EIGH(self._blocks(stack), signature="d->dd")
        np.maximum(w, 0.0, out=w)
        clipped = (v * w[:, None, :]) @ v.swapaxes(1, 2)
        out = clipped[:, None] * self.split
        np.maximum(stack[:, 0], 0.0, out=out[:, 0], where=self.off)
        return out

    def ppt_clip(self, stack: np.ndarray) -> np.ndarray:
        eigenvalues = self._ppt_eigenvalues(stack)
        np.maximum(eigenvalues, 0.0, out=eigenvalues)
        return (self.from_ppt @ eigenvalues).reshape(stack.shape)

    def cone_min(self, stack: np.ndarray) -> float:
        d = self.d
        # P off its diagonal: after P[0, 0], every run of d + 1 entries of
        # the flat P starts with d of them and ends on the diagonal.
        off = stack[:, 0].reshape(2, -1)[:, 1:].reshape(2, d - 1, d + 1)[:, :, :d]
        return min(
            float(_EIGVALSH(self._blocks(stack), signature="d->d").min()),
            float(off.min()),
            float(self._ppt_eigenvalues(stack).min()),
        )

    def residuals(self, stack: np.ndarray) -> tuple[float, float]:
        # ``np.linalg.norm`` of the deviation, without its checks.
        deviation = self.deviation(stack).reshape(-1)
        primal = self.weight * math.sqrt(float(deviation.dot(deviation)))
        return primal, min(0.0, self.cone_min(stack))

    def bracket(self, f: np.ndarray) -> tuple[float, float]:
        """Certified bounds [lower, upper] on the optimum (module docstring),
        read from a state f = (z, u₁, u₂, u₃) as the loop holds it, each
        stack times √metric, in two products around one eigh and one
        eigvalsh of d × d blocks (``_bracket_products``).

        y₂ = ρ·clip(u₂ − z) and y₃ = ρ·clip₃(u₃ − z), with clip₃ the PPT
        clip, are the positive parts of the PSD and PPT inputs' negatives;
        the rows hold y₂/ρ, the PPT eigenvalues of y₃/ρ and C/ρ, so the
        dual's rows come out divided by ρ. λ_max of a pair (X, Y) is that of
        its blocks and of its P off the diagonal; the twirl average and the
        sum of the measurement have X = Y, and λ_max of the partial
        transpose of X = Y = S is that of P ± Q. The objective of the
        feasible point is read from ⟨τ, X⟩ and ⟨τ, Y⟩ of the clip of z.
        """
        d, n, rho = self.d, self.n, self.penalty
        work = np.empty((27, n))
        np.dot(self._bracket_first, f.reshape(16, n), out=work[:12])
        np.divide(self.cost[0].reshape(2, n), rho, out=work[12:14])
        # The Q rows 0-3 and P rows 4-7 of the inputs: trading their
        # diagonals puts the four blocks in the Q rows, as in ``step``.
        diagonals = work[:8].reshape(2, 4, n)[:, :, :: d + 1]
        diagonals[...] = diagonals[::-1]
        blocks = work[:4].reshape(4, d, d)
        w, v = _EIGH(blocks, signature="d->dd")
        np.maximum(w, 0.0, out=w)
        np.maximum(work[4:12], 0.0, out=work[4:12])
        np.matmul(v * w[:, None, :], v.swapaxes(1, 2), out=blocks)
        tx, ty = (blocks[2:] @ self.a @ self.a).tolist()
        diagonals[...] = diagonals[::-1]
        out = work[14:]
        np.dot(self._bracket_second, work[:14], out=out)
        # δ(I, I) makes the clip of z PPT; S/d² and its partial transpose
        # gain δ on every P and every eigenvalue.
        delta = max(0.0, -float(out[8:12].min())) + _MARGIN
        out[5:8] += delta
        diagonals = out[:6].reshape(2, 3, n)[:, :, :: d + 1]
        diagonals[...] = diagonals[::-1]
        w = _EIGVALSH(out[:3].reshape(3, d, d), signature="d->d")
        shift = rho * float(max(0.0, w[:2].max(), out[3:5].max())) + _MARGIN / n
        scale = n * float(max(w[2].max(), out[5:8].max())) + _MARGIN
        norm = float(self.a @ self.a)
        total = tx + (n - 1) * ty + n * delta * norm
        lower = (tx + delta * norm) / scale + (norm - total / scale) / n
        return lower, n * rho * float(out[12].sum()) + n * n * shift


def solve_primal_ppt(
    basis: MaxEntBasis,
    spec: ResourceSpectrum,
    n_states: int | None = None,
    *,
    accuracy: float = DEFAULT_ACCURACY,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SDPResult:
    """Maximize (1/N) Σ_k ⟨Φ_k|P_k|Φ_k⟩ over PPT measurements.

    Φ_k is the k-th of the first n_states basis states (all d² by default)
    paired with the resource. Runs the Anderson-accelerated consensus
    splitting until the primal residual, the cone violation and the
    consensus residual drop below the target accuracy and, for a complete
    program, its certified bracket [lower_bound, upper_bound] on the
    optimum is at most the accuracy wide, or, for a subset, the relative
    objective change since the previous check is below it, checking every
    few iterations; hitting the iteration cap returns the last iterate with
    converged=False rather than raising, a complete program's with its
    bracket. A complete program runs the same iterations on the (P, Q)
    arrays of X and Y.
    """
    if isinstance(accuracy, bool) or not (
        isinstance(accuracy, Real) and math.isfinite(accuracy) and accuracy > 0
    ):
        raise ValueError(f"accuracy must be finite and positive, got {accuracy!r}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, Integral) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    n = problem_size(basis, spec, n_states)
    if n == basis.dim**2:
        coords = _Sectors(spec)
    else:
        ens = build_ensemble(basis, spec, n)
        cost = np.asarray(ens.priors)[:, None, None] * ens.density_operators()
        coords = _Operators(cost)
    return _consensus(coords, accuracy, max_iters)


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

    The state s stacks z and the three duals, each weighted by √metric, and
    ``coords.step`` writes the plain step f(s) with the residual
    g = f(s) − s: ``_map`` on the operators, or the fused map of
    ``_Sectors``. Each iteration evaluates f once and takes a type-II
    Anderson step of memory 2 (Zhang, O'Donoghue and Boyd, SIAM J. Optim.
    30, 2020): s ← f(s) − Σ_j γ_j Δf_j, where γ fits g by the last
    differences Δg_j in the full-space Frobenius norm, which on the weighted
    state is ``weight`` times the plain one, so every set of coordinates of
    one program takes the same steps. Every check unweights z of f(s), the
    iterate the solve returns; a complete program's checks read the
    bracket from f(s) (module docstring).
    """
    # z starts at start() and the duals at zero.
    s = coords.state
    s[0] = coords.start() * coords.root
    s[1:] = 0.0
    # As a real array (complex entries as pairs), flat.
    s_flat = s.reshape(-1).view(float)
    # The rows one product reads: (Δg, Δf) of the two history slots, then
    # (g, f), so row 2j is Δg of slot j, row 2j + 1 its Δf, and rows 4 and 5
    # are g and f, which the step writes in place. Each pair is contiguous,
    # so one operation updates both differences of a slot. The state is
    # weighted, so the rows' plain inner products are the weighted ones.
    rows = np.zeros((3, 2, s_flat.size))
    flat = rows.reshape(6, -1)
    flat_t, products = flat.T, np.empty((6, 6))
    slots, latest = (rows[0], rows[1]), rows[2]
    g, f_flat = latest
    out = latest.view(s.dtype).reshape(coords.image_shape)
    f = f_flat.view(s.dtype).reshape(s.shape)
    apply = coords.step
    # s' = f − Σ_j γ_j Δf_j is one product with (0, −γ_0, 0, −γ_1, 0, 1).
    weights = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    scale = coords.weight**2
    quarter = s_flat.size // 4

    # A subset stops on the objective change since the previous check.
    previous = np.inf
    trace: list[dict] = []
    gap_stop = coords.gap_stop
    lower = upper = None
    # The memory: whether slot 0 and slot 1 hold a difference the fit
    # reads, and the slot the newest difference went to. Of two held slots
    # the newest is the later; a slot held alone is the later all the same.
    held0 = held1 = False
    newest = 0
    gg_prev = np.inf
    # The step extrapolates while scale·|g|² > _FLOOR max(|s|², 1).
    floor = _FLOOR * max(scale * float(s_flat @ s_flat), 1.0)

    # The error state ``np.linalg.eigh`` sets around its gufunc, entered once
    # for the loop and the rounding: a failed eigensolver, or a NaN the loop
    # makes, raises LinAlgError.
    with np.errstate(
        call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        for it in range(1, max_iters + 1):
            if it == 1:
                apply(out)
            else:
                # Δg and Δf go to the slot the later held difference is not
                # in (slot 0 when none is held), which takes −g and −f before
                # the map overwrites them and adds the new ones.
                if held0 and held1:
                    newest = 1 - newest
                else:
                    # Slot 1 when slot 0 is held alone, else slot 0.
                    newest = 1 if held0 else 0
                slot = slots[newest]
                np.negative(latest, out=slot)
                apply(out)
                np.add(slot, latest, out=slot)
                # The later held difference, if any, stays: both slots are
                # held now, or slot 0 alone when none was.
                held1 = held0 or held1
                held0 = True
            gram = np.dot(flat, flat_t, products).tolist()
            gg = gram[4][4]

            if it % _CHECK_EVERY == 0 or it == max_iters:
                z = f[0] / coords.root
                obj = coords.objective(z)
                _require_finite(obj)
                floor = _FLOOR * max(scale * gram[5][5], 1.0)
                last = it == max_iters
                # The first check reads no residuals unless a trace row is due
                # or the loop ends there: a subset's objective change reads inf
                # there, and no complete program's residuals have passed there
                # at the default accuracy (module docstring).
                if it > _CHECK_EVERY or it % _TRACE_EVERY == 0 or last:
                    primal_res, cone_res = coords.residuals(z)
                    # The ADMM dual residual and the spread of the blocks about z.
                    dual_res = (
                        math.sqrt(3.0 * scale * float(g[:quarter] @ g[:quarter])) / coords.penalty
                    )
                    consensus_res = math.sqrt(scale * float(g[quarter:] @ g[quarter:]))
                    _require_finite(primal_res, cone_res, dual_res, consensus_res)
                    if gap_stop:
                        converged = max(primal_res, -cone_res, consensus_res) < accuracy
                        # The bracket is read only where the residuals pass,
                        # and at the last iterate.
                        if converged or last:
                            lower, upper = coords.bracket(f)
                            _require_finite(lower, upper)
                            converged = converged and upper - lower <= accuracy
                    else:
                        change = abs(obj - previous) / max(1.0, abs(obj))
                        converged = max(primal_res, -cone_res, change, consensus_res) < accuracy
                    if it % _TRACE_EVERY == 0 or converged or last:
                        row = {
                            "iteration": it,
                            "objective": obj,
                            "primal_residual": primal_res,
                            "cone_residual": cone_res,
                            "dual_residual": dual_res,
                            "consensus_residual": consensus_res,
                        }
                        trace.append(row)
                    if converged or last:
                        break
                previous = obj

            if gg > _GROWTH * gg_prev:
                held0 = held1 = False
            held0 = held0 and gram[0][0] > _ROUNDING * gg
            held1 = held1 and gram[2][2] > _ROUNDING * gg
            gg_prev = gg
            if (held0 or held1) and scale * gg > floor:
                # γ minimising |g − Σ_j γ_j Δg_j| over the held slots, one γ
                # per slot (Δg of slot j is row 2j, g row 4) and 0 for a slot
                # not held: the 2 × 2 normal equations, solved for slot 0
                # first, or the 1 × 1 on the later held slot (the newest, or
                # the one held alone) when only one is held or the two
                # differences are parallel to rounding level.
                two = held0 and held1
                if two:
                    a, b, c = gram[0][0], gram[0][2], gram[2][2]
                    det = a * c - b * b
                    two = det > _ROUNDING * (a * c)
                if two:
                    r0, r1 = gram[0][4], gram[2][4]
                    c0, c1 = (c * r0 - b * r1) / det, (a * r1 - b * r0) / det
                elif held0 and (newest == 0 or not held1):
                    c0, c1 = gram[0][4] / gram[0][0], 0.0
                else:
                    c0, c1 = 0.0, gram[2][4] / gram[2][2]
                # |g − Σ γ_j Δg_j|², the residual the fit predicts.
                if gg - c0 * gram[0][4] - c1 * gram[2][4] <= (1.0 - _MIN_FIT) * gg:
                    # |s' − s|² = |g − Σ γ_j Δf_j|².
                    step = (
                        gg
                        - 2.0 * (c0 * gram[1][4] + c1 * gram[3][4])
                        + c0 * c0 * gram[1][1]
                        + 2.0 * c0 * c1 * gram[1][3]
                        + c1 * c1 * gram[3][3]
                    )
                    if step <= _MAX_STEP**2 * gg:
                        weights[1], weights[3] = -c0, -c1
                        np.dot(weights, flat, out=s_flat)
                        continue
                    held0 = held1 = False
            np.copyto(s, f)

        z = f[0] / coords.root
        rounded = coords.ppt_clip(coords.psd_clip(coords.affine(z)))
    return SDPResult(
        primal_value=obj,
        rounded_value=coords.objective(rounded),
        operators=tuple(z),
        primal_residual=primal_res,
        cone_residual=cone_res,
        iterations=it,
        converged=converged,
        lower_bound=lower,
        upper_bound=upper,
        trace=tuple(trace),
    )


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
    sdp: SDPResult


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
    bracket the solver value without a tightness claim. A certificate that
    fails its feasibility check raises too: an infeasible operator bounds
    nothing.
    """
    d = basis.dim
    n_states = problem_size(basis, spec, n_states)
    ens = build_ensemble(basis, spec, n_states)
    cert = build_certificate(basis, spec, n_states)
    feas = verify_dual_feasibility(cert, ens, tol)
    if not feas.passed:
        raise RuntimeError(
            "certificate is not dual feasible "
            f"(worst margin {feas.worst_lambda_min:.3e} < {feas.threshold:.3e})"
        )
    upper_unclipped = cert.trace_value
    upper = min(1.0, upper_unclipped)

    if n_states == d * d:
        lower = simulate_protocol(basis, spec).value
    else:
        lower = incomplete_bounds(basis, spec, n_states, strategy=strategy).lower

    result = solve_primal_ppt(basis, spec, n_states, accuracy=accuracy, max_iters=max_iters)

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
        sdp=result,
    )
