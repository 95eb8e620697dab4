"""Analytic dual certificate for the PPT discrimination program.

The certificate is H = (scale/d^3) 1 (x) sum_ij W_ij |ij><ij| on the
factored ordering A1, B1, A2, B2, with the weights W = a a^T of the
resource's Schmidt coefficients; only W is stored. H is diagonal, so no
partial transpose moves it. Its trace equals the fully entangled fraction of
the resource (times d^2/N when only N ensemble states are in play), and
feasibility of the dual constraint is re-verified numerically for every
ensemble member rather than trusted. Each member is psi_k (x) tau, held as
its factors, and every Schmidt sector of the shifted operator is then a
scaled copy of T_A1(|psi_k><psi_k|), whose spectrum follows from the
singular values of the d x d matrix psi_k. The margins need only the
largest, s_1^2, the top eigenvalue of psi_k psi_k^dag: the check takes one
batched ``eigvalsh`` of d x d matrices and forms no d^2 x d^2 or d^4 x d^4
matrix.

The structure checks work on d x d arrays. Every operator on the resource
pair that the decomposition identity involves is diagonal on the Schmidt
sectors, so it is stored as (P, Q) with P[i, j] = O[ij, ij] and
Q[i, j] = O[ij, ji] for i != j, and the spectrum of each
Y_k = 1 - d T_A1(Psi_k) follows from that of the d x d matrix U_k^dag U_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import fef
from .states import Ensemble, MaxEntBasis, ResourceSpectrum, problem_size
from .tensor import frobenius, require_hermitian

TRACE_MATCH_TOL = 1e-12
UPSILON_TOL = 1e-10

# (P, Q) coefficients of Gamma, A/2 and T_A1(tau tau^dag) on a_i a_j, for
# i == j and for i != j (see _decomposition_residuals)
_ON_DIAGONAL = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])[:, :, None, None]
_OFF_DIAGONAL = np.array([[0.5, 0.5], [0.5, -0.5], [0.0, 1.0]])[:, :, None, None]
# keeps the P array of a (P, Q) pair: diag W has Q = 0
_P_ONLY = np.array([1.0, 0.0])[:, None, None]


@dataclass(frozen=True)
class DualCertificate:
    """Dual-feasible operator H = (scale/d^3) * 1_{A1B1} (x) diag(W)_{A2B2}.

    ``weights`` is the real d x d matrix W = a a^T, whose entry W[i, j] sits
    on |ij> of the resource pair A2,B2, and ``scale`` is d^2/N, equal to 1
    for a complete ensemble. H itself, a d^4 x d^4 matrix, is never formed:
    on the A:B ordering A1,A2,B1,B2 it is the same diagonal with B1 and A2
    relabelled, so the feasibility check reads it from W sector by sector.
    The trace (scale/d) sum W equals scale times the fully entangled
    fraction of the resource.
    """

    dim: int
    n_states: int
    scale: float
    weights: np.ndarray
    trace_value: float

    def __post_init__(self):
        d = self.dim
        if self.weights.shape != (d, d) or np.iscomplexobj(self.weights):
            raise ValueError(
                f"weights must be a real {d} x {d} array, got "
                f"{self.weights.dtype} of shape {self.weights.shape}"
            )
        trace = self.scale / d * float(self.weights.sum())
        if abs(self.trace_value - trace) > TRACE_MATCH_TOL:
            raise ValueError(
                f"stored trace {self.trace_value!r} does not match {trace!r}"
            )

    @property
    def coefficient(self) -> float:
        """The factor scale/d^3 in front of 1 (x) diag(W)."""
        return self.scale / self.dim**3


def build_certificate(
    basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int | None = None
) -> DualCertificate:
    """Assemble the certificate for the first n_states ensemble members.

    On the factored ordering A1,B1,A2,B2 the operator is (scale/d^3) * 1 (x)
    [tau + 2 sum_{i<j} a_i a_j T_first(|ij-><ij-|)]. The bracket is diagonal,
    sum_ij a_i a_j |ij><ij|, so only its weights W = a a^T are stored; the
    decomposition residual of ``verify_dual_feasibility`` re-checks that
    identity. Raises when the construction violates its own trace identity,
    which would signal a bug rather than bad input.
    """
    d = basis.dim
    n_states = problem_size(basis, spec, n_states)
    scale = (d * d) / n_states

    a = np.asarray(spec.coeffs)
    weights = a[:, None] * a
    # Tr H adds the d^4 diagonal entries of H, each weight d^2 times.
    trace_value = scale / d * float(weights.sum())
    expected = scale * fef(spec)
    if abs(trace_value - expected) > TRACE_MATCH_TOL:
        raise ValueError(
            f"certificate trace {trace_value!r} deviates from "
            f"scale * fef = {expected!r}"
        )
    return DualCertificate(
        dim=d,
        n_states=n_states,
        scale=scale,
        weights=weights,
        trace_value=trace_value,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-state dual-constraint margins plus the structural residual."""

    dim: int
    n_states: int
    trace_value: float
    tol: float
    threshold: float
    lambda_mins: tuple[float, ...]
    decomposition_residuals: tuple[float, ...]
    worst_lambda_min: float
    worst_decomposition_residual: float
    passed: bool


def _feasibility_margins(cert: DualCertificate, ens: Ensemble) -> np.ndarray:
    """The smallest eigenvalue of T_A(H - p_k Phi_k) for each ensemble member.

    For Phi_k = psi_k (x) tau with tau = sum_i b_i |ii> the operator is
    c 1 (x) diag(W) - p Gamma_k (x) sum_ij b_i b_j |ij><ji|, with Gamma_k =
    T_A1(|psi_k><psi_k|) and c = scale/d^3, so every Schmidt sector is
    built from Gamma_k: sector {i, j} is [[c W_ij, -p b_i b_j Gamma_k],
    [-p b_i b_j Gamma_k, c W_ji]], with eigenvalues
    m -+ sqrt(delta^2 + (p b_i b_j lambda)^2) over the eigenvalues lambda of
    Gamma_k, m and delta the mean and half difference of c W_ij and c W_ji;
    sector i has eigenvalues c W_ii - p b_i^2 lambda. With s the singular
    values of psi_k, Gamma_k has the eigenvalues s_m^2 and +-s_m s_n for
    m < n (Vidal and Werner, PRA 65, 032314, 2002), so the largest, s_1^2,
    is also the largest in magnitude, and both sector minima sit there.
    s_1^2 is the top eigenvalue of psi_k psi_k^dag, read from one batched
    ``eigvalsh`` of those d x d matrices.
    """
    weights = cert.weights
    require_hermitian(weights)
    b = np.asarray(ens.resource.coeffs)
    psi = ens.psi
    top = np.linalg.eigvalsh(psi @ psi.conj().swapaxes(1, 2))[:, -1]
    drive = (np.asarray(ens.priors) * top)[:, None, None] * (b[:, None] * b)
    # half of c W on the diagonal gives (c W + c W^T)/2 = c W_ii and half
    # difference 0 there, and hypot(0, drive) = drive, so one expression,
    # formed in place, holds the minima of both kinds of sector
    half_c = cert.coefficient / 2
    sector_min = np.hypot(half_c * (weights - weights.T), drive, out=drive)
    np.subtract(half_c * (weights + weights.T), sector_min, out=sector_min)
    return sector_min.min(axis=(1, 2))


def _decomposition_residuals(cert: DualCertificate, ens: Ensemble) -> list[float]:
    """Structural identity behind feasibility, checked on the factored side.

    For each k, both transposes applied to the certificate minus the weighted
    k-th state must equal c [Y_k (x) Gamma + (1 - Y_k/2) (x) A], with
    c = scale/d^3, Gamma = sum a_i^2 |ii><ii| + sum_{i<j} a_i a_j |ij+><ij+|,
    A = 2 sum_{i<j} a_i a_j |ij-><ij-| and Y_k = 1 - d G_k,
    G_k = T_A1(Psi_k). With Y_k expanded the difference is
    1 (x) X + G_k (x) Z_k, where X = c (diag W - Gamma - A/2) and
    Z_k = -p_k T_A1(tau tau^dag) + c d (Gamma - A/2). The four operators on
    A2,B2 are held as their (P, Q) arrays (module docstring), diag W from
    the weights and the rest from the ensemble's Schmidt coefficients. Trace
    and Frobenius norm of G_k both equal n_k = ||psi_k||^2, so the squared
    residual is d^2 ||X||^2 + n_k^2 ||Z_k||^2 + 2 n_k Re<X, Z_k>, for all k
    at once.
    """
    d = cert.dim
    a = np.asarray(ens.resource.coeffs)
    # Gamma, A/2 and T_A1(tau tau^dag) as (P, Q) stacks, each entry a_i a_j
    # times an exact coefficient (0, +-1/2 or 1); Q is zero on its diagonal,
    # so sums over a stack are sums over the entries of the operator
    gamma, half_a, tau_t = (a[:, None] * a) * np.where(
        np.eye(d, dtype=bool), _ON_DIAGONAL, _OFF_DIAGONAL
    )
    c = cert.coefficient
    x = c * (cert.weights * _P_ONLY - gamma - half_a)
    p = np.asarray(ens.priors)
    # the (N, 2, d, d) stacks are formed in place; Z_k is real, so its
    # squared entries are z * z
    z = p[:, None, None, None] * tau_t
    np.subtract(c * d * (gamma - half_a), z, out=z)
    cross = np.einsum("tij,ktij->k", x.conj(), z).real
    z *= z
    magnitude = np.abs(ens.psi)
    magnitude *= magnitude
    n = magnitude.sum(axis=(1, 2))
    square = d * d * np.sum(np.abs(x) ** 2) + n**2 * z.sum(axis=(1, 2, 3)) + 2 * n * cross
    return np.sqrt(np.maximum(square, 0.0)).tolist()


def verify_dual_feasibility(
    cert: DualCertificate, ens: Ensemble, tol: float = 1e-9
) -> FeasibilityReport:
    """Check the dual constraint and the structural identity for every
    ensemble member.

    The report passes iff every shifted operator T_A(H - p_k Phi_k) has
    smallest eigenvalue >= -tol * (1 + ||H||_F). Each ``lambda_mins`` entry
    is that eigenvalue (see ``_feasibility_margins``): the resource is
    Schmidt diagonal, so for psi_k (x) tau the operator splits into d
    sectors of size d^2 (a2 = b2) and d(d-1)/2 of size 2d^2
    ({a2, b2} = {i, j}), whose spectra follow from the weights, the
    resource and the largest singular value of psi_k. Each
    ``decomposition_residuals`` entry is the structural residual of
    ``_decomposition_residuals``.
    """
    if ens.resource.dim != cert.dim:
        raise ValueError(
            f"ensemble dimension {ens.resource.dim} does not match "
            f"certificate dimension {cert.dim}"
        )
    if len(ens) != cert.n_states:
        raise ValueError(
            f"certificate built for {cert.n_states} states, ensemble has {len(ens)}"
        )

    lambda_mins = _feasibility_margins(cert, ens).tolist()
    residuals = _decomposition_residuals(cert, ens)

    # ||H||_F = (scale/d^3) ||1_{A1B1}||_F ||W||_F
    threshold = -tol * (1.0 + cert.coefficient * cert.dim * frobenius(cert.weights))
    passed = all(lm >= threshold for lm in lambda_mins)
    return FeasibilityReport(
        dim=cert.dim,
        n_states=cert.n_states,
        trace_value=cert.trace_value,
        tol=tol,
        threshold=threshold,
        lambda_mins=tuple(lambda_mins),
        decomposition_residuals=tuple(residuals),
        worst_lambda_min=min(lambda_mins),
        worst_decomposition_residual=max(residuals),
        passed=passed,
    )


@dataclass(frozen=True)
class UpsilonReport:
    dim: int
    spectrum_defect: float
    complement_defect: float
    min_eigenvalue: float
    passed: bool


def upsilon_spectrum_check(basis: MaxEntBasis) -> UpsilonReport:
    """Assert the two-point spectra of Y_k and 1 - Y_k/2 for every k.

    Each Y_k must have eigenvalue 0 with multiplicity d(d+1)/2 and 2 with
    multiplicity d(d-1)/2; the complement 1 - Y_k/2 then carries 1 and 0
    with the multiplicities exchanged. Both are PSD up to eigensolver noise;
    every defect must stay within UPSILON_TOL.
    For any generator U_k, d T_A1(Psi_k) = (1 (x) U_k) F (1 (x) U_k^dag)
    with F the swap, which has the spectrum of F (1 (x) U_k^dag U_k): with
    g the eigenvalues of U_k^dag U_k, Y_k has eigenvalues 1 - g_m and
    1 -+ sqrt(g_m g_n) for m < n. One batched ``eigvalsh`` of the d x d
    matrices U_k^dag U_k, which the basis kept from its validation, gives
    every spectrum.
    """
    d = basis.dim
    n_zero = d * (d + 1) // 2
    n_two = d * d - n_zero
    g = np.linalg.eigvalsh(basis.validation.products)
    # g_m g_n for m < n, row-major
    index = np.arange(d)
    pairs = (g[:, :, None] * g[:, None, :])[:, index[:, None] < index]
    root = np.sqrt(np.maximum(pairs, 0.0))
    # the eigenvalues of d T_A1(Psi_k), row by row
    swap = np.concatenate([g, root, -root], axis=1)
    # rows 1 - swap (Y_k) and (1 + swap)/2 (1 - Y_k/2) in one stack, each
    # row sorted, then their distances to the two-point targets, in place
    both = np.empty((2, *swap.shape))
    np.subtract(1.0, swap, out=both[0])
    np.add(1.0, swap, out=both[1])
    both[1] /= 2
    both.sort(axis=2)
    worst_min = float(both[:, :, 0].min())
    both -= np.array([[0.0] * n_zero + [2.0] * n_two, [0.0] * n_two + [1.0] * n_zero])[:, None]
    spectrum_defect, complement_defect = np.abs(both, out=both).max(axis=(1, 2)).tolist()
    passed = (
        spectrum_defect <= UPSILON_TOL
        and complement_defect <= UPSILON_TOL
        and worst_min >= -UPSILON_TOL
    )
    return UpsilonReport(
        dim=d,
        spectrum_defect=spectrum_defect,
        complement_defect=complement_defect,
        min_eigenvalue=worst_min,
        passed=passed,
    )
