"""Analytic dual certificate for the PPT discrimination program.

The certificate is assembled on the factored ordering A1, B1, A2, B2 where
its structure is a plain tensor product, then carried to the A:B ordering
by the B1<->A2 relabelling. Its trace equals the fully entangled fraction
of the resource (times d^2/N when only N ensemble states are in play), and
feasibility of the dual constraint is re-verified numerically for every
ensemble member rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import fef
from .states import (
    SWAP_B1_A2,
    Ensemble,
    MaxEntBasis,
    ResourceSpectrum,
    four_factor_layout,
    max_ent_state,
    pair_layout,
    resource_state,
)
from .tensor import (
    SubsystemLayout,
    frobenius,
    herm_eig,
    partial_transpose,
    permute_factors,
    require_hermitian,
    transpose_party_a,
)

TRACE_MATCH_TOL = 1e-12


def pair_projectors(d: int):
    """Rank-one projectors |ii><ii|, |ij+><ij+|, |ij-><ij-| on a d*d pair.

    Returns (diag, sym, antisym); the symmetric and antisymmetric lists run
    over index pairs i < j in lexicographic order.
    """
    diag, sym, antisym = [], [], []
    for i in range(d):
        ket = np.zeros(d * d, dtype=complex)
        ket[i * d + i] = 1.0
        diag.append(np.outer(ket, ket.conj()))
    for i in range(d):
        for j in range(i + 1, d):
            up = np.zeros(d * d, dtype=complex)
            down = np.zeros(d * d, dtype=complex)
            up[i * d + j] = 1.0
            down[j * d + i] = 1.0
            plus = (up + down) / np.sqrt(2.0)
            minus = (up - down) / np.sqrt(2.0)
            sym.append(np.outer(plus, plus.conj()))
            antisym.append(np.outer(minus, minus.conj()))
    return diag, sym, antisym


def gamma_operator(spec: ResourceSpectrum) -> np.ndarray:
    """The PSD combination sum_i a_i^2 |ii><ii| + sum_{i<j} a_i a_j |ij+><ij+|."""
    a = spec.coeffs
    diag, sym, _ = pair_projectors(spec.dim)
    out = np.zeros_like(diag[0])
    for i in range(spec.dim):
        out += a[i] * a[i] * diag[i]
    idx = 0
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            out += a[i] * a[j] * sym[idx]
            idx += 1
    return out


def upsilon(basis: MaxEntBasis, k: int) -> np.ndarray:
    """1 - d * T_first(Psi_k) on the pair space holding the k-th basis state."""
    d = basis.dim
    psi = max_ent_state(basis.unitaries[k])
    rho = np.outer(psi, psi.conj())
    return np.eye(d * d, dtype=complex) - d * partial_transpose(
        rho, pair_layout(d), (0,)
    )


@dataclass(frozen=True)
class DualCertificate:
    """Dual-feasible operator in both factor orderings.

    ``h_factored`` lives on A1,B1,A2,B2 and ``h_swapped`` on A1,A2,B1,B2;
    ``scale`` is d^2/N, equal to 1 for a complete ensemble. The trace equals
    scale times the fully entangled fraction of the resource.
    """

    dim: int
    n_states: int
    scale: float
    h_factored: np.ndarray
    h_swapped: np.ndarray
    trace_value: float
    layout: SubsystemLayout

    def __post_init__(self):
        require_hermitian(self.h_factored)
        require_hermitian(self.h_swapped)
        t_factored = float(np.trace(self.h_factored).real)
        t_swapped = float(np.trace(self.h_swapped).real)
        if abs(t_factored - t_swapped) > TRACE_MATCH_TOL:
            raise ValueError(
                f"trace changed under relabelling: {t_factored!r} vs {t_swapped!r}"
            )
        if abs(self.trace_value - t_factored) > TRACE_MATCH_TOL:
            raise ValueError(
                f"stored trace {self.trace_value!r} does not match {t_factored!r}"
            )


def build_certificate(
    basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int | None = None
) -> DualCertificate:
    """Assemble the certificate for the first n_states ensemble members.

    On the factored ordering the operator is (scale/d^3) * 1 (x) [tau +
    2 sum_{i<j} a_i a_j T_first(|ij-><ij-|)]; the swapped copy is obtained by
    exchanging the two middle factors. Raises when the construction violates
    its own trace identity, which would signal a bug rather than bad input.
    """
    d = basis.dim
    if spec.dim != d:
        raise ValueError(f"spectrum dimension {spec.dim} does not match basis {d}")
    if n_states is None:
        n_states = d * d
    if not 1 <= n_states <= d * d:
        raise ValueError(f"n_states must lie in [1, {d * d}], got {n_states}")
    scale = (d * d) / n_states

    a = spec.coeffs
    tau = resource_state(spec)
    tau_rho = np.outer(tau, tau.conj())
    _, _, antisym = pair_projectors(d)
    lay2 = pair_layout(d)
    inner = tau_rho.copy()
    idx = 0
    for i in range(d):
        for j in range(i + 1, d):
            inner += 2.0 * a[i] * a[j] * partial_transpose(antisym[idx], lay2, (0,))
            idx += 1

    h_factored = (scale / d**3) * np.kron(np.eye(d * d, dtype=complex), inner)
    h_swapped = permute_factors(h_factored, four_factor_layout(d), SWAP_B1_A2)
    trace_value = float(np.trace(h_factored).real)

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
        h_factored=h_factored,
        h_swapped=h_swapped,
        trace_value=trace_value,
        layout=four_factor_layout(d),
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
    passed: bool

    @property
    def worst_lambda_min(self) -> float:
        return min(self.lambda_mins)

    @property
    def worst_decomposition_residual(self) -> float | None:
        """Largest structural residual, or None when none were computed."""
        if not self.decomposition_residuals:
            return None
        return max(self.decomposition_residuals)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_states": self.n_states,
            "trace_value": self.trace_value,
            "tol": self.tol,
            "threshold": self.threshold,
            "lambda_mins": list(self.lambda_mins),
            "decomposition_residuals": list(self.decomposition_residuals),
            "worst_lambda_min": self.worst_lambda_min,
            "worst_decomposition_residual": self.worst_decomposition_residual,
            "passed": self.passed,
        }


@lru_cache(maxsize=None)
def _schmidt_sectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index stacks of the sectors of A1,A2,B1,B2 fixed by the pair {a2, b2}.

    Returns (diagonal, paired): row i of the first lists the d^2 indices with
    a2 = b2 = i, and each row of the second the 2d^2 indices with
    {a2, b2} = {i, j}, i < j, in lexicographic order. Together the rows
    partition the d^4 indices. The arrays are read-only.
    """
    idx = np.arange(d**4).reshape(d, d, d, d)
    diagonal = np.stack([idx[:, i, :, i].reshape(-1) for i in range(d)])
    paired = np.stack(
        [
            np.concatenate([idx[:, i, :, j].reshape(-1), idx[:, j, :, i].reshape(-1)])
            for i in range(d)
            for j in range(i + 1, d)
        ]
    )
    diagonal.setflags(write=False)
    paired.setflags(write=False)
    return diagonal, paired


def _feasibility_margin(cert: DualCertificate, state: np.ndarray, prior: float):
    """Certified lower bound on the smallest eigenvalue of T_A(H - p Phi).

    The dense shifted operator is built and checked for Hermiticity, then
    diagonalised sector by sector (see ``_schmidt_sectors``). Whatever lies
    outside the sectors, E, is bounded by Weyl's inequality: lambda_min >=
    min over sectors of lambda_min - ||E||_F. For the ensembles of
    ``build_ensemble`` E is exactly zero and the bound is the dense minimum.
    """
    rho = np.outer(state, state.conj())
    shifted = transpose_party_a(cert.h_swapped - prior * rho, cert.layout)
    require_hermitian(shifted)
    block_min = np.inf
    for stack in _schmidt_sectors(cert.dim):
        rows, cols = stack[:, :, None], stack[:, None, :]
        block_min = min(block_min, float(np.linalg.eigvalsh(shifted[rows, cols]).min()))
        shifted[rows, cols] = 0.0
    return block_min - frobenius(shifted)


def _decomposition_residuals(
    cert: DualCertificate,
    basis: MaxEntBasis,
    spec: ResourceSpectrum,
    priors: tuple[float, ...],
) -> list[float]:
    """Structural identity behind feasibility, checked on the factored side.

    For each k, both transposes applied to the certificate minus the weighted
    k-th state must equal (scale/d^3) * [Y_k (x) Gamma + (1 - Y_k/2) (x)
    2 sum a_i a_j |ij-><ij-|]; the two sides are computed by unrelated code
    paths.
    """
    d = cert.dim
    if spec.dim != basis.dim:
        raise ValueError(
            f"spectrum dimension {spec.dim} does not match basis {basis.dim}"
        )
    gamma_op = gamma_operator(spec)
    tau = resource_state(spec)
    tau_rho = np.outer(tau, tau.conj())
    lay4 = SubsystemLayout((d, d, d, d), cut=2)
    a = spec.coeffs
    _, _, projectors = pair_projectors(d)
    antisym = np.zeros((d * d, d * d), dtype=complex)
    idx = 0
    for i in range(d):
        for j in range(i + 1, d):
            antisym += 2.0 * a[i] * a[j] * projectors[idx]
            idx += 1

    residuals = []
    for k, prior in enumerate(priors):
        psi = max_ent_state(basis.unitaries[k])
        psi_rho = np.outer(psi, psi.conj())
        lhs = partial_transpose(
            cert.h_factored - prior * np.kron(psi_rho, tau_rho), lay4, (0, 2)
        )
        ups = upsilon(basis, k)
        half = np.eye(d * d, dtype=complex) - 0.5 * ups
        rhs = np.kron(ups, gamma_op)
        rhs += np.kron(half, antisym)
        rhs *= cert.scale / d**3
        residuals.append(frobenius(lhs - rhs))
    return residuals


def verify_dual_feasibility(
    cert: DualCertificate,
    ens: Ensemble,
    tol: float = 1e-9,
    basis: MaxEntBasis | None = None,
    spec: ResourceSpectrum | None = None,
) -> FeasibilityReport:
    """Check the dual constraint for every ensemble member.

    The report passes iff every shifted operator T_A(H - p_k Phi_k) has
    smallest eigenvalue >= -tol * (1 + ||H||_F). Each ``lambda_mins`` entry
    is a certified lower bound on that eigenvalue: the resource is Schmidt
    diagonal, so the operator splits into d sectors of size d^2 (a2 = b2)
    and d(d-1)/2 of size 2d^2 ({a2, b2} = {i, j}), which are diagonalised
    one by one; whatever lies outside them is subtracted by its Frobenius
    norm (Weyl's inequality), and is exactly zero for the ensembles of
    ``build_ensemble``. When the generating basis and spectrum are
    supplied, the per-k structural residual is evaluated as well; otherwise
    those entries are reported as zero-length.
    """
    if ens.layout.factor_dims != cert.layout.factor_dims:
        raise ValueError(
            f"ensemble layout {ens.layout.factor_dims} does not match "
            f"certificate layout {cert.layout.factor_dims}"
        )
    if len(ens) != cert.n_states:
        raise ValueError(
            f"certificate built for {cert.n_states} states, ensemble has {len(ens)}"
        )

    lambda_mins = [
        _feasibility_margin(cert, state, prior)
        for state, prior in zip(ens.states, ens.priors)
    ]

    residuals: list[float] = []
    if basis is not None and spec is not None:
        residuals = _decomposition_residuals(cert, basis, spec, ens.priors)

    threshold = -tol * (1.0 + frobenius(cert.h_swapped))
    passed = all(lm >= threshold for lm in lambda_mins)
    return FeasibilityReport(
        dim=cert.dim,
        n_states=cert.n_states,
        trace_value=cert.trace_value,
        tol=tol,
        threshold=threshold,
        lambda_mins=tuple(lambda_mins),
        decomposition_residuals=tuple(residuals),
        passed=passed,
    )


@dataclass(frozen=True)
class UpsilonReport:
    dim: int
    spectrum_defect: float
    complement_defect: float
    min_eigenvalue: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "spectrum_defect": self.spectrum_defect,
            "complement_defect": self.complement_defect,
            "min_eigenvalue": self.min_eigenvalue,
            "passed": self.passed,
        }


def upsilon_spectrum_check(basis: MaxEntBasis, tol: float = 1e-10) -> UpsilonReport:
    """Assert the two-point spectra of Y_k and 1 - Y_k/2 for every k.

    Each Y_k must have eigenvalue 0 with multiplicity d(d+1)/2 and 2 with
    multiplicity d(d-1)/2; the complement 1 - Y_k/2 then carries 1 and 0
    with the multiplicities exchanged. Both are PSD up to eigensolver noise.
    """
    d = basis.dim
    n_zero = d * (d + 1) // 2
    spectrum_defect = 0.0
    complement_defect = 0.0
    worst_min = np.inf
    for k in range(len(basis)):
        ups = upsilon(basis, k)
        w, _ = herm_eig(ups)
        target = np.concatenate([np.zeros(n_zero), 2.0 * np.ones(d * d - n_zero)])
        spectrum_defect = max(spectrum_defect, float(np.max(np.abs(w - target))))
        worst_min = min(worst_min, float(w[0]))

        wc, _ = herm_eig(np.eye(d * d, dtype=complex) - 0.5 * ups)
        target_c = np.concatenate([np.zeros(d * d - n_zero), np.ones(n_zero)])
        complement_defect = max(
            complement_defect, float(np.max(np.abs(wc - target_c)))
        )
        worst_min = min(worst_min, float(wc[0]))
    passed = (
        spectrum_defect <= tol and complement_defect <= tol and worst_min >= -tol
    )
    return UpsilonReport(
        dim=d,
        spectrum_defect=spectrum_defect,
        complement_defect=complement_defect,
        min_eigenvalue=float(worst_min),
        passed=passed,
    )


def check_swap_transpose_identity(lam: np.ndarray, xi: np.ndarray) -> float:
    """Residual of the transpose-swap commutation on a product operator.

    Swapping the middle factors of (T_first (x) T_first)(lam (x) xi) must
    equal transposing the leading party of the swapped product. The left
    side transposes factors 0 and 2 before permuting; the right side
    permutes first and then transposes the A side of the cut. Returns the
    Frobenius norm of the difference, zero in exact arithmetic for any
    pair of square operators on d*d-dimensional pair spaces.
    """
    lam = np.asarray(lam, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if lam.shape != xi.shape or lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise ValueError(
            f"expected two square matrices of equal size, got {lam.shape} and {xi.shape}"
        )
    d = math.isqrt(lam.shape[0])
    if d * d != lam.shape[0] or d < 2:
        raise ValueError(
            f"operator dimension {lam.shape[0]} is not a square of some d >= 2"
        )
    lay4 = SubsystemLayout((d, d, d, d), cut=2)
    product = np.kron(lam, xi)
    lhs = permute_factors(
        partial_transpose(product, lay4, (0, 2)), lay4, SWAP_B1_A2
    )
    rhs = transpose_party_a(
        permute_factors(product, lay4, SWAP_B1_A2), lay4
    )
    return frobenius(lhs - rhs)
