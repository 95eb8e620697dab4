"""Analytic dual certificate for the PPT discrimination program.

On the factored ordering A1, B1, A2, B2 the certificate is the plain
tensor product H = (scale/d^3) 1 (x) inner, and only the d^2 x d^2 factor
inner on the resource pair A2, B2 is stored. Its trace equals the fully
entangled fraction of the resource (times d^2/N when only N ensemble states
are in play), and feasibility of the dual constraint is re-verified
numerically for every ensemble member rather than trusted. The check runs
on the A:B ordering A1, A2, B1, B2, the B1<->A2 relabelling applied as
index arithmetic, one Schmidt sector of the resource at a time: no
d^4 x d^4 matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    HERMITICITY_RTOL,
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
    """Dual-feasible operator H = (scale/d^3) * 1_{A1B1} (x) inner_{A2B2}.

    ``inner`` is the d^2 x d^2 factor on the resource pair A2,B2 and
    ``scale`` is d^2/N, equal to 1 for a complete ensemble. H itself, a
    d^4 x d^4 matrix, is never formed: on the A:B ordering A1,A2,B1,B2 it is
    the same operator with B1 and A2 relabelled, which the feasibility check
    applies as index arithmetic. The trace (scale/d) Tr inner equals scale
    times the fully entangled fraction of the resource.
    """

    dim: int
    n_states: int
    scale: float
    inner: np.ndarray
    trace_value: float
    layout: SubsystemLayout

    def __post_init__(self):
        require_hermitian(self.inner)
        trace = self.scale / self.dim * float(np.trace(self.inner).real)
        if abs(self.trace_value - trace) > TRACE_MATCH_TOL:
            raise ValueError(
                f"stored trace {self.trace_value!r} does not match {trace!r}"
            )

    @property
    def coefficient(self) -> float:
        """The factor scale/d^3 in front of 1 (x) inner."""
        return self.scale / self.dim**3

    @cached_property
    def sector_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """T_A(H) on the sectors of ``_schmidt_sectors``, one stack per kind.

        On A1,A2,B1,B2, T_A(H) = (scale/d^3) 1_{A1B1} (x) T_first(inner), so
        a sector's block is T_first(inner) on its pair indices times the
        identity on (a1, b1).
        """
        d = self.dim
        inner_t = partial_transpose(self.inner, pair_layout(d), (0,))
        eye = np.eye(d * d)[:, None, :]
        stacks = []
        for pairs in _pair_sectors(d):
            n, q = pairs.shape
            blocks = self.coefficient * inner_t[pairs[:, :, None], pairs[:, None, :]]
            stacks.append((blocks[:, :, None, :, None] * eye).reshape(n, q * d * d, -1))
        return tuple(stacks)

    @cached_property
    def off_sector_norm(self) -> float:
        """Frobenius norm of T_A(H) off the sectors, a sum of squares.

        T_first(inner) off the sectors counts d times, once per (a1, b1).
        """
        d = self.dim
        inner_t = partial_transpose(self.inner, pair_layout(d), (0,))
        return self.coefficient * d * frobenius(inner_t[_off_sector_masks(d)[0]])


def build_certificate(
    basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int | None = None
) -> DualCertificate:
    """Assemble the certificate for the first n_states ensemble members.

    On the factored ordering A1,B1,A2,B2 the operator is (scale/d^3) * 1 (x)
    [tau + 2 sum_{i<j} a_i a_j T_first(|ij-><ij-|)]; only the bracket, which
    is diagonal with entries a_i a_j, is stored. Raises when the
    construction violates its own trace identity, which would signal a bug
    rather than bad input.
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

    # Tr H adds the d^4 diagonal entries of H, the diagonal of inner d^2 times.
    diagonal = np.tile(scale / d**3 * np.diagonal(inner), d * d)
    trace_value = float(diagonal.sum().real)
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
        inner=inner,
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
    {a2, b2} = {i, j}, i < j: each pair index of ``_pair_sectors`` in turn,
    with (a1, b1) running row-major under it. Together the rows partition
    the d^4 indices. The arrays are read-only.
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


@lru_cache(maxsize=None)
def _pair_sectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index stacks of the sectors of the pair A2,B2 fixed by {a2, b2}.

    Returns (diagonal, paired): row i of the first holds the index of |ii>,
    and each row of the second the indices of |ij> and |ji>, i < j, in
    lexicographic order. Together the rows partition the d^2 indices. The
    arrays are read-only.
    """
    i, j = np.triu_indices(d, 1)
    diagonal = (np.arange(d) * (d + 1))[:, None]
    paired = np.stack([i * d + j, j * d + i], axis=1)
    diagonal.setflags(write=False)
    paired.setflags(write=False)
    return diagonal, paired


@lru_cache(maxsize=None)
def _off_sector_masks(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Where an A2,B2 operator and a ket's pair marginal leave the sectors.

    Returns (pair, marginal): pair[m, m'] is True when the pair indices m and
    m' lie in different sectors, and marginal[x, y, z, w] is 1.0 when
    {z, y} != {x, w} as sets (see ``_remainder``), else 0.0.
    """
    i, j = np.indices((d, d))
    label = np.minimum(i, j) * d + np.maximum(i, j)  # names the set {a2, b2}
    pair = label.reshape(-1, 1) != label.reshape(1, -1)
    # label.T[y, z] is label[z, y]
    marginal = (label.T[None, :, :, None] != label[:, None, None, :]).astype(float)
    pair.setflags(write=False)
    marginal.setflags(write=False)
    return pair, marginal


def _require_hermitian_blocks(blocks: np.ndarray) -> None:
    """``require_hermitian`` for each matrix of a stack blocks[n, m, m]."""
    defect = np.abs(blocks - blocks.conj().swapaxes(1, 2)).max(axis=(1, 2))
    norm = np.sqrt(np.einsum("nij,nij->n", blocks.conj(), blocks).real)
    bound = HERMITICITY_RTOL * (1.0 + norm)
    worst = int(np.argmax(defect - bound))
    if defect[worst] > bound[worst]:
        raise ValueError(
            f"sector block {worst} is not Hermitian: defect "
            f"{defect[worst]:.3e} exceeds {bound[worst]:.3e}"
        )


def _remainder(cert: DualCertificate, state: np.ndarray, prior: float) -> float:
    """Upper bound on ||E||_F, the part of T_A(H - p |s><s|) off the sectors.

    Each part is a sum of non-negative terms, never a difference of norms.
    Entry ((a, b), (a', b')) of T_A(|s><s|) has modulus |s[a', b]| |s[a, b']|
    and lies off the sectors exactly when {a2, b2} != {a2', b2'}, so its
    off-sector norm squared is the sum of M[x, y] M[z, w] over
    {z, y} != {x, w}, with the marginal M[a2, b2] = sum_{a1, b1} |s|^2. The
    triangle inequality adds ``DualCertificate.off_sector_norm``. Both parts
    are exactly zero for ``build_certificate`` and ``build_ensemble``.
    """
    d = cert.dim
    weights = (np.abs(state.reshape(d, d, d, d)) ** 2).sum(axis=(0, 2))
    marginal = _off_sector_masks(d)[1]
    ket_square = float(np.einsum("xy,xyzw,zw->", weights, marginal, weights))
    return cert.off_sector_norm + prior * math.sqrt(ket_square)


def _feasibility_margin(cert: DualCertificate, state: np.ndarray, prior: float):
    """Certified lower bound on the smallest eigenvalue of T_A(H - p Phi).

    No d^4 x d^4 matrix is built. Each sector block (see
    ``_schmidt_sectors``) is T_A(H) on the sector
    (``DualCertificate.sector_blocks``) minus p times T_A(|s><s|) gathered
    from the ket s as T_A(|s><s|)[(a, b), (a', b')] = s[a', b] conj(s[a, b']).
    Every block is checked for Hermiticity, and the blocks of each stack are
    diagonalised in one batch. Whatever lies outside the sectors, E, is
    bounded by Weyl's inequality: lambda_min >= min over sectors of
    lambda_min - ||E||_F, with ||E||_F bounded by ``_remainder``. For the
    ensembles of ``build_ensemble`` E is exactly zero and the bound is the
    dense minimum.
    """
    n_pair = cert.dim**2
    ket = state.reshape(n_pair, n_pair)  # rows a = (a1, a2), columns b = (b1, b2)
    block_min = np.inf
    for stack, h_blocks in zip(_schmidt_sectors(cert.dim), cert.sector_blocks):
        gathered = ket[stack[:, :, None] // n_pair, stack[:, None, :] % n_pair]
        shifted = h_blocks - prior * (gathered.swapaxes(1, 2) * gathered.conj())
        _require_hermitian_blocks(shifted)
        block_min = min(block_min, float(np.linalg.eigvalsh(shifted).min()))
    return block_min - _remainder(cert, state, prior)


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
    paths. Every term is X_t (x) F_t, with X_t on A1,B1 and F_t on A2,B2,
    and the four F_t are block-diagonal on the sectors of ``_pair_sectors``.
    So the squared Frobenius norm of the difference is a sum over the
    in-sector entries e of ||sum_t F_t[e] X_t||_F^2, with no d^4 x d^4
    matrix formed; whatever of the F_t lies off the sectors enters through
    the Gram matrices of the X_t and of those parts.
    """
    d = cert.dim
    if spec.dim != basis.dim:
        raise ValueError(
            f"spectrum dimension {spec.dim} does not match basis {basis.dim}"
        )
    lay2 = pair_layout(d)
    tau = resource_state(spec)
    left = np.stack(
        [
            partial_transpose(cert.inner, lay2, (0,)),
            partial_transpose(np.outer(tau, tau.conj()), lay2, (0,)),
        ]
    )
    a = spec.coeffs
    _, _, projectors = pair_projectors(d)
    antisym = np.zeros((d * d, d * d), dtype=complex)
    idx = 0
    for i in range(d):
        for j in range(i + 1, d):
            antisym += 2.0 * a[i] * a[j] * projectors[idx]
            idx += 1
    right = np.stack([gamma_operator(spec), antisym])
    off = _off_sector_masks(d)[0]
    inside = ~off
    left_in, right_in = left[:, inside], right[:, inside]
    off_parts = np.concatenate([left, right])[:, off]
    off_gram = np.einsum("te,se->ts", off_parts.conj(), off_parts)

    c = cert.coefficient
    eye = np.eye(d * d, dtype=complex)
    residuals = []
    for k, prior in enumerate(priors):
        psi = max_ent_state(basis.unitaries[k])
        psi_t = partial_transpose(np.outer(psi, psi.conj()), lay2, (0,))
        left_ops = np.stack([c * eye, -prior * psi_t])
        ups = upsilon(basis, k)
        right_ops = c * np.stack([ups, eye - 0.5 * ups])
        # entry e of the sectors carries sum_t F_t[e] X_t on A1,B1
        lhs = np.einsum("tab,te->eab", left_ops, left_in)
        rhs = np.einsum("tab,te->eab", right_ops, right_in)
        square = float(np.sum(np.abs(lhs - rhs) ** 2))
        ops = np.concatenate([left_ops, -right_ops])
        gram = np.einsum("tab,sab->ts", ops.conj(), ops)
        # the Gram term is non-negative in exact arithmetic
        square += max(float(np.sum(gram * off_gram).real), 0.0)
        residuals.append(math.sqrt(square))
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
    and d(d-1)/2 of size 2d^2 ({a2, b2} = {i, j}). Their blocks are
    gathered from the certificate's factor and the ensemble ket, without
    forming the d^4 x d^4 operator, and diagonalised; whatever lies outside
    them is subtracted by a bound on its Frobenius norm (Weyl's
    inequality), and is exactly zero for the ensembles of
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

    # ||H||_F = (scale/d^3) ||1_{A1B1}||_F ||inner||_F
    threshold = -tol * (1.0 + cert.coefficient * cert.dim * frobenius(cert.inner))
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
