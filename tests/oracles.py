"""Dense references that the package itself never forms.

The tests build full operators on the pair and four-factor spaces to check
the package's smaller routes against them; the helpers they share live
here, with the solver loop as it runs without its Anderson step.
"""

import math
from typing import Iterable

import numpy as np

from entdist.sdp import _CHECK_EVERY, _STALL_WINDOW, _TRACE_EVERY, STEP, SDPResult
from entdist.states import (
    BASIS_DEFECT_TOL,
    MaxEntBasis,
    ResourceSpectrum,
    pair_layout,
    resource_state,
)
from entdist.tensor import (
    SubsystemLayout,
    frobenius,
    partial_transpose,
    transpose_party_a,
)

# B1 <-> A2 exchange on the (A1, B1, A2, B2) ordering.
SWAP_B1_A2 = (0, 2, 1, 3)


def max_ent_state(U: np.ndarray) -> np.ndarray:
    """(1⊗U) applied to the standard maximally entangled ket."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if U.shape != (d, d):
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    if np.max(np.abs(U.conj().T @ U - np.eye(d))) > BASIS_DEFECT_TOL:
        raise ValueError("operator is not unitary within tolerance")
    # <ij|(1⊗U)|Psi_1> = U[j,i]/sqrt(d), i.e. the row-major flattening of U^T.
    return U.T.reshape(-1) / np.sqrt(d)


def permute_ket(v: np.ndarray, dims: Iterable[int], perm: Iterable[int]) -> np.ndarray:
    """Apply the factor-permutation unitary to a ket."""
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm} is not a permutation of {len(dims)} factors")
    if v.shape != (math.prod(dims),):
        raise ValueError(f"ket shape {v.shape} does not match dims {dims}")
    return v.reshape(dims).transpose(perm).reshape(-1)


def kron_ensemble(basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int) -> np.ndarray:
    """The first n_states ensemble kets, one ket at a time: each
    (1⊗U_k)|Phi> ⊗ |tau> formed by ``np.kron`` on A1,B1,A2,B2 and swapped
    into A1,A2,B1,B2."""
    d = basis.dim
    tau = resource_state(spec)
    return np.array(
        [
            permute_ket(np.kron(max_ent_state(U), tau), (d,) * 4, SWAP_B1_A2)
            for U in basis.unitaries[:n_states]
        ]
    )


def power_weyl_unitaries(d: int) -> np.ndarray:
    """X^a Z^b in a-major order, each formed from matrix powers of the
    cyclic shift X and the clock Z."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return np.array(
        [
            np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(d)
            for b in range(d)
        ]
    )


def permute_factors(
    M: np.ndarray, layout: SubsystemLayout, perm: Iterable[int]
) -> np.ndarray:
    """Conjugate M by the permutation unitary reordering the tensor factors.

    ``perm[t]`` is the source factor placed at position t, so the result
    lives on the layout with dims ``[factor_dims[p] for p in perm]``.
    """
    layout.check_matrix(M)
    dims = layout.factor_dims
    n = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of {n} factors")
    axes = list(perm) + [n + p for p in perm]
    return M.reshape(dims * 2).transpose(axes).reshape(M.shape)


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


def pure_partial_transpose(psi: np.ndarray) -> np.ndarray:
    """T_A1(|psi><psi|) for psi on A1,B1 given as its d x d matrix psi[a1, b1]."""
    flat = psi.reshape(-1)
    return partial_transpose(np.outer(flat, flat.conj()), pair_layout(len(psi)), (0,))


def residual_gram(basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int) -> np.ndarray:
    """Gram matrix of the first n_states teleportation residuals in closed form,
    <gamma_i|gamma_j> = sum_k a_k^2 (U_i^dag U_j)_kk."""
    a = np.asarray(spec.coeffs)
    unitaries = basis.unitaries[:n_states]
    return np.einsum("k,imk,jmk->ij", a * a, unitaries.conj(), unitaries)


def upsilon(basis: MaxEntBasis, k: int) -> np.ndarray:
    """1 - d * T_first(Psi_k) on the pair space holding the k-th basis state."""
    d = basis.dim
    psi = max_ent_state(basis.unitaries[k])
    rho = np.outer(psi, psi.conj())
    return np.eye(d * d, dtype=complex) - d * partial_transpose(
        rho, pair_layout(d), (0,)
    )


def closed_form_ppt_clip(stack: np.ndarray) -> np.ndarray:
    """The complete program's PPT clip on a (2, 2, d, d) stack of (P, Q) arrays.

    Maps (X, Y) to (M_s, M_a) entry by entry, and clips each 2 × 2 block
    [[P_ij, Q_ij], [Q_ij, P_ji]] in closed form: its eigenvalues are c ± r,
    with centre c = (P_ij + P_ji)/2 and radius r = hypot((P_ij − P_ji)/2, Q_ij),
    and it keeps its eigenvectors. Needs no symmetry of P.
    """
    d = stack.shape[-1]
    mix = np.array([[1.0, d - 1.0], [-1.0, d + 1.0]]) / d
    unmix = np.array([[d + 1.0, 1.0 - d], [1.0, 1.0]]) / 2
    mixed = (mix @ stack.reshape(2, -1)).reshape(stack.shape)
    p = mixed[:, 0]
    centre, half = (p + p.swapaxes(-1, -2)) / 2, (p - p.swapaxes(-1, -2)) / 2
    r = np.hypot(half, mixed[:, 1])
    upper = np.maximum(centre + r, 0.0)
    lower = np.maximum(centre - r, 0.0)
    scale = np.divide(upper - lower, 2 * r, out=np.zeros_like(r), where=r > 0)
    mixed[:, 0] = (upper + lower) / 2 + scale * half
    mixed[:, 1] *= scale
    return (unmix @ mixed.reshape(2, -1)).reshape(stack.shape)


def plain_consensus(coords, accuracy: float, max_iters: int):
    """The consensus splitting of ``entdist.sdp`` without its Anderson step.

    The same projections, stop test and trace rows as ``sdp._consensus``;
    each iteration takes the plain map z, duals → z', duals'.
    """
    z = coords.start()
    duals = np.zeros((3, *z.shape), dtype=z.dtype)
    drive = coords.cost / (3.0 * STEP)
    metric = np.broadcast_to(coords.metric, z.shape)

    def norm(v):
        return coords.weight * math.sqrt(float(np.sum(metric * np.abs(v) ** 2)))

    history, trace = [], []
    converged = False
    for it in range(1, max_iters + 1):
        v = z - duals
        x = np.stack([coords.affine(v[0]), coords.psd_clip(v[1]), coords.ppt_clip(v[2])])
        z_old, z = z, (x + duals).sum(axis=0) / 3.0 + drive
        duals += x - z
        if it % _CHECK_EVERY and it != max_iters:
            continue
        obj = coords.objective(z)
        primal, cone = coords.residuals(z)
        history.append(obj)
        lag = _STALL_WINDOW // _CHECK_EVERY
        change = abs(obj - history[-1 - lag]) / max(1.0, abs(obj)) if len(history) > lag else np.inf
        dual = math.sqrt(3.0) * norm(z - z_old) / STEP
        consensus = norm(x - z)
        row = {
            "iteration": it,
            "objective": obj,
            "primal_residual": primal,
            "cone_residual": cone,
            "dual_residual": dual,
            "consensus_residual": consensus,
        }
        stop = [primal, -cone, change, consensus] + ([dual] if coords.dual_stop else [])
        converged = max(stop) < accuracy
        if it % _TRACE_EVERY == 0 or it == max_iters or converged:
            trace.append(row)
        if converged:
            break
    return SDPResult(
        primal_value=obj,
        rounded_value=coords.objective(coords.ppt_clip(coords.psd_clip(coords.affine(z)))),
        operators=coords.operators(z),
        primal_residual=primal,
        cone_residual=cone,
        iterations=it,
        converged=converged,
        trace=tuple(trace),
    )
