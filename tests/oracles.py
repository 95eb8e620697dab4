"""Dense references and test inputs that the package itself never forms.

The tests build full operators on the pair and four-factor spaces to check
the package's smaller routes against them; the helpers they share live
here, with the solver loop as it runs without its Anderson step and as it
ran with the step's memory a list of slots:

- tensor layouts, given as plain tuples of factor dimensions:
  ``partial_transpose`` over any factors, ``permute_factors`` and
  ``permute_ket``, and ``schmidt_coefficients`` across a cut;
- input generators: ``haar_random_unitary``, ``conjugated_basis`` and
  ``load_basis_file`` (the package's two-step basis file reader in one call);
- dense builds of kets, projectors and certificate pieces,
  ``fresh_upsilon_report``, ``svd_feasibility_margins``, ``plain_consensus``
  and ``list_memory_consensus``;
- the complete program on dense matrices: ``DenseOperators``, whose
  certified bracket reads d⁴ × d⁴ operators, and ``dense_pair``, the pair
  (X, Y) that a complete result's (P, Q) arrays stand for.
"""

import math
from typing import Iterable

import numpy as np

from entdist.certificate import DualCertificate, UpsilonReport
from entdist.sdp import (
    _CHECK_EVERY,
    _FLOOR,
    _GROWTH,
    _MARGIN,
    _MAX_STEP,
    _MIN_FIT,
    _ROUNDING,
    _TRACE_EVERY,
    SDPResult,
    _Operators,
    _raise_nonconvergence,
    _require_finite,
)
from entdist.states import (
    BASIS_DEFECT_TOL,
    MaxEntBasis,
    Ensemble,
    ResourceSpectrum,
    basis_from_entries,
    read_basis_file,
    resource_state,
)
from entdist.tensor import frobenius

# B1 <-> A2 exchange on the (A1, B1, A2, B2) ordering.
SWAP_B1_A2 = (0, 2, 1, 3)

# The subset stop test of the loops below compares the objective with its
# value _STALL_WINDOW iterations earlier, read from a list of the objectives
# at every check; ``sdp._consensus`` keeps only the previous check's, since
# the window is one check.
_STALL_WINDOW = 25


def partial_transpose(M: np.ndarray, dims: Iterable[int], factors: Iterable[int]) -> np.ndarray:
    """Transpose the listed factors of M on the space of factor dimensions ``dims``.

    M is one matrix or a stack M[..., D, D]; every matrix in a stack is
    transposed alike and the batch axes stay in front.
    """
    dims = tuple(int(d) for d in dims)
    dim = math.prod(dims)
    if M.ndim < 2 or M.shape[-2:] != (dim, dim):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    n = len(dims)
    factors = set(int(f) for f in factors)
    if any(not 0 <= f < n for f in factors):
        raise ValueError(f"factor indices must lie in [0, {n}), got {sorted(factors)}")
    b = M.ndim - 2
    axes = list(range(b + 2 * n))
    for f in factors:
        axes[b + f], axes[b + n + f] = axes[b + n + f], axes[b + f]
    return M.reshape(M.shape[:b] + dims * 2).transpose(axes).reshape(M.shape)


def permute_factors(M: np.ndarray, dims: Iterable[int], perm: Iterable[int]) -> np.ndarray:
    """Conjugate one matrix M by the permutation unitary reordering the tensor factors.

    ``perm[t]`` is the source factor placed at position t, so the result
    lives on the space with dims ``[dims[p] for p in perm]``.
    """
    dims = tuple(int(d) for d in dims)
    if M.shape != (math.prod(dims),) * 2:
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    n = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of {n} factors")
    axes = list(perm) + [n + p for p in perm]
    return M.reshape(dims * 2).transpose(axes).reshape(M.shape)


def schmidt_coefficients(v: np.ndarray, dims: Iterable[int], cut: int) -> np.ndarray:
    """Descending singular values of the ket v across the cut after ``cut`` factors."""
    dims = tuple(int(d) for d in dims)
    if v.shape != (math.prod(dims),):
        raise ValueError(f"ket shape {v.shape} does not match dims {dims}")
    coeff = v.reshape(math.prod(dims[:cut]), math.prod(dims[cut:]))
    return np.linalg.svd(coeff, compute_uv=False)


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phase = np.diag(r).copy()
    phase /= np.abs(phase)
    return q * phase


def conjugated_basis(basis: MaxEntBasis, V: np.ndarray) -> MaxEntBasis:
    """Replace each generator U_j by V U_j V†; keeps U_1 = identity."""
    return MaxEntBasis(dim=basis.dim, unitaries=V @ basis.unitaries @ V.conj().T)


def load_basis_file(path) -> MaxEntBasis:
    """Read a basis from JSON: {"dim": d, "unitaries": [[[re, im], ...], ...]}."""
    d, raw = read_basis_file(path)
    return basis_from_entries(d, raw, path)


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
    dims = (d, d, d, d)
    product = np.kron(lam, xi)
    lhs = permute_factors(partial_transpose(product, dims, (0, 2)), dims, SWAP_B1_A2)
    rhs = partial_transpose(permute_factors(product, dims, SWAP_B1_A2), dims, (0, 1))
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
    return partial_transpose(np.outer(flat, flat.conj()), psi.shape, (0,))


def residual_gram(basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int) -> np.ndarray:
    """Gram matrix of the first n_states teleportation residuals in closed form,
    <gamma_i|gamma_j> = sum_k a_k^2 (U_i^dag U_j)_kk."""
    a = np.asarray(spec.coeffs)
    unitaries = basis.unitaries[:n_states]
    return np.einsum("k,imk,jmk->ij", a * a, unitaries.conj(), unitaries)


def fresh_upsilon_report(basis: MaxEntBasis, tol: float = 1e-10) -> UpsilonReport:
    """``upsilon_spectrum_check`` as it ran before the basis kept its products:
    the U_k^dag U_k formed afresh from the unitaries, the pairs m < n taken
    by ``np.triu_indices``."""
    d = basis.dim
    n_zero = d * (d + 1) // 2
    target = np.concatenate([np.zeros(n_zero), 2.0 * np.ones(d * d - n_zero)])
    target_c = np.concatenate([np.zeros(d * d - n_zero), np.ones(n_zero)])
    gens = basis.unitaries
    g = np.linalg.eigvalsh(gens.conj().swapaxes(1, 2) @ gens)
    m, n = np.triu_indices(d, 1)
    root = np.sqrt(np.maximum(g[:, m] * g[:, n], 0.0))
    swap = np.concatenate([g, root, -root], axis=1)
    w = np.sort(1.0 - swap, axis=1)
    wc = np.sort((1.0 + swap) / 2, axis=1)
    spectrum_defect = float(np.max(np.abs(w - target)))
    complement_defect = float(np.max(np.abs(wc - target_c)))
    worst_min = float(min(w[:, 0].min(), wc[:, 0].min()))
    passed = spectrum_defect <= tol and complement_defect <= tol and worst_min >= -tol
    return UpsilonReport(d, spectrum_defect, complement_defect, worst_min, passed)


def svd_feasibility_margins(cert: DualCertificate, ens: Ensemble) -> np.ndarray:
    """``_feasibility_margins`` as it ran before it read s_1^2 from a
    Hermitian eigensolve: the largest singular value of each psi_k from one
    batched SVD, and the diagonal sectors c W_ii - p b_i^2 s_1^2 apart from
    the {i, j} sectors."""
    d = cert.dim
    weights = cert.weights
    b = np.asarray(ens.resource.coeffs)
    top = np.linalg.svd(ens.psi, compute_uv=False)[:, 0] ** 2
    c = cert.coefficient
    drive = (np.asarray(ens.priors) * top)[:, None, None] * np.outer(b, b)
    mean = c * (weights + weights.T) / 2
    half = c * (weights - weights.T) / 2
    sector_min = np.where(
        np.eye(d, dtype=bool), c * weights - drive, mean - np.hypot(half, drive)
    )
    return sector_min.min(axis=(1, 2))


def upsilon(basis: MaxEntBasis, k: int) -> np.ndarray:
    """1 - d * T_first(Psi_k) on the pair space holding the k-th basis state."""
    d = basis.dim
    psi = max_ent_state(basis.unitaries[k])
    rho = np.outer(psi, psi.conj())
    return np.eye(d * d, dtype=complex) - d * partial_transpose(rho, (d, d), (0,))


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


class DenseOperators(_Operators):
    """``sdp._Operators`` with the certified bracket of a complete program
    read from its d⁴ × d⁴ operators, the oracle for ``_Sectors.bracket``.

    ``bracket`` reads the ``average`` of a stack, every operator replaced by
    their mean (the twirl average of a complete program), and its
    ``trace``, the sum of the operators' traces on the full space; a
    subclass on other coordinates gives its own. ``gap_stop`` says whether
    the program is complete, so that the stop test reads the certified gap.
    """

    @property
    def gap_stop(self) -> bool:
        # A complete basis: d² states.
        return self.n == self.d**2

    def average(self, stack: np.ndarray) -> np.ndarray:
        return np.repeat(stack.mean(axis=0, keepdims=True), len(stack), axis=0)

    def trace(self, stack: np.ndarray) -> float:
        return float(np.trace(stack, axis1=1, axis2=2).sum().real)

    def bracket(self, f: np.ndarray) -> tuple[float, float]:
        """Certified bounds [lower, upper] on the optimum of a complete program,
        read from a state f = (z, u₁, u₂, u₃) as the loop holds it, each
        stack times √metric (the module docstring of ``entdist.sdp``)."""
        z, _, u2, u3 = f / self.root
        n = self.n
        psd_in, ppt_in = z - u2, z - u3
        y2 = self.penalty * (self.psd_clip(psd_in) - psd_in)
        y3 = self.penalty * (self.ppt_clip(ppt_in) - ppt_in)
        mean = self.average(self.cost + y2 + y3)
        shift = max(0.0, -self.min_eigenvalue(mean - self.cost - y3)) + _MARGIN / n
        # Tr(M₀ + εI), M₀ the mean operator, on the space of dimension n².
        upper = self.trace(mean) / n + n * n * shift
        clipped = self.psd_clip(z)
        clipped += (max(0.0, -self.cone_min(clipped)) + _MARGIN) * n * self.start()
        # c = max(λ_max S, λ_max S^Γ) for S = n times the mean operator.
        scale = -n * self.cone_min(-self.average(clipped)) + _MARGIN
        return self.objective(self.affine(clipped / scale)), upper


def dense_pair(sectors) -> tuple[np.ndarray, np.ndarray]:
    """The dense pair (X, Y) on A2B2, with |ij⟩ at index i·d + j, of the
    (P, Q) arrays of X and Y: a complete result's ``operators``, or one
    (2, 2, d, d) stack of them."""
    stack = np.stack(sectors)
    d = stack.shape[-1]
    n = d * d
    dense = np.zeros((2, n, n))
    # |ii⟩ is at index i·(d + 1): the block, then every diagonal entry.
    dense[:, :: d + 1, :: d + 1] = stack[:, 1]
    dense.reshape(2, -1)[:, :: n + 1] = stack[:, 0].reshape(2, n)
    return tuple(dense)


def plain_consensus(coords, accuracy: float, max_iters: int):
    """The consensus splitting of ``entdist.sdp`` without its Anderson step.

    The same projections, stop test (the certified gap of
    ``coords.bracket`` for a complete program) and trace rows as
    ``sdp._consensus``; each iteration takes the plain map z, duals → z',
    duals'.
    """
    z = coords.start()
    duals = np.zeros((3, *z.shape), dtype=z.dtype)
    drive = coords.cost / (3.0 * coords.penalty)
    metric = np.broadcast_to(coords.metric, z.shape)

    def norm(v):
        return coords.weight * math.sqrt(float(np.sum(metric * np.abs(v) ** 2)))

    history, trace = [], []
    converged = False
    lower = upper = None
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
        dual = math.sqrt(3.0) * norm(z - z_old) / coords.penalty
        consensus = norm(x - z)
        row = {
            "iteration": it,
            "objective": obj,
            "primal_residual": primal,
            "cone_residual": cone,
            "dual_residual": dual,
            "consensus_residual": consensus,
        }
        if coords.gap_stop:
            # As in ``sdp._consensus``, the first check stops nothing unless
            # it is the last.
            read = len(history) > lag or it == max_iters
            converged = read and max(primal, -cone, consensus) < accuracy
            if converged or it == max_iters:
                lower, upper = coords.bracket(np.concatenate([z[None], duals]) * coords.root)
                converged = converged and upper - lower <= accuracy
        else:
            converged = max(primal, -cone, change, consensus) < accuracy
        if it % _TRACE_EVERY == 0 or it == max_iters or converged:
            trace.append(row)
        if converged:
            break
    return SDPResult(
        primal_value=obj,
        rounded_value=coords.objective(coords.ppt_clip(coords.psd_clip(coords.affine(z)))),
        operators=tuple(z),
        primal_residual=primal,
        cone_residual=cone,
        iterations=it,
        converged=converged,
        lower_bound=lower,
        upper_bound=upper,
        trace=tuple(trace),
    )


def list_memory_consensus(coords, accuracy: float, max_iters: int) -> SDPResult:
    """``sdp._consensus`` as it ran with the Anderson memory a list of slots.

    The body is the loop before its memory became two slot flags and the
    newest slot's index: ``memory`` lists the held slots oldest first, a
    list comprehension forgets the slots whose difference is at rounding
    level, and ``_anderson_weights`` solves the fit. Its stop test is the
    package's: a complete program stops on the certified gap of
    ``coords.bracket``, and a subset on the stall window as that loop did.
    The loop must take the same steps bit for bit.
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
    slots, newest = (rows[0], rows[1]), rows[2]
    g, f_flat = newest
    out = newest.view(s.dtype).reshape(coords.image_shape)
    f = f_flat.view(s.dtype).reshape(s.shape)
    apply = coords.step
    # s' = f − Σ_j γ_j Δf_j is one product with (0, −γ_0, 0, −γ_1, 0, 1).
    weights = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    scale = coords.weight**2
    quarter = s_flat.size // 4

    history: list[float] = []
    lag = _STALL_WINDOW // _CHECK_EVERY
    trace: list[dict] = []
    lower = upper = None
    memory: list[int] = []
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
                # Δg and Δf go to the slot the newest difference is not in,
                # which takes −g and −f before the map overwrites them and
                # adds the new ones.
                j = 1 - memory[-1] if memory else 0
                slot = slots[j]
                np.negative(newest, out=slot)
                apply(out)
                np.add(slot, newest, out=slot)
                memory = memory[-1:] + [j]
            gram = flat.dot(flat_t, products).tolist()
            gg = gram[4][4]

            if it % _CHECK_EVERY == 0 or it == max_iters:
                z = f[0] / coords.root
                obj = coords.objective(z)
                _require_finite(obj)
                floor = _FLOOR * max(scale * gram[5][5], 1.0)
                history.append(obj)
                full = len(history) > lag
                # Until the stall window is full the objective change reads
                # inf and a subset's stop test cannot pass: unless a trace row
                # is due or the loop ends there, nothing reads its residuals.
                if full or it % _TRACE_EVERY == 0 or it == max_iters:
                    change = abs(obj - history[-1 - lag]) / max(1.0, abs(obj)) if full else np.inf
                    primal_res, cone_res = coords.residuals(z)
                    # The ADMM dual residual and the spread of the blocks about z.
                    dual_res = (
                        math.sqrt(3.0 * scale * float(g[:quarter] @ g[:quarter])) / coords.penalty
                    )
                    consensus_res = math.sqrt(scale * float(g[quarter:] @ g[quarter:]))
                    _require_finite(primal_res, cone_res, dual_res, consensus_res)
                    if coords.gap_stop:
                        converged = max(primal_res, -cone_res, consensus_res) < accuracy
                        if converged or it == max_iters:
                            lower, upper = coords.bracket(f)
                            _require_finite(lower, upper)
                            converged = converged and upper - lower <= accuracy
                    else:
                        stop = [primal_res, -cone_res, change, consensus_res]
                        converged = max(stop) < accuracy
                    if it % _TRACE_EVERY == 0 or converged or it == max_iters:
                        row = {
                            "iteration": it,
                            "objective": obj,
                            "primal_residual": primal_res,
                            "cone_residual": cone_res,
                            "dual_residual": dual_res,
                            "consensus_residual": consensus_res,
                        }
                        trace.append(row)
                    if converged or it == max_iters:
                        break

            if gg > _GROWTH * gg_prev:
                memory = []
            memory = [j for j in memory if gram[2 * j][2 * j] > _ROUNDING * gg]
            gg_prev = gg
            if memory and scale * gg > floor:
                c0, c1 = _anderson_weights(gram, memory)
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
                    memory = []
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


def _anderson_weights(gram: list[list[float]], memory: list[int]) -> tuple[float, float]:
    """γ minimising |g − Σ_j γ_j Δg_j| over the slots in memory, one γ per slot.

    ``gram`` holds the inner products of the rows of ``_consensus``: Δg of
    slot j is row 2j and g row 4. A slot out of memory gets γ = 0. Solves
    the 1 × 1 or 2 × 2 normal equations on floats; two differences parallel
    to rounding level leave the newer one.
    """
    if len(memory) == 2:
        # The two slots hold 0 and 1 in either order; solve for slot 0 first.
        a, b, c = gram[0][0], gram[0][2], gram[2][2]
        det = a * c - b * b
        if det > _ROUNDING * (a * c):
            r0, r1 = gram[0][4], gram[2][4]
            return (c * r0 - b * r1) / det, (a * r1 - b * r0) / det
    j = memory[-1]
    gamma = gram[2 * j][4] / gram[2 * j][2 * j]
    return (gamma, 0.0) if j == 0 else (0.0, gamma)
