"""Dense d^4 x d^4 references that the package itself never forms.

The tests build full operators on the four-factor spaces to check the
package's smaller routes against them; the helpers they share live here.
"""

import math
from typing import Iterable

import numpy as np

from entdist.states import SWAP_B1_A2
from entdist.tensor import (
    SubsystemLayout,
    frobenius,
    partial_transpose,
    transpose_party_a,
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
