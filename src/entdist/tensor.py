"""Dense complex linear algebra on tensor-product spaces.

Matrices are plain C-ordered ``numpy`` arrays of ``complex128``; kets are
1-d arrays. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered factor dimensions of a tensor-product space.

    ``cut`` splits the factors into party A (prefix) and party B (suffix),
    so the A:B bipartition of a four-factor space [d,d,d,d] with cut=2 has
    A = factors 0,1 and B = factors 2,3.
    """

    factor_dims: tuple[int, ...]
    cut: int = 1

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        if not 1 <= self.cut < len(dims):
            raise ValueError(
                f"cut must satisfy 1 <= cut < {len(dims)}, got {self.cut}"
            )

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def dim_a(self) -> int:
        return math.prod(self.factor_dims[: self.cut])

    @property
    def dim_b(self) -> int:
        return math.prod(self.factor_dims[self.cut :])

    @property
    def party_a(self) -> tuple[int, ...]:
        """Indices of the factors held by party A."""
        return tuple(range(self.cut))

    def check_matrix(self, M: np.ndarray) -> None:
        if M.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {M.shape} does not match layout dimension {self.dim}"
            )

    def check_ket(self, v: np.ndarray) -> None:
        if v.shape != (self.dim,):
            raise ValueError(
                f"ket shape {v.shape} does not match layout dimension {self.dim}"
            )


def frobenius(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def require_hermitian(M: np.ndarray, rtol: float = HERMITICITY_RTOL) -> None:
    """Raise unless max |M - M^dagger| <= rtol * (1 + ||M||_F).

    M is one matrix or a stack M[..., D, D]; in a stack each matrix is held
    to the rule on its own, and the message names the first that fails.
    """
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    if M.size == 0:
        return
    defect = np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bound = rtol * (1.0 + np.linalg.norm(M, axis=(-2, -1)))
    bad = defect > bound
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        what = f"block {', '.join(str(int(i)) for i in at)}" if at else "matrix"
        raise ValueError(
            f"{what} is not Hermitian: defect {defect[at]:.3e} exceeds {bound[at]:.3e}"
        )


def partial_transpose(
    M: np.ndarray, layout: SubsystemLayout, factors: Iterable[int]
) -> np.ndarray:
    """Transpose the listed factors of M, leaving the others untouched.

    M is one matrix or a stack M[..., D, D]; every matrix in a stack is
    transposed alike and the batch axes stay in front.
    """
    if M.ndim < 2 or M.shape[-2:] != (layout.dim, layout.dim):
        raise ValueError(
            f"matrix shape {M.shape} does not match layout dimension {layout.dim}"
        )
    dims = layout.factor_dims
    n = len(dims)
    factors = set(int(f) for f in factors)
    if any(not 0 <= f < n for f in factors):
        raise ValueError(f"factor indices must lie in [0, {n}), got {sorted(factors)}")
    if not factors:
        return M.copy()
    b = M.ndim - 2
    axes = list(range(b + 2 * n))
    for f in factors:
        axes[b + f], axes[b + n + f] = axes[b + n + f], axes[b + f]
    return M.reshape(M.shape[:b] + dims * 2).transpose(axes).reshape(M.shape)


def transpose_party_a(M: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Partial transpose over every factor on party A's side of the cut.

    Accepts one matrix or a stack M[..., D, D], like ``partial_transpose``.
    """
    return partial_transpose(M, layout, layout.party_a)


def psd_clip(M: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues at zero, for one matrix or a stack M[..., D, D].

    Unchecked: every matrix is taken to be Hermitian.
    """
    w, v = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
