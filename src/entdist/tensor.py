"""Dense complex linear algebra on matrices and stacks of matrices.

Matrices are plain C-ordered ``numpy`` arrays of ``complex128``. Everything
here is a pure function of its inputs.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_RTOL = 1e-12


def frobenius(M: np.ndarray) -> float:
    """||M||_F by the dot products and sqrt ``np.linalg.norm(M)`` takes on a
    float64 or complex128 array, so the same bits without its dispatch."""
    flat = M.ravel(order="K")
    if flat.dtype.kind == "c":
        re, im = flat.real, flat.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(flat.dot(flat))


def require_hermitian(M: np.ndarray) -> None:
    """Raise unless max |M - M^dagger| <= HERMITICITY_RTOL * (1 + ||M||_F).

    M is one matrix or a stack M[..., D, D]; in a stack each matrix is held
    to the rule on its own, and the message names the first that fails.
    """
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    if M.size == 0:
        return
    defect = np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bound = HERMITICITY_RTOL * (1.0 + np.linalg.norm(M, axis=(-2, -1)))
    bad = defect > bound
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        what = f"block {', '.join(str(int(i)) for i in at)}" if at else "matrix"
        raise ValueError(
            f"{what} is not Hermitian: defect {defect[at]:.3e} exceeds {bound[at]:.3e}"
        )


def psd_clip(M: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues at zero, for one matrix or a stack M[..., D, D].

    Unchecked: every matrix is taken to be Hermitian.
    """
    w, v = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
