"""Entanglement quantities of a pure resource state.

Both measures are closed-form in the Schmidt coefficients and obey
fef = (1 + 2*negativity)/d; fef lies in [1/d, 1] with the endpoints at
product and maximally entangled resources.
"""

from __future__ import annotations

import numpy as np

from .states import ResourceSpectrum, schmidt_coefficients
from .tensor import SubsystemLayout


def fef(spec: ResourceSpectrum) -> float:
    """Fully entangled fraction (1/d) (sum_i a_i)^2."""
    return float(sum(spec.coeffs)) ** 2 / spec.dim


def negativity(spec: ResourceSpectrum) -> float:
    """sum_{i<j} a_i a_j, as sum_i a_i (a_{i+1} + ... + a_{d-1})."""
    a = np.asarray(spec.coeffs)
    return float(a[:-1] @ np.cumsum(a[::-1])[::-1][1:])


def fef_pure(v: np.ndarray, layout: SubsystemLayout) -> float:
    """Fully entangled fraction of a normalized pure state across the cut."""
    if layout.dim_a != layout.dim_b:
        raise ValueError(
            f"bipartition must be square, got {layout.dim_a} x {layout.dim_b}"
        )
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    a = schmidt_coefficients(v, layout)
    return float(a.sum()) ** 2 / layout.dim_a
