"""Entanglement quantities of a pure resource state.

Both measures are closed-form in the Schmidt coefficients and obey
fef = (1 + 2*negativity)/d; fef lies in [1/d, 1] with the endpoints at
product and maximally entangled resources.
"""

from __future__ import annotations

import math

from .states import ResourceSpectrum


def fef(spec: ResourceSpectrum) -> float:
    """Fully entangled fraction (1/d) (sum_i a_i)^2, with a correctly rounded sum."""
    return math.fsum(spec.coeffs) ** 2 / spec.dim


def negativity(spec: ResourceSpectrum) -> float:
    """sum_{i<j} a_i a_j, as ((sum_i a_i)^2 - sum_i a_i^2) / 2 with correctly
    rounded sums."""
    a = spec.coeffs
    return (math.fsum(a) ** 2 - math.fsum(x * x for x in a)) / 2

