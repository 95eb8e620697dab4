"""Fully entangled fraction and negativity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entdist.measures import fef, negativity
from entdist.states import ResourceSpectrum, build_ensemble, random_spectrum, weyl_basis
from oracles import schmidt_coefficients


def fef_pure(v: np.ndarray, dims: tuple[int, ...], cut: int) -> float:
    """Fully entangled fraction of a normalized pure state across the cut
    after ``cut`` factors, read from its Schmidt coefficients rather than
    from a spectrum."""
    dim_a, dim_b = math.prod(dims[:cut]), math.prod(dims[cut:])
    if dim_a != dim_b:
        raise ValueError(f"bipartition must be square, got {dim_a} x {dim_b}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    a = schmidt_coefficients(v, dims, cut)
    return float(a.sum()) ** 2 / dim_a


def test_fef_benchmark_value():
    # (sqrt(0.8) + sqrt(0.2))^2 / 2 = (1 + 2*0.4)/2
    spec = ResourceSpectrum.from_probabilities([0.8, 0.2])
    assert fef(spec) == pytest.approx(0.9, abs=1e-12)
    assert negativity(spec) == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fef_endpoints(d):
    assert fef(ResourceSpectrum.uniform(d)) == pytest.approx(1.0, abs=1e-12)
    assert fef(ResourceSpectrum.product(d)) == pytest.approx(1.0 / d, abs=1e-12)
    assert negativity(ResourceSpectrum.product(d)) == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_fef_negativity_relation_and_range(seed, d):
    spec = random_spectrum(d, np.random.default_rng(seed))
    f = fef(spec)
    assert f == pytest.approx((1.0 + 2.0 * negativity(spec)) / d, abs=1e-12)
    assert 1.0 / d - 1e-12 <= f <= 1.0 + 1e-12


def test_negativity_matches_the_pair_sum():
    """The suffix-sum form against sum_{i<j} a_i a_j, pair by pair."""
    for d in range(2, 51):
        for seed in range(3):
            spec = random_spectrum(d, np.random.default_rng(seed))
            a = spec.coeffs
            pairs = 0.0
            for i in range(d):
                for j in range(i + 1, d):
                    pairs += a[i] * a[j]
            assert abs(negativity(spec) - pairs) <= 1e-13, (d, seed)
        # the pair loop itself drifts by 1.8e-13 on the uniform spectrum at d = 31
        assert negativity(ResourceSpectrum.uniform(d)) == pytest.approx((d - 1) / 2, abs=1e-13)


def test_fef_pure_on_resource_ket():
    spec = ResourceSpectrum.from_probabilities([0.8, 0.2])
    tau = np.diag(np.asarray(spec.coeffs, dtype=complex)).reshape(-1)
    assert fef_pure(tau, (2, 2), 1) == pytest.approx(fef(spec), abs=1e-12)


def test_fef_pure_of_ensemble_states_matches_resource():
    """Tensoring with a basis state leaves the fraction unchanged."""
    spec = ResourceSpectrum.from_probabilities([0.5, 0.3, 0.2])
    ens = build_ensemble(weyl_basis(3), spec, 9)
    for v in ens.kets():
        assert fef_pure(v, (3, 3, 3, 3), 2) == pytest.approx(
            fef(spec), abs=1e-12
        )


def test_fef_pure_rejects_rectangular_cut():
    with pytest.raises(ValueError):
        fef_pure(np.zeros(6), (2, 3), 1)


def test_fef_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        fef_pure(np.ones(4), (2, 2), 1)
