"""Fully entangled fraction and negativity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entdist.measures import fef, negativity
from entdist.states import (
    ResourceSpectrum,
    build_ensemble,
    four_factor_layout,
    pair_layout,
    random_spectrum,
    schmidt_coefficients,
    weyl_basis,
)
from entdist.tensor import SubsystemLayout


def fef_pure(v: np.ndarray, layout: SubsystemLayout) -> float:
    """Fully entangled fraction of a normalized pure state across the cut,
    read from its Schmidt coefficients rather than from a spectrum."""
    if layout.dim_a != layout.dim_b:
        raise ValueError(
            f"bipartition must be square, got {layout.dim_a} x {layout.dim_b}"
        )
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    a = schmidt_coefficients(v, layout)
    return float(a.sum()) ** 2 / layout.dim_a


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
    assert fef_pure(tau, pair_layout(2)) == pytest.approx(fef(spec), abs=1e-12)


def test_fef_pure_of_ensemble_states_matches_resource():
    """Tensoring with a basis state leaves the fraction unchanged."""
    spec = ResourceSpectrum.from_probabilities([0.5, 0.3, 0.2])
    ens = build_ensemble(weyl_basis(3), spec, 9)
    for v in ens.kets():
        assert fef_pure(v, four_factor_layout(3)) == pytest.approx(
            fef(spec), abs=1e-12
        )


def test_fef_pure_rejects_rectangular_cut():
    lay = pair_layout(2)
    bad = np.zeros(6)
    with pytest.raises(ValueError):
        fef_pure(bad, type(lay)((2, 3), cut=1))


def test_fef_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        fef_pure(np.ones(4), pair_layout(2))
