"""Spectra, bases, ensembles, and the basis file format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entdist.states import (
    Ensemble,
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    conjugated_basis,
    dump_basis_file,
    four_factor_layout,
    haar_random_unitary,
    load_basis_file,
    max_ent_state,
    pair_layout,
    random_spectrum,
    resource_state,
    schmidt_coefficients,
    validate_basis,
    weyl_basis,
)


class TestResourceSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ResourceSpectrum((0.4472135954999579, 0.8944271909999159))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceSpectrum.from_amplitudes([1.2, -0.2])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ResourceSpectrum((0.9, 0.1))

    def test_from_probabilities_sorts_and_roots(self):
        spec = ResourceSpectrum.from_probabilities([0.2, 0.8])
        assert spec.coeffs[0] == pytest.approx(np.sqrt(0.8))
        assert spec.coeffs[1] == pytest.approx(np.sqrt(0.2))

    def test_normalize_flag(self):
        spec = ResourceSpectrum.from_probabilities([4, 1], normalize=True)
        assert spec.coeffs[0] ** 2 == pytest.approx(0.8)

    def test_presets(self):
        uni = ResourceSpectrum.uniform(3)
        assert all(a == pytest.approx(1 / np.sqrt(3)) for a in uni.coeffs)
        prod = ResourceSpectrum.product(3)
        assert prod.coeffs == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("d", [10**5, 10**6])
    def test_uniform_builds_at_large_dimension(self, d):
        """The squared coefficients are summed exactly, so rounding does not
        grow with d, and the 1e-12 check still refuses a norm off by 1e-11."""
        spec = ResourceSpectrum.uniform(d)
        assert spec.dim == d
        off = np.sqrt(1.0 + 1e-11) * np.asarray(spec.coeffs)
        with pytest.raises(ValueError, match="sum to 1"):
            ResourceSpectrum(tuple(off))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
    def test_random_spectrum_is_valid(self, seed, d):
        spec = random_spectrum(d, np.random.default_rng(seed))
        assert spec.dim == d
        assert sum(a * a for a in spec.coeffs) == pytest.approx(1.0, abs=1e-12)


class TestWeylBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_accepted_and_complete(self, d):
        basis = weyl_basis(d)
        report = validate_basis(basis.unitaries)
        assert report.accepted and report.complete
        assert report.unitarity_defect < 1e-12
        assert report.orthogonality_defect < 1e-12

    def test_d2_elements(self):
        basis = weyl_basis(2)
        eye, z, x, xz = basis.unitaries
        assert np.allclose(eye, np.eye(2))
        assert np.allclose(z, np.diag([1.0, -1.0]))
        assert np.allclose(x, np.array([[0, 1], [1, 0]]))
        assert np.allclose(xz, np.array([[0, -1], [1, 0]]))

    def test_first_unitary_must_be_identity(self):
        basis = weyl_basis(2)
        reordered = basis.unitaries[1:] + basis.unitaries[:1]
        with pytest.raises(ValueError):
            MaxEntBasis(dim=2, unitaries=reordered)

    def test_incomplete_set_rejected(self):
        basis = weyl_basis(2)
        with pytest.raises(ValueError):
            MaxEntBasis(dim=2, unitaries=basis.unitaries[:3])

    def test_kets_are_orthonormal(self):
        kets = weyl_basis(3).kets()
        gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        assert np.allclose(gram, np.eye(9), atol=1e-12)


class TestMaxEntState:
    def test_standard_state(self):
        ket = max_ent_state(np.eye(2))
        expect = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(ket, expect)

    def test_overlap_is_normalized_trace(self):
        """<Psi_1|(1 (x) U)|Psi_1> = Tr(U)/d."""
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            u = haar_random_unitary(d, rng)
            got = np.vdot(max_ent_state(np.eye(d)), max_ent_state(u))
            assert got == pytest.approx(np.trace(u) / d, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            max_ent_state(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_uniform_schmidt_coefficients(self):
        rng = np.random.default_rng(12)
        v = max_ent_state(haar_random_unitary(3, rng))
        coeffs = schmidt_coefficients(v, pair_layout(3))
        assert np.allclose(coeffs, np.full(3, 1 / np.sqrt(3)), atol=1e-12)


class TestEnsemble:
    def test_states_orthonormal_and_uniform(self):
        ens = build_ensemble(weyl_basis(2), ResourceSpectrum.from_probabilities([0.8, 0.2]), 4)
        assert len(ens) == 4
        assert ens.uniform
        gram = np.array(
            [[np.vdot(a, b) for b in ens.states] for a in ens.states]
        )
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_schmidt_structure_across_cut(self):
        """Across A:B each state carries d copies of each a_j/sqrt(d)."""
        d = 3
        spec = ResourceSpectrum.from_probabilities([0.5, 0.3, 0.2])
        ens = build_ensemble(weyl_basis(d), spec, d * d)
        expect = np.sort(np.repeat(np.asarray(spec.coeffs) / np.sqrt(d), d))[::-1]
        for v in ens.states:
            got = schmidt_coefficients(v, four_factor_layout(d))
            assert np.allclose(got, expect, atol=1e-12)

    def test_rejects_nonorthogonal(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        with pytest.raises(ValueError):
            Ensemble(
                layout=pair_layout(2), states=(v, v), priors=(0.5, 0.5)
            )

    def test_rejects_bad_priors(self):
        ens_states = build_ensemble(
            weyl_basis(2), ResourceSpectrum.uniform(2), 2
        ).states
        with pytest.raises(ValueError):
            Ensemble(layout=four_factor_layout(2), states=ens_states, priors=(0.9, 0.2))

    def test_resource_state_layout(self):
        spec = ResourceSpectrum.from_probabilities([0.8, 0.2])
        tau = resource_state(spec)
        assert tau[0] == pytest.approx(np.sqrt(0.8))
        assert tau[3] == pytest.approx(np.sqrt(0.2))
        assert tau[1] == tau[2] == 0.0


def _loop_validation(mats):
    """The pairwise Python loop validate_basis replaced, kept as the oracle."""
    d = mats[0].shape[0]
    unit = max(float(np.max(np.abs(U.conj().T @ U - np.eye(d)))) for U in mats)
    orth = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            orth = max(orth, abs(np.trace(mats[i].conj().T @ mats[j])))
    return unit, float(orth)


class TestBatchedValidation:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_the_pairwise_loop(self, d):
        rng = np.random.default_rng(31 + d)
        weyl = weyl_basis(d).unitaries
        rotated = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng)).unitaries
        skewed = (weyl[0] + 1e-6 * rng.standard_normal((d, d)),) + weyl[1:]
        for mats in (weyl, rotated, rotated[: d + 1], skewed, weyl[:1]):
            report = validate_basis(mats)
            unit, orth = _loop_validation(mats)
            assert abs(report.unitarity_defect - unit) <= 1e-15
            assert abs(report.orthogonality_defect - orth) <= 1e-15
            accepted = unit < 1e-10 and orth < 1e-10
            assert report.accepted == accepted
            assert report.complete == (len(mats) == d * d)
        assert not validate_basis(skewed).accepted

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            validate_basis([np.eye(2), np.eye(3)])


class TestConjugatedBasis:
    def test_still_a_valid_basis(self):
        rng = np.random.default_rng(13)
        basis = conjugated_basis(weyl_basis(3), haar_random_unitary(3, rng))
        assert validate_basis(basis.unitaries).accepted
        assert np.allclose(basis.unitaries[0], np.eye(3))

    def test_identity_conjugation_is_noop(self):
        basis = weyl_basis(2)
        same = conjugated_basis(basis, np.eye(2))
        for a, b in zip(basis.unitaries, same.unitaries):
            assert np.allclose(a, b)


class TestBasisFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "weyl3.json"
        basis = weyl_basis(3)
        dump_basis_file(basis, path)
        loaded = load_basis_file(path)
        assert loaded.dim == 3
        for a, b in zip(basis.unitaries, loaded.unitaries):
            assert np.allclose(a, b, atol=1e-15)

    def test_malformed_payloads(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "unitaries": "garbage"}')
        with pytest.raises(ValueError):
            load_basis_file(bad)
        bad.write_text('{"unitaries": []}')
        with pytest.raises(ValueError):
            load_basis_file(bad)
        # dim must be a JSON integer, not a float, a string or a bool
        for dim in ("1e999", "2.7", "2.9999", "2.0", '"2"', "true", "null"):
            bad.write_text(f'{{"dim": {dim}, "unitaries": []}}')
            with pytest.raises(ValueError, match="malformed basis file"):
                load_basis_file(bad)

    def test_wrong_entry_count(self, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text('{"dim": 2, "unitaries": [[[1, 0], [0, 0]]]}')
        with pytest.raises(ValueError):
            load_basis_file(bad)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_haar_unitaries_are_unitary(seed):
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(3, rng)
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
