"""Spectra, bases, ensembles, and the basis file format."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entdist.certificate import build_certificate
from entdist.protocol import incomplete_bounds, teleport_residuals
from entdist.sdp import sandwich_report, solve_primal_ppt
from entdist.states import (
    Ensemble,
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    dump_basis_file,
    problem_size,
    random_spectrum,
    resource_state,
    validate_basis,
    weyl_basis,
)
from oracles import (
    conjugated_basis,
    haar_random_unitary,
    kron_ensemble,
    load_basis_file,
    max_ent_state,
    power_weyl_unitaries,
    schmidt_coefficients,
)


class TestResourceSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ResourceSpectrum((0.4472135954999579, 0.8944271909999159))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceSpectrum.from_amplitudes([1.2, -0.2])

    @pytest.mark.parametrize("normalize", [False, True])
    def test_rejects_negative_weights(self, normalize):
        with pytest.raises(ValueError, match="^squared weights must be nonnegative"):
            ResourceSpectrum.from_probabilities([0.7, -0.1, 0.4], normalize=normalize)

    @pytest.mark.parametrize("d", [2, 5, 9, 40])
    def test_plain_float_builds_match_the_array_route(self, d):
        """The builds work on plain floats; numpy's array route, which they
        replaced, gives the same bits (its pairwise sum is kept)."""
        rng = np.random.default_rng(90 + d)
        for _ in range(20):
            p = rng.exponential(size=d)
            q = np.asarray([float(v) for v in p])
            want = tuple(sorted(np.sqrt(q / q.sum()).tolist(), reverse=True))
            assert ResourceSpectrum.from_probabilities(p, normalize=True).coeffs == want
            a = np.asarray(sorted(p.tolist(), reverse=True))
            want = tuple((a / np.linalg.norm(a)).tolist())
            assert ResourceSpectrum.from_amplitudes(p, normalize=True).coeffs == want

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ResourceSpectrum((0.9, 0.1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ResourceSpectrum.from_probabilities([1e308, 1e308]),
            lambda: ResourceSpectrum.from_amplitudes([1.2e154, 1.2e154]),
            lambda: ResourceSpectrum((1e200, 0.0)),
        ],
        ids=["probabilities", "amplitudes", "coefficients"],
    )
    def test_refuses_a_coefficient_above_one_before_squaring(self, build):
        """Squaring these overflowed the exact sum of the norm check."""
        with pytest.raises(ValueError, match="at most 1"):
            build()

    def test_admits_a_coefficient_the_norm_check_admits(self):
        spec = ResourceSpectrum((1.0 + 1e-13, 0.0))
        assert spec.coeffs[0] > 1.0

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
        assert basis.validation == report
        assert report.accepted and report.complete
        assert report.unitarity_defect < 1e-12
        assert report.orthogonality_defect < 1e-12

    def test_kept_products_and_unitaries_are_read_only(self):
        """What the validation checked cannot change under its report."""
        basis = weyl_basis(3)
        products = basis.validation.products
        assert np.array_equal(products, basis.unitaries.conj().swapaxes(1, 2) @ basis.unitaries)
        with pytest.raises(ValueError, match="read-only"):
            products[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            basis.unitaries[1] = basis.unitaries[0]

    def test_a_basis_leaves_its_caller_s_array_writable(self):
        unitaries = weyl_basis(2).unitaries.copy()
        MaxEntBasis(dim=2, unitaries=unitaries)
        unitaries[0, 0, 0] = 2.0

    def test_d2_elements(self):
        basis = weyl_basis(2)
        eye, z, x, xz = basis.unitaries
        assert np.allclose(eye, np.eye(2))
        assert np.allclose(z, np.diag([1.0, -1.0]))
        assert np.allclose(x, np.array([[0, 1], [1, 0]]))
        assert np.allclose(xz, np.array([[0, -1], [1, 0]]))

    def test_first_unitary_must_be_identity(self):
        basis = weyl_basis(2)
        reordered = np.concatenate([basis.unitaries[1:], basis.unitaries[:1]])
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
        coeffs = schmidt_coefficients(v, (3, 3), 1)
        assert np.allclose(coeffs, np.full(3, 1 / np.sqrt(3)), atol=1e-12)


QUBITS = ResourceSpectrum.uniform(2)


class TestEnsemble:
    """The checks read the factors psi_k, held as (2, 2) or (4, 4) matrices."""

    def test_states_orthonormal_and_uniform(self):
        ens = build_ensemble(weyl_basis(2), ResourceSpectrum.from_probabilities([0.8, 0.2]), 4)
        assert len(ens) == 4
        assert ens.priors == (0.25,) * 4
        gram = np.array(
            [[np.vdot(a, b) for b in ens.kets()] for a in ens.kets()]
        )
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_schmidt_structure_across_cut(self):
        """Across A:B each state carries d copies of each a_j/sqrt(d)."""
        d = 3
        spec = ResourceSpectrum.from_probabilities([0.5, 0.3, 0.2])
        ens = build_ensemble(weyl_basis(d), spec, d * d)
        expect = np.sort(np.repeat(np.asarray(spec.coeffs) / np.sqrt(d), d))[::-1]
        for v in ens.kets():
            got = schmidt_coefficients(v, (d, d, d, d), 2)
            assert np.allclose(got, expect, atol=1e-12)

    def test_rejects_nonorthogonal(self):
        v = np.zeros((2, 2), dtype=complex)
        v[0, 0] = 1.0
        with pytest.raises(ValueError):
            Ensemble(psi=(v, v), resource=QUBITS, priors=(0.5, 0.5))

    def test_names_the_first_nonorthogonal_pair(self):
        """States 0, 3 and 1, 2 overlap; 0, 1 overlap by 5e-11, inside the tolerance."""
        e = np.eye(4, dtype=complex)
        psi = np.array(
            [
                e[0],
                (e[1] + 5e-11 * e[0]) / np.sqrt(1.0 + 25e-22),
                (e[1] + e[2]) / np.sqrt(2.0),
                (e[0] + e[3]) / np.sqrt(2.0),
            ]
        ).reshape(4, 2, 2)
        with pytest.raises(ValueError, match=r"^states 0 and 3 are not orthogonal$"):
            Ensemble(psi=psi, resource=QUBITS, priors=(0.25,) * 4)
        with pytest.raises(ValueError, match=r"^states 1 and 2 are not orthogonal$"):
            Ensemble(psi=psi[:3], resource=QUBITS, priors=(0.5, 0.25, 0.25))

    @pytest.mark.parametrize("seed", range(12))
    def test_names_the_pair_the_loop_names(self, seed):
        """Against the pairwise loop: the first pair (i < j, row-major) with |<i|j>| > 1e-10.

        Up to three states are bent towards others by 1e-11 (kept), 1e-9 or
        0.3 (refused); seed 7 bends only by 1e-11 and builds.
        """
        rng = np.random.default_rng(seed)
        q = haar_random_unitary(16, rng)
        states = [q[:, k] for k in range(16)]
        for i, j in rng.integers(0, 16, (3, 2)):
            if i != j:
                states[j] = states[j] + rng.choice([1e-11, 1e-9, 0.3]) * states[i]
                states[j] /= np.linalg.norm(states[j])
        pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
        bad = [(i, j) for i, j in pairs if abs(np.vdot(states[i], states[j])) > 1e-10]
        args = dict(
            psi=np.array(states).reshape(16, 4, 4),
            resource=ResourceSpectrum.uniform(4),
            priors=(1 / 16,) * 16,
        )
        if not bad:
            Ensemble(**args)
            return
        with pytest.raises(ValueError, match=rf"^states {bad[0][0]} and {bad[0][1]} are not"):
            Ensemble(**args)

    def test_rejects_a_wrong_length_ket(self):
        """Each psi_k must be d x d for the resource's d."""
        e = np.eye(4, dtype=complex).reshape(4, 2, 2)
        with pytest.raises(ValueError):
            Ensemble(psi=(e[0], e[1, :, :1]), resource=QUBITS, priors=(0.5, 0.5))
        for psi, spec, message in (
            (e[:2, :, :1], QUBITS, r"^psi shape \(2, 2, 1\) does not match \(N, 2, 2\)$"),
            (e[:2].reshape(2, 4), QUBITS, r"^psi shape \(2, 4\) does not match \(N, 2, 2\)$"),
            (e[:2], ResourceSpectrum.uniform(3), r"^psi shape \(2, 2, 2\) does not match \(N, 3, 3\)$"),
        ):
            with pytest.raises(ValueError, match=message):
                Ensemble(psi=psi, resource=spec, priors=(0.5, 0.5))

    def test_rejects_a_non_normalized_ket(self):
        """A norm off by 1e-11 is refused and one off by 1e-13 is kept."""
        e = np.eye(4, dtype=complex).reshape(4, 2, 2)
        args = dict(resource=QUBITS, priors=(0.5, 0.5))
        Ensemble(psi=(e[0], (1.0 + 1e-13) * e[1]), **args)
        for scale in (2.0, 1.0 + 1e-11, 1.0 - 1e-11):
            with pytest.raises(ValueError, match="^ensemble states must be normalized$"):
                Ensemble(psi=(e[0], scale * e[1]), **args)

    def test_density_operators_are_the_outer_products(self):
        ens = build_ensemble(weyl_basis(3), ResourceSpectrum.from_probabilities([0.5, 0.3, 0.2]), 5)
        want = np.array([np.outer(v, v.conj()) for v in ens.kets()])
        assert np.array_equal(ens.density_operators(), want)

    def test_rejects_bad_priors(self):
        ens = build_ensemble(weyl_basis(2), QUBITS, 2)
        with pytest.raises(ValueError):
            Ensemble(psi=ens.psi, resource=QUBITS, priors=(0.9, 0.2))

    def test_resource_state_layout(self):
        spec = ResourceSpectrum.from_probabilities([0.8, 0.2])
        tau = resource_state(spec)
        assert tau[0] == pytest.approx(np.sqrt(0.8))
        assert tau[3] == pytest.approx(np.sqrt(0.2))
        assert tau[1] == tau[2] == 0.0


class TestProblemSize:
    """Every route checks the problem's shape through ``problem_size``."""

    def test_defaults_to_the_whole_basis(self):
        assert problem_size(weyl_basis(3), ResourceSpectrum.uniform(3), None) == 9
        assert problem_size(weyl_basis(3), ResourceSpectrum.uniform(3), 4) == 4

    @pytest.mark.parametrize(
        "route",
        [
            build_ensemble,
            build_certificate,
            teleport_residuals,
            incomplete_bounds,
            solve_primal_ppt,
            sandwich_report,
        ],
        ids=lambda route: route.__name__,
    )
    def test_every_route_refuses_the_same_shapes(self, route):
        with pytest.raises(ValueError, match="^spectrum dimension 3 does not match basis 2$"):
            route(weyl_basis(2), ResourceSpectrum.uniform(3), 3)
        for n in (0, 5):
            with pytest.raises(ValueError, match=rf"^n_states must lie in \[1, 4\], got {n}$"):
                route(weyl_basis(2), QUBITS, n)


class TestStackedBuilds:
    """The broadcast builds against their one-state-at-a-time oracles."""

    @pytest.mark.parametrize("d", range(2, 10))
    def test_weyl_basis_matches_the_matrix_powers(self, d):
        """The matrix powers drift from the exact phases by up to 4.1e-15 at
        d = 9 (next test), so they are matched within 5e-15."""
        unitaries = weyl_basis(d).unitaries
        assert unitaries.shape == (d * d, d, d)
        assert np.array_equal(unitaries[0], np.eye(d))
        assert np.max(np.abs(unitaries - power_weyl_unitaries(d))) <= 5e-15

    @pytest.mark.parametrize("d", range(2, 10))
    def test_weyl_phases_are_exact(self, d):
        """U_(a,b) has w^(bj mod d) at (j + a mod d, j) within 1e-15 of its
        value to 30 digits, and zeros elsewhere."""
        mpmath = pytest.importorskip("mpmath")
        unitaries = weyl_basis(d).unitaries
        with mpmath.workdps(30):
            phases = [
                complex(mpmath.expjpi(mpmath.mpf(2 * k) / d)) for k in range(d)
            ]
        for a in range(d):
            for b in range(d):
                u = unitaries[a * d + b]
                for j in range(d):
                    assert abs(u[(j + a) % d, j] - phases[b * j % d]) <= 1e-15
                    assert np.count_nonzero(u[:, j]) == 1

    @pytest.mark.parametrize("d", range(2, 7))
    def test_build_ensemble_matches_the_kron_build(self, d, tmp_path):
        rng = np.random.default_rng(70 + d)
        spec = random_spectrum(d, rng)
        path = tmp_path / "basis.json"
        dump_basis_file(conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng)), path)
        rotated = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
        for basis in (weyl_basis(d), rotated, load_basis_file(path)):
            for n in (1, d + 1, d * d):
                ens = build_ensemble(basis, spec, n)
                assert ens.psi.shape == (n, d, d)
                kets = ens.kets()
                assert kets.shape == (n, d**4)
                assert np.max(np.abs(kets - kron_ensemble(basis, spec, n))) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_build_ensemble_holds_the_basis_kets(self, d):
        """build_ensemble skips the Gram check the basis already made, and its
        psi_k are the basis kets read as d x d matrices."""
        basis = conjugated_basis(weyl_basis(d), haar_random_unitary(d, np.random.default_rng(d)))
        spec = ResourceSpectrum.uniform(d)
        for n in (1, d + 1, d * d):
            ens = build_ensemble(basis, spec, n)
            assert type(ens) is Ensemble
            assert np.array_equal(ens.psi, basis.kets()[:n].reshape(n, d, d))
            assert ens.resource == spec and ens.priors == (1.0 / n,) * n

    def test_kets_are_the_max_ent_states(self):
        basis = conjugated_basis(weyl_basis(3), haar_random_unitary(3, np.random.default_rng(5)))
        want = np.array([max_ent_state(u) for u in basis.unitaries])
        assert np.array_equal(basis.kets(), want)

    def test_conjugated_basis_conjugates_every_generator(self):
        v = haar_random_unitary(4, np.random.default_rng(6))
        basis = weyl_basis(4)
        want = np.array([v @ u @ v.conj().T for u in basis.unitaries])
        assert np.max(np.abs(conjugated_basis(basis, v).unitaries - want)) <= 1e-15

    def test_names_the_first_misshapen_unitary(self):
        with pytest.raises(ValueError, match=r"expected \(2, 2\), got \(3, 3\)$"):
            validate_basis([np.eye(2), np.eye(2), np.eye(3), np.eye(4)])
        with pytest.raises(ValueError, match=r"expected \(2, 2\), got \(2, 3\)$"):
            validate_basis(np.zeros((4, 2, 3)))


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
        skewed = np.concatenate([[weyl[0] + 1e-6 * rng.standard_normal((d, d))], weyl[1:]])
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

    @pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN", "Infinity"])
    def test_refuses_a_non_finite_entry(self, tmp_path, entry):
        """json reads 1e400 as inf and NaN as nan; the products of the
        unitarity check then warned and reported a defect of nan."""
        path = tmp_path / "weyl2.json"
        dump_basis_file(weyl_basis(2), path)
        payload = json.loads(path.read_text())
        payload["unitaries"][2][1][1] = "ENTRY"
        path.write_text(json.dumps(payload).replace('"ENTRY"', entry))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unitary 2 has a non-finite entry"):
                load_basis_file(path)

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
