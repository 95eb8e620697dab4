"""Dual certificate: construction, feasibility, and structural identities."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from entdist import certificate, cli
from entdist.certificate import (
    DualCertificate,
    _decomposition_residuals,
    _feasibility_margin,
    _remainder,
    _schmidt_sectors,
    build_certificate,
    check_swap_transpose_identity,
    gamma_operator,
    pair_projectors,
    upsilon,
    upsilon_spectrum_check,
    verify_dual_feasibility,
)
from entdist.measures import fef
from entdist.states import (
    SWAP_B1_A2,
    Ensemble,
    ResourceSpectrum,
    build_ensemble,
    conjugated_basis,
    four_factor_layout,
    haar_random_unitary,
    max_ent_state,
    pair_layout,
    random_spectrum,
    resource_state,
    weyl_basis,
)
from entdist.tensor import (
    SubsystemLayout,
    frobenius,
    partial_transpose,
    permute_factors,
    transpose_party_a,
)


def _dense_h(cert):
    """The d^4 x d^4 certificate on A1,B1,A2,B2 and on A1,A2,B1,B2.

    The package never forms these matrices; the tests build them as the
    oracle for its sector-by-sector route.
    """
    d = cert.dim
    inner = np.diag(cert.weights.ravel()).astype(complex)
    factored = cert.scale / d**3 * np.kron(np.eye(d * d, dtype=complex), inner)
    return factored, permute_factors(factored, four_factor_layout(d), SWAP_B1_A2)


def _dense_shifted(cert, state, prior):
    """T_A(H - p |s><s|) on A1,A2,B1,B2, built densely."""
    rho = np.outer(state, state.conj())
    layout = four_factor_layout(cert.dim)
    return transpose_party_a(_dense_h(cert)[1] - prior * rho, layout)


def _min_eigenvalue(M):
    return float(np.linalg.eigvalsh(M)[0])


@pytest.fixture(scope="module")
def d2_setup():
    basis = weyl_basis(2)
    spec = ResourceSpectrum.from_probabilities([0.8, 0.2])
    return basis, spec


class TestBuild:
    def test_trace_equals_fef_benchmark(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec)
        assert cert.trace_value == pytest.approx(0.9, abs=1e-12)
        assert cert.scale == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_equals_fef_random(self, d):
        rng = np.random.default_rng(101)
        basis = weyl_basis(d)
        for _ in range(5):
            spec = random_spectrum(d, rng)
            cert = build_certificate(basis, spec)
            assert abs(cert.trace_value - fef(spec)) < 1e-12

    def test_product_resource_collapses_cross_terms(self):
        """With a single Schmidt term the operator is identity (x) resource."""
        d = 3
        spec = ResourceSpectrum.product(d)
        cert = build_certificate(weyl_basis(d), spec)
        tau = resource_state(spec)
        expect = np.kron(
            np.eye(d * d, dtype=complex), np.outer(tau, tau.conj())
        ) / d**3
        assert frobenius(_dense_h(cert)[0] - expect) < 1e-14
        assert cert.trace_value == pytest.approx(1.0 / d, abs=1e-12)

    def test_swapped_copy_is_similar(self, d2_setup):
        basis, spec = d2_setup
        factored, swapped = _dense_h(build_certificate(basis, spec))
        assert np.trace(swapped) == pytest.approx(np.trace(factored), abs=1e-13)
        w1 = np.linalg.eigvalsh(factored)
        w2 = np.linalg.eigvalsh(swapped)
        assert np.allclose(w1, w2, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_inner_factor_is_diagonal(self, d):
        """tau + 2 sum a_i a_j T_first(|ij-><ij-|) = sum_ij a_i a_j |ij><ij|."""
        rng = np.random.default_rng(103)
        spec = random_spectrum(d, rng)
        cert = build_certificate(weyl_basis(d), spec, d + 1)
        a = np.asarray(spec.coeffs)
        assert np.array_equal(cert.weights, np.outer(a, a))
        tau = resource_state(spec)
        bracket = np.outer(tau, tau.conj())
        _, _, antisym = pair_projectors(d)
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        for (i, j), proj in zip(pairs, antisym):
            bracket += 2.0 * a[i] * a[j] * partial_transpose(proj, pair_layout(d), (0,))
        assert np.max(np.abs(bracket - np.diag(cert.weights.ravel()))) < 1e-15
        assert cert.trace_value == pytest.approx(np.trace(_dense_h(cert)[0]).real, abs=1e-14)

    def test_stored_fields_are_checked(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec)
        fields = dict(dim=2, n_states=4, scale=1.0, weights=cert.weights)
        with pytest.raises(ValueError, match="does not match"):
            DualCertificate(trace_value=cert.trace_value + 1e-9, **fields)
        for bad in (cert.weights + 0j, cert.weights.ravel()):
            fields["weights"] = bad
            with pytest.raises(ValueError, match="real 2 x 2"):
                DualCertificate(trace_value=cert.trace_value, **fields)

    def test_scaled_certificate_trace(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec, n_states=3)
        assert cert.scale == pytest.approx(4.0 / 3.0)
        assert cert.trace_value == pytest.approx(1.2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_certificate(weyl_basis(2), ResourceSpectrum.uniform(3))


class TestFeasibility:
    def test_d2_passes_with_tight_margins(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec)
        ens = build_ensemble(basis, spec, 4)
        report = verify_dual_feasibility(cert, ens, 1e-9, basis=basis, spec=spec)
        assert report.passed
        assert len(report.lambda_mins) == 4
        # the constraint is tight: margins sit at numerical zero
        assert report.worst_lambda_min > -1e-12
        assert report.worst_decomposition_residual < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_spectra_pass(self, d):
        rng = np.random.default_rng(202)
        basis = weyl_basis(d)
        for _ in range(3):
            spec = random_spectrum(d, rng)
            cert = build_certificate(basis, spec)
            ens = build_ensemble(basis, spec, d * d)
            report = verify_dual_feasibility(cert, ens, 1e-9, basis=basis, spec=spec)
            assert report.passed
            assert report.worst_decomposition_residual < 1e-12

    def test_scaled_feasibility_for_incomplete_sets(self, d2_setup):
        basis, spec = d2_setup
        for n in (3, 4):
            cert = build_certificate(basis, spec, n_states=n)
            ens = build_ensemble(basis, spec, n)
            report = verify_dual_feasibility(cert, ens, 1e-9, basis=basis, spec=spec)
            assert report.passed

    def test_mismatched_ensemble_rejected(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec, n_states=3)
        ens = build_ensemble(basis, spec, 4)
        with pytest.raises(ValueError):
            verify_dual_feasibility(cert, ens, 1e-9)

    def test_report_serializes(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec)
        ens = build_ensemble(basis, spec, 4)
        payload = verify_dual_feasibility(cert, ens, 1e-9).to_dict()
        assert payload["passed"] is True
        assert len(payload["lambda_mins"]) == 4


class TestParts:
    def test_projector_completeness(self):
        for d in (2, 3):
            diag, sym, antisym = pair_projectors(d)
            total = sum(diag) + sum(sym) + sum(antisym)
            assert frobenius(total - np.eye(d * d)) < 1e-12

    def test_gamma_psd_and_trace(self):
        spec = ResourceSpectrum.from_probabilities([0.5, 0.3, 0.2])
        gamma_op = gamma_operator(spec)
        assert _min_eigenvalue(gamma_op) >= -1e-9 * (1.0 + frobenius(gamma_op))
        # trace = sum a_i^2 + sum_{i<j} a_i a_j
        a = np.asarray(spec.coeffs)
        expect = float(np.sum(a * a) + sum(
            a[i] * a[j] for i in range(3) for j in range(i + 1, 3)
        ))
        assert np.trace(gamma_op).real == pytest.approx(expect, abs=1e-12)

    def test_transposed_resource_reconstruction(self):
        """T_first(tau) = Gamma - sum a_i a_j |ij-><ij-|."""
        d = 3
        spec = ResourceSpectrum.from_probabilities([0.6, 0.3, 0.1])
        _, _, antisym = pair_projectors(d)
        tau = resource_state(spec)
        lhs = partial_transpose(
            np.outer(tau, tau.conj()), pair_layout(d), (0,)
        )
        rhs = gamma_operator(spec)
        a = spec.coeffs
        idx = 0
        for i in range(d):
            for j in range(i + 1, d):
                rhs -= a[i] * a[j] * antisym[idx]
                idx += 1
        assert frobenius(lhs - rhs) < 1e-12


class TestUpsilon:
    @pytest.mark.parametrize("d", [2, 3])
    def test_two_point_spectrum(self, d):
        report = upsilon_spectrum_check(weyl_basis(d))
        assert report.passed
        assert report.spectrum_defect < 1e-10
        assert report.complement_defect < 1e-10

    def test_first_upsilon_is_identity_minus_swap(self):
        """For the identity generator the transpose produces the swap."""
        d = 3
        ups = upsilon(weyl_basis(d), 0)
        swap = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                swap[j * d + i, i * d + j] = 1.0
        assert frobenius(ups - (np.eye(d * d) - swap)) < 1e-12

    def test_d2_eigenvalues(self):
        for k in range(4):
            w = np.linalg.eigvalsh(upsilon(weyl_basis(2), k))
            assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-10)


class TestSwapTransposeIdentity:
    def test_identity_pair_is_exact(self):
        assert check_swap_transpose_identity(np.eye(4), np.eye(4)) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_pairs(self, d):
        rng = np.random.default_rng(404)
        for _ in range(20):
            lam = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal(
                (d * d, d * d)
            )
            xi = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal(
                (d * d, d * d)
            )
            assert check_swap_transpose_identity(lam, xi) < 1e-12

    def test_basis_state_with_resource(self):
        """The exact pair the feasibility argument relies on."""
        basis = weyl_basis(2)
        spec = ResourceSpectrum.from_probabilities([0.8, 0.2])
        psi = max_ent_state(basis.unitaries[2])
        tau = resource_state(spec)
        residual = check_swap_transpose_identity(
            np.outer(psi, psi.conj()), np.outer(tau, tau.conj())
        )
        assert residual < 1e-12

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            check_swap_transpose_identity(np.eye(4), np.eye(9))
        with pytest.raises(ValueError):
            check_swap_transpose_identity(np.eye(3), np.eye(3))


def test_feasibility_threshold_scales_with_certificate_norm(d2_setup):
    basis, spec = d2_setup
    cert = build_certificate(basis, spec)
    ens = build_ensemble(basis, spec, 4)
    report = verify_dual_feasibility(cert, ens, 1e-9)
    assert report.threshold == pytest.approx(
        -1e-9 * (1.0 + frobenius(_dense_h(cert)[1]))
    )


def test_shifted_operators_are_psd_not_just_marginal(d2_setup):
    """Spot-check one shifted operator end to end with the generic test."""
    basis, spec = d2_setup
    cert = build_certificate(basis, spec)
    ens = build_ensemble(basis, spec, 4)
    assert _min_eigenvalue(_dense_shifted(cert, ens.states[1], 1.0 / 4.0)) > -1e-12


def _off_sector_norm(M, d):
    """Frobenius norm of M outside the Schmidt sectors, from a boolean mask."""
    inside = np.zeros(M.shape, dtype=bool)
    for stack in _schmidt_sectors(d):
        for sector in stack:
            inside[np.ix_(sector, sector)] = True
    return frobenius(np.where(inside, 0.0, M))


def _sector_cases():
    rng = np.random.default_rng(404)
    for d in (2, 3, 4):
        spec = random_spectrum(d, rng)
        weyl = weyl_basis(d)
        rotated = conjugated_basis(weyl, haar_random_unitary(d, rng))
        yield pytest.param(weyl, spec, d * d, id=f"weyl-d{d}")
        yield pytest.param(rotated, spec, d * d, id=f"haar-d{d}")
        yield pytest.param(rotated, spec, d + 1, id=f"haar-d{d}-N{d + 1}")


def _random_kets(d, n, seed):
    """n orthonormal kets on A1,A2,B1,B2 with mass off the Schmidt sectors."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d**4, n)) + 1j * rng.standard_normal((d**4, n))
    return tuple(np.linalg.qr(g)[0].T)


def _per_pair_residuals(cert, basis, spec, priors):
    """The decomposition residual from dense d^4 x d^4 krons, one per projector."""
    d = cert.dim
    factored = _dense_h(cert)[0]
    gamma_op = gamma_operator(spec)
    _, _, antisym = pair_projectors(d)
    tau = resource_state(spec)
    tau_rho = np.outer(tau, tau.conj())
    lay4 = SubsystemLayout((d, d, d, d), cut=2)
    a = spec.coeffs
    out = []
    for k, prior in enumerate(priors):
        psi = max_ent_state(basis.unitaries[k])
        lhs = partial_transpose(
            factored - prior * np.kron(np.outer(psi, psi.conj()), tau_rho),
            lay4,
            (0, 2),
        )
        ups = upsilon(basis, k)
        half = np.eye(d * d, dtype=complex) - 0.5 * ups
        rhs = np.kron(ups, gamma_op)
        idx = 0
        for i in range(d):
            for j in range(i + 1, d):
                rhs += 2.0 * a[i] * a[j] * np.kron(half, antisym[idx])
                idx += 1
        rhs *= cert.scale / d**3
        out.append(frobenius(lhs - rhs))
    return out


class TestSectorMargin:
    """The sector-by-sector route against the dense d^4 x d^4 oracle."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_sectors_partition_the_indices(self, d):
        diagonal, paired = _schmidt_sectors(d)
        assert diagonal.shape == (d, d * d)
        assert paired.shape == (d * (d - 1) // 2, 2 * d * d)
        together = np.concatenate([diagonal.reshape(-1), paired.reshape(-1)])
        assert np.array_equal(np.sort(together), np.arange(d**4))
        # a sector of A1,A2,B1,B2 is a sector of the pair A2,B2 under every
        # (a1, b1): |ii>, then |ij> and |ji> for i < j
        i, j = np.triu_indices(d, 1)
        pair_sectors = (
            (np.arange(d) * (d + 1))[:, None],
            np.stack([i * d + j, j * d + i], axis=1),
        )
        a2b2 = [(stack // (d * d) % d) * d + stack % d for stack in (diagonal, paired)]
        for stack, pair_stack in zip(a2b2, pair_sectors):
            assert np.array_equal(stack[:, :: d * d], pair_stack)

    @pytest.mark.parametrize("basis, spec, n", list(_sector_cases()))
    def test_matches_the_dense_minimum(self, basis, spec, n):
        cert = build_certificate(basis, spec, n)
        ens = build_ensemble(basis, spec, n)
        report = verify_dual_feasibility(cert, ens, 1e-9)
        assert report.passed
        for state, prior, margin in zip(ens.states, ens.priors, report.lambda_mins):
            shifted = _dense_shifted(cert, state, prior)
            # the ensembles the package builds leave nothing outside the sectors
            assert _off_sector_norm(shifted, cert.dim) == 0.0
            assert _remainder(cert, state, prior) == 0.0
            assert abs(margin - _min_eigenvalue(shifted)) <= 1e-14

    def test_states_that_break_the_sectors_get_a_lower_bound(self):
        rng = np.random.default_rng(405)
        for d in (2, 3, 4):
            cert = build_certificate(weyl_basis(d), random_spectrum(d, rng))
            ens = Ensemble(
                layout=four_factor_layout(d),
                states=_random_kets(d, d * d, 406),
                priors=(1.0 / (d * d),) * (d * d),
            )
            report = verify_dual_feasibility(cert, ens, 1e-9)
            for state, prior, margin in zip(ens.states, ens.priors, report.lambda_mins):
                shifted = _dense_shifted(cert, state, prior)
                off = _off_sector_norm(shifted, d)
                assert off > 1e-3
                assert abs(_remainder(cert, state, prior) - off) <= 1e-14
                assert margin <= _min_eigenvalue(shifted)

    def test_non_hermitian_shifted_operator_is_refused(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec)
        ens = build_ensemble(basis, spec, 4)
        skewed = cert.weights.astype(complex)
        # W[0, 1] sits on the diagonal of a {0, 1} sector block
        skewed[0, 1] += 1e-3j
        # eigvalsh reads the real part of the diagonal only, so the block
        # check must catch this
        object.__setattr__(cert, "weights", skewed)
        with pytest.raises(ValueError, match="not Hermitian"):
            _feasibility_margin(cert, ens.states[0], ens.priors[0])


@pytest.mark.parametrize("basis, spec, n", list(_sector_cases()))
def test_one_kron_residual_matches_the_per_pair_sum(basis, spec, n):
    """The sector-by-sector residual against dense krons, one per projector."""
    cert = build_certificate(basis, spec, n)
    priors = (1.0 / n,) * n
    got = _decomposition_residuals(cert, basis, spec, priors)
    want = _per_pair_residuals(cert, basis, spec, priors)
    assert len(got) == n
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-14
    assert max(got) < 1e-12


def test_d6_check_stays_below_one_dense_operator():
    """Certificate and feasibility check at d = 6 hold less than one d^4 x d^4."""
    d = 6
    basis, spec = weyl_basis(d), ResourceSpectrum.uniform(d)
    tracemalloc.start()
    try:
        cert = build_certificate(basis, spec)
        ens = build_ensemble(basis, spec, d * d)
        report = verify_dual_feasibility(cert, ens, 1e-9, basis=basis, spec=spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * d**8


def test_certificate_run_builds_each_upsilon_once(monkeypatch):
    """One certificate run forms each of the d^2 operators Y_k once."""
    calls = []
    build = certificate.upsilon

    def counted(basis, k):
        calls.append(k)
        return build(basis, k)

    monkeypatch.setattr(certificate, "upsilon", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certificate", "--dim", "3"]) == 0
    assert sorted(calls) == list(range(9))
