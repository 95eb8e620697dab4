"""Dual certificate: construction, feasibility, and structural identities."""

import contextlib
import inspect
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

from entdist import cli
from entdist.certificate import (
    DualCertificate,
    UpsilonReport,
    _decomposition_residuals,
    _feasibility_margins,
    build_certificate,
    upsilon_spectrum_check,
    verify_dual_feasibility,
)
from entdist.measures import fef
from entdist.states import (
    Ensemble,
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    dump_basis_file,
    random_spectrum,
    resource_state,
    weyl_basis,
)
from entdist.tensor import frobenius
from oracles import (
    SWAP_B1_A2,
    check_swap_transpose_identity,
    conjugated_basis,
    fresh_upsilon_report,
    gamma_operator,
    haar_random_unitary,
    load_basis_file,
    max_ent_state,
    pair_projectors,
    partial_transpose,
    permute_factors,
    pure_partial_transpose,
    svd_feasibility_margins,
    upsilon,
)


def _dense_h(cert):
    """The d^4 x d^4 certificate on A1,B1,A2,B2 and on A1,A2,B1,B2.

    The package never forms these matrices; the tests build them as the
    oracle for its sector-by-sector route.
    """
    d = cert.dim
    inner = np.diag(cert.weights.ravel()).astype(complex)
    factored = cert.scale / d**3 * np.kron(np.eye(d * d, dtype=complex), inner)
    return factored, permute_factors(factored, (d,) * 4, SWAP_B1_A2)


def _dense_shifted(cert, state, prior):
    """T_A(H - p |s><s|) on A1,A2,B1,B2, built densely."""
    rho = np.outer(state, state.conj())
    return partial_transpose(_dense_h(cert)[1] - prior * rho, (cert.dim,) * 4, (0, 1))


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
            bracket += 2.0 * a[i] * a[j] * partial_transpose(proj, (d, d), (0,))
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
        report = verify_dual_feasibility(cert, ens, 1e-9)
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
            report = verify_dual_feasibility(cert, ens, 1e-9)
            assert report.passed
            assert report.worst_decomposition_residual < 1e-12

    def test_scaled_feasibility_for_incomplete_sets(self, d2_setup):
        basis, spec = d2_setup
        for n in (3, 4):
            cert = build_certificate(basis, spec, n_states=n)
            ens = build_ensemble(basis, spec, n)
            report = verify_dual_feasibility(cert, ens, 1e-9)
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
        report = verify_dual_feasibility(cert, ens, 1e-9)
        payload = json.loads(json.dumps(report, default=cli._json_value))
        assert payload["passed"] is True
        assert len(payload["lambda_mins"]) == 4
        assert payload["worst_lambda_min"] == min(report.lambda_mins)
        assert payload["worst_decomposition_residual"] == max(report.decomposition_residuals)


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
        lhs = partial_transpose(np.outer(tau, tau.conj()), (d, d), (0,))
        rhs = gamma_operator(spec)
        a = spec.coeffs
        idx = 0
        for i in range(d):
            for j in range(i + 1, d):
                rhs -= a[i] * a[j] * antisym[idx]
                idx += 1
        assert frobenius(lhs - rhs) < 1e-12


def _dense_upsilon_report(basis, tol=1e-10):
    """The Y_k spectra from one dense d^2 x d^2 eigenproblem per operator."""
    d = basis.dim
    n_zero = d * (d + 1) // 2
    target = np.concatenate([np.zeros(n_zero), 2.0 * np.ones(d * d - n_zero)])
    target_c = np.concatenate([np.zeros(d * d - n_zero), np.ones(n_zero)])
    spectrum_defect = complement_defect = 0.0
    worst_min = np.inf
    for k in range(len(basis)):
        ups = upsilon(basis, k)
        w = np.linalg.eigvalsh(ups)
        wc = np.linalg.eigvalsh(np.eye(d * d) - 0.5 * ups)
        spectrum_defect = max(spectrum_defect, float(np.max(np.abs(w - target))))
        complement_defect = max(
            complement_defect, float(np.max(np.abs(wc - target_c)))
        )
        worst_min = min(worst_min, float(w[0]), float(wc[0]))
    passed = spectrum_defect <= tol and complement_defect <= tol and worst_min >= -tol
    return UpsilonReport(d, spectrum_defect, complement_defect, worst_min, passed)


def _upsilon_cases():
    rng = np.random.default_rng(408)
    for d in (2, 3, 4, 5):
        weyl = weyl_basis(d)
        yield pytest.param(weyl, id=f"weyl-d{d}")
        rotated = conjugated_basis(weyl, haar_random_unitary(d, rng))
        yield pytest.param(rotated, id=f"haar-d{d}")
    # generators 1e-11 off unitary, inside the basis tolerance: the dense
    # spectra move by about that much, so a check blind to U_k fails here
    weyl = weyl_basis(3)
    bent = tuple(u + 1e-11 * rng.standard_normal((3, 3)) for u in weyl.unitaries)
    yield pytest.param(MaxEntBasis(dim=3, unitaries=bent), id="bent-d3")


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

    @pytest.mark.parametrize("basis", list(_upsilon_cases()))
    def test_matches_the_dense_spectra(self, basis):
        got = upsilon_spectrum_check(basis)
        want = _dense_upsilon_report(basis)
        assert got.passed and want.passed
        for field in ("spectrum_defect", "complement_defect", "min_eigenvalue"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_kept_products_give_the_fresh_report(self, d):
        """The U_k^dag U_k the basis kept from its validation give, field for
        field, the report of products formed afresh from its unitaries."""
        weyl = weyl_basis(d)
        rotated = conjugated_basis(weyl, haar_random_unitary(d, np.random.default_rng(420 + d)))
        for basis in (weyl, rotated):
            assert upsilon_spectrum_check(basis) == fresh_upsilon_report(basis)


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
    assert _min_eigenvalue(_dense_shifted(cert, ens.kets()[1], 1.0 / 4.0)) > -1e-12


def _off_sector_norm(M, d):
    """Frobenius norm of M on A1,A2,B1,B2 outside the Schmidt sectors.

    The sector of an index (a1, a2, b1, b2) is named by the set {a2, b2}.
    """
    _, a2, _, b2 = np.indices((d, d, d, d)).reshape(4, -1)
    label = np.minimum(a2, b2) * d + np.maximum(a2, b2)
    return frobenius(np.where(label[:, None] == label[None, :], 0.0, M))


def _sector_cases():
    rng = np.random.default_rng(404)
    for d in (2, 3, 4):
        spec = random_spectrum(d, rng)
        weyl = weyl_basis(d)
        rotated = conjugated_basis(weyl, haar_random_unitary(d, rng))
        yield pytest.param(weyl, spec, d * d, id=f"weyl-d{d}")
        yield pytest.param(rotated, spec, d * d, id=f"haar-d{d}")
        yield pytest.param(rotated, spec, d + 1, id=f"haar-d{d}-N{d + 1}")


def _bent_basis(d, eps, rng):
    """The Weyl basis with every generator bent to U_k V diag(1 + eps,
    1 - eps, 1, ...) V^dag, V Haar random: inside the basis tolerance, and
    the singular values of each psi_k are no longer flat."""
    v = haar_random_unitary(d, rng)
    stretch = np.ones(d)
    stretch[:2] += (eps, -eps)
    unitaries = weyl_basis(d).unitaries @ (v * stretch) @ v.conj().T
    return MaxEntBasis(dim=d, unitaries=unitaries)


def _margin_cases():
    """The sector cases, and bases bent inside the basis tolerance."""
    yield from _sector_cases()
    rng = np.random.default_rng(409)
    for d in (2, 3, 4):
        spec = random_spectrum(d, rng)
        yield pytest.param(_bent_basis(d, 2e-11, rng), spec, d * d, id=f"bent-d{d}")


class TestMarginsAgainstTheSvd:
    """The margins read s_1(psi_k)^2 as the top eigenvalue of psi_k psi_k^dag;
    the batched SVD they read it from before is the oracle."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_weyl_and_a_haar_basis_file(self, d, tmp_path):
        rng = np.random.default_rng(620 + d)
        path = tmp_path / "haar.json"
        dump_basis_file(conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng)), path)
        for basis in (weyl_basis(d), load_basis_file(path)):
            for spec in (random_spectrum(d, rng), ResourceSpectrum.uniform(d)):
                for n in (d * d, d * d - 1, d + 1, 1):
                    cert = build_certificate(basis, spec, n)
                    ens = build_ensemble(basis, spec, n)
                    got = _feasibility_margins(cert, ens)
                    assert got.shape == (n,)
                    assert np.max(np.abs(got - svd_feasibility_margins(cert, ens))) <= 1e-15

    @pytest.mark.parametrize("d", range(2, 9))
    def test_product_spectrum_margins_vanish(self, d):
        """On the product resource every margin is 0 in exact arithmetic;
        both routes land within rounding of it and the report passes."""
        rng = np.random.default_rng(640 + d)
        spec = ResourceSpectrum.product(d)
        rotated = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
        for basis in (weyl_basis(d), rotated):
            for n in (d * d, d + 1):
                cert = build_certificate(basis, spec, n)
                ens = build_ensemble(basis, spec, n)
                report = verify_dual_feasibility(cert, ens, 1e-9)
                got = np.array(report.lambda_mins)
                want = svd_feasibility_margins(cert, ens)
                assert report.passed
                assert np.max(np.abs(got - want)) <= 1e-15
                assert np.max(np.abs(got)) <= 1e-15


def _per_pair_residuals(cert, basis, spec, priors):
    """The decomposition residual from dense d^4 x d^4 krons, one per projector."""
    d = cert.dim
    factored = _dense_h(cert)[0]
    gamma_op = gamma_operator(spec)
    _, _, antisym = pair_projectors(d)
    tau = resource_state(spec)
    tau_rho = np.outer(tau, tau.conj())
    a = spec.coeffs
    out = []
    for k, prior in enumerate(priors):
        psi = max_ent_state(basis.unitaries[k])
        lhs = partial_transpose(
            factored - prior * np.kron(np.outer(psi, psi.conj()), tau_rho),
            (d, d, d, d),
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
    """The closed-form sector margins against the dense d^4 x d^4 oracle."""

    @pytest.mark.parametrize("basis, spec, n", list(_margin_cases()))
    def test_matches_the_dense_minimum(self, basis, spec, n):
        cert = build_certificate(basis, spec, n)
        ens = build_ensemble(basis, spec, n)
        report = verify_dual_feasibility(cert, ens, 1e-9)
        assert report.passed
        for state, prior, margin in zip(ens.kets(), ens.priors, report.lambda_mins):
            shifted = _dense_shifted(cert, state, prior)
            # the kets leave nothing outside the sectors
            assert _off_sector_norm(shifted, cert.dim) == 0.0
            assert abs(margin - _min_eigenvalue(shifted)) <= 1e-14

    def test_kets_on_another_resource_get_the_exact_margin(self):
        """psi_k (x) tau' with tau' of another spectrum than the certificate's."""
        rng = np.random.default_rng(407)
        for d in (2, 3, 4):
            basis = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
            cert = build_certificate(basis, random_spectrum(d, rng))
            ens = build_ensemble(basis, random_spectrum(d, rng), d * d)
            report = verify_dual_feasibility(cert, ens, 1e-9)
            for state, prior, margin in zip(ens.kets(), ens.priors, report.lambda_mins):
                assert abs(margin - _min_eigenvalue(_dense_shifted(cert, state, prior))) <= 1e-14

    def test_non_hermitian_shifted_operator_is_refused(self, d2_setup):
        basis, spec = d2_setup
        cert = build_certificate(basis, spec)
        ens = build_ensemble(basis, spec, 4)
        skewed = cert.weights.astype(complex)
        # W[0, 1] sits on the diagonal of a {0, 1} sector block
        skewed[0, 1] += 1e-3j
        # the closed form reads real and imaginary parts alike, so the
        # weights check must catch this
        object.__setattr__(cert, "weights", skewed)
        with pytest.raises(ValueError, match="not Hermitian"):
            verify_dual_feasibility(cert, ens, 1e-9)


def _residual_cases():
    """The sector cases with uniform priors, Dirichlet priors, bent weights and
    an ensemble on another resource than the certificate's."""
    for case in _sector_cases():
        yield pytest.param(*case.values, "uniform", id=case.id)
    for case in _sector_cases():
        yield pytest.param(*case.values, "dirichlet", id=f"{case.id}-dirichlet")
        yield pytest.param(*case.values, "tampered", id=f"{case.id}-tampered")
        yield pytest.param(*case.values, "resource", id=f"{case.id}-resource")


def _residual_inputs(basis, spec, n, variant):
    """The certificate and ensemble of a ``_residual_cases`` variant."""
    cert = build_certificate(basis, spec, n)
    priors = (1.0 / n,) * n
    if variant == "resource":
        spec = random_spectrum(basis.dim, np.random.default_rng(411))
    elif variant == "dirichlet":
        priors = tuple(np.random.default_rng(410).dirichlet(np.ones(n)))
    elif variant == "tampered":
        bent = cert.weights.astype(complex)
        bent[0, 1] += 0.1 + 0.1j
        object.__setattr__(cert, "weights", bent)
    return cert, Ensemble(psi=build_ensemble(basis, spec, n).psi, resource=spec, priors=priors)


@pytest.mark.parametrize("basis, spec, n, variant", list(_residual_cases()))
def test_one_kron_residual_matches_the_per_pair_sum(basis, spec, n, variant):
    """The closed-form residual against dense krons, one per projector.

    Dirichlet priors, tampered weights and another resource break the
    identity, so the residual reads well above rounding and every term of it
    is compared.
    """
    cert, ens = _residual_inputs(basis, spec, n, variant)
    got = np.array(_decomposition_residuals(cert, ens))
    want = np.array(_per_pair_residuals(cert, basis, ens.resource, ens.priors))
    assert len(got) == n
    if variant == "uniform":
        assert np.max(np.abs(got - want)) <= 1e-14
        assert got.max() < 1e-12
    else:
        assert got.min() > 1e-3
        assert np.max(np.abs(got - want) / want) <= 1e-10


def _locals_before(func, marker, call):
    """Run ``call()`` and return copies of ``func``'s locals as they stand
    just before the first line of its source that contains ``marker`` runs."""
    lines, start = inspect.getsourcelines(func)
    target = start + next(i for i, line in enumerate(lines) if marker in line)
    seen = {}

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target and not seen:
            for name, value in frame.f_locals.items():
                seen[name] = np.copy(value) if isinstance(value, np.ndarray) else value
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is func.__code__ else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return seen


@pytest.mark.parametrize("basis, spec, n, variant", list(_residual_cases()))
def test_cross_term_is_the_einsum(basis, spec, n, variant):
    """Re<X, Z_k> as one product of the Z stack with the real part of X
    against the einsum it replaced, on the arrays the residual forms. X is
    zero for the weights a a^T of a built certificate, so the weights are
    also bent by a complex matrix whose real and imaginary parts differ, and
    Z_k is nonzero only for priors other than the certificate's."""
    cert, ens = _residual_inputs(basis, spec, n, variant)
    d = basis.dim
    rng = np.random.default_rng(420 + n)
    bend = rng.uniform(-0.1, 0.1, (d, d)) + 1j * rng.uniform(-0.1, 0.1, (d, d))
    for weights in (cert.weights, cert.weights + bend):
        object.__setattr__(cert, "weights", weights)
        at = _locals_before(
            _decomposition_residuals, "z *= z", lambda: _decomposition_residuals(cert, ens)
        )
        want = np.einsum("tij,ktij->k", at["x"].conj(), at["z"]).real
        assert at["cross"].shape == (n,)
        assert np.max(np.abs(at["cross"] - want)) <= 1e-18
    if variant == "dirichlet":
        # Z_k = (c d - p_k) T(tau tau^dag) vanishes where p_k = c d, as it is
        # for the other variants' uniform priors
        assert np.min(np.abs(want)) > 1e-9


def test_d6_check_stays_below_one_dense_operator():
    """Certificate and feasibility check at d = 6 hold less than one d^4 x d^4."""
    d = 6
    basis, spec = weyl_basis(d), ResourceSpectrum.uniform(d)
    tracemalloc.start()
    try:
        cert = build_certificate(basis, spec)
        ens = build_ensemble(basis, spec, d * d)
        report = verify_dual_feasibility(cert, ens, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * d**8


def test_certificate_run_diagonalises_only_the_small_stacks(monkeypatch):
    """certificate --dim 4 diagonalises two (N, d, d) stacks and nothing
    larger: psi_k psi_k^dag for the margins, then the U_k^dag U_k the basis
    kept for the Upsilon check."""
    shapes = []
    for name in ("eigh", "eigvalsh"):

        def recorded(a, *args, _decompose=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _decompose(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certificate", "--dim", "4"]) == 0
    assert shapes == [(16, 4, 4), (16, 4, 4)]


def test_certificate_run_holds_no_d6_array():
    """certificate --dim 8 peaks below one array of d^6 complex entries."""
    d = 8
    # a first run builds the cached parser, which is not the run's arrays
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["certificate", "--dim", "2"])
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["certificate", "--dim", str(d)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * d**6


@pytest.mark.parametrize("d", range(2, 7))
def test_partial_transpose_spectrum_is_read_from_the_singular_values(d):
    """T_A1(|psi><psi|) has the eigenvalues s_m^2 and +-s_m s_n (m < n) for
    the singular values s of psi, here random and far from flat."""
    rng = np.random.default_rng(500 + d)
    for _ in range(5):
        psi = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        psi /= np.linalg.norm(psi)
        s = np.linalg.svd(psi, compute_uv=False)
        m, n = np.triu_indices(d, 1)
        want = np.sort(np.concatenate([s**2, s[m] * s[n], -s[m] * s[n]]))
        got = np.linalg.eigvalsh(pure_partial_transpose(psi))
        assert np.max(np.abs(got - want)) <= 1e-15


def test_runs_build_no_state_one_at_a_time(monkeypatch):
    """certificate --dim 4 and sandwich --dim 3 run with np.kron and
    np.linalg.matrix_power refused: the basis and the ensemble are each one
    broadcast, not a product per state."""

    def refused(*args, **kwargs):
        raise AssertionError("a per-state product came back")

    monkeypatch.setattr(np, "kron", refused)
    monkeypatch.setattr(np.linalg, "matrix_power", refused)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certificate", "--dim", "4"]) == 0
        assert cli.main(["sandwich", "--dim", "3"]) == 0


def test_certificate_route_at_d12():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["certificate", "--dim", "12", "--spectrum", "random", "--seed", "1"])
    report = json.loads(out.getvalue())
    assert code == 0 and report["passed"]
    assert max(report["feasibility"]["decomposition_residuals"]) <= 1e-12
    assert report["trace_value"] == pytest.approx(report["fef"], abs=1e-12)
