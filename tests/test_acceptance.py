"""End-to-end acceptance runs.

Each test drives one headline claim at its stated tolerance and prints a
single pass/fail line with the measured values, so a `pytest -v -s` run
doubles as the verification record. The three routes to the optimum
(teleportation protocol, analytic certificate, PPT solver) must coincide.
"""

import time

import numpy as np

from entdist.certificate import (
    build_certificate,
    upsilon_spectrum_check,
    verify_dual_feasibility,
)
from entdist.measures import fef
from entdist.protocol import incomplete_bounds, protocol_success, teleport_residuals
from entdist.sdp import DEFAULT_ACCURACY, sandwich_report, solve_primal_ppt
from entdist.states import (
    ResourceSpectrum,
    build_ensemble,
    random_spectrum,
    weyl_basis,
)
from oracles import (
    check_swap_transpose_identity,
    conjugated_basis,
    haar_random_unitary,
    residual_gram,
)

BELL_SPEC = ResourceSpectrum.from_probabilities([0.8, 0.2])
SPECTRUM_SEED = 606
BASIS_SEED = 707


def report(log, num: int, ok: bool, detail: str) -> str:
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    log(line)
    return line


def d3_spectra() -> list[tuple[str, ResourceSpectrum]]:
    """Five seeded random spectra plus both endpoints, at d=3."""
    rng = np.random.default_rng(SPECTRUM_SEED)
    named = [(f"random{i}", random_spectrum(3, rng)) for i in range(5)]
    named.append(("uniform", ResourceSpectrum.uniform(3)))
    named.append(("product", ResourceSpectrum.product(3)))
    return named


def sdp_value(basis, spec, n_states) -> float:
    result = solve_primal_ppt(basis, spec, n_states)
    assert result.converged
    return result.primal_value


def certified(result, target) -> bool:
    """The solve's bracket holds F and is at most the accuracy wide."""
    return (
        result.lower_bound <= target <= result.upper_bound
        and result.upper_bound - result.lower_bound <= DEFAULT_ACCURACY
    )


def test_criterion_1_bell_sandwich(acceptance_log):
    """d=2, squared weights (0.8, 0.2): all three routes give 0.9."""
    start = time.perf_counter()
    basis = weyl_basis(2)
    protocol = protocol_success(basis, BELL_SPEC)
    cert = build_certificate(basis, BELL_SPEC)
    sdp = sdp_value(basis, BELL_SPEC, 4)
    elapsed = time.perf_counter() - start

    ok = (
        abs(protocol - 0.9) <= 1e-10
        and abs(cert.trace_value - 0.9) <= 1e-12
        and abs(sdp - 0.9) <= 1e-3
        and elapsed < 10.0
    )
    line = report(
        acceptance_log,
        1,
        ok,
        f"protocol={protocol:.12f} certificate={cert.trace_value:.14f} "
        f"sdp={sdp:.6f} elapsed={elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_2_qutrit_sweep(acceptance_log):
    """d=3 random + endpoint spectra: protocol equals the fully entangled
    fraction, the certificate is dual feasible for every state, and the
    solver lands within 2e-3."""
    start = time.perf_counter()
    basis = weyl_basis(3)
    worst_protocol = worst_sdp = 0.0
    all_feasible = True
    for _, spec in d3_spectra():
        target = fef(spec)
        worst_protocol = max(
            worst_protocol, abs(protocol_success(basis, spec) - target)
        )
        cert = build_certificate(basis, spec)
        ens = build_ensemble(basis, spec, 9)
        feas = verify_dual_feasibility(cert, ens, tol=1e-9)
        all_feasible = all_feasible and feas.passed and len(feas.lambda_mins) == 9
        worst_sdp = max(worst_sdp, abs(sdp_value(basis, spec, 9) - target))
    elapsed = time.perf_counter() - start

    ok = (
        worst_protocol <= 1e-10
        and all_feasible
        and worst_sdp <= 2e-3
        and elapsed < 300.0
    )
    line = report(
        acceptance_log,
        2,
        ok,
        f"worst protocol dev={worst_protocol:.2e} feasible={all_feasible} "
        f"worst sdp dev={worst_sdp:.2e} elapsed={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_3_endpoints(acceptance_log):
    """Product resource pins all three routes at 1/d; a maximally
    entangled resource pins them at 1."""
    rows = []
    ok = True
    for d in (2, 3):
        basis = weyl_basis(d)
        for label, spec, target in (
            ("product", ResourceSpectrum.product(d), 1.0 / d),
            ("maxent", ResourceSpectrum.uniform(d), 1.0),
        ):
            protocol = protocol_success(basis, spec)
            trace = build_certificate(basis, spec).trace_value
            sdp = sdp_value(basis, spec, d * d)
            ok = ok and abs(protocol - target) <= 1e-10
            ok = ok and abs(trace - target) <= 1e-12
            ok = ok and abs(sdp - target) <= 1e-3
            rows.append(f"d={d} {label}: {protocol:.10f}/{trace:.12f}/{sdp:.5f}")
    line = report(acceptance_log, 3, ok, "; ".join(rows))
    assert ok, line


def test_criterion_4_three_bell_states(acceptance_log):
    """Dropping one Bell state: completion bound (2/3)(1 + a1 a2), solver
    between that and the rescaled certificate."""
    basis = weyl_basis(2)
    bounds = incomplete_bounds(basis, BELL_SPEC, 3)
    expected = (2.0 / 3.0) * (1.0 + 0.4)
    sdp = sdp_value(basis, BELL_SPEC, 3)
    ceiling = min(1.0, (4.0 / 3.0) * 0.9)

    ok = (
        abs(bounds.lower - expected) <= 1e-10
        and sdp >= bounds.lower - 1e-3
        and sdp <= ceiling + 1e-3
    )
    line = report(
        acceptance_log,
        4,
        ok,
        f"lower={bounds.lower:.12f} (expected {expected:.12f}) "
        f"sdp={sdp:.6f} ceiling={ceiling:.6f}",
    )
    assert ok, line


def test_criterion_5_product_resource_ceiling(acceptance_log):
    """With a product resource the rescaled certificate gives d/N for
    every admissible subset size."""
    worst = 0.0
    cases = 0
    for d in (2, 3):
        basis = weyl_basis(d)
        spec = ResourceSpectrum.product(d)
        for n in range(d + 1, d * d + 1):
            cert = build_certificate(basis, spec, n_states=n)
            worst = max(worst, abs(cert.trace_value - d / n))
            cases += 1
    ok = worst <= 1e-12
    line = report(
        acceptance_log, 5, ok, f"{cases} cases, worst |trace - d/N| = {worst:.2e}"
    )
    assert ok, line


def test_criterion_6_certificate_structure(acceptance_log):
    """Two-point spectra for every constraint block and exact trace at
    d = 2, 3, 4; the d=4 leg stays under 30 s."""
    ok = True
    details = []
    rng = np.random.default_rng(SPECTRUM_SEED)
    d4_elapsed = 0.0
    for d in (2, 3, 4):
        start = time.perf_counter()
        basis = weyl_basis(d)
        ups = upsilon_spectrum_check(basis)
        trace_dev = 0.0
        for spec in (random_spectrum(d, rng), ResourceSpectrum.uniform(d)):
            cert = build_certificate(basis, spec)
            trace_dev = max(trace_dev, abs(cert.trace_value - fef(spec)))
        elapsed = time.perf_counter() - start
        if d == 4:
            d4_elapsed = elapsed
        ok = ok and ups.passed and trace_dev <= 1e-12
        details.append(f"d={d} spectra dev={ups.spectrum_defect:.1e} "
                       f"trace dev={trace_dev:.1e}")
    ok = ok and d4_elapsed < 30.0
    details.append(f"d=4 leg {d4_elapsed:.2f}s")
    line = report(acceptance_log, 6, ok, "; ".join(details))
    assert ok, line


def test_criterion_7_swap_transpose_identity(acceptance_log):
    """The relabelling/partial-transpose interchange holds on 100 random
    operator pairs at each of d=2 and d=3."""
    rng = np.random.default_rng(BASIS_SEED)
    worst = 0.0
    for d in (2, 3):
        n = d * d
        for _ in range(100):
            lam = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            xi = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            worst = max(worst, check_swap_transpose_identity(lam, xi))
    ok = worst < 1e-12
    line = report(
        acceptance_log, 7, ok, f"200 pairs, worst residual = {worst:.2e}"
    )
    assert ok, line


def test_criterion_8_basis_independence(acceptance_log):
    """Replaying the d=2 benchmark and the d=3 sweep on a seeded random
    maximally entangled basis reproduces the protocol and certificate
    values."""
    rng = np.random.default_rng(BASIS_SEED)
    worst = 0.0

    cases = [(2, BELL_SPEC)] + [(3, spec) for _, spec in d3_spectra()]
    for d, spec in cases:
        plain = weyl_basis(d)
        rotated = conjugated_basis(plain, haar_random_unitary(d, rng))
        worst = max(
            worst,
            abs(protocol_success(plain, spec) - protocol_success(rotated, spec)),
            abs(
                build_certificate(plain, spec).trace_value
                - build_certificate(rotated, spec).trace_value
            ),
        )

    spec = d3_spectra()[0][1]
    rotated = conjugated_basis(weyl_basis(3), haar_random_unitary(3, rng))
    feas = verify_dual_feasibility(
        build_certificate(rotated, spec), build_ensemble(rotated, spec, 9)
    )

    ok = worst <= 1e-9 and feas.passed
    line = report(
        acceptance_log,
        8, ok, f"worst value shift = {worst:.2e}, rotated feasibility "
        f"{'holds' if feas.passed else 'fails'}"
    )
    assert ok, line


def test_criterion_9_gram_cross_check(acceptance_log):
    """The residual Gram matrix and the direct inner products match the
    closed form sum_k a_k^2 (U_i^dag U_j)_kk on 20 random (basis, spectrum)
    pairs."""
    rng = np.random.default_rng(SPECTRUM_SEED + 1)
    worst = 0.0
    for case in range(20):
        d = 2 + case % 2
        basis = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
        spec = random_spectrum(d, rng)
        res = teleport_residuals(basis, spec)
        closed = residual_gram(basis, spec, d * d)
        direct = np.array(
            [[np.vdot(g, h) for h in res.gammas] for g in res.gammas]
        )
        worst = max(
            worst,
            float(np.max(np.abs(res.gram - closed))),
            float(np.max(np.abs(direct - closed))),
        )
    ok = worst <= 1e-12
    line = report(
        acceptance_log, 9, ok, f"20 pairs, worst gram mismatch = {worst:.2e}"
    )
    assert ok, line


def test_criterion_10_d4_sandwich(acceptance_log):
    """d=4 complete Weyl basis, seeded random spectrum: protocol, solver and
    certificate all agree with F within the solver accuracy plus 1e-6, and
    the solve's certified bracket holds F."""
    start = time.perf_counter()
    spec = random_spectrum(4, np.random.default_rng(SPECTRUM_SEED))
    target = fef(spec)
    sandwich = sandwich_report(weyl_basis(4), spec)
    elapsed = time.perf_counter() - start

    slack = DEFAULT_ACCURACY + 1e-6
    worst = max(
        abs(value - target)
        for value in (sandwich.lower, sandwich.sdp_value, sandwich.upper)
    )
    ok = (
        sandwich.agreement
        and sandwich.sdp.converged
        and sandwich.sdp.iterations == 75
        and certified(sandwich.sdp, target)
        and worst <= slack
    )
    line = report(
        acceptance_log,
        10,
        ok,
        f"F={target:.8f} sdp={sandwich.sdp_value:.8f} worst dev={worst:.2e} "
        f"iterations={sandwich.sdp.iterations} elapsed={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_11_d8_solver(acceptance_log):
    """d=8 complete Weyl basis, seeded random spectrum: the solver converges
    on the commutant pair to within the solver accuracy plus 1e-6 of F, with
    a certified bracket that holds F."""
    start = time.perf_counter()
    spec = random_spectrum(8, np.random.default_rng(SPECTRUM_SEED))
    target = fef(spec)
    result = solve_primal_ppt(weyl_basis(8), spec)
    elapsed = time.perf_counter() - start

    dev = abs(result.primal_value - target)
    ok = (
        result.converged
        and certified(result, target)
        and dev <= DEFAULT_ACCURACY + 1e-6
        and elapsed < 20.0
    )
    line = report(
        acceptance_log,
        11,
        ok,
        f"F={target:.8f} sdp={result.primal_value:.8f} dev={dev:.2e} "
        f"iterations={result.iterations} elapsed={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_12_d6_sandwich(acceptance_log):
    """d=6 complete Weyl basis, seeded random spectrum (`sandwich --dim 6
    --spectrum random --seed 4`): protocol, solver and certificate all agree
    with F within the solver accuracy plus 1e-6, and the solve's certified
    bracket holds F. The weights a_i a_j differ from each other, so a
    certificate that reads a wrong weight fails."""
    start = time.perf_counter()
    spec = random_spectrum(6, np.random.default_rng(4))
    target = fef(spec)
    sandwich = sandwich_report(weyl_basis(6), spec)
    elapsed = time.perf_counter() - start

    slack = DEFAULT_ACCURACY + 1e-6
    worst = max(
        abs(value - target)
        for value in (sandwich.lower, sandwich.sdp_value, sandwich.upper)
    )
    ok = (
        len(set(spec.coeffs)) == 6
        and sandwich.agreement
        and sandwich.sdp.converged
        and sandwich.sdp.iterations == 100
        and certified(sandwich.sdp, target)
        and worst <= slack
    )
    line = report(
        acceptance_log,
        12,
        ok,
        f"F={target:.8f} sdp={sandwich.sdp_value:.8f} worst dev={worst:.2e} "
        f"iterations={sandwich.sdp.iterations} elapsed={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_13_d16_solver(acceptance_log):
    """d=16 complete basis, seeded random spectrum (`sdp --dim 16 --spectrum
    random --seed 3`): the solve on the Schmidt sectors of (X, Y) converges
    in its 150 iterations to within the solver accuracy plus 1e-6 of F, with
    a certified bracket that holds F."""
    start = time.perf_counter()
    spec = random_spectrum(16, np.random.default_rng(3))
    target = fef(spec)
    result = solve_primal_ppt(weyl_basis(16), spec)
    elapsed = time.perf_counter() - start

    dev = abs(result.primal_value - target)
    ok = (
        abs(target - 0.77234073) <= 5e-9
        and result.converged
        and result.iterations == 150
        and certified(result, target)
        and dev <= DEFAULT_ACCURACY + 1e-6
    )
    line = report(
        acceptance_log,
        13,
        ok,
        f"F={target:.8f} sdp={result.primal_value:.8f} dev={dev:.2e} "
        f"iterations={result.iterations} elapsed={elapsed:.1f}s",
    )
    assert ok, line
