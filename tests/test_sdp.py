"""PPT relaxation solver and the three-way sandwich."""

import numpy as np
import pytest

from entdist.certificate import (
    FeasibilityReport,
    build_certificate,
    verify_dual_feasibility,
)
from entdist.measures import fef
from entdist.sdp import (
    _CHECK_EVERY,
    DEFAULT_ACCURACY,
    DEFAULT_MAX_ITERS,
    SDPProblem,
    _consensus,
    _Coordinates,
    _Operators,
    _Sectors,
    dual_bound_from_certificate,
    sandwich_report,
    solve_primal_ppt,
)
from entdist.states import (
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    conjugated_basis,
    four_factor_layout,
    haar_random_unitary,
    pair_layout,
    random_spectrum,
    resource_state,
    weyl_basis,
)
from entdist.tensor import transpose_party_a
from oracles import (
    SWAP_B1_A2,
    closed_form_ppt_clip,
    max_ent_state,
    permute_factors,
    plain_consensus,
)

BELL_SPEC = ResourceSpectrum.from_probabilities([0.8, 0.2])
QUTRIT_SPEC = ResourceSpectrum.from_probabilities([0.55, 0.30, 0.15])


def twisted_clock_basis(seed: int) -> MaxEntBasis:
    """Complete d=3 basis X^a diag(e^{i theta_aj} w^{bj}) with random phases.

    Trace-orthogonal for any theta, but the products of its unitaries leave
    the set, so it is not a group up to phases; the twirl identity that makes
    the pair solve exact holds all the same.
    """
    d = 3
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (d, d))
    theta[0] = 0.0
    shift = np.roll(np.eye(d), 1, axis=0)
    w = np.exp(2j * np.pi * np.arange(d) / d)
    return MaxEntBasis(
        dim=d,
        unitaries=tuple(
            np.linalg.matrix_power(shift, a) @ np.diag(np.exp(1j * theta[a]) * w**b)
            for a in range(d)
            for b in range(d)
        ),
    )


def expand_pair(pair, basis: MaxEntBasis) -> list[np.ndarray]:
    """P_k = W_k (Φ_0 ⊗ X + (I − Φ_0) ⊗ Y) W_k† on A1, A2, B1, B2.

    W_k is the k-th basis unitary on B1 and Φ_0 the maximally entangled
    projector on A1B1: the operators a complete program's pair stands for.
    """
    d = basis.dim
    ket = max_ent_state(np.eye(d))
    phi = np.outer(ket, ket.conj())
    x, y = pair
    p0 = permute_factors(
        np.kron(phi, x) + np.kron(np.eye(d * d) - phi, y),
        four_factor_layout(d),
        SWAP_B1_A2,
    )
    expanded = []
    for u in basis.unitaries:
        w = np.kron(np.kron(np.eye(d * d), u), np.eye(d))
        expanded.append(w @ p0 @ w.conj().T)
    return expanded


class _Pair(_Coordinates):
    """The complete program iterated on the dense pair (X, Y), the oracle
    for its solve on the (P, Q) arrays.

    P_0 = Φ_0 ⊗ X + (I − Φ_0) ⊗ Y; the PPT blocks are M_s = (X^Γ + (d−1) Y^Γ)/d
    and M_a = ((d+1) Y^Γ − X^Γ)/d, clipped by a full eigendecomposition.
    """

    def __init__(self, spec: ResourceSpectrum):
        d = self.d = spec.dim
        self.n = self.multiplicity = d * d
        self.weight = float(d)
        self.metric = np.array([1.0, self.n - 1.0]).reshape(2, 1, 1)
        self.layout = pair_layout(d)
        tau = resource_state(spec)
        self.cost = np.stack([np.outer(tau, tau.conj()), np.zeros((d * d, d * d))]) / self.n

    def deviation(self, stack: np.ndarray) -> np.ndarray:
        return stack[0] + (self.n - 1) * stack[1] - np.eye(self.n)

    def to_blocks(self, stack: np.ndarray) -> np.ndarray:
        d = self.d
        gx, gy = transpose_party_a(stack, self.layout)
        return np.stack([gx + (d - 1) * gy, (d + 1) * gy - gx]) / d

    def from_blocks(self, blocks: np.ndarray) -> np.ndarray:
        d = self.d
        ms, ma = blocks
        return transpose_party_a(np.stack([(d + 1) * ms - (d - 1) * ma, ms + ma]) / 2, self.layout)


@pytest.fixture(scope="module")
def bell_result():
    ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
    return solve_primal_ppt(SDPProblem.from_ensemble(ens))


class TestSolver:
    def test_benchmark_value(self, bell_result):
        assert bell_result.converged
        assert bell_result.primal_value == pytest.approx(0.9, abs=1e-3)

    def test_residuals_small(self, bell_result):
        assert bell_result.primal_residual < 1e-3
        assert bell_result.cone_residual > -1e-6

    def test_rounded_value_close(self, bell_result):
        assert abs(bell_result.rounded_value - bell_result.primal_value) < 1e-3

    def test_operators_match_reported_residuals(self, bell_result):
        ops = bell_result.operators
        layout = build_ensemble(weyl_basis(2), BELL_SPEC, 4).layout
        gap = np.linalg.norm(sum(ops) - np.eye(16))
        assert gap == pytest.approx(bell_result.primal_residual, abs=1e-12)
        worst = 0.0
        for op in ops:
            worst = min(worst, np.linalg.eigvalsh(op).min())
            worst = min(
                worst, np.linalg.eigvalsh(transpose_party_a(op, layout)).min()
            )
        assert worst == pytest.approx(bell_result.cone_residual, abs=1e-12)

    def test_deterministic(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        a = solve_primal_ppt(SDPProblem.from_ensemble(ens))
        b = solve_primal_ppt(SDPProblem.from_ensemble(ens))
        assert a.primal_value == b.primal_value
        assert a.iterations == b.iterations
        for x, y in zip(a.operators, b.operators):
            assert np.array_equal(x, y)

    def test_iterations_monotone_in_accuracy(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        loose = solve_primal_ppt(SDPProblem.from_ensemble(ens, accuracy=1e-3))
        tight = solve_primal_ppt(SDPProblem.from_ensemble(ens, accuracy=1e-5))
        assert loose.iterations <= tight.iterations
        assert abs(tight.primal_value - 0.9) < 1e-3

    def test_iteration_cap_reports_unconverged(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        res = solve_primal_ppt(SDPProblem.from_ensemble(ens, max_iters=10))
        assert not res.converged
        assert res.iterations == 10

    def test_local_unitary_invariance(self):
        """Conjugating every state by V (x) W fixes the optimum."""
        rng = np.random.default_rng(31)
        v = np.kron(haar_random_unitary(4, rng), haar_random_unitary(4, rng))
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        rotated = SDPProblem(
            states=tuple(v @ rho @ v.conj().T for rho in ens.density_operators()),
            priors=ens.priors,
            layout=ens.layout,
        )
        base = solve_primal_ppt(SDPProblem.from_ensemble(ens))
        moved = solve_primal_ppt(rotated)
        assert abs(base.primal_value - moved.primal_value) < 2e-4

    def test_trace_rows(self, bell_result):
        iters = [row["iteration"] for row in bell_result.trace]
        assert iters == sorted(iters)
        assert iters[-1] == bell_result.iterations
        for it in iters[:-1]:
            assert it % 100 == 0
        for row in bell_result.trace:
            assert set(row) >= {
                "iteration",
                "objective",
                "primal_residual",
                "cone_residual",
                "dual_residual",
                "consensus_residual",
            }

    def test_to_dict_omits_operators(self, bell_result):
        d = bell_result.to_dict()
        assert "operators" not in d
        assert d["primal_value"] == bell_result.primal_value


class TestCovariantPath:
    @pytest.mark.parametrize(
        "basis, spec",
        [
            (weyl_basis(2), BELL_SPEC),
            (
                conjugated_basis(
                    weyl_basis(2), haar_random_unitary(2, np.random.default_rng(41))
                ),
                BELL_SPEC,
            ),
            (weyl_basis(3), QUTRIT_SPEC),
            (twisted_clock_basis(5), QUTRIT_SPEC),
        ],
        ids=["weyl2", "haar-weyl2", "weyl3", "twisted3"],
    )
    def test_matches_the_full_solver(self, basis, spec):
        d = basis.dim
        covariant = SDPProblem.from_basis(basis, spec)
        assert covariant.resource == spec and covariant.states == ()
        full = SDPProblem.from_ensemble(build_ensemble(basis, spec, d * d))
        assert full.resource is None
        a, b = solve_primal_ppt(covariant), solve_primal_ppt(full)
        assert a.iterations == b.iterations
        assert a.converged and b.converged
        assert abs(a.primal_value - fef(spec)) <= DEFAULT_ACCURACY + 1e-6
        for name in ("primal_value", "rounded_value", "primal_residual", "cone_residual"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-10, name
        assert [x.shape for x in a.operators] == [(d * d, d * d)] * 2
        expanded = expand_pair(a.operators, basis)
        assert len(expanded) == len(b.operators) == d * d
        for x, y in zip(expanded, b.operators):
            assert np.max(np.abs(x - y)) <= 1e-10
        assert len(a.trace) == len(b.trace)
        for row_a, row_b in zip(a.trace, b.trace):
            assert row_a["iteration"] == row_b["iteration"]
            for name in ("objective", "primal_residual", "cone_residual"):
                assert abs(row_a[name] - row_b[name]) <= 1e-10, name

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    def test_matches_the_pair_solver(self, d, kind):
        if kind == "uniform":
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(50 + d))
        a = solve_primal_ppt(SDPProblem.from_basis(weyl_basis(d), spec))
        b = _consensus(_Pair(spec), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert a.iterations == b.iterations
        assert a.converged and b.converged
        for name in ("primal_value", "rounded_value", "primal_residual", "cone_residual"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, name
        assert len(a.trace) == len(b.trace)
        for row_a, row_b in zip(a.trace, b.trace):
            assert row_a["iteration"] == row_b["iteration"]
            for name in ("objective", "primal_residual", "cone_residual"):
                assert abs(row_a[name] - row_b[name]) <= 1e-12, name
        assert len(a.operators) == len(b.operators) == 2
        for x, y in zip(a.operators, b.operators):
            assert x.shape == y.shape == (d * d, d * d)
            assert np.max(np.abs(x - y)) <= 1e-10

    def test_complete_program_does_not_depend_on_the_basis(self):
        bases = [
            weyl_basis(3),
            conjugated_basis(weyl_basis(3), haar_random_unitary(3, np.random.default_rng(43))),
            twisted_clock_basis(5),
        ]
        results = [solve_primal_ppt(SDPProblem.from_basis(b, QUTRIT_SPEC)) for b in bases]
        for result in results[1:]:
            assert result.to_dict() == results[0].to_dict()
            for x, y in zip(result.operators, results[0].operators, strict=True):
                assert np.array_equal(x, y)

    def test_incomplete_set_is_solved_in_full(self):
        problem = SDPProblem.from_basis(weyl_basis(2), BELL_SPEC, 3)
        assert problem.resource is None
        assert len(solve_primal_ppt(problem).operators) == 3

    def test_complete_program_takes_a_matching_resource_and_no_states(self):
        with pytest.raises(ValueError, match="dimension 3"):
            SDPProblem.from_basis(weyl_basis(2), QUTRIT_SPEC)
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        with pytest.raises(ValueError, match="in place of states"):
            SDPProblem.from_ensemble(ens, resource=BELL_SPEC)


class TestAnderson:
    """The accelerated loop against the plain map it extrapolates."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    def test_never_slower_than_the_plain_loop(self, d, kind):
        if kind == "uniform":
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(50 + d))
        fast = solve_primal_ppt(SDPProblem.from_basis(weyl_basis(d), spec))
        plain = plain_consensus(_Sectors(spec), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert fast.converged and plain.converged
        assert fast.iterations <= plain.iterations
        assert abs(fast.primal_value - plain.primal_value) <= DEFAULT_ACCURACY + 1e-6

    def test_operator_solve_never_slower_than_the_plain_loop(self):
        problem = SDPProblem.from_basis(weyl_basis(2), BELL_SPEC, 3)
        fast = solve_primal_ppt(problem)
        plain = plain_consensus(_Operators(problem), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert fast.converged and plain.converged
        assert fast.iterations <= plain.iterations
        assert abs(fast.primal_value - plain.primal_value) <= DEFAULT_ACCURACY + 1e-6

    def test_stops_on_the_dual_residual(self):
        """`sdp --dim 12 --spectrum random --seed 0`: the stall test alone
        stopped 6.16e-3 below F, with its objective still rising."""
        spec = random_spectrum(12, np.random.default_rng(0))
        result = solve_primal_ppt(SDPProblem.from_basis(weyl_basis(12), spec))
        assert result.converged
        assert abs(result.primal_value - fef(spec)) <= DEFAULT_ACCURACY + 1e-6
        last = result.trace[-1]
        assert max(last["dual_residual"], last["consensus_residual"]) < DEFAULT_ACCURACY

    def test_a_subset_does_not_wait_on_the_dual_residual(self):
        """d = 3, N = 5: the dual residual is still 1.6e-3 when the solve
        stops at 175 iterations, with the value within 3.2e-5 of the
        0.99999496 it reaches when the dual residual also has to fall below
        the accuracy, after 5,350 iterations."""
        spec = ResourceSpectrum.from_probabilities([0.6, 0.3, 0.1])
        complete = SDPProblem.from_ensemble(build_ensemble(weyl_basis(2), BELL_SPEC, 4))
        assert _Operators(complete).dual_stop and _Sectors(spec).dual_stop
        problem = SDPProblem.from_basis(weyl_basis(3), spec, 5, max_iters=400)
        assert not _Operators(problem).dual_stop
        result = solve_primal_ppt(problem)
        assert result.converged
        assert result.trace[-1]["dual_residual"] > DEFAULT_ACCURACY
        assert abs(result.primal_value - 0.99999496) <= DEFAULT_ACCURACY


def _symmetric_stack(d: int, rng: np.random.Generator) -> np.ndarray:
    """A random (2, 2, d, d) stack of the (P, Q) arrays of (X, Y) with P = Pᵀ.

    Q is symmetric with a zero diagonal, as for a real symmetric X. Entries
    are on the scale of the iterates: X + (d² − 1) Y = I bounds X by 1 and
    Y by 1/(d² − 1).
    """
    s = rng.uniform(-1.0, 1.0, (2, 2, d, d))
    s[1] /= d * d - 1
    s = (s + s.swapaxes(-1, -2)) / 2
    s[:, 1] *= 1.0 - np.eye(d)
    return s


class TestPPTClip:
    """The clip in the eigenbasis (|ij⟩ ± |ji⟩)/√2 against the closed form."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_matches_the_closed_form(self, d):
        rng = np.random.default_rng(60 + d)
        coords = _Sectors(random_spectrum(d, rng))
        for _ in range(50):
            stack = _symmetric_stack(d, rng)
            out = coords.ppt_clip(stack)
            assert np.max(np.abs(out - closed_form_ppt_clip(stack))) <= 1e-15
            assert np.max(np.abs(coords.ppt_clip(out) - out)) <= 1e-15
            assert coords._ppt_eigenvalues(out).min() >= -1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_output_is_in_the_dense_ppt_cone(self, d):
        rng = np.random.default_rng(70 + d)
        spec = random_spectrum(d, rng)
        coords, pair = _Sectors(spec), _Pair(spec)
        for _ in range(10):
            stack = _symmetric_stack(d, rng)
            out = coords.ppt_clip(stack)
            blocks = pair.to_blocks(np.stack(coords.operators(out)))
            assert np.linalg.eigvalsh(blocks).min() >= -1e-14
            before = pair.to_blocks(np.stack(coords.operators(stack)))
            assert np.linalg.eigvalsh(before).min() < -0.01

    def test_needs_no_eigensolver(self, monkeypatch):
        coords = _Sectors(QUTRIT_SPEC)
        stack = _symmetric_stack(3, np.random.default_rng(80))

        def refuse(*args, **kwargs):
            raise AssertionError("the PPT clip called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert np.max(np.abs(coords.ppt_clip(stack) - closed_form_ppt_clip(stack))) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    def test_solution_is_swap_symmetric(self, d, kind):
        """X[ij, ij] = X[ji, ji] and Y[ij, ij] = Y[ji, ji], which the clip relies on."""
        if kind == "uniform":
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(90 + d))
        result = solve_primal_ppt(SDPProblem.from_basis(weyl_basis(d), spec))
        for op in result.operators:
            p = np.diag(op).reshape(d, d)
            assert np.max(np.abs(p - p.T)) <= 1e-15

    @pytest.mark.parametrize(
        "d, max_iters", [(2, DEFAULT_MAX_ITERS), (3, DEFAULT_MAX_ITERS), (5, DEFAULT_MAX_ITERS), (2, 60)]
    )
    def test_eigensolver_calls_of_a_complete_solve(self, d, max_iters, monkeypatch):
        """One eigh per iteration and one to round; one eigvalsh per convergence check.

        The capped run asks for an accuracy it cannot reach in its 60
        iterations, so it stops at the cap, between two checks.
        """
        spec = ResourceSpectrum.uniform(d)
        capped = max_iters != DEFAULT_MAX_ITERS
        problem = SDPProblem.from_basis(
            weyl_basis(d), spec, max_iters=max_iters, accuracy=1e-12 if capped else DEFAULT_ACCURACY
        )
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        result = solve_primal_ppt(problem)
        checks = -(-result.iterations // _CHECK_EVERY)
        assert calls == {"eigh": result.iterations + 1, "eigvalsh": checks}
        assert result.converged != capped
        assert capped == (result.iterations == max_iters)


class TestProblemValidation:
    def test_bad_priors(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        states = tuple(ens.density_operators())
        with pytest.raises(ValueError):
            SDPProblem(states=states, priors=(0.5, 0.5, 0.5, 0.5), layout=ens.layout)

    def test_non_density_state(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        states = list(ens.density_operators())
        states[0] = 2.0 * states[0]
        with pytest.raises(ValueError):
            SDPProblem(states=tuple(states), priors=ens.priors, layout=ens.layout)

    def test_stacked_state(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        states = list(ens.density_operators())
        states[0] = np.stack([states[0], states[0]])
        with pytest.raises(ValueError):
            SDPProblem(states=tuple(states), priors=ens.priors, layout=ens.layout)

    def test_names_the_first_failing_state(self):
        """State 1 is not PSD and state 2 not of unit trace: state 1 is named,
        and without it state 2."""
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        states = ens.density_operators()
        states[1] = 1.5 * np.eye(16) / 16 - states[1] / 2
        states[2] = 2.0 * states[2]
        args = dict(priors=ens.priors, layout=ens.layout)
        with pytest.raises(ValueError, match="^state 1 is not positive semidefinite$"):
            SDPProblem(states=states, **args)
        states[1] = ens.density_operators()[1]
        with pytest.raises(ValueError, match="^state 2 does not have unit trace$"):
            SDPProblem(states=states, **args)
        with pytest.raises(ValueError, match=r"^matrix shape \(16, 15\) does not match"):
            SDPProblem(states=states[:, :, :15], **args)

    def test_bad_options(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        with pytest.raises(ValueError):
            SDPProblem.from_ensemble(ens, accuracy=0.0)
        with pytest.raises(ValueError):
            SDPProblem.from_ensemble(ens, max_iters=0)

    @pytest.mark.parametrize("accuracy", [float("nan"), float("inf"), -float("inf"), -1e-4, "1e-4"])
    def test_accuracy_must_be_finite_and_positive(self, accuracy):
        with pytest.raises(ValueError, match="accuracy must be finite and positive"):
            SDPProblem.from_basis(weyl_basis(2), BELL_SPEC, accuracy=accuracy)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, "10", -1])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer of at least 1"):
            SDPProblem.from_basis(weyl_basis(2), BELL_SPEC, max_iters=max_iters)

    def test_integer_options_of_any_integer_type(self):
        problem = SDPProblem.from_basis(
            weyl_basis(2), BELL_SPEC, accuracy=np.float64(1e-3), max_iters=np.int64(25)
        )
        result = solve_primal_ppt(problem)
        assert result.iterations == 25 and not result.converged


class TestDualBound:
    def test_returns_certificate_trace(self):
        basis = weyl_basis(2)
        cert = build_certificate(basis, BELL_SPEC)
        ens = build_ensemble(basis, BELL_SPEC, 4)
        assert dual_bound_from_certificate(cert, ens) == cert.trace_value

    def test_accepts_precomputed_report(self):
        basis = weyl_basis(2)
        cert = build_certificate(basis, BELL_SPEC)
        ens = build_ensemble(basis, BELL_SPEC, 4)
        report = verify_dual_feasibility(cert, ens)
        assert dual_bound_from_certificate(cert, ens, report=report) == (
            cert.trace_value
        )

    def test_rejects_failed_report(self):
        basis = weyl_basis(2)
        cert = build_certificate(basis, BELL_SPEC)
        ens = build_ensemble(basis, BELL_SPEC, 4)
        failed = FeasibilityReport(
            dim=2,
            n_states=4,
            trace_value=cert.trace_value,
            tol=1e-9,
            threshold=-1e-9,
            lambda_mins=(-0.5, -0.5, -0.5, -0.5),
            decomposition_residuals=(),
            passed=False,
        )
        with pytest.raises(ValueError):
            dual_bound_from_certificate(cert, ens, report=failed)


class TestSandwich:
    def test_full_basis_agreement(self):
        report = sandwich_report(weyl_basis(2), BELL_SPEC)
        assert report.agreement
        assert report.lower == pytest.approx(0.9, abs=1e-10)
        assert report.upper == pytest.approx(0.9, abs=1e-12)
        assert abs(report.sdp_value - 0.9) < 1e-3
        assert report.feasibility.passed

    def test_incomplete_three_states(self):
        report = sandwich_report(weyl_basis(2), BELL_SPEC, n_states=3)
        assert report.agreement
        assert report.lower == pytest.approx(2.0 / 3.0 * 1.4, abs=1e-10)
        assert report.upper == pytest.approx(1.0)
        assert report.upper_unclipped == pytest.approx(1.2, abs=1e-12)
        assert report.lower - 1e-3 <= report.sdp_value <= report.upper + 1e-3

    def test_random_spectrum_sandwich(self):
        spec = random_spectrum(2, np.random.default_rng(9))
        report = sandwich_report(weyl_basis(2), spec)
        assert report.agreement
        assert report.fef_value == pytest.approx(fef(spec), abs=1e-15)
        assert abs(report.sdp_value - fef(spec)) < 1e-3

    def test_to_dict_round_trips_scalars(self):
        report = sandwich_report(weyl_basis(2), BELL_SPEC)
        d = report.to_dict()
        assert d["dim"] == 2
        assert d["n_states"] == 4
        assert d["agreement"] is True
        assert d["lower"] == report.lower
