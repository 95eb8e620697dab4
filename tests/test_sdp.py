"""PPT relaxation solver and the three-way sandwich."""

import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest

import entdist.sdp as sdp
from entdist import cli
from entdist.certificate import build_certificate
from entdist.measures import fef
from entdist.sdp import (
    _CHECK_EVERY,
    DEFAULT_ACCURACY,
    DEFAULT_MAX_ITERS,
    STEP,
    _consensus,
    _Coordinates,
    _map,
    _Operators,
    _Sectors,
    sandwich_report,
    solve_bytes,
    solve_primal_ppt,
)
from entdist.states import (
    MaxEntBasis,
    ResourceSpectrum,
    build_ensemble,
    random_spectrum,
    resource_state,
    weyl_basis,
)
from oracles import (
    SWAP_B1_A2,
    DenseOperators,
    closed_form_ppt_clip,
    conjugated_basis,
    dense_pair,
    haar_random_unitary,
    list_memory_consensus,
    max_ent_state,
    partial_transpose,
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
        (d,) * 4,
        SWAP_B1_A2,
    )
    expanded = []
    for u in basis.unitaries:
        w = np.kron(np.kron(np.eye(d * d), u), np.eye(d))
        expanded.append(w @ p0 @ w.conj().T)
    return expanded


def operators_of(ens) -> _Operators:
    """The program of an ensemble in the coordinates of every operator P_k;
    a complete one reads its bracket from the operators (``DenseOperators``)."""
    cost = np.asarray(ens.priors)[:, None, None] * ens.density_operators()
    complete = len(cost) == ens.resource.dim**2
    return (DenseOperators if complete else _Operators)(cost)


def solve_densely(ens, accuracy=DEFAULT_ACCURACY, max_iters=DEFAULT_MAX_ITERS):
    """The program of an ensemble, solved operator by operator."""
    return _consensus(operators_of(ens), accuracy, max_iters)


def weighted_step(coords, out: np.ndarray) -> None:
    """The plain step of the held state s into ``out`` = (f(s) − s, f(s)).

    ``_map`` on the unweighted state.
    """
    g, f = out
    _map(coords, coords.state / coords.root, f, coords.drive)
    f *= coords.root
    np.subtract(f, coords.state, out=g)


class _Pair(DenseOperators):
    """The complete program iterated on the dense pair (X, Y), the oracle
    for its solve on the (P, Q) arrays.

    P_0 = Φ_0 ⊗ X + (I − Φ_0) ⊗ Y; the PPT blocks are M_s = (X^Γ + (d−1) Y^Γ)/d
    and M_a = ((d+1) Y^Γ − X^Γ)/d, clipped by a full eigendecomposition. The
    objective counts the cost of P_0 once for each of the n = d² operators.
    """

    step = weighted_step

    def __init__(self, spec: ResourceSpectrum):
        d = self.d = spec.dim
        self.n = d * d
        self.weight = float(d)
        self.metric = np.array([1.0, self.n - 1.0]).reshape(2, 1, 1)
        tau = resource_state(spec)
        self.cost = np.stack([np.outer(tau, tau.conj()), np.zeros((d * d, d * d))]) / self.n

    def deviation(self, stack: np.ndarray) -> np.ndarray:
        return stack[0] + (self.n - 1) * stack[1] - np.eye(self.n)

    def average(self, stack: np.ndarray) -> np.ndarray:
        mean = (stack[0] + (self.n - 1) * stack[1]) / self.n
        return np.stack([mean, mean])

    def trace(self, stack: np.ndarray) -> float:
        return self.n * float((np.trace(stack[0]) + (self.n - 1) * np.trace(stack[1])).real)

    def objective(self, stack: np.ndarray) -> float:
        return self.n * super().objective(stack)

    def to_blocks(self, stack: np.ndarray) -> np.ndarray:
        d = self.d
        gx, gy = partial_transpose(stack, (d, d), (0,))
        return np.stack([gx + (d - 1) * gy, (d + 1) * gy - gx]) / d

    def from_blocks(self, blocks: np.ndarray) -> np.ndarray:
        d = self.d
        ms, ma = blocks
        pair = np.stack([(d + 1) * ms - (d - 1) * ma, ms + ma]) / 2
        return partial_transpose(pair, (d, d), (0,))


@pytest.fixture(scope="module")
def bell_result():
    return solve_densely(build_ensemble(weyl_basis(2), BELL_SPEC, 4))


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
        gap = np.linalg.norm(sum(ops) - np.eye(16))
        assert gap == pytest.approx(bell_result.primal_residual, abs=1e-12)
        worst = 0.0
        for op in ops:
            worst = min(worst, np.linalg.eigvalsh(op).min())
            worst = min(
                worst, np.linalg.eigvalsh(partial_transpose(op, (2,) * 4, (0, 1))).min()
            )
        assert worst == pytest.approx(bell_result.cone_residual, abs=1e-12)

    def test_deterministic(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        a, b = solve_densely(ens), solve_densely(ens)
        assert a.primal_value == b.primal_value
        assert a.iterations == b.iterations
        for x, y in zip(a.operators, b.operators):
            assert np.array_equal(x, y)

    def test_iterations_monotone_in_accuracy(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        loose = solve_densely(ens, accuracy=1e-3)
        tight = solve_densely(ens, accuracy=1e-5)
        assert loose.iterations <= tight.iterations
        assert abs(tight.primal_value - 0.9) < 1e-3

    def test_iteration_cap_reports_unconverged(self):
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        res = solve_densely(ens, max_iters=10)
        assert not res.converged
        assert res.iterations == 10

    def test_local_unitary_invariance(self):
        """Conjugating every state by V (x) W fixes the optimum."""
        rng = np.random.default_rng(31)
        v = np.kron(haar_random_unitary(4, rng), haar_random_unitary(4, rng))
        ens = build_ensemble(weyl_basis(2), BELL_SPEC, 4)
        rotated = np.asarray(ens.priors)[:, None, None] * (v @ ens.density_operators() @ v.conj().T)
        base = solve_densely(ens)
        moved = _consensus(DenseOperators(rotated), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
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

    def test_fields_omit_operators_and_products(self, bell_result):
        fields = cli.fields_of(bell_result)
        assert "operators" not in fields
        assert fields["primal_value"] == bell_result.primal_value
        assert list(cli.fields_of(weyl_basis(2).validation)) == [
            "count", "dim", "unitarity_defect", "orthogonality_defect", "complete", "accepted",
        ]


# Complete bases at d = 2 and 3 with a resource each: the Weyl basis, the
# Weyl basis conjugated by a Haar-random unitary and a twisted clock basis.
COVARIANT_CASES = [
    pytest.param(weyl_basis(2), BELL_SPEC, id="weyl2"),
    pytest.param(
        conjugated_basis(weyl_basis(2), haar_random_unitary(2, np.random.default_rng(41))),
        BELL_SPEC,
        id="haar-weyl2",
    ),
    pytest.param(weyl_basis(3), QUTRIT_SPEC, id="weyl3"),
    pytest.param(twisted_clock_basis(5), QUTRIT_SPEC, id="twisted3"),
]


class TestCovariantPath:
    @pytest.mark.parametrize("basis, spec", COVARIANT_CASES)
    def test_matches_the_full_solver(self, basis, spec):
        d = basis.dim
        a, b = solve_primal_ppt(basis, spec), solve_densely(build_ensemble(basis, spec, d * d))
        assert a.iterations == b.iterations
        assert a.converged and b.converged
        assert abs(a.primal_value - fef(spec)) <= DEFAULT_ACCURACY + 1e-6
        names = ("primal_value", "rounded_value", "primal_residual", "cone_residual")
        for name in (*names, "lower_bound", "upper_bound"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-10, name
        assert [x.shape for x in a.operators] == [(2, d, d)] * 2
        expanded = expand_pair(dense_pair(a.operators), basis)
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
        a = solve_primal_ppt(weyl_basis(d), spec)
        b = _consensus(_Pair(spec), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert a.iterations == b.iterations
        assert a.converged and b.converged
        for name in ("primal_value", "rounded_value", "primal_residual", "cone_residual"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, name
        for name in ("lower_bound", "upper_bound"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-10, name
        assert len(a.trace) == len(b.trace)
        for row_a, row_b in zip(a.trace, b.trace):
            assert row_a["iteration"] == row_b["iteration"]
            for name in ("objective", "primal_residual", "cone_residual"):
                assert abs(row_a[name] - row_b[name]) <= 1e-12, name
        assert len(a.operators) == len(b.operators) == 2
        for x, y in zip(dense_pair(a.operators), b.operators):
            assert x.shape == y.shape == (d * d, d * d)
            assert np.max(np.abs(x - y)) <= 1e-10

    def test_complete_program_does_not_depend_on_the_basis(self):
        bases = [
            weyl_basis(3),
            conjugated_basis(weyl_basis(3), haar_random_unitary(3, np.random.default_rng(43))),
            twisted_clock_basis(5),
        ]
        results = [solve_primal_ppt(b, QUTRIT_SPEC) for b in bases]
        for result in results[1:]:
            assert cli.fields_of(result) == cli.fields_of(results[0])
            for x, y in zip(result.operators, results[0].operators, strict=True):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("d, seed", [(3, 4), (5, 1), (6, 4), (7, None), (8, 3)])
    def test_a_complete_result_holds_the_iterate_it_reports(self, d, seed):
        """The (P, Q) arrays of X and Y a complete solve returns give its
        reported residuals bit for bit, with the rounding-level entries of
        Q's diagonal that a dense pair (X, Y) cannot hold."""
        if seed is None:
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(seed))
        result = solve_primal_ppt(weyl_basis(d), spec)
        assert [x.shape for x in result.operators] == [(2, d, d)] * 2
        residuals = _Sectors(spec).residuals(np.stack(result.operators))
        assert (result.primal_residual, result.cone_residual) == residuals

    def test_incomplete_set_is_solved_in_full(self):
        result = solve_primal_ppt(weyl_basis(2), BELL_SPEC, 3)
        assert [x.shape for x in result.operators] == [(16, 16)] * 3

    def test_complete_program_takes_a_matching_resource_and_no_states(self, monkeypatch):
        with pytest.raises(ValueError, match="^spectrum dimension 3 does not match basis 2$"):
            solve_primal_ppt(weyl_basis(2), QUTRIT_SPEC)

        def never(*args, **kwargs):
            raise AssertionError("the complete program built its states")

        monkeypatch.setattr(sdp, "build_ensemble", never)
        result = solve_primal_ppt(weyl_basis(4), ResourceSpectrum.uniform(4))
        assert result.converged
        assert [x.shape for x in result.operators] == [(2, 4, 4)] * 2

    @pytest.mark.parametrize("n_states", [3, None])
    def test_both_paths_refuse_a_spectrum_of_another_dimension(self, n_states):
        with pytest.raises(ValueError, match="^spectrum dimension 3 does not match basis 2$"):
            solve_primal_ppt(weyl_basis(2), QUTRIT_SPEC, n_states)

    @pytest.mark.parametrize("n_states", [0, 5])
    def test_n_states_outside_the_basis_is_refused(self, n_states):
        with pytest.raises(ValueError, match=rf"^n_states must lie in \[1, 4\], got {n_states}$"):
            solve_primal_ppt(weyl_basis(2), BELL_SPEC, n_states)


class TestPenalty:
    """The penalty is ``STEP`` times the full-space norm of the cost, so every
    set of coordinates of one program takes the same steps."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    def test_every_route_to_a_complete_program_agrees(self, d, kind):
        if kind == "uniform":
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(70 + d))
        operators = operators_of(build_ensemble(weyl_basis(d), spec, d * d))
        for coords in (_Sectors(spec), operators, _Pair(spec)):
            assert abs(coords.penalty - STEP / d) <= 1e-15

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 4), (3, 7)])
    def test_a_subset_of_n_states(self, d, n):
        spec = random_spectrum(d, np.random.default_rng(80 + n))
        coords = operators_of(build_ensemble(weyl_basis(d), spec, n))
        assert abs(coords.penalty - STEP / np.sqrt(n)) <= 1e-15


class TestBracket:
    """The certified bounds [lower, upper] of a complete solve."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_holds_the_optimum_along_a_solve(self, d):
        """F lies in the bracket of the iterate after 25, 50, 75 and 100
        iterations, for the uniform, product and six random spectra."""
        specs = [ResourceSpectrum.uniform(d), ResourceSpectrum.product(d)] + [
            random_spectrum(d, np.random.default_rng(seed)) for seed in range(6)
        ]
        for spec in specs:
            target = fef(spec)
            for iterations in (25, 50, 75, 100):
                # An accuracy it cannot reach, so the solve stops at the cap.
                result = _consensus(_Sectors(spec), 1e-12, iterations)
                assert result.iterations == iterations
                assert result.lower_bound <= target <= result.upper_bound

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("max_iters", [10, 25])
    def test_a_capped_solve_returns_a_valid_bracket(self, d, max_iters):
        spec = random_spectrum(d, np.random.default_rng(d))
        result = solve_primal_ppt(weyl_basis(d), spec, max_iters=max_iters)
        assert not result.converged
        assert result.iterations == max_iters
        assert result.lower_bound <= fef(spec) <= result.upper_bound

    @pytest.mark.parametrize("basis, spec", COVARIANT_CASES)
    def test_matches_the_dense_bracket(self, basis, spec):
        """The bracket on the sectors equals the one read from the d⁴ × d⁴
        operators and from the dense pair (X, Y) after 10 iterations, where
        it is still wide."""
        d = basis.dim
        sectors = _consensus(_Sectors(spec), DEFAULT_ACCURACY, 10)
        dense = solve_densely(build_ensemble(basis, spec, d * d), max_iters=10)
        pair = _consensus(_Pair(spec), DEFAULT_ACCURACY, 10)
        assert sectors.upper_bound - sectors.lower_bound > 0.01
        for other in (dense, pair):
            assert abs(sectors.lower_bound - other.lower_bound) <= 1e-10
            assert abs(sectors.upper_bound - other.upper_bound) <= 1e-10

    def test_a_subset_has_none(self):
        result = solve_primal_ppt(weyl_basis(2), BELL_SPEC, 3)
        assert result.converged
        assert result.lower_bound is None and result.upper_bound is None


# Iterations of the complete solve at the default accuracy for the uniform
# spectrum and the random spectra of seeds 1 and 2.
COMPLETE_ITERATIONS = {
    2: (50, 50, 50),
    3: (50, 75, 50),
    4: (50, 75, 75),
    5: (75, 100, 75),
    6: (50, 100, 75),
    7: (75, 100, 75),
    8: (75, 100, 75),
    9: (75, 150, 75),
    10: (75, 175, 100),
    11: (75, 175, 100),
    12: (75, 175, 100),
    13: (100, 200, 100),
    14: (75, 200, 100),
    15: (100, 225, 125),
    16: (75, 225, 125),
}
# Iterations of the d = 3 subsets of the first N Weyl states at the spectrum
# (0.6, 0.3, 0.1), the default accuracy.
SUBSET_ITERATIONS = {4: 125, 5: 125, 6: 350, 7: 275, 8: 175}
SKEWED_SPEC = ResourceSpectrum.from_probabilities([0.6, 0.3, 0.1])


# A cap the subsets above stop well inside, so a stop test that never
# passes fails in seconds, not after the default cap.
SUBSET_MAX_ITERS = 400


@functools.cache
def skewed_subset(n: int):
    """The solve of the first n Weyl states at d = 3 and the spectrum
    (0.6, 0.3, 0.1), shared by the tests that read it."""
    return solve_primal_ppt(weyl_basis(3), SKEWED_SPEC, n, max_iters=SUBSET_MAX_ITERS)


class TestAnderson:
    """The accelerated loop against the plain map it extrapolates."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    def test_never_slower_than_the_plain_loop(self, d, kind):
        if kind == "uniform":
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(50 + d))
        fast = solve_primal_ppt(weyl_basis(d), spec)
        plain = plain_consensus(_Sectors(spec), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert fast.converged and plain.converged
        assert fast.iterations <= plain.iterations
        assert abs(fast.primal_value - plain.primal_value) <= DEFAULT_ACCURACY + 1e-6

    def test_operator_solve_never_slower_than_the_plain_loop(self):
        fast = solve_primal_ppt(weyl_basis(2), BELL_SPEC, 3)
        coords = operators_of(build_ensemble(weyl_basis(2), BELL_SPEC, 3))
        plain = plain_consensus(coords, DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert fast.converged and plain.converged
        assert fast.iterations <= plain.iterations
        assert abs(fast.primal_value - plain.primal_value) <= DEFAULT_ACCURACY + 1e-6

    def test_stops_on_the_certified_gap(self):
        """`sdp --dim 12 --spectrum random --seed 0`: the stall test alone
        stopped 6.16e-3 below F, with its objective still rising. At
        iteration 750 the residuals pass with the value 4.9e-5 below F, but
        the certified gap is 0.56; it holds the solve until 825, where F lies
        in a bracket 5.7e-7 wide."""
        spec = random_spectrum(12, np.random.default_rng(0))
        result = solve_primal_ppt(weyl_basis(12), spec)
        assert result.converged
        assert result.iterations == 825
        target = fef(spec)
        assert abs(result.primal_value - target) <= DEFAULT_ACCURACY + 1e-6
        assert result.lower_bound <= target <= result.upper_bound
        assert result.upper_bound - result.lower_bound <= DEFAULT_ACCURACY
        assert result.trace[-1]["consensus_residual"] < DEFAULT_ACCURACY

    @pytest.mark.parametrize("d", sorted(COMPLETE_ITERATIONS))
    def test_complete_iteration_counts(self, d):
        """The iterations of the complete solve, pinned for every later change to the loop."""
        specs = [ResourceSpectrum.uniform(d)] + [
            random_spectrum(d, np.random.default_rng(seed)) for seed in (1, 2)
        ]
        counts = tuple(
            solve_primal_ppt(weyl_basis(d), spec).iterations for spec in specs
        )
        assert counts == COMPLETE_ITERATIONS[d]

    def test_a_subset_does_not_wait_on_the_dual_residual(self):
        """d = 3, N = 5: the dual residual is still 1.9e-3 when the solve
        stops at 125 iterations, with the value within 2.0e-5 of the
        0.99999496 it reached under the fixed penalty 0.5 when the dual
        residual also had to fall below the accuracy, after 5,350
        iterations."""
        complete = operators_of(build_ensemble(weyl_basis(2), BELL_SPEC, 4))
        assert complete.gap_stop and _Sectors(SKEWED_SPEC).gap_stop
        assert not operators_of(build_ensemble(weyl_basis(3), SKEWED_SPEC, 5)).gap_stop
        result = skewed_subset(5)
        assert result.converged
        assert result.iterations == SUBSET_ITERATIONS[5]
        assert result.trace[-1]["dual_residual"] > DEFAULT_ACCURACY
        assert abs(result.primal_value - 0.99999496) <= DEFAULT_ACCURACY

    def test_a_subset_stops_within_the_accuracy_of_its_held_value(self):
        """d = 3, N = 6: held until its dual residual is also below the
        accuracy, the solve reaches 0.98989753 (2,400 iterations under the
        fixed penalty 0.5). That penalty stopped it 2.7e-4 short after 275
        iterations, with every residual of the stop test below the accuracy;
        the scaled penalty stops it 2.9e-5 short after 350."""
        result = skewed_subset(6)
        assert result.converged
        assert result.iterations == SUBSET_ITERATIONS[6]
        assert abs(result.primal_value - 0.98989753) <= DEFAULT_ACCURACY

    @pytest.mark.parametrize("n", [4, 7, 8])
    def test_subset_iteration_counts(self, n):
        """The operator-by-operator solve runs the same loop as the complete
        one; N = 5 and 6 are pinned by the two tests above."""
        result = skewed_subset(n)
        assert result.converged
        assert result.iterations == SUBSET_ITERATIONS[n]

    @pytest.mark.parametrize("n", sorted(SUBSET_ITERATIONS))
    def test_a_subset_keeps_the_stall_stop(self, n):
        """A subset reads no bracket: every field of its solve, bit for bit,
        is that of the loop in ``oracles.list_memory_consensus``, whose
        subset path is the loop as it ran before the certified gap."""
        result = skewed_subset(n)
        assert result.lower_bound is None and result.upper_bound is None
        ens = build_ensemble(weyl_basis(3), SKEWED_SPEC, n)
        listed = list_memory_consensus(operators_of(ens), DEFAULT_ACCURACY, SUBSET_MAX_ITERS)
        assert _bits(result) == _bits(listed)


def _bits(result) -> tuple:
    """Every field of a solve result, as bits: floats by repr, arrays by bytes."""
    scalars = tuple(
        repr(getattr(result, f.name)) for f in dataclasses.fields(result) if f.name != "operators"
    )
    return scalars, tuple(np.ascontiguousarray(op).tobytes() for op in result.operators)


class _Scripted(_Coordinates):
    """A loop whose residuals are given in advance: the k-th step writes
    g = g_k and f(s) = s + g_k, so the differences Δg are the script's and
    the Anderson step alone decides the states the loop steps to, which
    ``visited`` records."""

    weight = 1.0
    penalty = 1.0
    root = 1.0
    gap_stop = False

    def __init__(self, script):
        self.script = iter(script)
        self.state = np.zeros((4, 1))
        self.image_shape = (2, 4, 1)
        self.visited = []

    def start(self) -> np.ndarray:
        return np.ones(1)

    def step(self, out: np.ndarray) -> None:
        self.visited.append(self.state.tobytes())
        g, f = out
        g[...] = next(self.script)
        np.add(self.state, g, out=f)

    def objective(self, stack: np.ndarray) -> float:
        return float(stack.sum())

    def residuals(self, stack: np.ndarray) -> tuple[float, float]:
        return 1.0, 0.0

    def affine(self, stack: np.ndarray) -> np.ndarray:
        return stack

    psd_clip = ppt_clip = affine


class TestAndersonMemory:
    """The two slot flags of ``_consensus`` against the list memory of
    ``oracles.list_memory_consensus``: the same steps, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_complete_solves(self, d, seed):
        if seed is None:
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(seed))
        flags = _consensus(_Sectors(spec), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        listed = list_memory_consensus(_Sectors(spec), DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert flags.converged
        assert _bits(flags) == _bits(listed)

    @pytest.mark.parametrize(
        "d, n, spec",
        [(2, 3, BELL_SPEC), (3, 5, ResourceSpectrum.uniform(3))],
        ids=["d2-n3", "d3-n5"],
    )
    def test_subsets(self, d, n, spec):
        ens = build_ensemble(weyl_basis(d), spec, n)
        flags = _consensus(operators_of(ens), DEFAULT_ACCURACY, 200)
        listed = list_memory_consensus(operators_of(ens), DEFAULT_ACCURACY, 200)
        assert _bits(flags) == _bits(listed)

    def test_the_newest_difference_forgotten(self):
        """g_4 = g_3, so the fourth step's difference is zero and the memory
        forgets it while it holds the older one: the memory's later slot is
        then the older, and the fifth difference must go to the slot just
        forgotten, not over the older one. The fifth step extrapolates, so
        a wrong slot shows in the states."""
        rng = np.random.default_rng(7)
        script = []
        for k in range(12):
            v = rng.normal(size=(4, 1))
            script.append(v / np.linalg.norm(v) * 0.5**k)
        script[3] = script[2].copy()
        flags, listed = _Scripted(script), _Scripted(script)
        _consensus(flags, 1e-12, len(script))
        list_memory_consensus(listed, 1e-12, len(script))
        assert flags.visited == listed.visited
        # The state after the fifth step is not its plain step s + g_5.
        fifth = np.frombuffer(flags.visited[4]).reshape(4, 1)
        sixth = np.frombuffer(flags.visited[5]).reshape(4, 1)
        assert not np.array_equal(sixth, fifth + script[4])


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


class TestFusedMap:
    """The two products of ``_Sectors.step`` against ``_map`` on the unweighted state."""

    @staticmethod
    def _both(coords):
        fused, generic = np.empty(coords.image_shape), np.empty((2, *coords.state.shape))
        _Sectors.step(coords, fused)
        weighted_step(coords, generic)
        return fused.reshape(generic.shape), generic

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_the_generic_map(self, d):
        rng = np.random.default_rng(100 + d)
        coords = _Sectors(random_spectrum(d, rng))
        for _ in range(20):
            coords.state[...] = np.stack([_symmetric_stack(d, rng) for _ in range(4)]) * coords.root
            fused, generic = self._both(coords)
            assert np.max(np.abs(fused - generic)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_the_generic_map_along_a_solve(self, d):
        coords = _Sectors(random_spectrum(d, np.random.default_rng(110 + d)))
        gaps = []

        def step(out):
            fused, generic = self._both(coords)
            gaps.append(np.max(np.abs(fused - generic)))
            out[...] = fused.reshape(out.shape)

        coords.step = step
        # An accuracy it cannot reach, so the solve runs all 100 iterations.
        _consensus(coords, 1e-12, 100)
        assert len(gaps) == 100
        assert max(gaps) <= 1e-15


class TestCompleteSolveMemory:
    @pytest.mark.parametrize("d", [4, 8, 16, 32])
    @pytest.mark.parametrize("seed", [None, 1])
    def test_peak_stays_within_the_size_estimate(self, d, seed):
        """The tracemalloc peak of a complete solve, which ``solve_bytes``
        bounds for the CLI's size guard."""
        basis = weyl_basis(d)
        if seed is None:
            spec = ResourceSpectrum.uniform(d)
        else:
            spec = random_spectrum(d, np.random.default_rng(seed))
        tracemalloc.start()
        try:
            result = solve_primal_ppt(basis, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak <= solve_bytes(d, d * d)

    def test_a_capped_solve_stays_within_the_size_estimate(self):
        """A solve that never converges keeps a trace row every 100
        iterations up to its cap: 500 rows at 50,000, which peak at 228 kB
        against an estimate of 39 kB that counted none of them."""
        basis = weyl_basis(2)
        spec = ResourceSpectrum.from_probabilities([0.8, 0.2])
        tracemalloc.start()
        try:
            result = solve_primal_ppt(basis, spec, accuracy=1e-15, max_iters=50000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.converged
        assert len(result.trace) == 500
        assert solve_bytes(2, 4, 100) < peak <= solve_bytes(2, 4, 50000)


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
            blocks = pair.to_blocks(np.stack(dense_pair(out)))
            assert np.linalg.eigvalsh(blocks).min() >= -1e-14
            before = pair.to_blocks(np.stack(dense_pair(stack)))
            assert np.linalg.eigvalsh(before).min() < -0.01

    def test_needs_no_eigensolver(self, monkeypatch):
        coords = _Sectors(QUTRIT_SPEC)
        stack = _symmetric_stack(3, np.random.default_rng(80))

        def refuse(*args, **kwargs):
            raise AssertionError("the PPT clip called an eigensolver")

        monkeypatch.setattr(sdp, "_EIGH", refuse)
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
        result = solve_primal_ppt(weyl_basis(d), spec)
        for op in dense_pair(result.operators):
            p = np.diag(op).reshape(d, d)
            assert np.max(np.abs(p - p.T)) <= 1e-15

    @staticmethod
    def _counted(monkeypatch) -> dict:
        """Count the calls of the gufuncs bound as ``sdp._EIGH`` and
        ``sdp._EIGVALSH``, each together with its ``np.linalg`` wrapper."""
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(module, attribute, name):
            real = getattr(module, attribute)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, attribute, call)

        counted(sdp, "_EIGH", "eigh")
        counted(np.linalg, "eigh", "eigh")
        counted(sdp, "_EIGVALSH", "eigvalsh")
        counted(np.linalg, "eigvalsh", "eigvalsh")
        return calls

    @pytest.mark.parametrize(
        "d, max_iters",
        [(2, DEFAULT_MAX_ITERS), (3, DEFAULT_MAX_ITERS), (5, DEFAULT_MAX_ITERS), (2, 60), (2, 25)],
    )
    def test_eigensolver_calls_of_a_complete_solve(self, d, max_iters, monkeypatch):
        """One eigh per iteration and one to round; one eigvalsh per check
        that computes residuals; one eigh and one eigvalsh for the bracket.

        The first check cannot stop the solve and computes no residuals
        unless it is the last. A check computes the bracket when its
        residuals pass, and the last check always; these solves compute it
        once. The capped runs ask for an accuracy they cannot reach, so they
        stop at the cap: after 60 iterations between two checks, after 25 at
        the first check, which still reports the residuals and the bracket
        of the z it returns.
        """
        spec = ResourceSpectrum.uniform(d)
        capped = max_iters != DEFAULT_MAX_ITERS
        basis = weyl_basis(d)
        accuracy = 1e-12 if capped else DEFAULT_ACCURACY
        calls = self._counted(monkeypatch)
        result = solve_primal_ppt(basis, spec, max_iters=max_iters, accuracy=accuracy)
        checks = -(-result.iterations // _CHECK_EVERY)
        residual_checks = checks - 1 if checks > 1 else 1
        assert calls == {"eigh": result.iterations + 2, "eigvalsh": residual_checks + 1}
        assert result.converged != capped
        assert capped == (result.iterations == max_iters)
        assert result.lower_bound <= fef(spec) <= result.upper_bound
        residuals = _Sectors(spec).residuals(np.stack(result.operators))
        assert (result.primal_residual, result.cone_residual) == residuals

    def test_a_bracket_that_does_not_stop_the_solve(self, monkeypatch):
        """d = 7, uniform: the residuals pass at iteration 50 with the gap
        1.5e-4, and the solve stops at 75, so it computes two brackets."""
        calls = self._counted(monkeypatch)
        result = solve_primal_ppt(weyl_basis(7), ResourceSpectrum.uniform(7))
        assert result.converged and result.iterations == 75
        assert calls == {"eigh": 75 + 1 + 2, "eigvalsh": 2 + 2}


class TestBoundEigensolver:
    """The loop's eigensolver is numpy's private eigh gufunc, bound once."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_numpy_eigh_bit_for_bit(self, d):
        rng = np.random.default_rng(100 + d)
        w, v = np.empty((2, d)), np.empty((2, d, d))
        for _ in range(20):
            blocks = rng.normal(size=(2, d, d))
            blocks += blocks.swapaxes(1, 2)
            sdp._EIGH(blocks, out=(w, v), signature="d->dd")
            expected_w, expected_v = np.linalg.eigh(blocks)
            assert np.array_equal(w, expected_w)
            assert np.array_equal(v, expected_v)

    def test_a_nan_in_the_drive_raises(self):
        coords = _Sectors(QUTRIT_SPEC)
        # Row 17 of the work buffer is the drive's X_P; its entry 0, P[0, 0],
        # is on the diagonal of the first block the eigensolver reads.
        coords._work[17, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            _consensus(coords, DEFAULT_ACCURACY, 100)

    def test_a_nan_off_the_diagonal_raises_at_the_first_check(self):
        """Entry 1 of the drive's X_P is P[0, 1], which no block's diagonal
        holds. The objective reads it and is NaN at the first check, where
        the solve stops instead of running to its iteration cap."""
        coords = _Sectors(QUTRIT_SPEC)
        coords._work[17, 1] = np.nan
        real_step, steps = coords.step, []

        def step(out):
            steps.append(None)
            real_step(out)

        coords.step = step
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            _consensus(coords, DEFAULT_ACCURACY, DEFAULT_MAX_ITERS)
        assert len(steps) == _CHECK_EVERY

    def test_a_solve_leaves_the_error_state_as_it_found_it(self):
        def callback(err, flag):
            pass

        with np.errstate(over="raise", divide="ignore", under="warn", invalid="print", call=callback):
            before = np.geterr(), np.geterrcall()
            assert solve_primal_ppt(weyl_basis(2), BELL_SPEC).converged
            assert (np.geterr(), np.geterrcall()) == before
            coords = _Sectors(QUTRIT_SPEC)
            coords._work[17, 0] = np.nan
            with pytest.raises(np.linalg.LinAlgError):
                _consensus(coords, DEFAULT_ACCURACY, 100)
            assert (np.geterr(), np.geterrcall()) == before


class TestSectorMaps:
    """The constants of the complete program at one d are built once and
    shared, read-only, by every solve at that d (``sdp._sector_maps``)."""

    SHARED = (
        "metric", "root", "eye", "off", "split", "unit", "offset", "shift", "to_ppt", "from_ppt",
        "_first", "_second", "_bracket_first", "_bracket_second",
    )

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_two_spectra_share_one_read_only_table(self, d):
        uniform = _Sectors(ResourceSpectrum.uniform(d))
        skewed = _Sectors(random_spectrum(d, np.random.default_rng(d)))
        table = sdp._sector_maps(d)
        assert len(table) == len(self.SHARED)
        for name, array in zip(self.SHARED, table):
            assert getattr(uniform, name) is array and getattr(skewed, name) is array
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # What depends on the spectrum, and the work buffer, are each solve's own.
        assert not np.array_equal(uniform.cost, skewed.cost)
        assert not np.shares_memory(uniform._work, skewed._work)

    @pytest.mark.parametrize("entry", [0, 1])
    def test_a_poisoned_solve_leaves_the_next_one_unchanged(self, entry):
        """A solve with a NaN in its drive (on a block's diagonal, or off it)
        raises; the same complete solve at d = 3 then returns every field,
        bit for bit, as it did before it."""
        basis = weyl_basis(3)
        before = _bits(solve_primal_ppt(basis, QUTRIT_SPEC))
        coords = _Sectors(QUTRIT_SPEC)
        coords._work[17, entry] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _consensus(coords, DEFAULT_ACCURACY, 100)
        assert _bits(solve_primal_ppt(basis, QUTRIT_SPEC)) == before


class TestProblemValidation:
    def test_bad_options(self):
        with pytest.raises(ValueError):
            solve_primal_ppt(weyl_basis(2), BELL_SPEC, 3, accuracy=0.0)
        with pytest.raises(ValueError):
            solve_primal_ppt(weyl_basis(2), BELL_SPEC, 3, max_iters=0)

    @pytest.mark.parametrize(
        "accuracy", [float("nan"), float("inf"), -float("inf"), -1e-4, "1e-4", True]
    )
    def test_accuracy_must_be_finite_and_positive(self, accuracy):
        with pytest.raises(ValueError, match="accuracy must be finite and positive"):
            solve_primal_ppt(weyl_basis(2), BELL_SPEC, accuracy=accuracy)

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, "10", -1])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer of at least 1"):
            solve_primal_ppt(weyl_basis(2), BELL_SPEC, max_iters=max_iters)

    def test_integer_options_of_any_integer_type(self):
        result = solve_primal_ppt(
            weyl_basis(2), BELL_SPEC, accuracy=np.float64(1e-3), max_iters=np.int64(25)
        )
        assert result.iterations == 25 and not result.converged


class TestDualBound:
    def test_returns_certificate_trace(self):
        report = sandwich_report(weyl_basis(2), BELL_SPEC, n_states=3)
        assert report.upper_unclipped == build_certificate(weyl_basis(2), BELL_SPEC, 3).trace_value

    def test_rejects_failed_report(self):
        """At d = 3 the smallest margin is -3.5e-18, which only a threshold
        of -1e-300 fails: a numerical failure, not bad input."""
        spec = random_spectrum(3, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="^certificate is not dual feasible"):
            sandwich_report(weyl_basis(3), spec, tol=1e-300)


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

    def test_fields_round_trip_scalars(self):
        report = sandwich_report(weyl_basis(2), BELL_SPEC)
        d = json.loads(json.dumps(report, default=cli._json_value))
        assert d["dim"] == 2
        assert d["n_states"] == 4
        assert d["agreement"] is True
        assert d["lower"] == report.lower
        assert d["sdp"]["primal_value"] == report.sdp_value
        assert "operators" not in d["sdp"]
