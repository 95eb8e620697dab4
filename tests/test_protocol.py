"""Teleportation protocol simulation and incomplete-set bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entdist.measures import fef
from entdist.protocol import (
    incomplete_bounds,
    incomplete_bounds_sweep,
    sample_protocol_success,
    simulate_protocol,
    teleport_residuals,
)
from entdist.states import ResourceSpectrum, random_spectrum, weyl_basis
from oracles import conjugated_basis, haar_random_unitary, residual_gram

BELL_SPEC = ResourceSpectrum.from_probabilities([0.8, 0.2])


def _gram(gammas):
    """Inner products <gamma_i|gamma_j> of the residual rows."""
    return gammas.conj() @ gammas.T


class TestResiduals:
    def test_gram_formula_example(self):
        """Against the clock generator the overlap is a1^2 - a2^2."""
        gram = _gram(teleport_residuals(weyl_basis(2), BELL_SPEC))
        assert gram[0, 1] == pytest.approx(0.8 - 0.2, abs=1e-12)

    def test_max_entangled_gram_is_identity(self):
        for d in (2, 3):
            gram = _gram(teleport_residuals(weyl_basis(d), ResourceSpectrum.uniform(d)))
            assert np.allclose(gram, np.eye(d * d), atol=1e-12)

    def test_product_resource_residuals(self):
        """One Schmidt term survives: gamma_i = |0> (x) U_i|0>."""
        d = 3
        basis = weyl_basis(d)
        res = teleport_residuals(basis, ResourceSpectrum.product(d))
        for gamma, u in zip(res, basis.unitaries):
            expect = np.zeros(d * d, dtype=complex)
            expect[:d] = u[:, 0]
            assert np.allclose(gamma, expect, atol=1e-12)

    def test_truncated_set(self):
        res = teleport_residuals(weyl_basis(2), BELL_SPEC, 3)
        assert len(res) == 3
        assert _gram(res).shape == (3, 3)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
    def test_gram_cross_check_holds_on_random_bases(self, seed, d):
        rng = np.random.default_rng(seed)
        basis = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
        spec = random_spectrum(d, rng)
        gram = _gram(teleport_residuals(basis, spec))
        assert np.max(np.abs(gram - residual_gram(basis, spec, d * d))) <= 1e-12
        assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-12


class TestProtocol:
    def test_benchmark_value(self):
        assert simulate_protocol(weyl_basis(2), BELL_SPEC).value == pytest.approx(
            0.9, abs=1e-12
        )

    def test_per_term_equality(self):
        run = simulate_protocol(weyl_basis(2), BELL_SPEC)
        assert run.max_term_deviation < 1e-12
        for term in run.per_state:
            assert term == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_endpoints(self, d):
        assert simulate_protocol(weyl_basis(d), ResourceSpectrum.uniform(d)).value == (
            pytest.approx(1.0, abs=1e-10)
        )
        assert simulate_protocol(weyl_basis(d), ResourceSpectrum.product(d)).value == (
            pytest.approx(1.0 / d, abs=1e-10)
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
    def test_success_equals_fef(self, seed, d):
        rng = np.random.default_rng(seed)
        spec = random_spectrum(d, rng)
        basis = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
        run = simulate_protocol(basis, spec)
        assert abs(run.value - fef(spec)) < 1e-10
        assert run.max_term_deviation < 1e-10

    def test_sampling_converges(self):
        estimate = sample_protocol_success(
            simulate_protocol(weyl_basis(2), BELL_SPEC), 100_000, np.random.default_rng(20)
        )
        assert abs(estimate - 0.9) < 1e-2

    def test_sampling_is_seeded(self):
        args = (simulate_protocol(weyl_basis(2), BELL_SPEC), 1000)
        a = sample_protocol_success(*args, np.random.default_rng(5))
        b = sample_protocol_success(*args, np.random.default_rng(5))
        assert a == b

    def test_chunked_draws_match_one_draw(self, monkeypatch):
        import entdist.protocol as protocol

        for seed, d in [(0, 2), (1, 3), (7, 2), (11, 3)]:
            spec = random_spectrum(d, np.random.default_rng(seed))
            run = simulate_protocol(weyl_basis(d), spec)
            values = []
            for chunk in (10**9, 2**16, 1000, 7):
                monkeypatch.setattr(protocol, "_DRAW_CHUNK", chunk)
                values.append(
                    sample_protocol_success(run, 20_011, np.random.default_rng(seed))
                )
            assert values == [values[0]] * 4

    def test_sampling_memory_does_not_grow_with_the_shots(self):
        """A single draw per row would hold about 16 bytes a shot, 19 MiB here."""
        import tracemalloc

        run = simulate_protocol(weyl_basis(2), BELL_SPEC)
        tracemalloc.start()
        try:
            estimate = sample_protocol_success(run, 5_000_000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(estimate - 0.9) < 1e-3
        assert peak < 4 * 2**20

    def test_sampling_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_protocol_success(
                simulate_protocol(weyl_basis(2), BELL_SPEC), 0, np.random.default_rng(0)
            )


class TestNormalizationCheck:
    def test_simulation_refuses_an_unnormalized_residual(self, unnormalized_residual):
        with pytest.raises(ValueError, match="^outcome distribution for state 1 is not normalized$"):
            simulate_protocol(weyl_basis(2), BELL_SPEC)

    @pytest.mark.parametrize("strategy", ["completion", "projector"])
    def test_bounds_refuse_an_unnormalized_residual(self, unnormalized_residual, strategy):
        with pytest.raises(ValueError, match="^outcome distribution for state 1 is not normalized$"):
            incomplete_bounds(weyl_basis(2), BELL_SPEC, 3, strategy)


class TestIncompleteBounds:
    def test_three_state_benchmark(self):
        """lower = F + (1/3)(a1 - a2)^2/2 = (2/3)(1 + a1 a2)."""
        bounds = incomplete_bounds(weyl_basis(2), BELL_SPEC, 3)
        assert bounds.lower == pytest.approx(2.0 / 3.0 * 1.4, abs=1e-10)
        assert bounds.upper == pytest.approx(1.0)
        assert bounds.assignments == (2,)
        assert bounds.overlaps[0] == pytest.approx(0.1, abs=1e-12)
        assert bounds.in_range

    def test_projector_strategy_matches_at_single_completion(self):
        completion = incomplete_bounds(weyl_basis(2), BELL_SPEC, 3)
        projector = incomplete_bounds(
            weyl_basis(2), BELL_SPEC, 3, strategy="projector"
        )
        assert projector.lower == pytest.approx(completion.lower, abs=1e-12)

    def test_completion_strategy_dominates_projector(self):
        """Per-direction maxima beat one shared maximum."""
        rng = np.random.default_rng(77)
        for _ in range(5):
            spec = random_spectrum(3, rng)
            for n in (4, 6, 8):
                a = incomplete_bounds(weyl_basis(3), spec, n)
                b = incomplete_bounds(weyl_basis(3), spec, n, strategy="projector")
                assert a.lower >= b.lower - 1e-12

    def test_full_set_collapses_to_fef(self):
        bounds = incomplete_bounds(weyl_basis(2), BELL_SPEC, 4)
        assert bounds.lower == pytest.approx(0.9, abs=1e-12)
        assert bounds.upper == pytest.approx(0.9, abs=1e-12)

    def test_maximally_entangled_resource_reaches_one(self):
        bounds = incomplete_bounds(weyl_basis(2), ResourceSpectrum.uniform(2), 3)
        assert bounds.lower == pytest.approx(1.0, abs=1e-10)
        assert bounds.upper == pytest.approx(1.0)

    def test_below_regime_sets_flag(self):
        bounds = incomplete_bounds(weyl_basis(3), ResourceSpectrum.uniform(3), 2)
        assert not bounds.in_range

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
    def test_ordering_invariants(self, seed, d):
        rng = np.random.default_rng(seed)
        spec = random_spectrum(d, rng)
        basis = weyl_basis(d)
        for n in range(d + 1, d * d + 1):
            bounds = incomplete_bounds(basis, spec, n)
            assert fef(spec) - 1e-12 <= bounds.lower
            assert bounds.lower <= bounds.upper + 1e-12
            assert bounds.upper <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("strategy", ["completion", "projector"])
    def test_sweep_matches_each_set_size(self, d, strategy):
        """One outcome matrix for the whole basis gives every N's bounds."""
        rng = np.random.default_rng(120 + d)
        spec = random_spectrum(d, rng)
        basis = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
        sweep = incomplete_bounds_sweep(simulate_protocol(basis, spec), strategy)
        assert [b.n_states for b in sweep] == list(range(d + 1, d * d + 1))
        for b in sweep:
            one = incomplete_bounds(basis, spec, b.n_states, strategy)
            assert (b.dim, b.strategy, b.assignments, b.in_range) == (
                one.dim,
                one.strategy,
                one.assignments,
                one.in_range,
            )
            assert abs(b.lower - one.lower) <= 1e-15
            assert abs(b.upper - one.upper) <= 1e-15
            assert len(b.overlaps) == len(one.overlaps)
            assert all(abs(x - y) <= 1e-15 for x, y in zip(b.overlaps, one.overlaps))

    def test_sweep_checks_its_arguments(self):
        with pytest.raises(ValueError, match="does not match basis"):
            incomplete_bounds_sweep(simulate_protocol(weyl_basis(2), ResourceSpectrum.uniform(3)))
        with pytest.raises(ValueError, match="unknown strategy"):
            incomplete_bounds_sweep(simulate_protocol(weyl_basis(2), BELL_SPEC), "greedy")


def test_tie_break_picks_lowest_index():
    """Ties go to the lowest index whichever way roundoff leans."""
    uniform = ResourceSpectrum.uniform(3)
    skewed = ResourceSpectrum.from_probabilities([0.6, 0.3, 0.1])
    cases = [
        # a maximally entangled resource ties every overlap at zero
        (uniform, 6, "completion", (0, 0, 0)),
        (uniform, 6, "projector", (0,)),
        # residuals 3 and 4 overlap the first unused direction equally
        (skewed, 5, "completion", (3, 0, 0, 0)),
        (skewed, 5, "projector", (3,)),
    ]
    for spec, n, strategy, expected in cases:
        bounds = incomplete_bounds(weyl_basis(3), spec, n, strategy=strategy)
        assert bounds.assignments == expected
        assert min(bounds.overlaps) >= 0.0


def _loop_oracle(basis, spec, n, strategy):
    """Per-state successes, Gram matrix and bound by per-pair loops over kets."""
    a = np.asarray(spec.coeffs)
    gammas = [(np.diag(a.astype(complex)) @ u.T).reshape(-1) for u in basis.unitaries]
    kets = basis.kets()
    per_state = [abs(np.vdot(kets[i], g)) ** 2 for i, g in enumerate(gammas)]
    gram = np.array([[np.vdot(g, h) for h in gammas] for g in gammas])
    if strategy == "completion":
        columns = [
            np.array([abs(np.vdot(v, g)) ** 2 for g in gammas[:n]]) for v in kets[n:]
        ]
    else:
        proj = np.eye(len(kets), dtype=complex)
        for psi in kets[:n]:
            proj -= np.outer(psi, psi.conj())
        columns = [np.array([np.vdot(g, proj @ g).real for g in gammas[:n]])]
    overlaps = [float(col.max()) for col in columns]
    lower = fef(spec) + sum(overlaps) / n
    return per_state, gram, lower, overlaps, columns


def _oracle_cases():
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4):
        yield pytest.param(weyl_basis(d), random_spectrum(d, rng), id=f"weyl-d{d}")
        basis = conjugated_basis(weyl_basis(d), haar_random_unitary(d, rng))
        yield pytest.param(basis, random_spectrum(d, rng), id=f"haar-d{d}")


@pytest.mark.parametrize("basis, spec", list(_oracle_cases()))
def test_outcome_matrix_matches_the_per_pair_loops(basis, spec):
    d = basis.dim
    per_state, gram, _, _, _ = _loop_oracle(basis, spec, d * d, "completion")
    run = simulate_protocol(basis, spec)
    assert np.max(np.abs(np.array(run.per_state) - per_state)) <= 1e-14
    assert np.max(np.abs(_gram(teleport_residuals(basis, spec)) - gram)) <= 1e-14
    for n in range(1, d * d):
        for strategy in ("completion", "projector"):
            _, _, lower, overlaps, columns = _loop_oracle(basis, spec, n, strategy)
            bounds = incomplete_bounds(basis, spec, n, strategy=strategy)
            assert abs(bounds.lower - lower) <= 1e-14
            assert np.max(np.abs(np.array(bounds.overlaps) - overlaps)) <= 1e-14
            assert len(bounds.assignments) == len(columns)
            for col, assigned in zip(columns, bounds.assignments):
                top = np.sort(col)[::-1]
                if len(top) == 1 or top[0] - top[1] > 1e-12:
                    assert assigned == int(np.argmax(col))
