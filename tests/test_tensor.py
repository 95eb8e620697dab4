"""Tensor-space primitives: partial transposition, eigensolves, and the
layout oracles the tests check them against."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entdist.sdp import _Operators
from entdist.states import ResourceSpectrum, build_ensemble, weyl_basis
from entdist.tensor import frobenius, psd_clip, require_hermitian
from oracles import partial_transpose, permute_factors, permute_ket


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng, dim):
    m = random_matrix(rng, dim)
    return m + m.conj().T


def psd_project(h):
    """Frobenius-nearest PSD matrix, from one eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.maximum(w, 0.0)) @ v.conj().T


dims_strategy = st.lists(st.integers(min_value=2, max_value=3), min_size=2, max_size=3)


@settings(max_examples=25, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
def test_partial_transpose_is_involutive_isometry(dims, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, int(np.prod(dims)))
    pt = partial_transpose(m, dims, (0,))
    assert np.allclose(partial_transpose(pt, dims, (0,)), m)
    assert frobenius(pt) == pytest.approx(frobenius(m), rel=1e-12)


def test_partial_transpose_on_product_transposes_the_factor():
    rng = np.random.default_rng(3)
    a, b = random_matrix(rng, 2), random_matrix(rng, 3)
    got = partial_transpose(np.kron(a, b), (2, 3), (0,))
    assert np.allclose(got, np.kron(a.T, b), atol=1e-13)


def test_partial_transpose_all_factors_is_full_transpose():
    rng = np.random.default_rng(4)
    m = random_matrix(rng, 8)
    assert np.allclose(partial_transpose(m, (2, 2, 2), (0, 1, 2)), m.T)


def test_partial_transpose_validates_factor_indices():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), (2, 2), (2,))


def test_transpose_party_a_matches_explicit_factors():
    """The solver's A1A2 transpose (``_Operators.to_blocks``) is the
    factor-by-factor transpose of factors 0 and 1 of (d, d, d, d), bit for bit."""
    rng = np.random.default_rng(5)
    for d in (2, 3):
        dims, dim = (d, d, d, d), d**4
        spec = ResourceSpectrum.from_probabilities(rng.dirichlet(np.ones(d)))
        states = build_ensemble(weyl_basis(d), spec, d + 2).density_operators()
        stack = np.stack([random_matrix(rng, dim) for _ in range(3)])
        for m in (stack, states):
            got = _Operators(m).to_blocks(m)
            assert got.shape == m.shape
            assert np.array_equal(got, partial_transpose(m, dims, (0, 1)))


@pytest.mark.parametrize(
    "dims, party_a",
    [((2, 3), (0,)), ((2, 2, 2, 2), (0, 1))],
    ids=["pair_2x3", "four_factor_2"],
)
def test_partial_transpose_of_stack_matches_each_matrix(dims, party_a):
    rng = np.random.default_rng(8)
    dim = int(np.prod(dims))
    stack = np.stack([random_matrix(rng, dim) for _ in range(4)])
    batched = partial_transpose(stack, dims, (0,))
    over_a = partial_transpose(stack, dims, party_a)
    for k, m in enumerate(stack):
        assert np.array_equal(batched[k], partial_transpose(m, dims, (0,)))
        assert np.array_equal(over_a[k], partial_transpose(m, dims, party_a))
    deep = partial_transpose(stack.reshape(2, 2, dim, dim), dims, party_a)
    assert np.array_equal(deep.reshape(stack.shape), over_a)


def test_partial_transpose_rejects_wrong_stack_shape():
    for bad in (np.zeros(4), np.zeros((3, 4, 5)), np.zeros((3, 3, 3))):
        with pytest.raises(ValueError):
            partial_transpose(bad, (2, 2), (0,))


def test_psd_clip_of_stack_matches_psd_project():
    rng = np.random.default_rng(12)
    stack = np.stack([random_hermitian(rng, 6) for _ in range(5)])
    clipped = psd_clip(stack)
    assert clipped.shape == stack.shape
    for k, h in enumerate(stack):
        assert np.allclose(clipped[k], psd_project(h), rtol=0.0, atol=1e-12)


# permute_factors is the tests' dense oracle (oracles.py); these pin it down.
def test_permute_factors_composes():
    rng = np.random.default_rng(6)
    m = random_matrix(rng, 24)
    once = permute_factors(m, (2, 3, 4), (1, 2, 0))
    twice = permute_factors(once, (3, 4, 2), (1, 2, 0))
    thrice = permute_factors(twice, (4, 2, 3), (1, 2, 0))
    assert np.allclose(thrice, m)


def test_permute_factors_agrees_with_ket_conjugation():
    """Permuting an outer product must equal permuting the kets."""
    rng = np.random.default_rng(7)
    dims = (2, 3, 2)
    u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    perm = (2, 0, 1)
    left = permute_factors(np.outer(u, v.conj()), dims, perm)
    right = np.outer(permute_ket(u, dims, perm), permute_ket(v, dims, perm).conj())
    assert np.allclose(left, right, atol=1e-13)


def test_permute_rejects_non_permutations():
    with pytest.raises(ValueError):
        permute_factors(np.eye(4), (2, 2), (0, 0))
    with pytest.raises(ValueError):
        permute_ket(np.zeros(4), (2, 2), (1, 1))
    # one matrix is expected here; only the transpose takes stacks
    with pytest.raises(ValueError):
        permute_factors(np.zeros((3, 4, 4), dtype=complex), (2, 2), (1, 0))


def test_hermiticity_defect_and_checks():
    h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    require_hermitian(h)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="^matrix is not Hermitian"):
        require_hermitian(skew)
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))
    # a stack is checked matrix by matrix, and the failing one is named
    stack = np.stack([h, h, skew, h])
    require_hermitian(stack[[0, 1, 3]])
    with pytest.raises(ValueError, match="^block 2 is not Hermitian"):
        require_hermitian(stack)
    with pytest.raises(ValueError, match="^block 1, 0 is not Hermitian"):
        require_hermitian(stack.reshape(2, 2, 2, 2))
    # the bound grows with each matrix's own norm, not the stack's
    big = 1e6 * h
    big[0, 1] += 1e-7
    require_hermitian(big)
    with pytest.raises(ValueError, match="^block 1 "):
        require_hermitian(np.stack([big, h + [[0, 1e-7], [0, 0]]]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
def test_psd_project_properties(seed, dim):
    """psd_clip is the PSD projection: PSD, idempotent, nearest."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    p = psd_clip(h)
    assert np.linalg.eigvalsh(p)[0] >= -1e-9 * (1.0 + frobenius(p))
    assert np.allclose(p, psd_clip(p), atol=1e-11)
    # projection residual equals the norm of the clipped negative part
    w = np.linalg.eigvalsh(h)
    assert frobenius(p - h) == pytest.approx(
        float(np.linalg.norm(np.minimum(w, 0.0))), abs=1e-10
    )
