"""Tensor-space primitives: layouts, partial transposition, eigensolves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entdist.tensor import (
    SubsystemLayout,
    frobenius,
    partial_transpose,
    psd_clip,
    require_hermitian,
    transpose_party_a,
)
from entdist.states import four_factor_layout
from oracles import permute_factors, permute_ket


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


def test_layout_rejects_bad_cut():
    with pytest.raises(ValueError):
        SubsystemLayout((2, 2), cut=2)
    with pytest.raises(ValueError):
        SubsystemLayout((2, 0), cut=1)


def test_layout_dimensions():
    lay = SubsystemLayout((2, 3, 4), cut=2)
    assert lay.dim == 24
    assert lay.dim_a == 6
    assert lay.dim_b == 4
    assert lay.party_a == (0, 1)


def test_layout_shape_checks():
    lay = SubsystemLayout((2, 2), cut=1)
    with pytest.raises(ValueError):
        lay.check_matrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        lay.check_ket(np.zeros(3))
    # one matrix is expected here; only the transpose path takes stacks
    stack = np.zeros((3, 4, 4), dtype=complex)
    with pytest.raises(ValueError):
        lay.check_matrix(stack)
    with pytest.raises(ValueError):
        permute_factors(stack, lay, (1, 0))


@settings(max_examples=25, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 2**32 - 1))
def test_partial_transpose_is_involutive_isometry(dims, seed):
    rng = np.random.default_rng(seed)
    lay = SubsystemLayout(tuple(dims), cut=1)
    m = random_matrix(rng, lay.dim)
    pt = partial_transpose(m, lay, (0,))
    assert np.allclose(partial_transpose(pt, lay, (0,)), m)
    assert frobenius(pt) == pytest.approx(frobenius(m), rel=1e-12)


def test_partial_transpose_on_product_transposes_the_factor():
    rng = np.random.default_rng(3)
    a, b = random_matrix(rng, 2), random_matrix(rng, 3)
    lay = SubsystemLayout((2, 3), cut=1)
    got = partial_transpose(np.kron(a, b), lay, (0,))
    assert np.allclose(got, np.kron(a.T, b), atol=1e-13)


def test_partial_transpose_all_factors_is_full_transpose():
    rng = np.random.default_rng(4)
    lay = SubsystemLayout((2, 2, 2), cut=1)
    m = random_matrix(rng, lay.dim)
    assert np.allclose(partial_transpose(m, lay, (0, 1, 2)), m.T)


def test_partial_transpose_validates_factor_indices():
    lay = SubsystemLayout((2, 2), cut=1)
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), lay, (2,))


def test_transpose_party_a_matches_explicit_factors():
    rng = np.random.default_rng(5)
    lay = SubsystemLayout((2, 2, 2, 2), cut=2)
    m = random_matrix(rng, lay.dim)
    assert np.array_equal(
        transpose_party_a(m, lay), partial_transpose(m, lay, (0, 1))
    )


@pytest.mark.parametrize(
    "layout",
    [SubsystemLayout((2, 3), cut=1), four_factor_layout(2)],
    ids=["pair_2x3", "four_factor_2"],
)
def test_partial_transpose_of_stack_matches_each_matrix(layout):
    rng = np.random.default_rng(8)
    stack = np.stack([random_matrix(rng, layout.dim) for _ in range(4)])
    batched = partial_transpose(stack, layout, (0,))
    party_a = transpose_party_a(stack, layout)
    for k, m in enumerate(stack):
        assert np.array_equal(batched[k], partial_transpose(m, layout, (0,)))
        assert np.array_equal(party_a[k], transpose_party_a(m, layout))
    deep = transpose_party_a(stack.reshape(2, 2, layout.dim, layout.dim), layout)
    assert np.array_equal(deep.reshape(stack.shape), party_a)


def test_partial_transpose_rejects_wrong_stack_shape():
    lay = SubsystemLayout((2, 2), cut=1)
    for bad in (np.zeros(4), np.zeros((3, 4, 5)), np.zeros((3, 3, 3))):
        with pytest.raises(ValueError):
            partial_transpose(bad, lay, (0,))


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
    lay = SubsystemLayout((2, 3, 4), cut=1)
    m = random_matrix(rng, lay.dim)
    once = permute_factors(m, lay, (1, 2, 0))
    lay2 = SubsystemLayout((3, 4, 2), cut=1)
    twice = permute_factors(once, lay2, (1, 2, 0))
    lay3 = SubsystemLayout((4, 2, 3), cut=1)
    thrice = permute_factors(twice, lay3, (1, 2, 0))
    assert np.allclose(thrice, m)


def test_permute_factors_agrees_with_ket_conjugation():
    """Permuting an outer product must equal permuting the kets."""
    rng = np.random.default_rng(7)
    dims = (2, 3, 2)
    lay = SubsystemLayout(dims, cut=1)
    u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    perm = (2, 0, 1)
    left = permute_factors(np.outer(u, v.conj()), lay, perm)
    right = np.outer(permute_ket(u, dims, perm), permute_ket(v, dims, perm).conj())
    assert np.allclose(left, right, atol=1e-13)


def test_permute_rejects_non_permutations():
    lay = SubsystemLayout((2, 2), cut=1)
    with pytest.raises(ValueError):
        permute_factors(np.eye(4), lay, (0, 0))
    with pytest.raises(ValueError):
        permute_ket(np.zeros(4), (2, 2), (1, 1))


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
