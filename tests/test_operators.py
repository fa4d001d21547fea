"""Tests for the operator input policies, the validated eigendecomposition, and the oracles."""

import math
import re
import warnings

import numpy as np
import pytest

import waveprop as wp
from waveprop import verify
from waveprop.operators import _eigh, _hermitian_part
from waveprop.serialization import dump_json, matrix_to_json


def _fixture_check(tmp_path, matrix):
    path = tmp_path / "matrix.json"
    dump_json({"kind": "matrix", "matrix": matrix_to_json(matrix)}, path)
    return verify.run_fixture_check(path)


def test_hermitian_input_accepted_without_warning(tmp_path):
    a = wp.random_hermitian(4, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat, symmetrized = _hermitian_part(a)
        report = _fixture_check(tmp_path, a)
    assert not symmetrized
    assert np.array_equal(mat, a)
    assert report["warnings"] == [] and report["details"] == {"symmetrized": False}


def test_non_hermitian_input_warns_and_symmetrizes(tmp_path):
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    message = "input is not Hermitian (relative defect 1.155e+00); using the Hermitian part"
    with pytest.warns(UserWarning, match=re.escape(message)):
        mat, symmetrized = _hermitian_part(m)
    assert symmetrized
    assert np.allclose(mat, np.array([[1.0, 1.0], [1.0, 1.0]]))
    report = _fixture_check(tmp_path, m)
    assert report["warnings"] == [message] and report["details"] == {"symmetrized": True}
    assert report["passed"]


def test_non_square_input_rejected():
    with pytest.raises(ValueError, match=re.escape("expected square operators, got shape (2, 3)")):
        _hermitian_part(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ValueError, match="operator 0 has non-finite entries"):
        _hermitian_part(np.array([[1.0, bad], [0.0, 1.0]]))


def test_decomposition_reconstructs_operator():
    a = wp.random_hermitian(6, seed=11)
    w, v = _eigh(a)
    assert np.all(np.diff(w) >= 0)
    rebuilt = (v * w) @ v.conj().T
    assert np.linalg.norm(rebuilt - a) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-12


def test_eigh_refuses_a_pair_that_does_not_rebuild_the_matrix():
    # eigh reads one triangle, so a non-Hermitian matrix fails the reconstruction check
    with pytest.raises(np.linalg.LinAlgError, match="eigendecomposition failed validation"):
        _eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigh_validates_every_block_of_a_stack():
    stack = np.stack([wp.random_hermitian(5, seed=s) for s in range(4)])
    w, v = _eigh(stack)
    for block, lam, vec in zip(stack, w, v):
        assert np.linalg.norm((vec * lam) @ vec.conj().T - block) <= 1e-12 * np.linalg.norm(block)
    stack[2, 0, 3] += 1.0  # eigh reads one triangle: block 2 no longer rebuilds
    with pytest.raises(np.linalg.LinAlgError, match="eigendecomposition failed validation"):
        _eigh(stack)


def test_matrix_function_of_zero_argument_is_identity():
    w, v = _eigh(np.zeros((3, 3)))
    assert np.allclose((v * np.cos(w)) @ v.conj().T, np.eye(3))


def test_transmutation_check_refuses_what_the_oracle_refuses():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="operator 0 is not Hermitian") as oracle:
        wp.cos_sqrt_sum_oracle([m], 0.5)
    with pytest.raises(ValueError, match="operator 0 is not Hermitian") as check:
        wp.transmutation_check(m, 0.5)
    assert str(check.value) == str(oracle.value)


def test_cos_oracle_diagonal_values():
    a = np.diag([1.0, 2.0])
    got = wp.cos_sqrt_sum_oracle([a], 0.5)
    assert np.allclose(np.diag(got), [math.cos(0.5), math.cos(1.0)], atol=1e-14)


def test_cos_oracle_matches_direct_eigendecomposition():
    rng = np.random.default_rng(7)
    a = wp.random_hermitian(5, rng=rng)
    b = wp.random_hermitian(5, rng=rng)
    t = 0.8
    s = a @ a + b @ b
    evals, vecs = np.linalg.eigh(s)
    direct = (vecs * np.cos(t * np.sqrt(np.clip(evals, 0.0, None)))) @ vecs.conj().T
    got = wp.cos_sqrt_sum_oracle([a, b], t)
    assert np.linalg.norm(got - direct) <= 1e-11


def test_sinc_oracle_zero_operator_gives_t():
    t = 0.7
    got = wp.sinc_sqrt_sum_oracle([np.zeros((2, 2))], t)
    assert np.allclose(got, t * np.eye(2), atol=1e-14)


def test_sinc_oracle_diagonal_values():
    a = np.diag([2.0, 3.0])
    t = 0.4
    got = np.diag(wp.sinc_sqrt_sum_oracle([a], t)).real
    expected = [math.sin(t * 2.0) / 2.0, math.sin(t * 3.0) / 3.0]
    assert np.allclose(got, expected, atol=1e-14)


@pytest.mark.parametrize("oracle", [wp.cos_sqrt_sum_oracle, wp.sinc_sqrt_sum_oracle])
def test_oracles_refuse_invalid_operators(oracle):
    with pytest.raises(ValueError, match="operator 0 has non-finite entries"):
        oracle([np.diag([np.nan, 2.0])], 0.3)
    with pytest.raises(ValueError, match="operator 1 is not Hermitian"):
        oracle([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])], 0.3)
    with pytest.raises(ValueError, match="operator 1 has shape"):
        oracle([np.eye(2), np.eye(3)], 0.3)
    with pytest.raises(ValueError, match="need at least one operator"):
        oracle([], 0.3)


def test_random_hermitian_properties():
    a = wp.random_hermitian(6, seed=9, norm=1.0)
    assert np.allclose(a, a.conj().T)
    assert np.linalg.norm(a, 2) == pytest.approx(1.0, rel=1e-12)
    again = wp.random_hermitian(6, seed=9, norm=1.0)
    assert np.array_equal(a, again)


def test_random_state_is_complex_and_reproducible():
    v = wp.random_state(8, seed=4)
    assert v.shape == (8,)
    assert np.iscomplexobj(v)
    assert np.array_equal(v, wp.random_state(8, seed=4))
