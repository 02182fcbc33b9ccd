"""Property tests of one step: tensor power -> apply_step -> postselect.

Random sparse maps of degree 2 and 3 with n <= 6 are drawn and each stage is
checked against an independent reference: np.kron for the tensor power, the
dense B^dag and a full-length bincount for the compressed adjoint update,
and the classical oracle apply_map for the probability and the posterior.
"""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (apply_map, apply_step, decode, encode, make_step_operator,
                    postselect, tensor_power)
from conftest import sparse_maps, unit_vector

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2 ** 32 - 1)


@PROPERTY_SETTINGS
@given(sparse_maps(max_n=6), seeds)
def test_tensor_power_matches_kron(pmap, seed):
    state = encode(unit_vector(pmap.n, seed))
    D = (pmap.n + 1) ** pmap.degree
    expected = np.concatenate([reduce(np.kron, [state.amps] * pmap.degree),
                               np.zeros(D, dtype=complex)])
    joint = tensor_power(state, pmap.degree)
    assert np.abs(joint.amps - expected).max() <= 1e-15


@PROPERTY_SETTINGS
@given(sparse_maps(max_n=6), seeds)
def test_compressed_adjoint_matches_dense(pmap, seed):
    A = make_step_operator(pmap).A
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(pmap.n + 1) + 1j * rng.standard_normal(pmap.n + 1)
    compressed = A.rmatvec_nonzero(x)
    # the full-length scatter-add, summed in the same order as the K-vector
    weights = A.vals.conj() * x[A.rows]
    full = (np.bincount(A.cols, weights.real, A.register_dim)
            + 1j * np.bincount(A.cols, weights.imag, A.register_dim))
    assert np.array_equal(compressed, full[A.nonzero_cols])
    assert np.array_equal(A.rmatvec(x), full)
    B = A.to_dense()[A.anchor_indices]
    assert np.abs(A.rmatvec(x) - B.conj().T @ x).max() <= 1e-13 * (
        1.0 + np.abs(B).sum()) * np.abs(x).max()
    assert not np.any(np.delete(B, A.nonzero_cols, axis=1))


@PROPERTY_SETTINGS
@given(sparse_maps(max_n=6), seeds)
def test_step_keeps_norm_and_matches_oracle(pmap, seed):
    op = make_step_operator(pmap)
    z = unit_vector(pmap.n, seed)
    stepped = apply_step(tensor_power(encode(z), op.degree), op)
    assert abs(np.linalg.norm(stepped.amps) - 1.0) <= 1e-12

    outcome = postselect(stepped, 1, epsilon=op.epsilon)
    f = apply_map(pmap, z)
    # (1 + ||z||^2)^d = 2^d for a unit z
    predicted = op.epsilon ** 2 * (1.0 + np.vdot(f, f).real) / 2.0 ** op.degree
    assert abs(outcome.probability - predicted) <= 1e-10 * predicted
    scale = 1.0 + np.abs(f).max()
    assert np.abs(decode(outcome.posterior) - f).max() <= 1e-10 * scale
