"""Property tests of one step: tensor power -> apply_step -> postselect.

Random sparse maps of degree 2 and 3 with n <= 6 are drawn and each stage is
checked against an independent reference: np.kron for the tensor power, the
dense B^dag and a full-length bincount for the compressed adjoint update,
separate real and imaginary bincounts for the compressed B u, the classical
oracle apply_map for the probability and the posterior, and the dense step
matrix from conftest for the factored state.
"""

import tracemalloc
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (GraphSpec, PolynomialMap, apply_map,
                    apply_step, decode, discrete_nls, encode, euler_map,
                    make_step_operator, tensor_power)
from conftest import (dense_postselect, dense_step_unitary, ideal_step, postselect,
                      rmatvec, sparse_maps, to_dense, unit_vector)

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
    assert np.array_equal(rmatvec(A, x), full)
    B = to_dense(A)[A.anchor_indices]
    assert np.abs(rmatvec(A, x) - B.conj().T @ x).max() <= 1e-13 * (
        1.0 + np.abs(B).sum()) * np.abs(x).max()
    assert not np.any(np.delete(B, A.nonzero_cols, axis=1))
    # a stack, on bins stacked for more rows than it has, row by row
    stack = np.stack([x, 2j * x, x.conj()])
    rows = [A.rmatvec_nonzero(r) for r in stack]
    assert np.array_equal(A.rmatvec_stack(stack, A.stacked_col_bins(5)), rows)


def test_compressed_adjoint_sums_each_column_in_row_order():
    # Columns (0, 1) and (1, 0) of B each feed rows 1..4.  Their sums
    # 1 + 2^53 - 2^53 + 1 give 1 in row order and 2 in reverse order, in the
    # real and the imaginary parts alike.
    pmap = PolynomialMap(4, 2, {(a, (0, 1)): 1.0 for a in range(1, 5)})
    A = make_step_operator(pmap).A
    big = 2.0 ** 53
    x = np.array([0.5, 1.0, big, -big, 1.0]) * (1 + 1j)
    weights = A.vals.conj() * x[A.rows]
    K = A.nonzero_cols.shape[0]
    reference = (np.bincount(A.col_of, weights.real, K)
                 + 1j * np.bincount(A.col_of, weights.imag, K))
    compressed = A.rmatvec_nonzero(x)
    assert np.array_equal(compressed, reference)
    shared = np.flatnonzero(np.bincount(A.col_of) == 4)
    assert shared.size == 2
    assert np.all(compressed[shared] == 1 + 1j)


@PROPERTY_SETTINGS
@given(sparse_maps(max_n=6), seeds)
def test_compressed_matvec_matches_two_bincounts(pmap, seed):
    A = make_step_operator(pmap).A
    rng = np.random.default_rng(seed)
    K = A.nonzero_cols.shape[0]
    w = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    # one bincount of the real parts and one of the imaginary parts
    weights = A.vals * w[A.col_of]
    reference = (np.bincount(A.rows, weights.real, A.n + 1)
                 + 1j * np.bincount(A.rows, weights.imag, A.n + 1))
    assert np.array_equal(A.matvec_nonzero(w[A.col_of]), reference)


@PROPERTY_SETTINGS
@given(sparse_maps(max_n=6), seeds)
def test_step_keeps_norm_and_matches_oracle(pmap, seed):
    op = make_step_operator(pmap)
    z = unit_vector(pmap.n, seed)
    stepped = apply_step(tensor_power(encode(z), op.degree), op)
    assert abs(np.linalg.norm(stepped.amps) - 1.0) <= 1e-12

    outcome = postselect(stepped, op.epsilon)
    f = apply_map(pmap, z)
    # (1 + ||z||^2)^d = 2^d for a unit z
    predicted = op.epsilon ** 2 * (1.0 + np.vdot(f, f).real) / 2.0 ** op.degree
    assert abs(outcome.probability - predicted) <= 1e-10 * predicted
    scale = 1.0 + np.abs(f).max()
    assert np.abs(decode(outcome.posterior) - f).max() <= 1e-10 * scale


@PROPERTY_SETTINGS
@given(sparse_maps(), seeds)
def test_factored_step_matches_materialised(pmap, seed):
    op = make_step_operator(pmap)
    n, d = pmap.n, pmap.degree
    state = encode(unit_vector(n, seed))
    factored = apply_step(tensor_power(state, d), op)
    dense = dense_step_unitary(op) @ tensor_power(state, d).amps
    probability, posterior = dense_postselect(dense, n, d)
    got = postselect(factored, op.epsilon)
    assert abs(got.probability - probability) <= 1e-13
    assert abs(factored.sector_mass(0) - (1.0 - probability)) <= 1e-13
    assert np.abs(got.posterior.amps - posterior.amps).max() <= 1e-13
    norm_factor = np.sqrt(2.0 ** (d - 1) * probability) / op.epsilon
    assert abs(got.norm_factor - norm_factor) <= 1e-13
    assert np.abs(factored.amps - dense).max() <= 1e-13


def test_ideal_step_allocates_no_joint_buffer():
    # discrete NLS on a 14-vertex cycle: n = 28, d = 3, D = 29^3 = 24389
    op = make_step_operator(euler_map(discrete_nls(GraphSpec.cycle(14), 2), 1e-3))
    D = op.A.register_dim
    assert op.degree == 3 and D >= 20000
    state = encode(unit_vector(op.A.n, 1))
    ideal_step(op, state)
    tracemalloc.start()
    try:
        ideal_step(op, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < D * 16 / 4
