"""Property tests of one step: tensor power -> apply_step -> postselect.

Random sparse maps of degree 2 and 3 with n <= 6 are drawn and each stage is
checked against an independent reference: np.kron for the tensor power, a
full-length bincount for the step's compressed adjoint update and the dense
B^dag for conftest's, separate real and imaginary bincounts for the
compressed B u, the classical oracle apply_map for the probability and the
posterior, and the dense step matrix from conftest for the stepped state.
"""

import tracemalloc
from functools import reduce

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import (GraphSpec, PolynomialMap, apply_map, apply_step, decode,
                    discrete_nls, encode, euler_map, make_step_operator,
                    tensor_power)
from qeuler.nonlin_step import _correction
from conftest import (anchors, dense_postselect, dense_product, dense_step_unitary,
                      ideal_step, postselect, rmatvec, sparse_maps, to_dense,
                      unit_vector)

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
@example(PolynomialMap(4, 2, {(a, (0, 1)): 1.0 + a * 1e-3j for a in range(1, 5)}), 3)
def test_compressed_adjoint_matches_dense(pmap, seed):
    # the step adds B^dag g(G) B w0 to the product as the full-length
    # scatter-add, summed in the same order, bit for bit (in the example,
    # columns (0, 1) and (1, 0) each feed rows 1..4); conftest's B^dag,
    # which the dense references read, is the dense B^dag to rounding
    op = make_step_operator(pmap)
    A, D = op.A, op.A.register_dim
    state = encode(unit_vector(pmap.n, seed))
    Bw0 = A.matvec_nonzero(dense_product(state, pmap.degree)[A.cols])
    weights = A.vals.conj() * _correction(op, Bw0)[A.rows]
    expected = dense_product(state, pmap.degree)
    expected[:D] += np.bincount(A.cols, weights.real, D) + 1j * np.bincount(
        A.cols, weights.imag, D)
    expected[D + anchors(A.n, A.degree)] = op.epsilon * Bw0
    stepped = apply_step(tensor_power(state, pmap.degree), op)
    assert np.array_equal(stepped.amps, expected)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(pmap.n + 1) + 1j * rng.standard_normal(pmap.n + 1)
    B = to_dense(A)[anchors(A.n, A.degree)]
    assert np.abs(rmatvec(A, x) - B.conj().T @ x).max() <= 1e-13 * (
        1.0 + np.abs(B).sum()) * np.abs(x).max()


@PROPERTY_SETTINGS
@given(sparse_maps(max_n=6), seeds)
def test_compressed_matvec_matches_two_bincounts(pmap, seed):
    A = make_step_operator(pmap).A
    rng = np.random.default_rng(seed)
    K = A.col_of.max() + 1
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
    stepped = apply_step(tensor_power(state, d), op)
    dense = dense_step_unitary(op) @ tensor_power(state, d).amps
    probability, posterior = dense_postselect(dense, n, d)
    got = postselect(stepped, op.epsilon)
    assert abs(got.probability - probability) <= 1e-13
    sector0 = stepped.amps[:op.A.register_dim]
    assert abs(np.vdot(sector0, sector0).real - (1.0 - probability)) <= 1e-13
    assert np.abs(got.posterior.amps - posterior.amps).max() <= 1e-13
    norm_factor = np.sqrt(2.0 ** (d - 1) * probability) / op.epsilon
    assert abs(got.norm_factor - norm_factor) <= 1e-13
    assert np.abs(stepped.amps - dense).max() <= 1e-13


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
