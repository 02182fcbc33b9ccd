"""Property tests of one step: tensor power -> apply_step -> postselect.

Random sparse maps of degree 2 and 3 with n <= 6 (and of degree 4 with
n <= 3) are drawn and each stage is checked against an independent
reference: np.kron for the tensor power, a full-length bincount for the
step's compressed adjoint update and the dense B^dag for conftest's,
separate real and imaginary bincounts for the compressed B u, the
orderings from itertools.permutations for the register indices the step
writes, the classical oracle apply_map for the probability and the
posterior, and the dense step matrix from conftest for the stepped state.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import (GraphSpec, JointState, PolynomialMap, apply_map, apply_step,
                    decode, discrete_nls, encode, euler_map, make_step_operator,
                    power_map, tensor_power)
from qeuler.nonlin_step import _bins, _correction, _sums
from conftest import (anchors, dense_postselect, dense_product, dense_step_unitary,
                      expanded_operator, ideal_step, matvec, postselect, rmatvec,
                      sparse_maps, to_dense, unit_vector)

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
    # scatter-add over the expanded reference's ordered columns, summed in
    # the same order, bit for bit (in the example, columns (0, 1) and (1, 0)
    # each feed rows 1..4); B w0 is read at each multiset's sorted column,
    # weighted by its orderings; conftest's B^dag, which the dense
    # references read, is the dense B^dag to rounding
    op = make_step_operator(pmap)
    A = expanded_operator(pmap)
    state = encode(unit_vector(pmap.n, seed))
    stepped = apply_step(tensor_power(state, pmap.degree), op)
    assert np.array_equal(stepped.amps, expanded_step(op, state))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(pmap.n + 1) + 1j * rng.standard_normal(pmap.n + 1)
    B = to_dense(A)[anchors(A.n, A.degree)]
    assert np.abs(rmatvec(A, x) - B.conj().T @ x).max() <= 1e-13 * (
        1.0 + np.abs(B).sum()) * np.abs(x).max()


def expanded_step(op, state) -> np.ndarray:
    """The stepped joint vector as the full-length scatter-add of B^dag
    g(G) B w0 over the expanded reference's ordered columns, summed in the
    order the step sums each multiset, onto np.kron's product."""
    A, D = expanded_operator(op.pmap), op.A.register_dim
    Bw0 = matvec(op.A, dense_product(state, op.degree)[op.A.cols])
    weights = A.vals.conj() * _correction(op, Bw0)[A.rows]
    expected = dense_product(state, op.degree)
    expected[:D] += np.bincount(A.cols, weights.real, D) + 1j * np.bincount(
        A.cols, weights.imag, D)
    expected[D + anchors(A.n, A.degree)] = op.epsilon * Bw0
    return expected


class _Recording(np.ndarray):
    """An amplitude vector that records each index written into it."""

    def __setitem__(self, index, value):
        self.writes.append(index)
        super().__setitem__(index, value)


def step_and_writes(op, joint):
    """apply_step(joint, op) and the register indices of its sector-0
    update, as written into the product vector."""
    writes, product_vector = [], JointState._product_vector

    def recording(state):
        amps = product_vector(state).view(_Recording)
        amps.writes = writes
        return amps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JointState, "_product_vector", recording)
        stepped = apply_step(joint, op)
    return stepped, writes[0]


def assert_step_writes_each_ordering_once(pmap, seed, dense: bool):
    """The step writes B^dag g(G) B w0 into the product at each ordering of
    each of B's multisets once, and nowhere else in sector 0, bit for bit
    as the expanded scatter-add, and (if dense) as conftest's dense step
    matrix to 1e-13."""
    op = make_step_operator(pmap)
    real = not pmap.entries.imag.any()
    state = encode(unit_vector(pmap.n, seed, real=real))
    joint = tensor_power(state, pmap.degree)
    stepped, written = step_and_writes(op, joint)
    orderings = np.unique(expanded_operator(pmap).cols)
    assert np.array_equal(np.sort(written), orderings)
    D = op.A.register_dim
    moved = np.flatnonzero(stepped.amps[:D] != joint.amps[:D])
    assert np.isin(moved, orderings).all()
    assert np.array_equal(stepped.amps, expanded_step(op, state))
    if dense:
        assert np.abs(stepped.amps - dense_step_unitary(op) @ joint.amps).max() <= 1e-13


@PROPERTY_SETTINGS
@given(st.booleans().flatmap(lambda real: sparse_maps(max_n=3, degrees=(2, 3, 4),
                                                      real=real)), seeds)
def test_step_writes_each_ordering_of_bs_multisets_once(pmap, seed):
    assert_step_writes_each_ordering_once(pmap, seed, dense=True)


@pytest.mark.parametrize("pmap, dense", [
    (power_map(8), True),
    (PolynomialMap(2, 5, {(1, (0, 1, 1, 2, 2)): 0.5 - 1j, (2, (1, 1, 1, 1, 2)): 2.0,
                          (2, (0, 0, 0, 0, 2)): 1.0}), True),
    (PolynomialMap(1, 6, {(1, (0, 0, 0, 1, 1, 1)): 1.5, (1, (0, 0, 0, 0, 0, 1)): -0.5j}),
     True),
    (PolynomialMap(2, 8, {(1, (0, 0, 1, 1, 1, 2, 2, 2)): 1.0 + 0.5j,
                          (2, (1, 1, 1, 1, 1, 1, 1, 2)): -0.75,
                          (2, (0, 0, 0, 0, 0, 0, 0, 1)): 0.25,
                          (1, (0, 1, 2, 2, 2, 2, 2, 2)): 1j}), False)],
    ids=["power_map(8)", "degree 5, n = 2", "degree 6, n = 1", "degree 8, n = 2"])
def test_step_writes_each_ordering_once_at_high_degree(pmap, dense):
    # 3^8 = 6561 register indices at degree 8, n = 2: too many for the dense
    # step matrix, so that case is held to the expanded scatter-add alone
    assert_step_writes_each_ordering_once(pmap, 5, dense)


@PROPERTY_SETTINGS
@given(sparse_maps(max_n=6), seeds)
def test_compressed_matvec_matches_two_bincounts(pmap, seed):
    A = make_step_operator(pmap).A
    rng = np.random.default_rng(seed)
    K = A.col_of.max() + 1
    w = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    # one bincount of the interleaved float view against conftest's one
    # bincount of the real parts and one of the imaginary parts
    got = _sums(A.weights, w[A.col_of], _bins(A.rows, A.n + 1), A.n + 1)
    assert got.tobytes() == matvec(A, w[A.col_of]).tobytes()


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
