"""Property tests of the sparse transfer operator against its dense form.

Random sparse maps of degree 2 and 3 with n <= 5 are drawn, and every
operation on the triplets is compared with the same operation on the dense
matrix from conftest.to_dense (or, for the Gram matrix, conftest.dense_gram).
"""

import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (GraphSpec, PolynomialMap, StepOperator,
                    apply_step, build_A, discrete_nls, distance, encode, euler_map,
                    identity_map, lorenz, make_step_operator,
                    nls_initial_state, operator_norm, orszag_mclaughlin,
                    permutation_map, power_map, random_measure_preserving_map,
                    random_unitary_map, tensor_power, unitary_map)
from qeuler import nonlin_step
from qeuler.euler_driver import _sector1_direction
from qeuler.nonlin_step import (_correction, _g_of_gram, _gram_matrix,
                                _perturbed_trials)
from conftest import (anchors, apply, apply_adjoint, dense_gram, dense_postselect,
                      dense_product, dense_sector1, ideal_step, rmatvec, sparse_maps,
                      to_dense, unit_vector)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def random_vector(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def dense_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix."""
    w, q = np.linalg.eigh(m)
    return (q * np.sqrt(np.maximum(w, 0.0))) @ q.conj().T


seeds = st.integers(0, 2 ** 32 - 1)


def g_values(sing_sq: np.ndarray, epsilon: float) -> np.ndarray:
    """g at each eigenvalue: the diagonal of _g_of_gram at a complex
    identity W, which it holds exactly."""
    eye = np.eye(sing_sq.shape[0], dtype=complex)
    return np.diag(_g_of_gram(sing_sq, eye, epsilon)).real


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_build_A_matches_permutation_loop(pmap):
    # reference: write each entry at every distinct ordering, one at a time
    n, d = pmap.n, pmap.degree
    strides = [(n + 1) ** (d - 1 - k) for k in range(d)]
    B = np.zeros((n + 1, (n + 1) ** d), dtype=complex)
    B[0, 0] = 1.0
    for (alpha, mono), entry in pmap.coeffs.items():
        for perm in set(permutations(mono)):
            B[alpha, sum(k * s for k, s in zip(perm, strides))] = entry
    A = build_A(pmap)
    assert np.array_equal(to_dense(A)[anchors(n, d)], B)
    assert A.nnz == np.count_nonzero(B)


@PROPERTY_SETTINGS
@given(sparse_maps(), seeds)
def test_apply_and_adjoint_match_dense(pmap, seed):
    A = build_A(pmap)
    dense = to_dense(A)
    u = random_vector(seed, A.register_dim)
    scale = 1.0 + np.abs(dense).sum()
    assert np.abs(apply(A, u) - dense @ u).max() <= 1e-13 * scale * np.abs(u).max()
    assert (np.abs(apply_adjoint(A, u) - dense.conj().T @ u).max()
            <= 1e-13 * scale * np.abs(u).max())


@PROPERTY_SETTINGS
@given(sparse_maps(degrees=(2,)), sparse_maps(degrees=(3,)))
def test_gram_matches_dense(map2, map3):
    for pmap in (map2, map3):
        A = build_A(pmap)
        G = dense_gram(A)
        assert np.abs(A.gram() - G).max() <= 1e-13 * (1.0 + np.abs(G).max())


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_gram_is_exactly_hermitian(pmap):
    G = build_A(pmap).gram()
    assert np.array_equal(G, G.conj().T)


def test_gram_of_a_dense_map_is_summed_in_bounded_chunks(monkeypatch):
    # a dense 150 x 150 orthogonal map: 300 columns of 150 triplets each,
    # 3.4e6 pairs, whose terms traced 486 MB when taken at once
    U, _ = np.linalg.qr(np.random.default_rng(90).standard_normal((150, 150)))
    A = build_A(unitary_map(U))
    tracemalloc.start()
    try:
        G = A.gram()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64e6
    assert np.array_equal(G, G.conj().T)
    assert np.abs(G - dense_gram(A)).max() <= 1e-13 * (1.0 + np.abs(G).max())
    # each bin adds its terms in pair order, so the chunk size changes no bit
    small = build_A(random_unitary_map(4, rng=5))
    one_chunk = small.gram()
    monkeypatch.setattr(nonlin_step, "GRAM_CHUNK_PAIRS", 1000)
    assert np.array_equal(A.gram(), G)
    monkeypatch.setattr(nonlin_step, "GRAM_CHUNK_PAIRS", 7)
    assert np.array_equal(small.gram(), one_chunk)


def complex_eigh_operator(pmap, epsilon) -> StepOperator:
    """The step operator from the Hermitian eigh of the complex Gram, the
    one path make_step_operator took for every map before the real one."""
    A = build_A(pmap)
    G = A.gram()
    sing_sq, W = np.linalg.eigh(G)
    h_norm, bound = operator_norm(A, sing_sq)
    rows, cols = np.nonzero(G)
    return StepOperator(pmap, A, epsilon, h_norm, bound, _g_of_gram(sing_sq, W, epsilon),
                        rows, cols, G[rows, cols])


@PROPERTY_SETTINGS
@given(sparse_maps(real=True), sparse_maps(), st.floats(0.05, 0.95), seeds)
def test_gram_spectrum_matches_complex_eigh(real_map, complex_map, fraction, seed):
    for pmap in (real_map, complex_map):
        A = build_A(pmap)
        sing_sq, W = np.linalg.eigh(_gram_matrix(A))
        G = dense_gram(A)
        assert np.abs((W * sing_sq) @ W.conj().T - G).max() <= 1e-13 * np.abs(G).max()
        assert np.abs(W.conj().T @ W - np.eye(A.n + 1)).max() <= 1e-13
        ref_norm = math.sqrt(np.linalg.eigvalsh(G).max())
        op = make_step_operator(pmap, fraction / ref_norm)
        ref = complex_eigh_operator(pmap, op.epsilon)
        assert abs(op.h_norm - ref.h_norm) <= 1e-13 * ref.h_norm
        state = encode(unit_vector(pmap.n, seed))
        joint = tensor_power(state, pmap.degree)
        assert (np.abs(apply_step(joint, op).amps - apply_step(joint, ref).amps).max()
                <= 1e-13)
        # the ideal success branch reads B x^(x)d, not the spectrum
        out, expected = ideal_step(op, state), ideal_step(ref, state)
        assert out.probability == expected.probability
        assert np.array_equal(out.posterior.amps, expected.posterior.amps)


BUILTIN_GRAMS = [  # (id, map, whether its Gram matrix is exactly real)
    ("identity", lambda: identity_map(3), True),
    ("permutation", lambda: permutation_map([2, 3, 1]), True),
    ("power", lambda: power_map(3), True),
    ("orszag_mclaughlin", lambda: euler_map(orszag_mclaughlin(6), 0.01), True),
    ("lorenz", lambda: euler_map(lorenz(), 0.01), True),
    ("nls_degree3", lambda: euler_map(discrete_nls(GraphSpec.cycle(4), 2), 1e-3),
     True),
    ("nls_degree5", lambda: euler_map(discrete_nls(GraphSpec.cycle(3), 4), 1e-3),
     True),
    ("random_unitary", lambda: random_unitary_map(4, rng=1), False),
    ("random_measure_preserving", lambda: random_measure_preserving_map(3, rng=2),
     False),
]


@pytest.mark.parametrize("build, real",
                         [pytest.param(b, r, id=i) for i, b, r in BUILTIN_GRAMS])
def test_real_gram_takes_the_real_eigh(monkeypatch, build, real):
    dtypes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    op = make_step_operator(build())
    assert (not op.A.gram().imag.any()) is real
    assert dtypes == [np.dtype(float if real else complex)]
    # W and g(G) stay in the Gram's own arithmetic
    _, W = np.linalg.eigh(_gram_matrix(op.A))
    assert W.dtype == op.g_gram.dtype == np.dtype(float if real else complex)
    assert real or W.imag.any()


def test_real_g_of_the_gram_is_a_rank_k_update():
    # a real g(G) is -(V V^T), which is exactly symmetric, and equals the
    # plain product W diag(g) W^T to rounding
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3))
    sing_sq, W = np.linalg.eigh(_gram_matrix(op.A))
    g = g_values(sing_sq, op.epsilon)
    plain = (W * g).dot(W.T)
    assert op.g_gram.dtype == float
    assert np.array_equal(op.g_gram, op.g_gram.T)
    assert np.abs(op.g_gram - plain).max() <= 1e-14 * np.abs(g).max()


@PROPERTY_SETTINGS
@given(sparse_maps(real=True), sparse_maps(), st.floats(0.05, 0.95), seeds,
       st.integers(1, 9))
def test_correction_is_one_product_with_g_of_the_gram(real_map, complex_map, fraction,
                                                       seed, rows):
    # a stack, each of its rows alone and the two-product form
    # W (g * W^dag B w0) agree, for real and complex Grams
    for pmap in (real_map, complex_map):
        op = make_step_operator(pmap, fraction / make_step_operator(pmap).h_norm)
        Bw0 = random_vector(seed, rows * (pmap.n + 1)).reshape(rows, pmap.n + 1)
        sing_sq, W = np.linalg.eigh(_gram_matrix(op.A))
        g = g_values(sing_sq, op.epsilon)
        two_products = (Bw0.dot(W.conj()) * g).dot(W.T)
        singles = np.array([_correction(op, b) for b in Bw0])
        bound = 1e-14 * np.abs(g).max() * np.linalg.norm(Bw0, axis=1)
        for got in (_correction(op, Bw0), singles):
            assert got.shape == Bw0.shape and got.flags.c_contiguous
            assert (np.linalg.norm(got - two_products, axis=1) <= bound).all()


@PROPERTY_SETTINGS
@given(sparse_maps(real=True), sparse_maps(), seeds, st.integers(1, 9))
def test_gram_forms_are_the_squared_norms_of_B_adjoint(real_map, complex_map, seed,
                                                       rows):
    # G u and Re <u, G u> through the stored Gram triplets against B B^dag u
    # and ||B^dag u||^2 on each row of a stack, on bins stacked for more
    # rows than it has
    for pmap in (real_map, complex_map):
        op = make_step_operator(pmap, 0.5 / make_step_operator(pmap).h_norm)
        A, G = op.A, op.A.gram()
        assert np.iscomplexobj(op.gram_vals) == bool(G.imag.any())
        assert np.array_equal(op.gram_rows * (pmap.n + 1) + op.gram_cols,
                              np.flatnonzero(G))
        u = random_vector(seed, rows * (pmap.n + 1)).reshape(rows, pmap.n + 1)
        delta = np.array([rmatvec(A, row) for row in u])
        expected = (np.abs(delta) ** 2).sum(axis=1)
        bins = op.stacked_gram_bins(rows + 2)
        got = op.gram_forms(u, bins)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-300)
        gu = np.array([A.matvec_nonzero(row[A.cols]) for row in delta])
        assert np.abs(op.gram_matvec_stack(u, bins) - gu).max() <= 1e-13 * (
            np.abs(A.vals).sum() ** 2 * np.abs(u).max())


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_operator_sparsity_matches_full_column_count(pmap):
    # the column counts over the K nonzero columns against a bincount over
    # all D columns; in fan_in column (1, 2) feeds more rows than any row has
    fan_in = PolynomialMap(4, 2, {(a, (1, 2)): 1.0 for a in range(1, 5)})
    for A in (build_A(pmap), build_A(fan_in)):
        most = max(np.bincount(A.rows).max(), np.bincount(A.cols).max())
        assert (A.sparsity, A.a_max) == (2 * int(most), float(np.abs(A.vals).max()))


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_operator_norm_matches_dense_svd(pmap):
    op = make_step_operator(pmap)
    svd_norm = np.linalg.svd(to_dense(op.A), compute_uv=False)[0]
    assert op.h_norm == pytest.approx(svd_norm, abs=1e-10)
    assert op.h_norm <= op.h_norm_bound * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(sparse_maps(), st.floats(0.0, 1.0), seeds)
def test_apply_step_matches_dense_block_map(pmap, fraction, seed):
    op = make_step_operator(pmap, fraction / make_step_operator(pmap).h_norm)
    eps, A = op.epsilon, to_dense(op.A)
    eye = np.eye(A.shape[0])
    U = np.block([[dense_sqrt(eye - eps ** 2 * A.conj().T @ A), -eps * A.conj().T],
                  [eps * A, dense_sqrt(eye - eps ** 2 * A @ A.conj().T)]])
    n, d = pmap.n, pmap.degree
    state = encode(unit_vector(n, seed))
    joint = tensor_power(state, d)
    # At the branch point eps ||H|| = 1 a square root is ill-conditioned: an
    # eigenvalue of I - eps^2 A^dag A off by rounding delta moves its root by
    # up to sqrt(gap + delta) - sqrt(gap), gap = 1 - (eps ||H||)^2, in the
    # reference and in the step alike.  Up to eps ||H|| = 0.95 that is below
    # 2e-13, so the bound there is 1e-12.
    gap = max(1.0 - (eps * op.h_norm) ** 2, 0.0)
    delta = A.shape[0] * np.finfo(float).eps
    bound = max(1e-12, math.sqrt(gap + delta) - math.sqrt(gap))
    assert np.abs(apply_step(joint, op).amps - U @ joint.amps).max() <= bound
    # a perturbed input, with sector-1 entries on and off the anchors of
    # random weight, stepped once on the noise study's stack: anchor
    # amplitudes off by at most bound each move the normalised posterior by
    # at most 2 sqrt(n + 1) bound / sqrt(p), phase aside
    rng = np.random.default_rng(seed)
    eta, u = rng.uniform(0.0, 3.0), _sector1_direction(n, d, rng)
    psi = (math.cos(eta) * dense_product(state, d)
           + 1j * math.sin(eta) * dense_sector1(u, n, d))
    p, expected = dense_postselect(U @ psi, n, d)
    _, posterior = _perturbed_trials(op, np.array([state.amps] * 2), [u], eta,
                                     math.inf, math.inf, math.inf)
    assert distance(posterior[0], expected) <= 2 * math.sqrt(n + 1) * bound / math.sqrt(p)


def test_near_degenerate_nls_operator():
    # Discrete NLS on a 20-vertex cycle at mass 75 per vertex and h = 5e-4:
    # the two largest Gram eigenvalues agree to 1e-7 relative, where an
    # iterative top-eigenvalue search stalls.
    rng = np.random.default_rng(0)
    z = math.sqrt(75.0) * np.exp(2j * math.pi * rng.uniform(size=20))
    _, scale = nls_initial_state(z)
    system = discrete_nls(GraphSpec.cycle(20), 2, nonlinear_scale=scale)
    op = make_step_operator(euler_map(system, 5e-4))
    top = np.sort(np.linalg.eigh(_gram_matrix(op.A))[0])[-2:]
    assert top[1] - top[0] < 1e-6 * top[1]
    assert op.h_norm ** 2 == pytest.approx(top[1], rel=1e-14)
    # independent check: the largest singular value of B's nonzero columns
    A = op.A
    cols, col_of = np.unique(A.cols, return_inverse=True)
    block = np.zeros((A.n + 1, cols.shape[0]), dtype=complex)
    block[A.rows, col_of] = A.vals
    assert op.h_norm == pytest.approx(
        np.linalg.svd(block, compute_uv=False)[0], abs=1e-10)
