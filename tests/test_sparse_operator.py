"""Property tests of the sparse transfer operator against its dense form.

Random sparse maps of degree 2 and 3 with n <= 5 are drawn, and every
operation on the triplets is compared with the same operation on the dense
matrix from conftest.to_dense (or, for the Gram matrix, conftest.dense_gram)
of the expanded reference, conftest.expanded_operator, which stores every
ordering of each multi-index where build_A stores one triplet per multiset.
"""

import math
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qeuler import (GraphSpec, NoiseModel, PolynomialMap, StepOperator,
                    apply_step, build_A, discrete_nls, distance, encode, euler_map,
                    identity_map, lorenz, make_step_operator,
                    nls_initial_state, noise_study, operator_norm, orszag_mclaughlin,
                    permutation_map, power_map, random_measure_preserving_map,
                    random_unitary_map, run_deterministic, tensor_power, unitary_map)
from qeuler import nonlin_step
from qeuler.euler_driver import _sector1_direction
from qeuler.nonlin_step import (_bins, _correction, _g_of_gram,
                                _perturbed_trials, _sums)
from qeuler.qstate import product_at
from conftest import (anchors, apply, apply_adjoint, dense_gram, dense_postselect,
                      dense_product, dense_sector1, expanded_operator, ideal_step,
                      large_sparse_maps, matvec, rmatvec, sparse_maps, to_dense,
                      unit_vector)

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
    # reference: write each entry at every distinct ordering, one at a time;
    # the expanded reference holds B so, and build_A one triplet per
    # multiset, sorted digits and perm orderings, which expand to B
    n, d = pmap.n, pmap.degree
    strides = [(n + 1) ** (d - 1 - k) for k in range(d)]
    B = np.zeros((n + 1, (n + 1) ** d), dtype=complex)
    B[0, 0] = 1.0
    for (alpha, mono), entry in pmap.coeffs.items():
        for perm in set(permutations(mono)):
            B[alpha, sum(k * s for k, s in zip(perm, strides))] = entry
    reference = expanded_operator(pmap)
    assert np.array_equal(to_dense(reference)[anchors(n, d)], B)
    assert reference.nnz == np.count_nonzero(B)
    A = build_A(pmap)
    expanded = np.zeros_like(B)
    for row, digits, entry, perm in zip(A.rows, A.term_digits.T.tolist(), A.vals, A.perm):
        orderings = set(permutations(digits))
        assert digits == sorted(digits) and perm == len(orderings)
        for order in orderings:
            expanded[row, sum(k * s for k, s in zip(order, strides))] = entry
    assert np.array_equal(expanded, B)


def assert_matches_expanded_reference(pmap, seed):
    A, reference = build_A(pmap), expanded_operator(pmap)
    assert (A.sparsity, A.a_max) == (reference.sparsity, reference.a_max)
    assert A.nnz == len(set(zip(pmap.alphas.tolist(), map(tuple, pmap.monos.tolist())))) + 1
    G = dense_gram(reference)
    assert np.linalg.norm(A.gram() - G) <= 1e-15 * np.linalg.norm(G)
    n1, x = pmap.n + 1, encode(unit_vector(pmap.n, seed)).amps
    Bw0 = _sums(A.weights, product_at(x, A.term_digits), _bins(A.rows, n1), n1)
    # the expanded B sums up to d! rounded terms where A sums one, and in
    # float64 its own rounding reaches 1e-15 of the norm at 10^4 terms, so
    # its B w0 is summed in extended precision (np.clongdouble)
    expected = np.zeros(n1, dtype=np.clongdouble)
    np.add.at(expected, reference.rows, reference.weights
              * product_at(x.astype(np.clongdouble), reference.term_digits))
    expected = expected.astype(complex)
    assert np.linalg.norm(Bw0 - expected) <= 1e-15 * np.linalg.norm(expected)


@PROPERTY_SETTINGS
@given(sparse_maps(degrees=(2,)) | sparse_maps(degrees=(3,)), seeds)
def test_multiset_operator_matches_expanded_reference(pmap, seed):
    # one triplet per (row, multiset), and the expanded B's sparsity, a_max,
    # Gram and B w0
    assert_matches_expanded_reference(pmap, seed)


@settings(max_examples=4, deadline=None)
@given(large_sparse_maps(), seeds)
def test_multiset_operator_matches_expanded_reference_at_scale(pmap, seed):
    assert_matches_expanded_reference(pmap, seed)


@PROPERTY_SETTINGS
@given(sparse_maps(), seeds)
def test_apply_and_adjoint_match_dense(pmap, seed):
    A = expanded_operator(pmap)
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
        G = dense_gram(expanded_operator(pmap))
        assert np.abs(build_A(pmap).gram() - G).max() <= 1e-13 * (1.0 + np.abs(G).max())


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_gram_is_exactly_hermitian(pmap):
    G = build_A(pmap).gram()
    assert np.array_equal(G, G.conj().T)


def test_gram_of_a_dense_map_is_summed_in_bounded_chunks(monkeypatch):
    # a dense 150 x 150 orthogonal map: 150 multisets of 150 triplets each,
    # 1.7e6 pairs, whose terms traced 270 MB when taken at once
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
    assert np.abs(G - dense_gram(expanded_operator(unitary_map(U)))).max() <= 1e-13 * (
        1.0 + np.abs(G).max())
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
        sing_sq, W = np.linalg.eigh(A.gram())
        G = dense_gram(expanded_operator(pmap))
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
    # above GRAM_BLOCK_ROWS: row 0 and three 40-row blocks (two component
    # sizes); nine single rows, a 2-row and a 60-row block (three sizes)
    ("orszag_mclaughlin_components", lambda: euler_map(orszag_mclaughlin(120), 0.01),
     True),
    ("random_unitary_components", lambda: random_unitary_map(70, rng=3), False),
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
    expected = np.dtype(float if real else complex)
    if op.A.n + 1 < nonlin_step.GRAM_BLOCK_ROWS:
        assert dtypes == [expected]
    else:  # one eigh per component size, each in the Gram's arithmetic
        assert len(dtypes) > 1 and set(dtypes) == {expected}
    # W and g(G) stay in the Gram's own arithmetic
    _, W = np.linalg.eigh(op.A.gram())
    assert W.dtype == op.g_gram.dtype == np.dtype(float if real else complex)
    assert real or W.imag.any()


def by_path(pmap):
    """make_step_operator(pmap) with every Gram taken one component at a
    time, and with the whole Gram taken at once."""
    ops = []
    for rows in (0, math.inf):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nonlin_step, "GRAM_BLOCK_ROWS", rows)
            ops.append(make_step_operator(pmap))
    return ops


def outcome(run):
    """run()'s report, or the type of the ValueError it raised."""
    try:
        return run()
    except ValueError as exc:
        return type(exc)


def reachable(gram: np.ndarray) -> np.ndarray:
    """reach[r, c]: some path of nonzero Gram entries joins rows r and c,
    found by squaring the reachability matrix."""
    reach = (gram != 0) | np.eye(gram.shape[0], dtype=bool)
    while not np.array_equal(reach, wider := reach.astype(np.float32) @ reach > 0):
        reach = wider
    return reach


def assert_blocks_match_the_whole_gram(pmap, seed):
    blocks, whole = by_path(pmap)
    assert abs(blocks.h_norm - whole.h_norm) <= 1e-13 * whole.h_norm
    assert blocks.epsilon == whole.epsilon
    # ||g(G)|| = |g(||H||^2)|, g being negative and falling
    eps2 = whole.epsilon ** 2
    g_norm = eps2 / (1.0 + math.sqrt(max(1.0 - eps2 * whole.h_norm ** 2, 0.0)))
    g = blocks.g_gram
    assert g.dtype == whole.g_gram.dtype
    assert np.abs(g - whole.g_gram).max() <= 1e-14 * g_norm
    # exactly 0 between components: rows that no path of nonzero Gram
    # entries joins
    assert not g[~reachable(whole.A.gram())].any()
    assert g.dtype == complex or np.array_equal(g, g.T)
    # the drivers never read g(G) but in their checks
    z0 = unit_vector(pmap.n, seed)
    runs = [outcome(lambda: run_deterministic(op, z0, 8)) for op in (blocks, whole)]
    if isinstance(runs[1], type):
        assert runs[0] is runs[1]
    else:
        for name in ("iterates", "probabilities"):
            assert (np.asarray(getattr(runs[0], name)).tobytes()
                    == np.asarray(getattr(runs[1], name)).tobytes())
    with warnings.catch_warnings():  # a vacuous bound: the deltas are compared
        warnings.simplefilter("ignore", UserWarning)
        studies = [outcome(lambda: noise_study(op, z0, 3, None, NoiseModel(1e-6), 3,
                                               rng=seed))
                   for op in (blocks, whole)]
    event("study refused" if isinstance(studies[1], type) else "study ran")
    if isinstance(studies[1], type):
        assert studies[0] is studies[1]
    else:
        got, want = (np.array(s.delta_steps) for s in studies)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@PROPERTY_SETTINGS
@given(sparse_maps(), seeds)
def test_gram_taken_one_component_at_a_time_matches_the_whole_gram(pmap, seed):
    assert_blocks_match_the_whole_gram(pmap, seed)


@settings(max_examples=4, deadline=None)
@given(large_sparse_maps(), seeds)
def test_gram_taken_one_component_at_a_time_matches_the_whole_gram_at_scale(pmap, seed):
    assert_blocks_match_the_whole_gram(pmap, seed)


def assert_g_gram_is_each_blocks_own(pmap):
    """g(G) is, bit for bit, _g_of_gram of np.linalg.eigh of each of its
    blocks alone, and exactly 0 between them: below GRAM_BLOCK_ROWS the
    one block is the whole Gram, from there on each connected component
    (reachable), taken through np.ix_ whether or not its rows run
    consecutively."""
    op = make_step_operator(pmap)
    gram, n1 = op.A.gram(), pmap.n + 1
    if n1 < nonlin_step.GRAM_BLOCK_ROWS:
        components = [np.arange(n1)]
    else:
        least = reachable(gram).argmax(axis=1)  # each row's component's least row
        components = [np.flatnonzero(least == row) for row in np.unique(least)]
        event("a component of non-consecutive rows" if any(
            rows[-1] - rows[0] >= rows.size for rows in components) else
            "every component's rows consecutive")
    covered = np.zeros((n1, n1), dtype=bool)
    for rows in components:
        block = np.ix_(rows, rows)
        want = _g_of_gram(*np.linalg.eigh(gram[block]), op.epsilon)
        assert want.dtype == op.g_gram.dtype
        assert op.g_gram[block].tobytes() == want.tobytes()
        covered[block] = True
    assert not op.g_gram[~covered].any()


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_g_of_the_gram_is_each_blocks_own(pmap):
    assert_g_gram_is_each_blocks_own(pmap)


@settings(max_examples=3, deadline=None)
@given(large_sparse_maps())
# nine single rows, rows 13 and 48, and 60 rows that skip those; row 0 and
# three 40-row cycles of rows three apart
@example(random_unitary_map(70, rng=3))
@example(euler_map(orszag_mclaughlin(120), 0.01))
def test_g_of_the_gram_is_each_blocks_own_at_scale(pmap):
    assert_g_gram_is_each_blocks_own(pmap)


def test_real_g_of_the_gram_is_a_rank_k_update():
    # a real g(G) is -(V V^T), which is exactly symmetric, and equals the
    # plain product W diag(g) W^T to rounding
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3))
    sing_sq, W = np.linalg.eigh(op.A.gram())
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
        sing_sq, W = np.linalg.eigh(op.A.gram())
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
        A, G = expanded_operator(pmap), op.A.gram()
        assert np.iscomplexobj(op.gram_vals) == bool(G.imag.any())
        assert np.array_equal(op.gram_rows * (pmap.n + 1) + op.gram_cols,
                              np.flatnonzero(G))
        u = random_vector(seed, rows * (pmap.n + 1)).reshape(rows, pmap.n + 1)
        delta = np.array([rmatvec(A, row) for row in u])
        expected = (np.abs(delta) ** 2).sum(axis=1)
        bins = _bins(op.gram_rows, pmap.n + 1, rows + 2)
        got = op.gram_forms(u, bins)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-300)
        gu = np.array([matvec(A, row[A.cols]) for row in delta])
        assert np.abs(op.gram_matvec_stack(u, bins) - gu).max() <= 1e-13 * (
            np.abs(A.vals).sum() ** 2 * np.abs(u).max())


@PROPERTY_SETTINGS
@given(sparse_maps(real=True), sparse_maps(), seeds, st.integers(1, 6),
       st.integers(1, 3))
def test_stacked_sums_match_the_sums_row_by_row(real_map, complex_map, seed, rows,
                                                spare):
    # B w on a complex stack and G u on real and complex stacks, each on
    # bins built for more rows than the stack has, against _sums on each row
    # alone bit for bit, and G u against the dense Gram
    for pmap in (real_map, complex_map):
        op = make_step_operator(pmap)
        A, n1 = op.A, pmap.n + 1
        w = random_vector(seed, rows * A.nnz).reshape(rows, A.nnz)
        bins = _bins(A.rows, n1, rows + spare)[:2 * w.size]
        stacked = _sums(A.vals, w.copy(), bins, rows * n1)
        singles = [_sums(A.vals, row.copy(), _bins(A.rows, n1), n1) for row in w]
        assert stacked.tobytes() == np.concatenate(singles).tobytes()
        u = random_vector(seed + 1, rows * n1).reshape(rows, n1)
        for stack in (u, u.real.copy()) if op.gram_vals.dtype == np.float64 else (u,):
            real = stack.dtype == np.float64
            gu = op.gram_matvec_stack(stack, _bins(op.gram_rows, n1, rows + spare, real))
            singles = [_sums(op.gram_vals, row[op.gram_cols],
                             _bins(op.gram_rows, n1, real=real), n1) for row in stack]
            assert gu.tobytes() == np.stack(singles).tobytes()
            reference = expanded_operator(pmap)
            assert np.abs(gu - stack @ dense_gram(reference).T).max() <= 1e-13 * (
                np.abs(reference.vals).sum() ** 2 * np.abs(stack).max())


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_operator_sparsity_matches_full_column_count(pmap):
    # the perm-weighted row counts and the rows per multiset against
    # bincounts of the expanded reference over all D columns; in fan_in
    # column (1, 2) feeds more rows than any row has
    fan_in = PolynomialMap(4, 2, {(a, (1, 2)): 1.0 for a in range(1, 5)})
    for m in (pmap, fan_in):
        A, reference = build_A(m), expanded_operator(m)
        most = max(np.bincount(reference.rows).max(), np.bincount(reference.cols).max())
        assert (A.sparsity, A.a_max) == (2 * int(most),
                                         float(np.abs(reference.vals).max()))


@PROPERTY_SETTINGS
@given(sparse_maps())
def test_operator_norm_matches_dense_svd(pmap):
    op = make_step_operator(pmap)
    svd_norm = np.linalg.svd(to_dense(expanded_operator(op.pmap)), compute_uv=False)[0]
    assert op.h_norm == pytest.approx(svd_norm, abs=1e-10)
    assert op.h_norm <= op.h_norm_bound * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(sparse_maps(), st.floats(0.0, 1.0), seeds)
def test_apply_step_matches_dense_block_map(pmap, fraction, seed):
    op = make_step_operator(pmap, fraction / make_step_operator(pmap).h_norm)
    eps, A = op.epsilon, to_dense(expanded_operator(op.pmap))
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
    top = np.sort(np.linalg.eigh(op.A.gram())[0])[-2:]
    assert top[1] - top[0] < 1e-6 * top[1]
    assert op.h_norm ** 2 == pytest.approx(top[1], rel=1e-14)
    # independent check: the largest singular value of B's nonzero columns
    A = expanded_operator(op.pmap)
    cols, col_of = np.unique(A.cols, return_inverse=True)
    block = np.zeros((A.n + 1, cols.shape[0]), dtype=complex)
    block[A.rows, col_of] = A.vals
    assert op.h_norm == pytest.approx(
        np.linalg.svd(block, compute_uv=False)[0], abs=1e-10)
