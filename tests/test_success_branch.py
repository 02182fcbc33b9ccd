"""The drivers' success-branch loop: steps on arrays, checks in blocks.

Its outputs are compared bit for bit with chained single-state steps
(conftest.chained: ideal_step, then decode), at block lengths
drawn per example and at the library's own, also where a real map from a
real state steps in float64 while the chain steps complex states; a check
that fails is raised naming the earliest failing step, also when a later
step of its block fails on the critical path; a Monte-Carlo run checks
exactly the steps it takes; and the loop allocates nothing of the joint
dimension and no check buffer that grows with m.
"""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (AnchorOperator, GraphSpec, NoiseModel, ResourcePlan,
                    StepOperator, apply_step, discrete_nls, encode, euler_map,
                    make_step_operator, noise_study, orszag_mclaughlin,
                    run_deterministic, run_montecarlo, tensor_power, unitary_map)
from qeuler import euler_driver
from qeuler.euler_driver import _sector1_direction
from qeuler.nonlin_step import _g_of_gram, _gram_matrix, _perturbed_trials
from conftest import chained, ideal_step, sparse_maps, unit_vector


def assert_driver_equals_chain(op, z0, m):
    expected = chained(op, z0, m)
    if isinstance(expected[0], int):
        step, message = expected
        with pytest.raises(ValueError) as info:
            run_deterministic(op, z0, m)
        assert str(info.value) == f"step {step}: {message}"
        return
    iterates, probs, nfs, inorms = expected
    rep = run_deterministic(op, z0, m)
    assert rep.iterates.dtype == complex
    assert np.asarray(rep.iterates).tobytes() == np.asarray(iterates).tobytes()
    for got, want in ((rep.probabilities, probs), (rep.norm_factors, nfs),
                      (rep.image_norms, inorms)):
        assert np.array(got).tobytes() == np.array(want).tobytes()


def check_block(op, limit):
    """The rows of a driver's block of checks: block_length of the terms a
    step stacks, max(n+1, nnz(G))."""
    return euler_driver.block_length(max(op.A.n + 1, op.gram_vals.shape[0]), limit)


def block_lengths():
    """Block lengths below and above the floor."""
    return (st.integers(1, 9) | st.integers(euler_driver.BLOCK_FLOOR + 1,
                                            euler_driver.BLOCK_FLOOR + 9))


def assert_blocks_equal_chain(op, z0, block, partial):
    # two full blocks and a partial one, at a block length drawn by the
    # test; one-step blocks have no partial block
    m = 2 * block + 1 + partial % max(block - 1, 1)
    with (np.errstate(all="ignore"),
          mock.patch.object(euler_driver, "block_length",
                            lambda terms, limit: min(limit, block))):
        assert_driver_equals_chain(op, z0, m)


@settings(max_examples=40, deadline=None)
@given(sparse_maps(max_n=4), st.integers(0, 2 ** 32 - 1), block_lengths(),
       st.integers(1, 8))
def test_driver_is_bit_identical_to_chained_steps(pmap, seed, block, partial):
    assert_blocks_equal_chain(make_step_operator(pmap), unit_vector(pmap.n, seed),
                              block, partial)


@settings(max_examples=40, deadline=None)
@given(sparse_maps(max_n=4, real=True), st.integers(0, 2 ** 32 - 1), block_lengths(),
       st.integers(1, 8), st.booleans())
def test_real_orbit_is_bit_identical_to_chained_complex_steps(pmap, seed, block,
                                                             partial, real_z0):
    # a real map from a real z0 steps in float64, from a complex z0 in
    # complex128; the chain steps complex states either way
    op = make_step_operator(pmap)
    z0 = unit_vector(pmap.n, seed, real=real_z0)
    branch = euler_driver._SuccessBranch(op, encode(z0), 3)
    for arr in (branch.states, branch.Bw0):
        assert arr.dtype == (np.float64 if real_z0 else complex)
    assert_blocks_equal_chain(op, z0, block, partial)


@pytest.mark.parametrize("pmap, block", [
    # n + 1 = 6 and nnz(G) = 16: blocks of 512 steps
    (euler_map(orszag_mclaughlin(5), 1e-3), 512),
    # degree 3, nnz(G) = 141: blocks of 58 steps
    (euler_map(discrete_nls(GraphSpec.cycle(14), 2), 1e-3), 58),
], ids=["om5", "nls14"])
def test_driver_is_bit_identical_at_the_library_block_length(pmap, block):
    op = make_step_operator(pmap)
    m, z0 = 2 * block + 5, unit_vector(pmap.n, 5)
    assert euler_driver._SuccessBranch(op, encode(z0), m).block == block
    assert check_block(op, m) == block
    assert_driver_equals_chain(op, z0, m)


@pytest.mark.parametrize("n, block", [(60, 45), (1000, 32)])
def test_block_length_stacks_the_gram_product_terms_above_the_floor(n, block):
    # nnz(G) = 3 n + 1 for OM's Euler map: blocks of BLOCK_TERMS // nnz(G)
    # rows, and of the floor of 32 from n = 86 on
    op = make_step_operator(euler_map(orszag_mclaughlin(n), 1e-3))
    assert op.gram_vals.shape == (3 * n + 1,)
    assert check_block(op, 10 ** 6) == block
    assert check_block(op, 7) == 7


def test_block_length_bounds_a_block_of_a_dense_gram():
    # the floor holds while a block of it stacks at most BLOCK_FLOOR *
    # BLOCK_TERMS terms; past that a block has fewer rows, down to one
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3))
    terms, floor = euler_driver.BLOCK_TERMS, euler_driver.BLOCK_FLOOR
    for nnz, block in ((terms // floor, floor), (terms // floor + 1, floor),
                       (terms, floor), (terms + 1, floor - 1),
                       (floor * terms // 3, 3), (floor * terms, 1),
                       (floor * terms + 1, 1), (10 ** 7, 1)):
        sized = replace(op, gram_vals=np.zeros(nnz, dtype=complex))
        assert check_block(sized, 10 ** 6) == block, nnz
    # a dense unitary's Gram is dense: 26 rows of nnz(G) = 10001 at n = 100
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((100, 100))
                        + 1j * rng.standard_normal((100, 100)))
    op = make_step_operator(unitary_map(u), 0.5)
    assert op.gram_vals.shape[0] > terms
    block = check_block(op, 10 ** 6)
    assert 1 < block < floor
    assert block * op.gram_vals.shape[0] <= floor * terms
    assert_driver_equals_chain(op, unit_vector(100, 3), 2 * block + 3)


def with_spectrum(op, sing_sq, W) -> StepOperator:
    """op with g(G) built from the eigendecomposition (sing_sq, W)."""
    return replace(op, g_gram=_g_of_gram(sing_sq, W, op.epsilon))


def wrong_spectrum(op) -> StepOperator:
    """op with its Gram eigenvalues halved: the success branch reads
    eps B x^(x)d alone, so only the sector-0 correction, and with it the
    joint norm, is wrong."""
    sing_sq, W = np.linalg.eigh(_gram_matrix(op.A))
    return with_spectrum(op, sing_sq / 2, W)


class AllPairs(np.random.Generator):
    """Every pair succeeds up to round fail_round, none from it on."""

    def __init__(self, fail_round=None):
        super().__init__(np.random.PCG64(0))
        self.fail_round, self.round = fail_round, 0

    def binomial(self, n, p, size=None):
        self.round += 1
        return 0 if self.round == self.fail_round else n


def plan_for(m, epsilon):
    return ResourcePlan(m=m, epsilon=epsilon, p=epsilon ** 2 / 2,
                        lam=epsilon ** 2 / 4, base=2.0, n0=2 ** (m + 1),
                        log10_n0=(m + 1) * math.log10(2), n0_proof=16 ** m,
                        n0_algorithm=16 ** m, gamma=2 * math.sqrt(2) / epsilon)


def test_joint_norm_failure_names_step_one():
    op = wrong_spectrum(make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3)))
    z0 = unit_vector(5, 2)
    joint_norm = r"^step 1: joint norm \S+ deviates from 1 beyond 1e-10$"
    with pytest.raises(ValueError, match=joint_norm):
        run_deterministic(op, z0, 5)
    with pytest.raises(ValueError, match=joint_norm):
        run_montecarlo(op, z0, plan_for(3, op.epsilon), rng=AllPairs())


def test_joint_norm_check_reads_B_not_only_its_spectrum():
    # (W, sing_sq) is the exact eigendecomposition of G + E, a Gram with
    # rows 1 and 2 coupled by 1e-2 that B does not have.  The sector-1
    # mass eps^2 ||B w0||^2 and 1 - eps^2 ||B w0||^2 would add up to 1
    # whatever the spectrum; the joint norm through B^dag g(G) B w0 does not.
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3))
    E = np.zeros((6, 6))
    E[1, 2] = E[2, 1] = 1e-2
    sing_sq, W = np.linalg.eigh(op.A.gram().real + E)
    coupled = with_spectrum(op, sing_sq, W)
    z0 = unit_vector(5, 0)  # the joint norm reads 0.99999999949
    with pytest.raises(ValueError, match=r"^joint norm \S+ deviates from 1 beyond 1e-10$"):
        apply_step(tensor_power(encode(z0), 2), coupled)
    with pytest.raises(ValueError,
                       match=r"^step 1: joint norm \S+ deviates from 1 beyond 1e-10$"):
        run_deterministic(coupled, z0, 5)


def test_joint_norm_check_reads_the_stored_gram():
    # The stored Gram triplets couple rows 1 and 2 by a further 1e-2, which
    # B does not: ||B^dag update||^2 read through them is off by about
    # 1e-4, and the joint norm with it, in the drivers' checks and in a
    # noise study's perturbed steps alike.
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3))
    G = op.A.gram().real
    G[1, 2] += 1e-2
    G[2, 1] += 1e-2
    rows, cols = np.nonzero(G)
    coupled = replace(op, gram_rows=rows, gram_cols=cols, gram_vals=G[rows, cols])
    z0 = unit_vector(5, 0)
    joint_norm = r"^step 1: joint norm \S+ deviates from 1 beyond 1e-10$"
    with pytest.raises(ValueError, match=joint_norm):
        run_deterministic(coupled, z0, 5)
    with pytest.raises(ValueError, match=joint_norm):
        noise_study(coupled, z0, 2, None, NoiseModel(1e-9), 2, rng=1)
    ideal = [encode(z0)]
    for _ in range(2):
        ideal.append(ideal_step(op, ideal[-1]).posterior)
    directions = [_sector1_direction(5, 2, np.random.default_rng(k)) for k in range(2)]
    args = (np.array([state.amps for state in ideal]), directions, 1e-9, 1e-10,
            2.0 * math.sqrt(2.0) / op.epsilon, 1.0)
    _perturbed_trials(op, *args)
    with pytest.raises(ValueError, match=r"^joint norm \S+ deviates from 1 beyond 1e-10$"):
        _perturbed_trials(coupled, *args)


def test_critical_path_error_does_not_hide_an_earlier_check():
    # f = 3 z grows the orbit until the probability floor or the anchor
    # trips, within the first block of checks
    op = make_step_operator(unitary_map(np.eye(1, dtype=complex), scale=3.0), 0.05)
    z0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError) as info:
        run_deterministic(op, z0, 40)
    step = int(str(info.value).split(":")[0].removeprefix("step "))
    assert 1 < step <= check_block(op, 40)
    with pytest.raises(ValueError, match=r"^step 1: joint norm"):
        run_deterministic(wrong_spectrum(op), z0, 40)
    # any other error of the critical path waits for the checks of the
    # steps before it, if there are any
    matvec = AnchorOperator.matvec_nonzero
    for failing_step, expected in ((1, "overflow"), (3, "^step 1: joint norm")):
        calls = []

        def failing_matvec(A, w):
            calls.append(w)
            if len(calls) == failing_step:
                raise FloatingPointError("overflow")
            return matvec(A, w)

        with mock.patch.object(AnchorOperator, "matvec_nonzero", failing_matvec):
            with pytest.raises(FloatingPointError):
                run_deterministic(op, z0, 40)
            calls.clear()
            with pytest.raises((FloatingPointError, ValueError), match=expected):
                run_deterministic(wrong_spectrum(op), z0, 40)


def test_floor_failure_follows_its_own_steps_norm_checks():
    # at epsilon 1e-9 step 1 falls below the probability floor; with a NaN
    # spectrum its joint norm, checked before its probability, fails first
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3), 1e-9)
    z0 = unit_vector(5, 2)
    with pytest.raises(ValueError, match="^step 1: ancilla outcome 1 has zero probability"):
        run_deterministic(op, z0, 3)
    sing_sq, W = np.linalg.eigh(_gram_matrix(op.A))
    nan_spectrum = with_spectrum(op, sing_sq * np.nan, W)
    with pytest.raises(ValueError, match="^joint norm nan"):
        ideal_step(nan_spectrum, encode(z0))
    with pytest.raises(ValueError, match="^step 1: joint norm nan"):
        run_deterministic(nan_spectrum, z0, 3)


@pytest.mark.parametrize("fail_round", [None, 2, 7])
def test_real_montecarlo_orbit_is_bit_identical_to_chained_complex_steps(fail_round):
    # blocks of 3 steps; a failed round's state is not reported
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3))
    z0 = unit_vector(5, 4, real=True)
    assert euler_driver._SuccessBranch(op, encode(z0), 8).states.dtype == np.float64
    with mock.patch.object(euler_driver, "block_length", lambda op, limit: 3):
        rep = run_montecarlo(op, z0, plan_for(8, op.epsilon), rng=AllPairs(fail_round))
    iterates, probs, nfs, inorms = chained(op, z0, 8)
    taken, kept = fail_round or 8, fail_round or 9
    assert rep.iterates.dtype == complex and len(rep.iterates) == kept
    assert rep.iterates.tobytes() == np.array(iterates[:kept]).tobytes()
    for got, want in ((rep.probabilities, probs), (rep.norm_factors, nfs),
                      (rep.image_norms, inorms)):
        assert np.array(got).tobytes() == np.array(want[:taken]).tobytes()


@pytest.mark.parametrize("fail_round", [1, 2, 5])
def test_montecarlo_checks_exactly_the_steps_it_takes(fail_round):
    op = make_step_operator(euler_map(orszag_mclaughlin(5), 1e-3))
    checked = []
    check = euler_driver._SuccessBranch._check

    def recording(branch, stop, *args, **kwargs):
        checked.append((branch.checked, stop))
        return check(branch, stop, *args, **kwargs)

    with mock.patch.object(euler_driver._SuccessBranch, "_check", recording):
        rep = run_montecarlo(op, unit_vector(5, 4), plan_for(8, op.epsilon),
                             rng=AllPairs(fail_round))
    assert rep.failure_round == fail_round
    assert len(rep.probabilities) == len(rep.norm_factors) == fail_round
    # no survivor of the failed round: its state is not reported
    assert len(rep.iterates) == fail_round
    assert checked == [(0, fail_round)]


def test_orbit_allocates_no_joint_buffer_and_fixed_check_buffers():
    # discrete NLS on a 30-vertex cycle: n = 60, d = 3, D = 61^3 = 226981
    op = make_step_operator(euler_map(discrete_nls(GraphSpec.cycle(30), 2), 1e-4))
    n1, D = op.A.n + 1, op.A.register_dim
    block = check_block(op, 10 ** 6)
    z0 = unit_vector(op.A.n, 3)

    def peak(m):
        run_deterministic(op, z0, m)  # warm caches outside the trace
        tracemalloc.start()
        try:
            run_deterministic(op, z0, m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = 2 * block + 3, 20 * block + 3
    assert peak(short) < D * 16 / 4
    # the orbit's own arrays and report lists take under 4 (n+1) complex
    # numbers a step; a check buffer of one row per step would add nnz
    assert peak(long) - peak(short) < (long - short) * 4 * n1 * 16
