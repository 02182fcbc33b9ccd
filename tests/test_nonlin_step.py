import cmath
import decimal
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qeuler import (AnchorOperator, PolynomialMap, apply_map,
                    apply_step, build_A, encode, identity_map, lorenz,
                    euler_map, make_step_operator,
                    orszag_mclaughlin, permutation_map, power_map,
                    random_unitary_map, rng_stream, run_deterministic,
                    tensor_power, unitary_map)
from qeuler._util import ParameterError
from qeuler.qstate import vector_norm
from qeuler.nonlin_step import _bins, _g_of_gram, _perturbed_trials, _step_rows
from qeuler.euler_driver import _sector1_direction
from conftest import (apply, dense_postselect, dense_product, dense_sector1,
                      dense_step_unitary, expanded_operator, full_triplets,
                      perturbed_step, postselect, to_dense, unit_vector)

GOLDEN = Path(__file__).parent / "golden"


# --- operator construction ----------------------------------------------------

def test_identity_operator_reencodes():
    m = identity_map(3)
    A = expanded_operator(m)
    z = unit_vector(3, 1)
    st = encode(z)
    image = to_dense(A) @ tensor_power(st, 2).amps[:16]
    # A |phi phi> = (1/sqrt 2) |phi> (x) |0_reg>
    block = image.reshape(4, 4)
    assert np.abs(block[:, 1:]).max() == 0.0
    assert np.abs(block[:, 0] - st.amps / math.sqrt(2)).max() < 1e-14


def test_doubling_operator_hand_expansion():
    theta = 0.9
    A = expanded_operator(power_map(2))
    joint = tensor_power(encode(np.array([cmath.exp(1j * theta)])), 2)
    image = to_dense(A) @ joint.amps[:4]
    # amplitude 1/2 at |00> and e^(2 i theta)/2 at |10>, zero elsewhere
    expected = np.zeros(4, complex)
    expected[0] = 0.5
    expected[2] = 0.5 * cmath.exp(2j * theta)
    assert np.abs(image - expected).max() < 1e-15


def test_operator_nnz_bound():
    for seed in range(5):
        m = random_unitary_map(5, rng=rng_stream(seed))
        A = build_A(m)
        assert A.nnz <= (m.n + 1) * A.sparsity / 2


def test_operator_norm_against_dense_svd():
    cases = [identity_map(3), power_map(2), power_map(3),
             permutation_map([3, 1, 2]),
             random_unitary_map(4, rng=rng_stream(11)),
             euler_map(lorenz(), 0.02)]
    for m in cases:
        op = make_step_operator(m)
        svd_norm = np.linalg.svd(to_dense(expanded_operator(op.pmap)), compute_uv=False)[0]
        assert op.h_norm == pytest.approx(svd_norm, abs=1e-10)
        assert op.h_norm <= op.h_norm_bound + 1e-12


def test_zero_map_norm():
    # only the constant row: a single unit entry
    op = make_step_operator(PolynomialMap(1, 2, {}))
    assert op.A.nnz == 1
    assert op.h_norm == pytest.approx(1.0, abs=1e-12)
    assert op.h_norm_bound >= 1.0


@pytest.mark.parametrize("rows, cols, message", [
    ([0, 5], [0, 1], r"rows must lie in 0\.\.1"),
    ([-1, 0], [0, 1], r"rows must lie in 0\.\.1"),
    ([0, 1], [0, 7], r"cols must lie in 0\.\.3"),
    ([0, 1], [-1, 0], r"cols must lie in 0\.\.3"),
])
def test_anchor_operator_rejects_out_of_range_indices(rows, cols, message):
    # n = 1, d = 2: rows index 0..n and cols 0..D-1 with D = 4
    with pytest.raises(ValueError, match=message):
        AnchorOperator(1, 2, rows, cols, [1.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize("rows, cols, vals, perm, message", [
    ([0, 1], [0, 2], [1.0, 2.0], [1.0, 2.0], "columns of sorted multi-indices"),
    ([0, 0], [1, 0], [1.0, 2.0], [1.0, 1.0], r"sorted by \(row, col\) and unique"),
    ([0, 1], [0, 1], [1.0, 2.0], [1.0], "1-D arrays of one length"),
], ids=["unsorted-digits", "unsorted-triplets", "perm-length"])
def test_anchor_operator_rejects_malformed_triplets(rows, cols, vals, perm, message):
    # n = 1, d = 2: column 2 has digits (1, 0), the unsorted ordering of the
    # multiset whose sorted column is 1
    with pytest.raises(ValueError, match=message):
        AnchorOperator(1, 2, rows, cols, vals, perm)


def test_doubling_norm_bracket():
    op = make_step_operator(power_map(2))
    assert 0.5 <= op.h_norm <= op.h_norm_bound


def test_hamiltonian_is_hermitian_and_matches_block_action():
    op = make_step_operator(random_unitary_map(2, rng=rng_stream(3)), 0.2)
    A = to_dense(expanded_operator(op.pmap))
    D = A.shape[0]
    H = np.zeros((2 * D, 2 * D), complex)
    H[D:, :D] = -1j * A
    H[:D, D:] = 1j * A.conj().T
    assert np.abs(H - H.conj().T).max() < 1e-14
    assert np.abs(np.linalg.eigvalsh(H)).max() == pytest.approx(op.h_norm, abs=1e-10)


# --- the step map ---------------------------------------------------------------

def test_epsilon_zero_is_identity():
    op = make_step_operator(identity_map(2), epsilon=0.0)
    joint = tensor_power(encode(unit_vector(2, 4)), 2)
    out = apply_step(joint, op)
    assert np.abs(out.amps - joint.amps).max() < 1e-14


def test_ancilla_mass_is_half_eps_squared():
    op = make_step_operator(random_unitary_map(3, rng=rng_stream(5)), 0.1)
    joint = tensor_power(encode(unit_vector(3, 6)), 2)
    out = apply_step(joint, op)
    mass = np.linalg.norm(out.amps[16:]) ** 2
    assert mass == pytest.approx(0.005, abs=1e-12)


def test_step_is_isometric_on_general_joint_states():
    # product states with sector-1 mass on and off the anchors, as a noise
    # study's reflection leaves them, stepped once on the library's stack
    # (which checks the joint norm before and after the step) against the
    # dense step matrix; at eta = 2.5 and 4.0 cos(eta) < 0 is held as a
    # global phase of -1, which post-selection drops
    op = make_step_operator(random_unitary_map(2, rng=rng_stream(7)), 0.4)
    U = dense_step_unitary(op)
    rng = rng_stream(8)
    for k, eta in enumerate((0.3, 1.0, 1.5, 2.5, 4.0, 5.0)):
        state = encode(unit_vector(2, 80 + k))
        u = _sector1_direction(2, 2, rng)
        _, posterior = _perturbed_trials(op, np.array([state.amps] * 2), [u], eta,
                                         math.inf, math.inf, math.inf)
        psi = (math.cos(eta) * dense_product(state, 2)
               + 1j * math.sin(eta) * dense_sector1(u, 2, 2))
        _, expected = dense_postselect(U @ psi, 2, 2)
        assert np.abs(posterior[0] - expected.amps).max() < 1e-13


def test_stepped_state_is_not_stepped_again():
    op = make_step_operator(power_map(2), 0.5)
    stepped = apply_step(tensor_power(encode(np.array([1.0 + 0j])), 2), op)
    with pytest.raises(ValueError, match="post-select"):
        apply_step(stepped, op)


def test_step_first_order_consistency():
    # || out - (in + i eps H in) || <= (eps ||H||)^2 / 2
    m = random_unitary_map(2, rng=rng_stream(9))
    op = make_step_operator(m, 0.3)
    joint = tensor_power(encode(unit_vector(2, 10)), 2)
    out = apply_step(joint, op)
    D = op.A.register_dim
    w0 = joint.amps[:D]
    linear = joint.amps.copy()
    linear[D:] += op.epsilon * apply(op.A, w0)
    remainder = np.linalg.norm(out.amps - linear)
    assert remainder <= (op.epsilon * op.h_norm) ** 2 / 2 + 1e-12


def test_step_constant_g_is_cancellation_free():
    # g(x) = (sqrt(1 - eps^2 x) - 1) / x against a 50-digit reference; the
    # direct form loses about half its digits at x = 1e-10.
    eps = 0.5
    x = np.array([0.0, 1e-13, 1e-10, 1e-3, 1.0])
    # at W = I, g(G) is diag(g), exactly
    g = np.diag(_g_of_gram(x, np.eye(x.size, dtype=complex), eps)).real
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        e2 = decimal.Decimal(eps) ** 2
        ref = [float(-e2 / 2) if v == 0 else
               float(((1 - e2 * decimal.Decimal(v)).sqrt() - 1) / decimal.Decimal(v))
               for v in x]
    assert np.allclose(g, ref, rtol=1e-15, atol=0)


def test_epsilon_range_enforced():
    with pytest.raises(ValueError, match="epsilon"):
        make_step_operator(identity_map(2), epsilon=5.0)
    with pytest.raises(ValueError, match="non-negative"):
        make_step_operator(identity_map(2), epsilon=-0.1)


def test_step_unitary_matrix_is_unitary():
    op = make_step_operator(power_map(2), 0.5)
    U = dense_step_unitary(op)
    assert np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() < 1e-12


# --- post-selection --------------------------------------------------------------

def test_postselect_probabilities_sum_to_one():
    op = make_step_operator(random_unitary_map(2, rng=rng_stream(12)), 0.25)
    out = apply_step(tensor_power(encode(unit_vector(2, 13)), 2), op)
    p1 = postselect(out, op.epsilon).probability
    sector0 = out.amps[:op.A.register_dim]
    assert np.vdot(sector0, sector0).real + p1 == pytest.approx(1.0, abs=1e-12)


def test_postselect_zero_probability_sector():
    joint = tensor_power(encode(unit_vector(2, 14)), 2)  # nothing in sector 1
    with pytest.raises(ValueError, match="zero probability"):
        postselect(joint, 0.5)


def test_a_subnormal_anchor_gets_a_finite_posterior():
    # z -> z^2 from x = (1e-161 e^0.3i, 1): the posterior's anchor is about
    # 1e-322, whose reciprocal passes the float range; its phase is taken of
    # a0 2^100 instead, on a 2-row stack (under the noise study's errstate)
    # and on the row alone, which rounds as the stack's row
    op = make_step_operator(power_map(2))
    A = op.A
    x = np.array([[1e-161 * cmath.exp(0.3j), 1.0], [0.6, 0.8j]])
    anchor1, out = np.zeros((2, 2, 2), dtype=complex)
    with np.errstate(all="ignore"):
        _step_rows(x, (A.term_digits, A.weights, _bins(A.rows, 2, 2), op.epsilon),
                   anchor1, out)
    row = np.zeros(2, dtype=complex)
    _step_rows(x[0], (A.term_digits, A.weights, _bins(A.rows, 2), op.epsilon),
               np.zeros(2, dtype=complex), row)
    assert np.isfinite(out).all()
    a0 = out[0, 0]
    assert 0 < a0.real < 2.0 ** -1024 and a0.imag == 0
    assert abs(vector_norm(out[0]) - 1.0) <= 1e-15
    assert row.tobytes() == out[0].tobytes()


def test_posterior_decodes_to_map_image():
    m = random_unitary_map(3, rng=rng_stream(15))
    z = unit_vector(3, 16)
    rep = run_deterministic(make_step_operator(m, 0.2), z, 1)
    assert np.abs(rep.iterates[1] - apply_map(m, z)).max() < 1e-12


def test_scaled_map_probability_and_norm_factor():
    # ||F(z)|| = c exactly; success probability eps^2 (1 + c^2)/4, i.e.
    # eps^2 rho^2/2 with rho the padded-image rms norm_factor; with
    # rho = 0.9 this is the eps^2 0.81/2 case.
    rng = rng_stream(17)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    c = math.sqrt(0.62)  # makes rho^2 = (1 + c^2)/2 = 0.81
    m = unitary_map(u, scale=c)
    z = unit_vector(3, 18)
    eps = 0.3
    rep = run_deterministic(make_step_operator(m, eps), z, 1)
    assert rep.probabilities[0] == pytest.approx(eps**2 * 0.81 / 2, abs=1e-12)
    assert rep.norm_factors[0] == pytest.approx(0.9, abs=1e-12)
    assert rep.image_norms[0] == pytest.approx(c, abs=1e-10)
    assert np.abs(rep.iterates[1] - apply_map(m, z)).max() < 1e-12


def test_lorenz_euler_step_exact_probability():
    # non-measure-preserving: probability = eps^2 (1 + ||E(z)||^2) / 4 exactly
    m = euler_map(lorenz(), 0.05)
    z = np.array([1.0, 1.0, 1.0], complex) / math.sqrt(3.0)
    eps = 0.05
    rep = run_deterministic(make_step_operator(m, eps), z, 1)
    image = apply_map(m, z)
    expected = eps**2 * (1 + np.linalg.norm(image) ** 2) / 4
    assert rep.probabilities[0] == pytest.approx(expected, abs=1e-12)


def test_quantum_step_oracle_equivalence_property():
    for seed in range(10):
        rng = rng_stream(1000 + seed)
        n = int(rng.integers(1, 6))
        m = random_unitary_map(n, rng=rng) if n > 1 else power_map(2)
        z = unit_vector(n, 2000 + seed)
        op = make_step_operator(m)
        rep = run_deterministic(op, z, 1)
        image = apply_map(m, z)
        got = rep.iterates[1]
        assert np.abs(got / np.linalg.norm(got)
                      - image / np.linalg.norm(image)).max() < 1e-10
        assert rep.probabilities[0] == pytest.approx(
            rep.norm_factors[0]**2 * op.epsilon ** 2 / 2, rel=1e-12)
        assert rep.image_norms[0] == pytest.approx(np.linalg.norm(image), abs=1e-10)


def test_euler_map_step_matches_classical_update():
    from qeuler import orszag_mclaughlin

    sys = orszag_mclaughlin(5)
    h = 0.01
    m = euler_map(sys, h)
    z = unit_vector(5, 19, real=True)
    rep = run_deterministic(make_step_operator(m), z, 1)
    expected = z + h * sys.rhs(z)
    assert np.abs(rep.iterates[1] - expected).max() < 1e-12
    assert rep.norm_factors[0] == pytest.approx(1.0, abs=1e-3)  # 1 + O(h^2)
    assert abs(rep.norm_factors[0] - 1.0) > 0  # but not exactly 1
    assert rep.image_norms[0] == pytest.approx(np.linalg.norm(expected), abs=1e-10)


def test_second_register_collapse_enforced():
    # the leakage of a perturbed step: its sector-1 input off the anchors
    # passes the step unchanged, and the stack refuses that share of the
    # success branch beyond the collapse tolerance
    op = make_step_operator(power_map(2), 0.5)
    state = encode(np.array([cmath.exp(0.2j)]))
    u = _sector1_direction(1, 2, rng_stream(81))
    _, _, _, residual, _ = perturbed_step(op, state, 1e-3, u)
    assert 1e-10 < residual < 1e-4
    ideal = np.array([state.amps] * 2)
    with pytest.raises(ValueError, match="failed to collapse"):
        _perturbed_trials(op, ideal, [u], 1e-3, 1e-10, math.inf, math.inf)
    _perturbed_trials(op, ideal, [u], 1e-3, 1e-4, math.inf, math.inf)


@pytest.mark.parametrize("golden, pmap", [
    ("operator_power2.csv", lambda: power_map(2)),
    ("operator_om5_h0.01.csv", lambda: euler_map(orszag_mclaughlin(5), 0.01)),
])
def test_build_A_matches_golden_triplets(golden, pmap):
    # the golden files were written by the dense-B implementation, one
    # (row, col, re, im) line per nonzero of the full D x D matrix, sorted,
    # with repr floats, so they parse back to the exact entries: the
    # expanded reference writes them all, and build_A those at columns
    # whose digits are sorted, one per multiset
    lines = (GOLDEN / golden).read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    cells = [line.split(",") for line in lines[1:]]
    rows, cols, vals = full_triplets(expanded_operator(pmap()))
    assert rows.tolist() == [int(c[0]) for c in cells]
    assert cols.tolist() == [int(c[1]) for c in cells]
    assert vals.tolist() == [complex(float(c[2]), float(c[3])) for c in cells]
    A = build_A(pmap())
    digits = np.array(np.unravel_index(cols, (A.n + 1,) * A.degree))
    multisets = (digits[1:] >= digits[:-1]).all(axis=0)
    for got, want in zip(full_triplets(A), (rows, cols, vals), strict=True):
        assert got.tolist() == want[multisets].tolist()


def test_degree_three_step():
    m = power_map(3)
    theta = 2 * math.pi / 7
    z = np.array([cmath.exp(1j * theta)])
    eps = 0.4
    rep = run_deterministic(make_step_operator(m, eps), z, 1)
    # d = 3 copies: success probability eps^2 / 2^(d-1) for measure preservation
    assert rep.probabilities[0] == pytest.approx(eps**2 / 4, abs=1e-12)
    assert rep.norm_factors[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.iterates[1][0] - cmath.exp(3j * theta)) < 1e-12


def test_overflowing_gram_is_refused_as_a_fault_of_the_system():
    # finite entries of 1e300 give |entry|^2 = inf in B B^dag; the refusal is
    # the only report of it, so numpy warns of no overflow on the way
    pmap = unitary_map(np.eye(2), scale=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="not finite") as info:
            make_step_operator(pmap)
    assert info.value.name == "system"


def test_gram_refuses_its_own_overflow_without_a_warning():
    A = build_A(unitary_map(np.eye(2), scale=1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="not finite") as info:
            A.gram()
    assert info.value.name == "system"


@pytest.mark.parametrize("pmap, dtype", [
    (euler_map(orszag_mclaughlin(5), 1e-3), np.float64),
    (random_unitary_map(4, rng=1), np.complex128),
], ids=["real", "complex"])
def test_gram_is_in_the_maps_own_arithmetic(pmap, dtype):
    assert build_A(pmap).gram().dtype == dtype


def test_degree_past_the_cap_is_refused_naming_the_system():
    # build_A keeps one triplet per term at any degree, but past degree 8
    # its packed keys (n+1)^(d+1) fit int64 only below n + 1 = 2^(63/10) = 79
    with pytest.raises(ParameterError, match="degree 9 exceeds maximum 8") as info:
        build_A(power_map(9))
    assert info.value.name == "system"


def test_operator_keys_past_int64_are_refused_naming_the_system():
    # (n+1)^(d+1) - 1 is the largest packed key row * (n+1)^d + col
    with pytest.raises(ParameterError, match=r"\(n\+1\)\^\(d\+1\) = "
                       "11361656654439817571 passes the int64 bound") as info:
        build_A(PolynomialMap(130, 8, {(130, (1,) * 8): 1.0}))
    assert info.value.name == "system"
    with pytest.raises(ParameterError, match="int64"):
        AnchorOperator(2 ** 21, 2, [0], [0], [1.0], [1.0])
    # n + 1 = 2^21 at d = 2 puts the largest key at 2^63 - 1, which fits
    top = 2 ** 21 - 1
    A = build_A(PolynomialMap(top, 2, {(top, (top, top)): 1.0}))
    assert A.rows.tolist() == [0, top]
    assert A.cols.tolist() == [0, top * (top + 1) + top]
