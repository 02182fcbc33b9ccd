import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (AmplitudeState, JointState, apply_step, decode, distance,
                    dump_state_csv, encode, identity_map, make_step_operator,
                    power_map, tensor_power)
from qeuler.qstate import ANCHOR, DEFAULT_DIM_CAP, aligned_distances, vector_norm
from conftest import unit_vector


def test_encode_single_variable():
    st = encode(np.array([1.0 + 0j]))
    assert np.allclose(st.amps, [ANCHOR, ANCHOR], atol=0)


def test_encode_values():
    st = encode(np.array([0.6, 0.8], complex))
    assert st.amps[0] == ANCHOR and st.amps[0].imag == 0.0
    assert st.amps[1] == pytest.approx(0.4242640687119285, abs=1e-15)
    assert st.amps[2] == pytest.approx(0.5656854249492381, abs=1e-15)
    assert abs(np.linalg.norm(st.amps[1:]) ** 2 - 0.5) < 1e-12


def test_encode_allocates_the_state_once():
    z = np.zeros(10 ** 5, complex)
    z[0] = 1.0
    tracemalloc.start()
    try:
        state = encode(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not state.amps.flags.writeable
    assert state.amps[1] == ANCHOR and not state.amps[2:].any()
    assert peak <= 1.1 * state.amps.nbytes


def test_encode_rejects_unnormalized():
    with pytest.raises(ValueError, match="deviates"):
        encode(np.array([1.0, np.sqrt(0.5)], complex))
    # the state norm sqrt((1 + ||z||^2) / 2) is checked to 1e-12, so ||z||^2
    # is held to about 4e-12
    encode(np.array([np.sqrt(1 + 3e-12)], complex))
    with pytest.raises(ValueError, match="^state norm .* beyond 1e-12$"):
        encode(np.array([np.sqrt(1 + 5e-12)], complex))


def test_decode_roundtrip_many():
    for seed in range(20):
        n = 1 + seed % 6
        z = unit_vector(n, seed)
        assert np.abs(decode(encode(z)) - z).max() < 1e-12


def test_decode_phase_invariance():
    z = unit_vector(3, 42)
    st = encode(z)
    rotated = AmplitudeState(st.amps * cmath.exp(1j * math.pi / 3))
    assert np.abs(decode(rotated) - z).max() < 1e-12


def test_decode_requires_anchor():
    amps = np.zeros(3, complex)
    amps[1] = 1.0
    with pytest.raises(ValueError, match="anchor"):
        decode(AmplitudeState(amps))


def test_tensor_power_uniform_example():
    joint = tensor_power(encode(np.array([1.0 + 0j])), 2)
    assert np.allclose(joint.amps[:4], [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert np.allclose(joint.amps[4:], 0.0, atol=0)


def test_tensor_power_symmetric_amplitudes():
    st = encode(unit_vector(3, 1))
    joint = tensor_power(st, 2)
    block = joint.amps[:16].reshape(4, 4)
    assert np.abs(block - block.T).max() < 1e-15


def test_tensor_power_norm_multiplicative():
    st = encode(unit_vector(2, 2))
    joint = tensor_power(st, 3)
    assert abs(np.linalg.norm(joint.amps) - 1.0) < 1e-12


def test_tensor_power_cap():
    # 2^22 = 4194304 amplitudes: the product state is built from its factor,
    # but its full amplitude vector is refused, naming the cap
    joint = tensor_power(encode(unit_vector(1, 3)), 22)
    assert joint.register_dim == 2 ** 22 > DEFAULT_DIM_CAP
    with pytest.raises(ValueError, match=f"exceeds cap {DEFAULT_DIM_CAP}"):
        joint.amps


def test_distance_basics():
    x = encode(unit_vector(4, 4))
    assert distance(x, x) == 0.0
    rotated = AmplitudeState(x.amps * cmath.exp(0.7j))
    assert distance(x, rotated) < 1e-12
    e0 = np.zeros(5, complex)
    e1 = np.zeros(5, complex)
    e0[0] = 1.0
    e1[1] = 1.0
    assert distance(e0, e1) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        distance(np.zeros(3), np.zeros(4))


def test_distance_pseudo_metric_on_sampled_triples():
    for seed in range(10):
        a = unit_vector(5, 700 + seed)
        b = unit_vector(5, 800 + seed)
        c = unit_vector(5, 900 + seed)
        assert distance(a, b) == pytest.approx(distance(b, a), abs=1e-12)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(-12.0, 0.0), st.sampled_from((1, 1j, -1, -1j)), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_distance_is_two_sin_half_angle_at_any_angle(log_theta, turn, dim, seed):
    # a = (c v, s w) and b = turn (c v, -s w), built from a's own entries, for
    # unit v and w, c = cos(theta / 2) and s = sin(theta / 2): rays at angle
    # theta, whose chordal distance is 2 sin(theta / 2).  The expanded form
    # sqrt(||a||^2 + ||b||^2 - 2 |<a, b>|) read nothing below 1.5e-8.
    theta = 10.0 ** log_theta
    v, w = unit_vector(dim, seed), unit_vector(dim, seed + 1)
    a = np.concatenate((math.cos(theta / 2) * v, math.sin(theta / 2) * w))
    b = turn * np.concatenate((a[:dim], -a[dim:]))
    expected = 2.0 * math.sin(theta / 2)
    assert distance(a, b) == pytest.approx(expected, rel=1e-9)
    assert distance(b, a) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_a_stack_of_rows_equal_to_a_is_at_distance_exactly_zero(dim, rows, seed):
    # a matrix-vector overlap left an imaginary part for some equal rows
    # (65 of 500 random stacks of 4 rows read a nonzero distance)
    a = unit_vector(dim, seed)
    stack = np.tile(a, (rows, 1))
    assert (aligned_distances(a, stack) == 0.0).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_a_stacks_distances_are_its_rows_distances_bit_for_bit(dim, rows, seed):
    a = unit_vector(dim, seed)
    stack = np.array([unit_vector(dim, seed + 1 + k) for k in range(rows)])
    stack[0] = a * cmath.exp(0.3j)  # a row at distance ~0
    got = aligned_distances(a, stack)
    assert got.tobytes() == np.array([distance(a, row) for row in stack]).tobytes()


@pytest.mark.parametrize("dim", [6, 13, 121, 2001])
def test_a_stacks_norms_are_its_rows_norms_bit_for_bit(dim):
    # vector_norm sums a stack's rows as BLAS sums one row, as
    # np.linalg.norm sums a complex vector; a real vector held as a complex
    # buffer's real parts sums as that complex vector's real parts
    rng = np.random.default_rng(dim)
    stack = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
    rows = [vector_norm(row) for row in stack]
    assert vector_norm(stack).tobytes() == np.array(rows).tobytes()
    assert rows == [float(np.linalg.norm(row)) for row in stack]
    real = stack[0].real + 0j
    assert vector_norm(real.real) == np.linalg.norm(real)


def test_states_are_immutable():
    st = encode(unit_vector(2, 5))
    with pytest.raises(ValueError):
        st.amps[0] = 0.0


def test_state_csv_dump(tmp_path):
    st = encode(np.array([0.6, 0.8], complex))
    path = tmp_path / "state.csv"
    dump_state_csv(st, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "basis_index,re,im"
    assert len(lines) == 4
    idx, re, im = lines[1].split(",")
    assert idx == "0" and float(re) == ANCHOR and float(im) == 0.0


def test_joint_state_validates_norm():
    # the product's norm is checked through its factor, a stepped state's
    # through its vector, both to 1e-10
    x = encode(np.array([0.6, 0.8], complex)).amps
    with pytest.raises(ValueError, match="joint norm"):
        JointState(x * (1 + 1e-9), 2)
    op = make_step_operator(power_map(2))
    stepped = apply_step(tensor_power(encode(np.array([1.0 + 0j])), 2), op)
    for scale in (1 + 1e-9, 1 - 1e-9):
        with pytest.raises(ValueError, match="joint norm"):
            JointState(stepped.factor, 2, stepped.amps * scale)
    with pytest.raises(TypeError):
        JointState(stepped.amps, n=1, d=2)  # no amplitude-vector constructor


def test_states_do_not_alias_caller_arrays():
    amps = encode(np.array([0.6, 0.8], complex)).amps.copy()
    base = amps.copy()
    view = base[:]
    view.flags.writeable = False  # read-only, yet base can still change it
    for arr, owner in ((amps, amps), (view, base)):
        state = AmplitudeState(arr)
        owner[0] = 0
        assert state.amps[0] == ANCHOR


def test_fresh_read_only_arrays_are_taken_over():
    fresh = encode(np.array([1.0 + 0j])).amps.copy()
    fresh.flags.writeable = False
    assert AmplitudeState(fresh).amps is fresh


def test_joint_states_take_arrays_as_amplitude_states_do():
    # a writeable factor or stepped vector is copied, so the caller's array
    # stays writeable and the state does not see its writes
    x = np.array([0.5 ** 0.5] * 2, complex)
    op = make_step_operator(power_map(2))
    vector = apply_step(tensor_power(AmplitudeState(x), 2), op).amps.copy()
    joint, stepped = JointState(x, 2), JointState(x, 2, vector)
    assert x.flags.writeable and vector.flags.writeable
    x[0] = vector[0] = 0
    assert joint.factor[0] == stepped.factor[0] == 0.5 ** 0.5 and stepped.amps[0] != 0
    # a float factor is held complex; fresh read-only arrays are taken over
    assert JointState(np.array([0.5 ** 0.5] * 2), 2).factor.dtype == complex
    state = encode(np.array([1.0 + 0j]))
    assert tensor_power(state, 2).factor is state.amps
    fresh = stepped.amps.copy()
    fresh.flags.writeable = False
    assert JointState(stepped.factor, 2, fresh).stepped is fresh


def test_apply_step_hands_its_vector_over_without_a_copy():
    # the identity map at n = 400: D = 401^2, a 5.1 MB stepped vector
    op = make_step_operator(identity_map(400))
    joint = tensor_power(encode(unit_vector(400, 3)), 2)
    vector_bytes = 2 * op.A.register_dim * 16
    apply_step(joint, op)
    tracemalloc.start()
    try:
        stepped = apply_step(joint, op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not stepped.amps.flags.writeable
    assert vector_bytes < peak < 1.5 * vector_bytes


def test_joint_states_are_immutable():
    joint = tensor_power(encode(np.array([1.0 + 0j])), 2)
    stepped = apply_step(joint, make_step_operator(power_map(2)))
    for state in (joint, stepped):
        for name in ("n", "d", "amps", "extra"):
            with pytest.raises(AttributeError):
                setattr(state, name, 1)
        assert state.n == 1 and state.d == 2


def test_step_outputs_are_read_only():
    joint = tensor_power(encode(np.array([1.0 + 0j])), 2)
    stepped = apply_step(joint, make_step_operator(power_map(2)))
    for amps in (joint.amps, stepped.amps):
        assert not amps.flags.writeable
        with pytest.raises(ValueError):
            amps[0] = 0
