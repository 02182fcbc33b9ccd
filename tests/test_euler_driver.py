import cmath
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from qeuler import (AmplitudeState, GraphSpec, JointState, NoiseModel,
                    OdeSystem, PolynomialMap, apply_map, discrete_nls, encode,
                    error_bound, euler_map, identity_map, distance, integrate,
                    lorenz, make_step_operator, noise_study, orszag_mclaughlin,
                    plan_resources, power_map, random_unitary_map,
                    reference_integrate, rng_stream, run_deterministic,
                    run_montecarlo, tensor_power, unitary_map)
from qeuler._util import ParameterError
from qeuler import euler_driver
from qeuler.euler_driver import _sector1_direction, _trial_rngs
from qeuler.nonlin_step import (_check_bound, _check_collapse, _check_floor,
                                _check_probability, _check_recurrence, _perturbed_trials)
from qeuler.qstate import DEFAULT_DIM_CAP, _check_joint_norm, _check_state_norm, decode
from conftest import (dense_postselect, dense_product, dense_sector1,
                      dense_step_unitary, ideal_step, perturbed_step, sparse_maps,
                      unit_vector)


# --- resource planning --------------------------------------------------------

def test_plan_simple_values():
    plan = plan_resources(1, math.sqrt(2 * 0.5), base=16)  # p = 0.5
    assert plan.n0 == 32
    assert plan.lam == pytest.approx(0.25)


def test_plan_spec_quantities():
    plan = plan_resources(2, 0.3, base=16)  # p = 0.045
    assert plan.n0 == 126420
    assert plan.n0_proof == math.ceil((8 / 0.045) ** 2)
    gamma = 2 * math.sqrt(2) / 0.3
    assert plan.n0_algorithm == math.ceil((gamma / 0.045) ** 2)
    assert plan.gamma == pytest.approx(gamma)


def test_plan_log_space_for_deep_runs():
    plan = plan_resources(6, 0.3, base=16)
    assert plan.log10_n0 == pytest.approx(15.3054, abs=1e-3)
    assert 10 ** plan.log10_n0 == pytest.approx(plan.n0, rel=1e-10)
    assert plan.n0 > 2 ** 53 or plan.float_exact


def test_plan_validations():
    with pytest.raises(ValueError, match="lambda"):
        plan_resources(1, 0.5, lam=0.5)  # lam >= p
    with pytest.raises(ValueError, match="below 2\\^m"):
        plan_resources(2, 0.5, base=0.2)  # base/p < 2
    with pytest.raises(ValueError, match="p ="):
        plan_resources(1, 1.5)


# --- deterministic runs ----------------------------------------------------------

def test_identity_orbit_constant():
    z = unit_vector(3, 1)
    rep = run_deterministic(make_step_operator(identity_map(3), 0.3), z, m=5)
    for it in rep.iterates:
        assert np.abs(it - z).max() < 1e-12
    assert rep.probabilities == pytest.approx([0.3**2 / 2] * 5, abs=1e-12)


def test_doubling_orbit_phase():
    theta = math.pi / 5
    rep = run_deterministic(make_step_operator(power_map(2)),
                            np.array([cmath.exp(1j * theta)]), m=3)
    got = cmath.phase(rep.iterates[-1][0]) % (2 * math.pi)
    assert got == pytest.approx((8 * theta) % (2 * math.pi), abs=1e-12)


def test_deterministic_matches_classical_orbit():
    m = euler_map(orszag_mclaughlin(5), 1e-3)
    z = unit_vector(5, 2, real=True)
    rep = run_deterministic(make_step_operator(m), z, m=50)
    classical = z
    for j in range(1, 51):
        classical = apply_map(m, classical)
        assert np.abs(rep.iterates[j] - classical).max() < 1e-9 * (j + 1)


def test_vanishing_probability_or_anchor_raises():
    # f = 3 z grows the orbit; the anchor amplitude shrinks like 3^-j until
    # decoding (or the probability floor) trips.
    m = unitary_map(np.eye(1, dtype=complex), scale=3.0)
    with pytest.raises(ValueError, match="anchor|probability"):
        run_deterministic(make_step_operator(m, 0.05), np.array([1.0 + 0j]), m=40)


def test_deterministic_orbit_beyond_dim_cap():
    # Degree-3 NLS on cycle(80): n = 160 and D = 161^3 = 4.17e6 exceed the
    # cap on full amplitude vectors, which neither the set-up nor a driver
    # step builds.  Reading one is refused, naming the cap.
    pmap = euler_map(discrete_nls(GraphSpec.cycle(80), 2), 1e-3)
    assert pmap.degree == 3 and (pmap.n + 1) ** 3 > DEFAULT_DIM_CAP
    z0 = unit_vector(pmap.n, 31)
    rep = run_deterministic(make_step_operator(pmap), z0, m=5)
    for z, z_next in zip(rep.iterates, rep.iterates[1:]):
        assert np.abs(z_next - apply_map(pmap, z)).max() <= 1e-10
    with pytest.raises(ValueError, match=f"exceeds cap {DEFAULT_DIM_CAP}"):
        tensor_power(encode(z0), 3).amps


# --- Monte-Carlo branching process -----------------------------------------------

class AllOrNonePairs(np.random.Generator):
    """A generator whose binomial draws succeed on every pair, or on none."""

    def __init__(self, succeed: bool):
        super().__init__(np.random.PCG64(0))
        self.succeed = succeed

    def binomial(self, n, p, size=None):
        return n if self.succeed else 0


def test_montecarlo_halving_at_unit_probability():
    # with n0 = 2^(m+1) and every pair succeeding, counts halve exactly
    from qeuler import ResourcePlan

    m_steps = 3
    plan = ResourcePlan(m=m_steps, epsilon=1.0, p=0.5, lam=0.25, base=2.0,
                        n0=2 ** (m_steps + 1), log10_n0=math.log10(16),
                        n0_proof=16 ** m_steps, n0_algorithm=16 ** m_steps,
                        gamma=2 * math.sqrt(2))
    rep = run_montecarlo(make_step_operator(identity_map(2), plan.epsilon),
                         unit_vector(2, 3), plan, rng=AllOrNonePairs(True))
    assert rep.success
    assert rep.copy_counts == [plan.n0 // 2 ** j for j in range(m_steps + 1)]
    for a, b in zip(rep.copy_counts, rep.copy_counts[1:]):
        assert b == 2 * ((a // 2) // 2)  # the pairing rule N := 2 floor(S/2)


def test_montecarlo_counts_and_mean():
    plan = plan_resources(1, 0.8, base=16)  # p = 0.32, n0 = 50
    op = make_step_operator(identity_map(2), plan.epsilon)
    results = [run_montecarlo(op, unit_vector(2, 5), plan,
                              rng=rng_stream(6, k)).successes[0]
               for k in range(400)]
    pairs = plan.n0 // 2
    mean = np.mean(results)
    sigma = math.sqrt(pairs * plan.p * (1 - plan.p))
    assert abs(mean - plan.p * pairs) <= 3 * sigma / math.sqrt(400)


def test_montecarlo_success_fraction_exceeds_third():
    plan = plan_resources(3, math.sqrt(2 * 0.5), base=16)
    op = make_step_operator(power_map(2), plan.epsilon)
    wins = sum(run_montecarlo(op, np.array([cmath.exp(0.1j)]), plan,
                              rng=rng_stream(7, k)).success
               for k in range(300))
    assert wins / 300 >= 1 / 3


def test_montecarlo_failure_and_partial_report():
    # base/p = 2 gives n0 = 2^m: one bad round kills the run
    plan = plan_resources(3, math.sqrt(2 * 0.05), base=0.1)
    rep = run_montecarlo(make_step_operator(identity_map(2), plan.epsilon),
                         unit_vector(2, 8), plan, rng=rng_stream(9))
    assert not rep.success
    assert rep.failure_round is not None
    assert len(rep.successes) == rep.failure_round
    assert rep.copy_counts[0] == plan.n0


def test_montecarlo_lambda_flags():
    plan = plan_resources(1, 0.8, base=16)
    rep = run_montecarlo(make_step_operator(identity_map(2), plan.epsilon),
                         unit_vector(2, 10), plan, rng=AllOrNonePairs(False))
    # S = 0 < lambda * pairs, so round 1 is flagged, and no copy of the
    # next state exists, so no iterate is added
    assert rep.flagged_rounds == [1]
    assert not rep.success and rep.failure_round == 1
    assert len(rep.iterates) == 1 and len(rep.probabilities) == 1


# --- integrate -------------------------------------------------------------------

def test_integrate_constant_rhs():
    sys = OdeSystem(2, 2, {})
    z = unit_vector(2, 12)
    rep = integrate(sys, z, t=1.0, m=10)
    assert all(np.abs(it - z).max() < 1e-12 for it in rep.iterates)
    assert rep.times == pytest.approx([j * 0.1 for j in range(11)])


def test_integrate_matches_reference_euler():
    sys = orszag_mclaughlin(5)
    z = unit_vector(5, 13, real=True)
    rep = integrate(sys, z, t=0.1, m=100)
    ref = reference_integrate(sys, z, 0.1, 100, "euler")
    dev = max(np.abs(a - b).max() for a, b in zip(rep.iterates, ref))
    assert dev < 1e-8


def test_integrate_first_order_against_rk4():
    sys = orszag_mclaughlin(5)
    z = unit_vector(5, 14, real=True)
    exact = reference_integrate(sys, z, 0.1, 3200, "rk4")[-1]

    def dev(m):
        rep = integrate(sys, z, t=0.1, m=m)
        return np.linalg.norm(rep.iterates[-1] - exact)

    assert 1.8 <= dev(100) / dev(200) <= 2.2


def test_integrate_warns_on_non_measure_preserving():
    z = np.array([1.0, 1.0, 1.0], complex) / math.sqrt(3)
    with pytest.warns(UserWarning, match="not measure preserving"):
        integrate(lorenz(), z, t=0.01, m=5, epsilon=0.05)


def test_integrate_refuses_an_unknown_mode_before_building_or_warning(monkeypatch):
    # lorenz is not measure preserving: under warnings as errors its warning
    # would escape in place of the refusal
    calls = []
    monkeypatch.setattr(euler_driver, "make_step_operator", lambda *a: calls.append(a))
    z = np.array([1.0, 1.0, 1.0], complex) / math.sqrt(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            integrate(lorenz(), z, 1.0, 10, mode="bogus")
    assert calls == []


# --- error bound ------------------------------------------------------------------

def test_error_bound_zero_noise():
    assert error_bound(0.0, 3.0, 4) == 0.0


def test_error_bound_matches_recurrence_unrolling():
    for gamma in (0.5, 2.0, 2 * math.sqrt(2) / 0.5):
        for m in range(1, 7):
            delta = 0.0
            for _ in range(m):
                delta = gamma * (3 * delta + 1e-4)
            assert error_bound(1e-4, gamma, m) == pytest.approx(delta, rel=1e-12)


def test_error_bound_spec_value():
    val = error_bound(1e-4, 2 * math.sqrt(2) / 0.5, 2)
    assert val == pytest.approx(1.017e-2, abs=1e-5)


def test_error_bound_monotonic():
    base = error_bound(1e-5, 2.0, 3)
    assert error_bound(2e-5, 2.0, 3) > base
    assert error_bound(1e-5, 2.5, 3) > base
    assert error_bound(1e-5, 2.0, 4) > base


def test_error_bound_past_the_float_range_is_infinite():
    # (3 gamma)^(m+1) passes the float range from m ~ 250 at epsilon = 0.5
    gamma = 2 * math.sqrt(2) / 0.5
    assert error_bound(1e-5, gamma, 400) == math.inf
    assert error_bound(0.0, gamma, 400) == 0.0


def test_error_bound_singular_gamma():
    assert error_bound(1e-3, 1 / 3, 5) == pytest.approx(5e-3 / 3, rel=1e-9)


def test_error_bound_validations():
    with pytest.raises(ValueError):
        error_bound(-1e-3, 2.0, 1)
    with pytest.raises(ValueError):
        error_bound(1e-3, 0.0, 1)
    with pytest.raises(ValueError):
        error_bound(1e-3, 2.0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    # Each check must reject NaN, for which every comparison is false.
    half = math.sqrt(0.5)
    with pytest.raises(ValueError):
        AmplitudeState(np.array([half, bad]))
    with pytest.raises(ValueError):
        JointState(np.array([half, bad]), 2)
    with pytest.raises(ValueError):
        encode(np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        make_step_operator(power_map(2), epsilon=bad)
    with pytest.raises(ValueError):
        NoiseModel(bad)
    with pytest.raises(ValueError):
        error_bound(bad, 2.0, 1)
    with pytest.raises(ValueError, match="integration time"):
        integrate(orszag_mclaughlin(5), unit_vector(5, 0, real=True), bad, 2)


inf, nan = math.inf, math.nan
# Each check, its fixed arguments bound, with values on both sides of its
# limit and non-finite ones; a squared norm is never negative, but a negative
# one is refused, with no warning from its square root.
SINGLE_VALUE_CHECKS = [
    (_check_joint_norm, (1.0, 1.0 + 1e-12, 1.0 + 1e-9, 0.5, -1.0, inf, -inf, nan)),
    (_check_state_norm, (1.0, 1.0 - 1e-14, 1.0 - 1e-11, 2.0, -1.0, inf, -inf, nan)),
    (_check_floor, (0.5, 1e-15, 1e-16, -1.0, inf, -inf, nan)),
    (_check_probability, (0.0, 1.0 + 1e-12, -1e-11, 1.5, inf, -inf, nan)),
    (lambda residual: _check_collapse(residual, 1e-8), (0.0, 1e-8, 2e-8, inf, -inf, nan)),
    (lambda delta: _check_recurrence(2, delta, 1e-3), (0.0, 1e-3, 1.1e-3, inf, -inf, nan)),
    (lambda delta: _check_bound(delta, 1e-3),
     (1e-3, 1e-3 * (1 + 1e-9), 2e-3, inf, -inf, nan)),
    # decode's anchor rule, on states (anchor, 1)
    (lambda anchor: decode(np.stack([anchor, np.ones_like(anchor)], axis=-1)),
     (1.0, 1e-6, 1e-7, 0.0, inf, -inf, nan)),
]


def refuses(check, value) -> bool:
    try:
        check(value)
    except ValueError:
        return True
    return False


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check, values", SINGLE_VALUE_CHECKS, ids=[
    "joint_norm", "state_norm", "floor", "probability", "collapse", "recurrence",
    "bound", "decode_anchor"])
def test_checks_refuse_nan_and_read_an_array_value_by_value(check, values):
    # every ordered comparison with NaN is false, so a check written as
    # `value > limit` lets NaN through; a check of an array refuses exactly
    # when it refuses one of its values, and warns of nothing
    assert refuses(check, nan) and refuses(check, np.array([values[0], nan]))
    for a in values:
        for b in values:
            assert refuses(check, np.array([a, b])) == (refuses(check, a)
                                                       or refuses(check, b))
    assert not refuses(check, np.array([]))


@pytest.mark.filterwarnings("error")
def test_decode_refuses_a_nan_anchor_without_a_warning():
    with pytest.raises(ValueError, match="anchor amplitude vanished"):
        decode(np.array([math.nan, 1.0]))


def test_every_driver_reports_z0_itself_as_row_zero():
    op = make_step_operator(random_unitary_map(3, rng=rng_stream(60)), 0.8)
    z0 = unit_vector(3, 81)
    # decode(encode(z0)) rounds z0 * 2^-1/2 / 2^-1/2 and differs in the last bits
    assert not np.array_equal(decode(encode(z0).amps), z0)
    reports = [run_deterministic(op, z0, 2),
               run_montecarlo(op, z0, plan_resources(2, 0.8), rng=0),
               noise_study(op, z0, 2, None, NoiseModel(1e-6), 2, rng=0)]
    for report in reports:
        assert report.iterates[0].tobytes() == z0.tobytes()


def test_explicit_epsilon_must_match_operator():
    op = make_step_operator(power_map(2), 0.5)
    z0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="epsilon"):
        run_montecarlo(op, z0, plan_resources(2, 0.3))
    with pytest.raises(ValueError, match="epsilon"):
        noise_study(op, z0, 2, 0.7, NoiseModel(1e-6), 2, rng=0)
    assert run_montecarlo(op, z0, plan_resources(2, 0.5), rng=0).epsilon == 0.5
    assert noise_study(op, z0, 2, 0.5, NoiseModel(1e-6), 2, rng=0).epsilon == 0.5


# --- noise studies ----------------------------------------------------------------

def test_noise_study_zero_eta():
    m = random_unitary_map(2, rng=rng_stream(15))
    rep = noise_study(make_step_operator(m, 0.8), unit_vector(2, 16), m=3,
                      epsilon=None, noise=NoiseModel(0.0), trials=3, rng=17)
    assert all(d == 0.0 for deltas in rep.delta_steps for d in deltas)


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(lambda real: st.tuples(
           st.just(real), sparse_maps(max_n=4, real=real))),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 7),
       st.integers(1, 3))
def test_noise_study_at_zero_eta_reports_every_delta_as_exactly_zero(drawn, seed, m,
                                                                     trials, stack):
    # At eta = 0 a trial's input is the ideal state, and its perturbed step
    # is the drivers' step on a stack, so it reproduces the ideal orbit bit
    # for bit, also where the orbit is real and steps in float64 while the
    # trials step complex states.  Stacks of `stack` trials, so about half
    # the draws span more than one stack.
    real, pmap = drawn
    op = make_step_operator(pmap)
    z0 = unit_vector(pmap.n, seed, real=real)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(euler_driver, "block_length", lambda terms, limit: min(limit, stack))
        try:
            rep = noise_study(op, z0, m, None, NoiseModel(0.0), trials, rng=seed)
        except ValueError:  # the ideal orbit fails a check
            assume(False)
    event("two or more stacks" if stack < trials else "one stack")
    assert np.array(rep.delta_steps).shape == (trials, m)
    assert all(d == 0.0 for deltas in rep.delta_steps for d in deltas)


def test_noise_study_bound_and_recurrence_hold():
    m = random_unitary_map(2, rng=rng_stream(18))
    z = unit_vector(2, 19)
    rep = noise_study(make_step_operator(m, 0.8), z, m=5, epsilon=None,
                      noise=NoiseModel(1e-6), trials=100, rng=20)
    gamma = 2 * math.sqrt(2) / 0.8
    assert all(d <= rep.delta_bound for d in rep.delta_final)
    for deltas in rep.delta_steps:
        prev = 0.0
        for d in deltas:
            assert d <= gamma * (3 * prev + 1e-6) * (1 + 1e-9) + 1e-12
            prev = d
    # noise actually moved the states
    assert max(rep.delta_final) > 1e-9


def test_noise_study_deterministic_given_seed():
    op = make_step_operator(power_map(2), 0.7)
    z = np.array([cmath.exp(0.4j)])
    a = noise_study(op, z, 2, None, NoiseModel(1e-5), 4, rng=21)
    b = noise_study(op, z, 2, None, NoiseModel(1e-5), 4, rng=21)
    assert a.delta_final == b.delta_final


def test_noise_study_warns_when_bound_vacuous():
    op = make_step_operator(power_map(2), 0.1)
    with pytest.warns(UserWarning, match="vacuous"):
        noise_study(op, np.array([1.0 + 0j]), m=6, epsilon=None,
                    noise=NoiseModel(1e-2), trials=1, rng=22)


@pytest.mark.parametrize("eta", [1e200, 1.7e308])
def test_noise_study_at_huge_eta_saturates_to_a_vacuous_bound(eta):
    # (eta / eps)^2 and, at 1.7e308, gamma (3 delta + eta) pass the float
    # range: the collapse tolerance and the recurrence saturate to inf, the
    # study runs, and the vacuous-bound advisory is its only warning
    op = make_step_operator(random_unitary_map(3, rng=7), 0.8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = noise_study(op, unit_vector(3, 23), 3, None, NoiseModel(eta), 2, rng=1)
    assert [(w.category, "vacuous" in str(w.message)) for w in caught] == [
        (UserWarning, True)]
    assert rep.delta_bound >= eta
    assert all(0.0 <= d <= rep.delta_bound for d in rep.delta_final)


def test_noise_study_refuses_fewer_than_one_step():
    # refused before the ideal orbit or any step bound is built
    op = make_step_operator(power_map(2), 0.5)
    for m in (0, -1):
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            noise_study(op, np.array([1.0 + 0j]), m, None, NoiseModel(1e-5), 1)


def test_noise_study_beyond_dim_cap():
    # Degree-3 NLS on cycle(80): D = 161^3 = 4.17e6 exceeds the cap on full
    # amplitude vectors, which a perturbed step never builds.
    pmap = euler_map(discrete_nls(GraphSpec.cycle(80), 2), 1e-3)
    assert pmap.degree == 3 and (pmap.n + 1) ** 3 > DEFAULT_DIM_CAP
    rep = noise_study(make_step_operator(pmap, 0.5), unit_vector(pmap.n, 24), m=2,
                      epsilon=None, noise=NoiseModel(1e-6), trials=2, rng=25)
    bounds = rep.meta["step_bounds"]
    assert all(0 < d <= b for deltas in rep.delta_steps
               for d, b in zip(deltas, bounds, strict=True))


def test_perturbed_step_allocates_no_joint_buffer():
    # discrete NLS on a 14-vertex cycle: n = 28, d = 3, D = 29^3 = 24389.
    # A study builds no D-long buffer.  A stack's buffers grow with its
    # trials times nnz, not with D: about 36 kB per trial here, so two trials
    # stay under the bound.
    op = make_step_operator(euler_map(discrete_nls(GraphSpec.cycle(14), 2), 1e-3))
    D = op.A.register_dim
    assert op.degree == 3 and D >= 20000
    z0 = unit_vector(op.A.n, 1)

    def study():
        return noise_study(op, z0, 3, None, NoiseModel(1e-8), 2, rng=3)

    study()
    tracemalloc.start()
    try:
        study()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < D * 16 / 4


def test_noise_study_refuses_degree_five():
    # from degree 5 on gamma = 2 sqrt(2) / eps bounds no worst-case step
    with pytest.raises(ParameterError, match="degree <= 4") as info:
        noise_study(make_step_operator(power_map(5), 0.5), np.array([1.0 + 0j]),
                    m=2, epsilon=None, noise=NoiseModel(1e-5), trials=2, rng=0)
    assert info.value.name == "system"
    rep = noise_study(make_step_operator(power_map(4), 0.5), np.array([1.0 + 0j]),
                      m=2, epsilon=None, noise=NoiseModel(1e-5), trials=2, rng=0)
    assert max(rep.delta_final) > 0


@pytest.mark.parametrize("pmap", [power_map(2),
                                  random_unitary_map(2, rng=rng_stream(40))],
                         ids=["power2_dim8", "random_unitary2_dim18"])
def test_matrix_free_perturbation_matches_dense(pmap):
    # Dense cross-check of the matrix-free noise: G_j from the product state
    # psi_j and the trial's own u, V_j = U exp(i eta G_j) through a dense
    # eigh, and a replay of every noise_study trial with those dense V_j.
    eta, seed, stream, trials, steps = 1e-3, 41, 2, 3, 2
    op = make_step_operator(pmap, 0.5)
    n, d, dim = op.A.n, op.degree, 2 * op.A.register_dim
    U = dense_step_unitary(op)
    z0 = unit_vector(pmap.n, 42)
    rep = noise_study(op, z0, steps, None, NoiseModel(eta, stream=stream),
                      trials, rng=seed)
    ideal = [encode(z0)]
    for _ in range(steps):
        ideal.append(ideal_step(op, ideal[-1]).posterior)
    directions = [_sector1_direction(n, d, r) for r in _trial_rngs(seed, trials, stream)]
    _, posteriors = _perturbed_trials(
        op, np.array([s.amps for s in ideal]), directions, eta,
        max(1e-10, 100 * (eta / 0.5) ** 2), 2 * math.sqrt(2) / 0.5, rep.delta_bound)
    for u, deltas, posterior in zip(directions, rep.delta_steps, posteriors,
                                    strict=True):
        u_vec = dense_sector1(u, n, d)
        assert np.linalg.norm(u_vec) == pytest.approx(1.0, abs=1e-15)
        state, replay = ideal[0], []
        for j in range(steps):
            psi = dense_product(state, d)
            assert abs(np.vdot(u_vec, psi)) == 0.0
            G = (np.outer(psi, u_vec.conj()) + np.outer(u_vec, psi.conj())
                 + np.eye(dim) - np.outer(psi, psi.conj()) - np.outer(u_vec, u_vec.conj()))
            w, Q = np.linalg.eigh(G)
            V = U @ (Q * np.exp(1j * eta * w)) @ Q.conj().T
            gap = np.linalg.norm(U - V, 2)
            assert gap <= eta
            assert gap == pytest.approx(2 * math.sin(eta / 2), abs=1e-12)
            _, state = dense_postselect(V @ psi, n, d)
            replay.append(distance(ideal[j + 1], state))
        assert replay == pytest.approx(deltas, rel=1e-9, abs=1e-13)
        assert np.abs(posterior - state.amps).max() < 1e-12


def replay_trials(op, ideal, directions, eta, collapse_tol, gamma, bound):
    """Each trial stepped alone, step by step, through the single-state
    reference (perturbed_step, distance), with each step's checks run in the
    order a step runs them (joint norm before and after, floor, collapse,
    posterior norm, probability range) and the study's recurrence and bound
    checks: (deltas, final posteriors)."""
    deltas, finals = [], []
    for u in directions:
        state, row, prev = AmplitudeState(ideal[0]), [], 0.0
        for j in range(len(ideal) - 1):
            mass_in, mass_out, probability, residual, posterior = perturbed_step(
                op, state, eta, u)
            _check_joint_norm(mass_in)
            _check_joint_norm(mass_out)
            _check_floor(probability)
            _check_collapse(residual, collapse_tol)
            state = AmplitudeState(posterior)
            _check_probability(probability)
            d_j = distance(ideal[j + 1], state)
            allowed = gamma * (3.0 * prev + eta)
            if d_j > allowed * (1 + 1e-9) + 1e-12:
                raise ValueError(f"per-step error recurrence violated at step {j + 1}: "
                                 f"{d_j} > gamma(3 delta + eta) = {allowed}")
            row.append(d_j)
            prev = d_j
        if row[-1] > bound * (1 + 1e-9) + 1e-15:
            raise ValueError(f"accumulated error {row[-1]} exceeds bound {bound}")
        deltas.append(row)
        finals.append(state.amps)
    return np.array(deltas), np.array(finals)


def ideal_states(op, z0, m) -> np.ndarray:
    states = [encode(z0)]
    for _ in range(m):
        states.append(ideal_step(op, states[-1]).posterior)
    return np.array([s.amps for s in states])


def near_linear_map(n, d, seed, real):
    """f = Q z, for a random orthogonal or unitary Q padded to degree d, plus
    z_1^(d-1) z_2 in rows 1 and 2 with coefficients 0.05 and 0.05 c, |c| = 1:
    close to measure preserving, and the two rows share the columns of the
    new term, so the Gram is complex when Q and c are."""
    rng = rng_stream(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + (0 if real else 1j * rng.standard_normal((n, n))))
    c = 1.0 if real else np.exp(2j * math.pi * rng.uniform())
    pad = (0,) * (d - 1)
    terms = {(j + 1, pad + (k + 1,)): q[j, k] for j in range(n) for k in range(n)}
    mono = (1,) * (d - 1) + (2,)
    terms.update({(1, mono): 0.05, (2, mono): 0.05 * c})
    return PolynomialMap.from_monomials(n, d, terms)


@pytest.mark.filterwarnings("ignore:eta \\(3 gamma\\)\\^m >= 1")
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("power", "real", "complex", "orthogonal")),
       st.sampled_from((2, 3, 4)), st.integers(2, 3), st.integers(0, 2 ** 16),
       st.integers(1, 7), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from((1e-3, 1e-6)))
def test_stacked_noise_study_matches_trial_by_trial_replay(kind, d, n, seed, trials,
                                                           stack, m, eta):
    # Stacks of `stack` trials, so most draws span more than one stack.  An
    # orthogonal map from a real z0 steps its ideal orbit in float64, and
    # its perturbed stacks in complex128 as every other kind does.
    if kind == "orthogonal":
        q, _ = np.linalg.qr(rng_stream(seed).standard_normal((n, n)))
        pmap, d = unitary_map(q), 2
    else:
        pmap = (power_map(d) if kind == "power"
                else near_linear_map(n, d, seed, real=kind == "real"))
    op = make_step_operator(pmap, 0.5)
    assert np.iscomplexobj(op.g_gram) == (kind == "complex")
    z0 = unit_vector(pmap.n, seed + 1, real=kind == "orthogonal")
    backbones, stacks = [], []
    finish, perturbed = euler_driver._SuccessBranch.finish, euler_driver._perturbed_trials

    def recording_finish(branch, kept, z0):
        backbones.append(branch.states.dtype)
        return finish(branch, kept, z0)

    def recording_trials(op, ideal, directions, *args):
        stacks.append((ideal.dtype, len(directions)))
        return perturbed(op, ideal, directions, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(euler_driver, "block_length", lambda terms, limit: min(limit, stack))
        patch.setattr(euler_driver._SuccessBranch, "finish", recording_finish)
        patch.setattr(euler_driver, "_perturbed_trials", recording_trials)
        rep = noise_study(op, z0, m, None, NoiseModel(eta, stream=2), trials, rng=seed)
    assert backbones == [np.float64 if kind == "orthogonal" else complex]
    assert set(dtype for dtype, _ in stacks) == {np.dtype(complex)}
    sizes = [size for _, size in stacks]
    assert sizes == [min(stack, trials - start) for start in range(0, trials, stack)]
    directions = [_sector1_direction(pmap.n, d, r) for r in _trial_rngs(seed, trials, 2)]
    ideal = ideal_states(op, z0, m)
    gamma, collapse_tol = 2 * math.sqrt(2) / 0.5, max(1e-10, 100 * (eta / 0.5) ** 2)
    args = (op, ideal, directions, eta, collapse_tol, gamma, rep.delta_bound)
    deltas, finals = replay_trials(*args)
    assert np.array_equal(rep.iterates[0], z0)
    assert np.array_equal(rep.iterates[1:], ideal[1:, 1:] / ideal[1:, :1])
    assert np.ravel(rep.delta_steps) == pytest.approx(deltas.ravel(), rel=1e-12)
    assert rep.delta_final == pytest.approx(deltas[:, -1], rel=1e-12)
    _, posteriors = _perturbed_trials(*args)
    assert np.abs(posteriors - finals).max() <= 1e-12


def test_large_om_study_stacks_its_trials_and_matches_the_replay():
    # OM n = 520: nnz(B) = 2081, one triplet per multiset, so BLOCK_TERMS //
    # nnz(B) would stack three trials; block_length stacks all four
    op = make_step_operator(euler_map(orszag_mclaughlin(520), 1e-3))
    assert op.A.nnz == 2081
    z0, m, eta, trials = unit_vector(520, 70, real=True), 2, 1e-9, 4
    sizes, perturbed = [], euler_driver._perturbed_trials

    def recording_trials(op, ideal, directions, *args):
        sizes.append(len(directions))
        return perturbed(op, ideal, directions, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(euler_driver, "_perturbed_trials", recording_trials)
        rep = noise_study(op, z0, m, None, NoiseModel(eta), trials, rng=71)
    assert sizes == [trials]
    directions = [_sector1_direction(520, 2, r) for r in _trial_rngs(71, trials, 0)]
    gamma = 2 * math.sqrt(2) / op.epsilon
    collapse_tol = max(1e-10, 100 * (eta / op.epsilon) ** 2)
    deltas, _ = replay_trials(op, ideal_states(op, z0, m), directions, eta,
                              collapse_tol, gamma, rep.delta_bound)
    assert np.ravel(rep.delta_steps) == pytest.approx(deltas.ravel(), rel=1e-12)


def same_message(got: str, want: str) -> bool:
    """The two messages agree in their words and integers, and their floats
    agree to 1e-6 relative (they come from different summation orders)."""
    number = r"(-?\d+\.\d*(?:e[-+]?\d+)?)"
    a, b = re.split(number, got), re.split(number, want)
    return len(a) == len(b) and all(
        x == y if k % 2 == 0 else float(x) == pytest.approx(float(y), rel=1e-6)
        for k, (x, y) in enumerate(zip(a, b)))


@pytest.mark.parametrize("long_trial, bound, collapse_tol, expected", [
    # trial 0 first fails the recurrence at step 2, trial 1 the joint norm at
    # step 1: a loop over steps would raise trial 1's error
    (1, 1.0, None, "per-step error recurrence violated at step 2"),
    (0, 1.0, None, "joint norm"),
    # trial 0 passes every step and then fails the closed-form bound
    (1, 1e-9, None, "accumulated error"),
    # at eta = 1e-6 each step leaks about 1e-12 of the success branch off the
    # anchors: trial 0 fails the collapse at step 1, before its recurrence
    (1, 1.0, 1e-14, "registers 2..d failed to collapse"),
], ids=["earliest-trial", "earliest-step-of-trial", "bound-before-next-trial",
        "collapse-before-recurrence"])
def test_stacked_study_raises_the_error_the_trial_loop_meets_first(long_trial, bound,
                                                                   collapse_tol,
                                                                   expected):
    op = make_step_operator(random_unitary_map(3, rng=rng_stream(60)), 0.8)
    eta = 1e-6
    ideal = ideal_states(op, unit_vector(3, 61), 3)
    # every trial's step-2 distance is O(1) against a wrong ideal state
    ideal[2] = encode(unit_vector(3, 62)).amps
    directions = [_sector1_direction(3, 2, rng_stream(63 + k)) for k in range(3)]
    # a direction 1000 times too long breaks the joint norm of its inputs
    a, cols, off = directions[long_trial]
    directions[long_trial] = (1e3 * a, cols, 1e3 * off)
    if collapse_tol is None:
        collapse_tol = max(1e-10, 100 * (eta / 0.8) ** 2)
    args = (op, ideal, directions, eta, collapse_tol, 2 * math.sqrt(2) / 0.8, bound)
    if bound < 1.0:  # the recurrence passes everywhere
        args = (*args[:5], math.inf, bound)
    with pytest.raises(ValueError) as stacked:
        _perturbed_trials(*args)
    with pytest.raises(ValueError) as sequential:
        replay_trials(*args)
    assert str(stacked.value).startswith(expected)
    assert same_message(str(stacked.value), str(sequential.value))


def test_noise_study_at_scale():
    # 2D = 2 (50 + 1)^2 = 5202 amplitudes, 100 trials, in under a minute.
    pmap = random_unitary_map(50, rng=rng_stream(44))
    t0 = time.monotonic()
    rep = noise_study(make_step_operator(pmap, 0.8), unit_vector(50, 45), m=3,
                      epsilon=None, noise=NoiseModel(1e-4), trials=100, rng=46)
    elapsed = time.monotonic() - t0
    bounds = rep.meta["step_bounds"]
    assert len(rep.delta_steps) == 100
    assert all(d <= b for deltas in rep.delta_steps
               for d, b in zip(deltas, bounds, strict=True))
    assert all(d <= rep.delta_bound for d in rep.delta_final)
    assert max(rep.delta_final) > 1e-9
    assert elapsed < 60


# --- report integrity --------------------------------------------------------------

REPORT_CORE = dict(success=True, m=1, epsilon=0.5, iterates=[], probabilities=[],
                   norm_factors=[], image_norms=[])


def test_report_copy_count_invariant_enforced():
    from qeuler import MonteCarloReport

    with pytest.raises(ValueError, match="halve"):
        MonteCarloReport(**REPORT_CORE, copy_counts=[10, 6], successes=[3],
                         flagged_rounds=[], failure_round=None)


def test_report_error_bound_invariant_enforced():
    from qeuler import NoiseReport

    with pytest.raises(ValueError, match="accumulated error .* exceeds bound"):
        NoiseReport(**REPORT_CORE, eta=0.1, delta_steps=[[0.2]], delta_final=[0.2],
                    delta_bound=0.1)


def test_report_error_bound_invariant_refuses_nan():
    from qeuler import NoiseReport

    with pytest.raises(ValueError, match="accumulated error .* exceeds bound"):
        NoiseReport(**REPORT_CORE, eta=0.1, delta_steps=[[0.0], [math.nan]],
                    delta_final=[0.0, math.nan], delta_bound=0.1)


def test_report_mode_and_gamma_follow_type_and_epsilon():
    rep = run_deterministic(make_step_operator(identity_map(2), 0.4),
                            unit_vector(2, 24), m=1)
    assert (rep.mode, rep.gamma) == ("deterministic", 2 * math.sqrt(2) / 0.4)
    for name in ("mode", "gamma", "epsilon"):
        with pytest.raises(AttributeError):
            setattr(rep, name, 1.0)


def test_trajectory_csv_shape(tmp_path):
    from qeuler import write_trajectory_csv

    rep = run_deterministic(make_step_operator(identity_map(2), 0.4),
                            unit_vector(2, 23), m=3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,re_z1,im_z1,re_z2,im_z2,probability,norm_factor"
    assert len(lines) == 5
    assert all(line.count(",") == 7 for line in lines)
