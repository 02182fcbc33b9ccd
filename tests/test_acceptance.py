"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import cmath
import math
import time

import numpy as np

from qeuler import (NoiseModel, apply_map, encode, euler_map, expectation,
                    fourier_spectrum, integrate, lorenz, make_step_operator,
                    noise_study, orszag_mclaughlin, plan_resources, power_map,
                    projector, random_measure_preserving_map, random_unitary_map,
                    reference_integrate, rng_stream, run_deterministic,
                    run_montecarlo, sample_expectation, unitary_map)
from conftest import expanded_operator, to_dense, unit_vector


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {text}")


def mp_map_corpus(count=50):
    """Random sparse measure-preserving quadratic maps, n <= 8."""
    cases = []
    for k in range(count):
        rng = rng_stream(9000 + k)
        n = int(rng.integers(1, 9))
        pmap = random_measure_preserving_map(n, rng=rng)
        z = unit_vector(n, 9500 + k)
        cases.append((pmap, z))
    return cases


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for pmap, z in mp_map_corpus(50):
        rep = run_deterministic(make_step_operator(pmap), z, 1)
        worst = max(worst, float(np.abs(rep.iterates[1] - apply_map(pmap, z)).max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 30
    report(1, ok, f"oracle equivalence on 50 random MP maps: max dev "
                  f"{worst:.2e} (<1e-10), {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30


def test_criterion_2_success_probability_measure_preserving():
    worst = 0.0
    for pmap, z in mp_map_corpus(50):
        op = make_step_operator(pmap)
        probability = run_deterministic(op, z, 1).probabilities[0]
        worst = max(worst, abs(probability - op.epsilon ** 2 / 2))
    ok = worst < 1e-12
    report(2, ok, f"success probability = eps^2/2 on MP maps: max dev "
                  f"{worst:.2e} (<1e-12)")
    assert worst < 1e-12


def test_criterion_2_success_probability_non_measure_preserving():
    """Non-measure-preserving probability check.

    probability = eps^2 ||F(z)||^2 / 2 holds exactly with ||F(z)|| read as
    the norm factor sqrt(2 probability)/eps, i.e. the rms norm of the padded
    image (1, F(z))/sqrt(2) -- the quantity the norm-factor definition itself
    calls ||F(z)|| and the only reading consistent with the exact step map
    (see the 0.9 -> eps^2 0.81/2 case).  The plain-image-norm reading
    eps^2 ||F_cls||^2 / 2 is NOT satisfied by the exact step algebra; its
    residual is printed for transparency.  Both predictions below come from
    the classical oracle, so the check is independent of the quantum path.
    """
    rng = rng_stream(42)
    cases = []
    for scale in (math.sqrt(0.62), 0.6, 1.2):  # sqrt(0.62) gives rho = 0.9
        u, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        cases.append((unitary_map(u, scale=scale), unit_vector(4, 77)))
    for h in (0.02, 0.05):
        cases.append((euler_map(lorenz(), h),
                      np.array([1.0, 1.0, 1.0], complex) / math.sqrt(3)))
    worst_rms, worst_plain = 0.0, 0.0
    for pmap, z in cases:
        eps = 0.05
        probability = run_deterministic(make_step_operator(pmap, eps), z,
                                        1).probabilities[0]
        f_cls = np.linalg.norm(apply_map(pmap, z))
        rms = math.sqrt((1 + f_cls ** 2) / 2)  # norm-factor reading of ||F||
        worst_rms = max(worst_rms, abs(probability - eps ** 2 * rms ** 2 / 2))
        worst_plain = max(worst_plain,
                          abs(probability - eps ** 2 * f_cls ** 2 / 2))
    ok = worst_rms < 1e-12
    report(2, ok, f"non-MP probability = eps^2 ||F||^2/2 (norm-factor "
                  f"reading): max dev {worst_rms:.2e} (<1e-12); "
                  f"plain-image-norm reading deviates by {worst_plain:.2e}")
    assert worst_rms < 1e-12


def test_criterion_3_quantum_euler_equals_classical_euler():
    sys = orszag_mclaughlin(5)
    z0 = unit_vector(5, 11, real=True)
    rep = integrate(sys, z0, t=0.1, m=100)
    ref = reference_integrate(sys, z0, 0.1, 100, "euler")
    dev = max(np.abs(a - b).max() for a, b in zip(rep.iterates, ref))

    exact = reference_integrate(sys, z0, 0.1, 3200, "rk4")[-1]
    e1 = np.linalg.norm(integrate(sys, z0, t=0.1, m=100).iterates[-1] - exact)
    e2 = np.linalg.norm(integrate(sys, z0, t=0.1, m=200).iterates[-1] - exact)
    ratio = e1 / e2
    ok = dev <= 1e-8 and 1.8 <= ratio <= 2.2
    report(3, ok, f"quantum vs classical Euler dev {dev:.2e} (<=1e-8); "
                  f"halving-h RK4-deviation ratio {ratio:.3f} in [1.8, 2.2]")
    assert dev <= 1e-8
    assert 1.8 <= ratio <= 2.2


def test_criterion_4_conservation_drift_quadratic_in_h():
    sys = orszag_mclaughlin(5)
    z0 = unit_vector(5, 12, real=True)
    t = 0.5
    cs = {}
    for h in (1e-2, 5e-3, 2.5e-3):
        rep = integrate(sys, z0, t=t, m=round(t / h))
        norms2 = np.array([np.linalg.norm(z) ** 2 for z in rep.iterates])
        drift = np.abs(np.diff(norms2)).max()
        cs[h] = drift / h ** 2
    spread = max(cs.values()) / min(cs.values())
    ok = spread < 1.5
    report(4, ok, "conservation drift <= C h^2 with fitted C stable: "
                  + ", ".join(f"h={h:g}: C={c:.4f}" for h, c in cs.items())
                  + f" (spread {spread:.3f} < 1.5)")
    assert spread < 1.5


def test_criterion_5_branching_process_success_rate():
    epsilon = 0.8  # p = 0.32 >= 0.3
    pmap = random_unitary_map(2, rng=rng_stream(13))
    op = make_step_operator(pmap, epsilon)
    z0 = unit_vector(2, 14)
    trials = 300
    fractions = {}
    for m in (1, 2, 3):
        t0 = time.monotonic()
        plan = plan_resources(m, epsilon, base=16)
        wins = sum(run_montecarlo(op, z0, plan, rng=rng_stream(15, m, k)).success
                   for k in range(trials))
        elapsed = time.monotonic() - t0
        fractions[m] = wins / trials
        assert elapsed < 60
    ok = all(f >= 1 / 3 for f in fractions.values())
    report(5, ok, "Monte-Carlo success fraction >= 1/3 at p = 0.32, 300 "
                  "trials per cell: "
                  + ", ".join(f"m={m}: {f:.3f}" for m, f in fractions.items()))
    assert ok


def test_criterion_6_accumulated_error_bound():
    epsilon = 0.8
    op = make_step_operator(random_unitary_map(2, rng=rng_stream(16)), epsilon)
    z0 = unit_vector(2, 17)
    gamma = 2 * math.sqrt(2) / epsilon
    checked = 0
    for eta in (1e-6, 1e-4):
        for m in range(1, 6):
            import warnings

            with warnings.catch_warnings():
                # eta (3 gamma)^m >= 1 cells trip the vacuous-bound advisory;
                # the bound must still hold there, which is the point.
                warnings.simplefilter("ignore", UserWarning)
                rep = noise_study(op, z0, m=m, epsilon=epsilon,
                                  noise=NoiseModel(eta), trials=100,
                                  rng=rng_stream(18, m))
            # noise_study raises on any recurrence/bound violation; recheck
            assert all(d <= rep.delta_bound for d in rep.delta_final)
            for deltas in rep.delta_steps:
                prev = 0.0
                for d in deltas:
                    assert d <= gamma * (3 * prev + eta) * (1 + 1e-9) + 1e-12
                    prev = d
            checked += 100
    ok = checked == 1000
    report(6, ok, f"noise bound held in {checked}/1000 trials across "
                  "eta in {1e-6, 1e-4}, m in 1..5, incl. per-step recurrence")
    assert ok


def test_criterion_7_norm_bound_everywhere():
    corpus = [pm for pm, _ in mp_map_corpus(50)]
    corpus += [power_map(2), power_map(3),
               euler_map(orszag_mclaughlin(5), 0.01),
               euler_map(lorenz(), 0.02)]
    worst_gap = 0.0
    for pmap in corpus:
        op = make_step_operator(pmap)
        assert op.h_norm <= op.h_norm_bound + 1e-12
        svd = np.linalg.svd(to_dense(expanded_operator(op.pmap)), compute_uv=False)[0]
        worst_gap = max(worst_gap, abs(op.h_norm - svd))
    ok = worst_gap < 1e-10
    report(7, ok, f"||H|| <= s a_max on all {len(corpus)} operators; "
                  f"Gram eigh vs dense SVD max gap {worst_gap:.2e} "
                  "(<1e-10)")
    assert ok


def test_criterion_8_degree_three_copies():
    pmap = power_map(3)  # z -> z^3, measure preserving on the circle
    worst_dev, worst_prob = 0.0, 0.0
    for k in range(20):
        theta = rng_stream(19, k).uniform(0, 2 * math.pi)
        z = np.array([cmath.exp(1j * theta)])
        op = make_step_operator(pmap)
        rep = run_deterministic(op, z, 1)
        worst_dev = max(worst_dev, float(np.abs(
            rep.iterates[1] - apply_map(pmap, z)).max()))
        # d = 3 copies: exact MP success probability is eps^2 / 2^(d-1)
        worst_prob = max(worst_prob, abs(rep.probabilities[0] - op.epsilon ** 2 / 4))
    ok = worst_dev < 1e-10 and worst_prob < 1e-12
    report(8, ok, f"cubic map with d=3 copies: oracle dev {worst_dev:.2e} "
                  f"(<1e-10), probability dev from eps^2/4 {worst_prob:.2e} "
                  "(<1e-12)")
    assert worst_dev < 1e-10
    assert worst_prob < 1e-12


def test_criterion_9_hoeffding_and_parseval():
    state = encode(unit_vector(5, 20))
    obs = projector(5, 2)
    truth = expectation(state, obs)
    coverages = {}
    for delta, alpha in ((0.05, 0.05), (0.05, 0.2), (0.1, 0.05), (0.1, 0.2)):
        hits = 0
        reps = 500
        for k in range(reps):
            est, _ = sample_expectation(state, obs, delta, alpha,
                                        rng_stream(21, k))
            hits += abs(est - truth) <= delta
        coverages[(delta, alpha)] = hits / reps
    cover_ok = all(c >= 1 - a for (d, a), c in coverages.items())

    parseval = 0.0
    for k in range(10):
        z = unit_vector(6, 400 + k)
        s = fourier_spectrum(z)
        parseval = max(parseval, abs(float(np.linalg.norm(s) ** 2
                                           - np.linalg.norm(z) ** 2)))
    ok = cover_ok and parseval < 1e-12
    report(9, ok, "sampling coverage >= nominal: "
                  + ", ".join(f"(d={d},a={a}): {c:.3f}"
                              for (d, a), c in coverages.items())
                  + f"; Parseval dev {parseval:.2e} (<1e-12)")
    assert cover_ok
    assert parseval < 1e-12


def test_criterion_10_reproducibility(tmp_path):
    import json

    from qeuler.cli import main

    doc = {"system": {"name": "orszag_mclaughlin", "n": 5},
           "run": {"mode": "montecarlo", "m": 2, "t": 0.02,
                   "epsilon": 0.9, "seed": 7},
           "output": {"csv": "t.csv", "json": "r.json", "state_csv": "s.csv"}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(b"".join((out / f).read_bytes()
                              for f in ("r.json", "t.csv", "s.csv")))
    ok = blobs[0] == blobs[1]
    report(10, ok, "identical config + seed give byte-identical JSON, "
                   "trajectory CSV and state CSV")
    assert ok
