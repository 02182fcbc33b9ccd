import cmath
import math

import numpy as np
import pytest

from qeuler import (GraphSpec, apply_map, check_ode_measure_preserving,
                    discrete_nls, euler_map, identity_map, lorenz,
                    make_step_operator, nls_initial_state, orszag_mclaughlin,
                    permutation_map, power_map,
                    random_measure_preserving_map, random_unitary_map,
                    reference_integrate, rng_stream, run_deterministic, validate)
from conftest import reference_from_monomials, unit_vector


# --- Orszag-McLaughlin ---------------------------------------------------------

def test_om_three_monomials_per_row():
    sys = orszag_mclaughlin(5)
    for j in range(1, 6):
        row = {m for (a, m) in sys.coeffs if a == j}
        assert len(row) == 3


def test_om_conservation_identity_numeric():
    sys = orszag_mclaughlin(7)
    rng = rng_stream(1)
    for _ in range(20):
        x = rng.standard_normal(7)
        assert abs(np.dot(x, sys.rhs(x.astype(complex)).real)) < 1e-13


def test_om_conservation_symbolic_cancellation():
    # accumulate sum_j z_j f_j(z) as a cubic monomial dict: all terms cancel
    sys = orszag_mclaughlin(6)
    acc: dict = {}
    for (j, mono), entry in sys.coeffs.items():
        from qeuler.polysys import permutation_count

        key = tuple(sorted(mono + (j,)))
        acc[key] = acc.get(key, 0j) + entry * permutation_count(mono)
    assert all(abs(v) < 1e-13 for v in acc.values())


def test_om_requires_n_at_least_five():
    with pytest.raises(ValueError, match="n >= 5"):
        orszag_mclaughlin(4)


def test_om_rk4_conserves_norm():
    sys = orszag_mclaughlin(5)
    x0 = unit_vector(5, 2, real=True)
    traj = reference_integrate(sys, x0, 1.0, 1000, "rk4")
    assert np.abs((np.linalg.norm(traj, axis=1) ** 2) - 1).max() < 1e-8


# --- discrete NLS ---------------------------------------------------------------

def test_nls_single_vertex_phase_rotation():
    g = GraphSpec(1, ())
    z0 = np.array([0.7 + 0.2j])
    y0, scale = nls_initial_state(z0)
    sys = discrete_nls(g, 2, nonlinear_scale=scale)
    traj = reference_integrate(sys, y0, 1.0, 2000, "rk4")
    z_t = traj[-1][0] * scale
    expected = z0[0] * cmath.exp(1j * abs(z0[0]) ** 2)
    assert abs(z_t - expected) < 1e-9
    # modulus constant along the way
    assert np.abs(np.abs(traj[:, 0]) - np.abs(y0[0])).max() < 1e-9


def test_nls_single_vertex_euler_norm_drift_second_order():
    g = GraphSpec(1, ())
    y0, scale = nls_initial_state(np.array([1.0 + 0j]))
    sys = discrete_nls(g, 2, nonlinear_scale=scale)
    drifts = {}
    for h in (1e-2, 5e-3):
        m = euler_map(sys, h)
        y1 = apply_map(m, y0)
        drifts[h] = abs(np.linalg.norm(y1) - 1.0)
    assert 3.0 < drifts[1e-2] / drifts[5e-3] < 5.0  # O(h^2)


def test_nls_path_graph_mass_conserved():
    g = GraphSpec.path(2)
    z0 = np.array([0.8, 0.3 - 0.4j])
    y0, scale = nls_initial_state(z0)
    sys = discrete_nls(g, 2, nonlinear_scale=scale)
    traj = reference_integrate(sys, y0, 1.0, 2000, "rk4")
    mass = np.abs(traj[:, :2]) ** 2
    total = mass.sum(axis=1)
    assert np.abs(total - total[0]).max() < 1e-8


def test_nls_conjugate_subspace_invariant_under_flow():
    g = GraphSpec.cycle(3)
    z0 = unit_vector(3, 3)
    y0, scale = nls_initial_state(z0)
    sys = discrete_nls(g, 2, nonlinear_scale=scale)
    traj = reference_integrate(sys, y0, 0.5, 1000, "rk4")
    gap = np.abs(traj[:, 3:] - traj[:, :3].conj()).max()
    assert gap < 1e-9


def test_nls_conjugate_subspace_invariant_under_euler_map():
    g = GraphSpec.path(3)
    y0, scale = nls_initial_state(unit_vector(3, 4))
    sys = discrete_nls(g, 2, nonlinear_scale=scale)
    m = euler_map(sys, 0.01)
    y = y0
    for _ in range(10):
        y = apply_map(m, y)
        assert np.abs(y[3:] - y[:3].conj()).max() < 1e-12


def test_nls_rejects_odd_power():
    with pytest.raises(ValueError, match="even"):
        discrete_nls(GraphSpec.path(2), 3)


def test_nls_degree_and_size():
    sys = discrete_nls(GraphSpec.path(2), 4)
    assert sys.n == 4 and sys.degree == 5


# --- graphs -----------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        GraphSpec(2, ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        GraphSpec(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="vertex range"):
        GraphSpec(2, ((0, 5),))
    g = GraphSpec.cycle(4)
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))  # canonical and sorted


def _reference_nls_monomials(g, k, nonlinear_scale) -> dict:
    """The per-vertex dict the array assembly replaced, with degrees and
    neighbours found by scanning the edge list."""
    V, deg, c = g.vertex_count, k + 1, float(nonlinear_scale) ** k
    monos: dict = {}
    for v in range(V):
        zv, wv = v + 1, V + v + 1
        neighbours = [u if w == v else w for u, w in g.edges if v in (u, w)]
        monos[(zv, (0,) * (deg - 1) + (zv,))] = 2j * len(neighbours)
        for u in neighbours:
            key = (zv, (0,) * (deg - 1) + (u + 1,))
            monos[key] = monos.get(key, 0j) - 1j
        monos[(zv, tuple(sorted((zv,) * (k // 2 + 1) + (wv,) * (k // 2))))] = 1j * c
        monos[(wv, (0,) * (deg - 1) + (wv,))] = -2j * len(neighbours)
        for u in neighbours:
            key = (wv, (0,) * (deg - 1) + (V + u + 1,))
            monos[key] = monos.get(key, 0j) + 1j
        monos[(wv, tuple(sorted((wv,) * (k // 2 + 1) + (zv,) * (k // 2))))] = -1j * c
    return monos


def test_nls_terms_match_per_vertex_reference():
    rng = rng_stream(21)
    for _ in range(30):
        V = int(rng.integers(1, 9))
        pairs = [(u, w) for u in range(V) for w in range(u + 1, V)]
        edges = tuple(p for p in pairs if rng.uniform() < 0.4)
        g = GraphSpec(V, edges[::-1])
        k, scale = int(rng.choice([2, 4])), float(rng.uniform(0.2, 2.0))
        sys = discrete_nls(g, k, nonlinear_scale=scale)
        want = reference_from_monomials(_reference_nls_monomials(g, k, scale),
                                        2 * V, k + 1)
        assert list(sys.coeffs) == list(want)
        assert sys.entries.tobytes() == np.array(list(want.values())).tobytes()


# --- Lorenz -----------------------------------------------------------------------

def test_lorenz_not_measure_preserving():
    ok, res = check_ode_measure_preserving(lorenz(), samples=20)
    assert not ok and res > 1.0


def test_lorenz_euler_step_lower_success_probability():
    sys = lorenz()
    h = 0.02
    m = euler_map(sys, h)
    z = np.array([-0.2, 0.3, -0.8], complex)
    z /= np.linalg.norm(z)
    eps = 0.05
    probability = run_deterministic(make_step_operator(m, eps), z, 1).probabilities[0]
    image_norm = np.linalg.norm(apply_map(m, z))
    assert (probability < eps**2 / 2) == (image_norm < 1.0)
    # and the exact block value either way
    assert probability == pytest.approx(
        eps**2 * (1 + image_norm**2) / 4, abs=1e-12)


def test_lorenz_step_matches_oracle_after_renormalization():
    m = euler_map(lorenz(), 0.01)
    z = np.array([1.0, 1.0, 1.0], complex) / math.sqrt(3)
    got = run_deterministic(make_step_operator(m, 0.05), z, 1).iterates[1]
    expected = apply_map(m, z)
    assert np.abs(got / np.linalg.norm(got)
                  - expected / np.linalg.norm(expected)).max() < 1e-12


# --- map builtins -------------------------------------------------------------------

def test_permutation_map_validation():
    with pytest.raises(ValueError, match="permutation"):
        permutation_map([1, 1])


def test_random_mp_maps_are_measure_preserving_and_sparse():
    for seed in range(10):
        n = 1 + seed % 5
        m = random_measure_preserving_map(n, rng=rng_stream(50 + seed))
        rep = validate(m, 30, rng_seed=60 + seed)
        assert rep.measure_deviation < 1e-12
        assert rep.s_row <= 2 * (n + 1)
        assert rep.s_col <= 2 * (n + 1)


def test_builtin_maps_have_finite_validation_and_norm_bounds():
    cases = [identity_map(3), power_map(2), power_map(3),
             random_unitary_map(4, rng=rng_stream(70)),
             euler_map(orszag_mclaughlin(5), 0.01),
             euler_map(lorenz(), 0.01)]
    for m in cases:
        rep = validate(m, 10, rng_seed=71)
        assert rep.s_row >= 1 and rep.s_col >= 1
        op = make_step_operator(m)
        assert op.h_norm <= op.h_norm_bound + 1e-12
