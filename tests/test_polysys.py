import cmath
import json
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from qeuler import (MAX_EULER_DEGREE, OdeSystem, PolynomialMap, apply_map,
                    check_ode_measure_preserving, euler_map, identity_map,
                    load_map, lorenz, map_from_doc, map_to_doc,
                    orszag_mclaughlin, random_unitary_map, reference_integrate,
                    rng_stream, validate)
from qeuler.polysys import permutation_count
from conftest import brute_force_apply, unit_vector


# --- apply_map ------------------------------------------------------------

def test_identity_map_is_identity():
    m = identity_map(2)
    z = np.array([0.6, 0.8], complex)
    assert np.allclose(apply_map(m, z), z, atol=1e-15)
    # the padded representation carries tensor entries 1/2 on each ordering
    assert m.coeffs[(1, (0, 1))] == 0.5


def test_swap_map(swap_map):
    z = np.array([0.6, 0.8], complex)
    assert np.allclose(apply_map(swap_map, z), [0.8, 0.6], atol=1e-15)


def test_doubling_map_squares_phase(doubling_map):
    z = np.array([cmath.exp(1j * math.pi / 5)])
    out = apply_map(doubling_map, z)
    assert abs(out[0] - cmath.exp(2j * math.pi / 5)) < 1e-15


def test_apply_matches_brute_force_on_random_maps():
    for seed in range(8):
        rng = rng_stream(100 + seed)
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 4))
        entries = {}
        for _ in range(int(rng.integers(1, 3 * n + 1))):
            alpha = int(rng.integers(1, n + 1))
            mono = tuple(sorted(rng.integers(0, n + 1, size=d).tolist()))
            entries[(alpha, mono)] = complex(rng.standard_normal(),
                                             rng.standard_normal())
        pmap = PolynomialMap(n, d, entries)
        z = unit_vector(n, 200 + seed)
        assert np.allclose(apply_map(pmap, z), brute_force_apply(pmap, z),
                           atol=1e-13)


def test_apply_map_rejects_bad_input(doubling_map):
    with pytest.raises(ValueError, match="shape"):
        apply_map(doubling_map, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        apply_map(doubling_map, np.array([np.nan + 0j]))


# --- construction and canonical form ---------------------------------------

def test_unsorted_indices_are_canonicalized():
    m = PolynomialMap(2, 2, {(1, (2, 1)): 1.0, (2, (1, 0)): 0.5})
    assert (1, (1, 2)) in m.coeffs and (2, (0, 1)) in m.coeffs


def test_duplicate_canonical_entries_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PolynomialMap(2, 2, [(((1), (1, 2)), 1.0), (((1), (2, 1)), 1.0)])
    doc = {"n": 2, "degree": 2,
           "entries": [{"alpha": 1, "index": [1, 2], "re": 0.0, "im": 0.0},
                       {"alpha": 1, "index": [2, 1], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="duplicate"):
        map_from_doc(doc)


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError, match="n must be"):
        PolynomialMap(0, 2, {})
    with pytest.raises(ValueError, match="degree"):
        PolynomialMap(1, 1, {})


def test_monomial_coefficient_roundtrip():
    m = PolynomialMap.from_monomials(2, 2, {(1, (0, 1)): 1.0, (2, (1, 2)): 3.0})
    assert m.monomial_coefficient(1, (1, 0)) == pytest.approx(1.0)
    assert m.monomial_coefficient(2, (2, 1)) == pytest.approx(3.0)
    assert m.coeffs[(2, (1, 2))] == pytest.approx(1.5)  # split over 2 orderings


@pytest.mark.parametrize("cls", [PolynomialMap, OdeSystem])
def test_from_monomials_refuses_subnormal_entry(cls):
    # 5e-324j / 2 rounds to 0: the entry would vanish without an error
    with pytest.raises(ValueError, match=r"row 1, multi-index \(0, 1\)"):
        cls.from_monomials(2, 2, [((1, (0, 1)), 5e-324j)])


@pytest.mark.parametrize("key", [(1.7, (1, 1)), (1, (1, 1.9)), (True, (1, 1)),
                                 (1, (True, 1)), ("1", (1, 1)), (1, (1, "2"))])
def test_non_integer_keys_rejected(key):
    with pytest.raises(ValueError, match="must be an integer"):
        PolynomialMap(2, 2, {key: 1.0})
    with pytest.raises(ValueError, match="must be an integer"):
        PolynomialMap.from_monomials(2, 2, {key: 1.0})
    with pytest.raises(ValueError, match="must be an integer"):
        identity_map(2).monomial_coefficient(*key)


def test_integral_keys_accepted():
    key = (np.int64(1), (np.int32(1), 2.0))
    expected = {(1, (1, 2)): 1.0}
    assert PolynomialMap(2, 2, {key: 1.0}).coeffs == expected
    assert PolynomialMap.from_monomials(2, 2, {key: 2.0}).coeffs == expected
    assert PolynomialMap(2, 2, expected).monomial_coefficient(*key) == 2.0


# --- validate ---------------------------------------------------------------

def test_validate_identity():
    rep = validate(identity_map(3), 50, rng_seed=1)
    assert rep.s_row == 2
    assert rep.s_col <= 2
    assert rep.measure_deviation < 1e-12
    assert 0.9 < rep.lipschitz_estimate < 1.1


def test_validate_doubling(doubling_map):
    # n = 1 unit vectors are unit-modulus, where |z^2| = 1 exactly
    rep = validate(doubling_map, 50, rng_seed=2)
    assert rep.measure_deviation < 1e-12
    assert rep.lipschitz_estimate > 1.0  # derivative reaches 2 on the circle


def test_validate_deterministic_given_seed():
    m = random_unitary_map(4, rng=rng_stream(9))
    assert validate(m, 30, rng_seed=5) == validate(m, 30, rng_seed=5)


def test_validate_euler_map_deviation_scales_as_h_squared():
    sys = orszag_mclaughlin(5)
    devs = {}
    for h in (1e-2, 5e-3):
        rep = validate(euler_map(sys, h), 40, rng_seed=3, real_samples=True)
        devs[h] = rep.measure_deviation
        assert rep.lipschitz_estimate < 10
    # fitted C = dev / h^2 stable within a factor ~2
    c1, c2 = devs[1e-2] / 1e-4, devs[5e-3] / 2.5e-5
    assert 0.5 < c1 / c2 < 2.0


# --- euler_map ---------------------------------------------------------------

def test_euler_map_of_zero_rhs_is_identity():
    sys = OdeSystem(2, 2, {})
    m = euler_map(sys, 0.3)
    z = unit_vector(2, 4)
    assert np.allclose(apply_map(m, z), z, atol=1e-15)


def test_euler_map_linear_rotation():
    sys = OdeSystem.from_monomials(1, 1, {(1, (1,)): 1j})
    m = euler_map(sys, 0.1)
    out = apply_map(m, np.array([1.0 + 0j]))
    assert out[0] == pytest.approx(1.0 + 0.1j)


def test_euler_map_consistency_with_rhs():
    sys = orszag_mclaughlin(6)
    h = 0.02
    m = euler_map(sys, h)
    for seed in range(5):
        z = unit_vector(6, 300 + seed)
        assert np.allclose(apply_map(m, z), z + h * sys.rhs(z), atol=1e-13)


def test_euler_map_row_structure_orszag_mclaughlin():
    m = euler_map(orszag_mclaughlin(5), 0.01)
    for j in range(1, 6):
        # 1 linear + 3 quadratic stencil monomials
        assert np.count_nonzero(m.alphas == j) == 4


def test_euler_map_keeps_entries_below_normal_range():
    # from_monomials refuses such coefficients; euler_map takes them
    tiny = float(np.finfo(float).tiny)
    sys = OdeSystem(2, 2, {(1, (1, 2)): tiny, (2, (0, 2)): tiny})
    m = euler_map(sys, 1e-3)
    assert m.coeffs[(1, (1, 2))] == 1e-3 * tiny
    assert m.coeffs[(2, (0, 2))] == 0.5  # the linear term absorbs it


def test_euler_map_degree_overflow():
    sys = OdeSystem(1, MAX_EULER_DEGREE + 1, {(1, (1,) * (MAX_EULER_DEGREE + 1)): 1.0})
    with pytest.raises(ValueError, match="degree"):
        euler_map(sys, 0.1)


def test_euler_map_requires_positive_h():
    with pytest.raises(ValueError, match="positive"):
        euler_map(OdeSystem(1, 2, {}), 0.0)


# --- measure preservation ----------------------------------------------------

def test_measure_check_zero_rhs():
    ok, res = check_ode_measure_preserving(OdeSystem(2, 2, {}))
    assert ok and res == 0.0


def test_measure_check_orszag_mclaughlin():
    ok, res = check_ode_measure_preserving(orszag_mclaughlin(5), samples=100)
    assert ok and res < 1e-12


def test_measure_check_lorenz_fails():
    ok, res = check_ode_measure_preserving(lorenz(), samples=50)
    assert not ok and res > 1.0


# --- reference integration ----------------------------------------------------

def test_constant_rhs_trajectory():
    traj = reference_integrate(OdeSystem(2, 2, {}), unit_vector(2, 5), 1.0, 10)
    assert np.allclose(traj, traj[0], atol=0)


def test_rotation_closed_form_rk4():
    sys = OdeSystem.from_monomials(1, 1, {(1, (1,)): 1j})
    z0 = np.array([1.0 + 0j])
    traj = reference_integrate(sys, z0, 1.0, 1000, "rk4")
    assert abs(traj[-1][0] - cmath.exp(1j)) < 1e-9


def test_euler_is_bitwise_repeated_map_application():
    sys = orszag_mclaughlin(5)
    z0 = unit_vector(5, 6, real=True)
    steps, t = 50, 0.5
    traj = reference_integrate(sys, z0, t, steps, "euler")
    m = euler_map(sys, t / steps)
    z = z0
    for k in range(steps):
        z = apply_map(m, z)
        assert np.array_equal(traj[k + 1], z)


def test_orszag_mclaughlin_rk4_conserves_norm():
    sys = orszag_mclaughlin(5)
    z0 = unit_vector(5, 7, real=True)
    traj = reference_integrate(sys, z0, 1.0, 1000, "rk4")
    norms = np.linalg.norm(traj, axis=1)
    assert np.abs(norms**2 - 1.0).max() < 1e-8


def test_euler_first_order_rk4_fourth_order():
    sys = OdeSystem.from_monomials(1, 1, {(1, (1,)): 1j})
    z0 = np.array([1.0 + 0j])
    exact = cmath.exp(1j)

    def err(method, steps):
        return abs(reference_integrate(sys, z0, 1.0, steps, method)[-1][0] - exact)

    assert 1.8 < err("euler", 100) / err("euler", 200) < 2.2
    assert 14.0 < err("rk4", 10) / err("rk4", 20) < 18.0


def test_blowup_detected():
    sys = OdeSystem(1, 2, {(1, (1, 1)): 1.0})  # dz/dt = z^2
    with pytest.raises(ValueError, match="blew up"):
        reference_integrate(sys, np.array([2.0 + 0j]), 100.0, 60, "euler")


def test_measure_preserving_maps_fix_the_sphere():
    for seed in range(5):
        m = random_unitary_map(4, rng=rng_stream(400 + seed))
        z = unit_vector(4, 500 + seed)
        assert abs(np.linalg.norm(apply_map(m, z)) - 1.0) < 1e-10


# --- serialization -----------------------------------------------------------

def test_json_roundtrip(tmp_path):
    m = euler_map(orszag_mclaughlin(5), 0.01)
    path = tmp_path / "map.json"
    with open(path, "w") as f:
        json.dump(map_to_doc(m), f)
    again = load_map(path)
    assert again.n == m.n and again.degree == m.degree
    assert again.coeffs == m.coeffs


def test_json_accepts_unsorted_indices(tmp_path):
    doc = {"n": 2, "degree": 2,
           "entries": [{"alpha": 1, "index": [2, 1], "re": 1.0, "im": 0.0}]}
    m = map_from_doc(doc)
    assert (1, (1, 2)) in m.coeffs
    # written form is canonical
    assert map_to_doc(m)["entries"][0]["index"] == [1, 2]


def test_json_rejects_bad_constant_row():
    doc = {"n": 1, "degree": 2,
           "entries": [{"alpha": 0, "index": [1, 1], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="row 0"):
        map_from_doc(doc)


def test_permutation_count_is_the_multinomial():
    # every sorted multi-index over {0..3} up to degree 8 against d! / prod k!
    for d in range(9):
        for mono in combinations_with_replacement(range(4), d):
            expected = math.factorial(d)
            for k in set(mono):
                expected //= math.factorial(mono.count(k))
            assert permutation_count(mono) == expected


@pytest.mark.parametrize("build", [
    lambda: PolynomialMap(2, 2, {(1, (2, 1)): math.nan}),
    lambda: OdeSystem.from_monomials(2, 2, [((1, (2, 1)), math.inf)]),
    lambda: OdeSystem.from_monomials(2, 2, [((1, (1, 2)), 1e308), ((1, (2, 1)), -math.inf)]),
    lambda: map_from_doc(json.loads('{"n": 2, "degree": 2, "entries": [{"alpha": 1, '
                                    '"index": [2, 1], "re": Infinity}]}')),
    lambda: euler_map(OdeSystem(2, 2, {(1, (1, 2)): 1e308}), 0.9),
], ids=["constructor_nan", "from_monomials_inf", "from_monomials_sum_nan", "doc_infinity",
        "euler_map_overflow"])
def test_non_finite_entries_refused_naming_row_and_index(build):
    # euler_map's h * 2 * 1e308 overflows
    with pytest.raises(ValueError, match=r"non-finite entry .* row 1, multi-index \(1, 2\)"):
        build()


def test_permutation_count_exact_past_int64():
    # 21! and up overflow int64; the counts stay exact integers
    monos = np.array([list(range(22)), [0] * 11 + [1] * 11])
    assert permutation_count(monos).tolist() == [math.factorial(22), math.comb(22, 11)]
    assert permutation_count(tuple(range(21))) == math.factorial(21)


@pytest.mark.parametrize("key", [(1, (1, 2 ** 70)), (2 ** 70, (1, 1))])
def test_keys_past_int64_rejected(key):
    with pytest.raises(ValueError, match="outside"):
        PolynomialMap(2, 2, {key: 1.0})
