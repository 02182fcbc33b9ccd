"""An exact-arithmetic referee for the drivers' one-step accuracy.

Every float is a dyadic rational, so fractions.Fraction holds each driver
iterate z_j exactly, and the referee evaluates F(z_j) exactly from the map's
coeffs, complex values as pairs of Fractions.  Each stored multiset's entry
is multiplied out at z_j and added once per ordering of its multi-index,
the orderings listed by itertools.permutations: the referee reads neither
the map's counts nor its operator, which the step and apply_map share.

The bound.  Let u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3).  A
complex product has relative error at most sqrt(2) gamma_2 <= gamma_3, and
a complex sum of k terms added one after another errs by at most
sqrt(2) gamma_(k-1) <= gamma_(2k) times the sum of their moduli.  The
driver steps from its state x, whose decode is z_j, so x_i / x_0 =
z_ji (1 + delta) with |delta| <= u.  For a map of degree d with at most t
terms in a row, coordinate k of z_(j+1) = post_k / post_0 collects:

- d input errors, one per factor x_i of a term;
- the weight perm * v, rounded once, and d complex products: 3d + 1;
- the row's sum of t terms by one bincount: 2t;
- the products with eps, 1 / ||eps B w0|| and the phase (1 + 1 + 3), and
  decode's division by the real anchor (1): 6;
- on the anchor post_0 = eps x_0^d, real: d - 1 products, eps, the
  reciprocal norm and the phase: d + 4.

The scalars are common to every coordinate, so their own errors cancel in
the ratio, and only the roundings above remain.  So |z_(j+1),k - F_k(z_j)|
<= gamma_N S_k with N = 2t + 6d + 11, S_k the sum of the moduli of row
k's terms at z_j, and the one-step error relative to max(1,
||F(z_j)||_inf) is at most gamma_N kappa_j, kappa_j = max_k S_k /
max(1, ||F(z_j)||_inf), the condition number the referee returns.
"""

import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from qeuler import (GraphSpec, apply_map, cli, discrete_nls, euler_map, make_step_operator,
                    random_unitary_map, run_deterministic)
from qeuler.polysys import random_unit
from test_cli import REPORT_RUNS, write_config

U = 2.0 ** -53


def exact(c: complex) -> tuple[Fraction, Fraction]:
    return Fraction(c.real), Fraction(c.imag)


def exact_image(pmap, z) -> tuple[list, list[float]]:
    """(F(z) as exact (re, im) pairs of Fractions, and for each row the sum
    of the moduli of its terms at z, in floats)."""
    zfull = [(Fraction(1), Fraction(0))] + [exact(complex(c)) for c in z]
    image = [(Fraction(0), Fraction(0))] * pmap.n
    moduli = [0.0] * pmap.n
    for (alpha, mono), entry in pmap.coeffs.items():
        re, im = exact(entry)
        for k in mono:
            zr, zi = zfull[k]
            re, im = re * zr - im * zi, re * zi + im * zr
        # the same exact term at every ordering, so summed as one product
        orderings = len(set(permutations(mono)))
        sum_re, sum_im = image[alpha - 1]
        image[alpha - 1] = (sum_re + orderings * re, sum_im + orderings * im)
        moduli[alpha - 1] += orderings * math.hypot(re, im)
    return image, moduli


def one_step_errors(pmap, iterates) -> tuple[np.ndarray, np.ndarray]:
    """(error_j, kappa_j) for each step j: ||z_(j+1) - F(z_j)||_inf /
    max(1, ||F(z_j)||_inf), exact up to the final rounding to float, and
    the condition number of the module docstring."""
    errors, kappas = [], []
    for z, z_next in zip(iterates, iterates[1:]):
        image, moduli = exact_image(pmap, z)
        err2 = max((Fraction(c.real) - re) ** 2 + (Fraction(c.imag) - im) ** 2
                   for c, (re, im) in zip(z_next, image))
        scale2 = max(Fraction(1), *(re * re + im * im for re, im in image))
        errors.append(math.sqrt(err2 / scale2))
        kappas.append(max(moduli) / math.sqrt(scale2))
    return np.array(errors), np.array(kappas)


def gamma_bound(pmap) -> float:
    """gamma_N, N = 2t + 6d + 11, for t the most terms in a row."""
    t = max(1, int(np.bincount(pmap.alphas).max(initial=0)))
    k = 2 * t + 6 * pmap.degree + 11
    return k * U / (1 - k * U)


def golden_run(tmp_path, command, doc):
    """(map, iterates) of a golden file's CLI run, read from its report."""
    out = tmp_path / command
    cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
    run = json.loads((out / "report.json").read_text())["result"]["run"]
    config = cli.parse_config(doc)
    pmap = (euler_map(config.system, doc["run"]["t"] / doc["run"]["m"])
            if config.system_kind == "ode" else config.system)
    return pmap, [np.array([complex(re, im) for re, im in z]) for z in run["iterates"]]


def orbit(pmap, seed, m):
    """The iterates of run_deterministic from a seeded complex unit z0."""
    z0 = random_unit(pmap.n, np.random.default_rng(seed))
    return list(run_deterministic(make_step_operator(pmap), z0, m).iterates)


@pytest.mark.parametrize("command, doc, code, golden", REPORT_RUNS)
def test_golden_runs_are_within_the_derived_bound(tmp_path, command, doc, code, golden):
    pmap, iterates = golden_run(tmp_path, command, doc)
    errors, kappas = one_step_errors(pmap, iterates)
    assert len(errors) == len(iterates) - 1 >= 2
    assert (errors <= gamma_bound(pmap) * kappas).all(), errors / (U * kappas)


@pytest.mark.parametrize("pmap, m", [
    (euler_map(discrete_nls(GraphSpec.cycle(4), 2), 1e-3), 30),
    (random_unitary_map(4, rng=5), 30),
], ids=["nls_degree3", "random_unitary"])
def test_orbits_are_within_the_derived_bound(pmap, m):
    errors, kappas = one_step_errors(pmap, orbit(pmap, 3, m))
    assert (errors <= gamma_bound(pmap) * kappas).all(), errors / (U * kappas)


def test_referee_catches_a_count_that_apply_map_shares():
    # one term's ordering count doubled: the step and apply_map both read
    # it, so the driver agrees with apply_map, and only the referee, which
    # counts orderings itself, sees the wrong map
    pmap = euler_map(discrete_nls(GraphSpec.cycle(4), 2), 1e-3)
    counts = pmap.counts.copy()
    counts[np.flatnonzero(counts > 1)[0]] *= 2
    counts.flags.writeable = False
    object.__setattr__(pmap, "counts", counts)
    iterates = orbit(pmap, 3, 5)
    for z, z_next in zip(iterates, iterates[1:]):
        f = apply_map(pmap, z)
        assert np.abs(z_next - f).max() <= 1e-10 * max(1.0, np.abs(f).max())
    errors, kappas = one_step_errors(pmap, iterates)
    assert (errors > 1e3 * gamma_bound(pmap) * kappas).all()
