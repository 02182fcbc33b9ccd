"""Reading information out of an encoded iterate.

Any Hermitian matrix on the (n+1)-dimensional encoded space is measurable;
repeated projective measurement estimates its expectation to additive error
delta with confidence 1 - alpha after a Hoeffding shot budget.  The Fourier
sums of the coordinates come either classically from the decoded vector or
as expectations of rank-one mode projectors.
"""

import numpy as np

from qeuler import (coordinate_expectation, decode, encode, expectation,
                    fourier_mode, fourier_spectrum, hoeffding_shots,
                    identity_observable, make_step_operator, projector,
                    random_unitary_map, rng_stream, run_deterministic,
                    sample_expectation)
from qeuler.polysys import random_unit

n = 6
op = make_step_operator(random_unitary_map(n, rng=rng_stream(51)), 0.5)
z0 = random_unit(n, rng_stream(52))
report = run_deterministic(op, z0, m=4)
z = report.iterates[-1]
state = encode(z / np.linalg.norm(z))

print("expectations on the 4th iterate:")
print(f"  identity: {expectation(state, identity_observable(n)):.12f}")
for j in (1, 3):
    ob = projector(n, j)
    print(f"  |{j}><{j}|: state expectation {expectation(state, ob):.6f} "
          f"= |z_{j}|^2/2 = {abs(z[j - 1]) ** 2 / 2:.6f}; "
          f"coordinate convention (2x): "
          f"{coordinate_expectation(state, ob):.6f}")

print("\nshot budgets ceil(||M||^2 ln(2/alpha) / (2 delta^2)):")
for delta, alpha in ((0.05, 0.05), (0.05, 0.2), (0.1, 0.05)):
    print(f"  delta = {delta}, alpha = {alpha}: "
          f"{hoeffding_shots(1.0, delta, alpha)} shots")

ob = projector(n, 1)
truth = expectation(state, ob)
print(f"\nsampled estimates of <|1><1|> (truth {truth:.6f}):")
for k in range(5):
    est, shots = sample_expectation(state, ob, 0.05, 0.05, rng_stream(53, k))
    print(f"  run {k}: {est:.6f}  ({shots} shots, error {abs(est - truth):.4f})")

print("\nFourier sums of the decoded coordinates:")
s = fourier_spectrum(decode(state))
for k in range(1, n + 1):
    via_obs = expectation(state, fourier_mode(n, k))
    print(f"  S_{k} = {s[k - 1]: .6f}  |S_{k}|^2/2 = {abs(s[k - 1]) ** 2 / 2:.6f} "
          f"= mode-projector expectation {via_obs:.6f}")
print(f"Parseval: sum |S_k|^2 = {np.linalg.norm(s) ** 2:.12f} "
      f"= sum |z_j|^2 = {np.linalg.norm(decode(state)) ** 2:.12f}")
