"""Perturbed-step error accumulation against the closed-form budget.

Replacing the exact step unitary U by V_j = U exp(i eta G_j) models
simulating step j to spectral accuracy eta.  G_j is the reflection that
swaps the step's product state psi_j = x_j^(x)d (x) |0> with a random unit
vector u in the ancilla-1 sector, drawn once per trial.  u is orthogonal to
psi_j, so exp(i eta G_j) psi_j = cos(eta) psi_j + i sin(eta) u exactly and
||U - V_j|| = 2 sin(eta / 2) <= eta.  The perturbed state stays a product
with 2(n+1) sector-1 entries beside it, and V_j is applied without forming
U or G_j.  The deviation of the noisy orbit from the ideal one obeys
delta_j <= gamma (3 delta_{j-1} + eta) with gamma = 2 sqrt(2) / eps, whose
solution is the closed-form bound.  After one step the observed error comes
within a factor of 3 of it; after that the bound explodes like (3 gamma)^m
while the observed errors grow slowly.
"""

import math
import warnings

from qeuler import (NoiseModel, error_bound, noise_study, random_unitary_map,
                    rng_stream)
from qeuler.polysys import random_unit

# large eta * m cells trip the vacuous-bound advisory on purpose: the point
# of the table is to watch the bound blow up while observations stay small
warnings.filterwarnings("ignore", message=".*vacuous.*")

epsilon = 0.8
pmap = random_unitary_map(2, rng=rng_stream(31))
z0 = random_unit(2, rng_stream(32))
gamma = 2 * math.sqrt(2) / epsilon
print(f"epsilon = {epsilon}, gamma = 2 sqrt(2)/eps = {gamma:.4f}, "
      f"3 gamma = {3 * gamma:.4f}")

for eta in (1e-6, 1e-4):
    print(f"\neta = {eta:g} (100 trials per m)")
    print(f"{'m':>2} {'max observed delta_m':>21} {'closed-form bound':>18} "
          f"{'margin':>8}")
    for m in range(1, 6):
        rep = noise_study(pmap, z0, m=m, epsilon=epsilon,
                          noise=NoiseModel(eta), trials=100,
                          rng=rng_stream(33, m))
        worst = max(rep.delta_final)
        print(f"{m:2d} {worst:21.3e} {rep.delta_bound:18.3e} "
              f"{rep.delta_bound / worst:8.1f}x")

print("\nper-step growth in one trial (eta = 1e-4, m = 5):")
rep = noise_study(pmap, z0, m=5, epsilon=epsilon, noise=NoiseModel(1e-4),
                  trials=1, rng=rng_stream(34))
prev = 0.0
for j, d in enumerate(rep.delta_steps[0], start=1):
    allowed = gamma * (3 * prev + 1e-4)
    print(f"  step {j}: delta = {d:.3e}  <=  gamma(3 delta + eta) = {allowed:.3e}")
    prev = d

print("\nthe closed form solves the recurrence exactly:")
delta = 0.0
for m in range(1, 4):
    delta = gamma * (3 * delta + 1e-4)
    print(f"  m = {m}: unrolled {delta:.6e}  closed form "
          f"{error_bound(1e-4, gamma, m):.6e}")
