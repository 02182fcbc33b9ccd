"""One nonlinear amplitude update, end to end, on the circle-doubling map.

The map z -> z^2 on |z| = 1 is the smallest genuinely nonlinear
measure-preserving example: two copies of the encoded state are consumed,
the ancilla is measured, and conditioning on "1" leaves the encoding of the
squared coordinate.  Every quantity is checked against direct arithmetic.
"""

import cmath
import math

import numpy as np

from qeuler import (apply_map, apply_step, encode, make_step_operator, power_map,
                    run_deterministic, tensor_power)

theta = math.pi / 5
z = np.array([cmath.exp(1j * theta)])
pmap = power_map(2)

op = make_step_operator(pmap)
print(f"transfer operator     nnz = {op.A.nnz}, ||H|| = {op.h_norm:.6f}, "
      f"bound s*a_max = {op.h_norm_bound:.1f}")
print(f"step parameter        epsilon = {op.epsilon:.4f} "
      f"(default 0.9 / bound, inside eps ||H|| <= 1)")

print(f"\ninput coordinate      z = e^(i pi/5) = {z[0]:.6f}")
state = encode(z)
print(f"encoded state         amps = {np.round(state.amps, 6)}")

joint = tensor_power(state, 2)
print(f"two copies + ancilla  dim = {2 * joint.register_dim}  "
      f"(ancilla-0 sector carries the product amplitudes)")

stepped = apply_step(joint, op)
# the stepped vector's two halves: ancilla 0, then ancilla 1
sector0, sector1 = np.split(stepped.amps, 2)
print(f"\nafter the exact step  ancilla-1 mass = {np.vdot(sector1, sector1).real:.10f}")
print(f"                      eps^2 / 2       = {op.epsilon ** 2 / 2:.10f}")

# one driver step: post-select on '1' and decode the posterior
report = run_deterministic(op, z, 1)
probability = report.probabilities[0]
print(f"\npost-select on '1'    probability  = {probability:.10f}")
print(f"                      norm_factor  = {report.norm_factors[0]:.10f} "
      f"(1 exactly: the map is measure preserving)")

decoded = report.iterates[1]
expected = apply_map(pmap, z)
print(f"\nposterior decodes to  {decoded[0]:.6f}")
print(f"classical oracle      {expected[0]:.6f}")
print(f"phase doubled:        {cmath.phase(decoded[0]) / theta:.6f} x theta")
print(f"agreement             {abs(decoded[0] - expected[0]):.2e}")

# the discarded branch
failed = np.vdot(sector0, sector0).real
print(f"\ndiscarded branch      probability = {failed:.10f} "
      f"(sums to 1: {probability + failed:.12f})")
