"""Resource planning and the copy-consuming branching process.

Each iteration pairs up the surviving copies, converts each pair into one
copy of the next iterate with probability p = eps^2 / 2, and discards
failures, so the copy count at least halves per round.  The plan sizes the
initial supply as (base / p)^m; with the headline base 16 the process then
delivers at least one final copy in well over a third of the runs.
"""

import numpy as np

from qeuler import (make_step_operator, plan_resources, random_unitary_map,
                    rng_stream, run_montecarlo)
from qeuler.polysys import random_unit

epsilon = 0.8          # p = 0.32: the large-epsilon regime
op = make_step_operator(random_unitary_map(2, rng=rng_stream(7)), epsilon)
z0 = random_unit(2, rng_stream(8))

print("resource plans, p = eps^2/2 =", epsilon ** 2 / 2)
print(f"{'m':>2} {'n0 = (16/p)^m':>14} {'(8/p)^m':>10} {'(gamma/p)^m':>12} "
      f"{'log10 n0':>9}")
for m in (1, 2, 3, 6):
    plan = plan_resources(m, epsilon, base=16)
    print(f"{m:2d} {plan.n0:14d} {plan.n0_proof:10d} "
          f"{plan.n0_algorithm:12d} {plan.log10_n0:9.3f}")

print("\none Monte-Carlo run, m = 3 (copy counts at least halve per round):")
plan = plan_resources(3, epsilon, base=16)
rep = run_montecarlo(op, z0, plan, rng=rng_stream(9))
for j, (n, s) in enumerate(zip(rep.copy_counts, rep.successes + [None])):
    line = f"  round {j}: copies = {n}"
    if s is not None:
        line += f", pair successes S = {s}"
    print(line)
print(f"  success: {rep.success}")

print("\nsurvival statistics over 500 runs per m:")
trials = 500
for m in (1, 2, 3):
    plan = plan_resources(m, epsilon, base=16)
    wins = sum(run_montecarlo(op, z0, plan, rng=rng_stream(10, m, k)).success
               for k in range(trials))
    print(f"  m = {m}: initial copies {plan.n0:7d}, "
          f"success fraction {wins / trials:.3f}  (target >= 1/3)")

print("\nundersupplied runs fail fast (base chosen so n0 = 2^m):")
lean = plan_resources(3, np.sqrt(2 * 0.05), base=0.1)
lean_op = make_step_operator(op.pmap, lean.epsilon)
fails = sum(not run_montecarlo(lean_op, z0, lean, rng=rng_stream(11, k)).success
            for k in range(200))
print(f"  n0 = {lean.n0}, p = {lean.p:.3f}: {fails}/200 runs fail")
