"""The benchmark workloads: seeded inputs, the timed set-up, the timed driver
call (one operation), and the checks each call must pass.

Every call into the program goes through a module attribute
(``euler_driver.run_deterministic``, not a name imported from it), so that
the traced run sees it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from qeuler import cli, euler_driver, nonlin_step, polysys, qstate, systems

# A decoded iterate must match apply_map of the previous iterate this closely.
ORACLE_TOL = 1e-10
# Relative tolerance on the exact success probability predicted by the oracle.
PROB_RTOL = 1e-10
# The step map is unitary: | ||joint after step|| - 1 | stays at roundoff.
NORM_TOL = 1e-12
# Forward Euler drifts ||z||^2 by h^2 ||f||^2 per step, so OM probabilities
# sit within this relative distance of eps^2 / 2 at the sizes used here.
OM_PROB_RTOL = 1e-3
# Most problems one failed operation lists.
MAX_PROBLEMS = 5


def joint_norm_deviation(op, z) -> float:
    """| ||apply_step(tensor_power(state))|| - 1 | for the state encoding z."""
    amps = np.concatenate([[1.0 + 0j], np.asarray(z, dtype=complex)])
    state = qstate.AmplitudeState(amps / np.linalg.norm(amps))
    joint = nonlin_step.apply_step(qstate.tensor_power(state, op.degree), op)
    return abs(float(np.linalg.norm(joint.amps)) - 1.0)


def orbit_problems(op, iterates, probabilities, tracer, om: bool) -> list[str]:
    """Oracle, probability and norm checks on a deterministic orbit.

    The probability of the success branch from the state encoding z is
    exactly eps^2 (1 + ||F(z)||^2) / (1 + ||z||^2)^d; for a measure-preserving
    map on a unit z this is eps^2 / 2^(d-1).
    """
    eps, d = op.epsilon, op.degree
    problems = []
    for j, (z, z_next, p) in enumerate(zip(iterates, iterates[1:], probabilities)):
        f = polysys.apply_map(op.pmap, z)
        dev = float(np.abs(z_next - f).max())
        if not dev <= ORACLE_TOL:
            problems.append(f"step {j + 1}: iterate deviates from apply_map by {dev:.3g}")
        predicted = eps ** 2 * (1.0 + np.vdot(f, f).real) / (1.0 + np.vdot(z, z).real) ** d
        if not abs(p - predicted) <= PROB_RTOL * predicted:
            problems.append(f"step {j + 1}: probability {p!r} != predicted {predicted!r}")
        if om and not abs(p / (eps ** 2 / 2) - 1.0) <= OM_PROB_RTOL:
            problems.append(f"step {j + 1}: OM probability {p!r} != eps^2/2")
    m = len(probabilities)
    with tracer.paused():
        for j in sorted({0, m // 2, m - 1}):
            dev = joint_norm_deviation(op, iterates[j])
            if not dev <= NORM_TOL:
                problems.append(f"step {j + 1}: joint norm off by {dev:.3g}")
    return problems[:MAX_PROBLEMS]


def _orbit_bytes(iterates) -> bytes:
    return b"".join(np.asarray(z, dtype=complex).tobytes() for z in iterates)


class Workload:
    """One workload.  Subclasses build their inputs from the seed."""

    name = ""
    setup_reps = 1  # set-ups timed before each driver call
    traced_calls = 2  # least driver calls in each half of a traced run
    # Nominal seconds of one cycle (set-ups, call, checks) on an idle 2-vCPU
    # x86-64 VM.  A run makes --seconds / cycle_s calls, so the operations
    # it attempts are fixed; a slower host makes the run longer, not shorter.
    cycle_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """Generated inputs -> a ready StepOperator (the timed set-up)."""
        raise NotImplementedError

    def call(self, op):
        """One driver call: the timed operation."""
        raise NotImplementedError

    def collect(self, raw):
        """Untimed: turn what call() returned into the result to check."""
        return raw

    def check(self, op, result, tracer) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, result) -> bytes:
        """Bytes that identical runs reproduce exactly."""
        raise NotImplementedError

    def probes(self):
        """Extra counted operations: (name, callable) pairs, untimed."""
        return []

    def computed(self, op, result) -> dict:
        """Per-layer values computed from the outputs, not timed."""
        return {}


class Deterministic(Workload):
    """run_deterministic on the forward-Euler map of an ODE system."""

    om = False

    def __init__(self, seed, workdir, system, z0, t, m):
        super().__init__(seed, workdir)
        self.system, self.z0, self.t, self.m = system, z0, t, m

    def setup(self):
        pmap = polysys.euler_map(self.system, self.t / self.m)
        return nonlin_step.make_step_operator(pmap)

    def call(self, op):
        return euler_driver.run_deterministic(op, self.z0, self.m)

    def check(self, op, report, tracer):
        return orbit_problems(op, report.iterates, report.probabilities,
                              tracer, om=self.om)

    def fingerprint(self, report):
        return _orbit_bytes(report.iterates)


class Om120(Deterministic):
    name = "om120_integrate"
    setup_reps = 1
    traced_calls = 4  # 50 apply_step calls each; p95 needs 200 samples
    om = True
    cycle_s = 0.75
    N, T, M = 120, 0.125, 50

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        super().__init__(seed, workdir, systems.orszag_mclaughlin(self.N),
                         polysys.random_unit(self.N, rng, real=True),
                         self.T, self.M)

    def sizes(self):
        return {"system": "orszag_mclaughlin", "n": self.N, "degree": 2,
                "D": (self.N + 1) ** 2, "m": self.M, "t": self.T}


def nls_system(vertices: int, rng, mass: float):
    """Discrete NLS (k = 2, degree 3) on a cycle with physical data of exactly
    `mass` on every vertex and seeded phases; returns (system, unit y0).

    Equal masses keep the forward-Euler orbit bounded on every seed: its norm
    grows by about (h * mass)^2 per step, and the nonlinear term feeds back.
    """
    z = math.sqrt(mass) * np.exp(2j * math.pi * rng.uniform(size=vertices))
    y0, scale = systems.nls_initial_state(z)
    return systems.discrete_nls(systems.GraphSpec.cycle(vertices), 2,
                                nonlinear_scale=scale), y0


class Nls14(Deterministic):
    name = "nls14_d3"
    setup_reps = 2
    cycle_s = 0.55
    V, PROBE_V, MASS, T, M = 14, 20, 75.0, 0.05, 100

    def __init__(self, seed, workdir):
        system, y0 = nls_system(self.V, np.random.default_rng(seed), self.MASS)
        super().__init__(seed, workdir, system, y0, self.T, self.M)

    def sizes(self):
        return {"system": "discrete_nls", "graph": f"cycle({self.V})", "k": 2,
                "n": 2 * self.V, "degree": 3, "D": (2 * self.V + 1) ** 3,
                "mass_per_vertex": self.MASS, "m": self.M, "t": self.T,
                "probe": {"graph": f"cycle({self.PROBE_V})",
                          "n": 2 * self.PROBE_V,
                          "D": (2 * self.PROBE_V + 1) ** 3}}

    def probes(self):
        # At this mass and h the nonlinear entries lift the 20-vertex
        # operator's lattice modes above row 0 (c h > sqrt 2 with c = 2 mass V),
        # so its top Gram eigenvalues are near-degenerate and operator_norm's
        # power iteration stops at its iteration limit.  At 14 vertices row 0
        # stays on top and the power iteration converges at once.
        def probe():
            system, _ = nls_system(self.PROBE_V, np.random.default_rng(self.seed),
                                   self.MASS)
            nonlin_step.make_step_operator(
                polysys.euler_map(system, self.T / self.M))
        return [(f"make_step_operator cycle({self.PROBE_V})", probe)]


class Om5Cli(Workload):
    """`qeuler integrate` through cli.main, in-process, reports to a temp dir."""

    name = "om5_cli"
    setup_reps = 10
    cycle_s = 0.42
    N, T, M = 5, 0.125, 2000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        doc = {"system": {"name": "orszag_mclaughlin", "n": self.N},
               "run": {"mode": "deterministic", "m": self.M, "t": self.T,
                       "seed": seed},
               "output": {"json": "report.json", "csv": "trajectory.csv"}}
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(doc))
        self.out_dir = workdir / "out"
        self.parsed = cli.parse_config(doc)

    def sizes(self):
        return {"system": "orszag_mclaughlin", "n": self.N, "degree": 2,
                "D": (self.N + 1) ** 2, "m": self.M, "t": self.T,
                "entry": "cli.main integrate"}

    def setup(self):
        pmap = polysys.euler_map(self.parsed.system, self.T / self.M)
        return nonlin_step.make_step_operator(pmap)

    def call(self, op):
        return cli.main(["integrate", "--config", str(self.config_path),
                         "--out", str(self.out_dir)])

    def collect(self, code):
        return (code, (self.out_dir / "report.json").read_bytes(),
                (self.out_dir / "trajectory.csv").read_bytes())

    def check(self, op, result, tracer):
        code, report, _ = result
        if code != 0:
            return [f"cli.main exited {code}"]
        run = json.loads(report)["result"]["run"]
        if run["epsilon"] != op.epsilon:
            return [f"report epsilon {run['epsilon']!r} != set-up {op.epsilon!r}"]
        iterates = [np.array([complex(re, im) for re, im in z])
                    for z in run["iterates"]]
        return orbit_problems(op, iterates, run["probabilities"], tracer, om=True)

    def fingerprint(self, result):
        _, report, trajectory = result
        return report + trajectory

    def computed(self, op, result):
        _, report, trajectory = result
        return {"cli.report.bytes": len(report) + len(trajectory)}


class Noise338(Workload):
    """noise_study on a sparse random unitary map, 2D = 338."""

    name = "noise338"
    setup_reps = 10
    traced_calls = 12  # 18 tensor_power calls each; p95 needs 200 samples
    cycle_s = 0.5
    N, EPS, ETA, M, TRIALS, STREAM = 12, 0.8, 1e-4, 3, 5, 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.pmap = systems.random_unitary_map(self.N, rng=rng)
        self.z0 = polysys.random_unit(self.N, rng)

    def sizes(self):
        D = (self.N + 1) ** 2
        return {"system": "random_unitary_map", "n": self.N, "degree": 2,
                "D": D, "joint_dim": 2 * D, "epsilon": self.EPS,
                "eta": self.ETA, "m": self.M, "trials": self.TRIALS}

    def setup(self):
        return nonlin_step.make_step_operator(self.pmap, self.EPS)

    def call(self, op):
        return euler_driver.noise_study(
            op, self.z0, self.M, None,
            euler_driver.NoiseModel(self.ETA, stream=self.STREAM),
            self.TRIALS, rng=self.seed)

    def check(self, op, report, tracer):
        problems = orbit_problems(op, report.iterates, report.probabilities,
                                  tracer, om=False)
        bounds = report.meta["step_bounds"]
        if len(report.delta_steps) != self.TRIALS:
            problems.append(f"{len(report.delta_steps)} trials, expected {self.TRIALS}")
        for k, deltas in enumerate(report.delta_steps):
            for j, (delta, bound) in enumerate(zip(deltas, bounds)):
                if not delta <= bound:
                    problems.append(f"trial {k} step {j + 1}: delta {delta!r} > bound {bound!r}")
        for delta in report.delta_final:
            if not delta <= report.delta_bound:
                problems.append(f"final delta {delta!r} > bound {report.delta_bound!r}")
        return problems[:MAX_PROBLEMS]

    def fingerprint(self, report):
        deltas = np.asarray(report.delta_steps, dtype=float).tobytes()
        return _orbit_bytes(report.iterates) + deltas

    def computed(self, op, report):
        bounds = report.meta["step_bounds"]
        return {"euler_driver.noise_study.tightness": max(
            delta / bound for deltas in report.delta_steps
            for delta, bound in zip(deltas, bounds))}


WORKLOADS = {w.name: w for w in (Om120, Om5Cli, Nls14, Noise338)}
