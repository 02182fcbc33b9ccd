"""Drivers for iterated steps, each reading the success branch from one
loop: deterministic orbits (RunReport), the copy-consuming Monte-Carlo
branching process (MonteCarloReport), the Euler integrator, and perturbation
studies with the closed-form accumulated-error bound (NoiseReport).

That loop (_SuccessBranch) steps on arrays and checks in blocks.  A step
computes only what the next step reads: B w0 for w0 = x^(x)d, multiplied
out from x at the sorted digits of B's multisets, the probability with its
floor check, and the phase-aligned posterior, written into preallocated
rows; it builds no JointState or AmplitudeState, and no w0.  Every other
check of every step (product and joint norm, posterior norm, probability
range, decode's anchor) runs on stacks of a block of steps (block_length),
as the single-value check on the whole stack (nonlin_step._raise_first),
and a failing check is raised when its block is checked, at the latest at
the end of the run, as "step j: " and the check's message, naming the
earliest failing step.  A real map from a real state, as the CLI's
Orszag-McLaughlin and Lorenz runs are, steps and checks in float64, with
outputs bit for bit those of complex arithmetic.  Decoding, norm factors
and image norms are array operations over the whole run.  Measured per step
as the median of 15 rounds' best runs (2-vCPU x86-64 VM, one BLAS thread,
in-process), real OM orbits take 6.1-6.3 us at n = 5 and 15-16 us at n =
120, 0.7 oracle calls each, 0.10 ms at n = 1000 and 0.30-0.31 ms at n = 2000
(7 rounds), and the complex degree-3 NLS orbit on a 14-vertex cycle 12 us.

A noise study steps its perturbed trials (nonlin_step._perturbed_trials)
on stacks sized by block_length too, through that loop's step body
(nonlin_step._step_rows), so at eta = 0 every delta is exactly 0.  The checks a single-state step runs,
the error recurrence and the closed-form bound run on the stack's arrays
after its last step, and the same selector raises the error a
trial-by-trial loop would meet first.  A 5-trial, 3-step study at 2D = 338
(nnz(B) 65, one stack) takes 0.61-0.62 ms in the median of 15 rounds'
minima.

The branching process is simulated on copy counts, not on stored copies: all
surviving copies in a round are identical states, failures are discarded, and
per-pair successes are i.i.d., so one binomial draw per round reproduces the
count dynamics exactly while memory stays O(state).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._util import ParameterError, as_rng, csv_rows, float_strings, rng_stream
from .polysys import OdeSystem, check_ode_measure_preserving, euler_map
from .nonlin_step import (PROBABILITY_FLOOR, StepOperator, _bins, _check_epsilon,
                          _check_floor, _check_probability, _correction,
                          _perturbed_trials, _raise_first, _step_rows,
                          image_norms, make_step_operator, norm_factors)
from .qstate import (AmplitudeState, _check_joint_norm, _check_state_norm, _rowdot,
                     decode, encode)

# numpy's binomial sampler needs the trial count in int64 range.
MAX_SIMULABLE_COPIES = 2 ** 62

# plan_resources refuses copy counts past 10^MAX_PLAN_DIGITS: their exact
# powers take seconds to minutes, and str() refuses integers of over 4300
# digits.
MAX_PLAN_DIGITS = 4250


@dataclass(frozen=True)
class ResourcePlan:
    """Initial copy count and thresholds for the branching process.

    n0 = ceil((base / p)^m) with p = epsilon^2 / 2 the per-pair success
    probability; computed in exact rational arithmetic, so the big integer is
    always available (float_exact flags when it also fits a float exactly).
    Alternative counts from the other stated forms are reported alongside:
    n0_proof = ceil((8/p)^m) and n0_algorithm = ceil((gamma/p)^m) with
    gamma = 2 sqrt(2) / epsilon.
    """

    m: int
    epsilon: float
    p: float
    lam: float
    base: float
    n0: int
    log10_n0: float
    n0_proof: int
    n0_algorithm: int
    gamma: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ParameterError("epsilon", f"need 0 < p ({self.p}) < 1")
        if not 0 < self.lam < self.p:
            raise ParameterError("lam", f"need 0 < lambda ({self.lam}) < p ({self.p})")
        if self.n0 < 2 ** self.m:
            raise ParameterError("base", f"n0 = 10^{self.log10_n0:.2f} below 2^m "
                                         f"= 10^{self.m * math.log10(2):.2f}")

    @property
    def float_exact(self) -> bool:
        return self.n0 <= 2 ** 53


def plan_resources(m: int, epsilon: float, base: float = 16.0,
                   lam: float | None = None) -> ResourcePlan:
    """The plan for m rounds at epsilon; refuses m whose largest copy count
    would pass 10^MAX_PLAN_DIGITS, before any exact power is taken."""
    if not m >= 1:
        raise ParameterError("m", "m must be >= 1")
    if not epsilon > 0:
        raise ParameterError("epsilon", "epsilon must be positive")
    if not 0 < base < math.inf:
        raise ParameterError("base", "base must be positive and finite")
    p = epsilon * epsilon / 2.0
    if not 0 < p < 1:
        raise ParameterError("epsilon", f"p = epsilon^2/2 = {p} must lie in (0, 1)")
    if lam is None:
        lam = p / 2.0
    p_exact = Fraction(epsilon) ** 2 / 2
    gamma = 2.0 * math.sqrt(2.0) / epsilon
    # An int m too large for a float still compares with a float.
    if m > MAX_PLAN_DIGITS / (math.log10(max(base, 8.0, gamma)) - math.log10(p)):
        raise ParameterError(
            "m", f"m = {m} gives copy counts past 10^{MAX_PLAN_DIGITS}")

    def count(numerator) -> int:
        return math.ceil((Fraction(numerator) / p_exact) ** m)

    return ResourcePlan(
        m=m, epsilon=float(epsilon), p=p, lam=float(lam), base=float(base),
        n0=count(base), log10_n0=m * math.log10(base / p),
        n0_proof=count(8), n0_algorithm=count(gamma), gamma=gamma,
    )


@dataclass(frozen=True, kw_only=True)
class RunReport:
    """Trajectory and per-step statistics, which every run reports.

    iterates[j], row j of one array, is the decoded coordinate vector after
    j steps (iterates[0] is the initial condition); because decoding divides
    by the anchor amplitude, these are the exact unnormalized coordinates of
    the orbit.
    integrate alone sets times; mode is fixed by the type, gamma by epsilon.
    """

    mode = "deterministic"

    success: bool
    m: int
    epsilon: float
    iterates: np.ndarray
    probabilities: list[float]
    norm_factors: list[float]
    image_norms: list[float]
    meta: dict = field(default_factory=dict)
    times: list[float] | None = None

    @property
    def gamma(self) -> float:
        return 2.0 * math.sqrt(2.0) / self.epsilon

    @cached_property
    def formatted(self) -> dict[str, list[str]]:
        """The repr() of each float of the run's arrays, formatted once for
        both report files: iterates (re, im, re, im, ... row by row), times
        if set, probabilities, norm_factors and image_norms."""
        out = {"iterates": float_strings(
            np.ascontiguousarray(self.iterates, complex).view(float))}
        for name in ("times", "probabilities", "norm_factors", "image_norms"):
            if (values := getattr(self, name)) is not None:
                out[name] = float_strings(values)
        return out


@dataclass(frozen=True, kw_only=True)
class MonteCarloReport(RunReport):
    """A branching-process run; failure_round is None if it succeeded."""

    mode = "montecarlo"

    copy_counts: list[int]
    successes: list[int]
    flagged_rounds: list[int]
    failure_round: int | None

    def __post_init__(self):
        for a, b in zip(self.copy_counts, self.copy_counts[1:]):
            if b > a // 2:
                raise ValueError("copy counts must at least halve per round")


@dataclass(frozen=True, kw_only=True)
class NoiseReport(RunReport):
    """A noise study: each trial's per-step errors at eta, and their bound."""

    mode = "noise_study"

    eta: float
    delta_steps: list[list[float]]
    delta_final: list[float]
    delta_bound: float

    def __post_init__(self):
        if any(d > self.delta_bound * (1 + 1e-9) + 1e-15 for d in self.delta_final):
            raise ValueError("observed error exceeds the accumulated-error bound")


# Swept in-process on real orbits (OM's Euler map from a real z0; 2-vCPU
# x86-64 VM, one BLAS thread), as the median over interleaved rounds of a
# run's best time per step.  OM n = 120 (50 steps) reads 20 us at 4096
# terms (16 rows), 18 at 8192 (22 rows), 17.5 at a floor of 32 (32 rows),
# and 18-20 at 16384 and 32768 terms (45 and 90 rows).  At 8192 terms and
# 64 steps, OM n = 500 reads 124 us with no floor (5 rows), 99 at a floor
# of 8, 86 at 16, 77 at 32 and 75 at 64; n = 1000 0.47 ms (2 rows), 0.22,
# 0.17, 0.155, 0.147; n = 2000 1.53 ms (1 row), 0.55, 0.40, 0.31, 0.31.  A
# run's traced peak is 0.57 MB at OM n = 120 and 0.50 MB at NLS 14 (a
# complex orbit, whose 58-row blocks the floor does not reach); at n =
# 2000 it is 5.6 MB with no floor, 6.5 at 16, 7.5 at 32 and 11.3 at 64.
# The floor is capped at BLOCK_FLOOR * BLOCK_TERMS terms a block, 4 MB of
# complex weights: at 32 rows the dense Gram of a 300 x 300 unitary (nnz
# 9e4) would stack 46 MB of them.  A noise study's stack of trials at the
# floor took 2-4 times less a trial-step than BLOCK_TERMS // nnz(B) trials
# at OM n = 500-2000 (32-trial studies, B stored on ordered columns).
BLOCK_TERMS = 8192
BLOCK_FLOOR = 32


def block_length(terms: int, limit: int) -> int:
    """Rows of a stack of rows of `terms` complex terms, at most limit:
    BLOCK_TERMS // terms, but at least BLOCK_FLOOR, so that the product with
    g(G) runs matrix-matrix at large n, as long as the stack holds at most
    BLOCK_FLOOR * BLOCK_TERMS terms: a dense Gram gets fewer rows, down to
    one.  A check stacks max(n+1, nnz(G)) terms, a trial max(nnz(B), nnz(G)),
    where nnz(B) counts B's triplets, one per (row, multiset), not its
    ordered columns."""
    floor = min(BLOCK_FLOOR, BLOCK_FLOOR * BLOCK_TERMS // terms)
    return min(limit, max(1, floor, BLOCK_TERMS // terms))


class _SuccessBranch:
    """The success branch from one encoded state, stepped on arrays.

    step() takes only what the next step reads, through the step body it
    shares with a noise study's trials (nonlin_step._step_rows): B w0 for
    w0 = x^(x)d, into the block's buffer for the joint-norm check; eps B
    w0; its squared norm (the probability, refused below the floor, where
    the step writes no posterior); and the phase-aligned posterior, written
    in place into the next row of `states`.

    Every other check of every step runs on stacks of a block of steps
    (_check): when a block is full and another step is asked for, on the
    last partial block in finish(), and before an error that step() meets
    propagates; a refusal is replayed step by step (_raise_first), so the
    earliest failing step is the one reported, after "step j: ".  finish()
    writes z0 itself as the first iterate.

    A real operator (A.real_weights) stepped from a real state holds
    `states`, B w0 and the check stacks in float64 and finish() decodes a
    complex copy; its outputs are bit for bit those of the complex loop,
    whose imaginary parts stay exact zeros (the norm of a complex buffer's
    real parts, and the posterior's products), and its check values differ
    from the complex ones in the last bits.
    """

    def __init__(self, op: StepOperator, state: AmplitudeState, m: int):
        A = op.A
        self.op = op
        # a real map from a real state steps in float64
        real = (A.real_weights is not None and not state.amps.imag.any()
                and op.g_gram.dtype == op.gram_vals.dtype == np.float64)
        dtype = np.float64 if real else complex
        try:  # numpy refuses an orbit past memory before allocating it
            self.states, self.probabilities = np.empty((m + 1, A.n + 1), dtype), np.empty(m)
        except (MemoryError, ValueError):
            raise ParameterError(
                "m", f"an orbit of m = {m} steps does not fit in memory") from None
        self.states[0] = state.amps.real if real else state.amps
        self.block = block_length(max(A.n + 1, op.gram_vals.shape[0]), m)
        self.Bw0 = np.empty((self.block, A.n + 1), dtype=dtype)
        # eps B w0's one buffer, whose real parts a real orbit writes
        anchor1 = np.empty(A.n + 1, dtype=complex)
        self.anchor1 = anchor1.real if real else anchor1
        # _step_rows's parts (a tuple of digits indexes faster), a block's Gram bins
        self.parts = (tuple(A.term_digits), A.real_weights if real else A.weights,
                      _bins(A.rows, A.n + 1, real=real), op.epsilon)
        self.gram_bins = _bins(op.gram_rows, A.n + 1, self.block, real)
        self.taken = self.checked = 0

    def step(self) -> float:
        """Take the next step; returns its probability."""
        j, states = self.taken, self.states
        i = j - self.checked
        if i == self.block:
            self._check(j)
            i = 0
        try:
            self.Bw0[i], p = _step_rows(states[j], self.parts, self.anchor1, states[j + 1])
        except Exception:
            self._check(j)
            raise
        self.probabilities[j] = p
        if not p >= PROBABILITY_FLOOR:  # refused after the checks it follows
            self._check(j, failing=True)
            _raise_first([(_check_floor, p)], [(f"step {j + 1}: ", 0, None)])
        self.taken = j + 1
        return p

    def _check(self, stop: int, failing: bool = False, kept: int | None = None):
        """Run the checks of steps checked+1 .. stop on stacks, and raise the
        earliest step's refusal after "step j: "; if failing, also the checks
        that step stop+1 ran before its floor.  The anchors are checked on the
        posteriors up to step kept (default stop), the ones the run decodes."""
        start, op = self.checked, self.op
        self.checked = stop
        rows = stop - start + failing
        Bw0 = self.Bw0[:rows]
        # the inputs are states[start:start + rows] and the posteriors
        # states[start + 1:stop + 1]: one row-dot gives both their norms
        states = self.states[start:stop + 1]
        norm2 = _rowdot(states, states)
        product = norm2[:rows] ** op.degree
        probs = self.probabilities[start:start + rows]
        joint = op.joint_mass(product, Bw0, _correction(op, Bw0), probs, self.gram_bins)
        # decode of the anchors alone checks them alone
        anchors = states[1:(stop if kept is None else kept) - start + 1, :1]
        checks = [  # step start+i+1 at i, in the order a step runs them
            (_check_joint_norm, product), (_check_joint_norm, joint),
            (_check_state_norm, norm2[1:]), (_check_probability, probs[:stop - start]),
            (decode, anchors)]
        _raise_first(checks, ((f"step {start + i + 1}: ", c, i) for i in range(rows)
                              for c, (_, v) in enumerate(checks) if i < len(v)))

    def finish(self, kept: int, z0: np.ndarray) -> dict:
        """Check the steps not yet checked and return the run's report
        fields: the iterates, z0 and the next kept states decoded, and each
        step's probability, norm factor and image norm."""
        self._check(self.taken, kept=kept)
        probs = self.probabilities[:self.taken]
        nfs = norm_factors(probs, self.op.degree, self.op.epsilon)
        iterates = decode(self.states[:kept + 1])
        iterates[0] = z0
        return {"iterates": iterates, "probabilities": probs.tolist(),
                "norm_factors": nfs.tolist(), "image_norms": image_norms(nfs).tolist()}


def run_deterministic(op: StepOperator, z0: np.ndarray, m: int) -> RunReport:
    """Iterate m exact steps of op, always taking the success branch.

    The decoded iterates reproduce the classical orbit of the map exactly
    (up to roundoff), normalized or not, because decoding is projective.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    branch = _SuccessBranch(op, encode(z0), m)
    for _ in range(m):
        branch.step()
    return RunReport(success=True, m=m, epsilon=op.epsilon,
                     meta=_operator_meta(op), **branch.finish(m, z0))


def _operator_meta(op: StepOperator) -> dict:
    return {"h_norm": op.h_norm, "h_norm_bound": op.h_norm_bound,
            "sparsity": op.A.sparsity, "a_max": op.A.a_max, "degree": op.degree}


def run_montecarlo(op: StepOperator, z0: np.ndarray, plan: ResourcePlan,
                   rng=None) -> MonteCarloReport:
    """Simulate the branching process on copy counts of op's steps.

    Round j (with countdown index i = m - j + 1): the N/2 available pairs each
    succeed independently with the exact per-pair probability from the step,
    S ~ Binomial(N // 2, p); then N := 2 floor(S / 2).  The run fails when
    S < 2^(i-1) (not enough survivors for the remaining rounds); rounds with
    S below lambda times the pair count are additionally flagged, matching
    the large-deviation failure event with the binomial trial count as the
    reference.  Success requires every round to pass, which leaves at least
    one copy of the final state; no step is taken past a failed round.
    """
    _check_epsilon(op, plan.epsilon)
    rng = as_rng(rng)
    if plan.n0 > MAX_SIMULABLE_COPIES:
        raise ParameterError("m",
            f"n0 = 10^{plan.log10_n0:.2f} exceeds the simulable copy range")
    branch = _SuccessBranch(op, encode(z0), plan.m)
    n = plan.n0
    copy_counts = [n]
    successes, flagged = [], []
    failure_round = None
    for j in range(1, plan.m + 1):
        p = branch.step()
        pairs = n // 2
        s = int(rng.binomial(pairs, p))
        if s < plan.lam * pairs:
            flagged.append(j)
        n = 2 * (s // 2)
        successes.append(s)
        copy_counts.append(n)
        if s < 2 ** (plan.m - j):
            failure_round = j
            break
    # the last round's state is kept if at least one copy of it was produced
    orbit = branch.finish(j if s >= 1 else j - 1, z0)
    return MonteCarloReport(
        success=failure_round is None, m=plan.m, epsilon=op.epsilon,
        copy_counts=copy_counts, successes=successes, flagged_rounds=flagged,
        failure_round=failure_round,
        meta=_operator_meta(op) | {"n0": plan.n0, "lambda": plan.lam,
                                   "plan_base": plan.base}, **orbit,
    )


def integrate(sys: OdeSystem, z0: np.ndarray, t: float, m: int,
              epsilon: float | None = None, mode: str = "deterministic",
              rng=None, plan_base: float = 16.0, lam: float | None = None) -> RunReport:
    """Integrate dz/dt = f(z) to time t with m quantum Euler steps.

    Builds the update map z -> z + (t/m) f(z) and drives it in the requested
    mode.  A non-measure-preserving system is allowed but warned about, since
    the success probability then drifts away from epsilon^2 / 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < t < math.inf:
        raise ValueError("integration time must be positive and finite")
    if mode not in ("deterministic", "montecarlo"):
        raise ValueError(f"unknown mode {mode!r}")
    h = t / m
    # euler_map first: it refuses an overflow that the check only warns of
    op = make_step_operator(euler_map(sys, h), epsilon)
    preserving, residual = check_ode_measure_preserving(sys, samples=50)
    if not preserving:
        warnings.warn(
            f"system is not measure preserving (residual {residual:.3g}); "
            "success probabilities will deviate from epsilon^2/2",
            stacklevel=2)
    if mode == "deterministic":
        report = run_deterministic(op, z0, m)
    else:
        plan = plan_resources(m, op.epsilon, base=plan_base, lam=lam)
        report = run_montecarlo(op, z0, plan, rng=rng)
    return replace(report, times=[j * h for j in range(len(report.iterates))],
                   meta=report.meta | {"t": t, "h": h, "measure_preserving": preserving,
                                       "measure_residual": residual})


def error_bound(eta: float, gamma: float, m: int) -> float:
    """Closed-form bound on the error accumulated over m iterations when each
    step's unitary is simulated to spectral-norm accuracy eta:

        (eta / 3) (((3 gamma)^(m+1) - 1) / (3 gamma - 1) - 1),

    the solution of the per-step recurrence delta_j <= gamma (3 delta_{j-1}
    + eta) from delta_0 = 0.  At 3 gamma = 1 the limit gamma eta m is used.
    """
    if not 0 <= eta < math.inf:
        raise ValueError("eta must be finite and non-negative")
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    x = 3.0 * gamma
    if abs(x - 1.0) < 1e-12:
        return gamma * eta * m
    try:
        return (eta / 3.0) * ((x ** (m + 1) - 1.0) / (x - 1.0) - 1.0)
    except OverflowError:  # past the float range: a vacuous bound
        return math.inf if eta else 0.0


@dataclass(frozen=True)
class NoiseModel:
    """Spectral-norm budget for the per-step unitary perturbation.

    Step j applies V_j = U exp(i eta G_j) to psi_j = x_j^(x)d (x) |0>, with
    G_j = psi_j u^dag + u psi_j^dag + (I - psi_j psi_j^dag - u u^dag) the
    reflection that swaps psi_j with a unit vector u in sector 1, drawn once
    per trial.  u is orthogonal to every psi_j, so G_j^2 = I,
    exp(i eta G_j) psi_j = cos(eta) psi_j + i sin(eta) u exactly, V_j stays
    unitary, and ||U - V_j|| = 2 sin(eta / 2) <= eta, the paper's
    simulation-accuracy hypothesis, for every application.
    """

    eta: float
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.eta < math.inf:
            raise ValueError("eta must be finite and non-negative")


def _trial_rngs(rng, trials: int, stream: int):
    if isinstance(rng, np.random.Generator):
        return rng.spawn(trials)
    seed = 0 if rng is None else int(rng)
    return [rng_stream(seed, stream, k) for k in range(trials)]


def _sector1_direction(n: int, d: int, rng):
    """One trial's unit vector u in sector 1, as (u at the anchors,
    off-anchor register indices, u there): complex Gaussian entries on the
    n+1 anchors and on n+1 distinct other register indices, drawn in O(n)
    at any register dimension."""
    block = (n + 1) ** (d - 1)  # register indices per anchor, anchor first
    ranks = rng.choice((n + 1) * (block - 1), n + 1, replace=False)
    off_cols = ranks // (block - 1) * block + ranks % (block - 1) + 1
    u = rng.standard_normal(2 * (n + 1)) + 1j * rng.standard_normal(2 * (n + 1))
    u /= np.linalg.norm(u)
    return u[:n + 1], off_cols, u[n + 1:]


def noise_study(op: StepOperator, z0: np.ndarray, m: int, epsilon: float | None,
                noise: NoiseModel, trials: int, rng=None) -> NoiseReport:
    """Run ideal and perturbed iterations of op side by side and check the
    error recurrence and its closed-form solution on every trial; epsilon is
    None or op's.

    Each trial draws, from its own generator, one sector-1 direction u
    (NoiseModel) and applies V_j = U exp(i eta G_j), with
    ||U - V_j|| = 2 sin(eta / 2) <= eta, at each of the m steps.  Neither U
    nor G_j is formed: V_j psi_j is a product state with 2(n+1) sector-1
    entries beside it.  Every direction is drawn first, trial by trial;
    then the trials are stepped together, step j of a stack of
    block_length(max(nnz(B), nnz(G)), trials) at a time (nonlin_step.
    _perturbed_trials), in O(nnz d + (n+1)^2) per trial and step, so the
    study runs at any register dimension D = (n+1)^d.  After
    post-selection, registers 2..d are verified collapsed up to the
    O((eta/epsilon)^2) leakage the perturbation induces, then the
    register-1 states are compared: delta_j = distance(ideal_j, noisy_j).
    Violation of either delta_j <= gamma (3 delta_{j-1} + eta) or the
    closed-form bound raises, as does any check of a perturbed step; the
    error is the one the earliest trial meets first.  A trial count whose
    (trials, m) deltas numpy cannot allocate is refused before any draw.

    Meaningful for measure-preserving maps, where the ideal per-step
    success probability is exactly epsilon^2 / 2^(d-1) and gamma = 2 sqrt(2)
    / epsilon matches the normalization amplification of the success branch.
    From degree 5 on the first-order worst case exceeds gamma eta by
    2^((d-4)/2), so gamma is no bound there and such maps are refused.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_epsilon(op, epsilon)
    if op.degree >= 5:
        raise ParameterError("system", f"a noise study needs degree <= 4, got "
                             f"{op.degree}: there the first-order worst case per "
                             "step exceeds gamma eta by 2^((d-4)/2), so gamma = "
                             "2 sqrt(2) / epsilon is no bound")
    eps = op.epsilon
    gamma = 2.0 * math.sqrt(2.0) / eps
    # in logs: (3 gamma)^m passes the float range from m ~ 250 at eps = 0.5
    if noise.eta > 0 and math.log(noise.eta) + m * math.log(3.0 * gamma) >= 0.0:
        warnings.warn(
            "eta (3 gamma)^m >= 1: the accumulated-error bound is vacuous at "
            "this noise level", stacklevel=2)
    collapse_tol = max(1e-10, 100.0 * (noise.eta / eps) ** 2)

    # Ideal backbone, shared by all trials; first, as it refuses a huge m.
    branch = _SuccessBranch(op, encode(z0), m)
    try:  # numpy refuses a study past memory before allocating it
        delta_steps = np.empty((trials, m))
    except (MemoryError, ValueError):
        raise ParameterError("trials", f"a study of {trials} trials of m = {m} "
                             "steps does not fit in memory") from None
    step_bounds = [error_bound(noise.eta, gamma, j) for j in range(1, m + 1)]
    bound_final = step_bounds[-1]
    for _ in range(m):
        branch.step()
    # the perturbed trials step complex states, also from a real orbit
    orbit, ideal = branch.finish(m, z0), branch.states.astype(complex, copy=False)
    del branch  # the trials need none of its block buffers

    directions = [_sector1_direction(op.A.n, op.degree, trial_rng)
                  for trial_rng in _trial_rngs(rng, trials, noise.stream)]
    stack = block_length(max(op.A.nnz, op.gram_vals.shape[0]), trials)
    for start in range(0, trials, stack):
        delta_steps[start:start + stack], _ = _perturbed_trials(
            op, ideal, directions[start:start + stack], noise.eta, collapse_tol,
            gamma, bound_final)

    return NoiseReport(
        success=True, m=m, epsilon=eps, eta=noise.eta, delta_steps=delta_steps.tolist(),
        delta_final=delta_steps[:, -1].tolist(), delta_bound=bound_final,
        meta=_operator_meta(op) | {"trials": trials,
                                   "step_bounds": step_bounds}, **orbit,
    )


# ---------------------------------------------------------------------------
# Serialization: the JSON report and the wide per-step trajectory CSV, both
# written from one formatting of the run's float arrays (RunReport.formatted);
# the doc holds each as a FloatArray, which write_report_json writes as its
# text.  A float's repr() takes about 350-650 ns; at Orszag-McLaughlin n = 5,
# m = 2000 the JSON report holds 28k floats, and the CSV 26k of the same.


@dataclass(frozen=True)
class FloatArray:
    """A float array of a doc from report_to_doc, held as the repr() of
    each float, which write_report_json writes as JSON text (json.dumps
    refuses it).  pairs = n > 0 reads the strings as rows of n [re, im]
    pairs, as the iterates are; pairs = 0 as one flat list."""

    strings: list[str]
    pairs: int = 0

    def json(self) -> str:
        """The array's JSON text, as json.dumps would write it."""
        n = self.pairs
        if n:  # separators after re and im within a row, and between rows
            parts = ["", ", ", "", "], ["] * n
            parts[-1] = "]], [["
            parts *= len(self.strings) // (2 * n)
            parts[0::2] = self.strings
            parts[-1] = "]]]"
            text = "[[[" + "".join(parts)
        else:
            text = "[" + ", ".join(self.strings) + "]"
        return text.replace("nan", "NaN").replace("inf", "Infinity")


def report_to_doc(report: RunReport) -> dict:
    """The report as a dict for write_report_json, without the fields that
    are None; its float arrays are FloatArrays of report.formatted."""
    doc = {"mode": report.mode, "gamma": report.gamma}
    for f in fields(report):
        if (value := getattr(report, f.name)) is not None:
            doc[f.name] = value
    for name, strings in report.formatted.items():
        pairs = np.shape(report.iterates)[1] if name == "iterates" else 0
        doc[name] = FloatArray(strings, pairs)
    return doc


def write_report_json(doc: dict, path) -> None:
    """json.dumps(doc, sort_keys=True) and a newline, written to path, with
    each FloatArray of doc written as its JSON text.

    doc, each dict within it and each list that holds a dict or a list are
    written item by item, a dict's keys in sorted order, and a key that is
    not a string raises TypeError at any depth; a FloatArray appears only as
    an item so written.  Any other value is written by one json.dumps call,
    which runs json's C encoder (json.dump to a file and any indent run the
    Python one).
    """
    parts = [*_json_parts(doc), "\n"]  # a bad doc raises before the file opens
    with open(path, "w") as f:
        f.writelines(parts)


def _json_parts(value):
    """The JSON text of value, in pieces that write_report_json writes."""
    if isinstance(value, FloatArray):
        yield value.json()
    elif isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"report keys must be strings, got {list(value)!r}")
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else '{'}{json.dumps(key)}: "
            yield from _json_parts(value[key])
        yield "}" if value else "{}"
    elif isinstance(value, (list, tuple)) and any(
            isinstance(item, (dict, list, tuple)) for item in value):
        # json.dumps would write a dict's int key as a string
        for i, item in enumerate(value):
            yield ", " if i else "["
            yield from _json_parts(item)
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True)


def write_trajectory_csv(report: RunReport, path) -> None:
    """Per-step rows: step, t, coordinates, probability, norm_factor, then
    n_copies for Monte-Carlo runs and delta columns for noise studies (the
    per-step maximum over trials against the closed-form bound).

    Row j holds iterate j; the per-step cells of row 0 are empty.  A run
    that failed with no survivor has one probability and one copy count
    more than it has rows, and those are not written.
    """
    rows = len(report.iterates)
    strings = report.formatted
    coords = strings["iterates"]
    width = len(coords) // rows  # 2n: re and im of each coordinate
    header = ["step", "t"]
    for j in range(1, width // 2 + 1):
        header += [f"re_z{j}", f"im_z{j}"]
    header += ["probability", "norm_factor"]
    times = strings.get("times") or float_strings(range(rows))
    columns = [list(map(str, range(rows))), times[:rows],
               *(coords[k::width] for k in range(width)),
               [""] + strings["probabilities"][:rows - 1],
               [""] + strings["norm_factors"][:rows - 1]]
    if isinstance(report, MonteCarloReport):
        header.append("n_copies")
        columns.append(list(map(str, report.copy_counts[:rows])))
    elif isinstance(report, NoiseReport):
        header += ["delta_observed", "delta_bound"]
        delta_max = np.max(report.delta_steps, axis=0)
        step_bounds = report.meta.get("step_bounds", [])
        columns += [[""] + float_strings(values)[:rows - 1]
                    for values in (delta_max, step_bounds)]
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n" + csv_rows(columns))
