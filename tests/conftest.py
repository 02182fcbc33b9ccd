"""Shared builders and independent oracles for the test suite."""

import json
import math
from collections import Counter
from dataclasses import fields
from functools import reduce
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from qeuler import (AmplitudeState, MonteCarloReport, NoiseReport, PolynomialMap,
                    decode, encode, rng_stream)
from qeuler._util import complex_pairs
from qeuler.nonlin_step import (_check_floor, _check_probability, _correction,
                                image_norms, norm_factors)
from qeuler.qstate import _check_joint_norm, _vector_of, product_at, vector_norm
from qeuler.polysys import MIN_NORMAL, Terms, _as_int


def brute_force_apply(pmap: PolynomialMap, z) -> np.ndarray:
    """Independent evaluator: walk the coefficient dict and enumerate every
    ordering of every multi-index explicitly.  Deliberately not vectorized so
    it shares no code path with the library evaluation."""
    zfull = [1.0 + 0j] + [complex(c) for c in z]
    out = [0j] * pmap.n
    for (alpha, mono), entry in pmap.coeffs.items():
        for perm in set(permutations(mono)):
            term = entry
            for k in perm:
                term *= zfull[k]
            out[alpha - 1] += term
    return np.array(out)


@st.composite
def sparse_maps(draw, max_n=5, degrees=(2, 3), real=False):
    """Random PolynomialMap of a degree in degrees (2 or 3 by default) on
    n <= max_n variables, with up to 12 entries of real and imaginary parts
    in [-2, 2]; with real=True every imaginary part is zero."""
    n = draw(st.integers(1, max_n))
    d = draw(st.sampled_from(degrees))
    part = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    entry = st.tuples(st.integers(1, n),
                      st.lists(st.integers(0, n), min_size=d, max_size=d),
                      part, st.just(0.0) if real else part)
    coeffs = {(alpha, tuple(sorted(mono))): complex(re, im)
              for alpha, mono, re, im in draw(st.lists(entry, max_size=12))}
    return PolynomialMap(n, d, coeffs)


@st.composite
def large_sparse_maps(draw, real=None):
    """Random PolynomialMap where the drivers' block rule switches: n + 1 >
    BLOCK_TERMS // BLOCK_FLOOR = 256, so a block of checks holds the floor
    of 32 rows, and in two draws of three a hub, one monomial on 91 or 200
    rows, whose block of the Gram passes BLOCK_TERMS nonzeros, so the byte
    cap cuts the block.  Degree 2 or 3, real or complex (or as real
    says), up to 10^4 terms in all: the identity plus noise, whose parts lie
    in [-1e-2, 1e-2], as the linear part, so long orbits stay decodable,
    and noise alone on the others.  The terms come from a generator seeded
    by the draw: 10^4 drawn entries would overrun hypothesis's buffer."""
    n = draw(st.integers(256, 400))
    d = draw(st.sampled_from((2, 3)))
    real = draw(st.booleans()) if real is None else real
    hub = draw(st.sampled_from((0, 91, 200)))
    count = draw(st.integers(0, 10 ** 4 - n - hub))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def noise(size):
        part = rng.uniform(-1e-2, 1e-2, size)
        return part if real else part + 1j * rng.uniform(-1e-2, 1e-2, size)

    rows = np.concatenate((np.arange(1, n + 1), rng.choice(n, hub, replace=False) + 1,
                           rng.integers(1, n + 1, count)))
    linear = np.zeros((n, d), dtype=np.intp)
    linear[:, -1] = np.arange(1, n + 1)
    monos = np.concatenate((linear, np.repeat(rng.integers(0, n + 1, (1, d)), hub, axis=0),
                            rng.integers(0, n + 1, (count, d))))
    values = np.concatenate((1.0 + noise(n), noise(hub + count)))
    return PolynomialMap.from_monomials(n, d, Terms(rows, monos, values))


# The dict path that the array canonicaliser replaced, kept as the reference
# for its coefficients, term order and refusals.

def reference_count(mono) -> int:
    """d! / prod r! over the runs of a sorted multi-index, one entry at a
    time, in Python integers."""
    count, run = 1, 0
    for i, k in enumerate(mono):
        run = run + 1 if i and k == mono[i - 1] else 1
        count = count * (i + 1) // run
    return count


def _reference_key(alpha, index):
    return (_as_int(alpha, "alpha"),
            tuple(sorted(_as_int(k, "index") for k in index)))


def reference_entries(entries, n: int, degree: int) -> dict:
    """{(alpha, sorted multi-index): entry} in insertion order, checked one
    entry at a time: lengths, ranges, duplicates; zeros dropped."""
    out: dict = {}
    items = entries.items() if hasattr(entries, "items") else entries
    for (alpha, index), value in items:
        alpha, mono = _reference_key(alpha, index)
        if len(mono) != degree:
            raise ValueError(
                f"multi-index {index} has length {len(mono)}, expected degree {degree}")
        if alpha < 1 or alpha > n:
            raise ValueError(
                f"row index {alpha} outside 1..{n} (row 0 is the implicit f_0 = 1)")
        if mono[0] < 0 or mono[-1] > n:
            raise ValueError(f"multi-index {index} has entries outside 0..{n}")
        if (alpha, mono) in out:
            raise ValueError(f"duplicate entry for row {alpha}, multi-index {mono}")
        out[alpha, mono] = complex(value)
    return {key: v for key, v in out.items() if v != 0}


def reference_from_monomials(monomials, n: int, degree: int) -> dict:
    """Monomial coefficients summed per key in input order, nonzero sums
    below the normal range refused, divided by the multiplicity."""
    acc: dict = {}
    items = monomials.items() if hasattr(monomials, "items") else monomials
    for (alpha, index), value in items:
        key = _reference_key(alpha, index)
        acc[key] = acc.get(key, 0j) + complex(value)
    entries = {}
    for (alpha, mono), v in acc.items():
        if v == 0:
            continue
        if not abs(v) >= MIN_NORMAL:
            raise ValueError(
                f"coefficient {v!r} of row {alpha}, multi-index {mono} is "
                "below the normal float range")
        entries[alpha, mono] = v / reference_count(mono)
    return reference_entries(entries, n, degree)


def reference_euler_map(coeffs: dict, n: int, degree: int, h: float) -> dict:
    """The Euler map's entries: linear terms first, then h f, summed per key."""
    d = max(2, degree)
    acc = {(j, (0,) * (d - 1) + (j,)): 1 + 0j for j in range(1, n + 1)}
    for (alpha, mono), entry in coeffs.items():
        key = (alpha, (0,) * (d - len(mono)) + mono)
        acc[key] = acc.get(key, 0j) + h * entry * reference_count(mono)
    return reference_entries({key: v / reference_count(key[1]) for key, v in acc.items()},
                             n, d)


def reference_sparsity_stats(coeffs: dict) -> tuple[int, int, float]:
    """(max ordered slots per row, max rows per multi-index, max |entry|),
    one entry at a time."""
    row_slots: Counter = Counter()
    col_rows: Counter = Counter()
    a_obs = 0.0
    for (alpha, mono), v in coeffs.items():
        row_slots[alpha] += reference_count(mono)
        col_rows[mono] += 1
        a_obs = max(a_obs, abs(v))
    return max(row_slots.values(), default=0), max(col_rows.values(), default=0), a_obs


def reference_terms(coeffs: dict, n: int, degree: int) -> SimpleNamespace:
    """The arrays the dict path compiled, in dict order: enough of a map for
    build_A and for the evaluation in SparsePolynomial._evaluate."""
    return SimpleNamespace(
        n=n, degree=degree, alphas=np.array([a for (a, _) in coeffs], dtype=np.intp),
        monos=np.array([m for (_, m) in coeffs], dtype=np.intp).reshape(-1, degree),
        entries=np.array(list(coeffs.values()), dtype=complex),
        counts=np.array([reference_count(m) for (_, m) in coeffs], dtype=float))


def unit_vector(n, seed, real=False):
    rng = rng_stream(seed)
    v = rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n))
    return v.astype(complex) / np.linalg.norm(v)


# The transfer operator with every ordering of each multi-index stored, B's
# full (n+1) x D form: the independent reference for build_A, which keeps
# one triplet per multiset.


def expanded_operator(pmap) -> SimpleNamespace:
    """B with each term's entry at all d! / prod r! orderings of its
    multi-index, one triplet per (row, ordered column), sorted by (row,
    col), and row 0's unit entry at column (0, ..., 0); the orderings come
    from itertools.permutations, and no count is read.  Fields as an
    AnchorOperator's, weights = vals and perm = 1 for every triplet, and
    sparsity and a_max counted on the expanded triplets."""
    n, d = pmap.n, pmap.degree
    D = (n + 1) ** d
    orders = np.array(list(permutations(range(d))), dtype=np.intp)
    strides = (n + 1) ** np.arange(d - 1, -1, -1)
    keys = pmap.alphas[:, None] * D + pmap.monos[:, orders] @ strides
    keys, first = np.unique(np.concatenate(([0], keys.ravel())), return_index=True)
    rows, cols = np.divmod(keys, D)
    # first is 0 for row 0's entry and 1 + t * d! + (ordering) for term t
    vals = np.concatenate(([1.0], pmap.entries))[(first + len(orders) - 1) // len(orders)]
    col_of = np.unique(cols, return_inverse=True)[1].ravel()
    most = max(np.bincount(rows).max(), np.bincount(col_of).max())
    return SimpleNamespace(
        n=n, degree=d, rows=rows, cols=cols, vals=vals, weights=vals,
        perm=np.ones(rows.shape[0]), col_of=col_of,
        term_digits=np.array(np.unravel_index(cols, (n + 1,) * d)),
        register_dim=D, nnz=rows.shape[0], sparsity=2 * int(most),
        a_max=float(np.abs(vals).max()))


# Reference products with an operator, read from its triplets: matvec,
# column_sums and column_products from rows, weights, vals, col_of and
# term_digits, so they serve the library's AnchorOperator and the expanded
# reference alike; the dense forms read every ordered column, so they take
# the expanded reference.

def anchors(n: int, d: int) -> np.ndarray:
    """The register indices alpha (n+1)^(d-1) of the anchors
    |alpha, 0, ..., 0>, alpha = 0..n."""
    return np.arange(n + 1) * (n + 1) ** (d - 1)


def full_triplets(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The expanded A's nonzero entries as (rows, cols, vals) in the full
    D x D indexing, sorted by (row, col)."""
    return anchors(A.n, A.degree)[A.rows], A.cols, A.vals


def to_dense(A) -> np.ndarray:
    """The full D x D matrix of the expanded A, written from its triplets."""
    D = A.register_dim
    dense = np.zeros((D, D), dtype=complex)
    rows, cols, vals = full_triplets(A)
    dense[rows, cols] = vals
    return dense


def dense_gram(A, chunk: int = 4096) -> np.ndarray:
    """B B^dag from dense (n+1) x chunk blocks of the expanded B's nonzero
    columns, one block for K <= chunk columns."""
    K, gram = A.col_of.max() + 1, 0
    for lo in range(0, K, chunk):
        block = np.zeros((A.n + 1, min(chunk, K - lo)), dtype=complex)
        part = (A.col_of >= lo) & (A.col_of < lo + chunk)
        block[A.rows[part], A.col_of[part] - lo] = A.vals[part]
        gram = gram + block @ block.conj().T
    return gram


def matvec(A, w) -> np.ndarray:
    """B u for w = u[A.cols], u read at each triplet's column and the same
    at every ordering of it: the n+1 anchor-row entries of A u, one
    bincount of the real parts of the terms weights * w and one of their
    imaginary parts, each row's terms summed in triplet order."""
    terms = A.weights * w
    out = np.empty(A.n + 1, dtype=complex)
    out.real = np.bincount(A.rows, terms.real, out.shape[0])
    out.imag = np.bincount(A.rows, terms.imag, out.shape[0])
    return out


def column_sums(A, x) -> np.ndarray:
    """B^dag x at the K distinct columns (K-vector indexed as col_of), the
    same at every ordering of one, each column's terms summed in triplet
    order."""
    terms = A.vals.conj() * x[A.rows]
    out = np.empty(A.col_of.max() + 1, dtype=complex)
    out.real = np.bincount(A.col_of, terms.real, out.shape[0])
    out.imag = np.bincount(A.col_of, terms.imag, out.shape[0])
    return out


def column_products(A, x) -> np.ndarray:
    """x^(x)d at the K distinct columns (K-vector indexed as col_of)."""
    out = np.empty(A.col_of.max() + 1, dtype=complex)
    out[A.col_of] = product_at(x, A.term_digits)
    return out


def column_perms(A) -> np.ndarray:
    """The orderings each of the K distinct columns stands for (K-vector
    indexed as col_of)."""
    out = np.empty(A.col_of.max() + 1)
    out[A.col_of] = A.perm
    return out


def rmatvec(A, x) -> np.ndarray:
    """B^dag x for x in C^(n+1), scattered into a zero D-vector, of the
    expanded A."""
    out = np.zeros(A.register_dim, dtype=complex)
    out[A.cols] = column_sums(A, x)[A.col_of]
    return out


def apply(A, u) -> np.ndarray:
    """A u for u in C^D, of the expanded A."""
    out = np.zeros(A.register_dim, dtype=complex)
    out[anchors(A.n, A.degree)] = matvec(A, u[A.cols])
    return out


def apply_adjoint(A, v) -> np.ndarray:
    """A^dag v for v in C^D, of the expanded A."""
    return rmatvec(A, v[anchors(A.n, A.degree)])


# The single-state step on arrays, with its joint-norm checks summed term by
# term: the reference that the drivers' outputs and check messages are
# compared with.

def phase_aligned(vec) -> np.ndarray:
    """vec rotated by a global phase so that its first entry is real
    positive; a copy of vec if that entry is 0."""
    vec = np.asarray(vec, dtype=complex)
    a0 = vec[0]
    return vec.copy() if a0 == 0 else vec * (a0.conjugate() / abs(a0))


def success_branch(anchor1, d: int, epsilon: float) -> SimpleNamespace:
    """The success branch, ancilla = 1, of a stepped joint state whose
    sector 1 holds anchor1 at the anchors and zero elsewhere: its
    probability, the anchor amplitudes normalised and phase-aligned as the
    posterior, its norm factor and image norm.  Checked as a driver step
    checks it: the floor, the posterior's norm, then the probability range."""
    probability = vector_norm(anchor1) ** 2
    _check_floor(probability)
    posterior = AmplitudeState(phase_aligned(anchor1 / vector_norm(anchor1)))
    _check_probability(probability)
    norm_factor = float(norm_factors(probability, d, epsilon))
    return SimpleNamespace(probability=probability, posterior=posterior,
                           norm_factor=norm_factor,
                           image_norm=float(image_norms(norm_factor)))


def postselect(joint, epsilon: float) -> SimpleNamespace:
    """success_branch of a JointState, read from its amplitude vector."""
    return success_branch(joint.amps[joint.register_dim + anchors(joint.n, joint.d)],
                          joint.d, epsilon)


def ideal_step(op, state) -> SimpleNamespace:
    """One step from an encoded state and its success branch.  The joint
    norm is checked before the step, as ||x||^(2d), and after it, as
    ||x||^(2d) + 2 Re <w0, delta> + ||delta||^2 + ||eps B w0||^2, with w0
    = x^(x)d and delta = B^dag g(G) B w0 at B's nonzero columns, each
    multiset's term counted at its perm orderings."""
    A, x, d = op.A, state.amps, op.degree
    product = float(np.vdot(x, x).real ** d)
    _check_joint_norm(product)
    w0 = column_products(A, x)
    Bw0 = matvec(A, w0[A.col_of])
    delta = column_sums(A, _correction(op, Bw0))
    anchor1 = op.epsilon * Bw0
    perm = column_perms(A)
    sector0 = product + (2.0 * np.vdot(w0, perm * delta).real
                         + np.vdot(delta, perm * delta).real)
    _check_joint_norm(sector0 + vector_norm(anchor1) ** 2)
    return success_branch(anchor1, d, op.epsilon)


def chained(op, z0, m):
    """(iterates, probabilities, norm factors, image norms) from m chained
    ideal steps, or the ValueError that step j raised, as (j, message)."""
    state, iterates, probs, nfs, inorms = encode(z0), [z0], [], [], []
    for j in range(1, m + 1):
        try:
            outcome = ideal_step(op, state)
            iterates.append(decode(outcome.posterior))
        except ValueError as exc:
            return j, str(exc)
        state = outcome.posterior
        probs.append(outcome.probability)
        nfs.append(outcome.norm_factor)
        inorms.append(outcome.image_norm)
    return iterates, probs, nfs, inorms


def dense_step_unitary(op):
    """The 2D x 2D step matrix sqrt(I - eps^2 H^2) + i eps H, which the
    library never forms, from the eigendecomposition of the dense
    H = [[0, i A^dag], [-i A, 0]] of the expanded A: it shares no code with
    apply_step."""
    A = to_dense(expanded_operator(op.pmap))
    zero = np.zeros_like(A)
    lam, Q = np.linalg.eigh(np.block([[zero, 1j * A.conj().T], [-1j * A, zero]]))
    el = op.epsilon * lam
    return (Q * (np.sqrt(np.maximum(1.0 - el * el, 0.0)) + 1j * el)) @ Q.conj().T


def dense_product(state, d: int) -> np.ndarray:
    """x^(x)d (x) |0> for the amplitudes x of state, by np.kron."""
    product = reduce(np.kron, [state.amps] * d)
    return np.concatenate([product, np.zeros_like(product)])


def dense_sector1(u, n: int, d: int) -> np.ndarray:
    """The joint vector of a sector-1 direction u = (entries at the anchors,
    off-anchor register indices, entries there)."""
    D = (n + 1) ** d
    out = np.zeros(2 * D, dtype=complex)
    out[D + anchors(n, d)] = u[0]
    out[D + u[1]] = u[2]
    return out


def dense_postselect(amps, n: int, d: int):
    """(probability, posterior) of ancilla outcome 1 on a dense joint
    amplitude vector: the sector-1 mass, and the anchor amplitudes
    normalised and phase-aligned, as postselect returns them."""
    D = (n + 1) ** d
    reg1 = amps[D:][anchors(n, d)]
    posterior = AmplitudeState(phase_aligned(reg1 / np.linalg.norm(reg1)))
    return np.vdot(amps[D:], amps[D:]).real, posterior


def perturbed_step(op, state, eta: float, u):
    """The single-state reference of one noise-study step on arrays: the
    step map applied to exp(i eta G) psi = cos(eta) psi + i sin(eta) u for
    psi = state^(x)d (x) |0> and u = _sector1_direction(...), through the
    operator's public products.  cos(eta) goes into the factor as
    |cos eta|^(1/d), and a negative cos(eta) into sector 1 as a global phase
    of -1, which post-selection drops.  Sector 1's off-anchor entries pass
    the step unchanged.

    Returns (input mass, output mass, probability, off-anchor residual,
    posterior): the joint masses before and after the step, the success
    branch's mass, its share off the anchors, and the anchor amplitudes
    normalised and phase-aligned."""
    A, eps, d = op.A, op.epsilon, op.degree
    c, (u_anchors, _, u_off) = math.cos(eta), u
    s = 1j * math.sin(eta) * math.copysign(1.0, c)
    factor = abs(c) ** (1.0 / d) * state.amps
    w1, off_mass = s * u_anchors, np.vdot(s * u_off, s * u_off).real
    product = np.vdot(factor, factor).real ** d
    mass_in = product + (np.vdot(w1, w1).real + off_mass)
    # w0' = w0 + B^dag (g(G) B w0 - eps w1), w1' = w1 + B B^dag g(G) w1 + eps B w0
    w0 = column_products(A, factor)
    Bw0 = matvec(A, w0[A.col_of])
    delta = column_sums(A, _correction(op, Bw0) - eps * w1)
    gram_term = matvec(A, column_sums(A, _correction(op, w1))[A.col_of])
    anchor1 = w1 + gram_term + eps * Bw0
    probability = np.vdot(anchor1, anchor1).real + off_mass
    perm = column_perms(A)
    mass_out = (product + (2.0 * np.vdot(w0, perm * delta).real
                           + np.vdot(delta, perm * delta).real) + probability)
    posterior = phase_aligned(anchor1 / np.linalg.norm(anchor1))
    return (float(mass_in), float(mass_out), float(probability),
            float(off_mass / probability), posterior)


# The report writers that format each float where they write it, kept as the
# reference for the library's writers, which format each float array once.

def reference_report_to_doc(report) -> dict:
    """The report as a plain JSON-ready dict, without the fields that are
    None."""
    doc = {"mode": report.mode, "gamma": report.gamma}
    for f in fields(report):
        if (value := getattr(report, f.name)) is not None:
            doc[f.name] = value
    doc["iterates"] = complex_pairs(report.iterates)
    return doc


def reference_json(doc) -> str:
    """The text of a JSON report file holding doc."""
    return json.dumps(doc, sort_keys=True) + "\n"


def _reference_float_cells(*columns, rows: int) -> list[str]:
    """rows lines of comma-joined float cells from the first rows entries of
    each argument, a column (1-D) or a block of columns (2-D)."""
    table = np.column_stack([np.asarray(c, float)[:rows] for c in columns])
    return [",".join(map(repr, row)) for row in table.tolist()]


def reference_trajectory_csv(report) -> str:
    """The trajectory CSV text of a report, written row by row."""
    rows = len(report.iterates)
    coords = np.ascontiguousarray(report.iterates, complex).view(float)
    n = coords.shape[1] // 2
    header = ["step", "t"]
    for j in range(1, n + 1):
        header += [f"re_z{j}", f"im_z{j}"]
    header += ["probability", "norm_factor"]
    times = report.times or range(rows)
    columns = [map(str, range(rows)),
               _reference_float_cells(times, coords, rows=rows),
               [","] + _reference_float_cells(report.probabilities, report.norm_factors,
                                              rows=rows - 1)]
    if isinstance(report, MonteCarloReport):
        header.append("n_copies")
        columns.append(map(str, report.copy_counts[:rows]))
    elif isinstance(report, NoiseReport):
        header += ["delta_observed", "delta_bound"]
        delta_max = np.max(report.delta_steps, axis=0)
        step_bounds = report.meta.get("step_bounds", [])
        columns.append([","] + _reference_float_cells(delta_max, step_bounds,
                                                      rows=rows - 1))
    lines = [",".join(header), *map(",".join, zip(*columns, strict=True))]
    return "\n".join(lines) + "\n"


def reference_state_csv(state) -> str:
    """The state dump's text, one f-string per amplitude."""
    lines = ["basis_index,re,im\n"]
    for i, c in enumerate(_vector_of(state)):
        lines.append(f"{i},{float(c.real)!r},{float(c.imag)!r}\n")
    return "".join(lines)


@pytest.fixture
def doubling_map():
    from qeuler import power_map

    return power_map(2)


@pytest.fixture
def swap_map():
    from qeuler import permutation_map

    return permutation_map([2, 1])
