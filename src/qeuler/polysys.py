"""Sparse symmetric polynomial maps over C^n and polynomial ODE systems.

A degree-d map row f_alpha is a symmetric coefficient tensor over multi-indices
(k_1, ..., k_d) with entries in 0..n, under the convention z_0 = 1 so that
lower-degree monomials appear as zero-padded degree-d ones.  Row 0 is the
constant row f_0 = 1 and is kept implicit.

Storage is canonical: arrays of terms, one per sorted multi-index, holding
the tensor value (the per-ordered-tuple coefficient).  Evaluation therefore
multiplies each entry by the number of distinct orderings of its
multi-index; symmetry is structural rather than checked per use.

This module is the classical oracle: everything the quantum-side machinery
produces is checked against direct evaluation of these polynomials.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import InitVar, dataclass, field, fields
from types import MappingProxyType
from typing import ClassVar, NamedTuple

import numpy as np

from ._util import ParameterError, as_rng

# build_A alone refuses degrees past this, as the system: it stores one triplet
# per term at any degree, but its packed keys (n+1)^(d+1) fit int64 only for
# n + 1 <= 2^(63/(d+1)), 128 at d = 8.  An Euler map of any degree evaluates
# classically.
MAX_EULER_DEGREE = 8

# The smallest normal float; from_monomials refuses smaller coefficients.
MIN_NORMAL = float(np.finfo(float).tiny)


def permutation_count(monos):
    """Number of distinct orderings of a sorted multi-index: d! / prod r!
    over the lengths r of its runs of equal entries.  An int for one
    multi-index, an integer array for an array of them, one per row.

    The count is built one position at a time: after i positions it is the
    multinomial i! / prod r! of the runs so far, an integer, so every
    division is exact.
    """
    rows = np.atleast_2d(np.asarray(monos, dtype=np.intp))
    exact = np.int64 if rows.shape[1] <= 20 else object  # 21! overflows int64
    count, run = np.ones(rows.shape[0], dtype=exact), 1
    for i in range(1, rows.shape[1]):
        run = np.where(rows[:, i] == rows[:, i - 1], run + 1, 1).astype(exact, copy=False)
        count = count * (i + 1) // run
    return int(count[0]) if np.ndim(monos) == 1 else count


class Terms(NamedTuple):
    """Terms as arrays with integer keys: rows alphas (k,), multi-indices
    monos (k, degree), values (k,).  The values are tensor entries, or with
    a floor monomial coefficients (see _canonical)."""

    alphas: np.ndarray
    monos: np.ndarray
    values: np.ndarray
    floor: float | None = None


def _as_int(value, name: str) -> int:
    """An integer key or document field: 2, 2.0 or a numpy integer, not 1.5,
    True or "2"."""
    if type(value) is int:
        return value
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    return int(value)


def _terms(pairs, degree: int, where: str = "") -> Terms:
    """Outside input, a mapping or iterable of ((alpha, index), value) pairs,
    as Terms: the one per-entry pass, where _as_int checks each key part of
    pair i, named where.format(i) + "alpha" or "index"."""
    alphas, monos, values = [], [], []
    for i, ((alpha, index), value) in enumerate(
            pairs.items() if hasattr(pairs, "items") else pairs):
        alphas.append(_as_int(alpha, where.format(i) + "alpha"))
        monos.append([_as_int(k, where.format(i) + "index") for k in index])
        if len(monos[-1]) != degree:
            raise ValueError(f"multi-index {tuple(monos[-1])} has length "
                             f"{len(monos[-1])}, expected degree {degree}")
        values.append(complex(value))
    try:
        return Terms(np.array(alphas, dtype=np.intp),
                     np.array(monos, dtype=np.intp).reshape(len(alphas), degree),
                     np.array(values, dtype=complex))
    except OverflowError:
        raise ValueError("row or multi-index entry outside the int64 range") from None


def _first(mask: np.ndarray) -> int:
    """Position of the first True in mask, or -1."""
    hits = mask.nonzero()[0]
    return int(hits[0]) if hits.shape[0] else -1


def _canonical(terms: Terms, n: int, degree: int):
    """(alphas, monos, entries, counts) of terms in canonical form, keys in
    order of first occurrence; counts are the multiplicities, as floats.

    Rows are checked against 1..n (row 0 is the implicit f_0 = 1), sorted
    multi-indices against 0..n.  Tensor entries on one key over-specify the
    symmetric tensor and are refused, even when zero; monomial coefficients
    on one key are summed in input order, checked against the floor and
    divided by the multiplicity part by part, as Python divides a complex
    by an int.  Zero entries are dropped, non-finite ones refused.
    """
    alphas = np.array(terms.alphas, dtype=np.intp)  # copies: the result is frozen
    given = np.asarray(terms.monos, dtype=np.intp).reshape(alphas.shape[0], degree)
    monos = np.sort(given, axis=1)
    if (i := _first((alphas < 1) | (alphas > n))) >= 0:
        raise ValueError(
            f"row index {alphas[i]} outside 1..{n} (row 0 is the implicit f_0 = 1)")
    if (i := _first((monos[:, 0] < 0) | (monos[:, -1] > n))) >= 0:
        raise ValueError(f"multi-index {tuple(given[i].tolist())} has entries outside 0..{n}")
    key, top = alphas, n  # base-(n+1) digits, ranked afresh before int64 overflows
    for digit in monos.T:
        if top * (n + 1) + n >= 2 ** 63:
            key, top = np.unique(key, return_inverse=True)[1], key.shape[0]
        key, top = key * (n + 1) + digit, top * (n + 1) + n
    # a stable sort puts each key's first occurrence first among its equals
    order = key.argsort(kind="stable")
    differs = key[order[1:]] != key[order[:-1]]
    group = np.arange(key.shape[0])
    if not differs.all():  # number the keys by first occurrence
        new = np.concatenate(([True], differs))
        by_first = np.argsort(order[new])
        first = order[new][by_first]
        group[order] = np.argsort(by_first)[np.cumsum(new) - 1]
        if terms.floor is None:
            i = _first(first[group] != np.arange(key.shape[0]))
            raise ValueError(f"duplicate entry for row {alphas[i]}, "
                             f"multi-index {tuple(monos[i].tolist())}")
        alphas, monos = alphas[first], monos[first]
    counts = permutation_count(monos).astype(float)
    values = np.array(terms.values, dtype=complex)
    if terms.floor is not None:
        sums = np.zeros(alphas.shape[0], dtype=complex)
        np.add.at(sums, group, values)
        if (i := _first((sums != 0) & (np.hypot(sums.real, sums.imag) < terms.floor))) >= 0:
            raise ValueError(
                f"coefficient {complex(sums[i])!r} of row {alphas[i]}, multi-index "
                f"{tuple(monos[i].tolist())} is below the normal float range")
        values = (sums.view(float).reshape(-1, 2) / counts[:, None]).ravel().view(complex)
    keep = values != 0
    if not keep.all():
        alphas, monos, values, counts = alphas[keep], monos[keep], values[keep], counts[keep]
    if (i := _first(~np.isfinite(values))) >= 0:
        raise ValueError(f"non-finite entry {complex(values[i])!r} for row {alphas[i]}, "
                         f"multi-index {tuple(monos[i].tolist())}")
    return alphas, monos, values, counts


@dataclass(frozen=True, eq=False)
class SparsePolynomial:
    """Rows f_1..f_n of degree-d polynomials over C^n with z_0 = 1.

    coeffs goes in as a mapping or pairs (alpha, index) -> entry with
    integer keys, or as Terms; it is stored as read-only canonical arrays
    (see _canonical) and reads back as a {(alpha, sorted multi-index):
    entry} view of them, which equality compares.  PolynomialMap and
    OdeSystem differ only in their least degree and their metadata.
    """

    min_degree: ClassVar[int] = 1

    n: int
    degree: int
    coeffs: InitVar[object]
    alphas: np.ndarray = field(init=False, compare=False)
    monos: np.ndarray = field(init=False, compare=False)
    entries: np.ndarray = field(init=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, coeffs):
        if self.n < 1:
            raise ValueError("variable count n must be >= 1")
        if self.degree < self.min_degree:
            raise ValueError(f"degree must be >= {self.min_degree}")
        terms = coeffs if isinstance(coeffs, Terms) else _terms(coeffs, self.degree)
        for name, arr in zip(("alphas", "monos", "entries", "counts"),
                             _canonical(terms, self.n, self.degree)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and self.coeffs == other.coeffs
                and all(getattr(self, f.name) == getattr(other, f.name)
                        for f in fields(self) if f.compare))

    @classmethod
    def from_monomials(cls, n: int, degree: int, monomials, **kw):
        """Build from per-monomial coefficients as written in the polynomial.

        monomials maps (alpha, multi-index) to the coefficient of the monomial
        z^index in f_alpha, as pairs or Terms; repeated keys accumulate in
        input order.  Tensor entries are the monomial coefficients divided by
        the ordering multiplicity m.  A nonzero coefficient below the normal
        float range is refused: its entry would lose its relative precision
        or vanish.  Above it the entry keeps m * 2^-52 relative precision.
        """
        terms = monomials if isinstance(monomials, Terms) else _terms(monomials, degree)
        return cls(n, degree, terms._replace(floor=MIN_NORMAL), **kw)

    def monomial_coefficient(self, alpha: int, index) -> complex:
        """Coefficient of z^index in f_alpha (multiplicity folded back in)."""
        alpha = _as_int(alpha, "alpha")
        mono = tuple(sorted(_as_int(k, "index") for k in index))
        return self.coeffs.get((alpha, mono), 0j) * permutation_count(mono)

    def _evaluate(self, z) -> np.ndarray:
        """(f_1(z), ..., f_n(z)) with the z_0 = 1 padding convention."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n,):
            raise ValueError(f"input has shape {z.shape}, expected ({self.n},)")
        zfull = np.concatenate([[1.0 + 0j], z])
        out = np.zeros(self.n, dtype=complex)
        np.add.at(out, self.alphas - 1,
                  self.counts * self.entries * zfull[self.monos].prod(axis=1))
        return out


# Assigned once the class exists: until then coeffs names the InitVar.
SparsePolynomial.coeffs = property(lambda self: MappingProxyType(dict(zip(
    zip(self.alphas.tolist(), map(tuple, self.monos.tolist())), self.entries.tolist()))),
    doc="Read-only {(alpha, sorted multi-index): entry} view of the terms.")


@dataclass(frozen=True, eq=False)
class PolynomialMap(SparsePolynomial):
    """Sparse degree-d polynomial map z -> (f_1(z), ..., f_n(z)), f_0 = 1,
    of degree >= 2."""

    min_degree: ClassVar[int] = 2


@dataclass(frozen=True, eq=False)
class OdeSystem(SparsePolynomial):
    """Polynomial right-hand side dz_j/dt = f_j(z), j = 1..n, of any degree
    >= 1.  measure_preserving_claimed is metadata; the actual check is
    check_ode_measure_preserving.
    """

    measure_preserving_claimed: bool = False

    @property
    def real_coefficients(self) -> bool:
        return not self.entries.imag.any()

    def rhs(self, z: np.ndarray) -> np.ndarray:
        """Evaluate f(z) with the z_0 = 1 padding convention."""
        return self._evaluate(z)


@dataclass(frozen=True)
class ValidationReport:
    """Observed structural and statistical properties of a map."""

    s_row: int
    s_col: int
    a_max_observed: float
    measure_deviation: float
    lipschitz_estimate: float

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")


def _sparsity_stats(poly: SparsePolynomial) -> tuple[int, int, float]:
    """(max ordered slots per row, max rows per multi-index, max |entry|).

    Rows alpha = 0 excluded; these are the map-level sparsity conditions,
    stated for alpha = 1..n.  Row slots count ordered tuples, i.e. each
    canonical monomial contributes its ordering multiplicity, matching the
    set-of-ordered-indices definition of sparsity.
    """
    slots = np.bincount(poly.alphas, poly.counts)
    col_rows = np.unique(poly.monos, axis=0, return_counts=True)[1]
    # hypot is Python's abs(complex); numpy's complex abs can differ in the last bit
    a_obs = np.hypot(poly.entries.real, poly.entries.imag).max(initial=0.0)
    return int(slots.max(initial=0)), int(col_rows.max(initial=0)), float(a_obs)


def apply_map(pmap: PolynomialMap, z: np.ndarray) -> np.ndarray:
    """Evaluate (f_1(z), ..., f_n(z)) with z_0 = 1.

    This direct evaluation is the classical oracle for every quantum-side
    result in the package.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("input vector has non-finite entries")
    return pmap._evaluate(z)


def random_unit(n: int, rng, real: bool = False) -> np.ndarray:
    """Uniform random unit vector in C^n (or R^n embedded as complex)."""
    v = rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n))
    return v.astype(complex) / np.linalg.norm(v)


def validate(pmap: PolynomialMap, sample_count: int, rng_seed: int = 0,
             real_samples: bool = False) -> ValidationReport:
    """Report observed sparsity, coefficient bound, measure deviation and a
    sampled Lipschitz estimate.

    measure_deviation is max |sum_{alpha>=1} |f_alpha(z)|^2 - 1| over
    sample_count random unit vectors.  The Lipschitz ratio is maximised over
    both independent pairs in the unit ball and close pairs (small random
    perturbations), since the supremum is typically approached locally.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = as_rng(rng_seed)
    s_row, s_col, a_obs = _sparsity_stats(pmap)

    dev = 0.0
    for _ in range(sample_count):
        z = random_unit(pmap.n, rng, real=real_samples)
        dev = max(dev, abs(float(np.linalg.norm(apply_map(pmap, z)) ** 2) - 1.0))

    lam = 0.0
    for _ in range(sample_count):
        x = _random_ball(pmap.n, rng, real_samples)
        y = _random_ball(pmap.n, rng, real_samples)
        lam = max(lam, _ratio(pmap, x, y))
        h = random_unit(pmap.n, rng, real=real_samples) * 1e-6
        lam = max(lam, _ratio(pmap, x * (1 - 1e-6), x * (1 - 1e-6) + h))
    return ValidationReport(s_row, s_col, a_obs, dev, lam)


def _random_ball(n, rng, real):
    dim = n if real else 2 * n
    r = rng.uniform() ** (1.0 / dim)
    return random_unit(n, rng, real=real) * r


def _ratio(pmap, x, y):
    denom = np.linalg.norm(x - y)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(apply_map(pmap, x) - apply_map(pmap, y)) / denom)


def euler_map(sys: OdeSystem, h: float) -> PolynomialMap:
    """Forward-Euler update map z_j -> z_j + h f_j(z) as a PolynomialMap.

    The linear term z_j becomes the zero-padded monomial z_0^(d-1) z_j; output
    degree is the system degree padded up to at least 2.  The n linear
    terms, then the zero-padded terms of h f, go from the system's arrays to
    the constructor as monomial coefficients, summed per key in that order,
    as from_monomials's are but with a floor of 0: entries below the normal
    float range are kept, and a non-finite one is refused.  An
    h * entry * multiplicity that overflows is refused as a fault of the
    system, without numpy's overflow warning, and an h that is not
    positive (h = t/m of an integration can underflow) as a fault of h.
    The map has any degree and evaluates classically; only build_A refuses
    a degree past 8.
    """
    if not h > 0:
        raise ParameterError("h", f"step size h = t/m must be positive, got {h!r}")
    n, d = sys.n, max(2, sys.degree)
    rows = np.arange(1, n + 1)
    monos = np.zeros((n + sys.monos.shape[0], d), dtype=np.intp)  # z_0 padding
    monos[:n, -1] = rows
    monos[n:, d - sys.degree:] = sys.monos
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = h * sys.entries * sys.counts
    if (i := _first(~np.isfinite(scaled))) >= 0:
        raise ParameterError("system", f"non-finite entry {complex(scaled[i])!r} for "
                             f"row {sys.alphas[i]}, multi-index "
                             f"{tuple(monos[n + i].tolist())}: h * entry * "
                             "multiplicity overflows")
    values = np.concatenate((np.ones(n), scaled))
    return PolynomialMap(n, d, Terms(np.concatenate((rows, sys.alphas)), monos, values,
                                     floor=0.0))


def check_ode_measure_preserving(sys: OdeSystem, samples: int = 100,
                                 tol: float = 1e-9, rng_seed: int = 0):
    """Test sum_j z_j* f_j(z) + z_j f_j(z)* = 0 on random unit vectors.

    Returns (preserving: bool, max residual).  Systems with real coefficients
    are sampled on real unit vectors (their natural phase space).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_rng(rng_seed)
    real = sys.real_coefficients
    residual = 0.0
    for _ in range(samples):
        z = random_unit(sys.n, rng, real=real)
        f = sys.rhs(z)
        residual = max(residual, abs(float(2.0 * np.real(np.vdot(z, f)))))
    return residual <= tol, residual


def reference_integrate(sys: OdeSystem, z0: np.ndarray, t: float, steps: int,
                        method: str = "rk4") -> np.ndarray:
    """Classical fixed-step trajectory sampled at t_k = k t/steps, k = 0..steps.

    The euler variant iterates apply_map on euler_map(sys, t/steps), so it is
    bitwise identical to driving the update map directly.  Raises on non-finite
    states (blow-up).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t <= 0:
        raise ValueError("integration time must be positive")
    z = np.asarray(z0, dtype=complex)
    if z.shape != (sys.n,):
        raise ValueError(f"initial state has shape {z.shape}, expected ({sys.n},)")
    h = t / steps
    out = np.empty((steps + 1, sys.n), dtype=complex)
    out[0] = z
    # Overflow here is the blow-up condition we detect, not a numerics bug.
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "euler":
            emap = euler_map(sys, h)
            for k in range(steps):
                z = apply_map(emap, z)
                _require_finite(z, k + 1)
                out[k + 1] = z
        elif method == "rk4":
            for k in range(steps):
                k1 = sys.rhs(z)
                k2 = sys.rhs(z + 0.5 * h * k1)
                k3 = sys.rhs(z + 0.5 * h * k2)
                k4 = sys.rhs(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                _require_finite(z, k + 1)
                out[k + 1] = z
        else:
            raise ValueError(f"unknown method {method!r}; use 'euler' or 'rk4'")
    return out


def _require_finite(z, step):
    if not np.all(np.isfinite(z.view(float))):
        raise ValueError(f"trajectory blew up: non-finite state at step {step}")


# ---------------------------------------------------------------------------
# JSON document format: {n, degree, entries: [{alpha, index, re, im}, ...]}
# Canonical (sorted) indices on write; unsorted accepted on read.

def map_to_doc(pmap: SparsePolynomial) -> dict:
    entries = [{"alpha": alpha, "index": list(mono),
                "re": float(v.real), "im": float(v.imag)}
               for (alpha, mono), v in sorted(pmap.coeffs.items())]
    return {"n": pmap.n, "degree": pmap.degree, "entries": entries}


def system_to_doc(sys: OdeSystem) -> dict:
    return map_to_doc(sys) | {"measure_preserving_claimed": sys.measure_preserving_claimed}


def _doc_terms(doc: dict) -> tuple[int, int, Terms]:
    """(n, degree, terms) of a document: _as_int checks n, degree and every
    key once, and the optional unit entry of the implicit row 0 is dropped;
    the constructor checks the rest."""
    n, degree = _as_int(doc["n"], "n"), _as_int(doc["degree"], "degree")
    pairs = (((e["alpha"], e["index"]), complex(float(e["re"]), float(e.get("im", 0.0))))
             for e in doc["entries"])
    alphas, monos, values, _ = _terms(pairs, degree, "entries[{}].")
    unit = (alphas == 0) & (monos == 0).all(axis=1) & (values == 1)
    return n, degree, Terms(alphas[~unit], monos[~unit], values[~unit])


def map_from_doc(doc: dict) -> PolynomialMap:
    return PolynomialMap(*_doc_terms(doc))


def system_from_doc(doc: dict) -> OdeSystem:
    return OdeSystem(*_doc_terms(doc), measure_preserving_claimed=bool(
        doc.get("measure_preserving_claimed", False)))


def load_map(path) -> PolynomialMap:
    with open(path) as f:
        return map_from_doc(json.load(f))


def load_system(path) -> OdeSystem:
    with open(path) as f:
        return system_from_doc(json.load(f))
