"""Sparse symmetric polynomial maps over C^n and polynomial ODE systems.

A degree-d map row f_alpha is a symmetric coefficient tensor over multi-indices
(k_1, ..., k_d) with entries in 0..n, under the convention z_0 = 1 so that
lower-degree monomials appear as zero-padded degree-d ones.  Row 0 is the
constant row f_0 = 1 and is kept implicit.

Storage is canonical: one entry per sorted multi-index holding the tensor
value (the per-ordered-tuple coefficient).  Evaluation therefore multiplies
each entry by the number of distinct orderings of its multi-index; symmetry is
structural rather than checked per use.

This module is the classical oracle: everything the quantum-side machinery
produces is checked against direct evaluation of these polynomials.
"""

from __future__ import annotations

import json
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._util import as_rng

Mono = tuple[int, ...]

# Euler maps refuse to build beyond this degree; tensor spaces grow as (n+1)^d.
MAX_EULER_DEGREE = 8

# The smallest normal float; from_monomials refuses smaller coefficients.
MIN_NORMAL = float(np.finfo(float).tiny)


def permutation_count(mono: Mono) -> int:
    """Number of distinct orderings of a sorted multi-index: d! / prod r!
    over the lengths r of its runs of equal entries.

    The count is built one entry at a time: after i entries it is the
    multinomial i! / prod r! of the runs so far, an integer, so every
    division is exact.
    """
    count, run = 1, 0
    for i, k in enumerate(mono):
        run = run + 1 if i and k == mono[i - 1] else 1
        count = count * (i + 1) // run
    return count


def _canonical_entries(entries, n: int, degree: int) -> dict[tuple[int, Mono], complex]:
    """Sort multi-indices, validate ranges, reject duplicates, drop zeros.

    Two input entries that collapse to the same canonical index are duplicates
    (the symmetric tensor would be over-specified), not values to merge, even
    when one of them is zero.  Rows run over 1..n: row 0 is the implicit
    constant row f_0 = 1 (an ODE has no equation for it).
    """
    out: dict[tuple[int, Mono], complex] = {}
    items = entries.items() if hasattr(entries, "items") else entries
    for (alpha, index), value in items:
        alpha, mono = _key(alpha, index)
        if len(mono) != degree:
            raise ValueError(
                f"multi-index {index} has length {len(mono)}, expected degree {degree}"
            )
        if alpha < 1 or alpha > n:
            raise ValueError(
                f"row index {alpha} outside 1..{n} (row 0 is the implicit f_0 = 1)")
        if mono[0] < 0 or mono[-1] > n:
            raise ValueError(f"multi-index {index} has entries outside 0..{n}")
        key = (alpha, mono)
        if key in out:
            raise ValueError(f"duplicate entry for row {alpha}, multi-index {mono}")
        out[key] = complex(value)
    return {key: v for key, v in out.items() if v != 0}


def _as_int(value, name: str) -> int:
    """An integer key or document field: 2, 2.0 or a numpy integer, not 1.5,
    True or "2"."""
    if type(value) is int:
        return value
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    return int(value)


def _key(alpha, index) -> tuple[int, Mono]:
    """(alpha, sorted multi-index) with every part checked by _as_int."""
    return (_as_int(alpha, "alpha"),
            tuple(sorted(_as_int(k, "index") for k in index)))


def _compile_terms(coeffs, degree: int):
    """Flatten canonical entries to arrays (alphas, monos, entries, weights).

    entries are the tensor entries; weights carry the ordering multiplicity
    as well, so evaluation is sum_terms weight * prod(zfull[mono]).
    """
    alphas = np.array([a for (a, _) in coeffs], dtype=np.intp)
    monos = np.array([m for (_, m) in coeffs], dtype=np.intp).reshape(-1, degree)
    entries = np.array(list(coeffs.values()), dtype=complex)
    weights = np.array([permutation_count(m) for (_, m) in coeffs], dtype=float) * entries
    return alphas, monos, entries, weights


@dataclass(frozen=True)
class SparsePolynomial:
    """Rows f_1..f_n of degree-d polynomials over C^n with z_0 = 1.

    coeffs maps (alpha, sorted multi-index) to the symmetric tensor entry;
    rows run over 1..n.  PolynomialMap and OdeSystem differ only in their
    least degree and their metadata.
    """

    min_degree: ClassVar[int] = 1

    n: int
    degree: int
    coeffs: dict[tuple[int, Mono], complex]
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("variable count n must be >= 1")
        if self.degree < self.min_degree:
            raise ValueError(f"degree must be >= {self.min_degree}")
        coeffs = _canonical_entries(self.coeffs, self.n, self.degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_terms", _compile_terms(coeffs, self.degree))

    @classmethod
    def from_monomials(cls, n: int, degree: int, monomials, **kw):
        """Build from per-monomial coefficients as written in the polynomial.

        monomials maps (alpha, multi-index) to the coefficient of the monomial
        z^index in f_alpha; repeated keys accumulate.  Tensor entries are the
        monomial coefficients divided by the ordering multiplicity m.  A
        nonzero coefficient below the normal float range is refused: its
        entry would lose its relative precision or vanish.  Above it the
        entry keeps m * 2^-52 relative precision.
        """
        acc: dict[tuple[int, Mono], complex] = {}
        items = monomials.items() if hasattr(monomials, "items") else monomials
        for (alpha, index), value in items:
            key = _key(alpha, index)
            acc[key] = acc.get(key, 0j) + complex(value)
        entries = {}
        for (alpha, mono), v in acc.items():
            if v == 0:
                continue
            if not abs(v) >= MIN_NORMAL:
                raise ValueError(
                    f"coefficient {v!r} of row {alpha}, multi-index {mono} is "
                    "below the normal float range")
            entries[alpha, mono] = v / permutation_count(mono)
        return cls(n, degree, entries, **kw)

    def monomial_coefficient(self, alpha: int, index) -> complex:
        """Coefficient of z^index in f_alpha (multiplicity folded back in)."""
        key = _key(alpha, index)
        return self.coeffs.get(key, 0j) * permutation_count(key[1])

    def row_monomials(self, alpha: int) -> dict[Mono, complex]:
        return {m: v for (a, m), v in self.coeffs.items() if a == alpha}

    def _evaluate(self, z) -> np.ndarray:
        """(f_1(z), ..., f_n(z)) with the z_0 = 1 padding convention."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n,):
            raise ValueError(f"input has shape {z.shape}, expected ({self.n},)")
        alphas, monos, _, weights = self._terms
        zfull = np.concatenate([[1.0 + 0j], z])
        out = np.zeros(self.n, dtype=complex)
        np.add.at(out, alphas - 1, weights * zfull[monos].prod(axis=1))
        return out


@dataclass(frozen=True)
class PolynomialMap(SparsePolynomial):
    """Sparse degree-d polynomial map z -> (f_1(z), ..., f_n(z)), f_0 = 1.

    Degree >= 2.  Optional configured bounds: `sparsity` requires each row to
    hold at most sparsity/2 ordered monomial slots and each multi-index to
    feed at most sparsity/2 rows; `a_max` bounds |entry|.
    """

    min_degree: ClassVar[int] = 2

    sparsity: int | None = None
    a_max: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.sparsity is not None or self.a_max is not None:
            s_row, s_col, a_obs = _sparsity_stats(self.coeffs)
            if self.sparsity is not None and 2 * max(s_row, s_col) > self.sparsity:
                raise ValueError(
                    f"sparsity bound {self.sparsity} violated: "
                    f"row slots {s_row}, column rows {s_col}"
                )
            if self.a_max is not None and a_obs > self.a_max + 1e-15:
                raise ValueError(f"|coefficient| {a_obs} exceeds a_max {self.a_max}")


@dataclass(frozen=True)
class OdeSystem(SparsePolynomial):
    """Polynomial right-hand side dz_j/dt = f_j(z), j = 1..n, of any degree
    >= 1.  measure_preserving_claimed is metadata; the actual check is
    check_ode_measure_preserving.
    """

    measure_preserving_claimed: bool = False

    @property
    def real_coefficients(self) -> bool:
        return all(abs(v.imag) == 0 for v in self.coeffs.values())

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
        for name in ("s_row", "s_col", "a_max_observed", "measure_deviation",
                     "lipschitz_estimate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _sparsity_stats(coeffs) -> tuple[int, int, float]:
    """(max ordered slots per row, max rows per multi-index, max |entry|).

    Rows alpha = 0 excluded; these are the map-level sparsity conditions,
    stated for alpha = 1..n.  Row slots count ordered tuples, i.e. each
    canonical monomial contributes its ordering multiplicity, matching the
    set-of-ordered-indices definition of sparsity.
    """
    row_slots: Counter = Counter()
    col_rows: Counter = Counter()
    a_obs = 0.0
    for (alpha, mono), v in coeffs.items():
        row_slots[alpha] += permutation_count(mono)
        col_rows[mono] += 1
        a_obs = max(a_obs, abs(v))
    s_row = max(row_slots.values()) if row_slots else 0
    s_col = max(col_rows.values()) if col_rows else 0
    return s_row, s_col, a_obs


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
    s_row, s_col, a_obs = _sparsity_stats(pmap.coeffs)

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
    degree is the system degree padded up to at least 2.  The monomial
    coefficients are summed and divided by their multiplicity as in
    from_monomials, but built through the constructor, which takes entries
    below the normal float range.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    if sys.degree > MAX_EULER_DEGREE:
        raise ValueError(
            f"system degree {sys.degree} exceeds maximum {MAX_EULER_DEGREE}")
    d = max(2, sys.degree)
    acc = {(j, (0,) * (d - 1) + (j,)): 1 + 0j for j in range(1, sys.n + 1)}
    for (alpha, mono), entry in sys.coeffs.items():
        key = (alpha, (0,) * (d - len(mono)) + mono)
        acc[key] = acc.get(key, 0j) + h * entry * permutation_count(mono)
    return PolynomialMap(sys.n, d, {key: v / permutation_count(key[1])
                                    for key, v in acc.items()})


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


def _entries_from_doc(doc):
    """The doc's (key, value) pairs, minus the optional unit entry of the
    implicit row 0; the constructor checks the rest."""
    entries = []
    for i, e in enumerate(doc["entries"]):
        key = (_as_int(e["alpha"], f"entries[{i}].alpha"),
               tuple(_as_int(k, f"entries[{i}].index") for k in e["index"]))
        value = complex(float(e["re"]), float(e.get("im", 0.0)))
        if key[0] == 0 and set(key[1]) == {0} and value == 1:
            continue
        entries.append((key, value))
    return entries


def map_from_doc(doc: dict) -> PolynomialMap:
    return PolynomialMap(_as_int(doc["n"], "n"), _as_int(doc["degree"], "degree"),
                         _entries_from_doc(doc))


def system_from_doc(doc: dict) -> OdeSystem:
    return OdeSystem(_as_int(doc["n"], "n"), _as_int(doc["degree"], "degree"),
                     _entries_from_doc(doc),
                     measure_preserving_claimed=bool(
                         doc.get("measure_preserving_claimed", False)))


def save_map(pmap: PolynomialMap, path) -> None:
    with open(path, "w") as f:
        json.dump(map_to_doc(pmap), f, indent=2, sort_keys=True)
        f.write("\n")


def load_map(path) -> PolynomialMap:
    with open(path) as f:
        return map_from_doc(json.load(f))


def save_system(sys: OdeSystem, path) -> None:
    with open(path, "w") as f:
        json.dump(system_to_doc(sys), f, indent=2, sort_keys=True)
        f.write("\n")


def load_system(path) -> OdeSystem:
    with open(path) as f:
        return system_from_doc(json.load(f))
