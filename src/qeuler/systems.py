"""Built-in model maps and ODE systems.

Measure-preserving update maps come in two flavours here: padded linear
unitaries (the generic family preserving the sphere for any n) and the n = 1
coordinate power maps z -> z^k, which are genuinely nonlinear and preserve the
unit circle.  The ODE side provides the cyclic quadratic conservative system,
the discrete nonlinear Schroedinger equation on a graph (embedded in the
polynomial framework by conjugate-doubling), and the non-conservative Lorenz
system as the reduced-success-probability example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_rng
from .polysys import OdeSystem, PolynomialMap, Terms


# ---------------------------------------------------------------------------
# Update maps

def identity_map(n: int) -> PolynomialMap:
    """f_j = z_j as the padded quadratic monomial z_0 z_j."""
    return permutation_map(range(1, n + 1))


def permutation_map(perm) -> PolynomialMap:
    """f_j = z_perm(j); perm is a 1-based image list, e.g. [2, 1] swaps."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    images = np.asarray(perm, dtype=np.intp)
    return PolynomialMap.from_monomials(n, 2, Terms(
        np.arange(1, n + 1), np.column_stack((np.zeros(n, np.intp), images)), np.ones(n)))


def power_map(k: int) -> PolynomialMap:
    """n = 1 map z -> z^k; measure preserving on the unit circle."""
    if k < 2:
        raise ValueError("power must be >= 2")
    return PolynomialMap(1, k, {(1, (1,) * k): 1.0})


def unitary_map(u: np.ndarray, scale: float = 1.0) -> PolynomialMap:
    """Linear map f = scale * U z padded to a quadratic map.

    Unit scale with unitary U gives a measure-preserving map; other scales
    give the controlled non-measure-preserving family with ||F(z)|| = scale.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("u must be square")
    scaled = scale * u
    alphas, ks = np.nonzero(scaled)
    return PolynomialMap.from_monomials(n, 2, Terms(
        alphas + 1, np.column_stack((np.zeros_like(ks), ks + 1)), scaled[alphas, ks]))


def random_unitary_map(n: int, rotations: int | None = None, rng=None,
                       scale: float = 1.0) -> PolynomialMap:
    """Sparse random unitary: random phases composed with Givens rotations on
    random coordinate pairs.  Few rotations keep the rows sparse."""
    rng = as_rng(rng)
    u = np.diag(np.exp(2j * math.pi * rng.uniform(size=n)))
    if n > 1:
        for _ in range(n if rotations is None else rotations):
            i, j = rng.choice(n, size=2, replace=False)
            th = rng.uniform(0, 2 * math.pi)
            ph = rng.uniform(0, 2 * math.pi)
            g = np.eye(n, dtype=complex)
            g[i, i] = math.cos(th)
            g[i, j] = -math.sin(th) * np.exp(1j * ph)
            g[j, i] = math.sin(th) * np.exp(-1j * ph)
            g[j, j] = math.cos(th)
            u = g @ u
    return unitary_map(u, scale=scale)


def random_measure_preserving_map(n: int, rng=None,
                                  rotations: int | None = None) -> PolynomialMap:
    """Random sparse measure-preserving map with degree-2 representation.

    For n = 1 this draws from the genuinely nonlinear circle maps
    z -> e^(i theta) z^2 half of the time; otherwise a random sparse unitary.
    """
    rng = as_rng(rng)
    if n == 1 and rng.uniform() < 0.5:
        theta = rng.uniform(0, 2 * math.pi)
        return PolynomialMap(1, 2, {(1, (1, 1)): np.exp(1j * theta)})
    return random_unitary_map(n, rotations=rotations, rng=rng)


# ---------------------------------------------------------------------------
# ODE systems

def orszag_mclaughlin(n: int = 5) -> OdeSystem:
    """Cyclic quadratic system dx_j/dt = x_{j+1} x_{j+2} + x_{j-1} x_{j-2}
    - 2 x_{j+1} x_{j-1} with periodic indices; conserves sum x_j^2.

    Needs n >= 5 so the three stencil monomials per row are distinct.
    """
    if n < 5:
        raise ValueError("need n >= 5 for distinct stencil terms")
    j = np.arange(n)  # row j + 1; x_(j+1+s) is variable (j + s) % n + 1
    pairs = np.stack([(j + 1) % n, (j + 2) % n, (j - 1) % n, (j - 2) % n,
                      (j + 1) % n, (j - 1) % n], axis=1).reshape(3 * n, 2) + 1
    return OdeSystem.from_monomials(n, 2, Terms(
        np.repeat(j + 1, 3), pairs, np.tile([1.0, 1.0, -2.0], n)),
        measure_preserving_claimed=True)


def lorenz(sigma: float = 10.0, rho: float = 28.0, beta: float = 8.0 / 3.0) -> OdeSystem:
    """The classic dissipative quadratic system; not measure preserving."""
    monos = {
        (1, (0, 1)): -sigma, (1, (0, 2)): sigma,
        (2, (0, 1)): rho, (2, (1, 3)): -1.0, (2, (0, 2)): -1.0,
        (3, (1, 2)): 1.0, (3, (0, 3)): -beta,
    }
    return OdeSystem.from_monomials(3, 2, monos)


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if u != int(u) or v != int(v):
                raise ValueError(f"edge ({u}, {v}) has a non-integer vertex")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def path(cls, n: int) -> "GraphSpec":
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "GraphSpec":
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))


def discrete_nls(g: GraphSpec, k: int, nonlinear_scale: float = 1.0) -> OdeSystem:
    """Nonlinear Schroedinger flow -i dz_v/dt = 2 deg(v) z_v - sum_{w~v} z_w
    + |z_v|^k z_v on a graph, embedded as polynomials by conjugate-doubling.

    |z|^k z is not polynomial in z alone, so the system is doubled: variables
    (z_1..z_V, w_1..w_V) where w_v obeys the conjugate equation; the subspace
    w = conj(z) is invariant and carries the physical flow.  Even k makes
    |z_v|^k z_v = (z_v w_v)^(k/2) z_v polynomial of degree k + 1; odd k has
    no polynomial embedding and is rejected.

    nonlinear_scale multiplies the cubic-and-up coefficients by scale^k: use
    scale = ||initial data|| to integrate unit-normalized variables that stand
    for physical data of that norm (the doubling halves each |y_v|^2, which
    the scale absorbs as well).

    measure_preserving_claimed stays False: total mass is conserved on the
    physical subspace w = conj(z), but the doubled complex system does not
    preserve the sphere at generic (z, w).

    The terms are assembled as arrays, vertex by vertex: for z_v its
    diagonal term, a term per neighbour, ascending, and its nonlinear term,
    then the same for w_v.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2 (odd powers of |z| are not "
                         "polynomial in the doubled variables)")
    V, c = g.vertex_count, float(nonlinear_scale) ** k
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    # (vertex, neighbour) pairs, each vertex's neighbours ascending: the
    # edges are sorted, so first those below the vertex, then those above
    tails, heads = np.concatenate((ends[:, ::-1], ends)).T
    dv, v = np.bincount(tails, minlength=V), np.arange(V)
    vertex, alphas, monos, values = [], [], [], []
    for own, other, sign in ((v + 1, v + 1 + V, 1), (v + 1 + V, v + 1, -1)):
        # dz_v/dt = i (2 deg z_v - sum z_u + c (z_v w_v)^(k/2) z_v);
        # dw_v/dt is its conjugate
        vertex += [v, tails, v]
        alphas += [own, own[tails], own]
        linear = np.concatenate((own, own[heads]))  # z_0^k z_v, then z_0^k z_u
        monos += [np.pad(linear[:, None], ((0, 0), (k, 0))),
                  np.where(np.arange(k + 1) <= k // 2, own[:, None], other[:, None])]
        values += [sign * 2j * dv, np.full(tails.shape, -sign * 1j),
                   np.full(V, sign * 1j * c)]
    order = np.argsort(np.concatenate(vertex), kind="stable")
    return OdeSystem.from_monomials(2 * V, k + 1, Terms(
        *(np.concatenate(parts)[order] for parts in (alphas, monos, values))))


def nls_initial_state(z0: np.ndarray) -> tuple[np.ndarray, float]:
    """Double and normalize graph data: returns (y0, scale) with
    y0 = (z0, conj(z0)) / scale of unit norm and scale = sqrt(2) ||z0||.

    Integrate discrete_nls(g, k, nonlinear_scale=scale) on y0; multiplying the
    first half of the trajectory by scale recovers the physical z_v(t).
    """
    z0 = np.asarray(z0, dtype=complex)
    scale = math.sqrt(2.0) * float(np.linalg.norm(z0))
    if scale == 0:
        raise ValueError("initial data must be nonzero")
    y0 = np.concatenate([z0, z0.conj()]) / scale
    return y0, scale
