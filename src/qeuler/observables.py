"""Readout: Hermitian expectations, shot-budgeted sampled estimates, and
discrete Fourier sums of the solution coordinates.

Two expectation conventions coexist.  expectation() is the plain state
expectation <phi|M|phi>.  coordinate_expectation() sums over the decoded
coordinates with the index-0 padding, sum_{j,k} conj(z_j) M_jk z_k with
z_0 = 1, which is exactly twice the state expectation on fresh encodings;
both are exposed to keep factor-of-2 bugs visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ParameterError, as_rng
from .qstate import AmplitudeState, decode


@dataclass(frozen=True)
class Observable:
    """Hermitian (n+1) x (n+1) matrix with a spectral norm bound attached."""

    matrix: np.ndarray
    norm_bound: float
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("observable must be a square matrix")
        if not np.abs(m - m.conj().T).max() <= 1e-12:  # also refuses NaN
            raise ValueError("observable is not Hermitian within 1e-12")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def observable(matrix, norm_bound: float | None = None, name: str = "") -> Observable:
    """Wrap a matrix; the norm bound defaults to the computed spectral norm."""
    m = np.asarray(matrix, dtype=complex)
    if norm_bound is None:
        norm_bound = float(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).max())
    return Observable(m, float(norm_bound), name)


def identity_observable(n: int) -> Observable:
    return observable(np.eye(n + 1), 1.0, "identity")


def projector(n: int, j: int) -> Observable:
    """|j><j| on the (n+1)-dimensional encoded space."""
    if not 0 <= j <= n:
        raise ValueError(f"index {j} outside 0..{n}")
    m = np.zeros((n + 1, n + 1))
    m[j, j] = 1.0
    return observable(m, 1.0, f"projector_{j}")


def fourier_mode(n: int, k: int) -> Observable:
    """Rank-one projector onto the k-th Fourier mode over indices 1..n.

    Its state expectation equals |S_k|^2 / 2 for a fresh encoding, with S_k
    as computed by fourier_spectrum on the decoded coordinates.
    """
    if not 1 <= k <= n:
        raise ValueError(f"mode {k} outside 1..{n}")
    chi = np.zeros(n + 1, dtype=complex)
    j = np.arange(1, n + 1)
    chi[1:] = np.exp(-2j * math.pi * j * k / n) / math.sqrt(n)
    return observable(np.outer(chi, chi.conj()), 1.0, f"fourier_{k}")


def expectation(state: AmplitudeState, obs: Observable) -> float:
    """<phi|M|phi>; real for Hermitian M."""
    amps = state.amps
    if obs.dim != amps.shape[0]:
        raise ValueError(f"observable dim {obs.dim} != state dim {amps.shape[0]}")
    value = complex(np.vdot(amps, obs.matrix @ amps))
    return float(value.real)


def coordinate_expectation(state: AmplitudeState, obs: Observable) -> float:
    """sum_{j,k=0..n} conj(z_j) M_jk z_k over decoded coordinates, z_0 = 1."""
    z = decode(state)
    g = np.concatenate([[1.0 + 0j], z])
    if obs.dim != g.shape[0]:
        raise ValueError(f"observable dim {obs.dim} != padded dim {g.shape[0]}")
    return float(complex(np.vdot(g, obs.matrix @ g)).real)


def hoeffding_shots(norm_bound: float, delta: float, alpha: float) -> int:
    """Shot budget ceil(||M||^2 ln(2/alpha) / (2 delta^2)) for additive error
    delta at confidence 1 - alpha; a budget past the int64 range is refused."""
    if not delta > 0:
        raise ParameterError("delta", "delta must be positive")
    if not 0 < alpha < 1:
        raise ParameterError("alpha", "alpha must lie in (0, 1)")
    # nan where delta^2 underflows, refused with the budgets past int64
    shots = norm_bound ** 2 * math.log(2.0 / alpha) / (2.0 * delta ** 2 or math.nan)
    if not shots < 2.0 ** 63:
        raise ParameterError("delta", f"delta {delta} needs {shots:.3g} shots, "
                             "past the int64 range")
    return math.ceil(shots)


def sample_expectation(state: AmplitudeState, obs: Observable, delta: float,
                       alpha: float, rng=None) -> tuple[float, int]:
    """Projective-measurement estimate of <phi|M|phi>.

    Measures in the eigenbasis of M (exact eigendecomposition; fine at desk
    scale), drawing the Hoeffding shot budget for (delta, alpha) as counts
    per eigenvalue, in O(dim) memory at any budget, and returns (sample
    mean, shots).  The budget assumes the measured spread is within ||M||;
    observables whose outcome distribution spans the full 2||M|| range at
    even weight may need the conservative 4x budget.
    """
    rng = as_rng(rng)
    shots = hoeffding_shots(obs.norm_bound, delta, alpha)
    eigvals, eigvecs = np.linalg.eigh(obs.matrix)
    weights = np.abs(eigvecs.conj().T @ state.amps) ** 2
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum()
    counts = rng.multinomial(shots, weights)
    return float(counts @ eigvals / shots), shots


def fourier_spectrum(z: np.ndarray) -> np.ndarray:
    """S_k = (1/sqrt(n)) sum_{j=1..n} z_j e^(2 pi i j k / n) for k = 1..n.

    Direct summation; S_n (the k = 0 mod n entry) is the plain normalized sum.
    The transform is unitary, so sum |S_k|^2 = sum |z_j|^2.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("z must be a 1-D vector of length >= 1")
    n = z.shape[0]
    j = np.arange(1, n + 1)
    k = np.arange(1, n + 1)
    phases = np.exp(2j * math.pi * np.outer(j, k) / n)
    return (z @ phases) / math.sqrt(n)


def load_observable_csv(path, dim: int) -> Observable:
    """Read a Hermitian dim x dim matrix from a sparse-triplet CSV: the
    header row,col,re,im, then one line per nonzero entry.  A line of other
    than four fields, a field that does not parse, an index outside
    0..dim-1, a non-finite entry or a repeated (row, col) is refused, naming
    its line."""
    m = np.zeros((dim, dim), dtype=complex)
    seen = set()
    with open(path) as f:
        header = f.readline().strip()
        if header != "row,col,re,im":
            raise ValueError(f"unexpected header {header!r}")
        for lineno, line in enumerate(f, 2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != 4:
                raise ValueError(f"line {lineno}: {len(cells)} fields, expected "
                                 "4 (row,col,re,im)")
            try:
                key = (int(cells[0]), int(cells[1]))
                value = complex(float(cells[2]), float(cells[3]))
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse {line.strip()!r} "
                                 "as row,col,re,im") from None
            if not (0 <= key[0] < dim and 0 <= key[1] < dim):
                raise ValueError(f"line {lineno}: index {key} outside 0..{dim - 1}")
            if not np.isfinite(value):
                raise ValueError(f"line {lineno}: non-finite entry {value!r}")
            if key in seen:
                raise ValueError(f"line {lineno}: repeated entry {key}")
            seen.add(key)
            m[key] = value
    return observable(m)
