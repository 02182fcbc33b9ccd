"""Amplitude encoding between variable vectors and state vectors.

A vector z in C^n with ||z|| = 1 is stored as the (n+1)-dimensional state
(1/sqrt(2)) (|0> + sum_j z_j |j>).  The fixed amplitude on |0> (the anchor)
realises the z_0 = 1 padding convention and pins the global phase on decode.

Joint states hold d encoded registers plus one ancilla qubit, flattened
ancilla-slowest: index = ancilla * (n+1)^d + r, where r runs over register
tuples (k_1, ..., k_d) with k_1 slowest.

Both state types hold read-only amplitudes.  A constructor copies a
writeable input or a view; a fresh array the caller has set read-only is
taken over without a copy, which is how the step hands its buffers on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ANCHOR = math.sqrt(0.5)

# tensor_power refuses register spaces beyond this many amplitudes.
DEFAULT_DIM_CAP = 4_000_000


def _frozen(value, amps: np.ndarray) -> np.ndarray:
    """amps (value as a complex array) read-only, copied if value is
    writeable or a view: the caller could still write to its memory."""
    if amps is value and (amps.flags.writeable or amps.base is not None):
        amps = amps.copy()
    amps.flags.writeable = False
    return amps


@dataclass(frozen=True)
class AmplitudeState:
    """Normalized (n+1)-dimensional state vector; amps[0] is the anchor."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError("state must be a 1-D vector of length >= 2")
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amps", _frozen(self.amps, amps))

    @property
    def n(self) -> int:
        return self.amps.shape[0] - 1


@dataclass(frozen=True)
class JointState:
    """d encoded registers and one ancilla qubit, ancilla-slowest layout."""

    amps: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        dim = 2 * (self.n + 1) ** self.d
        if amps.shape != (dim,):
            raise ValueError(f"joint state has shape {amps.shape}, expected ({dim},)")
        nrm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"joint norm {nrm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amps", _frozen(self.amps, amps))

    @property
    def register_dim(self) -> int:
        return (self.n + 1) ** self.d

    def sector(self, outcome: int) -> np.ndarray:
        """Amplitudes of the ancilla = outcome sector (a view)."""
        D = self.register_dim
        return self.amps[outcome * D: (outcome + 1) * D]


def encode(z: np.ndarray, tol: float = 1e-9) -> AmplitudeState:
    """Encode a unit vector; the anchor amplitude is exactly 1/sqrt(2)."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("z must be a 1-D vector of length >= 1")
    nrm2 = float(np.linalg.norm(z) ** 2)
    if not abs(nrm2 - 1.0) <= tol:
        raise ValueError(f"||z||^2 = {nrm2} deviates from 1 beyond tol {tol}")
    amps = np.empty(z.shape[0] + 1, dtype=complex)
    amps[0] = ANCHOR
    amps[1:] = z * ANCHOR
    return AmplitudeState(amps)


def decode(state: AmplitudeState) -> np.ndarray:
    """Recover z_j = amps[j] / amps[0].

    Division by the anchor makes the result invariant under a global phase
    and returns the exact (possibly unnormalized) coordinate vector the
    state represents projectively.
    """
    amps = state.amps
    if abs(amps[0]) < 1e-6:
        raise ValueError("anchor amplitude vanished; state is not decodable")
    return np.asarray(amps[1:] / amps[0])


def tensor_power(state: AmplitudeState, d: int) -> JointState:
    """d copies of the state with the ancilla set to |0>.

    The outer product is written straight into the ancilla-0 half of one
    zeroed joint buffer, which the returned state takes over read-only.
    """
    if d < 2:
        raise ValueError("tensor power needs d >= 2 copies")
    n = state.n
    D = (n + 1) ** d
    if D > DEFAULT_DIM_CAP:
        raise ValueError(f"register dimension {n + 1}^{d} = {D} exceeds cap {DEFAULT_DIM_CAP}")
    amps = state.amps
    head = amps
    for _ in range(d - 2):
        head = np.multiply.outer(head, amps)
    joint = np.zeros(2 * D, dtype=complex)
    np.multiply.outer(head, amps, out=joint[:D].reshape(head.shape + amps.shape))
    joint.flags.writeable = False
    return JointState(joint, n=n, d=d)


def _vector_of(state) -> np.ndarray:
    if isinstance(state, (AmplitudeState, JointState)):
        return state.amps
    return np.asarray(state, dtype=complex)


def phase_aligned(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector by a global phase so its first entry is real positive."""
    vec = np.asarray(vec, dtype=complex)
    a0 = vec[0]
    if a0 == 0:
        return vec.copy()
    return vec * (a0.conjugate() / abs(a0))


def distance(a, b) -> float:
    """Euclidean distance after aligning the global phase of b against a.

    Equals sqrt(||a||^2 + ||b||^2 - 2 |<a|b>|); for unit vectors this is the
    chordal metric on rays, so phase-equal states are at distance zero and
    orthonormal pairs at sqrt(2).
    """
    va, vb = _vector_of(a), _vector_of(b)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    ov = abs(np.vdot(va, vb))
    sq = float(np.linalg.norm(va) ** 2 + np.linalg.norm(vb) ** 2 - 2.0 * ov)
    return math.sqrt(max(sq, 0.0))


def dump_state_csv(state, path) -> None:
    """State dump: one row (basis_index, re, im) per amplitude."""
    vec = _vector_of(state)
    with open(path, "w", newline="") as f:
        f.write("basis_index,re,im\n")
        for i, c in enumerate(vec):
            f.write(f"{i},{float(c.real)!r},{float(c.imag)!r}\n")
