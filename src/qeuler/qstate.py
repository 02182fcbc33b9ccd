"""Amplitude encoding between variable vectors and state vectors.

A vector z in C^n with ||z|| = 1 is stored as the (n+1)-dimensional state
(1/sqrt(2)) (|0> + sum_j z_j |j>).  The fixed amplitude on |0> (the anchor)
realises the z_0 = 1 padding convention and pins the global phase on decode.

Joint states hold d encoded registers plus one ancilla qubit, flattened
ancilla-slowest: index = ancilla * (n+1)^d + r, where r runs over register
tuples (k_1, ..., k_d) with k_1 slowest.

An ideal step starts from the product state x^(x)d (x) |0> and changes it on
a few columns only, so a joint state is stored either by its amplitudes or
factored: the product factor x, a correction added to sector 0 on a fixed
set of columns, and the sector-1 amplitudes at the n+1 anchors |alpha, 0,
..., 0> (zero elsewhere).  A factored state costs O(K + n) memory for K
corrected columns; its full amplitude vector is built only when `amps` is
read, and then cached.  DEFAULT_DIM_CAP bounds that vector and applies only
there: tensor_power and the ideal step never build it, so they run at any
register dimension.

Both state types hold read-only amplitudes.  A constructor copies a
writeable input or a view; a fresh array the caller has set read-only is
taken over without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ANCHOR = math.sqrt(0.5)

# JointState.amps refuses to build a register space beyond this many
# amplitudes; nothing else allocates one.
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
        nrm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amps", _frozen(self.amps, amps))

    @property
    def n(self) -> int:
        return self.amps.shape[0] - 1


class JointState:
    """d encoded registers and one ancilla qubit, ancilla-slowest layout.

    JointState(amps, n, d) stores the given amplitudes; tensor_power and
    apply_step return factored states (see the module docstring).  Either
    way the joint norm is checked to 1e-10 over the whole vector.  A state
    is immutable; only the cache of a factored state's amps is filled in.
    """

    __slots__ = ("n", "d", "_factor", "_correction", "_anchor_norm", "_amps")

    def __init__(self, amps, n: int, d: int):
        arr = np.asarray(amps, dtype=complex)
        dim = 2 * (n + 1) ** d
        if arr.shape != (dim,):
            raise ValueError(f"joint state has shape {arr.shape}, expected ({dim},)")
        self._check_norm(np.vdot(arr, arr).real)
        self._set(n=n, d=d, _factor=None, _correction=None, _anchor_norm=None,
                  _amps=_frozen(amps, arr))

    @classmethod
    def _factored(cls, factor: np.ndarray, d: int, correction=None) -> JointState:
        """factor^(x)d (x) |0>, changed by correction = (cols, base, delta,
        anchor1) if given: delta is added to sector 0 at the register indices
        cols, where the product holds base, and sector 1 is anchor1 at the
        anchors and zero elsewhere.  factor and cols must be read-only; base,
        delta and anchor1 must be fresh and are taken over read-only.  The
        norm of anchor1 is taken once, here."""
        self = cls.__new__(cls)
        anchor_norm = 0.0
        if correction is not None:
            for arr in correction:
                arr.flags.writeable = False
            anchor_norm = np.linalg.norm(correction[3])
        self._set(n=factor.shape[0] - 1, d=d, _factor=factor, _correction=correction,
                  _anchor_norm=anchor_norm, _amps=None)
        self._check_norm(self.sector_mass(0) + self.sector_mass(1))
        return self

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"JointState is immutable: cannot set {name!r}")

    @staticmethod
    def _check_norm(norm2: float):
        nrm = math.sqrt(norm2)
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"joint norm {nrm} deviates from 1 beyond 1e-10")

    @property
    def factored(self) -> bool:
        """True for a state stored as product factor plus correction."""
        return self._factor is not None

    @property
    def is_product(self) -> bool:
        """True for the product state from tensor_power: sector 1 is zero."""
        return self._factor is not None and self._correction is None

    @property
    def register_dim(self) -> int:
        return (self.n + 1) ** self.d

    @property
    def anchors(self) -> np.ndarray:
        """Register indices of the anchors |alpha, 0, ..., 0>, alpha = 0..n."""
        return np.arange(self.n + 1) * (self.n + 1) ** (self.d - 1)

    @property
    def amps(self) -> np.ndarray:
        """The full 2 (n+1)^d amplitude vector (read-only; built once).

        A factored state refuses to build it beyond DEFAULT_DIM_CAP.
        """
        if self._amps is None:
            D, x = check_register_dim(self.n, self.d), self._factor
            amps = np.zeros(2 * D, dtype=complex)
            head = x
            for _ in range(self.d - 2):
                head = np.multiply.outer(head, x)
            np.multiply.outer(head, x, out=amps[:D].reshape(head.shape + x.shape))
            if self._correction is not None:
                cols, _, delta, anchor1 = self._correction
                amps[cols] += delta
                amps[D + self.anchors] = anchor1
            amps.flags.writeable = False
            self._set(_amps=amps)
        return self._amps

    def sector(self, outcome: int) -> np.ndarray:
        """Amplitudes of the ancilla = outcome sector (a view of amps)."""
        D = self.register_dim
        return self.amps[outcome * D: (outcome + 1) * D]

    def sector_mass(self, outcome: int) -> float:
        """Squared norm of the ancilla = outcome sector.

        For a factored state, sector 0 holds
        ||x||^(2d) + 2 Re <x^(x)d[cols], delta> + ||delta||^2 and sector 1
        the squared norm of its anchor amplitudes.
        """
        if self._factor is None:
            return float(np.linalg.norm(self.sector(outcome)) ** 2)
        if outcome == 1:
            return float(self._anchor_norm ** 2)
        x = self._factor
        mass = np.vdot(x, x).real ** self.d
        if self._correction is not None:
            _, base, delta, _ = self._correction
            mass += 2.0 * np.vdot(base, delta).real + np.vdot(delta, delta).real
        return float(mass)

    def sector0_at(self, cols: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """Sector-0 amplitudes at the register indices cols, whose digits
        (k_1, ..., k_d) are the rows of digits.

        For the product state x^(x)d (x) |0> this is prod_j x[digits[j]], in
        O(K d) for K columns and in the order the tensor power multiplies.
        """
        if not self.is_product:
            return self.sector(0)[cols]
        x = self._factor
        out = x[digits[0]]
        for row in digits[1:]:
            out = out * x[row]
        return out

    def anchor_amps(self) -> np.ndarray:
        """Sector-1 amplitudes at the n+1 anchors."""
        if self._factor is None:
            return self.sector(1)[self.anchors]
        if self._correction is None:
            return np.zeros(self.n + 1, dtype=complex)
        return self._correction[3]

    def anchor_norm(self) -> float:
        """Norm of anchor_amps(); a factored state took it when built."""
        if self._factor is None:
            return np.linalg.norm(self.anchor_amps())
        return self._anchor_norm

    def _corrected(self, cols: np.ndarray, w0: np.ndarray, delta: np.ndarray,
                   anchor1: np.ndarray) -> JointState:
        """This state with sector 0 at cols moved from w0 = sector0_at(cols)
        to w0 + delta and sector 1 at the anchors set to anchor1.

        A product state stays factored and takes the arrays over (cols
        read-only, the others fresh; apply_step passes its own); any other
        state is copied into a new amplitude vector.
        """
        if self.is_product:
            return JointState._factored(self._factor, self.d, (cols, w0, delta, anchor1))
        out = self.amps.copy()
        out[cols] = w0 + delta
        out[self.register_dim + self.anchors] = anchor1
        out.flags.writeable = False
        return JointState(out, n=self.n, d=self.d)


def check_register_dim(n: int, d: int) -> int:
    """The register dimension (n+1)^d, if its amplitude vector may be built."""
    D = (n + 1) ** d
    if D > DEFAULT_DIM_CAP:
        raise ValueError(f"register dimension {n + 1}^{d} = {D} exceeds cap "
                         f"{DEFAULT_DIM_CAP} on building the full amplitude vector")
    return D


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
    """d copies of the state with the ancilla set to |0>, stored factored:
    nothing of the joint dimension is allocated until amps is read."""
    if d < 2:
        raise ValueError("tensor power needs d >= 2 copies")
    return JointState._factored(state.amps, d)


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
