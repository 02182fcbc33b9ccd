"""Amplitude encoding between variable vectors and state vectors.

A vector z in C^n with ||z|| = 1 is stored as the (n+1)-dimensional state
(1/sqrt(2)) (|0> + sum_j z_j |j>).  The fixed amplitude on |0> (the anchor)
realises the z_0 = 1 padding convention and pins the global phase on decode.

Joint states hold d encoded registers plus one ancilla qubit, flattened
ancilla-slowest: index = ancilla * (n+1)^d + r, where r runs over register
tuples (k_1, ..., k_d) with k_1 slowest.

A joint state starts as a product x^(x)d (x) |0>, possibly with a few
sector-1 entries beside it, and a step changes it on a few columns only, so
it is stored factored: the product factor x, a correction added to sector 0
on a fixed set of columns, the sector-1 amplitudes at the n+1 anchors
|alpha, 0, ..., 0>, and sparse sector-1 entries off the anchors (zero
elsewhere).  An ideal step leaves sector 1 on the anchors; a perturbed
input, as a noise study steps it, adds the off-anchor entries.  A factored
state costs
O(K + n + s) memory for K corrected columns and s off-anchor entries.  Its
full amplitude vector is built only when `amps` is read, and then cached.
DEFAULT_DIM_CAP bounds that vector and applies only there: tensor_power and
the step never build it, so they run at any register dimension.

States hold read-only amplitudes.  AmplitudeState copies a writeable input
or a view; a fresh array the caller has set read-only is taken over without
a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import csv_rows, float_strings

ANCHOR = math.sqrt(0.5)

# The tolerance of the norm check on a joint state, and on a register state.
JOINT_NORM_TOL = 1e-10
STATE_NORM_TOL = 1e-12
# decode refuses a state whose anchor amplitude is below this.
ANCHOR_FLOOR = 1e-6

# JointState.amps refuses to build a register space beyond this many
# amplitudes; nothing else allocates one.
DEFAULT_DIM_CAP = 4_000_000


def vector_norm(v: np.ndarray) -> float:
    """||v|| for a complex vector, summed as np.linalg.norm sums it (real
    parts, then imaginary parts), so bit-identical to it, without its
    per-call overhead."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for each row i of two complex stacks of one shape."""
    return (a.view(np.float64) * b.view(np.float64)).sum(axis=-1)


def _check_state_norm(norm2: float) -> None:
    """Refuse a register state of squared norm norm2 off 1 beyond
    STATE_NORM_TOL."""
    nrm = math.sqrt(norm2)
    if not abs(nrm - 1.0) <= STATE_NORM_TOL:
        raise ValueError(f"state norm {nrm} deviates from 1 beyond {STATE_NORM_TOL}")


def product_at(x: np.ndarray, digits) -> np.ndarray:
    """x^(x)d at the register indices whose digits are k_1 = digits[0],
    ..., k_d = digits[d-1] (d >= 2 index arrays, the rows of an array or a
    tuple): prod_j x[digits[j]], in O(K d) for K indices and in the order
    the tensor power multiplies."""
    out = x[digits[0]] * x[digits[1]]
    for k in digits[2:]:
        out *= x[k]
    return out


@dataclass(frozen=True)
class AmplitudeState:
    """Normalized (n+1)-dimensional state vector; amps[0] is the anchor."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError("state must be a 1-D vector of length >= 2")
        _check_state_norm(np.vdot(amps, amps).real)
        # the caller could still write to a writeable input or a view
        if amps is self.amps and (amps.flags.writeable or amps.base is not None):
            amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def n(self) -> int:
        return self.amps.shape[0] - 1


class JointState:
    """d encoded registers and one ancilla qubit, ancilla-slowest layout,
    stored factored (see the module docstring).

    tensor_power builds the product state and apply_step its stepped form;
    the joint norm is checked to JOINT_NORM_TOL whenever a state is built.
    A state is immutable; only the cache of its amps is filled in.
    """

    __slots__ = ("n", "d", "_factor", "_product_mass", "_sector0", "_sector1",
                 "_amps")

    @classmethod
    def _factored(cls, factor: np.ndarray, d: int, sector0=None, anchor1=None,
                  off=None, product_mass=None) -> JointState:
        """factor^(x)d (x) |0>, changed by sector0 = (cols, base, delta) if
        given: delta is added to sector 0 at the register indices cols, where
        the product holds base.  Sector 1 holds anchor1 at the anchors and
        off = (off_cols, off_vals) at the off-anchor register indices
        off_cols; None stands for zeros.  factor must be read-only; the
        other arrays are taken over read-only, so none may be written
        afterwards.  The sector-1 norms are taken once, here, and kept as
        _sector1 = (anchor1, its norm, off, squared norm of off_vals), or
        None for a zero sector 1.  product_mass is ||factor||^(2d) if the
        caller has it already; otherwise it is taken here."""
        self = cls.__new__(cls)
        if anchor1 is None and off is not None:
            anchor1 = np.zeros(factor.shape[0], dtype=complex)
        for arr in (anchor1, *(sector0 or ()), *(off or ())):
            if arr is not None:
                arr.flags.writeable = False
        sector1 = None
        if anchor1 is not None:
            off_mass = 0.0 if off is None else float(np.vdot(off[1], off[1]).real)
            sector1 = (anchor1, vector_norm(anchor1), off, off_mass)
        object.__setattr__(self, "n", factor.shape[0] - 1)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_factor", factor)
        if product_mass is None:
            product_mass = np.vdot(factor, factor).real ** d
        object.__setattr__(self, "_product_mass", product_mass)
        object.__setattr__(self, "_sector0", sector0)
        object.__setattr__(self, "_sector1", sector1)
        object.__setattr__(self, "_amps", None)
        self._check_norm(self.sector_mass(0) + self.sector_mass(1))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"JointState is immutable: cannot set {name!r}")

    @staticmethod
    def _check_norm(norm2: float):
        nrm = math.sqrt(norm2)
        if not abs(nrm - 1.0) <= JOINT_NORM_TOL:
            raise ValueError(f"joint norm {nrm} deviates from 1 beyond {JOINT_NORM_TOL}")

    @property
    def register_dim(self) -> int:
        return (self.n + 1) ** self.d

    @property
    def anchors(self) -> np.ndarray:
        """Register indices of the anchors |alpha, 0, ..., 0>, alpha = 0..n."""
        return np.arange(self.n + 1) * (self.n + 1) ** (self.d - 1)

    @property
    def amps(self) -> np.ndarray:
        """The full 2 (n+1)^d amplitude vector (read-only; built once),
        refused beyond DEFAULT_DIM_CAP."""
        if self._amps is None:
            D, x = self.register_dim, self._factor
            if D > DEFAULT_DIM_CAP:
                raise ValueError(f"register dimension {self.n + 1}^{self.d} = {D} "
                                 f"exceeds cap {DEFAULT_DIM_CAP} on building the "
                                 "full amplitude vector")
            amps = np.zeros(2 * D, dtype=complex)
            head = x
            for _ in range(self.d - 2):
                head = np.multiply.outer(head, x)
            np.multiply.outer(head, x, out=amps[:D].reshape(head.shape + x.shape))
            if self._sector0 is not None:
                cols, _, delta = self._sector0
                amps[cols] += delta
            if self._sector1 is not None:
                anchor1, _, off, _ = self._sector1
                amps[D + self.anchors] = anchor1
                if off is not None:
                    amps[D + off[0]] = off[1]
            amps.flags.writeable = False
            object.__setattr__(self, "_amps", amps)
        return self._amps

    def sector_mass(self, outcome: int) -> float:
        """Squared norm of the ancilla = outcome sector.

        Sector 0 holds ||x||^(2d) + 2 Re <x^(x)d[cols], delta> + ||delta||^2
        and sector 1 the squared norms of its anchor and off-anchor entries.
        """
        if outcome == 1:
            if self._sector1 is None:
                return 0.0
            _, anchor_norm, _, off_mass = self._sector1
            return float(anchor_norm ** 2 + off_mass)
        mass = self._product_mass
        if self._sector0 is not None:
            _, base, delta = self._sector0
            mass += 2.0 * np.vdot(base, delta).real + np.vdot(delta, delta).real
        return float(mass)

    def off_anchor_mass(self) -> float:
        """Squared norm of sector 1 off the anchors: the mass that
        registers 2..d hold outside |0...0> in the ancilla = 1 sector."""
        return 0.0 if self._sector1 is None else self._sector1[3]

    def sector0_at(self, digits: np.ndarray) -> np.ndarray:
        """Sector-0 amplitudes at the register indices whose digits
        (k_1, ..., k_d) are the rows of digits, for a state whose sector 0
        is its product x^(x)d: product_at(x, digits).

        A state whose sector 0 a step has already corrected is refused: it
        is post-selected, not stepped again.
        """
        if self._sector0 is not None:
            raise ValueError("sector 0 carries a step's correction; post-select "
                             "the stepped state instead of stepping it again")
        return product_at(self._factor, digits)

    def anchor_amps(self) -> np.ndarray:
        """Sector-1 amplitudes at the n+1 anchors."""
        if self._sector1 is None:
            return np.zeros(self.n + 1, dtype=complex)
        return self._sector1[0]

    def anchor_norm(self) -> float:
        """Norm of anchor_amps(), taken when the state was built."""
        return 0.0 if self._sector1 is None else self._sector1[1]

    def _corrected(self, cols: np.ndarray, w0: np.ndarray, delta: np.ndarray,
                   anchor1: np.ndarray) -> JointState:
        """This state with sector 0 at cols moved from w0 = sector0_at(...)
        to w0 + delta and sector 1 at the anchors set to anchor1; the
        off-anchor entries are kept.  It takes the arrays over (cols
        read-only, the others fresh; apply_step passes its own)."""
        off = None if self._sector1 is None else self._sector1[2]
        return JointState._factored(self._factor, self.d, (cols, w0, delta), anchor1,
                                    off, self._product_mass)


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


def decode(state) -> np.ndarray:
    """Recover z_j = amps[j] / amps[0] from a state, or from each row of a
    stack of state vectors (..., n+1).

    Division by the anchor makes the result invariant under a global phase
    and returns the exact (possibly unnormalized) coordinate vector the
    state represents projectively.  An anchor below ANCHOR_FLOOR is refused.
    """
    amps = _vector_of(state)
    anchors = amps[..., :1]
    if (abs(anchors) < ANCHOR_FLOOR).any():
        raise ValueError("anchor amplitude vanished; state is not decodable")
    return amps[..., 1:] / anchors


def tensor_power(state: AmplitudeState, d: int) -> JointState:
    """d copies of the state with the ancilla set to |0>, stored factored:
    nothing of the joint dimension is allocated until amps is read."""
    if d < 2:
        raise ValueError("tensor power needs d >= 2 copies")
    return JointState._factored(state.amps, d)


def _vector_of(state) -> np.ndarray:
    if isinstance(state, AmplitudeState):
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
    chordal metric on rays, 2 sin(theta / 2) at angle theta, so phase-equal
    states are at distance zero and orthonormal pairs at sqrt(2).  It is
    taken as the norm of the aligned difference (aligned_distances), exact
    to roundoff at any distance.
    """
    va, vb = _vector_of(a), _vector_of(b)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return float(aligned_distances(va, vb))


def aligned_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a - b_i <b_i, a> / |<b_i, a>| || for a vector a and b a vector of
    its length or a stack of them (rows b_i); the phase is 1 where
    <b_i, a> = 0.

    The phase <b_i, a> / |<b_i, a>| is the one that brings b_i nearest to
    a, so this is distance(a, b_i), read from the difference itself: the
    expanded form sqrt(||a||^2 + ||b||^2 - 2 |<a, b>|) cancels, and reads
    nothing below 2^-26 = 1.5e-8 for unit vectors.
    """
    overlap = b.conj().dot(a)
    mag = np.abs(overlap)
    phase = np.divide(overlap, mag, out=np.ones_like(overlap), where=mag != 0)
    diff = (a - b * phase[..., None]).view(np.float64)
    return np.sqrt((diff * diff).sum(axis=-1))


def dump_state_csv(state, path) -> None:
    """State dump: one row (basis_index, re, im) per amplitude."""
    vec = _vector_of(state)
    cells = float_strings(np.ascontiguousarray(vec).view(float))
    rows = csv_rows([list(map(str, range(vec.shape[0]))), cells[0::2], cells[1::2]])
    with open(path, "w", newline="") as f:
        f.write("basis_index,re,im\n" + rows)
