"""Amplitude encoding between variable vectors and state vectors.

A vector z in C^n with ||z|| = 1 is stored as the (n+1)-dimensional state
(1/sqrt(2)) (|0> + sum_j z_j |j>).  The fixed amplitude on |0> (the anchor)
realises the z_0 = 1 padding convention and pins the global phase on decode.

Joint states hold d encoded registers plus one ancilla qubit, flattened
ancilla-slowest: index = ancilla * (n+1)^d + r, where r runs over register
tuples (k_1, ..., k_d) with k_1 slowest.

A joint state is the product x^(x)d (x) |0> from tensor_power, held as its
factor x, whose full amplitude vector is built only when `amps` is read, or
that product after one step (nonlin_step.apply_step), held as the full
vector the step writes.  DEFAULT_DIM_CAP bounds every full vector.  The
drivers build no joint state: JointState, tensor_power and
nonlin_step.apply_step are the single-state form of a step, which the tests
and perfbench's joint-norm probe read.

States hold read-only complex amplitudes.  AmplitudeState and JointState
copy a writeable input or a view; a fresh array the caller has set
read-only is taken over without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._util import csv_rows, float_strings

ANCHOR = math.sqrt(0.5)

# The tolerance of the norm check on a joint state and on a register state.
JOINT_NORM_TOL = 1e-10
STATE_NORM_TOL = 1e-12
# decode refuses a state whose anchor amplitude is below this.
ANCHOR_FLOOR = 1e-6

# A JointState refuses to build a register space beyond this many
# amplitudes; nothing else allocates one.
DEFAULT_DIM_CAP = 4_000_000

_FLOAT64 = np.dtype(np.float64)  # a dtype test against np.float64 converts it each time


def vector_norm(v: np.ndarray):
    """||v|| of a vector (a float) or of each row of a 2-D stack (an array),
    summed as np.linalg.norm sums a complex vector, so bit-identical to it:
    the BLAS dot of the real parts (alone for a float64 vector) plus that
    of the imaginary parts, which np.vecdot takes row by row."""
    if v.ndim == 1 and v.dtype == _FLOAT64:
        return math.sqrt(v.dot(v))
    re, im = v.real, v.imag
    if v.ndim == 1:
        return math.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for each row i of two complex or two float64 stacks of
    one shape: one np.vecdot of their float64 views."""
    return np.vecdot(a.view(np.float64), b.view(np.float64))


def _owned(arr) -> np.ndarray:
    """arr as a read-only complex array no caller can write to: a writeable
    input or a view is copied, a fresh read-only array taken over."""
    out = np.asarray(arr, dtype=complex)
    if out is arr and (out.flags.writeable or out.base is not None):
        out = out.copy()
    out.flags.writeable = False
    return out


def _check_norm(what: str, tol: float, norm2) -> None:
    """Refuse a `what` state of squared norm norm2, or any of an array of
    them, off 1 beyond tol, negative or NaN."""
    with np.errstate(invalid="ignore"):  # a negative norm2's root is NaN
        nrm = np.sqrt(norm2)
    if not abs(nrm - 1.0).max(initial=0.0) <= tol:
        raise ValueError(f"{what} norm {nrm} deviates from 1 beyond {tol}")


_check_state_norm = partial(_check_norm, "state", STATE_NORM_TOL)
_check_joint_norm = partial(_check_norm, "joint", JOINT_NORM_TOL)


def product_at(x: np.ndarray, digits) -> np.ndarray:
    """x^(x)d at the register indices whose digits are k_1 = digits[0],
    ..., k_d = digits[d-1] (d >= 2 index arrays, the rows of an array or a
    tuple): prod_j x[digits[j]], multiplied in place in the order the tensor
    power multiplies, in O(K d) for K indices.  A stack's rows held end to
    end in x take digits offset by the row length for each row."""
    out = x[digits[0]]
    for k in digits[1:]:
        out *= x[k]
    return out


@dataclass(frozen=True)
class AmplitudeState:
    """Normalized (n+1)-dimensional state vector; amps[0] is the anchor."""

    amps: np.ndarray

    def __post_init__(self):
        amps = _owned(self.amps)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError("state must be a 1-D vector of length >= 2")
        _check_state_norm(np.vdot(amps, amps).real)
        object.__setattr__(self, "amps", amps)

    @property
    def n(self) -> int:
        return self.amps.shape[0] - 1


@dataclass(frozen=True, eq=False)
class JointState:
    """factor^(x)d (x) |0>, d encoded registers and one ancilla qubit (see
    the module docstring), or its stepped form from apply_step, whose full
    amplitude vector is `stepped`.  Both arrays are held read-only and
    complex, as AmplitudeState holds its amplitudes, and the joint norm is
    checked to JOINT_NORM_TOL: the product's as ||factor||^(2d), a stepped
    state's as its vector's.
    """

    factor: np.ndarray
    d: int
    stepped: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "factor", _owned(self.factor))
        if self.stepped is None:
            _check_joint_norm(np.vdot(self.factor, self.factor).real ** self.d)
        else:
            object.__setattr__(self, "stepped", _owned(self.stepped))
            _check_joint_norm(np.vdot(self.stepped, self.stepped).real)

    @property
    def n(self) -> int:
        return self.factor.shape[0] - 1

    @property
    def register_dim(self) -> int:
        return (self.n + 1) ** self.d

    @cached_property
    def amps(self) -> np.ndarray:
        """The full 2 (n+1)^d amplitude vector (read-only; built once)."""
        amps = self._product_vector() if self.stepped is None else self.stepped
        amps.flags.writeable = False
        return amps

    def _product_vector(self) -> np.ndarray:
        """A new writable 2 (n+1)^d vector holding factor^(x)d (x) |0>,
        refused beyond DEFAULT_DIM_CAP."""
        D, x = self.register_dim, self.factor
        if D > DEFAULT_DIM_CAP:
            raise ValueError(f"register dimension {self.n + 1}^{self.d} = {D} "
                             f"exceeds cap {DEFAULT_DIM_CAP} on building the "
                             "full amplitude vector")
        amps = np.zeros(2 * D, dtype=complex)
        head = x
        for _ in range(self.d - 2):
            head = np.multiply.outer(head, x)
        np.multiply.outer(head, x, out=amps[:D].reshape(head.shape + x.shape))
        return amps


def encode(z: np.ndarray) -> AmplitudeState:
    """Encode a finite unit vector; the anchor amplitude is exactly 1/sqrt(2).
    The state's norm is checked to STATE_NORM_TOL, so ||z||^2 to 1 within about 4e-12."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("z must be a 1-D vector of length >= 1")
    if not np.isfinite(z).all():
        raise ValueError("z has a non-finite entry")
    amps = np.empty(z.shape[0] + 1, dtype=complex)
    amps[0] = ANCHOR
    np.multiply(z, ANCHOR, out=amps[1:])
    amps.flags.writeable = False  # a fresh read-only array: the state takes it over
    return AmplitudeState(amps)


def decode(state) -> np.ndarray:
    """Recover z_j = amps[j] / amps[0] from a state, or from each row of a
    stack of state vectors (..., n+1).

    Division by the anchor makes the result invariant under a global phase
    and returns the exact (possibly unnormalized) coordinate vector the
    state represents projectively.  An anchor below ANCHOR_FLOOR or NaN is refused.
    """
    amps = _vector_of(state)
    anchors = amps[..., :1]
    if not abs(anchors).min(initial=np.inf) >= ANCHOR_FLOOR:
        raise ValueError("anchor amplitude vanished; state is not decodable")
    return amps[..., 1:] / anchors


def tensor_power(state: AmplitudeState, d: int) -> JointState:
    """d copies of the state with the ancilla set to |0>, held as its
    factor: nothing of the joint dimension is allocated until amps is read."""
    if d < 2:
        raise ValueError("tensor power needs d >= 2 copies")
    return JointState(state.amps, d)


def _vector_of(state) -> np.ndarray:
    if isinstance(state, AmplitudeState):
        return state.amps
    return np.asarray(state, dtype=complex)


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
    nothing below 2^-26 = 1.5e-8 for unit vectors.  np.vecdot conjugates b
    row by row, so a stack reads each row's distance and a row equal to a 0.
    """
    overlap = np.vecdot(b, a)
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
