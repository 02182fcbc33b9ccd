"""Shared builders and independent oracles for the test suite."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import strategies as st

from qeuler import JointState, PolynomialMap, apply_step, rng_stream


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
def sparse_maps(draw, max_n=5, degrees=(2, 3)):
    """Random PolynomialMap of a degree in degrees (2 or 3 by default) on
    n <= max_n variables, with up to 12 entries of real and imaginary parts
    in [-2, 2]."""
    n = draw(st.integers(1, max_n))
    d = draw(st.sampled_from(degrees))
    part = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    entry = st.tuples(st.integers(1, n),
                      st.lists(st.integers(0, n), min_size=d, max_size=d),
                      part, part)
    coeffs = {(alpha, tuple(sorted(mono))): complex(re, im)
              for alpha, mono, re, im in draw(st.lists(entry, max_size=12))}
    return PolynomialMap(n, d, coeffs)


def unit_vector(n, seed, real=False):
    rng = rng_stream(seed)
    v = rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n))
    return v.astype(complex) / np.linalg.norm(v)


def dense_matrix(apply, dim):
    """Matrix of the linear map `apply` on C^dim, column by column from its
    action on the identity columns."""
    return np.column_stack([apply(e) for e in np.eye(dim, dtype=complex)])


# Dense reference forms of an AnchorOperator, which the library never needs.

def to_dense(A) -> np.ndarray:
    """The full D x D matrix of A, written from its triplets."""
    D = A.register_dim
    dense = np.zeros((D, D), dtype=complex)
    dense[A.anchor_indices[A.rows], A.cols] = A.vals
    return dense


def dense_gram(A) -> np.ndarray:
    """B B^dag from the dense (n+1) x K block of B's nonzero columns."""
    block = np.zeros((A.n + 1, A.nonzero_cols.shape[0]), dtype=complex)
    block[A.rows, A.col_of] = A.vals
    return block @ block.conj().T


def rmatvec(A, x) -> np.ndarray:
    """B^dag x for x in C^(n+1), scattered into a zero D-vector."""
    out = np.zeros(A.register_dim, dtype=complex)
    out[A.nonzero_cols] = A.rmatvec_nonzero(x)
    return out


def apply(A, u) -> np.ndarray:
    """A u for u in C^D."""
    out = np.zeros(A.register_dim, dtype=complex)
    out[A.anchor_indices] = A.matvec_nonzero(u[A.nonzero_cols])
    return out


def apply_adjoint(A, v) -> np.ndarray:
    """A^dag v for v in C^D."""
    return rmatvec(A, v[A.anchor_indices])


def dense_step_unitary(op):
    """The 2D x 2D matrix of apply_step, which the library never forms."""
    n, d = op.A.n, op.degree
    return dense_matrix(lambda e: apply_step(JointState(e, n=n, d=d), op).amps,
                        2 * op.A.register_dim)


@pytest.fixture
def doubling_map():
    from qeuler import power_map

    return power_map(2)


@pytest.fixture
def swap_map():
    from qeuler import permutation_map

    return permutation_map([2, 1])
