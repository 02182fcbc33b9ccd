"""Property tests of the sparse polynomial type shared by maps and systems.

Sparse maps and systems of degree 2 and 3 with n <= 6 are drawn from raw
monomial lists (unsorted multi-indices, repeated keys) and checked against
the monomial coefficients they were built from, their JSON documents, and
the forward-Euler identity.
"""

import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (OdeSystem, PolynomialMap, apply_map, euler_map,
                    map_from_doc, map_to_doc, system_from_doc, system_to_doc)
from qeuler.polysys import MIN_NORMAL
from conftest import unit_vector

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def polynomials(draw, cls, as_entries=False):
    """(monomial list, cls.from_monomials of it or None); repeated keys
    allowed.  None stands for a list that from_monomials refused, which it
    must do exactly when a summed coefficient is nonzero and below the
    normal float range.  With as_entries the summed list is read as tensor
    entries by the constructor, which takes every finite value."""
    n = draw(st.integers(1, 6))
    d = draw(st.sampled_from([2, 3]))
    part = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    entry = st.tuples(st.integers(1, n),
                      st.lists(st.integers(0, n), min_size=d, max_size=d),
                      part, part)
    monomials = [((alpha, tuple(index)), complex(re, im))
                 for alpha, index, re, im in draw(st.lists(entry, max_size=12))]
    kw = {}
    if cls is OdeSystem:
        kw["measure_preserving_claimed"] = draw(st.booleans())
    if as_entries:
        return monomials, cls(n, d, summed(monomials), **kw)
    if any(0 < abs(v) < MIN_NORMAL for v in summed(monomials).values()):
        with pytest.raises(ValueError, match="below the normal float range"):
            cls.from_monomials(n, d, monomials, **kw)
        return monomials, None
    return monomials, cls.from_monomials(n, d, monomials, **kw)


def summed(monomials) -> dict:
    """The monomial coefficients per (alpha, sorted multi-index), summed in
    the order from_monomials sums them."""
    expected: dict = {}
    for (alpha, index), value in monomials:
        key = (alpha, tuple(sorted(index)))
        expected[key] = expected.get(key, 0j) + value
    return expected


@PROPERTY_SETTINGS
@given(st.sampled_from([PolynomialMap, OdeSystem]).flatmap(polynomials))
def test_from_monomials_round_trips_monomial_coefficient(drawn):
    monomials, poly = drawn
    if poly is None:
        return
    expected = summed(monomials)
    for (alpha, mono), value in expected.items():
        for index in (mono, mono[::-1]):
            got = poly.monomial_coefficient(alpha, index)
            assert cmath.isclose(got, value, rel_tol=1e-14, abs_tol=0.0)
    assert set(poly.coeffs) == {k for k, v in expected.items() if v != 0}


@PROPERTY_SETTINGS
@given(polynomials(PolynomialMap))
def test_map_doc_round_trip(drawn):
    _, pmap = drawn
    if pmap is None:
        return
    assert map_from_doc(json.loads(json.dumps(map_to_doc(pmap)))) == pmap


@PROPERTY_SETTINGS
@given(polynomials(OdeSystem))
def test_system_doc_round_trip(drawn):
    _, sys = drawn
    if sys is None:
        return
    again = system_from_doc(json.loads(json.dumps(system_to_doc(sys))))
    assert again == sys
    assert again.measure_preserving_claimed is sys.measure_preserving_claimed


@PROPERTY_SETTINGS
@given(polynomials(OdeSystem, as_entries=True), st.floats(1e-3, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_euler_map_is_one_euler_step(drawn, h, seed):
    _, sys = drawn
    z = unit_vector(sys.n, seed)
    assert np.allclose(apply_map(euler_map(sys, h), z), z + h * sys.rhs(z),
                       rtol=1e-12, atol=1e-12)
