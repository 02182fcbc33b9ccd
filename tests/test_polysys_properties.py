"""Property tests of the sparse polynomial type shared by maps and systems.

Sparse maps and systems of degree 2 and 3 with n <= 6 are drawn from raw
monomial lists (unsorted multi-indices, repeated keys) and checked against
the monomial coefficients they were built from, their JSON documents, and
the forward-Euler identity.  The array canonicaliser is checked against the
dict path it replaced (conftest's reference_*): the same terms in the same
order, bit-identical evaluations, Euler maps and operators, and the same
refusals.
"""

import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (OdeSystem, PolynomialMap, apply_map, build_A, euler_map,
                    map_from_doc, map_to_doc, system_from_doc, system_to_doc)
from qeuler.polysys import MIN_NORMAL, SparsePolynomial, _sparsity_stats
from conftest import (reference_entries, reference_euler_map,
                      reference_from_monomials, reference_sparsity_stats,
                      reference_terms, unit_vector)

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


# Parts include zeros of both signs and values whose sums fall below the
# normal range.
PART = st.one_of(st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                 st.sampled_from([0.0, -0.0, 5e-324, -1e-310, MIN_NORMAL]))


@st.composite
def raw_pairs(draw, degrees):
    """(n, degree, pairs) with unsorted multi-indices and repeated keys;
    the first key may carry a non-integer part."""
    n = draw(st.integers(1, 6))
    d = draw(st.sampled_from(degrees))
    entry = st.tuples(st.integers(1, n),
                      st.lists(st.integers(0, n), min_size=d, max_size=d),
                      PART, PART)
    pairs = [((alpha, tuple(index)), complex(re, im))
             for alpha, index, re, im in draw(st.lists(entry, max_size=12))]
    if pairs:  # keys met three times and more, with their indices reversed
        for i, re, im in draw(st.lists(st.tuples(st.integers(0, len(pairs) - 1),
                                                 PART, PART), max_size=8)):
            (alpha, index), _ = pairs[i]
            pairs.append(((alpha, index[::-1]), complex(re, im)))
    if pairs and draw(st.booleans()):
        (alpha, index), value = pairs[0]
        bad = draw(st.sampled_from([1.5, True, "1", None]))
        key = (bad, index) if draw(st.booleans()) else (alpha, (bad,) + index[1:])
        pairs[0] = (key, value)
    return n, d, pairs


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _assert_same_terms(poly, reference: dict):
    assert list(poly.coeffs) == list(reference)
    assert poly.entries.tobytes() == np.array(list(reference.values()),
                                              dtype=complex).tobytes()


def _assert_same_operator(pmap, reference: dict):
    want = build_A(reference_terms(reference, pmap.n, pmap.degree))
    got = build_A(pmap)
    for name in ("rows", "cols", "vals", "perm"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([PolynomialMap, OdeSystem]), st.booleans(), st.data(),
       st.floats(1e-3, 1.0), st.integers(0, 2 ** 32 - 1))
def test_array_path_matches_dict_reference(cls, monomial, data, h, seed):
    n, d, pairs = data.draw(raw_pairs([2, 3] if cls is PolynomialMap else [1, 2, 3]))
    got = _outcome(cls.from_monomials if monomial else cls, n, d, pairs)
    want = _outcome(reference_from_monomials if monomial else reference_entries,
                    pairs, n, d)
    if isinstance(want, str):
        assert got == want
        return
    _assert_same_terms(got, want)
    z = unit_vector(n, seed)
    ref_z = SparsePolynomial._evaluate(reference_terms(want, n, d), z)
    assert got._evaluate(z).tobytes() == ref_z.tobytes()
    if cls is PolynomialMap:
        _assert_same_operator(got, want)
        assert _sparsity_stats(got) == reference_sparsity_stats(want)
        return
    emap, ref_map = euler_map(got, h), reference_euler_map(want, n, d, h)
    _assert_same_terms(emap, ref_map)
    ref_z = SparsePolynomial._evaluate(reference_terms(ref_map, n, emap.degree), z)
    assert apply_map(emap, z).tobytes() == ref_z.tobytes()
    _assert_same_operator(emap, ref_map)


def test_repeated_monomials_sum_in_input_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit
    pairs = [((1, (0, 1)), 0.1), ((1, (1, 0)), 0.2), ((1, (0, 1)), 0.3)]
    _assert_same_terms(PolynomialMap.from_monomials(1, 2, pairs),
                       reference_from_monomials(pairs, 1, 2))
