"""Symbolic layer: polynomials, brackets, dilations, closure, catalog."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subelliptic import fields
from subelliptic.fields import (ClosureError, DilationFamily,
                                HormanderSystem, Poly, PolyVectorField,
                                check_homogeneity, hormander_rank,
                                lie_bracket, lie_closure)


def random_field(n, rng_data, max_degree=2):
    comps = []
    for k in range(n):
        terms = {}
        for e, c in rng_data[k]:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
        comps.append(Poly(n, terms))
    return PolyVectorField(comps)


@st.composite
def poly_fields(draw, n=2):
    data = []
    for _ in range(n):
        n_terms = draw(st.integers(0, 3))
        entries = []
        for _ in range(n_terms):
            e = [draw(st.integers(0, 2)) for _ in range(n)]
            c = draw(st.integers(-3, 3))
            entries.append((e, c))
        data.append(entries)
    return random_field(n, data)


@settings(max_examples=40, deadline=None)
@given(poly_fields(), poly_fields())
def test_bracket_antisymmetry(X, Y):
    assert lie_bracket(X, Y) == lie_bracket(Y, X).scale(-1)


@settings(max_examples=25, deadline=None)
@given(poly_fields(), poly_fields(), poly_fields())
def test_jacobi_identity(X, Y, Z):
    total = (lie_bracket(X, lie_bracket(Y, Z)) +
             lie_bracket(Y, lie_bracket(Z, X)) +
             lie_bracket(Z, lie_bracket(X, Y)))
    assert total.is_zero()


@settings(max_examples=30, deadline=None)
@given(poly_fields(), st.integers(0, 1))
def test_poly_derivative_matches_fd(X, axis):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(5, 2))
    h = 1e-6
    for p in X.comps:
        dp = p.diff(axis)
        e = np.zeros(2)
        e[axis] = h
        fd = (p(pts + e) - p(pts - e)) / (2 * h)
        assert np.allclose(dp(pts), fd, atol=1e-5)


def test_catalog_structure():
    expected_q = {"grushin1": 3, "grushin2": 4, "example2_3": 6,
                  "example3": 6}
    for name, q in expected_q.items():
        sys_ = fields.load_system(name)
        assert sys_.q == q
        assert check_homogeneity(sys_)
        closure = lie_closure(sys_)
        assert closure.N > sys_.n
        assert hormander_rank(closure, np.zeros(sys_.n)) == sys_.n


def test_homogeneity_negative_control():
    # x1 d2 with sigma = (1, 1) is not 1-homogeneous
    n = 2
    X1 = PolyVectorField([Poly.constant(n, 1), Poly.zero(n)])
    X2 = PolyVectorField([Poly.zero(n), Poly.monomial(n, (1, 0))])
    bad = HormanderSystem(name="bad", fields=[X1, X2],
                          dilations=DilationFamily((1, 1)))
    assert not check_homogeneity(bad)


def test_dilation_weight_bookkeeping():
    d = DilationFamily((1, 2, 3))
    assert d.homogeneous_dimension == 6
    assert d.weight((2, 1, 0)) == 4
    x = np.array([1.0, 1.0, 1.0])
    assert np.allclose(d.apply(2.0, x), [2.0, 4.0, 8.0])


def test_json_roundtrip():
    sys_ = fields.load_system("example3")
    doc = fields.system_to_json(sys_)
    back = fields.system_from_json(doc)
    assert back.fields == sys_.fields
    assert back.dilations == sys_.dilations


def test_closure_dimensions():
    assert lie_closure(fields.grushin(1)).N == 3
    assert lie_closure(fields.example3()).N == 4


def test_closure_past_max_depth_names_the_leftover_brackets():
    # grushin(2) needs depth 3; both depth-3 brackets that reach d2,
    # [[X1, X2], X1] and [[X2, X1], X1], are named
    with pytest.raises(ClosureError, match=r"\[\(0, 1, 0\), \(1, 0, 0\)\]"):
        lie_closure(fields.grushin(2), max_depth=2)
    assert lie_closure(fields.grushin(2), max_depth=3).words == \
        [(0,), (1,), (0, 1), (0, 1, 0)]
