"""Discrete derivatives, Sobolev norms, operators, estimate ratios."""

import numpy as np
import pytest
import sympy as sp

from subelliptic import estimates as es
from subelliptic import fields
from subelliptic.domain import BoxDomain, GridFunction
from subelliptic.estimates import (DiscreteOperator, EllipticityError,
                                   apply_field_grid, apply_L, apply_word_grid,
                                   apriori_ratio, grid_from_expr,
                                   higher_order_ratio, interpolation_check,
                                   leibniz_expand, sobolev_norm)
from subelliptic.fields import (DilationFamily, HormanderSystem, Poly,
                                PolyVectorField, catalog_names, lie_bracket,
                                load_system, poly_to_sympy, word_apply_sympy)


def max_interior_gap(a, b, extra=0):
    sl = a.interior_slice(extra)
    return float(np.max(np.abs(a.values[sl] - b.values[sl])))


def test_stencil_exact_on_quadratics(g1, dom41, xs2):
    f = grid_from_expr(dom41, xs2[0] ** 2, xs2)
    g = apply_field_grid(g1.fields[0], f)
    oracle = grid_from_expr(dom41, 2 * xs2[0], xs2, margin=g.margin)
    assert max_interior_gap(g, oracle) < 1e-12


def test_degenerate_direction(g1, dom81, xs2):
    f = grid_from_expr(dom81, sp.sin(xs2[1]), xs2)
    g = apply_field_grid(g1.fields[1], f)
    oracle = grid_from_expr(dom81, xs2[0] * sp.cos(xs2[1]), xs2,
                            margin=g.margin)
    assert max_interior_gap(g, oracle) < 2e-3


def test_commutator_matches_bracket(g1, dom81, xs2):
    expr = es.bump_expr(xs2, (0.8, 0.7))
    f = grid_from_expr(dom81, expr, xs2)
    ab = apply_word_grid(g1, (0, 1), f)
    ba = apply_word_grid(g1, (1, 0), f)
    comm = ab - ba
    Z = lie_bracket(g1.fields[0], g1.fields[1])
    oracle_expr = sum(
        poly_to_sympy(c, xs2) * sp.diff(expr, xs2[k])
        for k, c in enumerate(Z.comps))
    oracle = grid_from_expr(dom81, oracle_expr, xs2, margin=comm.margin)
    assert max_interior_gap(comm, oracle) < 2e-2


def test_richardson_order(g1, dom81, xs2):
    expr = es.bump_expr(xs2, (0.7, 0.9))
    errs = []
    for dm in (dom81, dom81.refine(2)):
        f = grid_from_expr(dm, expr, xs2)
        g = apply_word_grid(g1, (1, 0), f)
        oracle = grid_from_expr(dm, word_apply_sympy(g1, (1, 0), expr, xs2),
                                xs2, margin=g.margin)
        errs.append(max_interior_gap(g, oracle))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_sobolev_zero_and_monotone(g1, dom41, xs2):
    z = GridFunction(dom41, np.zeros(dom41.counts))
    assert sobolev_norm(g1, z, 2, 2.0).total == 0.0
    f = grid_from_expr(dom41, es.bump_expr(xs2, (0.8, 0.8)), xs2)
    r1 = sobolev_norm(g1, f, 1, 2.0)
    r2 = sobolev_norm(g1, f, 2, 2.0)
    assert r2.total >= r1.total


def test_sobolev_refinement_oracle(g1, dom41, xs2):
    # Centred differences applied once per field are second order, so the
    # norm converges at O(h^2) and a single 41^2 grid (h = 0.1) is not
    # within 1% of the limit (8.3956 against 8.5611 at 161^2).  The test
    # checks that order, then that the Richardson value from 41^2 and 81^2
    # agrees with the 161^2 oracle.
    expr = es.bump_expr(xs2, (0.7, 0.8))
    totals = [sobolev_norm(g1, grid_from_expr(dom41.refine(k), expr, xs2),
                           2, 2.0).total for k in (1, 2, 4)]
    ratio = (totals[1] - totals[0]) / (totals[2] - totals[1])
    assert 3.5 <= ratio <= 4.5
    richardson = (4.0 * totals[1] - totals[0]) / 3.0
    assert richardson == pytest.approx(totals[2], rel=0.01)


def test_operator_gate_and_linearity(g1, dom41, xs2):
    with pytest.raises(EllipticityError):
        DiscreteOperator.constant(g1, np.diag([4.0, 1.0]), 0.5, dom41)
    op = DiscreteOperator.identity(g1, dom41)
    u = grid_from_expr(dom41, es.bump_expr(xs2, (0.7, 0.7)), xs2)
    Lu = apply_L(op, u)
    Lu2 = apply_L(op, u.scaled(2.0))
    assert np.allclose(Lu2.values, 2.0 * Lu.values)


def test_apply_L_oracle(g1, dom81, xs2):
    op = DiscreteOperator.identity(g1, dom81)
    expr = es.bump_expr(xs2, (0.8, 0.9))
    u = grid_from_expr(dom81, expr, xs2)
    Lu = apply_L(op, u)
    oracle_expr = word_apply_sympy(g1, (0, 0), expr, xs2) + \
        word_apply_sympy(g1, (1, 1), expr, xs2)
    oracle = grid_from_expr(dom81, oracle_expr, xs2, margin=Lu.margin)
    assert max_interior_gap(Lu, oracle) < 0.05


def test_apriori_scaling_invariance(g1, dom41, xs2):
    op = DiscreteOperator.identity(g1, dom41)
    u = grid_from_expr(dom41, es.bump_expr(xs2, (0.6, 0.6)), xs2)
    r1, _ = apriori_ratio(op, u, 2.0)
    r2, _ = apriori_ratio(op, u.scaled(7.0), 2.0)
    assert r1 == pytest.approx(r2, rel=1e-12)
    z = GridFunction(dom41, np.zeros(dom41.counts))
    assert apriori_ratio(op, z, 2.0)[0] == 0.0


def test_interpolation_check(g1, dom41, xs2):
    u = grid_from_expr(dom41, es.bump_expr(xs2, (0.6, 0.7)), xs2)
    records, cp = interpolation_check(g1, u, 0, 2.0, [0.25, 0.5, 1.0, 2.0])
    assert np.isfinite(cp) and cp >= 0
    # the first RHS term is linear in epsilon
    assert records[1].rhs_first == pytest.approx(2 * records[0].rhs_first)
    for r in records:
        assert r.lhs <= r.rhs_first + cp / r.eps * r.base + 1e-12


def test_leibniz_identity(g1, dom81, xs2):
    a = grid_from_expr(dom81, 2 + sp.sin(xs2[0]), xs2)
    w = grid_from_expr(dom81, es.bump_expr(xs2, (0.8, 0.8)), xs2)
    prod = GridFunction(dom81, a.values * w.values)
    for J in [(), (0,), (1,), (0, 1), (1, 1), (0, 1, 0)]:
        expanded = leibniz_expand(g1, J, a, w)
        direct = apply_word_grid(g1, J, prod)
        sl = expanded.interior_slice(1)
        gap = np.max(np.abs(expanded.values[sl] - direct.values[sl]))
        assert gap < 0.02, (J, gap)


def test_higher_order_reduces_to_apriori(g1, dom41, xs2):
    op = DiscreteOperator.identity(g1, dom41)
    u = grid_from_expr(dom41, es.bump_expr(xs2, (0.6, 0.6)), xs2)
    r0, _ = apriori_ratio(op, u, 2.0)
    assert higher_order_ratio(op, u, 0, 2.0) == pytest.approx(r0)
    r1 = higher_order_ratio(op, u, 1, 2.0)
    assert np.isfinite(r1) and r1 > 0


def _former_ratio(op, u, k, p):
    """The ratio with L u differentiated apart from the Sobolev walk, the
    former construction."""
    first = [apply_field_grid(f, u) for f in op.system.fields]
    out, margin = np.zeros(op.domain.counts), u.margin + 2
    for i in range(op.system.m):
        for j in range(op.system.m):
            a = op.entry(i, j)
            if np.any(a.values):
                second = apply_field_grid(op.system.fields[i], first[j])
                out += a.values * second.values
                margin = max(margin, second.margin, a.margin)
    Lu = GridFunction(op.domain, out, margin)
    denom = sobolev_norm(op.system, Lu, k, p).total + u.lp_norm(p)
    return sobolev_norm(op.system, u, k + 2, p).total / denom


def test_ratios_differentiate_once_per_word(monkeypatch, g1, dom41, xs2):
    u = grid_from_expr(dom41, es.bump_expr(xs2, (0.6, 0.7)), xs2)
    A = np.array([[1.2, 0.3], [0.3, 0.8]])
    for op in (DiscreteOperator.identity(g1, dom41),
               DiscreteOperator.constant(g1, A, 0.5, dom41)):
        assert apriori_ratio(op, u, 2.0)[0] == _former_ratio(op, u, 0, 2.0)
        assert higher_order_ratio(op, u, 1, 3.0) == \
            _former_ratio(op, u, 1, 3.0)
        Lu = apply_L(op, u)
        assert Lu.margin == u.margin + 2
    calls = []

    class Counted:
        """A field matrix that counts its products."""

        def __init__(self, mat):
            self.mat = mat

        def __matmul__(self, v):
            calls.append(1)
            return self.mat @ v

    real = es.field_matrix
    monkeypatch.setattr(es, "field_matrix",
                        lambda X, dom: Counted(real(X, dom)))
    apriori_ratio(DiscreteOperator.identity(g1, dom41), u, 2.0)
    assert len(calls) == 6         # 2 first- and 4 second-order words


def test_word_norms_are_keyed_in_operator_order(g1, dom41, xs2):
    # (i, j) holds ||X_i X_j f||, the word order of apply_word_grid
    f = grid_from_expr(dom41, es.bump_expr(xs2, (0.6, 0.7)), xs2)
    rep = sobolev_norm(g1, f, 3, 2.0)
    assert len(rep.word_norms) == 2 + 4 + 8
    for w, norm in rep.word_norms.items():
        assert norm == apply_word_grid(g1, w, f).lp_norm(2.0)


def test_vmo_style_coefficients_accepted(g1, dom41, xs2):
    # diagonal 1 + amp * (sin x1, cos x2): sin x1 sweeps [-1, 1] on the
    # box, so the eigenvalues stay within [nu, 1/nu] only if
    # amp <= 1 - nu = 0.75; amp = 0.9375 gives a11 = 0.0629 at x1 = -1.6
    # and the gate must refuse it
    nu = 0.25

    def coeffs(amp):
        return {(0, 0): grid_from_expr(dom41, 1 + amp * sp.sin(xs2[0]), xs2),
                (1, 1): grid_from_expr(dom41, 1 + amp * sp.cos(xs2[1]), xs2)}

    with pytest.raises(EllipticityError):
        DiscreteOperator(g1, coeffs(0.9375), nu, dom41)
    op = DiscreteOperator(g1, coeffs(0.6), nu, dom41)
    u = grid_from_expr(dom41, es.bump_expr(xs2, (0.6, 0.6)), xs2)
    r, _ = apriori_ratio(op, u, 2.0)
    assert np.isfinite(r) and r > 0


def _gradient_field(X, f):
    """X f from np.gradient times the coefficients at the nodes, the former
    construction."""
    dom = f.domain
    grads = np.gradient(f.values, *dom.spacing, edge_order=1)
    if dom.dim == 1:
        grads = [grads]
    pts = dom.points()
    out = np.zeros(dom.counts)
    for k, c in enumerate(X.comps):
        if not c.is_zero():
            out += c(pts).reshape(dom.counts) * grads[k]
    return out


def _boxes_and_systems():
    x = Poly.variable(1, 0)
    one_d = HormanderSystem("one_d", [PolyVectorField(
        [Poly.constant(1, 1) + x * x])], DilationFamily((1,)))
    yield BoxDomain((-1.5,), (2.0,), (17,)), one_d
    for name in ("grushin1", "grushin2"):
        for counts in ((41, 41), (5, 9)):
            yield BoxDomain((-2, -1), (1.5, 2), counts), load_system(name)
    yield BoxDomain((-1, -2, -1.5), (2, 1, 1.5), (7, 9, 11)), \
        load_system("example3")


def test_field_matrices_match_the_gradient_construction():
    # every node, the face nodes included
    assert {name for name in catalog_names()
            if load_system(name).n == 2} == {"grushin1", "grushin2"}
    rng = np.random.default_rng(11)
    for dom, system in _boxes_and_systems():
        f = GridFunction(dom, rng.standard_normal(dom.counts), 2)
        for X in system.fields:
            got = apply_field_grid(X, f)
            ref = _gradient_field(X, f)
            assert got.margin == 3
            assert np.max(np.abs(got.values - ref)) <= \
                1e-13 * np.max(np.abs(ref))


def test_field_matrices_converge_to_the_symbolic_words(xs2):
    # second order on every word of length 1 and 2, as test_richardson_order
    expr = es.bump_expr(xs2, (0.7, 0.9))
    coarse = BoxDomain((-2, -2), (2, 2), (81, 81))
    for name in ("grushin1", "grushin2"):
        system = load_system(name)
        for word in ((0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)):
            oracle = word_apply_sympy(system, word, expr, xs2)
            errs = []
            for dm in (coarse, coarse.refine(2)):
                g = apply_word_grid(system, word, grid_from_expr(dm, expr,
                                                                 xs2))
                errs.append(max_interior_gap(g, grid_from_expr(
                    dm, oracle, xs2, margin=g.margin)))
            assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_field_matrix_cache_is_keyed_by_box_and_bounded(g1):
    X = g1.fields[1]
    es.field_matrix.cache_clear()
    a = es.field_matrix(X, BoxDomain((-2, -2), (2, 2), (9, 9)))
    assert es.field_matrix(X, BoxDomain((-2, -2), (2, 2), (9, 9))) is a
    b = es.field_matrix(X, BoxDomain((-2, -2), (2, 3), (9, 9)))
    assert b is not a and es.field_matrix.cache_info().misses == 2
    assert es.field_matrix(fields.grushin(1).fields[1],
                           BoxDomain((-2, -2), (2, 2), (9, 9))) is a
    for arr in (a.data, a.indices, a.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    for n in range(es._FIELD_MATRIX_LIMIT + 2):
        es.field_matrix(X, BoxDomain((-2, -2), (2, 2), (9, 5 + n)))
    info = es.field_matrix.cache_info()
    assert info.maxsize == es._FIELD_MATRIX_LIMIT
    assert info.currsize == es._FIELD_MATRIX_LIMIT
