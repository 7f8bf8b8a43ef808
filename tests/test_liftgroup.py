"""Group lifts, calibration constants, fundamental solutions, cutoffs."""

import dataclasses
import itertools
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import sympy as sp
from hypothesis import given, settings, strategies as st

from subelliptic import kernels, liftgroup, pool
from subelliptic.domain import BoxDomain
from subelliptic.fields import Poly, PolyVectorField, word_apply_sympy
from subelliptic.liftgroup import (GrushinGamma, HeisenbergGamma,
                                   cutoff_family, lift_example3,
                                   lift_grushin1, normalization_constant,
                                   reproduction_residual, spd_sweep,
                                   sqrt_spd, verify_lift)

coords = st.lists(st.floats(-2, 2, allow_nan=False, width=32),
                  min_size=3, max_size=3)


def test_verify_both_lifts(lift1):
    assert verify_lift(lift1).passed
    assert verify_lift(lift_example3()).passed


def _law_with(k, terms):
    law = list(lift_grushin1().law)
    law[k] = Poly(6, terms)
    return {"law": law}


def _inverse_with(k, terms):
    inv = list(lift_grushin1().inverse_map)
    inv[k] = Poly(3, terms)
    return {"inverse_map": inv}


def _y2_with(comp1, comp2):
    Y1, _ = lift_grushin1().fields
    return {"fields": [Y1, PolyVectorField([Poly.zero(3), Poly(3, comp1),
                                            Poly(3, comp2)])]}


# one broken copy of the Heisenberg lift per claim: the law is
# (u*v)_2 = u2 + v2 + u1 v3, the inverse (-u1, -u2 + u1 u3, -u3), and
# Y2 = x1 d2 + d_xi (x1^1 in component 1, the constant 1 in component 2)
_BROKEN = {
    "law coefficient": ("group_axioms", _law_with(1, {
        (0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0): 2,
        (1, 0, 0, 0, 0, 1): 1})),
    # off by 1e-12: below any floating-point tolerance, caught exactly
    "law coefficient 1e-12": ("group_axioms", _law_with(1, {
        (0, 1, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 1, 0): 1 + Fraction(1, 10 ** 12),
        (1, 0, 0, 0, 0, 1): 1})),
    "inverse": ("group_axioms", _inverse_with(1, {(0, 1, 0): -1})),
    "law weight": ("dilation_automorphism", _law_with(1, {
        (0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0): 1,
        (1, 0, 0, 0, 0, 1): 1, (1, 0, 0, 0, 0, 0): 1})),
    "field weight": ("fields_homogeneous",
                     _y2_with({(1, 0, 0): 1}, {(0, 0, 0): 1, (1, 0, 0): 1})),
    "fiber in base": ("projects_to_base",
                      _y2_with({(1, 0, 0): 1, (0, 0, 1): 1}, {(0, 0, 0): 1})),
    "not left invariant": ("left_invariant",
                           _y2_with({(1, 0, 0): 1}, {(0, 0, 0): 2})),
}


@pytest.mark.parametrize("name", sorted(_BROKEN))
def test_verify_lift_catches_each_broken_claim(name):
    flag, change = _BROKEN[name]
    report = verify_lift(dataclasses.replace(lift_grushin1(), **change))
    assert getattr(report, flag) is False
    assert not report.passed and report.details


def test_engel_lift_dimensions():
    lift = lift_example3()
    assert lift.N == 4 and lift.p == 1
    assert tuple(lift.weights) == (1, 2, 3, 1)
    assert lift.Q == 7


@settings(max_examples=50, deadline=None)
@given(coords, st.floats(0.1, 4.0))
def test_norm_dilation_homogeneity(lift1, u, lam):
    u = np.array(u)
    lhs = lift1.hom_norm(lift1.dilate(lam, u))
    assert np.isclose(lhs, lam * lift1.hom_norm(u), rtol=1e-9, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(coords, coords)
def test_inverse_is_involution(lift1, u, v):
    u, v = np.array(u), np.array(v)
    uv = lift1.multiply(u, v)
    back = lift1.multiply(lift1.inverse(v), lift1.inverse(u))
    assert np.allclose(lift1.inverse(uv), back, atol=1e-9)


def test_equivalence_constants(eq1):
    assert 0 < eq1.gamma1 < eq1.gamma2
    assert eq1.samples > 1000
    # bitwise outputs of value iteration on the 41^3 field
    assert eq1.gamma1 == 0.44628798639216904
    assert eq1.gamma2 == 3.678746180267586
    assert eq1.samples == 6442


def test_sqrt_spd():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    S = sqrt_spd(A)
    assert np.allclose(S @ S, A)
    with pytest.raises(ValueError):
        sqrt_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_gamma_annihilated_by_operator(lift1):
    # the sublaplacian of the candidate kernel vanishes off the pole
    us = liftgroup._H_SYMS
    gamma = liftgroup._gamma_unit_expr(*us)
    L = sum(word_apply_sympy(lift1, (j, j), gamma, us) for j in range(2))
    pts = [(0.3, 0.1, -0.2), (1.0, -0.5, 0.4), (-0.7, 0.2, 0.9)]
    fn = sp.lambdify(us, sp.simplify(L), "numpy")
    for p in pts:
        assert abs(fn(*p)) < 1e-9


def test_gamma_homogeneity_degree():
    g = HeisenbergGamma()
    u = np.array([[0.5, 0.3, -0.4], [1.1, -0.2, 0.6]])
    lam = 3.0
    v = g.lift.dilate(lam, u)
    # Gamma is homogeneous of degree 2 - Q = -2
    assert np.allclose(g.value(v), lam ** -2 * g.value(u), rtol=1e-10)


def test_automorphism_words_match_per_matrix_sympy(lift1,
                                                   transported_gamma_expr):
    # HeisenbergGamma(A) evaluates Y-words of Gamma_A through psi_A and the
    # compiled Gamma_I words; differentiating the transported Gamma_A
    # directly in sympy must give the same values
    rng = np.random.default_rng(4)
    u = rng.uniform(-1.5, 1.5, (2000, 3))
    us = liftgroup._H_SYMS
    words = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    for A in spd_sweep(3):
        g = HeisenbergGamma(A)
        expr = transported_gamma_expr(A)
        for word in words:
            ref = sp.lambdify(us, word_apply_sympy(lift1, word, expr, us),
                              "numpy")(
                u[:, 0], u[:, 1], u[:, 2])
            got = g.word_fn(word)(u[:, 0], u[:, 1], u[:, 2])
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_reproduction_identity_and_sweep():
    g = HeisenbergGamma()
    xs = np.array([[0.2, -0.1, 0.15], [-0.25, 0.2, -0.1]])
    bump = liftgroup._gaussian_bump((1.2, 0.9, 1.3))
    assert reproduction_residual(g, bump, xs) <= 5e-3


def test_normalization_constant_pinned():
    # the streamed cubature's blocks and the order in which their partial
    # sums are added are fixed, so the value is bitwise the same on one
    # worker and on several
    assert normalization_constant() == -0.15947993314451175


def test_catalog_lifts_and_calibrations_are_memoized(eq1):
    # each catalog lift is one object per process and lifts hash by
    # identity, so every caller hits the lift-keyed caches; a miss on
    # calibrate_equivalence would rerun the 41^3 value iteration
    assert lift_grushin1() is lift_grushin1()
    assert lift_example3() is lift_example3()
    assert HeisenbergGamma().lift is lift_grushin1()
    assert (liftgroup.calibrate_equivalence(lift_grushin1())
            is liftgroup.calibrate_equivalence(lift_grushin1()))
    assert liftgroup.calibrate_equivalence(lift_grushin1()) is eq1


def _within(seconds, fn):
    """fn() on a daemon thread; fails unless it returns within `seconds`."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"did not return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_ordered_map_keeps_item_order(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)

    def square_late(k):
        # earlier items finish last
        time.sleep(0.005 * (8 - k))
        return k * k

    got = _within(30, lambda: pool._ordered_map(square_late, range(8)))
    assert got == [k * k for k in range(8)]


def test_ordered_map_raises_worker_exception(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)

    class Boom(ValueError):
        pass

    def fail_at_three(k):
        if k == 3:
            raise Boom(k)
        return k

    with pytest.raises(Boom):
        _within(30, lambda: pool._ordered_map(fail_at_three, range(6)))


def test_ordered_map_nested_runs_inline(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)

    def outer(k):
        me = threading.get_ident()
        inner = pool._ordered_map(
            lambda m: (threading.get_ident(), k * m), range(4))
        return me, inner

    got = _within(30, lambda: pool._ordered_map(outer, range(4)))
    for k, (me, inner) in enumerate(got):
        assert me != threading.get_ident()
        assert inner == [(me, k * m) for m in range(4)]


def test_ordered_maps_leave_no_threads_behind(monkeypatch):
    # 200 maps: each joins its workers before it returns
    monkeypatch.setattr(pool, "_WORKERS", 2)
    before = threading.active_count()
    for k in range(200):
        assert _within(30, lambda: pool._ordered_map(
            lambda m: k * m, range(4))) == [0, k, 2 * k, 3 * k]
        assert threading.active_count() == before


def test_ordered_imap_runs_a_bounded_way_ahead(monkeypatch):
    # the workers start at most two items per worker beyond the ones the
    # caller has taken, plus the one submitted before the next is yielded
    monkeypatch.setattr(pool, "_WORKERS", 2)
    started, ahead = [], []

    def record(k):
        started.append(k)
        return k

    def consume():
        out = []
        for k in pool._ordered_imap(record, range(20)):
            time.sleep(0.002)
            ahead.append(len(started) - len(out))
            out.append(k)
        return out

    assert _within(30, consume) == list(range(20))
    assert max(ahead) <= 2 * pool._WORKERS + 1


def _convolution_one_shot(gamma_fn, Lu, xs):
    """The calibration cubature of _convolution_integrals, each level
    summed whole."""
    v0, w0, per_level = liftgroup._graded_levels((8.0,) * 3, 128, 3,
                                                 (4.0,) * 3)
    out = np.zeros(len(xs))
    for scale, keep in per_level:
        z = v0[keep] * scale
        wG = w0 * float(np.prod(scale)) * gamma_fn(z[:, 0], z[:, 1], z[:, 2])
        for n, x in enumerate(xs):
            out[n] += np.sum(wG * Lu(x[0] - z[:, 0],
                                     x[1] - z[:, 1] + z[:, 0] * z[:, 2]
                                     - x[0] * z[:, 2], x[2] - z[:, 2]))
    return out


def test_convolution_blocks_independent_of_workers(monkeypatch):
    # the blocks and the order of their partial sums are fixed, so the
    # result is bitwise the same on one worker and on several
    gamma_fn = HeisenbergGamma().word_fn(())

    def Lu(y1, y2, y3):
        # any smooth decaying integrand will do; this one keeps the one-shot
        # oracle's whole-level temporaries small
        return np.exp(-(y1 * y1 + 0.5 * y2 * y2 + y3 * y3))

    xs = np.array([[0.4, 0.1, -0.2]])
    monkeypatch.setattr(pool, "_WORKERS", max(pool._WORKERS, 2))
    many = liftgroup._convolution_integrals(gamma_fn, Lu, xs)
    monkeypatch.setattr(pool, "_WORKERS", 1)
    one = liftgroup._convolution_integrals(gamma_fn, Lu, xs)
    assert np.array_equal(one, many)
    ref = _convolution_one_shot(gamma_fn, Lu, xs)
    assert np.max(np.abs(many - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fiber_constants(fib1):
    assert 0 < fib1.kappa <= 1.0
    assert 0 < fib1.c_lower <= fib1.c_upper
    assert fib1.c_lower >= fib1.floor
    # bitwise outputs of value iteration on the 41^3 field
    assert fib1.kappa == 0.95
    assert fib1.c_lower == 0.1287128712871287
    assert fib1.c_upper == 1.9836065573770494


def test_base_gamma_symmetry():
    G = GrushinGamma()
    x = np.array([0.4, 0.2])
    y = np.array([-0.3, 0.5])
    assert G.value(x, y) == pytest.approx(G.value(y, x), rel=1e-3)


def test_base_gamma_scaling():
    G = GrushinGamma()
    x = np.array([0.3, 0.2])
    y = np.array([-0.2, 0.45])
    lam = 2.0
    dil = lambda z: np.array([lam * z[0], lam ** 2 * z[1]])
    # joint homogeneity of degree 2 - q = -1
    assert G.value(dil(x), dil(y)) == pytest.approx(
        G.value(x, y) / lam, rel=5e-3)


_BASE_WORDS = [w for n in range(3) for w in itertools.product(range(2),
                                                               repeat=n)]


def _saturated_x_derivative(A, word, x, y, rtol=1e-10):
    """The former fiber quadrature of GrushinGamma.x_derivative: the
    tan-substituted midpoint rule, its node count doubled until two
    resolutions agree to rtol."""
    tilde = HeisenbergGamma(A)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.maximum(kernels._fiber_scale(tilde.lift, x, y), 1e-3)[..., None]
    prev, M = None, 96
    for _ in range(6):
        terms = kernels._fiber_terms(
            lambda eta: tilde.word_value(word, kernels._fiber_arg(y, x, eta)),
            s, M)
        cur = np.sum(terms, axis=-1) * (np.pi / M)
        if prev is not None:
            floor = np.maximum(np.abs(cur),
                               0.05 * np.sum(np.abs(terms), axis=-1) * np.pi / M)
            if np.max(np.abs(cur - prev) / np.maximum(floor, 1e-300)) < rtol:
                return cur
        prev, M = cur, 2 * M
    raise RuntimeError("fiber quadrature did not converge")


@pytest.mark.parametrize("A", [None, np.array([[1.3, 0.4], [0.4, 0.7]])])
def test_closed_form_gamma_matches_fiber_quadrature(A):
    rng = np.random.default_rng(21)
    xs = rng.uniform(-1, 1, (6, 2))
    ys = rng.uniform(-1, 1, (6, 2))
    # x1 + y1 = 0 and y2 = x2: the modulus k of the closed form is 0 there,
    # grid-aligned pairs on the shell sweep's 81^2 grid among them
    x_k0 = np.array([[0.3, 0.2], [-0.45, 0.3], [0.05, -0.6], [0.7, 0.0]])
    y_k0 = x_k0 * (-1.0, 1.0)
    xs = np.concatenate([xs, x_k0])
    ys = np.concatenate([ys, y_k0])
    G = GrushinGamma(A)
    for word in _BASE_WORDS:
        with np.errstate(all="raise"):
            got = G.x_derivative(word, xs, ys)
        ref = np.array([_saturated_x_derivative(A, word, x, y)
                        for x, y in zip(xs, ys)])
        assert np.all(np.isfinite(got))
        # the oracle's own stopping tolerance
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    with np.errstate(all="raise"):
        v = G.value(xs, ys)
    assert np.array_equal(v, G.x_derivative((), ys, xs))


@pytest.mark.parametrize("word", [(), (0, 0), (1, 1)])
def test_closed_form_gamma_near_diagonal(word):
    # 1e-3 apart the midpoint rule needs many doublings; adaptive
    # quadrature of the lifted integrand, with eta = s tan(theta) at the
    # pair's own scale, is the independent value
    A = np.array([[1.3, 0.4], [0.4, 0.7]])
    x = np.array([0.3, 0.2])
    y = x + (1e-3, 0.0)
    tilde = HeisenbergGamma(A)
    s = float(kernels._fiber_scale(tilde.lift, x, y))

    def integrand(theta):
        eta = s * np.tan(theta)
        z = kernels._fiber_arg(y, x, np.array([eta]))
        return float(tilde.word_value(word, z)[0]) * s / np.cos(theta) ** 2

    ref, _ = scipy.integrate.quad(integrand, -np.pi / 2, np.pi / 2,
                                  epsabs=0, epsrel=1e-12, limit=500)
    got = float(GrushinGamma(A).x_derivative(word, x, y))
    assert got == pytest.approx(ref, rel=1e-9)


def test_new_matrix_gamma_needs_no_symbolic_work(monkeypatch):
    x = np.array([0.3, 0.2])
    y = np.array([-0.2, 0.45])
    warm = GrushinGamma(np.array([[1.5, 0.2], [0.2, 0.8]]))
    for word in _BASE_WORDS:
        warm.x_derivative(word, x, y)

    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic work for a new matrix")

    monkeypatch.setattr(sp, "lambdify", forbidden)
    monkeypatch.setattr(sp, "diff", forbidden)
    G = GrushinGamma(np.array([[0.7, -0.1], [-0.1, 1.9]]))
    assert all(np.isfinite(G.x_derivative(word, x, y))
               for word in _BASE_WORDS)


def test_operator_compiles_only_nonzero_words(lift1, monkeypatch):
    # L_A u sums X_i X_j u over the nonzero a_ij only: the identity needs
    # two words, an SPD matrix with a nonzero off-diagonal all four
    words = []

    def counted(system, word, expr, syms):
        words.append(word)
        return word_apply_sympy(system, word, expr, syms)

    monkeypatch.setattr(liftgroup, "word_apply_sympy", counted)
    bump = liftgroup._gaussian_bump((0.5, 0.7, 0.9))
    for A, expected in ((None, [(0, 0), (1, 1)]),
                        (np.array([[1.3, 0.4], [0.4, 0.8]]),
                         [(0, 0), (0, 1), (1, 0), (1, 1)])):
        words.clear()
        liftgroup._compiled_operator(lift1, A, bump, liftgroup._H_SYMS)
        assert words == expected


class TestCutoffFamily:
    R = 0.45
    centers = [(0.0, 0.0), (0.3, 0.2), (-0.4, 0.1), (0.2, -0.5),
               (-0.1, -0.3), (0.5, 0.4), (-0.5, -0.2), (0.15, 0.45),
               (-0.3, 0.5), (0.4, -0.15)]

    @pytest.fixture(scope="class")
    def cutoffs(self, lift1, g1, dom41):
        from subelliptic.geometry import get_metric
        metric = get_metric(g1, dom41)
        fams = []
        for c in self.centers:
            fam = cutoff_family(lift1, c, self.R, dom41)
            dist = metric.distance_field(np.array(c, dtype=float))
            fams.append((fam, dist))
        return fams

    def test_support_inside_dilated_ball(self, cutoffs):
        for fam, dist in cutoffs:
            outside = dist.reshape(fam.values.domain.counts) \
                >= fam.support_radius()
            assert np.all(np.abs(fam.values.values[outside]) < 1e-12)

    def test_lower_bound_uniform_over_centers(self, cutoffs):
        mins = []
        for fam, dist in cutoffs:
            inside = dist.reshape(fam.values.domain.counts) < self.R
            mins.append(float(fam.values.values[inside].min()))
        mins = np.array(mins)
        assert np.all(mins > 0)
        # one constant works for every center
        assert mins.min() >= 0.2 * mins.max()

    def test_derivative_bound_uniform(self, cutoffs):
        totals = []
        for fam, _ in cutoffs:
            tot = float(np.abs(fam.values.values).max())
            for grid in fam.derivatives.values():
                tot += float(np.abs(grid.values).max())
            totals.append(tot)
        totals = np.array(totals)
        assert np.all(np.isfinite(totals))
        assert totals.max() <= 3.0 * totals.min()
