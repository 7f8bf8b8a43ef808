"""Truncated singular kernels, cancellation constants, operator action."""

import functools
import itertools

import numpy as np
import pytest
import sympy as sp

from subelliptic import kernels, liftgroup
from subelliptic.domain import BoxDomain, GridFunction
from subelliptic.fields import word_apply_sympy
from subelliptic.geometry import ClippedBallError
from subelliptic.kernels import (CutoffProfile, TruncatedKernel,
                                 apply_T_quadrature, base_shell_integral,
                                 cancellation_metric, flux_constant,
                                 kernel_eval, lifted_abs_integral,
                                 shell_constant, smoothed_vs_singular)


@pytest.fixture(scope="module")
def gamma2(lift1):
    from subelliptic.liftgroup import calibrate_equivalence
    return calibrate_equivalence(lift1).gamma2


def test_cutoff_profile_plateau(gamma2):
    prof = CutoffProfile(0.1, 1.0, gamma2)
    for t in (0.1 / gamma2, 0.5 / gamma2, 1.0 / gamma2):
        assert prof((t, 0.0, 0.0)) == pytest.approx(1.0)
    assert prof((2.0 / gamma2 + 0.01, 0.0, 0.0)) == 0.0
    assert prof((0.04 / gamma2, 0.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        CutoffProfile(1.0, 0.5, gamma2)


def _radial_quartic_full(profile, s):
    """Both smoothsteps over every s: the profile's defining formula."""
    s0, s1, s2, s3 = profile._edges()
    rise = kernels.smoothstep((s - s0) / (s1 - s0))
    fall = 1.0 - kernels.smoothstep((s - s2) / (s3 - s2))
    return rise * fall


@pytest.mark.parametrize("eps, R", [(0.1, 20.0), (0.02, 0.5), (0.9, 1.0)])
def test_radial_quartic_bands_match_full_formula(gamma2, eps, R):
    # the smoothsteps run only inside their bands; outside, the profile
    # must still be bitwise the full product, at and one ulp around each
    # edge included
    prof = CutoffProfile(eps, R, gamma2)
    edges = np.array(prof._edges())
    s = np.concatenate([
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        [0.0, np.inf],
        np.random.default_rng(12).uniform(0.0, 1.2 * edges[3], 20000),
        edges[0] * np.exp(np.random.default_rng(13).uniform(-3, 0, 2000))])
    got = prof.radial_quartic(s)
    ref = _radial_quartic_full(prof, s)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for x in s[:12]:
        assert np.float64(prof.radial_quartic(x)).view(np.int64) == \
            np.float64(_radial_quartic_full(prof, x)).view(np.int64)


def test_truncated_kernel_finite_and_truncated(gamma2):
    k = TruncatedKernel(0, 0, 0.1, 1.0)
    x = np.array([0.3, 0.2])
    near = k(x, x + (0.2, 0.0))
    assert np.isfinite(near) and near != 0.0
    # pairs far beyond the outer cutoff see a zero kernel
    far = k(x, x + (3.0 / gamma2 * 1.0, 0.0))
    assert far == 0.0


def test_cancellation_metric_small():
    assert cancellation_metric(0, 0) <= 1e-3


def test_flux_constant_radius_independent():
    c1 = flux_constant(0, 1, r=1.0)
    c2 = flux_constant(0, 1, r=0.7)
    assert c1 == pytest.approx(c2, rel=1e-2, abs=1e-10)


def _shell_constant_per_matrix(i, j, A, gamma_expr):
    """shell_constant as formerly built: Y_i(omega Y_j Gamma_A) differentiated
    in sympy for the matrix, then the co-area over the collar [0.5, 1]."""
    us = liftgroup._H_SYMS
    lift = liftgroup.lift_grushin1()
    x1, x2, x3 = us
    N = (x1 ** 4 + x2 ** 2 + x3 ** 4) ** sp.Rational(1, 4)
    omega = liftgroup._smoothstep_expr((N - 0.5) / (1.0 - 0.5))
    inner = omega * word_apply_sympy(lift, (j,), gamma_expr(A), us)
    fn = sp.lambdify(us, word_apply_sympy(lift, (i,), inner, us), "numpy")
    c0 = liftgroup.normalization_constant()
    xr, wr = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for r, w in zip(0.25 * xr + 0.75, 0.25 * wr):
        u, w_surf, _, grad_N = kernels.surface_nodes(float(r))
        vals = c0 * np.asarray(fn(u[:, 0], u[:, 1], u[:, 2]), dtype=float)
        total += w * float(np.sum(w_surf * vals / grad_N))
    return total


@pytest.mark.parametrize("case", ["identity", "spd0", "spd1"])
def test_shell_constant_matches_per_matrix_sympy(case, transported_gamma_expr):
    # the product rule through psi_A must reproduce the per-matrix sympy
    # construction; c_01 and c_10 vanish by symmetry at the identity
    if case == "identity":
        A, entries = np.eye(2), [(0, 0), (1, 1)]
    else:
        A = liftgroup.spd_sweep(2)[int(case[-1])]
        entries = list(itertools.product(range(2), repeat=2))
    for i, j in entries:
        ref = _shell_constant_per_matrix(i, j, A, transported_gamma_expr)
        assert shell_constant(i, j, A) == pytest.approx(ref, rel=1e-12)


def test_shell_constant_new_matrix_needs_no_symbolic_work(monkeypatch):
    A1, A2 = liftgroup.spd_sweep(2)
    shell_constant(0, 1, A1)
    compiles = []
    lambdify = sp.lambdify
    monkeypatch.setattr(sp, "lambdify",
                        lambda *a, **k: compiles.append(a) or lambdify(*a, **k))
    assert np.isfinite(shell_constant(0, 1, A2))
    assert compiles == []


def test_shell_matches_flux_and_profile_free():
    cf = flux_constant(1, 1)
    cq = shell_constant(1, 1, profile="quintic")
    cc = shell_constant(1, 1, profile="cosine")
    assert cq == pytest.approx(cf, rel=1e-2, abs=1e-10)
    assert cq == pytest.approx(cc, rel=5e-3, abs=1e-10)
    with pytest.raises(ValueError):
        shell_constant(1, 1, profile="linear")


def test_lifted_integral_log_linear():
    vals = [lifted_abs_integral(0, 0, eps, 1.0)
            for eps in (0.02, 0.04, 0.08)]
    assert vals[0] > vals[1] > vals[2] > 0
    d1, d2 = vals[0] - vals[1], vals[1] - vals[2]
    assert d1 == pytest.approx(d2, rel=0.05)


def test_kernel_eval_diagonal_guard():
    with pytest.raises(ValueError):
        kernel_eval(0, 0, (0.3, 0.2), (0.3, 0.2))
    assert np.isfinite(kernel_eval(0, 0, (0.3, 0.2), (0.5, 0.1)))


def test_base_shell_degenerate_interval():
    assert base_shell_integral(0, 0, (0.0, 0.0), 0.5, 0.5) == 0.0


def test_base_shell_reaching_the_box_is_refused():
    # B(0, 2.5) of grushin(1) reaches x1 = +-2 on the [-2, 2]^2 fit box
    with pytest.raises(ClippedBallError):
        base_shell_integral(0, 0, (0.0, 0.0), 0.5, 2.5)
    with pytest.raises(ClippedBallError):
        base_shell_integral(0, 0, (1.5, 0.0), 0.2, 0.7)


def _shell_integral_loop(i, j, z, r0, r1):
    """base_shell_integral with its mirror pairs found one node at a time,
    the former construction."""
    from subelliptic.geometry import cached_distance_field, get_metric
    from subelliptic.liftgroup import GrushinGamma
    dom = BoxDomain(*kernels._FIT_BOX)
    iz = np.array(dom.index_of(z))
    flat = int(np.ravel_multi_index(tuple(iz), dom.counts))
    dist = cached_distance_field(get_metric(kernels._BASE_SYSTEM, dom),
                                 dom.point_at(flat))
    mask = (dist > r0) & (dist < r1)
    mask[flat] = False
    idx = np.flatnonzero(mask)
    refl = 2 * iz[None, :] - np.stack(np.unravel_index(idx, dom.counts), 1)
    ok = np.all((refl >= 0) & (refl < np.array(dom.counts)), axis=1)
    refl_flat = np.full(idx.size, -1)
    refl_flat[ok] = np.ravel_multi_index(tuple(refl[ok].T), dom.counts)
    K = GrushinGamma().x_derivative((i, j), dom.point_at(flat),
                                    dom.points()[idx])
    pos = {f: p for p, f in enumerate(idx)}
    total, used = 0.0, np.zeros(idx.size, dtype=bool)
    for p in range(idx.size):
        if used[p]:
            continue
        q = pos.get(refl_flat[p], -1)
        if q >= 0 and not used[q] and mask[refl_flat[p]]:
            total += K[p] + K[q]
            used[p] = used[q] = True
        else:
            total += K[p]
            used[p] = True
    return abs(total * dom.cell_volume)


@pytest.mark.parametrize("ij,z,r0,r1", [
    ((0, 0), (0.0, 0.0), 0.15, 0.3), ((0, 1), (0.45, 0.3), 0.2, 0.6),
    ((1, 1), (-0.3, 0.55), 0.35, 0.7), ((1, 0), (1.1, -0.9), 0.1, 0.5)])
def test_base_shell_pairs_match_node_loop(ij, z, r0, r1):
    assert base_shell_integral(*ij, z, r0, r1) == \
        _shell_integral_loop(*ij, z, r0, r1)


def test_kernel_fits_pinned():
    # values of the fits as first recorded; the sampling loop, its RNG
    # order and the clip test must leave every bit in place
    fit = kernels.standard_estimate_fit(0, 0)
    assert (fit.constant, fit.median, fit.samples, fit.skipped) == \
        (3.5303238283382363, 0.10661869288678752, 283, 17)
    fit = kernels.mean_value_fit(0, 0)
    assert (fit.constant, fit.median, fit.samples, fit.skipped) == \
        (16.140630950427308, 0.22027882931004591, 81, 39)
    assert kernels.shell_bound_fit(0, 0) == 0.23890387650184483


def bump_grid(dom, center, rad):
    pts = dom.points()
    r2 = np.sum((pts - center) ** 2, axis=1) / rad ** 2
    vals = np.where(r2 < 1, np.exp(-1 / np.maximum(1 - r2, 1e-300)), 0.0)
    return GridFunction(dom, vals.reshape(dom.counts))


def test_apply_T_quadrature_zero_and_linear():
    dom = BoxDomain((-2, -2), (2, 2), (41, 41))
    out = dom.points()[::3]
    k = TruncatedKernel(0, 0, 0.2, 0.5)
    z = GridFunction(dom, np.zeros(dom.counts))
    assert np.all(apply_T_quadrature(k, z, out) == 0.0)
    f = bump_grid(dom, (0.0, 0.0), 0.4)
    Tf = apply_T_quadrature(k, f, out)
    T2f = apply_T_quadrature(k, GridFunction(dom, 2.0 * f.values), out)
    # doubling is exact in floating point, and the sums run in one order
    assert np.array_equal(T2f, 2.0 * Tf)
    assert np.abs(Tf).max() > 0


def test_smoothed_matches_singular():
    # separations chosen inside the agreement window of (eps, R) = (.02, 8)
    rng = np.random.default_rng(3)
    pairs = []
    for s in (0.18, 0.22, 0.26, 0.3):
        x = rng.uniform(-0.7, 0.7, 2)
        pairs.append((x, x + (s, 0.0)))
        pairs.append((x, x + (-s, 0.02)))
    gap = smoothed_vs_singular(0, 0, eps=0.02, R=8.0, pairs=pairs)
    assert gap <= 0.02


def _interp2_flat(f, y1, y2) -> np.ndarray:
    """Bilinear interpolation on a 2-D GridFunction, zero outside the box."""
    dom = f.domain
    h = dom.spacing
    c0, c1 = dom.counts
    r1 = (y1 - dom.lower[0]) / h[0]
    r2 = (y2 - dom.lower[1]) / h[1]
    inside = (r1 >= 0) & (r1 <= c0 - 1) & (r2 >= 0) & (r2 <= c1 - 1)
    r1 = np.clip(r1, 0.0, c0 - 1 - 1e-9)
    r2 = np.clip(r2, 0.0, c1 - 1 - 1e-9)
    b1 = r1.astype(np.int64)
    b2 = r2.astype(np.int64)
    f1 = r1 - b1
    f2 = r2 - b2
    flat = f.values.ravel()
    base = b1 * c1 + b2
    v = ((1 - f1) * ((1 - f2) * flat[base] + f2 * flat[base + 1]) +
         f1 * ((1 - f2) * flat[base + c1] + f2 * flat[base + c1 + 1]))
    return v * inside


def _graded_nodes_direct(center, half_widths, cells_per_axis, levels,
                         shrinks):
    """Nested anisotropic midpoint cubature, each level built on its own."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(half_widths, dtype=float)
    shr = np.asarray(shrinks, dtype=float)
    dim = half.size
    cells = np.broadcast_to(np.asarray(cells_per_axis, dtype=int), (dim,))
    nodes, weights = [], []
    for lev in range(levels + 1):
        step = 2 * half / cells
        axes = [-half[k] + (np.arange(cells[k]) + 0.5) * step[k]
                for k in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        if lev < levels:
            hole = np.all(np.abs(pts) < (half / shr) - 1e-15, axis=1)
            pts = pts[~hole]
        else:
            mid = np.all(np.abs(pts) < 0.5 * step, axis=1)
            pts = pts[~mid]
        nodes.append(pts)
        weights.append(np.full(pts.shape[0], float(np.prod(step))))
        half = half / shr
    return np.concatenate(nodes) + center, np.concatenate(weights)


@pytest.mark.parametrize("args", [
    ((0.2, 0.1), (1.3, 1.7), 48, 5, (4.0, 16.0)),
    ((0.0, 0.0, 0.0), (1.1, 1.3, 1.1), (16, 32, 16), 4, (4.0, 16.0, 4.0)),
    # base_reproduction_residual's cubature (half-width 6, 80 cells)
    ((0.3, -0.2), (6.0, 6.0), 80, 2, (4.0, 4.0))])
def test_graded_levels_are_exact_dilates(args):
    # power-of-two shrinks make every level an exact dilate of the base grid
    got = kernels.graded_nodes_aniso(*args)
    ref = _graded_nodes_direct(*args)
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def _graded_levels_of(profile, cells, count=None):
    """``liftgroup._graded_levels`` on the box of the lifted cubatures of
    profile, with `count` levels after the base one, or the library's
    level count."""
    if count is None:
        count = len(kernels._graded_kernel(profile, cells).levels) - 1
    Lam = profile.support_radius
    return liftgroup._graded_levels(
        (1.05 * Lam, 1.05 * max(Lam, Lam ** 2), 1.05 * Lam),
        (cells, 2 * cells, cells), count, (4.0, 16.0, 4.0))


def _rule_levels(profile, v0, w0, per_level):
    """(scale, base, psi w0) of each graded level: its hole mask's nodes
    where psi != 0, by their base-grid index."""
    s0 = kernels._norm_quartic(v0)
    out = []
    for scale, keep in per_level:
        psi = profile.radial_quartic(s0 * np.prod(scale))
        base = np.flatnonzero(keep & (psi != 0.0))
        out.append((scale, base, psi[base] * w0))
    return out


def _lifted_nodes(kernel, cells):
    """All graded nodes and K(v) w, every level evaluated directly, at the
    library's level count."""
    levels = len(kernels._graded_kernel(kernel.profile, cells).levels) - 1
    Lam = kernel.profile.support_radius
    half = (1.05 * Lam, 1.05 * max(Lam, Lam ** 2), 1.05 * Lam)
    vs, wts = _graded_nodes_direct((0.0, 0.0, 0.0), half,
                                   (cells, 2 * cells, cells), levels,
                                   (4.0, 16.0, 4.0))
    Kv = kernel._c0 * np.asarray(
        kernel._fn(vs[:, 0], vs[:, 1], vs[:, 2]), dtype=float)
    return vs, Kv * kernel.profile(vs) * wts


def _apply_T_gather(kernel, f, pts, cells=16):
    """T f as one gather over points x nodes."""
    vs, Kv = _lifted_nodes(kernel, cells)
    x1 = pts[:, 0][:, None]
    x2 = pts[:, 1][:, None]
    y1 = x1 - vs[None, :, 0]
    y2 = x2 - vs[None, :, 1] + vs[None, :, 0] * vs[None, :, 2] \
        - x1 * vs[None, :, 2]
    return _interp2_flat(f, y1, y2) @ Kv


@pytest.mark.parametrize("eps, R, cells", [
    # the benchmark's T-query pairs, then the representation defaults
    (0.02, 0.5, 16), (0.05, 1.0, 16), (0.1, 2.0, 16), (0.05, 2.0, 16),
    (0.1, 20.0, 64)])
def test_level_count_from_the_cutoff(eps, R, cells):
    # level L keeps a node inside the cutoff's support, level L + 1 would
    # keep none, and one more level leaves the nonzero nodes as they are
    k = TruncatedKernel(0, 1, eps, R)
    rule = kernels._graded_kernel(k.profile, cells)
    v0, w0, per_level = _graded_levels_of(k.profile, cells)
    s0 = kernels._norm_quartic(v0)
    scale, keep = per_level[-1]
    shrinks = np.array([4.0, 16.0, 4.0])
    assert np.any(k.profile.radial_quartic(s0[keep] * np.prod(scale)) != 0)
    assert np.all(k.profile.radial_quartic(s0 * np.prod(scale / shrinks))
                  == 0)
    more = kernels._Rule(rule.cols, tuple(_rule_levels(
        k.profile, *_graded_levels_of(k.profile, cells, len(per_level)))))
    got, ref = ([np.concatenate(c) for c in zip(*kernels._kernel_levels(
        k, r))] for r in (rule, more))
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_weight_tables_match_gather():
    dom = BoxDomain((-2, -2), (2, 2), (41, 41))
    pts = dom.points()
    # nonzero up to the box edge, so the zero-outside rule is exercised
    f = GridFunction(dom, (np.exp(-0.3 * np.sum(pts ** 2, axis=1))
                           * (1 + 0.5 * np.sin(3 * pts[:, 0])))
                     .reshape(dom.counts))
    rng = np.random.default_rng(8)
    scattered = rng.uniform(-2.2, 2.2, (40, 2))
    A = np.array([[1.3, 0.4], [0.4, 0.7]])
    for eps, R, Am in ((0.02, 0.5, A), (0.1, 2.0, None)):
        k = TruncatedKernel(0, 1, eps, R, Am)
        for out in (pts[::5], scattered):
            ref = _apply_T_gather(k, f, out)
            got = kernels.apply_T_quadrature(k, f, out)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _plan_nodes(profile):
    """(v1, v2, v3, base, psi w0) of the T plan's graded nodes with psi != 0,
    level after level, each node's base-grid column and weight."""
    v0, w0, per_level = _graded_levels_of(profile, kernels._T_CELLS)
    return [np.concatenate(a) for a in zip(*(
        [*(v0[base, k] * scale[k] for k in range(3)), base, pw]
        for scale, base, pw in _rule_levels(profile, v0, w0, per_level)))]


def _bincount_groups(kernel, dom, pts):
    """Per output group (members, rows, cols, W_lo, W_hi): the node set,
    groups and weight tables built in one pass, each table binned by
    ``np.bincount``, in the same floating-point order as the plan: a
    corner's term is (g (psi w0 r)) (c0 K) at its node's base column, with
    r and g its bilinear fractions along x1 and x2."""
    v1, v2, v3, base, pw = _plan_nodes(kernel.profile)
    kw0 = kernel._c0 * np.asarray(kernel._fn(
        *(np.ascontiguousarray(c) for c in _graded_levels_of(
            kernel.profile, kernels._T_CELLS)[0].T)), dtype=float)
    h = dom.spacing
    c0, c1 = dom.counts
    b_add = (-v2 + v1 * v3) / h[1]
    c_mul = -v3 / h[1]
    r2 = (pts[:, 1] - dom.lower[1]) / h[1]
    m = np.floor(r2 + 1e-9)
    phi = r2 - m
    keys = np.stack([pts[:, 0], np.round(phi * 1e12)], axis=1)
    _, inverse, sizes = np.unique(keys, axis=0, return_inverse=True,
                                  return_counts=True)
    for members in np.split(np.argsort(inverse.ravel(), kind="stable"),
                            np.cumsum(sizes)[:-1]):
        lead = members[0]
        x1 = pts[lead, 0]
        r1 = (x1 - v1 - dom.lower[0]) / h[0]
        ok = (r1 >= 0) & (r1 <= c0 - 1)
        if not ok.any():
            continue
        r1 = np.clip(r1[ok], 0.0, c0 - 1 - 1e-9)
        b1 = r1.astype(np.int64)
        f1 = r1 - b1
        t = phi[lead] + b_add[ok] + x1 * c_mul[ok]
        q = np.floor(t)
        gfrac = t - q
        q = q.astype(np.int64)
        qmin = int(q.min())
        nq = int(q.max()) - qmin + 1
        row_lo = b1.min()
        nrow = int(b1.max()) - row_lo + 2
        cell = (b1 - row_lo) * nq + (q - qmin)
        idx = np.concatenate([cell, cell + nq])
        w = pw[ok]
        wr = np.concatenate([w * (1.0 - f1), w * f1])
        gg = np.concatenate([gfrac, gfrac])
        k = np.tile(kw0[base[ok]], 2)
        W_lo = np.bincount(idx, ((1.0 - gg) * wr) * k, minlength=nrow * nq)
        W_hi = np.bincount(idx, (gg * wr) * k, minlength=nrow * nq)
        cols = (m[members].astype(np.int64) + qmin)[:, None] + np.arange(nq)
        cols = np.where((cols >= 0) & (cols <= c1), cols, c1)
        yield (members, slice(row_lo, row_lo + nrow), cols,
               W_lo.reshape(nrow, nq), W_hi.reshape(nrow, nq))


def _apply_T_one_pass(kernel, f, pts):
    """T f from the one-pass ``np.bincount`` tables of ``_bincount_groups``,
    in the same floating-point order as the plan: per group, the tables
    times f's rows, then each member's band of that product summed."""
    c0, c1 = f.domain.counts
    out = np.zeros(len(pts))
    f_lo = np.zeros((c0, c1 + 1))
    f_hi = np.zeros((c0, c1 + 1))
    f_lo[:, :c1 - 1] = f.values[:, :c1 - 1]
    f_hi[:, :c1 - 1] = f.values[:, 1:]
    for members, rows, cols, W_lo, W_hi in _bincount_groups(
            kernel, f.domain, pts):
        G = W_lo.T @ f_lo[rows] + W_hi.T @ f_hi[rows]
        out[members] = G[np.arange(W_lo.shape[1]), cols].sum(axis=1)
    return out


def test_binning_operators_equal_the_bincount_tables():
    # the benchmark's four T-query plans on the stride-4 subgrid of 61^2,
    # and scattered points, some of whose groups read the zero column c1
    dom = BoxDomain((-2, -2), (2, 2), (61, 61))
    axes = [np.asarray(a)[::4] for a in dom.axes()]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    scattered = np.random.default_rng(5).uniform(-2.4, 2.4, (12, 2))
    A = np.array([[1.3, 0.4], [0.4, 0.7]])
    reads_c1 = False
    for eps, R in ((0.02, 0.5), (0.05, 1.0), (0.1, 2.0), (0.05, 2.0)):
        k = TruncatedKernel(0, 1, eps, R, A)
        for out in (grid, scattered):
            plan = kernels._t_plan(k.profile, dom, out)
            kw0 = k._c0 * np.asarray(k._fn(*plan.cols), dtype=float)
            ref = list(_bincount_groups(k, dom, out))
            assert len(ref) == len(plan.groups)
            for g, (members, rows, cols, ref_lo, ref_hi) in zip(plan.groups,
                                                                ref):
                W_lo, W_hi = g.tables(kw0)
                assert np.array_equal(g.members, members)
                assert g.rows == rows and np.array_equal(g.cols, cols)
                assert np.array_equal(W_lo, ref_lo)
                assert np.array_equal(W_hi, ref_hi)
                reads_c1 |= bool(np.any(cols == dom.counts[1]))
    assert reads_c1


def test_plan_arrays_cover_the_binning_operators():
    # a group's B_lo and B_hi share one indices and one indptr array,
    # which the plan's bytes count once, and hold two corners of each node
    # in the group's f-rows
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    profile = TruncatedKernel(0, 1, 0.05, 1.0).profile
    pts = dom.points()[::5]
    plan = kernels._t_plan(profile, dom, pts)
    ids = {id(a) for a in plan.arrays()}
    assert len(ids) == len(plan.arrays())
    v1 = _plan_nodes(profile)[0]
    for g in plan.groups:
        lo, hi = g.bins
        assert np.shares_memory(hi.indices, lo.indices)
        assert np.shares_memory(hi.indptr, lo.indptr)
        assert {id(lo.data), id(hi.data), id(lo.indices), id(lo.indptr)} <= ids
        x1 = pts[g.members, 0]
        assert np.all(x1 == x1[0])
        r1 = (x1[0] - v1 - dom.lower[0]) / dom.spacing[0]
        in_rows = np.count_nonzero((r1 >= 0) & (r1 <= dom.counts[0] - 1))
        assert lo.nnz == hi.nnz == 2 * in_rows


def test_plan_cold_warm_and_cleared_agree_bitwise():
    # the benchmark's four T-query (eps, R) pairs on its 61^2 stride-4
    # outputs, and scattered points, some outside f's box
    dom = BoxDomain((-2, -2), (2, 2), (61, 61))
    f = bump_grid(dom, (0.15, -0.1), 0.7)
    axes = [np.asarray(a)[::4] for a in dom.axes()]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    scattered = np.random.default_rng(4).uniform(-2.4, 2.4, (12, 2))
    mats = (None, np.array([[1.3, 0.4], [0.4, 0.7]]),
            np.array([[0.6, -0.2], [-0.2, 1.8]]))
    for eps, R in ((0.02, 0.5), (0.05, 1.0), (0.1, 2.0), (0.05, 2.0)):
        for out in (grid, scattered):
            kernels._T_PLANS.clear()
            for A in mats:
                k = TruncatedKernel(0, 1, eps, R, A)
                cold = kernels.apply_T_quadrature(k, f, out)
                warm = kernels.apply_T_quadrature(k, f, out)
                kernels._T_PLANS.clear()
                cleared = kernels.apply_T_quadrature(k, f, out)
                ref = _apply_T_one_pass(k, f, out)
                assert np.array_equal(cold, ref)
                assert np.array_equal(warm, ref)
                assert np.array_equal(cleared, ref)


def test_plan_and_grid_arrays_are_read_only():
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    k = TruncatedKernel(0, 1, 0.05, 1.0)
    out = dom.points()[::5]
    plan = kernels._t_plan(k.profile, dom, out)
    g = plan.groups[0]
    lo, hi = g.bins
    for a in (plan.cols[0], lo.data, hi.data, lo.indices, lo.indptr,
              hi.indices, hi.indptr, g.cols, g.members):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    rule = kernels._graded_kernel(k.profile, kernels._T_CELLS)
    for a in (*rule.cols, *(a for level in rule.levels for a in level)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_plan_cache_evicts_the_least_recently_used(monkeypatch):
    dom = BoxDomain((-1, -1), (1, 1), (11, 11))
    f = bump_grid(dom, (0.0, 0.0), 0.5)
    out = np.array([[0.1, 0.2], [-0.3, 0.0]])

    def query(eps):
        kernels.apply_T_quadrature(TruncatedKernel(0, 1, eps, 1.0), f, out)

    def entries():
        return [(key[0].eps, type(e), e.nbytes)
                for key, e in kernels._T_PLANS.items()]

    eps_list = [0.05 + 0.01 * n for n in range(6)]
    # the last profile's rule and plan, as a miss on it will keep them
    kernels._T_PLANS.clear()
    query(eps_list[-1])
    new = entries()
    kernels._T_PLANS.clear()
    for eps in eps_list[:-1]:
        query(eps)
    # each miss kept a graded rule and then its plan
    assert [(eps, kind) for eps, kind, _ in entries()] == [
        (eps, kind) for eps in eps_list[:-1]
        for kind in (kernels._Rule, kernels._TPlan)]
    budget = sum(size for *_, size in entries())
    # a budget that holds these five rules and five plans exactly
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", budget)
    before = kernels.t_plan_cache_info()
    # a hit on the oldest plan leaves the oldest rule the least recently
    # used; a miss then evicts for its rule first and for its plan next
    query(eps_list[0])
    expect, evicted = entries(), []
    for entry in new:
        while expect and sum(e[2] for e in expect) + entry[2] > budget:
            evicted.append(expect.pop(0))
        expect.append(entry)
    query(eps_list[-1])
    after = kernels.t_plan_cache_info()
    assert evicted and after["nbytes"] <= budget
    assert entries() == expect
    assert after["evictions"] == before["evictions"] + len(evicted)
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"] + 2


def test_plan_cache_keeps_the_plan_in_use(monkeypatch):
    # a plan above the whole budget stays until the next miss replaces it
    dom = BoxDomain((-1, -1), (1, 1), (11, 11))
    f = bump_grid(dom, (0.0, 0.0), 0.5)
    out = np.array([[0.1, 0.2]])
    kernels._T_PLANS.clear()
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", 1)
    for eps in (0.05, 0.05, 0.06):
        kernels.apply_T_quadrature(TruncatedKernel(0, 1, eps, 1.0), f, out)
        assert [key[0].eps for key in kernels._T_PLANS] == [eps]


def test_plan_cache_holds_the_four_benchmark_plans():
    # the (eps, R) pairs of the benchmark's T-queries on its 61^2 stride-4
    # outputs (about 66 MB of plans and 2 MB of their rules) and the graded
    # rule of its representation queries (about 42 MB), all kept
    dom = BoxDomain((-2, -2), (2, 2), (61, 61))
    axes = [np.asarray(a)[::4] for a in dom.axes()]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    kernels._T_PLANS.clear()
    before = kernels.t_plan_cache_info()
    for eps, R in ((0.02, 0.5), (0.05, 1.0), (0.1, 2.0), (0.05, 2.0)):
        kernels._t_plan(TruncatedKernel(0, 1, eps, R).profile, dom, grid)
    y1, y2 = kernels._B_SYMS
    kernels.representation_residual(
        0, 1, np.array([[1.3, 0.4], [0.4, 0.8]]),
        sp.exp(-(y1 ** 2 + 2 * y2 ** 2)), [(0.2, 0.3)])
    info = kernels.t_plan_cache_info()
    assert info["plans"] == 4 and info["rules"] == 5
    assert info["evictions"] == before["evictions"]
    rule = kernels._T_PLANS[(TruncatedKernel(0, 1, 0.1, 20.0).profile, 64)]
    assert rule.nbytes > 30e6
    assert 60e6 + rule.nbytes < info["nbytes"] <= kernels._PLAN_CACHE_BYTES


def test_representation_rule_is_held_under_the_byte_bound(monkeypatch):
    # the representation's graded rule is a plan-cache entry: counted in
    # its bytes and evicted, least recently used first, under its bound
    y1, y2 = kernels._B_SYMS
    u = sp.exp(-(y1 ** 2 + 2 * y2 ** 2)) * sp.cos(y1)
    xs = np.array([(0.3, 0.2)])

    def residual(eps):
        kernels.representation_residual(0, 1, None, u, xs, eps=eps, R=10.0,
                                        cells=16)

    kernels._T_PLANS.clear()
    before = kernels.t_plan_cache_info()
    residual(0.2)
    info = kernels.t_plan_cache_info()
    (key, rule), = kernels._T_PLANS.items()
    assert key == (TruncatedKernel(0, 1, 0.2, 10.0).profile, 16)
    assert (info["plans"], info["rules"]) == (0, 1)
    assert info["misses"] == before["misses"] + 1
    assert info["nbytes"] == rule.nbytes == sum(
        a.nbytes for a in (*rule.cols,
                           *(a for level in rule.levels for a in level)))
    # a budget that holds one such rule: a second profile's rule evicts
    # the first, and a repeat of the second is a hit
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", info["nbytes"] + 1)
    residual(0.25)
    residual(0.25)
    after = kernels.t_plan_cache_info()
    assert [k[0].eps for k in kernels._T_PLANS] == [0.25]
    assert after["evictions"] == info["evictions"] + 1
    assert after["hits"] == info["hits"] + 1
    # below any rule's bytes, the rule just used still stays
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", 1)
    residual(0.2)
    assert [k[0].eps for k in kernels._T_PLANS] == [0.2]


@pytest.mark.parametrize("cells", [16, 40])
def test_kernel_levels_over_the_blocks_are_the_rule(cells):
    # the blocks' levels put back together level by level are the rule's
    # nodes with c0 K pw, and those are the graded nodes where K psi w is
    # not 0, with every level built and evaluated on its own
    from subelliptic import pool
    k = TruncatedKernel(0, 1, 0.2, 10.0, np.array([[1.2, -0.3], [-0.3, 0.9]]))
    rule = kernels._graded_kernel(k.profile, cells)
    cols, levels = rule
    n = len(cols[0])
    blocks = [list(kernels._kernel_levels(k, rule, slice(a, a + pool._BLOCK)))
              for a in range(0, n, pool._BLOCK)]
    assert len(blocks) == (1 if cells == 16 else 4)
    kw0 = k._c0 * np.asarray(k._fn(*cols), dtype=float)
    got = []
    for lev, (scale, base, pw) in enumerate(levels):
        parts = [np.concatenate(c) for c in zip(*(b[lev] for b in blocks))]
        assert all(np.array_equal(p, c[base] * s)
                   for p, c, s in zip(parts, cols, scale))
        assert np.array_equal(parts[3], kw0[base] * pw)
        got.append(parts)
    v1, v2, v3, kw = (np.concatenate(c) for c in zip(*got))
    vs, Kw = _lifted_nodes(k, cells)
    on = Kw != 0.0
    assert np.array_equal(np.stack([v1, v2, v3], axis=1), vs[on])
    np.testing.assert_allclose(kw, Kw[on], rtol=1e-13, atol=0)


def test_apply_T_quadrature_without_points():
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    k = TruncatedKernel(0, 1, 0.05, 1.0)
    got = kernels.apply_T_quadrature(k, bump_grid(dom, (0, 0), 0.6),
                                     np.zeros((0, 2)))
    assert got.shape == (0,)


def test_apply_T_quadrature_single_point():
    # a point of shape (2,) is the batch of that one point
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    f = bump_grid(dom, (0, 0), 0.6)
    k = TruncatedKernel(0, 1, 0.05, 1.0)
    x = np.array([0.13, -0.21])
    got = kernels.apply_T_quadrature(k, f, x)
    assert got.shape == (1,)
    assert np.array_equal(got, kernels.apply_T_quadrature(k, f, x[None]))
    assert got[0] != 0.0


@pytest.mark.parametrize("points, match", [
    (np.array([[np.nan, 0.0]]), "finite"),
    (np.array([[0.1, 0.2], [0.3, np.inf]]), "finite"),
    (np.array([[0.1, 0.2, 0.3]]), r"shape \(n, 2\)"),
    (np.zeros((2, 2, 2)), r"shape \(n, 2\)")])
def test_apply_T_quadrature_rejects_bad_points(points, match):
    dom = BoxDomain((-2, -2), (2, 2), (9, 9))
    kernels._T_PLANS.clear()
    with pytest.raises(ValueError, match=match):
        kernels.apply_T_quadrature(TruncatedKernel(0, 1, 0.05, 1.0),
                                   bump_grid(dom, (0, 0), 0.6), points)
    # refused before the plan cache is consulted
    assert not kernels._T_PLANS


def test_apply_T_quadrature_rejects_f_off_a_plane():
    dom = BoxDomain((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    f = GridFunction(dom, np.ones(dom.counts))
    kernels._T_PLANS.clear()
    with pytest.raises(ValueError, match="2-D box"):
        kernels.apply_T_quadrature(TruncatedKernel(0, 1, 0.05, 1.0), f,
                                   np.array([[0.1, 0.2]]))
    assert not kernels._T_PLANS


def test_lp_ratio_sweep_builds_one_plan_per_cell():
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    funcs = [bump_grid(dom, c, r) for c, r in
             (((0, 0), 0.6), ((0.3, -0.2), 0.5), ((-0.2, 0.3), 0.8))]
    kernels._T_PLANS.clear()
    before = kernels.t_plan_cache_info()
    sweep = kernels.lp_ratio_sweep(0, 0, funcs, eps_list=(0.05, 0.1),
                                   R_list=(1.0,))
    after = kernels.t_plan_cache_info()
    assert len(sweep) == 2 * 3
    # a plan and its graded rule per cell
    assert (after["plans"], after["rules"]) == (2, 2)
    assert after["misses"] - before["misses"] == 2 + 2
    assert after["hits"] - before["hits"] == 2 * 2


def test_representation_levels_by_homogeneity(lift1):
    # reusing K w across the dilated levels must match evaluating the
    # kernel on every level and lifting with the Poly group law
    from subelliptic.fields import grushin
    y1, y2 = kernels._B_SYMS
    u = sp.exp(-(y1 ** 2 + 2 * y2 ** 2)) * sp.cos(y1)
    A = np.array([[1.2, -0.3], [-0.3, 0.9]])
    xs = np.array([(0.3, 0.2), (-0.4, 0.1)])
    i, j, eps, R, cells = 0, 1, 0.2, 10.0, 16
    got = kernels.representation_residual(i, j, A, u, xs, eps=eps, R=R,
                                          cells=cells)
    F_fn = sp.lambdify(kernels._B_SYMS, sum(
        A[w] * word_apply_sympy(grushin(1), w, u, kernels._B_SYMS)
        for w in itertools.product(range(2), repeat=2)), "numpy")
    target_fn = sp.lambdify(kernels._B_SYMS, word_apply_sympy(
        grushin(1), (i, j), u, kernels._B_SYMS), "numpy")
    k = TruncatedKernel(i, j, eps, R, A)
    vs, Kw = _lifted_nodes(k, cells)
    vinv = lift1.inverse(vs)
    cij = flux_constant(i, j, A)
    preds, targets = [], []
    for x in xs:
        y = lift1.multiply(np.array([x[0], x[1], 0.0]), vinv)
        preds.append(float(np.sum(Kw * F_fn(y[:, 0], y[:, 1])))
                     + cij * float(F_fn(*x)))
        targets.append(float(target_fn(*x)))
    targets = np.array(targets)
    ref = np.max(np.abs(np.array(preds) - targets)) / np.max(np.abs(targets))
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("cells", [16, 40])
def test_representation_blocks_independent_of_workers(monkeypatch, cells):
    # cells=16 is one block of the base grid, cells=40 spans four (the last
    # one partial); blocks are summed in a fixed order, so the residual is
    # bitwise the same on one worker and on several
    from subelliptic import pool
    y1, y2 = kernels._B_SYMS
    u = sp.exp(-(y1 ** 2 + 2 * y2 ** 2)) * sp.cos(y1)
    A = np.array([[1.2, -0.3], [-0.3, 0.9]])
    xs = np.array([(0.3, 0.2), (-0.4, 0.1)])
    i, j, eps, R = 0, 1, 0.2, 10.0
    args = (i, j, A, u, xs)
    kw = dict(eps=eps, R=R, cells=cells)
    monkeypatch.setattr(pool, "_WORKERS", max(pool._WORKERS, 2))
    many = kernels.representation_residual(*args, **kw)
    monkeypatch.setattr(pool, "_WORKERS", 1)
    one = kernels.representation_residual(*args, **kw)
    assert one == many
    # oracle: every graded node evaluated directly and summed in one shot
    a_syms = sp.symbols("a1:5", real=True)
    F_fn = sp.lambdify(kernels._B_SYMS + a_syms, sum(
        a * kernels.word_apply_sympy(kernels._BASE_SYSTEM, w, u,
                                     kernels._B_SYMS)
        for a, w in zip(a_syms, itertools.product(range(2), repeat=2))),
        "numpy", cse=True)
    target_fn = sp.lambdify(kernels._B_SYMS, kernels.word_apply_sympy(
        kernels._BASE_SYSTEM, (i, j), u, kernels._B_SYMS), "numpy")
    k = TruncatedKernel(i, j, eps, R, A)
    vs, Kw = _lifted_nodes(k, cells)
    cij = flux_constant(i, j, A)
    preds = np.array([
        np.sum(Kw * F_fn(x1 - vs[:, 0], x2 - vs[:, 1] + vs[:, 0] * vs[:, 2]
                         - x1 * vs[:, 2], *A.ravel()))
        + cij * F_fn(x1, x2, *A.ravel()) for x1, x2 in xs])
    targets = np.array([target_fn(*x) for x in xs])
    ref = np.max(np.abs(preds - targets)) / np.max(np.abs(targets))
    assert many == pytest.approx(ref, rel=1e-12)


def test_representation_rejects_vanishing_target():
    # X_0 X_1 u = d2 u + y1 d1 d2 u vanishes on y2 = 0 for a u even in
    # y2, so no relative residual exists there
    y1, y2 = kernels._B_SYMS
    u = sp.exp(-(y1 ** 2 + 2 * y2 ** 2))
    with pytest.raises(ValueError, match="vanishes"):
        kernels.representation_residual(0, 1, None, u,
                                        [[0.2, 0.0], [-0.3, 0.0]], eps=0.2,
                                        R=10.0, cells=16)


@pytest.mark.parametrize("xs", [np.zeros((0, 2)), []])
def test_representation_rejects_no_points(xs):
    y1, y2 = kernels._B_SYMS
    with pytest.raises(ValueError, match="at least one point"):
        kernels.representation_residual(0, 1, None, sp.exp(-y1 ** 2 - y2 ** 2),
                                        xs, eps=0.2, R=10.0, cells=16)


def _representation_literal(i, j, A, u, xs, eps, R, cells):
    """The residual with u's integrands compiled from the literal
    expression, as before compiles were keyed by u's shape."""
    target_fn = sp.lambdify(kernels._B_SYMS, word_apply_sympy(
        kernels._BASE_SYSTEM, (i, j), u, kernels._B_SYMS), "numpy", cse=True)
    F_fn = liftgroup._compiled_operator(kernels._BASE_SYSTEM, A, u,
                                        kernels._B_SYMS)
    targets = np.array([float(target_fn(*x)) for x in xs])
    k = TruncatedKernel(i, j, eps, R, A)
    rule = kernels._graded_kernel(k.profile, cells)
    Tv = liftgroup._lifted_sums(
        functools.partial(kernels._kernel_levels, k, rule),
        lambda y1, y2, _: F_fn(y1, y2),
        np.column_stack([xs, np.zeros(len(xs))]), len(rule.cols[0]))
    preds = Tv + flux_constant(i, j, A) * np.array([float(F_fn(*x))
                                                    for x in xs])
    return float(np.max(np.abs(preds - targets)) / np.max(np.abs(targets)))


def _gaussian(a, b):
    y1, y2 = kernels._B_SYMS
    return sp.exp(-(sp.Float(a) * y1 ** 2 + sp.Float(b) * y2 ** 2))


def test_representation_compiles_once_per_shape(monkeypatch):
    # two Gaussians that differ in their widths alone share both compiled
    # integrands; a structurally different u compiles its own
    y1, _ = kernels._B_SYMS
    A = np.array([[1.3, 0.4], [0.4, 0.8]])
    xs = np.array([(0.2, 0.3), (-0.1, -0.25)])
    kw = dict(eps=0.2, R=10.0, cells=16)
    kernels._compiled_integrand.cache_clear()
    kernels.representation_residual(0, 1, A, _gaussian(0.9, 1.3), xs, **kw)
    info = kernels._compiled_integrand.cache_info()
    assert (info.misses, info.hits) == (2, 0)

    def forbidden(*args, **kwargs):
        raise AssertionError("compiled again for new widths")

    # sympy orders the terms of these exponents unlike the first one's
    with monkeypatch.context() as m:
        m.setattr(sp, "lambdify", forbidden)
        for a, b in ((1.1, 1.7), (1.2, 0.9)):
            kernels.representation_residual(
                0, 1, np.array([[0.7, -0.2], [-0.2, 1.6]]), _gaussian(a, b),
                xs, **kw)
    info = kernels._compiled_integrand.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    # a diagonal A has another zero pattern, so L_A u compiles again
    kernels.representation_residual(0, 1, np.diag([0.7, 1.6]),
                                    _gaussian(1.2, 1.9), xs, **kw)
    info = kernels._compiled_integrand.cache_info()
    assert (info.misses, info.hits) == (3, 5)
    kernels.representation_residual(0, 1, A, _gaussian(1.2, 1.9)
                                    * sp.cos(sp.Float(0.7) * y1), xs, **kw)
    info = kernels._compiled_integrand.cache_info()
    assert (info.misses, info.hits) == (5, 5)


def test_compile_cache_evicts_at_its_bound():
    y1, y2 = kernels._B_SYMS
    kernels._compiled_integrand.cache_clear()
    shapes = [y1 ** n * y2 for n in range(kernels._COMPILE_CACHE_LIMIT + 1)]
    for u in shapes:
        kernels._compiled_integrand(u, (), word=(0, 1))
    info = kernels._compiled_integrand.cache_info()
    assert info.currsize == info.maxsize == kernels._COMPILE_CACHE_LIMIT
    assert info.misses == len(shapes)
    # the most recent shape is kept, the first one was evicted
    kernels._compiled_integrand(shapes[-1], (), word=(0, 1))
    kernels._compiled_integrand(shapes[0], (), word=(0, 1))
    info = kernels._compiled_integrand.cache_info()
    assert (info.hits, info.misses) == (1, len(shapes) + 1)


@pytest.mark.parametrize("u, A", [
    (_gaussian(0.9, 1.3), np.array([[1.3, 0.4], [0.4, 0.8]])),
    (_gaussian(1.4, 0.85), None),
    (_gaussian(1.1, 1.6) * sp.cos(sp.Float(0.7) * kernels._B_SYMS[0]),
     np.array([[0.6, -0.2], [-0.2, 1.8]]))])
def test_representation_matches_the_literal_compile(u, A):
    xs = np.array([(0.2, 0.3), (-0.1, -0.25)])
    got = kernels.representation_residual(0, 1, A, u, xs, eps=0.2, R=10.0,
                                          cells=16)
    ref = _representation_literal(0, 1, A, u, xs, 0.2, 10.0, 16)
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_new_matrix_needs_no_symbolic_work(monkeypatch):
    dom = BoxDomain((-2, -2), (2, 2), (41, 41))
    f = bump_grid(dom, (0.1, -0.2), 0.6)
    out = dom.points()[::7]
    warm = TruncatedKernel(0, 1, 0.05, 1.0, np.array([[1.5, 0.2],
                                                      [0.2, 0.8]]))
    kernels.apply_T_quadrature(warm, f, out)

    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic work for a new matrix")

    monkeypatch.setattr(sp, "lambdify", forbidden)
    monkeypatch.setattr(sp, "diff", forbidden)
    k = TruncatedKernel(0, 1, 0.05, 1.0, np.array([[0.7, -0.1],
                                                   [-0.1, 1.9]]))
    assert np.all(np.isfinite(kernels.apply_T_quadrature(k, f, out)))


def test_metric_sample_reuses_one_metric():
    # every call reads one base system, so get_metric's per-system cache
    # hands back the same metric (and its distance-field cache)
    dom = BoxDomain((-1.0, -1.0), (1.0, 1.0), (11, 11))
    m1, f1 = kernels._metric_sample([(0.0, 0.0)], dom)
    m2, f2 = kernels._metric_sample([(0.2, 0.0)], dom)
    assert m1 is m2
    assert f1.shape == f2.shape == (1, dom.num_points)
