"""Truncated singular kernels built from the lifted fundamental solution.

The objects here live on the grushin(1) base plane.  Second derivatives of
the lifted fundamental solution give a kernel that is homogeneous of degree
-Q on the group; integrating the fiber variable against a smooth annular
cutoff produces the truncated kernel K_{eps,R}(x, y) on the plane.  The
module also measures the two structural facts the estimates depend on:

* cancellation: the kernel has vanishing mean on homogeneous-norm shells;
* the local constant c_ij, computed both as a boundary flux across the unit
  shell and as a volume integral over a collar (divergence theorem makes
  the two agree, and the comparison is the correctness check).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import sympy as sp
from scipy import sparse

from .domain import BoxDomain
from .fields import grushin, word_apply_sympy
from .geometry import (ClippedBallError, ball_measure, cached_distance_field,
                       get_metric)
from .liftgroup import (_A_SYMS, _B_SYMS, _H_SYMS, CarnotLift, GrushinGamma,
                        HeisenbergGamma, _graded_levels, _lifted_sums,
                        _matrix_entries, _midpoint_axes, _operator_expr,
                        _smoothstep_expr, calibrate_equivalence,
                        graded_nodes_aniso, lift_grushin1,
                        normalization_constant)

# the one base system, so get_metric's per-system cache (metric and
# distance fields) is shared by every call in this module
_BASE_SYSTEM = grushin(1)

# the 81^2 grid on [-2, 2]^2 of the kernel-estimate fits, built per call so
# the grid budget is checked when a fit runs
_FIT_BOX = ((-2.0, -2.0), (2.0, 2.0), (81, 81))


def smoothstep(t):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 in between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _norm_quartic(u):
    """s(u) = u1^4 + u2^2 + u3^4; the homogeneous norm is s^{1/4}."""
    return u[..., 0] ** 4 + u[..., 1] ** 2 + u[..., 2] ** 4


@dataclass(frozen=True)
class CutoffProfile:
    """Annular cutoff psi(u) = phi(gamma2 * ||u||): 1 on [eps, R] in the
    scaled norm, 0 outside [eps/2, 2R], with quintic transitions.

    The transitions are taken in s = ||u||^4, which is a polynomial in u, so
    psi is smooth everywhere including the origin.
    """

    eps: float
    R: float
    gamma2: float

    def __post_init__(self):
        if not 0 < self.eps < self.R:
            raise ValueError("need 0 < eps < R")

    @property
    def support_radius(self) -> float:
        """||u|| bound of the support; also bounds the fiber coordinate."""
        return 2.0 * self.R / self.gamma2

    def _edges(self):
        g = self.gamma2
        return ((self.eps / (2 * g)) ** 4, (self.eps / g) ** 4,
                (self.R / g) ** 4, (2 * self.R / g) ** 4)

    def __call__(self, u) -> np.ndarray:
        return self.radial_quartic(_norm_quartic(np.asarray(u, dtype=float)))

    def radial_quartic(self, s) -> np.ndarray:
        """Profile as a function of ||u||^4.

        The profile is the product of a rising smoothstep on [s0, s1] and a
        falling one on [s2, s3].  Outside those two bands each factor is
        exactly 0 or 1, so the smoothsteps are evaluated only inside them;
        the result is bitwise that of the full product.
        """
        s0, s1, s2, s3 = self._edges()
        s = np.asarray(s, dtype=float)
        out = np.where((s > s0) & (s < s3), 1.0, 0.0)
        rise = (s > s0) & (s < s1)
        out[rise] = smoothstep((s[rise] - s0) / (s1 - s0))
        fall = (s > s2) & (s < s3)
        out[fall] *= 1.0 - smoothstep((s[fall] - s2) / (s3 - s2))
        return out[()]


def _fiber_arg(x, y, eta):
    """(x,0)^{-1} * (y, eta) for base points x, y; broadcasts over eta."""
    x1 = x[..., 0][..., None]
    x2 = x[..., 1][..., None]
    y1 = y[..., 0][..., None]
    y2 = y[..., 1][..., None]
    return np.stack(np.broadcast_arrays(
        y1 - x1, y2 - x2 - x1 * eta, eta + np.zeros_like(x1)), axis=-1)


def _fiber_scale(lift: CarnotLift, x, y) -> np.ndarray:
    """Homogeneous norm of the base displacement (y - x, 0)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.stack(np.broadcast_arrays(
        y[..., 0] - x[..., 0], y[..., 1] - x[..., 1],
        np.zeros(np.broadcast_shapes(x[..., 0].shape, y[..., 0].shape))),
        axis=-1)
    return lift.hom_norm(dx)


def _fiber_terms(integrand, s, M: int) -> np.ndarray:
    """Terms of the midpoint rule for int_R integrand(eta) d eta.

    The eta line is compactified by eta = s tan(theta) at M midpoints of
    (-pi/2, pi/2) (the fiber integrands decay like eta^{-2}, so the
    transformed integrand is bounded); s has a trailing axis of length 1
    and matches the integrand's scale.  Summed over the last axis and
    multiplied by pi / M, the terms give the integral.
    """
    theta = (np.arange(M) + 0.5) / M * np.pi - np.pi / 2
    return integrand(s * np.tan(theta)) * (s / np.cos(theta) ** 2)


class TruncatedKernel:
    """K_{eps,R}(x, y) = int (Y_i Y_j Gamma . psi)((y,eta)^{-1} (x,0)) deta."""

    def __init__(self, i: int, j: int, eps: float, R: float, A=None):
        self.i, self.j = i, j
        self.tilde = HeisenbergGamma(A)
        self.lift = self.tilde.lift
        eq = calibrate_equivalence(self.lift)
        self.gamma2 = eq.gamma2
        self.profile = CutoffProfile(eps, R, self.gamma2)
        self.eps, self.R = eps, R
        self._fn = self.tilde.word_fn((i, j))
        self._c0 = normalization_constant()

    def __call__(self, x, y) -> np.ndarray:
        """The fiber integral uses eta = s tan(theta) with s matched to the
        horizontal displacement, so near-diagonal pairs stay resolved; the
        cutoff truncates the line to a compact set."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = np.maximum(_fiber_scale(self.lift, x, y),
                       self.eps / (2 * self.gamma2))[..., None]

        def integrand(eta):
            z = _fiber_arg(y, x, -eta)          # (y, eta)^{-1} * (x, 0)
            return self._c0 * np.asarray(
                self._fn(z[..., 0], z[..., 1], z[..., 2]),
                dtype=float) * self.profile(z)

        M = 192
        return np.sum(_fiber_terms(integrand, s, M), axis=-1) * (np.pi / M)


def kernel_signed_and_abs_integral(kernel: TruncatedKernel, x) -> tuple:
    """(int K(x,y) dy, int |K(x,y)| dy) over an anisotropic graded grid.

    The grid covers the kernel support and refines toward x with cells
    shaped (r, r^2), matching the degenerate direction at the diagonal.
    """
    x = np.asarray(x, dtype=float)
    Lam = kernel.profile.support_radius
    # grade until the innermost box is below the inner cutoff edge
    inner = kernel.eps / (2.0 * kernel.gamma2)
    levels = max(4, int(math.ceil(math.log(Lam / inner) / math.log(4.0))) + 1)
    half = (1.2 * Lam, 1.2 * max(Lam, Lam ** 2))
    ys, wts = graded_nodes_aniso(x, half, 48, levels, (4.0, 16.0))
    vals = kernel(x, ys)
    return (float(np.sum(wts * vals)), float(np.sum(wts * np.abs(vals))))


# ---------------------------------------------------------------------------
# surface and shell quadrature on homogeneous-norm spheres
# ---------------------------------------------------------------------------

def _sphere_directions() -> tuple:
    """Product rule on the Euclidean S^2; the weight-2 axis is polar."""
    mu, wmu = np.polynomial.legendre.leggauss(48)
    phi = (np.arange(96) + 0.5) / 96 * 2 * np.pi
    MU, PHI = np.meshgrid(mu, phi, indexing="ij")
    W = np.broadcast_to(wmu[:, None], MU.shape) * (2 * np.pi / 96)
    sin_t = np.sqrt(1.0 - MU ** 2)
    omega = np.stack([sin_t * np.cos(PHI), MU, sin_t * np.sin(PHI)], axis=-1)
    return omega.reshape(-1, 3), W.ravel()


def _radial_stretch(omega: np.ndarray, r: float) -> np.ndarray:
    """t with ||t omega|| = r: solves a t^4 + b t^2 = r^4 in closed form."""
    a = omega[..., 0] ** 4 + omega[..., 2] ** 4
    b = omega[..., 1] ** 2
    r4 = r ** 4
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = np.where(a > 1e-14,
                      (-b + np.sqrt(b ** 2 + 4 * a * r4)) / (2 * a),
                      r4 / np.maximum(b, 1e-14))
    return np.sqrt(t2)


@functools.cache
def surface_nodes(r: float) -> tuple:
    """Nodes u, Euclidean surface weights, unit normals, |grad N| on {N=r}.

    For a star-shaped surface u = t(omega) omega the Euclidean surface
    measure satisfies dS (nu . omega_hat) = t^2 dOmega.
    """
    omega, w = _sphere_directions()
    t = _radial_stretch(omega, r)
    u = t[:, None] * omega
    grad_s = np.stack([4 * u[:, 0] ** 3, 2 * u[:, 1], 4 * u[:, 2] ** 3],
                      axis=-1)
    grad_norm = np.linalg.norm(grad_s, axis=-1)
    nu = grad_s / grad_norm[:, None]
    cosang = np.einsum("ij,ij->i", nu, omega)
    w_surf = w * t ** 2 / cosang
    grad_N = grad_norm / (4.0 * r ** 3)
    return u, w_surf, nu, grad_N


def flux_constant(i: int, j: int, A=None, r: float = 1.0) -> float:
    """c_ij as the flux int_{||u||=r} (Y_j Gamma)(u) <Y_i(u), nu> dS.

    Independent of r by homogeneity; evaluating at two radii is the
    cutoff-independence check.
    """
    tilde = HeisenbergGamma(A)
    u, w, nu, _ = surface_nodes(r)
    Yi_nu = np.einsum("ij,ij->i", tilde.lift.fields[i].value(u), nu)
    return float(np.sum(w * (tilde.word_value((j,), u) * Yi_nu)))


@functools.cache
def _ramp_words_fn(profile: str):
    """The collar ramp omega and its Y-words of length 1, as one numpy
    function of (x1, x2, x3, r0, r1); compiled once per profile."""
    x1, x2, x3 = _H_SYMS
    r0, r1 = sp.symbols("r0 r1", positive=True)
    t = ((x1 ** 4 + x2 ** 2 + x3 ** 4) ** sp.Rational(1, 4) - r0) / (r1 - r0)
    if profile == "quintic":
        omega = _smoothstep_expr(t)
    elif profile == "cosine":
        omega = (1 - sp.cos(sp.pi * sp.Min(sp.Max(t, 0), 1))) / 2
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return sp.lambdify((*_H_SYMS, r0, r1), [omega] + [word_apply_sympy(
        lift_grushin1(), (k,), omega, _H_SYMS) for k in range(2)],
        modules="numpy", cse=True)


def shell_constant(i: int, j: int, A=None, profile: str = "quintic") -> float:
    """c_ij as a collar volume integral of Y_i(omega(||v||) Y_j Gamma).

    omega is a step rising from 0 at r0 = 0.5 to 1 at r1 = 1, so by the
    divergence theorem this equals the boundary flux at r1; any C^1 ramp
    is admissible, and evaluating with two different ones is the
    cutoff-independence check.  By the product rule the integrand is
    (Y_i omega)(Y_j Gamma) + omega Y_i Y_j Gamma, so only omega is
    differentiated symbolically; the integral is taken by co-area.
    """
    tilde = HeisenbergGamma(A)
    ramp = _ramp_words_fn(profile)
    Yj, Yij = tilde.word_fn((j,)), tilde.word_fn((i, j))
    c0 = normalization_constant()
    r0, r1 = 0.5, 1.0
    xr, wr = np.polynomial.legendre.leggauss(16)
    rs = 0.5 * (r1 - r0) * xr + 0.5 * (r1 + r0)
    ws = 0.5 * (r1 - r0) * wr
    total = 0.0
    for r, w in zip(rs, ws):
        u, w_surf, _, grad_N = surface_nodes(float(r))
        x = (u[:, 0], u[:, 1], u[:, 2])
        omega, *d_omega = ramp(*x, r0, r1)
        vals = c0 * (d_omega[i] * Yj(*x) + omega * Yij(*x))
        total += w * float(np.sum(w_surf * vals / grad_N))
    return total


def _unit_shell_sums(i: int, j: int, A) -> tuple:
    """Co-area shell integrals of K = Y_i Y_j Gamma and of |K| at norm 1.

    K has degree -Q, so at norm r both are these values over r.
    """
    u, w_surf, _, grad_N = surface_nodes(1.0)
    K = HeisenbergGamma(A).word_value((i, j), u)
    return (float(np.sum(w_surf * K / grad_N)),
            float(np.sum(w_surf * np.abs(K) / grad_N)))


def cancellation_metric(i: int, j: int, A=None) -> float:
    """|shell mean| / shell mean of |.| for the kernel Y_i Y_j Gamma; by
    homogeneity the same on every shell and annulus."""
    signed, absolute = _unit_shell_sums(i, j, A)
    return abs(signed) / absolute


# ---------------------------------------------------------------------------
# the operator and the second-derivative representation
# ---------------------------------------------------------------------------

# compiled integrands of ``representation_residual`` kept, keyed by the
# shape of u; a query's u differs from the last one's in its numbers alone
_COMPILE_CACHE_LIMIT = 32


def _float_template(expr: sp.Expr) -> tuple:
    """expr with its distinct Float atoms replaced by the symbols p0, p1,
    ..., and the atoms' values.

    sympy sorts a sum's or product's arguments by the bits of their Float
    coefficients, so traversal order alone would number the atoms of
    equally shaped expressions differently.  The atoms are numbered
    instead in the sort order of expr with that atom marked and the
    others masked, which does not depend on the values; atoms that tie
    sit in symmetric places, where either numbering gives one template.
    """
    atoms = tuple(dict.fromkeys(a for a in sp.preorder_traversal(expr)
                                if isinstance(a, sp.Float)))
    mark, mask = sp.symbols("_float_mark _float_mask")
    floats = sorted(atoms, key=lambda f: sp.default_sort_key(expr.xreplace(
        {g: mark if g == f else mask for g in atoms})))
    params = sp.symbols(f"p:{len(floats)}", real=True)
    return (expr.xreplace(dict(zip(floats, params))), params,
            tuple(float(a) for a in floats))


@functools.lru_cache(maxsize=_COMPILE_CACHE_LIMIT)
def _compiled_integrand(template: sp.Expr, params: tuple, word=None,
                        nonzero=None):
    """X_i X_j u for word = (i, j), or L_A u for the nonzero pattern of A,
    with u = template, as a numpy function of (y1, y2, *params) and, for
    L_A u, A's entries (row order) after them.  ``cache_info()`` reports
    the compiles (misses) and the reuses (hits)."""
    if word is not None:
        return sp.lambdify(_B_SYMS + params, word_apply_sympy(
            _BASE_SYSTEM, word, template, _B_SYMS), "numpy", cse=True)
    return sp.lambdify(_B_SYMS + params + _A_SYMS, _operator_expr(
        _BASE_SYSTEM, nonzero, template, _B_SYMS), "numpy", cse=True)


def representation_residual(i: int, j: int, A, u_expr: sp.Expr, xs,
                            eps: float = 0.1, R: float = 20.0,
                            cells: int = 64) -> float:
    """Relative residual of X_i X_j u = T_{eps,R}(Lu) + c_ij Lu.

    The operator integral is evaluated in lifted coordinates: substituting
    (y, eta) = (x, 0) * v^{-1} turns T(Lu)(x) into an integral of the fixed
    singular kernel (Y_i Y_j Gamma . psi)(v) against Lu(pi((x,0) v^{-1})),
    so the anisotropic grading can be centered once at v = 0.  The
    graded rule (``_graded_kernel``) runs in fixed blocks of its base grid
    (``_lifted_sums``): a block evaluates c0 K once (``_kernel_levels``),
    and per level only the lifted points and Lu there change; each base
    point x enters as (x, 0).  Both integrands are
    compiled, with common-subexpression elimination, once per shape of u
    (``_compiled_integrand``): u's numbers and A's entries enter
    numerically, and L_A u sums only the words of A's nonzero entries.

    Raises ValueError when xs holds no point, or when X_i X_j u vanishes
    at every point of xs, where the relative residual is undefined.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        raise ValueError("representation_residual needs at least one point")
    template, params, values = _float_template(u_expr)
    target_fn = _compiled_integrand(template, params, word=(i, j))
    targets = np.array([float(target_fn(*x, *values)) for x in xs])
    scale = np.max(np.abs(targets))
    if scale == 0.0:
        raise ValueError(f"X_{i} X_{j} u vanishes at every requested point; "
                         "the relative residual is undefined")
    a = _matrix_entries(A)
    op_fn = _compiled_integrand(template, params,
                                nonzero=tuple(v != 0.0 for v in a))

    def F_fn(y1, y2):
        return op_fn(y1, y2, *values, *a)

    kernel = TruncatedKernel(i, j, eps, R, A)
    cij = flux_constant(i, j, A)
    rule = _graded_kernel(kernel.profile, cells)
    Tv = _lifted_sums(functools.partial(_kernel_levels, kernel, rule),
                      lambda y1, y2, _: F_fn(y1, y2),
                      np.pad(xs, ((0, 0), (0, 1))), len(rule.cols[0]))
    preds = Tv + cij * np.array([float(F_fn(*x)) for x in xs])
    return float(np.max(np.abs(preds - targets)) / scale)


# ---------------------------------------------------------------------------
# the saturated base kernel and its standard estimates
# ---------------------------------------------------------------------------

def kernel_eval(i: int, j: int, x, y, A=None) -> float:
    """Base singular kernel K(x, y) = X_i X_j Gamma_A(x; y), x != y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.allclose(x, y):
        raise ValueError("kernel is singular on the diagonal")
    return float(GrushinGamma(A).x_derivative((i, j), x, y))


def _metric_sample(centers, domain):
    """Base grushin metric with distance fields from the given centers."""
    m = get_metric(_BASE_SYSTEM, domain)
    return m, m.distance_fields(centers)


@dataclass
class StandardEstimateFit:
    constant: float        # fitted bound (max of the normalized samples)
    median: float
    samples: int
    skipped: int           # pairs dropped for clipped balls or tiny distances


def _ball_fit(seed: int, spread: float, num_centers: int, draws: int,
              draw, skip, weigh) -> StandardEstimateFit:
    """Sampling loop of the kernel-estimate fits: per center c, draw(rng, c)
    gives points whose last one fixes the ball B(c, d(c, y)).  A draw is
    skipped when a point leaves the box, skip(distances, tau) holds or the
    ball is clipped; else it adds weigh(c, points, distances) * |B|."""
    rng = np.random.default_rng(seed)
    domain = BoxDomain(*_FIT_BOX)
    centers = rng.uniform(-spread, spread, size=(num_centers, 2))
    m, dfields = _metric_sample(centers, domain)

    def sample(c, df):
        pts = draw(rng, c)
        if not all(domain.contains(x) for x in pts):
            return None
        ds = [m.interpolate(df, x) for x in pts]
        if skip(ds, m.tau):
            return None
        try:
            volB = ball_measure(df, ds[-1], domain)
        except ClippedBallError:
            return None
        return weigh(c, pts, ds) * volB

    drawn = [sample(c, df) for c, df in zip(centers, dfields)
             for _ in range(draws)]
    vals = np.array([v for v in drawn if v is not None])
    return StandardEstimateFit(constant=float(vals.max()),
                               median=float(np.median(vals)),
                               samples=int(vals.size),
                               skipped=len(drawn) - vals.size)


def standard_estimate_fit(i: int, j: int, A=None) -> StandardEstimateFit:
    """Fit of the size estimate |K(x,y)| * |B(x, d(x,y))| <= A_fit.

    Samples pairs at a spread of distances and normalizes the kernel by the
    ball volume at the pair's distance; the fitted constant is the sample
    maximum.  Pairs whose ball would be clipped by the box are skipped and
    counted.
    """
    K = GrushinGamma(A).x_derivative
    return _ball_fit(
        5, 0.6, 20, 15,
        lambda rng, c: (c + rng.uniform(-0.8, 0.8, size=2),),
        lambda ds, tau: ds[0] < 4 * tau or ds[0] > 1e17,
        lambda c, pts, ds: abs(float(K((i, j), c, pts[0]))))


def mean_value_fit(i: int, j: int, A=None) -> StandardEstimateFit:
    """Fit of the smoothness estimate for the base kernel.

    For triples with d(x0, y) >= 2 d(x0, x):
    |K(x,y) - K(x0,y)| <= B_fit * (d(x0,x) / d(x0,y)) / |B(x0, d(x0,y))|.
    """
    K = GrushinGamma(A).x_derivative
    return _ball_fit(
        6, 0.5, 12, 10,
        lambda rng, x0: (x0 + rng.uniform(-0.08, 0.08, size=2),
                         x0 + rng.uniform(-0.8, 0.8, size=2)),
        lambda ds, tau: ds[1] < max(2 * ds[0], 6 * tau) or ds[0] < tau,
        lambda x0, pts, ds: (abs(float(K((i, j), *pts))
                                 - float(K((i, j), x0, pts[1])))
                             * (ds[1] / ds[0])))


def base_shell_integral(i: int, j: int, z, r0: float, r1: float,
                        A=None) -> float:
    """|int_{r0 < d(z,y) < r1} K(z, y) dy| on the grid, diagonal excluded.

    z is snapped to a grid node; the cell containing z is excluded and
    symmetric cell pairs (y, 2z - y) are summed together first, which
    cancels the odd part of the discretization error near the pole.
    Raises ClippedBallError when the shell reaches the box faces.
    """
    domain = BoxDomain(*_FIT_BOX)
    if r1 <= r0:
        return 0.0
    flat = domain.flat_index_of(z)
    iz, z = np.array(domain.index_of(z)), domain.point_at(flat)
    dist = cached_distance_field(get_metric(_BASE_SYSTEM, domain), z)
    mask = (dist > r0) & (dist < r1)
    if domain.clips(mask):
        raise ClippedBallError(f"shell {r0} < d < {r1} reaches the boundary")
    mask[flat] = False
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0.0
    # q[p]: position in idx of the mirror node 2z - y of idx[p], or -1
    refl = 2 * iz - np.stack(np.unravel_index(idx, domain.counts), axis=1)
    ok = np.all((refl >= 0) & (refl < domain.counts), axis=1)
    pos = np.full(domain.num_points, -1)
    pos[idx] = np.arange(idx.size)
    q = np.full(idx.size, -1)
    q[ok] = pos[np.ravel_multi_index(tuple(refl[ok].T), domain.counts)]
    K = GrushinGamma(A).x_derivative((i, j), z, domain.points()[idx])
    # one term per mirror pair at its first node, summed in node order
    lead = (q < 0) | (q > np.arange(idx.size))
    return abs(sum(np.where(q >= 0, K + K[q], K)[lead]) * domain.cell_volume)


def shell_bound_fit(i: int, j: int, A=None) -> float:
    """Fitted uniform bound on base-shell integrals over a (z, r0, r1) sweep."""
    zs = [(0.0, 0.0), (0.45, 0.3), (-0.3, 0.55), (0.6, -0.4)]
    shells = [(0.15, 0.3), (0.2, 0.6), (0.35, 0.7)]
    best = 0.0
    for z in zs:
        for r0, r1 in shells:
            best = max(best, base_shell_integral(i, j, z, r0, r1, A))
    return best


def smoothed_vs_singular(i: int, j: int, eps: float, R: float, A=None,
                         pairs=None) -> float:
    """Worst relative gap between K_{eps,R} and K well inside the cutoff.

    The outer cutoff removes the fiber tail beyond hom norm R/gamma2, which
    contributes a relative error on the order of (d gamma2 / R)^3 to the
    saturated kernel; the window therefore requires 2 eps gamma2 < d(x,y) <
    R / (6 gamma2), where that bound sits below the agreement tolerance.
    Near oscillation zeros of K a pointwise quotient is meaningless, so the
    denominator is floored at a tenth of the sample median magnitude (the
    zeros themselves are exercised by the cancellation metric).
    """
    kernel = TruncatedKernel(i, j, eps, R, A)
    eq = calibrate_equivalence(kernel.lift)
    G = GrushinGamma(A)
    if pairs is None:
        rng = np.random.default_rng(17)
        pairs = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
                 for _ in range(40)]
    xs = [np.asarray(x, dtype=float) for x, _ in pairs]
    metric, dgrids = _metric_sample(xs, BoxDomain((-1.5, -1.5), (1.5, 1.5),
                                                 (61, 61)))
    triples = []
    for (x, y), dgrid in zip(pairs, dgrids):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = float(metric.interpolate(dgrid, y))
        if not (2 * eps * eq.gamma2 < d < R / (6 * eq.gamma2)):
            continue
        triples.append((float(kernel(x, y)),
                        float(G.x_derivative((i, j), x, y))))
    if not triples:
        raise ValueError("no sample pair lies in the agreement window")
    floor = 0.1 * float(np.median([abs(ke) for _, ke in triples]))
    return max(abs(ks - ke) / max(abs(ke), floor) for ks, ke in triples)


def lifted_abs_integral(i: int, j: int, eps: float, R: float,
                        A=None) -> float:
    """int over R^3 of |Y_i Y_j Gamma . psi_{eps,R}|, by co-area shells.

    The shell integral of |kernel| at norm r is exactly c / r by
    homogeneity, so the radial integral is done in log r, where the
    integrand is the smooth cutoff profile times a constant.
    """
    profile = CutoffProfile(eps, R,
                            calibrate_equivalence(lift_grushin1()).gamma2)
    r_lo = eps / (2.0 * profile.gamma2)
    r_hi = profile.support_radius
    # r * (shell integral of |kernel| at norm r) is an r-independent
    # constant by homogeneity; evaluate it once on the unit shell, where
    # the star-shaped surface rule is accurate, then integrate the radial
    # profile in log r.
    g1 = _unit_shell_sums(i, j, A)[1]
    xg, wg = np.polynomial.legendre.leggauss(48)
    tmid = 0.5 * (math.log(r_hi) + math.log(r_lo))
    thalf = 0.5 * (math.log(r_hi) - math.log(r_lo))
    rs = np.exp(tmid + thalf * xg)
    return g1 * float(np.sum(thalf * wg * profile.radial_quartic(rs ** 4)))


def log_growth_grid(i: int, j: int, x, A=None) -> tuple:
    """Fit the lifted integral = a + C log(R/eps) over the (eps, R) grid.

    Saturating the absolute value over the fiber dominates the base
    integral int |K_{eps,R}(x, .)| dy, which is also evaluated and checked
    against the bound pointwise in the sweep.  Returns (C, r_squared,
    worst signed/abs ratio of the base integral, worst base/lifted ratio).
    """
    logs, lifted, ratio, base_over = [], [], 0.0, 0.0
    for R in (0.5, 1.0, 2.0):
        for eps in (0.02, 0.05, 0.1):
            k = TruncatedKernel(i, j, eps, R, A)
            s, a = kernel_signed_and_abs_integral(k, x)
            L = lifted_abs_integral(i, j, eps, R, A)
            logs.append(math.log(R / eps))
            lifted.append(L)
            ratio = max(ratio, abs(s) / a)
            base_over = max(base_over, a / L)
    t = np.array(logs)
    v = np.array(lifted)
    M = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(M, v, rcond=None)
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    ss_res = float(np.sum((v - M @ coef) ** 2))
    return (float(coef[0]), 1.0 - ss_res / ss_tot, float(ratio),
            float(base_over))


# ---------------------------------------------------------------------------
# the operator on grid functions
# ---------------------------------------------------------------------------

_T_CELLS = 16       # cells of the T-cubature's base grid

# bytes of graded rules and T plans kept (``_cached``).  A rule takes 41.6
# MB at the representation defaults (cells=64), 0.5 MB at cells=16; a plan
# about 41 B per (node, output group) pair: 66 MB for the four benchmark
# T-query plans (the 256 stride-4 outputs on 61^2), 1.3 MB a scattered point
_PLAN_CACHE_BYTES = 128 * 2 ** 20


def _freeze(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


_T_PLANS: dict = {}
_T_PLAN_COUNTS = {"hits": 0, "misses": 0, "evictions": 0}


def _cached(build):
    """build, its results read-only and kept by its arguments (an array by
    shape and bytes): rules and plans of at most ``_PLAN_CACHE_BYTES``
    together, the least recently used evicted first, the one used kept."""
    @functools.wraps(build)
    def get(*args):
        key = tuple((a.shape, a.tobytes()) if isinstance(a, np.ndarray)
                    else a for a in args)
        entry = _T_PLANS.pop(key, None)
        if entry is None:
            _T_PLAN_COUNTS["misses"] += 1
            entry = build(*args)
            _freeze(*entry.arrays())
            held = sum(e.nbytes for e in _T_PLANS.values())
            while _T_PLANS and held + entry.nbytes > _PLAN_CACHE_BYTES:
                held -= _T_PLANS.pop(next(iter(_T_PLANS))).nbytes
                _T_PLAN_COUNTS["evictions"] += 1
        else:
            _T_PLAN_COUNTS["hits"] += 1
        _T_PLANS[key] = entry
        return entry
    return get


class _Rule(NamedTuple):
    """The graded lifted cubature of a cutoff profile, in read-only arrays.

    cols are the base grid's three coordinate columns.  Level l is
    (scale, base, pw): the base nodes base (ascending: those the level's
    hole mask keeps and where psi != 0) dilated by scale, and psi w0 there.
    A level's cell volume is w0 prod(scale) and Y_i Y_j Gamma has degree
    -Q, so a node adds c0 K(base node) pw to both cubatures.
    """

    cols: tuple
    levels: tuple

    def arrays(self) -> list:
        return [*self.cols, *(a for level in self.levels for a in level)]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays())


@_cached
def _graded_kernel(profile: CutoffProfile, cells: int) -> _Rule:
    """The ``_Rule`` of a cutoff profile on a base grid of `cells` cells.

    The level count L is the least for which psi vanishes on level L + 1,
    whose ||v||^4 are s0 4^(-4(L+1)) (s0 = ||v||^4 on the base grid, whose
    largest value is that of the 1-D axes' largest); the nodes of level L
    inside level L + 1's box have no larger ||v||, so any count from L up
    keeps the same nodes.
    """
    Lam = profile.support_radius
    half = np.array([1.05 * Lam, 1.05 * max(Lam, Lam ** 2), 1.05 * Lam])
    shape = (cells, 2 * cells, cells)
    shrinks = np.array([4.0, 16.0, 4.0])
    a1, a2, a3 = _midpoint_axes(half, np.array(shape))
    s_max = float(np.max(a1 ** 4) + np.max(a2 ** 2) + np.max(a3 ** 4))
    s_in, count = profile._edges()[0], 0
    while s_max * float(np.prod(shrinks ** -(count + 1))) > s_in:
        count += 1
    v0, w0, per_level = _graded_levels(half, shape, count, shrinks)
    s0 = _norm_quartic(v0)
    cols = tuple(np.ascontiguousarray(v0[:, k]) for k in range(3))
    del v0
    levels = []
    for scale, keep in per_level:
        base = np.flatnonzero(keep).astype(np.int32)
        psi = profile.radial_quartic(s0[base] * float(np.prod(scale)))
        levels.append((scale, base[psi != 0.0], psi[psi != 0.0] * w0))
    return _Rule(cols, tuple(levels))


def _kernel_levels(kernel: TruncatedKernel, rule: _Rule, block=slice(None)):
    """(v1, v2, v3, c0 K(v) psi w) of the rule's nodes over the base nodes
    in `block`, level by level: c0 K is evaluated once on the block, and a
    level takes the run of its base indices inside the block."""
    cols, levels = rule
    start, stop, _ = block.indices(len(cols[0]))
    kw0 = kernel._c0 * np.asarray(kernel._fn(*(c[start:stop] for c in cols)),
                                  dtype=float)
    for scale, base, pw in levels:
        lo, hi = np.searchsorted(base, (start, stop))
        b = base[lo:hi]
        yield (*(c[b] * s for c, s in zip(cols, scale)),
               kw0[b - start] * pw[lo:hi])


@dataclass(frozen=True)
class _TGroup:
    """One group of output points and the binning operators of its tables.

    bins = (B_lo, B_hi) are read-only CSR matrices, sharing indices and
    indptr, with a row per table bin and a column per base node.  A row
    lists the bin's f-corners, lower-row ones in node order and then
    upper-row ones, each in its node's base column and valued psi w0 times
    its bilinear fractions along x1 and x2 ((1 - g) in B_lo, g in B_hi).
    With c0 K on the base grid as kw0, the tables B_lo @ kw0 and B_hi @ kw0
    have the shape (rows, nq); a member reads f at rows and its cols band.
    """

    members: np.ndarray
    bins: tuple
    rows: slice
    cols: np.ndarray

    def tables(self, kw0: np.ndarray) -> list:
        """W_lo, W_hi; csr_matvec adds a row's terms from 0 in stored
        order, as ``np.bincount`` adds a bin's."""
        return [(b @ kw0).reshape(-1, self.cols.shape[1]) for b in self.bins]


def _bin_operators(cell: np.ndarray, base: np.ndarray, wr: np.ndarray,
                   gfrac: np.ndarray, shape: tuple, n0: int):
    """(B_lo, B_hi) of a group whose nodes sit in the base columns base (of
    n0), with lower-row corners in the table bins cell and upper-row ones
    nq bins on, weighed along x1 by wr = [psi w0 (1 - f1), psi w0 f1].  A
    stable sort of the corners by bin lists each bin's lower-row ones first."""
    corner_bin = np.concatenate([cell, cell + shape[1]])
    order = np.argsort(corner_bin, kind="stable")
    indptr = np.zeros(shape[0] * shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(corner_bin, minlength=indptr.size - 1),
              out=indptr[1:])
    indices = np.concatenate([base, base])[order]
    g, wr = np.concatenate([gfrac, gfrac])[order], wr[order]
    hi, lo = g * wr, (1.0 - g) * wr
    # frozen first, so that the views the two matrices take are read-only
    _freeze(indices, indptr, lo, hi)
    return tuple(sparse.csr_matrix((d, indices, indptr),
                                   shape=(indptr.size - 1, n0))
                 for d in (lo, hi))


@dataclass(frozen=True)
class _TPlan:
    """Everything of a T-cubature that does not depend on the matrix A:
    the graded rule's base columns, where K is evaluated, and its levels'
    nodes and psi w0 folded into the groups' binning operators."""

    cols: tuple
    groups: tuple        # _TGroup per output group that reads f

    def arrays(self) -> list:
        return [*self.cols,
                *(a for g in self.groups
                  for a in (g.members, g.bins[0].data, g.bins[1].data,
                            g.bins[0].indices, g.bins[0].indptr, g.cols))]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays())


@_cached
def _t_plan(profile: CutoffProfile, dom: BoxDomain,
            pts: np.ndarray) -> _TPlan:
    """The base grid's columns and per-group binning operators of
    ``apply_T_quadrature`` for the (n, 2) output points pts."""
    cols, levels = _graded_kernel(profile, _T_CELLS)
    nodes = [[*(c[base] * s for c, s in zip(cols, scale)), base, pw]
             for scale, base, pw in levels]
    v1, v2, v3, base, pw = (np.concatenate(a) for a in zip(*nodes))
    h = dom.spacing
    c0, c1 = dom.counts
    b_add = (-v2 + v1 * v3) / h[1]
    c_mul = -v3 / h[1]
    # x2 = lower + (m + phi) h2; a grid-aligned x2 differs from its grid
    # line by rounding only, so it gets phi near 0 (never near 1), and the
    # group key rounds phi well above that and below any scattered spacing
    r2 = (pts[:, 1] - dom.lower[1]) / h[1]
    m = np.floor(r2 + 1e-9)
    phi = r2 - m
    keys = np.stack([pts[:, 0], np.round(phi * 1e12)], axis=1)
    _, inverse, sizes = np.unique(keys, axis=0, return_inverse=True,
                                  return_counts=True)
    groups = []
    for members in np.split(np.argsort(inverse.ravel(), kind="stable"),
                            np.cumsum(sizes)[:-1]):
        lead = members[0]
        x1 = pts[lead, 0]
        r1 = (x1 - v1 - dom.lower[0]) / h[0]
        sel = np.flatnonzero((r1 >= 0) & (r1 <= c0 - 1))
        if sel.size == 0:
            continue
        r1 = np.clip(r1[sel], 0.0, c0 - 1 - 1e-9)
        b1 = r1.astype(np.int64)
        f1 = r1 - b1
        t = phi[lead] + b_add[sel] + x1 * c_mul[sel]
        q = np.floor(t)
        gfrac = t - q
        q = q.astype(np.int64)
        qmin = int(q.min())
        nq = int(q.max()) - qmin + 1
        row_lo = b1.min()
        nrow = int(b1.max()) - row_lo + 2
        # the table bin of a node's lower f-row corner
        cell = (b1 - row_lo) * nq + (q - qmin)
        # columns m + q; any outside [0, c1] read the zero column c1
        fcols = (m[members].astype(np.int64) + qmin)[:, None] + np.arange(nq)
        fcols = np.where((fcols >= 0) & (fcols <= c1), fcols, c1)
        wr = np.tile(pw[sel], 2) * np.concatenate([1.0 - f1, f1])
        groups.append(_TGroup(members, _bin_operators(
            cell, base[sel], wr, gfrac, (nrow, nq), len(cols[0])),
            slice(row_lo, row_lo + nrow), fcols))
    return _TPlan(cols, tuple(groups))


def t_plan_cache_info() -> dict:
    """Hits, misses and evictions of the plan cache, with the number of T
    plans and of graded rules it holds and their bytes."""
    plans = sum(isinstance(e, _TPlan) for e in _T_PLANS.values())
    return dict(_T_PLAN_COUNTS, plans=plans, rules=len(_T_PLANS) - plans,
                nbytes=sum(e.nbytes for e in _T_PLANS.values()))


def apply_T_quadrature(kernel: TruncatedKernel, f, out_points) -> np.ndarray:
    """T f at the given points by graded quadrature in lifted coordinates.

    Substituting v = (y, eta)^{-1} (x, 0) moves the singularity to a fixed
    point, T f(x) = int (K~ psi)(v) f(pi((x,0) v^{-1})) dv, so one set of
    anisotropically graded nodes (``_graded_kernel``) serves every x; a
    uniform y-grid sum cannot do this, because the near-diagonal mass lives
    at scale eps.  f is read bilinearly and is zero outside its box.

    The sum is taken by weight tables.  With y1 = x1 - v1 and
    y2 = x2 - v2 + v1 v3 - x1 v3, output points that share x1 and the
    fractional grid position of x2 see every node at the same f-row and at
    the same x2 offset s(v) = (-v2 + v1 v3 - x1 v3) / h2 in grid columns.
    For such a group the bilinear corner weights times K w are binned once
    into tables W_lo, W_hi over (row, floor offset), which are contracted
    with shifted columns of f; a lower corner reads f only in columns
    [0, c1 - 2], so a point outside the box reads zero.  Scattered points
    form groups of one.

    Only K depends on the matrix A, and every level reuses K on the base
    grid by homogeneity, so all else is a plan (``_t_plan``) built once per
    cutoff profile, f's box and output points.  A call evaluates c0 K on
    the base grid; per group it bins it by two sparse products, multiplies
    the tables into f's rows and sums each member's band.

    Raises ValueError for points that are not finite or not of shape
    (n, 2), and for an f that is not on a 2-D box.
    """
    if f.domain.dim != 2:
        raise ValueError(f"f must be on a 2-D box, not {f.domain.dim}-D")
    pts = np.atleast_2d(np.asarray(out_points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"output points must be of shape (n, 2), "
                         f"not {np.shape(out_points)}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("output points must be finite")
    if pts.size == 0:
        return np.zeros(0)
    plan = _t_plan(kernel.profile, f.domain, pts)
    kw0 = kernel._c0 * np.asarray(kernel._fn(*plan.cols), dtype=float)
    # f's lower and upper corner columns, c1 + 1 of them; zero where a lower
    # corner leaves [0, c1 - 2]
    f_lo = np.pad(f.values[:, :-1], ((0, 0), (0, 2)))
    f_hi = np.pad(f.values[:, 1:], ((0, 0), (0, 2)))
    out = np.zeros(len(pts))
    for g in plan.groups:
        W_lo, W_hi = g.tables(kw0)
        G = W_lo.T @ f_lo[g.rows] + W_hi.T @ f_hi[g.rows]
        out[g.members] = G[np.arange(len(G)), g.cols].sum(axis=1)
    return out


def lp_ratio_sweep(i: int, j: int, test_functions,
                   eps_list=(0.02, 0.05, 0.1), R_list=(0.5, 1.0, 2.0),
                   A=None) -> dict:
    """max_f ||T f||_p / ||f||_p for each (eps, R, p) cell of the sweep.

    T f is sampled on a strided subgrid of each f's domain and the norms
    are Riemann sums there; test functions on one domain share one T plan
    per (eps, R) (``_t_plan``), and the p loop reuses the images.
    """
    stride = 4
    out = {}
    for R in R_list:
        for eps in eps_list:
            kernel = TruncatedKernel(i, j, eps, R, A)
            images = []
            for f in test_functions:
                dom = f.domain
                sub = tuple(np.arange(0, c, stride) for c in dom.counts)
                mesh = np.meshgrid(*[np.asarray(dom.axes()[k])[sub[k]]
                                     for k in range(dom.dim)], indexing="ij")
                pts = np.stack([m.ravel() for m in mesh], axis=-1)
                Tf = apply_T_quadrature(kernel, f, pts)
                cell = float(np.prod(dom.spacing * stride))
                fvals = f.values[np.ix_(*sub)].ravel()
                images.append((fvals, Tf, cell))
            for p in (1.5, 2.0, 3.0):
                best = 0.0
                for fvals, Tf, cell in images:
                    nf = float((np.sum(np.abs(fvals) ** p) * cell) ** (1 / p))
                    nT = float((np.sum(np.abs(Tf) ** p) * cell) ** (1 / p))
                    if nf > 0:
                        best = max(best, nT / nf)
                out[(eps, R, p)] = best
    return out


def representation_ladder(i: int, j: int, A, u_expr: sp.Expr, xs) -> list:
    """Residuals of the second-derivative representation along eps down,
    R up; the sequence should decrease toward the quadrature floor."""
    return [representation_residual(i, j, A, u_expr, xs, eps=eps, R=R)
            for eps, R in ((0.4, 5.0), (0.2, 10.0), (0.1, 20.0))]
