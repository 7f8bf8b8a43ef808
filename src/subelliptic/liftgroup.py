"""Nilpotent group lifts of homogeneous vector fields.

A lift places the base fields on R^N = R^n x R^p as left-invariant fields of
a stratified group, so that potential theory on the group (explicit
fundamental solutions, homogeneous norms) can be pushed down to the base by
integrating out the fiber.  The catalog carries two lifts:

* grushin(1) lifts to the polarized Heisenberg group on R^3, which has a
  classical closed-form fundamental solution; and
* the step-3 system x1 d2 + x1^2 d3 lifts to an Engel-type group on R^4,
  used for group geometry only.

Every structural claim (group axioms, left invariance, dilation
compatibility, homogeneity, projection onto the base fields) is checked by
``verify_lift`` as an exact polynomial identity.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import sympy as sp

from .domain import BoxDomain, GridFunction
from .fields import (Poly, PolyVectorField, HormanderSystem, grushin,
                     example3, poly_to_sympy, word_apply_sympy)
from .geometry import CCMetric, ball_measure, ball_volume
from .pool import _BLOCK, _ordered_map


@dataclass(eq=False)
class CarnotLift:
    """Group structure on R^N lifting a homogeneous system on R^n.

    law: N polynomials in 2N variables (u followed by v) giving u * v.
    inverse: N polynomials in N variables giving u^{-1}.
    fields: lifted vector fields on R^N, one per base generator.
    weights: dilation exponent of each lifted coordinate (base coordinates
    first, fiber coordinates after; not necessarily sorted).

    Lifts hash by identity, so the calibrations below are memoized per
    lift object; each catalog lift is one object per process.
    """

    name: str
    base: HormanderSystem
    weights: tuple
    fields: list
    law: list
    inverse_map: list

    @property
    def N(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> int:
        return self.N - self.base.n

    @property
    def Q(self) -> int:
        return int(sum(self.weights))

    @property
    def norm_exponent(self) -> int:
        return 2 * math.lcm(*self.weights)

    def multiply(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        uv = np.concatenate(np.broadcast_arrays(u, v), axis=-1)
        return np.stack([p(uv) for p in self.law], axis=-1)

    def inverse(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.stack([p(u) for p in self.inverse_map], axis=-1)

    def dilate(self, lam: float, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u * np.array([lam ** w for w in self.weights])

    def hom_norm(self, u) -> np.ndarray:
        """Homogeneous norm (sum_i |u_i|^{L/w_i})^{1/L}, L = 2 lcm(weights)."""
        u = np.asarray(u, dtype=float)
        L = self.norm_exponent
        s = np.zeros(u.shape[:-1])
        for i, w in enumerate(self.weights):
            s = s + np.abs(u[..., i]) ** (L // w)
        return s ** (1.0 / L)

    # symbolic views -------------------------------------------------------

    def symbols(self, prefix: str = "u"):
        return sp.symbols(f"{prefix}1:{self.N + 1}", real=True)

    def law_exprs(self, usyms, vsyms):
        allsyms = tuple(usyms) + tuple(vsyms)
        return [poly_to_sympy(p, allsyms) for p in self.law]

    def field_exprs(self, j: int, usyms):
        return [poly_to_sympy(c, usyms) for c in self.fields[j].comps]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@functools.cache
def lift_grushin1() -> CarnotLift:
    """Polarized Heisenberg lift of X1 = d1, X2 = x1 d2.

    Coordinates (x1, x2, xi); xi is the fiber variable.
    Lifted fields: Y1 = d_x1, Y2 = x1 d_x2 + d_xi.
    """
    N = 2 * 3  # variables of the law: u then v
    law = [
        Poly(N, {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0): 1}),
        Poly(N, {(0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0): 1,
                 (1, 0, 0, 0, 0, 1): 1}),
        Poly(N, {(0, 0, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 1}),
    ]
    inv = [
        Poly(3, {(1, 0, 0): -1}),
        Poly(3, {(0, 1, 0): -1, (1, 0, 1): 1}),
        Poly(3, {(0, 0, 1): -1}),
    ]
    Y1 = PolyVectorField([Poly.constant(3, 1), Poly.zero(3), Poly.zero(3)])
    Y2 = PolyVectorField([Poly.zero(3), Poly.monomial(3, (1, 0, 0)),
                          Poly.constant(3, 1)])
    return CarnotLift(name="grushin1_heisenberg", base=grushin(1),
                      weights=(1, 2, 1), fields=[Y1, Y2],
                      law=law, inverse_map=inv)


@functools.cache
def lift_example3() -> CarnotLift:
    """Engel-type lift of X1 = d1, X2 = x1 d2 + x1^2 d3.

    Coordinates (u1, u2, u3, u4); u4 is the fiber variable.
    Lifted fields: Y1 = d1, Y2 = u1 d2 + u1^2 d3 + d4.
    """
    N = 2 * 4
    z8 = tuple([0] * 8)

    def mono(positions) -> tuple:
        e = list(z8)
        for pos in positions:
            e[pos] += 1
        return tuple(e)

    law = [
        Poly(N, {mono([0]): 1, mono([4]): 1}),
        Poly(N, {mono([1]): 1, mono([5]): 1, mono([0, 7]): 1}),
        Poly(N, {mono([2]): 1, mono([6]): 1, mono([0, 5]): 2,
                 mono([0, 0, 7]): 1}),
        Poly(N, {mono([3]): 1, mono([7]): 1}),
    ]
    inv = [
        Poly(4, {(1, 0, 0, 0): -1}),
        Poly(4, {(0, 1, 0, 0): -1, (1, 0, 0, 1): 1}),
        Poly(4, {(0, 0, 1, 0): -1, (1, 1, 0, 0): 2, (2, 0, 0, 1): -1}),
        Poly(4, {(0, 0, 0, 1): -1}),
    ]
    Y1 = PolyVectorField([Poly.constant(4, 1)] + [Poly.zero(4)] * 3)
    Y2 = PolyVectorField([Poly.zero(4), Poly.monomial(4, (1, 0, 0, 0)),
                          Poly.monomial(4, (2, 0, 0, 0)),
                          Poly.constant(4, 1)])
    return CarnotLift(name="example3_engel", base=example3(),
                      weights=(1, 2, 3, 1), fields=[Y1, Y2],
                      law=law, inverse_map=inv)


_LIFTS = {"grushin1": lift_grushin1, "example3": lift_example3}


def load_lift(name: str) -> CarnotLift:
    try:
        return _LIFTS[name]()
    except KeyError:
        raise KeyError(f"no lift for {name!r}; available: "
                       f"{', '.join(sorted(_LIFTS))}") from None


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class LiftReport:
    group_axioms: bool
    left_invariant: bool
    dilation_automorphism: bool
    fields_homogeneous: bool
    projects_to_base: bool
    details: list

    @property
    def passed(self) -> bool:
        return (self.group_axioms and self.left_invariant and
                self.dilation_automorphism and self.fields_homogeneous and
                self.projects_to_base)

    def __bool__(self):
        return self.passed


def verify_lift(lift: CarnotLift) -> LiftReport:
    """Check every structural claim of the lift as an exact polynomial
    identity, component by component, with lambda a symbol."""
    details: list = []

    def holds(claim: str, lhs, rhs) -> bool:
        bad = [k for k, (a, b) in enumerate(zip(lhs, rhs))
               if sp.expand(a - b) != 0]
        details.extend(f"{claim} fails in component {k}" for k in bad)
        return not bad

    u, v, w = (lift.symbols(s) for s in "abc")
    lam = sp.Symbol("lam", positive=True)
    e = (0,) * lift.N
    mul = lift.law_exprs

    def inv(x):
        return [poly_to_sympy(p, x) for p in lift.inverse_map]

    def dil(x):
        return [lam ** wk * xk for wk, xk in zip(lift.weights, x)]

    ax = all([holds("right identity", mul(u, e), u),
              holds("left identity", mul(e, u), u),
              holds("right inverse", mul(u, inv(u)), e),
              holds("left inverse", mul(inv(u), u), e),
              holds("associativity", mul(mul(u, v), w), mul(u, mul(v, w)))])
    da = holds("dilation automorphism", mul(dil(u), dil(v)), dil(mul(u, v)))

    # left invariance: d/dv [u*v] applied to Y_j(v) equals Y_j(u*v); the
    # fields are 1-homogeneous: Y_j(delta u)_k = lam^(w_k - 1) Y_j(u)_k; and
    # the first n components of Y_j are X_j, free of fiber variables
    uv, n = mul(u, v), lift.base.n
    li = fh = pr = True
    for j in range(len(lift.fields)):
        Yv = lift.field_exprs(j, v)
        pushed = [sum(sp.diff(c, vi) * Yi for vi, Yi in zip(v, Yv))
                  for c in uv]
        li &= holds(f"left invariance of field {j}", pushed,
                    lift.field_exprs(j, uv))
        fh &= holds(f"homogeneity of field {j}", lift.field_exprs(j, dil(u)),
                    [lam ** (wk - 1) * c for wk, c in
                     zip(lift.weights, lift.field_exprs(j, u))])
        pr &= holds(f"projection of field {j}", lift.field_exprs(j, u)[:n],
                    [poly_to_sympy(c, u[:n])
                     for c in lift.base.fields[j].comps])

    return LiftReport(group_axioms=ax, left_invariant=li,
                      dilation_automorphism=da, fields_homogeneous=fh,
                      projects_to_base=pr, details=details)


# ---------------------------------------------------------------------------
# norm / distance equivalence constants
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceConstants:
    gamma1: float          # gamma1 * ||u|| <= d(0, u)
    gamma2: float          # d(0, u) <= gamma2 * ||u||
    samples: int
    max_error_bound: float


@functools.cache
def calibrate_equivalence(lift: CarnotLift) -> EquivalenceConstants:
    """Measure gamma1, gamma2 on hom-norm shells via the lifted CC metric.

    The measured distance is clipped to the box, which can only overestimate,
    so gamma2 is padded up and gamma1 down by the discretization error.
    """
    dom = BoxDomain((-1.3,) * lift.N, (1.3,) * lift.N, (41,) * lift.N)
    metric = CCMetric(lift, dom)
    dist = metric.distance_field(np.zeros(lift.N))
    pts = dom.points()
    norms = lift.hom_norm(pts)
    # stay on shells comfortably inside the box so clipping cannot bite
    keep = (norms > 0.35) & (norms < 0.75) & (dist < 1e17)
    ratios = dist[keep] / norms[keep]
    pad = 2.0 * metric.tau
    g1 = float(np.min(ratios) - pad / np.min(norms[keep]))
    g2 = float(np.max(ratios) + pad / np.min(norms[keep]))
    if g1 <= 0:
        raise RuntimeError("equivalence calibration degenerate: gamma1 <= 0")
    return EquivalenceConstants(gamma1=g1, gamma2=g2,
                                samples=int(np.count_nonzero(keep)),
                                max_error_bound=pad)


# ---------------------------------------------------------------------------
# fundamental solutions on the Heisenberg lift
# ---------------------------------------------------------------------------

def sqrt_spd(A: np.ndarray) -> np.ndarray:
    """Symmetric positive definite square root via eigendecomposition."""
    A = np.asarray(A, dtype=float)
    if not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    w, V = scipy.linalg.eigh(A)
    if np.min(w) <= 0:
        raise ValueError(f"matrix is not positive definite (eigs {w})")
    return (V * np.sqrt(w)) @ V.T


_H_SYMS = sp.symbols("x1 x2 x3", real=True)   # x3 is the fiber variable


def _gamma_unit_expr(x1, x2, x3) -> sp.Expr:
    """Unnormalized kernel: ((x1^2+x3^2)^2 + 16 (x2 - x1 x3 / 2)^2)^{-1/2}.

    Annihilated by Y1^2 + Y2^2 away from the origin (checked in the tests)
    and homogeneous of degree -2 = 2 - Q for the weights (1, 2, 1).
    """
    rho4 = (x1 ** 2 + x3 ** 2) ** 2 + 16 * (x2 - x1 * x3 / 2) ** 2
    return rho4 ** sp.Rational(-1, 2)


@functools.cache
def _identity_words_fn(length: int):
    """All Y-words of one length of the unnormalized Gamma_I, jointly.

    Returns one numpy function of (x1, t, x3) that gives the 2^length
    words in ``itertools.product`` order.  t = x2 - x1 x3 / 2 is the
    central coordinate in which Gamma_I and every Y-derivative of it are
    written, so no cancellation happens at run time.  The words are
    rational functions of x1, x3, t and the quartic
    rho4 = (x1^2 + x3^2)^2 + 16 t^2, so they are compiled together with
    common-subexpression elimination and the shared powers of rho4 are
    computed once per call.  Compiled once per length and process.
    """
    x1, x2, x3 = _H_SYMS
    t = sp.Symbol("t", real=True)
    lift = lift_grushin1()
    gamma = _gamma_unit_expr(*_H_SYMS)
    exprs = [word_apply_sympy(lift, word, gamma, _H_SYMS)
             .subs(x2, t + x1 * x3 / 2)
             for word in itertools.product(range(2), repeat=length)]
    return sp.lambdify((x1, t, x3), exprs, modules="numpy", cse=True)


class HeisenbergGamma:
    """Fundamental solution of sum_ij a_ij Y_i Y_j on the grushin(1) lift.

    For general SPD A the solution is transported from the identity matrix
    through the group automorphism psi_A that acts by S^{-1} = sqrt(A)^{-1}
    on the horizontal pair (x1, x3) and by 1/det(S) on t = x2 - x1 x3 / 2:
    Gamma_A = det(S)^{-2} Gamma_I o psi_A (det(S)^{-2} is the Jacobian of
    psi_A).  psi_A carries Y_k to sum_l S^{-1}[l, k] Y_l, so every Y-word of
    Gamma_A is a fixed combination of Y-words of Gamma_I at psi_A(u),

        Y_i Y_j Gamma_A = det(S)^{-2} sum_kl S^{-1}[k, i] S^{-1}[l, j]
                          (Y_k Y_l Gamma_I) o psi_A,

    and an instance holds only S^{-1} and det(S); the Gamma_I words are
    compiled once per process.  The overall constant is calibrated once
    from the reproduction identity; see ``normalization_constant``.
    """

    def __init__(self, A=None):
        self.lift = lift_grushin1()
        if A is None:
            A = np.eye(2)
        A = np.asarray(A, dtype=float)
        self.A = A
        S = sqrt_spd(A)
        self.Si = np.linalg.inv(S)
        self.detS = float(np.linalg.det(S))

    def _psi(self, x1, x2, x3) -> tuple:
        """psi_A(u) in the (x1, t, x3) coordinates of the Gamma_I words."""
        Si = self.Si
        a0 = Si[0, 0] * x1 + Si[0, 1] * x3
        b0 = Si[1, 0] * x1 + Si[1, 1] * x3
        return a0, (x2 - x1 * x3 / 2) / self.detS, b0

    def word_fn(self, word):
        """Y-word derivative of Gamma_A (unnormalized) as a numpy function."""
        word = tuple(word)
        words = _identity_words_fn(len(word))
        coefs = [math.prod(float(self.Si[k, w]) for k, w in zip(ks, word))
                 / self.detS ** 2
                 for ks in itertools.product(range(2), repeat=len(word))]

        def fn(x1, x2, x3):
            vals = words(*self._psi(x1, x2, x3))
            return sum(c * g for c, g in zip(coefs, vals) if c != 0.0)

        return fn

    def value(self, u) -> np.ndarray:
        """Gamma at points u (..., 3)."""
        return self.word_value((), u)

    def word_value(self, word, u) -> np.ndarray:
        """Y-word derivative of the normalized Gamma_A at points u (..., 3)."""
        u = np.asarray(u, dtype=float)
        out = np.asarray(
            self.word_fn(word)(u[..., 0], u[..., 1], u[..., 2]), dtype=float)
        return out * normalization_constant()


def _gaussian_bump(widths) -> sp.Expr:
    """Centered Gaussian test function on the lift."""
    return sp.exp(-sum((s / wi) ** 2 for s, wi in zip(_H_SYMS, widths)))


# the entries a11, a12, a21, a22 of A in L_A u
_A_SYMS = sp.symbols("a1:5", real=True)


def _matrix_entries(A) -> tuple:
    """A's entries in row order as floats; A None is the identity."""
    return tuple(float(v) for v in np.ravel(np.eye(2) if A is None else A))


def _operator_expr(system, nonzero: tuple, expr: sp.Expr, syms) -> sp.Expr:
    """L_A u = sum_ij a_ij X_i X_j u over the words whose entry of A is
    flagged in `nonzero` (row order), each with its entry as a symbol of
    ``_A_SYMS``."""
    out = sp.Integer(0)
    for k, word in enumerate(itertools.product(range(2), repeat=2)):
        if nonzero[k]:
            out += _A_SYMS[k] * word_apply_sympy(system, word, expr, syms)
    return out


def _compiled_operator(system, A, expr: sp.Expr, syms):
    """L_A u = sum_ij a_ij X_i X_j u over the two fields of `system`, with
    u = expr, as a numpy function of syms; A None is the identity.

    Only the words with a_ij != 0 are summed, each with its coefficient as
    a symbol, so the symbolic work depends on u and the zero pattern of A
    alone, and A enters numerically.
    """
    a = _matrix_entries(A)
    fn = sp.lambdify(tuple(syms) + _A_SYMS,
                     _operator_expr(system, tuple(v != 0.0 for v in a), expr,
                                    syms),
                     modules="numpy", cse=True)
    return lambda *x: fn(*x, *a)


def _midpoint_axes(half: np.ndarray, cells: np.ndarray) -> list:
    """Per axis, the midpoints of `cells` equal cells on [-half, half]."""
    step = 2 * half / cells
    return [-half[k] + (np.arange(cells[k]) + 0.5) * step[k]
            for k in range(half.size)]


def _graded_levels(half_widths, cells_per_axis, levels: int,
                   shrinks) -> tuple:
    """Nested anisotropic midpoint cubature as one base grid and its dilates.

    Returns (v0, w0, per_level): v0 is the midpoint grid of cells_per_axis
    cells on the box of the given half-widths, w0 its cell volume, and
    level l of per_level is (scale, keep) with scale = shrinks^-l; that
    level consists of the nodes v0[keep] * scale with weight
    w0 * prod(scale).  Each level's box and step shrink by the per-axis
    factors, so the fine cells stay shaped like the kernel's anisotropy
    (weight-2 axes shrink quadratically faster); every level but the last
    leaves out the box of the next, and the last drops its central cell.
    For power-of-two shrinks the dilates are exact in floating point.

    This is the one graded cubature of the package: the kernel cubatures
    (``graded_nodes_aniso``, ``kernels._graded_kernel``), the base
    reproduction test and the streamed normalization cubature all take
    their nodes from it.  v0 is filled and the hole masks are built from
    the 1-D axes, so no temporary of the grid's size is made.
    """
    half = np.asarray(half_widths, dtype=float)
    shr = np.asarray(shrinks, dtype=float)
    dim = half.size
    cells = np.broadcast_to(np.asarray(cells_per_axis, dtype=int), (dim,))
    step = 2 * half / cells
    axes = np.meshgrid(*_midpoint_axes(half, cells), indexing="ij",
                       sparse=True)
    v0 = np.empty(tuple(cells) + (dim,))
    for k, ax in enumerate(axes):
        v0[..., k] = ax
    per_level = []
    for lev in range(levels + 1):
        scale = shr ** -lev
        edge = (half * scale / shr - 1e-15 if lev < levels
                else 0.5 * step * scale)
        drop = np.ones(tuple(cells), dtype=bool)
        for k, ax in enumerate(axes):
            drop &= np.abs(ax * scale[k]) < edge[k]
        per_level.append((scale, ~drop.ravel()))
    return v0.reshape(-1, dim), float(np.prod(step)), per_level


def _lifted_sums(levels, F, xs, n: int) -> np.ndarray:
    """sum over nodes z of (K w)(z) F(x z^{-1}) at each x of xs.

    levels(sl) yields (z1, z2, z3, K w) level by level for the nodes over
    the base-grid slice sl of range(n); x z^{-1} on the grushin(1) lift is
    written out from the group law.  The ``_BLOCK``-node slices run on the
    ordered thread map and their partial sums are added in block order,
    so the result does not depend on the number of workers.
    """
    def block(sl):
        part = np.zeros(len(xs))
        for z1, z2, z3, kw in levels(sl):
            z13 = z1 * z3
            for k, x in enumerate(xs):
                part[k] += np.sum(kw * F(x[0] - z1, x[1] - z2 + z13
                                         - x[0] * z3, x[2] - z3))
        return part

    parts = _ordered_map(block, [slice(a, a + _BLOCK)
                                 for a in range(0, n, _BLOCK)])
    return sum(parts[1:], parts[0])


def graded_nodes_aniso(center, half_widths, cells_per_axis,
                       levels: int, shrinks) -> tuple:
    """Midpoint cubature with nested anisotropic refinement around `center`.

    The levels of ``_graded_levels`` concatenated, as nodes and weights.
    """
    v0, w0, per_level = _graded_levels(half_widths, cells_per_axis, levels,
                                       shrinks)
    nodes = [v0[keep] * scale for scale, keep in per_level]
    weights = [np.full(len(n), w0 * float(np.prod(scale)))
               for n, (scale, _) in zip(nodes, per_level)]
    return (np.concatenate(nodes) + np.asarray(center, dtype=float),
            np.concatenate(weights))


def _convolution_integrals(gamma_fn, Lu, xs) -> np.ndarray:
    """int Gamma(z) (L u)(x z^{-1}) dz at each x, graded around z = 0.

    gamma_fn maps the node coordinates z1, z2, z3 to kernel values.  The
    calibration cubature (half-width 8, 128 cells per axis, three levels
    of shrink 4; the innermost central cell is dropped, its contribution is
    O(cell^2) for a kernel of degree -2) is streamed in blocks of the base
    grid (``_lifted_sums``): a block takes its nodes of every level in
    turn, so no level is held whole.
    """
    v0, w0, per_level = _graded_levels((8.0,) * 3, 128, 3, (4.0,) * 3)

    def levels(sl):
        cols = [np.ascontiguousarray(v0[sl, k]) for k in range(3)]
        for scale, keep in per_level:
            z1, z2, z3 = (c[keep[sl]] * s for c, s in zip(cols, scale))
            yield z1, z2, z3, w0 * float(np.prod(scale)) * gamma_fn(z1, z2, z3)

    return _lifted_sums(levels, Lu, np.atleast_2d(np.asarray(xs, dtype=float)),
                        len(v0))


def reproduction_residual(gamma: HeisenbergGamma, bump_expr: sp.Expr,
                          xs: np.ndarray) -> float:
    """Max relative error of u(x) = int Gamma(y^{-1} x) (L_A u)(y) dy.

    Substituting z = y^{-1} * x turns this into a convolution against a
    fixed singular kernel; the quadrature is graded around z = 0.
    """
    Lu = _compiled_operator(gamma.lift, gamma.A, bump_expr, _H_SYMS)
    u_fn = sp.lambdify(_H_SYMS, bump_expr, modules="numpy")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    # compiled and calibrated here, before the cubature's workers start
    fn = gamma.word_fn(())
    c0 = normalization_constant()
    integrals = _convolution_integrals(lambda *z: fn(*z) * c0, Lu, xs)
    targets = np.array([float(u_fn(*x)) for x in xs])
    return float(np.max(np.abs(integrals - targets) / np.abs(targets)))


@functools.cache
def normalization_constant() -> float:
    """Overall constant of the fundamental solution family.

    Fixed by matching the reproduction identity for one Gaussian profile at
    several evaluation points; a structurally different profile validates
    the value (`test` suite enforces the tolerance).  Calibrated lazily and
    cached for the process lifetime; the cubature is streamed in blocks
    (``_convolution_integrals``).
    """
    gamma = HeisenbergGamma()
    bump = _gaussian_bump((1.0, 1.5, 1.0))
    Lu = _compiled_operator(gamma.lift, None, bump, _H_SYMS)
    u_fn = sp.lambdify(_H_SYMS, bump, modules="numpy")
    xs = np.array([[0.0, 0.0, 0.0], [0.4, 0.1, -0.2], [-0.3, 0.25, 0.35],
                   [0.15, -0.3, 0.1]])
    integrals = _convolution_integrals(gamma.word_fn(()), Lu, xs)
    ratios = np.array([float(u_fn(*x)) for x in xs]) / integrals
    c0 = float(np.mean(ratios))
    spread = float(np.max(np.abs(ratios / c0 - 1.0)))
    if spread > 5e-3:
        raise RuntimeError(
            f"normalization calibration inconsistent: spread {spread:.2e}")
    return c0


def spd_sweep(count: int = 12) -> list:
    """Deterministic SPD test matrices with eigenvalues in [0.25, 4]."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(count):
        theta = rng.uniform(0, np.pi)
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        eigs = rng.uniform(0.25, 4.0, 2)
        out.append(R @ np.diag(eigs) @ R.T)
    return out


# ---------------------------------------------------------------------------
# saturation: integrating out the fiber
# ---------------------------------------------------------------------------

def _hyp2f1(ab, c, z):
    """sympy's hyper((a, b), (c,), z) for lambdify."""
    import scipy.special
    return scipy.special.hyp2f1(*ab, *c, z)


@functools.cache
def _grushin_word_fn(word: tuple):
    """X-word, in q, of the unnormalized Gamma_A(p; q), as a numpy function.

    The fiber integral of GammaTilde_A((p,0)^{-1} * (q,eta)) is
    int_R d eta / (e^2 |P(eta)|) with P a complex quadratic in eta, that is
    a complete elliptic integral.  With a = q1 - p1, mu = 2 (p1 + q1) / e,
    B = A^{-1}, e = det sqrt(A) and the discriminant D of P,

        Re D = 4 (B12^2 - B11 B22) a^2 - mu^2,
        Im D = -4 B12 a mu - 16 B22 (q2 - p2) / e,

    Gamma_A = 2 pi 2F1(1/2, 1/2; 1; k^2) / (e^2 |D|^{1/2}) with
    k^2 = (|D| + Re D + 2 mu^2) / (2 |D|).  k^2 = 1 only on the diagonal.
    The hypergeometric form differentiates into 2F1s that stay finite at
    k = 0 (p1 + q1 = 0, q2 = p2), where sympy's derivative of elliptic_k,
    written with E and K, is a removable 0/0.  The function takes
    (p1, p2, q1, q2, B11, B12, B22, e); the matrix enters numerically, so
    each word is compiled once per process.
    """
    p1, p2 = sp.symbols("p1 p2", real=True)
    q1, q2 = _B_SYMS
    b11, b12, b22, e = sp.symbols("B11 B12 B22 e", real=True)
    a = q1 - p1
    mu = 2 * (p1 + q1) / e
    re_d = 4 * (b12 ** 2 - b11 * b22) * a ** 2 - mu ** 2
    im_d = -4 * b12 * a * mu - 16 * b22 * (q2 - p2) / e
    abs_d = sp.sqrt(re_d ** 2 + im_d ** 2)
    k2 = (abs_d + re_d + 2 * mu ** 2) / (2 * abs_d)
    half = sp.Rational(1, 2)
    gamma = (2 * sp.pi * sp.hyper((half, half), (1,), k2)
             / (e ** 2 * sp.sqrt(abs_d)))
    return sp.lambdify((p1, p2, q1, q2, b11, b12, b22, e),
                       word_apply_sympy(grushin(1), word, gamma, _B_SYMS),
                       modules=[{"hyper": _hyp2f1}, "numpy"], cse=True)


class GrushinGamma:
    """Kernel on the base plane obtained by integrating out the fiber.

    Gamma_A(x; y) = int_R GammaTilde_A((x,0)^{-1} * (y,eta)) d eta, in the
    closed form of ``_grushin_word_fn``.  An instance holds only A^{-1}
    and det sqrt(A).
    """

    def __init__(self, A=None):
        A = np.eye(2) if A is None else np.asarray(A, dtype=float)
        e = float(np.linalg.det(sqrt_spd(A)))
        B = np.linalg.inv(A)
        self._coefs = (B[0, 0], B[0, 1], B[1, 1], e)

    def _word(self, word, p, q) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        fn = _grushin_word_fn(tuple(word))
        return normalization_constant() * np.asarray(
            fn(p[..., 0], p[..., 1], q[..., 0], q[..., 1], *self._coefs),
            dtype=float)

    def value(self, x, y) -> np.ndarray:
        return self._word((), x, y)

    def x_derivative(self, word, x, y) -> np.ndarray:
        """(X_word)_x Gamma_A(x; y): the Y-word kernel, fiber attached to x.

        Equals int (Y_word GammaTilde)((y,0)^{-1} * (x, eta)) d eta; the
        eta-derivatives of the lifted word integrate to zero.
        """
        return self._word(word, y, x)


_B_SYMS = sp.symbols("y1 y2", real=True)


def base_reproduction_residual(A, bump_expr: sp.Expr, xs) -> float:
    """Max relative error of u(x) = int Gamma_A(x; y) (L_A u)(y) dy on R^2."""
    G = GrushinGamma(A)
    Lu = _compiled_operator(grushin(1), A, bump_expr, _B_SYMS)
    u_fn = sp.lambdify(_B_SYMS, bump_expr, modules="numpy")
    worst = 0.0
    for x in np.atleast_2d(np.asarray(xs, dtype=float)):
        ys, wts = graded_nodes_aniso(x, (6.0, 6.0), 80, 2, (4.0, 4.0))
        vals = G.value(x, ys)
        integral = float(np.sum(wts * vals * Lu(ys[:, 0], ys[:, 1])))
        target = float(u_fn(*x))
        worst = max(worst, abs(integral - target) / abs(target))
    return worst


# ---------------------------------------------------------------------------
# fiber-slice volume constants and the fiber-integrated cutoff family
# ---------------------------------------------------------------------------

@dataclass
class FiberConstants:
    """Comparison constants between lifted-ball eta-slices and ball volumes.

    For the lifted ball B~(0, r), the measure of the slice over a base
    point y, divided by |B~| / |B_X(0,r)|, is bounded above by c_upper for
    every y, and stays above c_lower for y in the shrunk ball B_X(0,
    kappa r).  kappa is the largest ladder value whose lower constant
    clears the floor.
    """

    kappa: float
    c_lower: float
    c_upper: float
    radii: tuple
    floor: float


@functools.cache
def calibrate_fiber_constants(lift: CarnotLift) -> FiberConstants:
    """Measure the slice constants of the lifted metric on a box grid.

    The base distance is recovered from the lifted one as
    d_X(0, y) = min_eta d~((0,0), (y, eta)): projecting a lifted
    horizontal path to the base is admissible with the same controls, and
    any base path lifts at equal cost, so the two infima coincide.
    """
    n, N = lift.base.n, lift.N
    radii, floor = (0.35, 0.45, 0.55), 0.05
    dom = BoxDomain((-1.7,) * N, (1.7,) * N, (41,) * N)
    metric = CCMetric(lift, dom)
    dgrid = metric.distance_field(np.zeros(N)).reshape(dom.counts)
    fiber_axes = tuple(range(n, N))
    fiber_cell = float(np.prod(dom.spacing[n:]))
    base = BoxDomain(dom.lower[:n], dom.upper[:n], dom.counts[:n])
    d_base = dgrid.min(axis=fiber_axes)

    per_radius = []
    for r in radii:
        vol_lift = ball_measure(dgrid, r, dom)
        vol_base = ball_measure(d_base, r, base)
        slice_meas = (dgrid < r).sum(axis=fiber_axes) * fiber_cell
        per_radius.append((r, slice_meas * vol_base / vol_lift))

    c_upper = max(float(sm.max()) for _, sm in per_radius)
    kappa, c_lower = 0.0, 0.0
    for cand in np.arange(0.95, 0.14, -0.05):
        lows = [float(sm[d_base < cand * r].min()) for r, sm in per_radius]
        if min(lows) >= floor:
            kappa, c_lower = float(cand), min(lows)
            break
    if kappa == 0.0:
        raise RuntimeError("no kappa in the ladder clears the slice floor")
    return FiberConstants(kappa=kappa, c_lower=c_lower, c_upper=c_upper,
                          radii=radii, floor=floor)


def _smoothstep_expr(t):
    """Quintic smoothstep as a Piecewise (differentiates without deltas)."""
    core = t ** 3 * (6 * t ** 2 - 15 * t + 10)
    return sp.Piecewise((0, t <= 0), (1, t >= 1), (core, True))


@dataclass
class CutoffFamily:
    """A cutoff adapted to the metric ball B(x, R), sampled on a grid.

    values holds phi^x on the base grid; derivatives maps derivative words
    (tuples of field indices) to sampled grids of X_I phi^x, computed by
    differentiating under the fiber integral with the lifted fields.
    """

    center: np.ndarray
    R: float
    H: float
    values: GridFunction
    derivatives: dict
    ball_volume: float

    def support_radius(self) -> float:
        return self.H * self.R


@functools.cache
def _cutoff_words_fn(lift: CarnotLift):
    """The X-words of length <= 2 of the cutoff profile psi, jointly.

    psi(u) is the quintic smoothstep of (t2^L - s) / (t2^L - t1^L) with
    s = sum_i u_i^(L / w_i), L the norm exponent (every exponent is even,
    so no absolute values are needed).  Returns the words, in the order
    (), (i,), (i, j), and one numpy function of (u_1, ..., u_N, t1, t2)
    that gives them all; the radii are symbols, so the words are compiled
    with common-subexpression elimination once per lift and process.
    """
    usyms = lift.symbols("u")
    t1, t2 = sp.symbols("t1 t2", positive=True)
    L = lift.norm_exponent
    s_expr = sum(u ** (L // w) for u, w in zip(usyms, lift.weights))
    psi = _smoothstep_expr((t2 ** L - s_expr) / (t2 ** L - t1 ** L))
    m = lift.base.m
    words = [(), *[(i,) for i in range(m)],
             *[(i, j) for i in range(m) for j in range(m)]]
    fn = sp.lambdify((*usyms, t1, t2),
                     [word_apply_sympy(lift, w, psi, usyms) for w in words],
                     modules="numpy", cse=True)
    return words, fn


def cutoff_family(lift: CarnotLift, x, R: float,
                  domain: BoxDomain) -> CutoffFamily:
    """Cutoff phi^x(y) = c0^{-1} * integral of psi((x,0)^{-1} o (y,eta)).

    psi is radial in the smooth homogeneous norm: identically 1 for
    ||u|| <= R/(gamma1 kappa), vanishing beyond twice that, with a C^2
    quintic joint in between; by the norm/distance equivalence phi^x is
    then supported in the metric ball of radius H R around x, with
    H = 2 gamma2 / (gamma1 kappa).  The normalizer c0 is the fiber
    integral of psi at the group origin; fiber translation has unit
    Jacobian, so phi^x(x) = 1 for every center, and left invariance of
    the lifted fields makes the size and X-derivative bounds independent
    of the center.
    """
    x = np.asarray(x, dtype=float)
    eq = calibrate_equivalence(lift)
    fib = calibrate_fiber_constants(lift)
    t1 = R / (eq.gamma1 * fib.kappa)
    t2 = 2.0 * t1
    H = 2.0 * eq.gamma2 / (eq.gamma1 * fib.kappa)
    words, words_fn = _cutoff_words_fn(lift)

    volB = ball_volume(lift.base, x, R, domain)

    pts = domain.points()                          # (npts, n)
    eta = np.linspace(-1.05 * t2, 1.05 * t2, 161)
    inv_x = lift.inverse(np.concatenate([x, np.zeros(lift.p)]))
    yeta = np.concatenate(
        [np.broadcast_to(pts[:, None, :], (pts.shape[0], eta.size,
                                           lift.base.n)),
         np.broadcast_to(eta[None, :, None], (pts.shape[0], eta.size,
                                              lift.p))], axis=-1)
    u = lift.multiply(inv_x, yeta)                 # (npts, K, N)
    ucomp = [u[..., k] for k in range(lift.N)]

    origin = [np.zeros_like(eta) for _ in range(lift.N - lift.p)] + [eta]
    c0 = float(np.trapezoid(words_fn(*origin, t1, t2)[0], eta))

    grids = {}
    for w, vals in zip(words, words_fn(*ucomp, t1, t2)):
        vals = np.trapezoid(vals, eta, axis=1) / c0
        grids[w] = GridFunction(domain, vals.reshape(domain.counts))
    return CutoffFamily(center=x, R=R, H=H, values=grids[()],
                        derivatives={w: g for w, g in grids.items() if w},
                        ball_volume=volB)
