"""Discrete directional derivatives, Sobolev norms along vector fields,
variable-coefficient operators, and a-priori estimate ratio experiments.

X-derivatives are centered finite differences of the grid samples combined
with exact polynomial coefficients, one sparse matrix per (field, box)
(``field_matrix``); each application shrinks the trusted margin by one
cell.  ``fields.word_apply_sympy`` gives the same derivatives exactly (via
sympy) for oracle comparisons.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy import sparse

from .domain import BoxDomain, GridFunction
from .fields import HormanderSystem, PolyVectorField


class EllipticityError(ValueError):
    """Coefficient matrix leaves the [nu, 1/nu] eigenvalue window."""


# ---------------------------------------------------------------------------
# discrete X-derivatives
# ---------------------------------------------------------------------------

# field matrices kept (``field_matrix``); one holds 12 B per stored entry,
# at most two per nonzero coefficient per node: 40 kB per field on 41^2
_FIELD_MATRIX_LIMIT = 16


def _axis_difference(count: int, h: float) -> sparse.dia_matrix:
    """The 1-D stencil of ``np.gradient(edge_order=1)``: centred inside,
    one-sided on the two end nodes."""
    below, above = np.full(count - 1, -0.5 / h), np.full(count - 1, 0.5 / h)
    below[-1], above[0] = -1.0 / h, 1.0 / h
    diag = np.zeros(count)
    diag[0], diag[-1] = -1.0 / h, 1.0 / h
    return sparse.diags([below, diag, above], [-1, 0, 1])


@functools.lru_cache(maxsize=_FIELD_MATRIX_LIMIT)
def field_matrix(X: PolyVectorField, domain: BoxDomain) -> sparse.csr_matrix:
    """X as a read-only CSR matrix on the flattened grid of domain: the
    difference stencil along each axis scaled row by row by the exact
    coefficient at the node."""
    pts, counts = domain.points(), domain.counts
    out = sparse.csr_matrix((domain.num_points,) * 2)
    for k, c in enumerate(X.comps):
        if c.is_zero():
            continue
        before, after = int(np.prod(counts[:k])), int(np.prod(counts[k + 1:]))
        step = sparse.kron(sparse.identity(before), sparse.kron(
            _axis_difference(counts[k], domain.spacing[k]),
            sparse.identity(after)))
        out = out + sparse.diags(c(pts)) @ step
    out = out.tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    for a in (out.data, out.indices, out.indptr):
        a.flags.writeable = False
    return out


def _apply(mat: sparse.csr_matrix, f: GridFunction) -> GridFunction:
    """One field matrix applied to f; the trusted margin shrinks a cell."""
    dom = f.domain
    return GridFunction(dom, (mat @ f.values.ravel()).reshape(dom.counts),
                        f.margin + 1)


def apply_field_grid(X: PolyVectorField, f: GridFunction) -> GridFunction:
    """Centered-difference directional derivative sum_k c_k(x) df/dx_k."""
    return _apply(field_matrix(X, f.domain), f)


def apply_word_grid(system: HormanderSystem, word, f: GridFunction) -> GridFunction:
    """X_{i1} X_{i2} ... X_{ik} f by repeated centered differencing."""
    out = f
    for i in reversed(word):
        out = apply_field_grid(system.fields[i], out)
    return out


# ---------------------------------------------------------------------------
# symbolic oracles
# ---------------------------------------------------------------------------

def grid_from_expr(domain: BoxDomain, expr: sp.Expr, xs,
                   margin: int = 0) -> GridFunction:
    fn = sp.lambdify(xs, expr, "numpy")
    pts = domain.points()
    vals = np.broadcast_to(
        np.asarray(fn(*[pts[:, k] for k in range(domain.dim)]), dtype=float),
        (pts.shape[0],)).reshape(domain.counts)
    return GridFunction(domain, vals.copy(), margin)


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

@dataclass
class SobolevReport:
    p: float
    k: int
    base_norm: float                 # ||f||_p
    word_norms: dict                 # word tuple -> ||X_I f||_p, 1 <= |I| <= k
    total: float

    def __float__(self):
        return self.total


def _word_grids(system: HormanderSystem, f: GridFunction, k: int) -> dict:
    """X_I f for the words I of length 1..k, shorter words first, keyed in
    operator order as ``apply_word_grid``: (i, j) holds X_i X_j f."""
    mats = [field_matrix(X, f.domain) for X in system.fields]
    grids, frontier = {}, {(): f}
    for _ in range(k):
        frontier = {(i,) + word: _apply(mat, g)
                    for word, g in frontier.items()
                    for i, mat in enumerate(mats)}
        grids.update(frontier)
    return grids


def _sobolev_report(f: GridFunction, words: dict, k: int,
                    p: float) -> SobolevReport:
    base = f.lp_norm(p)
    word_norms = {w: g.lp_norm(p) for w, g in words.items()}
    return SobolevReport(p=p, k=k, base_norm=base, word_norms=word_norms,
                         total=base + sum(word_norms.values()))


def sobolev_norm(system: HormanderSystem, f: GridFunction, k: int,
                 p: float) -> SobolevReport:
    """||f||_p plus the sum of ||X_I f||_p over words of length 1..k."""
    return _sobolev_report(f, _word_grids(system, f, k), k, p)


# ---------------------------------------------------------------------------
# the operator L
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOperator:
    """L u = sum_ij a_ij(x) X_i X_j u with a pointwise elliptic matrix.

    coefficients maps (i, j) with i <= j to a GridFunction (symmetry is
    imposed structurally); construction verifies every pointwise eigenvalue
    lies in [nu, 1/nu].
    """

    system: HormanderSystem
    coefficients: dict
    nu: float
    domain: BoxDomain

    def __post_init__(self):
        if not (0 < self.nu <= 1):
            raise ValueError("nu must lie in (0, 1]")
        m = self.system.m
        P = self.domain.num_points
        mat = np.zeros((P, m, m))
        for (i, j), g in self.coefficients.items():
            if i > j:
                raise ValueError("store coefficients with i <= j only")
            if g.domain != self.domain:
                raise ValueError("coefficient grid on a different domain")
            mat[:, i, j] = g.values.ravel()
            mat[:, j, i] = g.values.ravel()
        eigs = np.linalg.eigvalsh(mat)
        lo, hi = float(eigs.min()), float(eigs.max())
        if lo < self.nu - 1e-12 or hi > 1.0 / self.nu + 1e-12:
            raise EllipticityError(
                f"pointwise eigenvalues [{lo:.4g}, {hi:.4g}] leave "
                f"[{self.nu:.4g}, {1 / self.nu:.4g}]")

    def entry(self, i: int, j: int) -> GridFunction:
        key = (i, j) if i <= j else (j, i)
        if key in self.coefficients:
            return self.coefficients[key]
        return GridFunction(self.domain, np.zeros(self.domain.counts))

    @classmethod
    def constant(cls, system: HormanderSystem, A: np.ndarray, nu: float,
                 domain: BoxDomain) -> "DiscreteOperator":
        A = np.asarray(A, dtype=float)
        coeffs = {}
        for i in range(system.m):
            for j in range(i, system.m):
                if A[i, j] != 0.0:
                    coeffs[(i, j)] = GridFunction(
                        domain, np.full(domain.counts, A[i, j]))
        return cls(system, coeffs, nu, domain)

    @classmethod
    def identity(cls, system: HormanderSystem,
                 domain: BoxDomain) -> "DiscreteOperator":
        return cls.constant(system, np.eye(system.m), 0.5, domain)


def apply_L(op: DiscreteOperator, u: GridFunction) -> GridFunction:
    """sum_ij a_ij(x) X_i X_j u; margin grows by two stencil widths."""
    return _L_from_words(op, u, _word_grids(op.system, u, 2))


def _L_from_words(op: DiscreteOperator, u: GridFunction,
                  words: dict) -> GridFunction:
    """L u summed from the word grids of u (see _word_grids)."""
    out, margin = np.zeros(op.domain.counts), u.margin + 2
    for i in range(op.system.m):
        for j in range(op.system.m):
            a = op.entry(i, j)
            if not np.any(a.values):
                continue
            second = words[(i, j)]
            out += a.values * second.values
            margin = max(margin, second.margin, a.margin)
    return GridFunction(op.domain, out, margin)


# ---------------------------------------------------------------------------
# estimate ratios
# ---------------------------------------------------------------------------

def apriori_ratio(op: DiscreteOperator, u: GridFunction, p: float):
    """||u||_{W^{2,p}} / (||Lu||_p + ||u||_p), with the report attached."""
    return _ratio(op, u, 0, p)


def _ratio(op: DiscreteOperator, u: GridFunction, k: int, p: float):
    """(||u||_{W^{k+2,p}} / (||Lu||_{W^{k,p}} + ||u||_p), report of u);
    u is differentiated once per word, and L u summed from those grids."""
    words = _word_grids(op.system, u, k + 2)
    rep = _sobolev_report(u, words, k + 2, p)
    Lu = _L_from_words(op, u, words)
    denom = sobolev_norm(op.system, Lu, k, p).total + u.lp_norm(p)
    if denom == 0.0:
        return 0.0, rep
    return rep.total / denom, rep


@dataclass
class InterpolationRecord:
    eps: float
    lhs: float                       # ||X_i u||_p
    rhs_first: float                 # eps * ||X_i^2 u||_p
    base: float                      # ||u||_p
    c_required: float                # smallest c with lhs <= rhs_first + c/eps * base


def interpolation_check(system: HormanderSystem, u: GridFunction, i: int,
                        p: float, eps_list):
    """Both sides of the intermediate-norm inequality per epsilon.

    Returns (records, c_p) where c_p is the smallest constant making the
    inequality hold for every epsilon in the list.
    """
    mat = field_matrix(system.fields[i], u.domain)
    Xu = _apply(mat, u)
    XXu = _apply(mat, Xu)
    lhs = Xu.lp_norm(p)
    t2 = XXu.lp_norm(p)
    t0 = u.lp_norm(p)
    records = []
    for eps in eps_list:
        rhs1 = eps * t2
        if t0 == 0.0:
            c_req = 0.0 if lhs <= rhs1 else float("inf")
        else:
            c_req = max(0.0, (lhs - rhs1) * eps / t0)
        records.append(InterpolationRecord(eps, lhs, rhs1, t0, c_req))
    return records, max(r.c_required for r in records)


def leibniz_expand(system: HormanderSystem, J, a: GridFunction,
                   w: GridFunction) -> GridFunction:
    """X_J(a w) expanded by the iterated product rule in the order of J.

    Each application of X_j maps a term (A, W) to (X_j A, W) + (A, X_j W);
    the returned grid is the sum of products of the fully expanded terms,
    and must agree with direct differentiation of a*w within stencil error.
    """
    terms = [(a, w)]
    for j in reversed(J):
        mat = field_matrix(system.fields[j], a.domain)
        nxt = []
        for A, W in terms:
            nxt.append((_apply(mat, A), W))
            nxt.append((A, _apply(mat, W)))
        terms = nxt
    dom = a.domain
    out = np.zeros(dom.counts)
    margin = 0
    for A, W in terms:
        out += A.values * W.values
        margin = max(margin, A.margin, W.margin)
    return GridFunction(dom, out, margin)


def higher_order_ratio(op: DiscreteOperator, u: GridFunction, k: int,
                       p: float) -> float:
    """||u||_{W^{k+2,p}} / (||Lu||_{W^{k,p}} + ||u||_p)."""
    return _ratio(op, u, k, p)[0]


# ---------------------------------------------------------------------------
# manufactured test functions
# ---------------------------------------------------------------------------

def bump_expr(xs, widths, amplitude: float = 1.0) -> sp.Expr:
    """Separable Gaussian bump exp(-sum (x_k/w_k)^2)."""
    e = sp.Integer(0)
    for x, w in zip(xs, widths):
        e += (x / sp.Float(w)) ** 2
    return sp.Float(amplitude) * sp.exp(-e)


def oscillatory_expr(xs, freqs, widths) -> sp.Expr:
    """Gaussian bump times a product of axis cosines."""
    e = bump_expr(xs, widths)
    for x, f in zip(xs, freqs):
        if f:
            e *= sp.cos(sp.Float(f) * x)
    return e


def dilate_expr(system: HormanderSystem, expr: sp.Expr, xs,
                lam: float) -> sp.Expr:
    """Compose with the anisotropic dilation of the field system."""
    sub = {x: sp.Float(lam) ** w * x
           for x, w in zip(xs, system.dilations.exponents)}
    return expr.subs(sub, simultaneous=True)


def test_function_suite(xs):
    """Ten deterministic bump/oscillation expressions for norm sweeps."""
    rng = np.random.default_rng(20260826)
    out = []
    for _ in range(10):
        widths = rng.uniform(0.4, 1.0, size=len(xs))
        if rng.random() < 0.5:
            out.append(bump_expr(xs, widths, amplitude=rng.uniform(0.5, 2)))
        else:
            freqs = rng.integers(0, 4, size=len(xs))
            out.append(oscillatory_expr(xs, freqs, widths))
    return out
