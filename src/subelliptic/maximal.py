"""Maximal functions, mean oscillation, and VMO moduli over metric balls.

The uncentered supremum over all metric balls is replaced by a finite family:
centers on a strided subgrid, radii on a dyadic ladder.  Every value computed
this way is a lower bound for the true supremum; refinement stability of the
family (halving the stride) is the quantitative check that the truncation is
harmless.  Balls that reach the box boundary, or that touch the untrusted
margin of a sampled function, are never averaged over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .domain import BoxDomain, GridFunction, MarginError
from .fields import HormanderSystem
from .geometry import get_metric
from .pool import _ordered_map


class CoverageGapError(RuntimeError):
    """Some grid point lies in no family ball at the smallest radius."""


# ---------------------------------------------------------------------------
# ball family
# ---------------------------------------------------------------------------

@dataclass
class BallFamily:
    """Finite family of metric balls: strided centers, dyadic radii.

    distance[c, p] is the CC distance from center c to grid point p, so the
    ball (c, r) is the boolean slice distance[c] < r.  The family radii are
    sliced once, when the family is built, into sparse 0/1 memberships:
    members[k] is the CSR matrix (C, num_points) of the radius-radii[k]
    balls, counts[k] the balls' node counts, and clipped[c, k] flags balls
    that reach the box faces.
    Which balls a function's statistics may use depends on its trusted
    margin alone, so ``usable`` keeps them per margin.
    """

    domain: BoxDomain
    q: float                       # volume growth exponent of the metric
    centers: np.ndarray            # (C, n) points
    radii: np.ndarray              # increasing, radii[k] = r0 * 2^k
    distance: np.ndarray           # (C, num_points)
    stride: int = 1

    members: list = field(init=False, repr=False)       # K CSR (C, P)
    counts: np.ndarray = field(init=False, repr=False)  # (K, C)
    clipped: np.ndarray = field(init=False, repr=False)  # (C, K) bool
    _usable: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        self.members = []
        for r in self.radii:
            inside = self.distance < r
            indptr, points = _csr_arrays(inside)
            self.members.append(sparse.csr_matrix(
                (np.ones(len(points)), points, indptr), shape=inside.shape))
        self.counts = np.array([np.diff(m.indptr) for m in self.members])
        self.clipped = np.array([m @ self.domain.border > 0
                                 for m in self.members]).T

    @property
    def num_centers(self) -> int:
        return int(self.centers.shape[0])

    def usable(self, f: GridFunction) -> "_Usable":
        """The nodes and balls open to f's statistics, and the margin they
        cover, built on the first use of f's trusted margin.

        A ball is usable when it holds no node outside: none on the box
        faces (it is unclipped) and none in f's untrusted margin.
        """
        use = self._usable.get(f.margin)
        if use is None:
            outside = self.domain.border | ~f.interior_mask().ravel()
            radii = tuple(_UsableBalls.of(m, counts, outside)
                          for m, counts in zip(self.members, self.counts))
            covered = np.logical_or.reduce(
                [np.diff(b.point_balls[0]) > 0 for b in radii])
            use = self._usable[f.margin] = _Usable(
                outside, radii, _covering_margin(covered, self.domain))
        return use

    def coverage(self, k: int) -> float:
        """Share of the grid points that lie in a radius-radii[k] ball."""
        return np.unique(self.members[k].indices).size \
            / self.domain.num_points


class _UsableBalls(NamedTuple):
    """The usable balls of one family radius, as the family stores all."""

    members: sparse.csr_matrix   # (U, P) 0/1 memberships
    counts: np.ndarray           # (U,) node counts
    points: np.ndarray           # members.indices as intp
    point_balls: tuple           # (indptr, balls): usable holders per point

    @classmethod
    def of(cls, members, counts, outside) -> "_UsableBalls":
        rows = np.flatnonzero(members @ outside == 0)
        sub = members[rows]
        holders = sub.T.tocsr()
        return cls(sub, counts[rows], sub.indices.astype(np.intp),
                   (holders.indptr.astype(np.intp),
                    holders.indices.astype(np.intp)))


class _Usable(NamedTuple):
    """A BallFamily's view of the functions of one trusted margin."""

    outside: np.ndarray        # flat bool: box faces or untrusted nodes
    radii: tuple               # _UsableBalls per family radius
    covering: int | None       # smallest margin whose interior the
                               # usable balls cover; None if none is


def _csr_arrays(mask: np.ndarray) -> tuple:
    """CSR row pointers and column indices of a boolean mask.

    Both are intp, so gathers through them need no index cast.
    """
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(mask.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=mask.shape[0]), out=indptr[1:])
    return indptr, cols


def _row_reduce(ufunc, vals: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """ufunc.reduce of each CSR row's entries; 0 on empty rows."""
    out = np.zeros(len(indptr) - 1)
    full = np.diff(indptr) > 0
    out[full] = ufunc.reduceat(vals, indptr[:-1][full])
    return out


def build_ball_family(system: HormanderSystem, domain: BoxDomain,
                      r0: float, num_radii: int = 3,
                      stride: int = 4) -> BallFamily:
    """Distance fields from every stride-th grid node, computed in chunks.

    The chunks of 48 consecutive centers run on the ordered thread map.  A
    chunk's value iteration stops at the sweep where its slowest field
    settles, so chunk membership fixes the stop sweep of each field: the
    fields do not depend on the number of workers, but a different chunk
    size changes them at rounding level.

    Raises CoverageGapError unless every grid point lies in at least one
    family ball at the smallest radius (possibly a clipped one: coverage is
    a geometric property of the center net, clipping a per-use filter).
    """
    if min(stride, num_radii) < 1:
        raise ValueError("stride and num_radii must be at least 1")
    metric = get_metric(system, domain)
    # Always include the last node per axis so the net reaches the boundary.
    idx_axes = [np.unique(np.append(np.arange(0, c, stride), c - 1))
                for c in domain.counts]
    mesh = np.meshgrid(*idx_axes, indexing="ij")
    flat = np.ravel_multi_index(tuple(m.ravel() for m in mesh), domain.counts)
    centers = np.array([domain.point_at(i) for i in flat])
    chunk = 48
    if min(chunk, len(centers)) > 1:
        metric._corner_order_moves()     # built once, before the threads
    dist = np.empty((centers.shape[0], domain.num_points))

    def fill(lo):
        dist[lo:lo + chunk] = metric.distance_fields(centers[lo:lo + chunk])

    _ordered_map(fill, range(0, len(centers), chunk))
    radii = r0 * 2.0 ** np.arange(num_radii)
    fam = BallFamily(domain=domain, q=float(system.q), centers=centers,
                     radii=radii, distance=dist, stride=stride)
    gaps = domain.num_points - np.unique(fam.members[0].indices).size
    if gaps:
        raise CoverageGapError(
            f"{gaps} grid points outside every "
            f"radius-{radii[0]:g} ball; decrease stride or increase r0")
    return fam


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------

def _ball_stats(f: GridFunction, fam: BallFamily, oscillation: bool):
    """Per family radius: one statistic of f on every usable family ball.

    A ball is usable when it is unclipped and lies inside f's trusted
    samples (``BallFamily.usable``).  Yields (balls, stat) per radius: the
    radius's ``_UsableBalls`` and, per usable ball, the mean of |f| or the
    mean oscillation of f.  The one statistic behind the maximal functions
    and the VMO modulus.
    """
    vals = f.values.ravel()
    for balls in fam.usable(f).radii:
        if oscillation:
            avg = (balls.members @ vals) / balls.counts
            dev = np.abs(vals[balls.points] - np.repeat(avg, balls.counts))
            stat = _row_reduce(np.add, dev, balls.members.indptr)
        else:
            stat = balls.members @ np.abs(vals)
        yield balls, stat / balls.counts


def _family_sup(f: GridFunction, fam: BallFamily, oscillation: bool):
    margin = fam.usable(f).covering
    if margin is None:
        raise MarginError("no interior region is covered by usable balls")
    out = np.zeros(f.domain.num_points)
    for balls, stat in _ball_stats(f, fam, oscillation):
        indptr, holders = balls.point_balls
        np.maximum(out, _row_reduce(np.maximum, stat.take(holders), indptr),
                   out=out)
    return GridFunction(f.domain, out.reshape(f.domain.counts),
                        max(margin, f.margin))


def _covering_margin(covered: np.ndarray, domain: BoxDomain) -> int | None:
    """Smallest margin whose interior is entirely covered, None if none."""
    cov = covered.reshape(domain.counts)
    for m in range((min(domain.counts) - 1) // 2):
        sl = tuple(slice(m, c - m) for c in domain.counts)
        if cov[sl].all():
            return m
    return None


def hl_maximal(f: GridFunction, fam: BallFamily) -> GridFunction:
    """Family supremum of |f|-averages; lower-bounds the true maximal."""
    return _family_sup(f, fam, oscillation=False)


def sharp_maximal(f: GridFunction, fam: BallFamily) -> GridFunction:
    """Family supremum of mean oscillations of f."""
    return _family_sup(f, fam, oscillation=True)


def abs_power(f: GridFunction, p: float) -> GridFunction:
    return GridFunction(f.domain, np.abs(f.values) ** p, f.margin)


# ---------------------------------------------------------------------------
# VMO modulus
# ---------------------------------------------------------------------------

@dataclass
class VMOReport:
    radii: np.ndarray
    eta: np.ndarray                # nondecreasing by construction
    sup_norm: float
    fitted_slope: float | None = None   # eta(r) <= slope * r * sum||X_i f||

    def eta_at(self, R: float) -> float:
        """Modulus at the largest computed radius <= R (0 below the grid)."""
        below = self.radii <= R + 1e-12
        return float(self.eta[below][-1]) if below.any() else 0.0


def vmo_modulus(f: GridFunction, fam: BallFamily,
                grad_sup: float | None = None) -> VMOReport:
    """Supremum of mean oscillations over balls of radius <= r, per r.

    grad_sup, when given, is sum_i ||X_i f||_inf; the report then carries the
    smallest slope c with eta(r) <= c * r * grad_sup across the radius grid.
    """
    eta = np.maximum.accumulate([stat.max(initial=0.0)
                                 for _, stat in _ball_stats(f, fam, True)])
    slope = None
    if grad_sup is not None and grad_sup > 0:
        slope = float(np.max(eta / (fam.radii * grad_sup)))
    return VMOReport(radii=fam.radii.copy(), eta=eta,
                     sup_norm=float(np.max(np.abs(f.interior_values()))),
                     fitted_slope=slope)


# ---------------------------------------------------------------------------
# oscillation-inequality records
# ---------------------------------------------------------------------------

@dataclass
class OscillationRecord:
    """One sampled instance of a mean-oscillation bound.

    lhs is the mean oscillation over the ball; terms are the additive right
    hand side pieces before the structural constant, so the fitted constant
    over a sample set is max lhs / sum(terms).
    """

    lhs: float
    terms: tuple
    k: float
    p: float
    radius: float
    center_idx: int
    x0_flat: int
    skipped: bool = False
    note: str = ""

    @property
    def rhs(self) -> float:
        return float(sum(self.terms))

    @property
    def ratio(self) -> float:
        if self.rhs > 0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0 else float("inf")


def fitted_constant(records) -> float:
    """Smallest c with lhs <= c * rhs on every non-skipped record."""
    ratios = [r.ratio for r in records if not r.skipped]
    if not ratios:
        raise ValueError("all records were skipped")
    return float(max(ratios))


def mean_oscillation(vals_flat: np.ndarray, mask: np.ndarray) -> float:
    sel = vals_flat[mask]
    return float(np.abs(sel - sel.mean()).mean())


def _oscillation_record(second: dict, M_second: dict, trusted: GridFunction,
                        fam: BallFamily, i: int, j: int, center_idx: int,
                        r: float, x0_flat: int, k: float, p: float,
                        rest) -> OscillationRecord:
    """Record of the mean oscillation of second[(i, j)] over B_r against
    t1 = sum of M_second at x0 over k and the terms rest(mask_kr); skipped
    when B_kr reaches the box faces or leaves trusted's interior."""
    if k < 2:
        raise ValueError("k must be >= 2")
    dist = fam.distance[center_idx]
    mask_r, mask_kr = dist < r, dist < k * r
    if np.any(mask_kr & fam.usable(trusted).outside):
        return OscillationRecord(np.nan, (), k, p, r, center_idx, x0_flat,
                                 skipped=True, note="enlarged ball unusable")
    if not mask_r[x0_flat]:
        raise ValueError("x0 lies outside the ball")
    lhs = mean_oscillation(second[(i, j)].values.ravel(), mask_r)
    t1 = sum(M_second[key].values.ravel()[x0_flat]
             for key in M_second) / k
    return OscillationRecord(lhs, (t1,) + rest(mask_kr), k, p, r,
                             center_idx, x0_flat)


def oscillation_check_abstract(Tf: GridFunction, f: GridFunction,
                               Mf: GridFunction, fam: BallFamily,
                               center_idx: int, r: float, x0_flat: int,
                               k: float, p: float) -> OscillationRecord:
    """Oscillation of Tf over B_r against (1/k) Mf(x0) + k^{q/p} avg term.

    Mf must be the precomputed family maximal of f; x0_flat indexes a grid
    point inside B_r(center).
    """
    return oscillation_check_constant_matrix(
        {(0, 0): Tf}, {(0, 0): Mf}, f, fam, 0, 0, center_idx, r, x0_flat,
        k, p)


def oscillation_check_constant_matrix(
        second: dict, M_second: dict, LAu: GridFunction, fam: BallFamily,
        i: int, j: int, center_idx: int, r: float, x0_flat: int,
        k: float, p: float) -> OscillationRecord:
    """Oscillation of X_iX_ju against the maximal-plus-source right side.

    second maps (h, l) to the grid of X_hX_lu, M_second to its precomputed
    family maximal; LAu is the constant-matrix operator applied to u.
    """
    def source_term(mask_kr):
        avg = float((np.abs(LAu.values.ravel()[mask_kr]) ** p).mean())
        return (k ** (fam.q / p) * avg ** (1.0 / p),)

    return _oscillation_record(second, M_second, LAu, fam, i, j, center_idx,
                               r, x0_flat, k, p, source_term)


def oscillation_check_vmo(
        second: dict, M_second: dict, M_source_p: GridFunction,
        M_second_palpha: dict, a_sharp_R: float, fam: BallFamily,
        i: int, j: int, center_idx: int, r: float, x0_flat: int,
        k: float, p: float, alpha: float, beta: float) -> OscillationRecord:
    """Variable-coefficient oscillation bound with the VMO-weighted term.

    M_source_p is the family maximal of |Lu|^p; M_second_palpha maps (h, l)
    to the family maximal of |X_hX_lu|^{p*alpha}; a_sharp_R is the worst
    coefficient VMO modulus at the support scale.  For constant coefficients
    a_sharp_R = 0 and the third term vanishes identically.
    """
    if abs(1.0 / alpha + 1.0 / beta - 1.0) > 1e-12:
        raise ValueError("alpha and beta must be conjugate exponents")

    def maximal_terms(_):
        kq = k ** (fam.q / p)
        t2 = kq * M_source_p.values.ravel()[x0_flat] ** (1.0 / p)
        t3 = kq * a_sharp_R ** (1.0 / (p * beta)) * sum(
            M_second_palpha[key].values.ravel()[x0_flat]
            ** (1.0 / (p * alpha)) for key in M_second_palpha)
        return t2, t3

    return _oscillation_record(second, M_second, M_source_p, fam, i, j,
                               center_idx, r, x0_flat, k, p, maximal_terms)


def sample_balls(fam: BallFamily, r: float, k: float,
                 trust: np.ndarray | None = None, limit: int | None = None):
    """(center_idx, x0_flat) pairs whose kr-enlargement is usable.

    x0_flat is the first grid point of B_r(center) (0 if it holds none);
    the first limit usable centers are returned, in center order.  Where r
    and k r are family radii, both balls are rows of the family's
    memberships; otherwise they are sliced from the distance table.
    """
    border = fam.domain.border
    unusable = border if trust is None else border | ~trust
    inner, outer = (np.flatnonzero(fam.radii == x) for x in (r, k * r))
    if inner.size and outer.size:
        bad = fam.members[outer[0]] @ unusable > 0
        usable = np.flatnonzero(~bad)[:limit]
        balls = fam.members[inner[0]]
        lo, hi = balls.indptr[usable], balls.indptr[usable + 1]
        first = np.zeros(usable.size, dtype=np.intp)
        first[hi > lo] = balls.indices[lo[hi > lo]]
    else:
        bad = ((fam.distance < k * r) & unusable).any(axis=1)
        usable = np.flatnonzero(~bad)[:limit]
        first = (fam.distance[usable] < r).argmax(axis=1)
    return [(int(ci), int(x0)) for ci, x0 in zip(usable, first)]
