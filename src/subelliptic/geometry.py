"""Carnot-Caratheodory distance, metric ball volumes, doubling diagnostics,
greedy coverings, and the fiber-integrated cutoff family.

The discrete metric solves the control-problem Bellman equation on the grid:
moves follow numerically integrated flows of sum_j a_j X_j for piecewise
constant controls with |a_j| <= 1 over time tau, and the value at the flow
endpoint is read off by multilinear interpolation.  Nearest-node snapping is
deliberately avoided: it lets shortest paths collect lateral displacement for
free, which does not vanish under refinement.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .domain import BoxDomain
from .fields import HormanderSystem
from .pool import _BLOCK, _ordered_imap, _ordered_map, _parts

_BIG = 1e18
_TOLERANCE = 1e-9        # sweep convergence threshold


class ClippedBallError(RuntimeError):
    """A metric ball touches the computational boundary; result would lie."""


class CoverageError(RuntimeError):
    """Greedy cover failed its coverage postcondition."""


class UnresolvedDistanceError(RuntimeError):
    """Value iteration did not converge within its sweep budget."""


def _rk4_flow(fields, a: np.ndarray, pts: np.ndarray,
              tau: float) -> np.ndarray:
    """Integrate x' = sum_j a_j X_j(x) for time tau from each point."""

    def F(x):
        vals = np.stack([X.value(x) for X in fields], axis=-2)  # (..., m, n)
        return np.einsum("...mn,m->...n", vals, a)

    x = pts
    h = tau / 2
    for _ in range(2):
        k1 = F(x)
        k2 = F(x + 0.5 * h * k1)
        k3 = F(x + 0.5 * h * k2)
        k4 = F(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def _corner_weights(domain: BoxDomain, x: np.ndarray) -> tuple:
    """Corners and weights of multilinear interpolation at points x.

    x has shape (..., dim).  Returns the flat node indices and weights of
    the 2^dim cell corners, each of shape (..., 2^dim), corners in
    itertools.product order, and the unclipped cell index floor(rel).  The
    cell is clipped into the grid, so a point outside the box extrapolates
    from the nearest boundary cell.
    """
    rel = (x - np.array(domain.lower)) / domain.spacing
    floor = np.floor(rel).astype(int)
    base = np.clip(floor, 0, np.array(domain.counts) - 2)
    frac = rel - base
    offsets = list(itertools.product((0, 1), repeat=domain.dim))
    idx = np.empty(x.shape[:-1] + (len(offsets),), dtype=np.int64)
    wts = np.empty(idx.shape)
    # corner by corner, so no temporary holds every corner of every point
    for c, off in enumerate(offsets):
        idx[..., c] = np.ravel_multi_index(
            tuple(np.moveaxis(base + off, -1, 0)), domain.counts)
        w = 1.0
        for k in range(domain.dim):
            w = w * (frac[..., k] if off[k] else 1.0 - frac[..., k])
        wts[..., c] = w
    return idx, wts, floor


class _Move(NamedTuple):
    """One control move: its time, the rows it cannot take, its operator."""

    cost: float                  # tau times the largest |a_j|
    invalid: np.ndarray          # ascending rows whose endpoint leaves the
                                 # grid; their operator rows are empty
    op: sparse.csr_matrix


def _sweep_moves(d, lanes: bool, part) -> np.ndarray:
    """min(d, min over the moves of part = (out, moves) of cost + P d),
    written into out and returned.  A move's invalid rows are empty and
    would compute 0 + _BIG; _BIG is written there directly.

    Every value is finite and every candidate positive, so the minimum is
    exact in any order: the minimum of the parts' results is the bits of
    one part holding every move.
    """
    out, moves = part
    out[...] = d
    for cost, invalid, op in moves:
        cand = op @ d
        if lanes:
            cand = cand[0::2] + cand[1::2]
        cand += cost
        cand[invalid] = _BIG
        np.minimum(out, cand, out=out)
    return out


def _move_groups(moves: list, values: int) -> list:
    """The moves in ``_parts(values)`` contiguous groups, in move order."""
    parts = _parts(values)
    cuts = [len(moves) * k // parts for k in range(parts + 1)]
    return [moves[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


class CCMetric:
    """Discrete CC metric on a box grid via Bellman value iteration.

    It reads only the fields of `system` (a HormanderSystem or a lift) and
    the box; each control segment lasts tau = 1.5 min h.  Each control
    move is one sparse operator P with (P d)[p] the
    multilinear interpolation of d at the move's endpoint from p, and one
    cost: the move's time, on rows whose endpoint cell lies in the grid;
    _BIG on the empty rows of nodes whose endpoint leaves it.  A sweep is
    then d <- min(d, min over moves of cost + P d).
    """

    def __init__(self, system, domain: BoxDomain):
        self.fields = system.fields
        if domain.dim != self.fields[0].n:
            raise ValueError("domain dimension differs from system dimension")
        self.domain = domain
        self.tau = 1.5 * float(np.min(domain.spacing))
        self._moves = self._build_moves()
        self._corner_moves = None
        self._field_cache = {}           # see cached_distance_field

    def _build_moves(self) -> list:
        """A _Move per control, P in the two-lane layout (2p x p).

        Rows 2i and 2i + 1 hold the even and the odd corners of node i
        (itertools.product order), so (P d)[0::2] + (P d)[1::2] sums the
        corners as the two lanes (c0 + c2 + ...) + (c1 + c3 + ...).
        Corners of weight 0 are not stored: d is finite, so they would
        add 0 to a lane sum.

        The moves are independent.  On a grid of at least ``_BLOCK``
        nodes their flows run on the ordered thread map, and the caller
        assembles each operator while the workers go on.  The operators
        outlive the build, so their arrays are made on the caller's heap:
        made on a worker's, they stayed resident after the metric was
        freed whenever a later allocation there pinned them (the
        ``singular`` set-up then ended at 198 MB instead of 115 MB).
        """
        levels = np.linspace(-1.0, 1.0, 5)
        controls = [np.array(c) for c in
                    itertools.product(levels, repeat=len(self.fields))
                    if np.max(np.abs(c)) > 0.0]
        flow = functools.partial(self._move_corners, self.domain.points())
        corners = (_ordered_imap if self.domain.num_points >= _BLOCK
                   else map)(flow, controls)
        return [self._assemble_move(a, *c) for a, c in zip(controls, corners)]

    def _move_corners(self, pts: np.ndarray, a: np.ndarray) -> tuple:
        """(valid, weights, indices) of the control a: which nodes' flow
        endpoints lie in the grid, and those nodes' corner weights and
        flat int32 indices in lane order, one row per valid node."""
        dom = self.domain
        ncorner = 2 ** dom.dim
        lanes = np.r_[0:ncorner:2, 1:ncorner:2]
        idx, wts, cell = _corner_weights(
            dom, _rk4_flow(self.fields, a, pts, self.tau))
        # a move whose endpoint cell leaves the grid is not taken
        valid = np.all((cell >= 0) & (cell <= np.array(dom.counts) - 2),
                       axis=1)
        rows = np.flatnonzero(valid)[:, None]
        return valid, wts[rows, lanes], idx[rows, lanes].astype(np.int32)

    def _assemble_move(self, a, valid, wts, idx) -> _Move:
        npts = self.domain.num_points
        stored = wts != 0.0
        row_nnz = np.zeros((npts, 2), dtype=np.int32)
        row_nnz[valid] = stored.reshape(len(wts), 2, -1).sum(axis=2)
        indptr = np.zeros(2 * npts + 1, dtype=np.int32)
        np.cumsum(row_nnz, out=indptr[1:])
        op = sparse.csr_matrix((wts[stored], idx[stored], indptr),
                               shape=(2 * npts, npts))
        return _Move(self.tau * float(np.max(np.abs(a))),
                     np.flatnonzero(~valid), op)

    def _corner_order_moves(self) -> list:
        """The moves with P (p x p) summing the corners in order.

        Derived once from the two-lane operators by joining each node's
        two lane rows and sorting their columns: the corners' flat indices
        ascend in itertools.product order.
        """
        if self._corner_moves is None:
            npts = self.domain.num_points
            self._corner_moves = []
            for move in self._moves:
                joined = sparse.csr_matrix(
                    (move.op.data, move.op.indices, move.op.indptr[0::2]),
                    shape=(npts, npts), copy=True)
                joined.sort_indices()
                self._corner_moves.append(move._replace(op=joined))
        return self._corner_moves

    def distance_fields(self, sources) -> np.ndarray:
        """Distances from each source point; shape (k, num_points).

        A sweep acts on each source's column alone, so a column that a
        sweep leaves bitwise unchanged is at its fixed point: it is
        written out and dropped from the batch.  The batch stops when the
        largest change of its live columns falls below the tolerance, the
        sweep at which it would stop with every column kept, so every
        field is the one the full batch would return.

        A sweep splits the moves into contiguous parts on the ordered
        thread map, one per worker while each part's iterate holds at
        least ``_BLOCK`` node-values.  Each part takes the minimum of the
        previous iterate and its moves' candidates into a buffer of its
        own, and the sweep the minimum of the parts' buffers; minima are
        exact, so the fields do not depend on the number of workers.

        Raises ValueError for a source off the box or not finite, and
        UnresolvedDistanceError when the sweeps have not settled within the
        budget of 20 box diameters per tau plus 100, or when every column
        has settled while the tolerance (<= 0) still asks for a change.
        """
        src = np.atleast_2d(np.asarray(sources, dtype=float))
        nodes = [self._source_node(x) for x in src]
        nsrc, npts = src.shape[0], self.domain.num_points
        d = np.full((npts, nsrc), _BIG)
        d[nodes, np.arange(nsrc)] = 0.0
        # The batch size is a property of the input, and it fixes the order
        # in which the corner products are added: one source adds them in
        # two lanes, several in corner order, also once columns have been
        # dropped.  Ball volumes are decided at rounding level, so one
        # order for both would move recorded results (the perfbench
        # `balls` workload builds one-source fields, its `realanalysis`
        # workload 48-source batches); both layouts are kept.
        lanes = nsrc == 1
        moves = self._moves if lanes else self._corner_order_moves()
        diameter = float(np.linalg.norm(
            np.array(self.domain.upper) - np.array(self.domain.lower)))
        max_sweeps = int(20 * diameter / self.tau) + 100
        tol = _TOLERANCE
        out = np.empty((nsrc, npts))
        live = np.arange(nsrc)
        groups = _move_groups(moves, npts * nsrc)
        bufs = [np.empty_like(d) for _ in groups]
        for sweep in range(1, max_sweeps + 1):
            d_new, *rest = _ordered_map(
                functools.partial(_sweep_moves, d, lanes), zip(bufs, groups))
            for other in rest:
                np.minimum(d_new, other, out=d_new)
            change = np.max(d - d_new, axis=0)
            delta = change.max()
            d, bufs[0] = d_new, d
            if delta < tol:
                out[live] = d.T
                return out
            settled = change == 0.0
            if settled.any():
                out[live[settled]] = d[:, settled].T
                live = live[~settled]
                if not live.size:
                    raise UnresolvedDistanceError(
                        f"every field is at its fixed point after {sweep} "
                        f"sweeps, but the tolerance {tol:.3g} asks for a "
                        "change below it")
                d = d[:, ~settled]
                groups = _move_groups(moves, npts * live.size)
                bufs = [np.empty_like(d) for _ in groups]
        raise UnresolvedDistanceError(
            f"value iteration not converged after {max_sweeps} sweeps "
            f"(last change {delta:.3g}, tolerance {tol:.3g})")

    def distance_field(self, source) -> np.ndarray:
        return self.distance_fields([source])[0]

    def _source_node(self, source) -> int:
        """Flat index of the node a source snaps to; ValueError for a source
        off the box (``BoxDomain.contains``), which snapping would move."""
        if not self.domain.contains(source):
            raise ValueError(f"source {source!r} is not a point of the box")
        return self.domain.flat_index_of(source)

    def interpolate(self, field_flat: np.ndarray, x) -> float:
        """Multilinear interpolation of a node field at an off-grid point."""
        idx, wts, _ = _corner_weights(self.domain,
                                      np.asarray(x, dtype=float))
        return float(sum(w * v for w, v in zip(wts, field_flat[idx])))


def get_metric(system: HormanderSystem, domain: BoxDomain) -> CCMetric:
    """Per-system memoized metric construction, keyed by the box."""
    cache = system.__dict__.setdefault("_metric_cache", {})
    if domain not in cache:
        cache[domain] = CCMetric(system, domain)
    return cache[domain]


_FIELD_CACHE_LIMIT = 64


def cached_distance_field(metric: CCMetric, source) -> np.ndarray:
    """Memoized single-source distance field (flat array), keyed by the
    grid node the source snaps to (``CCMetric._source_node``, which refuses
    a source off the box): the field depends on nothing else."""
    cache, key = metric._field_cache, metric._source_node(source)
    if key not in cache:
        if len(cache) >= _FIELD_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = metric.distance_field(source)
    return cache[key]


@dataclass
class DistanceResult:
    value: float
    error_bound: float
    status: str                  # "ok" or "unresolved"
    coarse_value: float = float("nan")

    def __float__(self):
        return self.value


def cc_distance(system: HormanderSystem, x, y,
                domain: BoxDomain) -> DistanceResult:
    """Distance at two resolutions; reports a refinement error bound."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (domain.contains(x) and domain.contains(y)):
        return DistanceResult(float("inf"), float("inf"), "unresolved")
    m_coarse = get_metric(system, domain)
    m_fine = get_metric(system, domain.refine(2))
    d_c = m_coarse.interpolate(cached_distance_field(m_coarse, x), y)
    d_f = m_fine.interpolate(cached_distance_field(m_fine, x), y)
    if d_f > _BIG / 2:
        return DistanceResult(float("inf"), float("inf"), "unresolved")
    err = 2.0 * abs(d_c - d_f) + 2.0 * m_fine.tau
    return DistanceResult(float(d_f), float(err), "ok", float(d_c))


def ball_measure(dist: np.ndarray, r: float, domain: BoxDomain) -> float:
    """Node count of the ball {dist < r} times the cell volume; raises
    ClippedBallError when the ball reaches the box faces."""
    inside = dist.ravel() < r
    if domain.clips(inside):
        raise ClippedBallError(f"ball of radius {r} reaches the boundary")
    return float(np.count_nonzero(inside)) * domain.cell_volume


def ball_volume(system: HormanderSystem, center, r: float, domain: BoxDomain,
                metric: CCMetric | None = None) -> float:
    """Grid-count measure of B(center, r); refuses clipped balls."""
    m = metric if metric is not None else get_metric(system, domain)
    return ball_measure(cached_distance_field(m, center), r, domain)


def growth_exponent_fit(ratios_R_over_r, volume_ratios) -> float:
    """Least-squares exponent s in |B(0,R)|/|B(0,r)| ~ (R/r)^s."""
    lx = np.log(np.asarray(ratios_R_over_r, dtype=float))
    ly = np.log(np.asarray(volume_ratios, dtype=float))
    return float(np.sum(lx * ly) / np.sum(lx * lx))


@dataclass
class BallCover:
    centers: np.ndarray          # (k, n) points
    radius: float
    dilation: float              # H
    overlap_histogram: np.ndarray
    max_overlap: int
    coverage: float              # fraction of grid points within R of a center


def greedy_cover(system: HormanderSystem, domain: BoxDomain, R: float,
                 H: float) -> BallCover:
    """Greedy maximal R/2-packing in lexicographic grid order.

    The resulting R-balls cover every grid point (asserted); the overlap
    count of the HR-dilated balls is returned per grid point.
    """
    m = get_metric(system, domain)
    npts = domain.num_points
    min_dist = np.full(npts, np.inf)
    center_fields: list[np.ndarray] = []
    centers_flat: list[int] = []
    for i in range(npts):
        if min_dist[i] > R / 2.0:
            d = m.distance_field(domain.point_at(i))
            centers_flat.append(i)
            center_fields.append(d)
            np.minimum(min_dist, d, out=min_dist)
    covered = min_dist < R
    coverage = float(np.count_nonzero(covered)) / npts
    if not covered.all():
        raise CoverageError(
            f"{npts - int(covered.sum())} grid points farther than R from "
            "every greedy center (distance-field inconsistency)")
    overlap = np.zeros(npts, dtype=int)
    for d in center_fields:
        overlap += d < H * R
    hist = np.bincount(overlap)
    return BallCover(
        centers=np.array([domain.point_at(i) for i in centers_flat]),
        radius=R, dilation=H, overlap_histogram=hist,
        max_overlap=int(overlap.max()), coverage=coverage)
