"""Discrete CC metric: distances, homogeneity, volumes, covers."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subelliptic
from subelliptic import fields, geometry, pool
from subelliptic.domain import BoxDomain
from subelliptic.geometry import (ClippedBallError, ball_volume, cc_distance,
                                  cached_distance_field, get_metric,
                                  greedy_cover, growth_exponent_fit)


def linf_origin_distance(pts):
    """Exact grushin(1) distance from the origin for the scheme's own
    control set |a_j| <= 1 with cost max_j |a_j|.

    Bang-bang paths that run out in x1 and back sweep the most x2, so the
    time-t reachable set is {|x1| <= t, 4|x2| <= t^2 + 2t|x1| - x1^2}; its
    area is 5t^3/3 and the origin doubling ratio is exactly 8.
    """
    x1 = np.abs(pts[:, 0])
    x2 = np.abs(pts[:, 1])
    return np.maximum(x1, np.sqrt(2 * x1 ** 2 + 4 * x2) - x1)


def test_axis_distance_matches_euclidean(g1, dom41):
    for t in (0.5, 1.0):
        res = cc_distance(g1, (0, 0), (t, 0), dom41)
        assert res.status == "ok"
        assert abs(res.value - t) <= res.error_bound
        assert res.error_bound <= 0.2


def test_symmetry_in_x1(g1, dom41):
    a = cc_distance(g1, (0, 0), (0.8, 0.4), dom41)
    b = cc_distance(g1, (0, 0), (-0.8, 0.4), dom41)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_dilation_covariance_sample(g1, dom41):
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(8):
        y = rng.uniform(-0.6, 0.6, size=2)
        y2 = g1.dilations.apply(2.0, y)
        d1 = cc_distance(g1, (0, 0), y, dom41)
        d2 = cc_distance(g1, (0, 0), y2, dom41)
        if d1.status != "ok" or d2.status != "ok":
            continue
        assert abs(d2.value - 2 * d1.value) <= 2 * d1.error_bound + d2.error_bound
        checked += 1
    assert checked >= 5


def test_outside_domain_unresolved(g1, dom41):
    res = cc_distance(g1, (0, 0), (5, 0), dom41)
    assert res.status == "unresolved"
    assert res.value == float("inf")


def test_cc_distance_fine_metric_is_the_refined_box_metric():
    # the fine level is the cached metric of the refined box, so it shares
    # one cache with every other caller of that box
    sys_ = fields.grushin(1)
    dom = BoxDomain((-1, -1), (1, 1), (11, 11))
    x, y = np.array([0.0, 0.0]), np.array([0.4, 0.2])
    res = cc_distance(sys_, x, y, dom)
    fine = get_metric(sys_, dom.refine(2))
    assert set(sys_._metric_cache) == {dom, dom.refine(2)}
    field = fine._field_cache[fine.domain.flat_index_of(x)]
    assert res.value == fine.interpolate(field, y)
    assert res.error_bound == \
        2.0 * abs(res.coarse_value - res.value) + 2.0 * fine.tau


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.lists(st.floats(-50, 50), min_size=dim, max_size=dim),
    st.lists(st.floats(1e-3, 100), min_size=dim, max_size=dim),
    st.lists(st.integers(3, 60), min_size=dim, max_size=dim))))
def test_refined_box_halves_tau_bitwise(box):
    # tau = 1.5 min h of the refined box is bitwise half the coarse tau,
    # the value cc_distance used to pass for its fine level
    lower, width, counts = box
    dom = BoxDomain(tuple(lower), tuple(l + w for l, w in zip(lower, width)),
                    tuple(counts))
    tau = 1.5 * float(np.min(dom.spacing))
    assert 1.5 * float(np.min(dom.refine(2).spacing)) == tau / 2.0


def test_ball_volume_scaling(g1, dom41):
    m = get_metric(g1, dom41)
    v1 = ball_volume(g1, (0, 0), 0.4, dom41, metric=m)
    v2 = ball_volume(g1, (0, 0), 0.8, dom41, metric=m)
    # |B(0, 2r)| / |B(0, r)| = 2^q = 8 for the dilation-invariant metric
    assert v2 / v1 == pytest.approx(8.0, rel=0.2)


def test_clipped_ball_rejected(g1, dom41):
    with pytest.raises(ClippedBallError):
        ball_volume(g1, (1.8, 1.8), 1.0, dom41)


def test_field_cache_keys_on_the_source_node(g1):
    # two sources in one cell snap to one node, so they share one field
    dom = BoxDomain((-1, -1), (1, 1), (21, 21))
    m = geometry.CCMetric(g1, dom)
    a = cached_distance_field(m, (0.301, -0.199))
    b = cached_distance_field(m, (0.298, -0.203))
    assert b is a and len(m._field_cache) == 1
    assert np.array_equal(a, m.distance_field((0.3, -0.2)))


@pytest.mark.parametrize("source", [(5.0, 5.0), (2.0, 2.0 + 1e-9),
                                    (np.nan, 0.2), (-np.inf, 0.0)])
def test_field_sources_off_the_box_are_refused(g1, source):
    # snapping would move these onto a box node, such as (2, 2) or (-2, 0.2),
    # whose field may already be cached
    m = geometry.CCMetric(g1, BoxDomain((-2, -2), (2, 2), (21, 21)))
    # the box's own slack of 1e-12 still admits its faces
    corner = cached_distance_field(m, (2.0 + 1e-13, 2.0))
    assert corner[-1] == 0.0
    with pytest.raises(ValueError, match="not a point of the box"):
        cached_distance_field(m, source)
    with pytest.raises(ValueError, match="not a point of the box"):
        m.distance_fields([(0.0, 0.0), source])
    assert list(m._field_cache.values()) == [corner]


def test_growth_exponent_fit_exact():
    ratios = np.array([2.0, 4.0])
    vols = ratios ** 3
    assert growth_exponent_fit(ratios, vols) == pytest.approx(3.0)


def test_greedy_cover(g1):
    dom = BoxDomain((-1, -1), (1, 1), (21, 21))
    cover = greedy_cover(g1, dom, R=0.5, H=3.0)
    assert cover.coverage == 1.0
    assert cover.max_overlap >= 1
    assert cover.overlap_histogram[0] >= 0
    # centers form an R/2 packing: pairwise distances > R/2
    m = get_metric(g1, dom)
    for a in range(len(cover.centers)):
        d = m.distance_field(cover.centers[a])
        for b in range(a + 1, len(cover.centers)):
            idx = dom.flat_index_of(cover.centers[b])
            assert d[idx] > 0.25 - 1e-9


def test_linf_oracle_doubling_and_value_iteration_bound(g1):
    # node counts of the exact balls carry the origin doubling ratio to 8
    # under Richardson at 81^2 and 161^2, so that protocol is sound; the
    # value-iteration field never undercuts the exact distance
    r = 0.6
    ratios = []
    for n in (81, 161):
        dom = BoxDomain((-2, -2), (2, 2), (n, n))
        exact = linf_origin_distance(dom.points())
        ratios.append(np.count_nonzero(exact < 2 * r)
                      / np.count_nonzero(exact < r))
        vi = cached_distance_field(get_metric(g1, dom), np.zeros(2))
        assert np.min(vi - exact) >= -1e-9
    extrap = 2.0 * ratios[1] - ratios[0]
    assert extrap == pytest.approx(8.0, rel=0.05)


def _moves_per_corner(metric):
    """Move tables built corner by corner, the former construction."""
    import itertools
    dom = metric.domain
    pts = dom.points()
    lower, h = np.array(dom.lower), dom.spacing
    counts = np.array(dom.counts)
    offsets = list(itertools.product((0, 1), repeat=dom.dim))
    levels = np.linspace(-1.0, 1.0, 5)
    moves = []
    for combo in itertools.product(levels, repeat=len(metric.fields)):
        a = np.array(combo)
        if np.max(np.abs(a)) == 0.0:
            continue
        end = geometry._rk4_flow(metric.fields, a, pts, metric.tau)
        rel = (end - lower) / h
        base = np.floor(rel).astype(int)
        frac = rel - base
        valid = np.all((base >= 0) & (base <= counts - 2), axis=1)
        base_c = np.clip(base, 0, counts - 2)
        idx = np.empty((len(pts), len(offsets)), dtype=np.int64)
        wts = np.empty((len(pts), len(offsets)))
        for c, off in enumerate(offsets):
            idx[:, c] = np.ravel_multi_index(tuple((base_c + off).T),
                                             dom.counts)
            w = np.ones(len(pts))
            for k in range(dom.dim):
                w = w * (frac[:, k] if off[k] else 1.0 - frac[:, k])
            wts[:, c] = w
        moves.append((metric.tau * np.max(np.abs(a)), idx, wts, valid))
    return moves


def _interpolate_per_corner(dom, field_flat, x):
    """Multilinear interpolation corner by corner, the former loop."""
    import itertools
    rel = (x - np.array(dom.lower)) / dom.spacing
    base = np.clip(np.floor(rel).astype(int), 0, np.array(dom.counts) - 2)
    frac = rel - base
    out = 0.0
    for off in itertools.product((0, 1), repeat=dom.dim):
        w = np.prod([frac[k] if off[k] else 1.0 - frac[k]
                     for k in range(dom.dim)])
        out += w * field_flat[np.ravel_multi_index(tuple(base + off),
                                                   dom.counts)]
    return float(out)


def _lifted_metric():
    from subelliptic.liftgroup import lift_grushin1
    return geometry.CCMetric(lift_grushin1(),
                             BoxDomain((-1.0,) * 3, (1.0,) * 3, (9,) * 3))


def test_moves_and_interpolation_match_corner_loop(g1, dom41):
    # each move operator holds the former per-corner tables bitwise: on
    # valid rows the columns and weights of the nonzero corners (corner
    # order in the corner-order layout, even then odd corners in the
    # two-lane one), on rows of moves that leave the grid no entries; the
    # move's one cost is the former valid rows' cost, and its invalid rows
    # are the rows that leave the grid
    for m in (get_metric(g1, dom41), _lifted_metric()):
        ref = _moves_per_corner(m)
        ncorner = 2 ** m.domain.dim
        lanes = np.r_[0:ncorner:2, 1:ncorner:2]
        assert len(ref) == len(m._moves) == len(m._corner_order_moves())
        for (cost, invalid, op), (ccost, cinvalid, cop), \
                (rc, ridx, rwts, rvalid) in zip(
                    m._moves, m._corner_order_moves(), ref):
            stored = rvalid[:, None] & (rwts != 0.0)
            lane_stored = stored[:, lanes]
            assert cost == ccost == rc
            assert np.array_equal(invalid, np.flatnonzero(~rvalid))
            assert np.array_equal(cinvalid, invalid)
            assert op.shape == (2 * len(rvalid), len(rvalid))
            assert np.array_equal(
                np.diff(op.indptr),
                lane_stored.reshape(-1, 2, ncorner // 2).sum(axis=2).ravel())
            assert np.array_equal(op.indices, ridx[:, lanes][lane_stored])
            assert np.array_equal(op.data, rwts[:, lanes][lane_stored])
            assert cop.shape == (len(rvalid), len(rvalid))
            assert np.array_equal(np.diff(cop.indptr), stored.sum(axis=1))
            assert np.array_equal(cop.indices, ridx[stored])
            assert np.array_equal(cop.data, rwts[stored])
    m = get_metric(g1, dom41)
    field = cached_distance_field(m, (0.3, -0.2))
    rng = np.random.default_rng(2)
    # points outside the box extrapolate from the boundary cell
    for x in rng.uniform(-2.3, 2.3, (60, 2)):
        assert m.interpolate(field, x) == \
            _interpolate_per_corner(dom41, field, x)


def _einsum_fields(metric, sources):
    """Value iteration by dense corner gathers and einsum, the former
    sweep: einsum sums one source's corners in two lanes and a batch's in
    corner order."""
    dom = metric.domain
    moves = _moves_per_corner(metric)
    d = np.full((len(sources), dom.num_points), geometry._BIG)
    for s, x in enumerate(sources):
        d[s, dom.flat_index_of(x)] = 0.0
    while True:
        d_new = d
        for cost, idx, wts, valid in moves:
            cand = cost + np.einsum("kpc,pc->kp", d[:, idx], wts)
            d_new = np.minimum(d_new,
                               np.where(valid[None, :], cand, geometry._BIG))
        delta = np.max(d - d_new)
        d = d_new
        if delta < geometry._TOLERANCE:
            return d


def test_sparse_value_iteration_matches_einsum_sweep(g1, dom41):
    # bitwise on 2-D for one source and for a batch, each in its own
    # corner order; within rounding on the lifted 3-D grid
    m = get_metric(g1, dom41)
    batch = [(0.0, 0.0), (0.5, 0.5), (-1.0, 1.0), (1.5, -0.5), (-0.3, -1.2)]
    for sources in ([(0.3, -0.2)], batch):
        assert np.array_equal(m.distance_fields(sources),
                              _einsum_fields(m, sources))
    lifted = _lifted_metric()
    for sources in ([(0.0, 0.0, 0.0)], [(0.0, 0.0, 0.0), (0.25, -0.5, 0.5)]):
        np.testing.assert_allclose(lifted.distance_fields(sources),
                                   _einsum_fields(lifted, sources),
                                   rtol=1e-14, atol=0)


def test_settled_columns_match_unretired_sweep(g1, dom41, unretired_fields):
    # the edge source (0, 2) settles about 2.5 times later than the
    # interior ones, so they leave the batch early and the edge column is
    # swept alone, still in the batch's corner order
    m = get_metric(g1, dom41)
    batch = [(0.0, 2.0), (0.0, 0.0), (0.5, -0.5), (-1.0, 0.3)]
    assert np.array_equal(m.distance_fields(batch),
                          unretired_fields(m, batch))


def _map_sizes(monkeypatch):
    """Record the item count of every ordered map that geometry makes."""
    sizes = []

    def spy(mapper):
        def counted(fn, items):
            items = list(items)
            sizes.append(len(items))
            return mapper(fn, items)
        return counted

    for name in ("_ordered_map", "_ordered_imap"):
        monkeypatch.setattr(geometry, name, spy(getattr(pool, name)))
    return sizes


def test_lifted_field_and_moves_independent_of_workers(monkeypatch):
    # the 41^3 calibration grid: its moves are built on the pool and its
    # sweeps split the moves in two parts, with the one-worker bits
    from subelliptic.liftgroup import lift_grushin1
    lift = lift_grushin1()
    dom = BoxDomain((-1.3,) * 3, (1.3,) * 3, (41,) * 3)
    monkeypatch.setattr(pool, "_WORKERS", 1)
    one = geometry.CCMetric(lift, dom)
    field_one = one.distance_field(np.zeros(3))
    monkeypatch.setattr(pool, "_WORKERS", 2)
    sizes = _map_sizes(monkeypatch)
    two = geometry.CCMetric(lift, dom)
    assert sizes == [len(two._moves)] == [24]
    for a, b in zip(one._moves, two._moves):
        assert a.cost == b.cost
        assert np.array_equal(a.invalid, b.invalid)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a.op, attr), getattr(b.op, attr))
    sizes.clear()
    assert np.array_equal(two.distance_field(np.zeros(3)), field_one)
    assert set(sizes) == {2}


@pytest.mark.parametrize("workers, block", [(2, pool._BLOCK), (3, 1000)])
def test_batch_fields_independent_of_move_parts(g1, dom41, monkeypatch,
                                                workers, block):
    # a 48-source batch: the live columns fall as fields settle, and the
    # sweeps go from several parts of the moves to one
    m = get_metric(g1, dom41)
    batch = dom41.points()[::35][:48]
    monkeypatch.setattr(pool, "_WORKERS", 1)
    ref = m.distance_fields(batch)
    monkeypatch.setattr(pool, "_WORKERS", workers)
    monkeypatch.setattr(pool, "_BLOCK", block)
    sizes = _map_sizes(monkeypatch)
    assert np.array_equal(m.distance_fields(batch), ref)
    assert sizes[0] == workers and sizes[-1] == 1


def test_small_field_makes_no_pool_map(g1, dom81, monkeypatch):
    # an 81^2 move and field stay on the calling thread
    def no_pool(*args, **kwargs):
        raise AssertionError("pool used")

    monkeypatch.setattr(pool, "_WORKERS", 2)
    monkeypatch.setattr(pool, "ThreadPoolExecutor", no_pool)
    m = geometry.CCMetric(g1, dom81)
    assert m.distance_field((0.5, 0.2)).shape == (dom81.num_points,)


def test_unconverged_value_iteration_raises(g1, monkeypatch):
    dom = BoxDomain((-1.0, -1.0), (1.0, 1.0), (11, 11))
    m = geometry.CCMetric(g1, dom)
    monkeypatch.setattr(geometry, "_TOLERANCE", -1.0)
    with pytest.raises(geometry.UnresolvedDistanceError):
        m.distance_field((0.0, 0.0))
    # every column reaches its fixed point and leaves the batch, while no
    # change is below a negative tolerance: the error comes at once
    with pytest.raises(geometry.UnresolvedDistanceError,
                       match="fixed point"):
        m.distance_fields([(0.0, 0.0), (0.5, -0.5), (-0.8, 0.8)])


def test_geometry_and_maximal_load_no_sympy():
    # the metric and ball-family path imports no sympy; a fresh interpreter
    # sees what an import alone loads
    src = os.path.dirname(os.path.dirname(subelliptic.__file__))
    code = ("import sys, subelliptic.geometry, subelliptic.maximal; "
            "print(sorted(m for m in sys.modules if m.startswith('sympy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"
