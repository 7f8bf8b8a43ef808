"""Ball families, maximal functions, VMO moduli, oscillation records."""

import copy
import itertools

import numpy as np
import pytest

from subelliptic import estimates, maximal, pool
from subelliptic.domain import GridFunction, MarginError
from subelliptic.geometry import get_metric
from subelliptic.maximal import (CoverageGapError, abs_power, fitted_constant,
                                 hl_maximal, mean_oscillation,
                                 oscillation_check_abstract, sample_balls,
                                 sharp_maximal, vmo_modulus)


def const_grid(dom, c):
    return GridFunction(dom, np.full(dom.counts, float(c)))


def test_family_coverage_and_clipping(family41, dom41):
    assert family41.coverage(0) == 1.0
    # the largest radius is clipped somewhere near the box corners
    assert family41.clipped[:, -1].any()
    assert family41.radii[1] == pytest.approx(2 * family41.radii[0])


@pytest.fixture(scope="module")
def stride3_unretired(g1, dom41, unretired_fields):
    """The perfbench family's fields (41^2, stride 3, 48-source chunks)
    by the unretired sweep, chunk by chunk."""
    axis = np.append(np.arange(0, 41, 3), 40)
    centers = dom41.points().reshape(41, 41, 2)[np.ix_(axis, axis)]
    centers = centers.reshape(-1, 2)
    m = get_metric(g1, dom41)
    return np.concatenate([unretired_fields(m, centers[lo:lo + 48])
                           for lo in range(0, len(centers), 48)])


@pytest.mark.parametrize("workers", [1, 2])
def test_family_matches_unretired_chunks(monkeypatch, g1, dom41,
                                         stride3_unretired, workers):
    # chunks are fixed, so each field stops at its chunk's sweep on any
    # number of workers, and dropping settled columns changes no bit
    monkeypatch.setattr(pool, "_WORKERS", workers)
    fam = maximal.build_ball_family(g1, dom41, r0=0.6, num_radii=2,
                                    stride=3)
    assert np.array_equal(fam.distance, stride3_unretired)


def test_coverage_gap_raises(g1, dom41):
    with pytest.raises(CoverageGapError):
        maximal.build_ball_family(g1, dom41, r0=0.2, num_radii=1, stride=4)


def test_maximal_of_constant_exact(family41, dom41):
    M = hl_maximal(const_grid(dom41, -3.0), family41)
    assert np.all(M.interior_values() == 3.0)


def test_sharp_of_constant_zero(family41, dom41):
    S = sharp_maximal(const_grid(dom41, 7.5), family41)
    assert np.all(S.interior_values() == 0.0)


def test_sharp_below_twice_maximal(family41, suite41):
    for f in suite41[:4]:
        M = hl_maximal(f, family41)
        S = sharp_maximal(f, family41)
        sl = S.interior_slice()
        assert np.all(S.values[sl] <= 2.0 * M.values[sl] + 1e-12)


def test_sublinearity(family41, suite41):
    f, g = suite41[0], suite41[1]
    Mfg = hl_maximal(f + g, family41)
    Mf = hl_maximal(f, family41)
    Mg = hl_maximal(g, family41)
    sl = Mfg.interior_slice()
    assert np.all(Mfg.values[sl] <= Mf.values[sl] + Mg.values[sl] + 1e-12)


def test_enlargement_never_decreases(family41, family41_fine, suite41):
    f = suite41[2]
    coarse = hl_maximal(f, family41)
    fine = hl_maximal(f, family41_fine)
    sl = fine.interior_slice()
    assert np.all(fine.values[sl] >= coarse.values[sl] - 1e-12)


def test_abs_power(dom41):
    f = const_grid(dom41, -2.0)
    assert np.all(abs_power(f, 3).values == 8.0)


def test_vmo_shift_and_bounds(family41, suite41):
    f = suite41[3]
    rep = vmo_modulus(f, family41)
    assert np.all(np.diff(rep.eta) >= 0)
    assert rep.eta[-1] <= 2 * rep.sup_norm + 1e-12
    shifted = GridFunction(f.domain, f.values + 4.0, f.margin)
    rep2 = vmo_modulus(shifted, family41)
    assert np.allclose(rep.eta, rep2.eta)


def test_vmo_constant_is_zero(family41, dom41):
    rep = vmo_modulus(const_grid(dom41, 2.0), family41)
    assert np.all(rep.eta == 0.0)
    assert rep.eta_at(10.0) == 0.0


def test_vmo_fitted_slope(family41, suite41):
    f = suite41[4]
    grad = 5.0
    rep = vmo_modulus(f, family41, grad_sup=grad)
    assert rep.fitted_slope is not None and np.isfinite(rep.fitted_slope)
    assert np.all(rep.eta <= rep.fitted_slope * rep.radii * grad + 1e-12)


def test_oscillation_record_trivial(family41, dom41):
    z = const_grid(dom41, 0.0)
    Mz = hl_maximal(z, family41)
    samples = sample_balls(family41, family41.radii[0], 2.0, limit=3)
    assert samples
    ci, x0 = samples[0]
    rec = oscillation_check_abstract(z, z, Mz, family41, ci,
                                     family41.radii[0], x0, k=2.0, p=2.0)
    assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.ratio == 0.0


def test_oscillation_record_fitted(family41, suite41):
    f = suite41[5]
    Mf = hl_maximal(f, family41)
    trust = f.interior_mask().ravel()
    recs = []
    for ci, x0 in sample_balls(family41, family41.radii[0], 2.0, trust, 10):
        recs.append(oscillation_check_abstract(
            f, f, Mf, family41, ci, family41.radii[0], x0, k=2.0, p=2.0))
    c = fitted_constant(recs)
    assert np.isfinite(c) and c >= 0
    for r in recs:
        assert r.lhs <= c * r.rhs + 1e-12


def test_oscillation_skips_clipped_enlargement(family41, dom41):
    f = const_grid(dom41, 1.0)
    Mf = hl_maximal(f, family41)
    # a 8x enlargement of the outer radius cannot fit in the box
    rec = oscillation_check_abstract(f, f, Mf, family41, 0,
                                     family41.radii[-1], 0, k=8.0, p=2.0)
    assert rec.skipped
    with pytest.raises(ValueError):
        fitted_constant([rec])


def test_oscillation_k_guard(family41, dom41):
    f = const_grid(dom41, 1.0)
    with pytest.raises(ValueError):
        oscillation_check_abstract(f, f, f, family41, 0,
                                   family41.radii[0], 0, k=1.0, p=2.0)


def test_mean_oscillation_matches_definition():
    vals = np.array([1.0, 3.0, 5.0, 100.0])
    mask = np.array([True, True, True, False])
    assert mean_oscillation(vals, mask) == pytest.approx(4.0 / 3.0)


def _direct_family_stats(f, fam, oscillation):
    """Per radius, the usable balls' statistic with every ball sliced
    afresh as distance < r, the former construction."""
    vals = f.values.ravel()
    trust = f.interior_mask().ravel()
    border = np.ones(fam.domain.counts, dtype=bool)
    border[1:-1, 1:-1] = False
    border = border.ravel()
    for r in fam.radii:
        masks = fam.distance < r
        ok = ~(masks & border).any(axis=1) & ~(masks & ~trust).any(axis=1)
        masks = masks[ok]
        counts = masks.sum(axis=1)
        if oscillation:
            avg = (masks @ vals) / counts
            stat = np.where(masks, np.abs(vals - avg[:, None]), 0.0)
            stat = stat.sum(axis=1) / counts
        else:
            stat = (masks @ np.abs(vals)) / counts
        yield masks, stat


def test_family_statistics_match_direct_slicing(family41, suite41):
    for f in suite41:
        for fn, osc in ((hl_maximal, False), (sharp_maximal, True)):
            got = fn(f, family41)
            ref = np.zeros(f.domain.num_points)
            covered = np.zeros(f.domain.num_points, dtype=bool)
            for masks, stat in _direct_family_stats(f, family41, osc):
                if len(stat):
                    ref = np.maximum(ref, np.where(masks, stat[:, None],
                                                   0.0).max(axis=0))
                    covered |= masks.any(axis=0)
            np.testing.assert_allclose(got.values.ravel(), ref, rtol=0,
                                       atol=1e-14)
            assert got.margin == max(f.margin, maximal._covering_margin(
                covered, f.domain))
        eta = np.maximum.accumulate(
            [stat.max() if len(stat) else 0.0
             for _, stat in _direct_family_stats(f, family41, True)])
        np.testing.assert_allclose(vmo_modulus(f, family41).eta, eta,
                                   rtol=0, atol=1e-14)


def _face_clipped(dom, mask):
    """Whether a flat node mask reaches a box face, checked face by face,
    the former construction."""
    grid = mask.reshape(dom.counts)
    for ax in range(grid.ndim):
        if np.take(grid, 0, axis=ax).any() or np.take(grid, -1, axis=ax).any():
            return True
    return False


def _sample_balls_loop(fam, r, k, trust, limit):
    """Usable centers and their first B_r node, one center at a time, the
    former construction."""
    out = []
    for ci in range(fam.num_centers):
        mask_kr = fam.distance[ci] < k * r
        if _face_clipped(fam.domain, mask_kr) or np.any(mask_kr & ~trust):
            continue
        out.append((ci, int(np.flatnonzero(fam.distance[ci] < r)[0])))
        if limit is not None and len(out) >= limit:
            break
    return out


def test_family_clipped_matches_face_check(family41):
    clipped = [[_face_clipped(family41.domain, family41.distance[c] < r)
                for r in family41.radii]
               for c in range(family41.num_centers)]
    assert np.array_equal(family41.clipped, np.array(clipped))
    assert family41.clipped.any() and not family41.clipped.all()


def test_abstract_record_is_singleton_constant_matrix(family41, suite41):
    # the abstract check is the constant-matrix check with one second
    # derivative (Tf) and f as its source, field for field
    f, Tf = suite41[5], suite41[6]
    Mf = hl_maximal(f, family41)
    trust = f.interior_mask().ravel()
    cases = [(ci, r, x0, k)
             for r in (family41.radii[0], 0.45)
             for k in (2.0, 4.0)
             for ci, x0 in sample_balls(family41, r, k, trust, 6)]
    cases.append((0, family41.radii[-1], 0, 8.0))      # skipped
    assert any(ci != 0 for ci, *_ in cases)
    for ci, r, x0, k in cases:
        for p in (1.5, 2.0):
            a = oscillation_check_abstract(Tf, f, Mf, family41, ci, r, x0,
                                           k, p)
            b = maximal.oscillation_check_constant_matrix(
                {(0, 0): Tf}, {(0, 0): Mf}, f, family41, 0, 0, ci, r, x0,
                k, p)
            assert np.isnan(a.lhs) == np.isnan(b.lhs)
            assert np.isnan(a.lhs) or a.lhs == b.lhs
            assert a.terms == b.terms
            assert (a.k, a.p, a.radius, a.center_idx, a.x0_flat, a.skipped,
                    a.note) == (b.k, b.p, b.radius, b.center_idx, b.x0_flat,
                                b.skipped, b.note)


def test_sample_balls_match_center_loop(family41, dom41):
    grid = list(itertools.product(range(4), (0.3, 0.45, 0.6), (2.0, 4.0, 8.0),
                                  (None, 7)))
    rng = np.random.default_rng(3)
    found = 0
    for i in rng.choice(len(grid), 30, replace=False):
        margin, r, k, limit = grid[i]
        trust = GridFunction(dom41, np.zeros(dom41.counts),
                             margin).interior_mask().ravel()
        got = sample_balls(family41, r, k, trust, limit)
        assert got == _sample_balls_loop(family41, r, k, trust, limit)
        found += len(got)
    assert found > 0


def test_sample_balls_from_memberships_equal_the_table_path(family41, dom41):
    # r = radii[0] and 2 r = radii[1] read the memberships alone (the copy
    # has no distance table); the other copy's radii match neither, so it
    # slices the distance table
    r = family41.radii[0]
    assert 2.0 * r == family41.radii[1]
    members_only = copy.copy(family41)
    members_only.distance = None
    table_only = copy.copy(family41)
    table_only.radii = family41.radii + 1e-3
    for margin in range(4):
        trust = GridFunction(dom41, np.zeros(dom41.counts),
                             margin).interior_mask().ravel()
        for limit in (None, 7):
            got = sample_balls(members_only, r, 2.0, trust, limit)
            assert got == sample_balls(table_only, r, 2.0, trust, limit)
            assert got == _sample_balls_loop(family41, r, 2.0, trust, limit)
            assert got


def _former_ball_stats(f, fam, oscillation):
    """Per radius, the statistic on every family ball and -1 on the
    unusable ones, found afresh from f's trusted mask: the former
    construction."""
    vals = f.values.ravel()
    untrusted = ~f.interior_mask().ravel()
    for k, (balls, counts) in enumerate(zip(fam.members, fam.counts)):
        ok = ~fam.clipped[:, k]
        if untrusted.any():
            ok &= balls @ untrusted == 0
        if oscillation:
            avg = (balls @ vals) / counts
            dev = np.abs(vals[balls.indices] - np.repeat(avg, counts))
            stat = maximal._row_reduce(np.add, dev, balls.indptr)
        else:
            stat = balls @ np.abs(vals)
        yield k, np.where(ok, stat / counts, -1.0)


def _former_family_sup(f, fam, oscillation):
    out = np.zeros(f.domain.num_points)
    covered = np.zeros(f.domain.num_points, dtype=bool)
    for k, stat in _former_ball_stats(f, fam, oscillation):
        indptr, holders = maximal._csr_arrays(fam.distance.T < fam.radii[k])
        best = np.where(np.diff(indptr) > 0, maximal._row_reduce(
            np.maximum, stat.take(holders), indptr), -1.0)
        np.maximum(out, best, out=out)
        covered |= best >= 0
    margin = maximal._covering_margin(covered, f.domain)
    return out.reshape(f.domain.counts), max(margin, f.margin)


def _former_record(second, M_second, LAu, fam, i, j, ci, r, x0, k, p):
    """The constant-matrix record with |L_A u|^p over the whole grid and
    the trusted mask rebuilt per record: the former construction."""
    dist = fam.distance[ci]
    mask_r, mask_kr = dist < r, dist < k * r
    if np.any(mask_kr & (fam.domain.border | ~LAu.interior_mask().ravel())):
        return None
    lhs = mean_oscillation(second[(i, j)].values.ravel(), mask_r)
    t1 = sum(M_second[key].values.ravel()[x0] for key in M_second) / k
    avg = float((np.abs(LAu.values.ravel()) ** p)[mask_kr].mean())
    return lhs, (t1, k ** (fam.q / p) * avg ** (1.0 / p))


def test_family_queries_equal_the_former_construction(g1, dom41, xs2,
                                                      suite41):
    # cold and warm per-margin views give the former values bitwise
    fam = maximal.build_ball_family(g1, dom41, r0=0.6, num_radii=2,
                                    stride=2)
    for f in suite41[:4]:
        for margin in range(4):
            g = GridFunction(dom41, f.values, margin)
            for _ in range(2):
                for fn, osc in ((hl_maximal, False), (sharp_maximal, True)):
                    got = fn(g, fam)
                    ref, ref_margin = _former_family_sup(g, fam, osc)
                    assert np.array_equal(got.values, ref)
                    assert got.margin == ref_margin
                eta = np.maximum.accumulate(
                    [max(stat.max(), 0.0)
                     for _, stat in _former_ball_stats(g, fam, True)])
                assert np.array_equal(vmo_modulus(g, fam).eta, eta)
    assert sorted(fam._usable) == [0, 1, 2, 3]
    u = estimates.grid_from_expr(dom41, estimates.bump_expr(xs2, (0.6, 0.7)),
                                 xs2)
    second = {(h, l): estimates.apply_word_grid(g1, (h, l), u)
              for h in range(2) for l in range(2)}
    M_second = {key: hl_maximal(v, fam) for key, v in second.items()}
    A = np.array([[1.2, 0.3], [0.3, 0.8]])
    for margin in range(2, 4):
        LAu = GridFunction(dom41, sum(A[i, j] * second[(i, j)].values
                                      for i in range(2) for j in range(2)),
                           margin)
        trust = LAu.interior_mask().ravel()
        seen = set()
        for r in (fam.radii[0], 0.45):
            for k in (2.0, 4.0):
                cases = sample_balls(fam, r, k, trust, 8) + [(0, 0)]
                for ci, x0 in cases:
                    for p in (1.5, 2.0):
                        rec = maximal.oscillation_check_constant_matrix(
                            second, M_second, LAu, fam, 0, 1, ci, r, x0, k, p)
                        ref = _former_record(second, M_second, LAu, fam, 0,
                                             1, ci, r, x0, k, p)
                        seen.add(ref is None)
                        assert rec.skipped == (ref is None)
                        if ref is not None:
                            assert (rec.lhs, rec.terms) == ref
        assert seen == {True, False}


def test_family_sup_without_covering_balls_raises(family41, dom41):
    # margin 19 leaves a 3 x 3 interior, which no family ball fits in
    f = GridFunction(dom41, np.ones(dom41.counts), 19)
    for fn in (hl_maximal, sharp_maximal):
        with pytest.raises(MarginError):
            fn(f, family41)
    assert vmo_modulus(f, family41).eta.tolist() == [0.0, 0.0]
