"""End-to-end acceptance gates for the whole laboratory.

One test per gated property group; each prints a single pass/fail line with
the measured quantities so a log scan shows the state of every gate.
"""

import time

import numpy as np
import pytest
import sympy as sp

from subelliptic import estimates as es
from subelliptic import fields, geometry, kernels, liftgroup, maximal
from subelliptic.domain import BoxDomain, GridFunction


def _gate(num, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {num}. {label}: {detail}")
    assert ok, f"{num}. {label}: {detail}"


# -- 1 -----------------------------------------------------------------------

def test_01_structural_gates():
    expected_q = {"grushin1": 3, "grushin2": 4, "example2_3": 6,
                  "example3": 6}
    t0 = time.perf_counter()
    ok = True
    for name, q in expected_q.items():
        sys_ = fields.load_system(name)
        closure = fields.lie_closure(sys_)
        rank = fields.hormander_rank(closure, np.zeros(sys_.n))
        ok &= fields.check_homogeneity(sys_) and rank == sys_.n
        ok &= sys_.q == q and closure.N > sys_.n and sys_.q > 2
    dt = time.perf_counter() - t0
    _gate(1, "structural gates", ok and dt < 1.0,
          f"4 systems, {dt:.2f} s")


# -- 2 -----------------------------------------------------------------------

def test_02_cc_homogeneity(g1):
    dom = BoxDomain((-2, -2), (2, 2), (200, 200))
    t0 = time.perf_counter()
    axis_ok = True
    for t in (0.5, 1.0, 1.5):
        res = geometry.cc_distance(g1, (0, 0), (t, 0), dom)
        axis_ok &= res.status == "ok" and abs(res.value - t) <= res.error_bound
    rng = np.random.default_rng(12)
    pts = rng.uniform([-0.9, -0.45], [0.9, 0.45], size=(50, 2))
    checked, violations = 0, 0
    for y in pts:
        d1 = geometry.cc_distance(g1, (0, 0), y, dom)
        if d1.status != "ok":
            continue
        for lam in (0.5, 2.0):
            d2 = geometry.cc_distance(g1, (0, 0),
                                      g1.dilations.apply(lam, y), dom)
            if d2.status != "ok":
                continue
            checked += 1
            gap = abs(d2.value - lam * d1.value)
            if gap > lam * d1.error_bound + d2.error_bound:
                violations += 1
    dt = time.perf_counter() - t0
    _gate(2, "CC-metric homogeneity", axis_ok and checked >= 50
          and violations == 0,
          f"{checked} scaling checks, {violations} violations, "
          f"axis ok={axis_ok}, {dt:.0f} s at 200^2")


# -- 3 -----------------------------------------------------------------------

def test_03_ball_scaling(g1):
    # Known red on the origin doubling clause (extrapolated 9.563).  For
    # the scheme's control set |a_j| <= 1 with cost max|a_j| the distance
    # from the origin has a closed form (test_geometry.linf_origin_distance)
    # with |B(0,r)| = 5r^3/3, so the true ratio is exactly 8.  Against it:
    #
    #   grid   exact ratio  VI err mean/max  B(0,.6)  B(0,1.2)  VI ratio
    #   81^2      7.785        8.3%/35%       -31%     -17%      9.444
    #   161^2     7.887        6.4%/37%       -27%     -12%      9.504
    #   321^2     7.929        4.7%/31%       -21%      -9%      9.146
    #
    # (relative distance errors over 0.2 < d < 1.3; ball sizes are VI node
    # counts against exact-ball node counts).  Richardson on the exact
    # balls gives 7.989, so the protocol below is sound.  The value-
    # iteration distance never undercuts the oracle but overprices it; the
    # error shrinks, but slowly, so the small ball comes out too small and
    # the ratio too large, not monotonically in h.  The measurement is
    # reported as is rather than tuned around.
    dom_c = BoxDomain((-2, -2), (2, 2), (81, 81))
    dom_f = BoxDomain((-2, -2), (2, 2), (161, 161))
    r = 0.6
    ratios = []
    for dom in (dom_c, dom_f):
        m = geometry.get_metric(g1, dom)
        v1 = geometry.ball_volume(g1, (0, 0), r, dom, metric=m)
        v2 = geometry.ball_volume(g1, (0, 0), 2 * r, dom, metric=m)
        ratios.append(v2 / v1)
    extrap = 2.0 * ratios[1] - ratios[0]
    doubling_ok = abs(extrap - 8.0) / 8.0 <= 0.05
    m = geometry.get_metric(g1, dom_c)
    rng = np.random.default_rng(9)
    finite_ok = True
    fits = []
    radii = np.array([0.5, 0.7, 0.9, 1.1])
    # off-origin centers: doubling ratios must be finite, and the fitted
    # growth exponent sits between the local dimension 2 and the
    # homogeneous dimension 3 once the center is away from the degeneracy
    for _ in range(10):
        c = np.array([rng.choice([-1, 1]) * rng.uniform(0.3, 0.7),
                      rng.uniform(-0.5, 0.5)])
        v1 = geometry.ball_volume(g1, c, 0.3, dom_c, metric=m)
        v2 = geometry.ball_volume(g1, c, 0.6, dom_c, metric=m)
        finite_ok &= np.isfinite(v2 / v1) and v2 > v1 > 0
        vols = [geometry.ball_volume(g1, c, rr, dom_c, metric=m)
                for rr in radii]
        fits.append(geometry.growth_exponent_fit(radii / radii[0],
                                                 np.array(vols) / vols[0]))
    fit_ok = all(2.0 <= f <= 3.0 for f in fits)
    _gate(3, "ball scaling and doubling",
          doubling_ok and finite_ok and fit_ok,
          f"extrapolated ratio {extrap:.3f}, exponents "
          f"{['%.2f' % f for f in fits]}")


# -- 4 -----------------------------------------------------------------------

def test_04_lift_validation(lift1):
    rep = liftgroup.verify_lift(lift1)
    xs = np.array([[0.2, -0.1, 0.15], [-0.25, 0.2, -0.1]])
    bump = liftgroup._gaussian_bump((1.2, 0.9, 1.3))
    res_id = liftgroup.reproduction_residual(
        liftgroup.HeisenbergGamma(), bump, xs)
    worst = 0.0
    for A in liftgroup.spd_sweep(12):
        worst = max(worst, liftgroup.reproduction_residual(
            liftgroup.HeisenbergGamma(A), bump, xs))
    _gate(4, "lift validation and reproduction",
          rep.passed and res_id <= 0.005 and worst <= 0.02,
          f"verify={rep.passed}, residual(I)={res_id:.4f}, "
          f"sweep worst={worst:.4f}")


# -- 5 -----------------------------------------------------------------------

def test_05_saturation_identities():
    G = liftgroup.GrushinGamma()
    x = np.array([0.3, 0.2])
    y = np.array([-0.2, 0.45])
    lam = 2.0
    dil = lambda z: np.array([lam * z[0], lam ** 2 * z[1]])
    factor = float(G.value(dil(x), dil(y)) / G.value(x, y))
    hom_ok = abs(factor - 0.5) / 0.5 <= 0.005
    sym_gap = 0.0
    for a, b in [((0.4, 0.2), (-0.3, 0.5)), ((0.1, -0.3), (0.6, 0.2)),
                 ((-0.5, 0.1), (0.2, 0.35))]:
        va = float(G.value(np.array(a), np.array(b)))
        vb = float(G.value(np.array(b), np.array(a)))
        sym_gap = max(sym_gap, abs(va - vb) / abs(va))
    y1, y2 = liftgroup._B_SYMS
    bump = sp.exp(-(y1 ** 2 + y2 ** 2 / sp.Rational(3, 2)))
    res = liftgroup.base_reproduction_residual(
        None, bump, [(0.0, 0.0), (0.3, -0.2), (-0.25, 0.3)])
    _gate(5, "saturation identities",
          hom_ok and sym_gap <= 1e-3 and res <= 0.01,
          f"factor={factor:.4f}, symmetry gap={sym_gap:.1e}, "
          f"reproduction={res:.4f}")


# -- 6 -----------------------------------------------------------------------

def test_06_kernel_suite():
    entries = [(0, 0), (0, 1), (1, 0), (1, 1)]
    canc = max(kernels.cancellation_metric(i, j) for i, j in entries)
    fitA = kernels.standard_estimate_fit(0, 0)
    fitB = kernels.mean_value_fit(0, 0)
    fitC = kernels.shell_bound_fit(0, 0)
    finite_ok = all(np.isfinite(v) and v > 0 for v in
                    (fitA.constant, fitB.constant, fitC))
    C, r2, signed_ratio, base_over = kernels.log_growth_grid(0, 0, (0.2, 0.1))
    growth_ok = r2 >= 0.95 and base_over <= 1.0 + 1e-9
    dom = BoxDomain((-2, -2), (2, 2), (61, 61))

    pts = dom.points()

    def bump(center, rad, mod=None):
        r2_ = np.sum((pts - center) ** 2, axis=1) / rad ** 2
        vals = np.where(r2_ < 1, np.exp(-1 / np.maximum(1 - r2_, 1e-300)),
                        0.0)
        if mod is not None:
            vals = vals * mod(pts)
        return GridFunction(dom, vals.reshape(dom.counts))

    # T_{eps,R} is dilation covariant: Y_iY_j Gamma has degree -4,
    # psi_{eps,R} o delta_lam = psi_{eps/lam,R/lam} and the fiber variable
    # has weight 1, so T_{eps,R}(f o delta_lam) = (T_{lam eps,lam R} f) o
    # delta_lam and ||T_{eps,R}||_{p->p} depends on R/eps alone.  A family
    # of fixed spatial scale swept over R would measure R against its own
    # scale, so the sweep runs R/eps in {5, 10, 20, 25, 40, 50, 100} at
    # the one R = 1.  The family also carries a frozen power-iteration
    # witness: iterating T at (eps, R) = (0.025, 1) shapes a function
    # aligned with the far shells, and the same function is then used
    # for every cell.
    kw = kernels.TruncatedKernel(0, 0, 0.025, 1.0, None)
    taper = bump((0, 0), 1.6).values
    wit = bump((0, 0), 0.5).values
    for _ in range(3):
        Tw = kernels.apply_T_quadrature(
            kw, GridFunction(dom, wit), pts).reshape(dom.counts)
        wit = Tw * taper
        wit = wit / np.max(np.abs(wit))
    sweep = kernels.lp_ratio_sweep(
        0, 0, [bump((0, 0), 0.5), bump((0.3, -0.2), 0.4),
               bump((-0.25, 0.3), 0.6),
               bump((0, 0), 0.8, lambda p: np.sin(6 * p[:, 0])),
               GridFunction(dom, wit)],
        eps_list=(0.2, 0.1, 0.05, 0.04, 0.025, 0.02, 0.01),
        R_list=(1.0,))
    vals = np.array(list(sweep.values()))
    norm_var = float(vals.max() / vals.min())
    const_gap, cutoff_gap = 0.0, 0.0
    for i, j in entries:
        flux = kernels.flux_constant(i, j)
        shq = kernels.shell_constant(i, j, profile="quintic")
        shc = kernels.shell_constant(i, j, profile="cosine")
        scale = max(abs(flux), abs(shq), 1e-9)
        const_gap = max(const_gap, abs(flux - shq) / scale)
        cutoff_gap = max(cutoff_gap, abs(shq - shc) / scale)
    ok = (canc <= 1e-3 and finite_ok and growth_ok and norm_var <= 2.0
          and const_gap <= 0.01 and cutoff_gap <= 0.005)
    _gate(6, "kernel suite", ok,
          f"cancellation={canc:.1e}, A={fitA.constant:.3g}, "
          f"B={fitB.constant:.3g}, C={fitC:.3g}, log fit r2={r2:.3f}, "
          f"norm variation={norm_var:.2f}, c_ij gaps "
          f"{const_gap:.4f}/{cutoff_gap:.4f}")


# -- 7 -----------------------------------------------------------------------

def test_07_representation_convergence():
    y1, y2 = kernels._B_SYMS
    funcs = [sp.exp(-(y1 ** 2 + y2 ** 2)),
             sp.exp(-(y1 ** 2 + 2 * y2 ** 2)) * sp.cos(y1),
             (1 + y1 ** 2 + y2 ** 2) * sp.exp(-(sp.Rational(3, 2) * y1 ** 2
                                                + y2 ** 2))]
    xs = [(0.3, 0.2), (-0.4, 0.1), (0.1, -0.3)]
    ok = True
    finals = []
    for f in funcs:
        ladder = kernels.representation_ladder(0, 0, None, f, xs)
        # decrease up to the quadrature floor: once a rung is below 0.005
        # the residual is noise-dominated and small upticks are allowed
        ok &= all(ladder[k + 1] <= ladder[k] or ladder[k + 1] <= 0.005
                  for k in range(len(ladder) - 1))
        ok &= ladder[-1] <= 0.05
        finals.append(ladder[-1])
    _gate(7, "representation-formula convergence", ok,
          f"final residuals {['%.4f' % v for v in finals]}")


# -- 8 -----------------------------------------------------------------------

def _hl_constant(suite, fam, p):
    best = 0.0
    for f in suite:
        M = maximal.hl_maximal(f, fam)
        sl = M.interior_slice()
        nf = float(np.mean(np.abs(f.values[sl]) ** p) ** (1 / p))
        nM = float(np.mean(M.values[sl] ** p) ** (1 / p))
        best = max(best, nM / nf)
    return best


def _fs_constant(suite, fam, p):
    best = 0.0
    for f in suite:
        S = maximal.sharp_maximal(f, fam)
        sl = S.interior_slice()
        nf = float(np.mean(np.abs(f.values[sl]) ** p) ** (1 / p))
        nS = float(np.mean(S.values[sl] ** p) ** (1 / p))
        if nS > 0:
            best = max(best, nf / nS)
    return best


def test_08_real_analysis_suite(g1, dom41, family41, family41_fine, suite41,
                                xs2):
    const = GridFunction(dom41, np.full(dom41.counts, -3.0))
    M = maximal.hl_maximal(const, family41)
    S = maximal.sharp_maximal(const, family41)
    trivial_ok = (np.all(M.interior_values() == 3.0)
                  and np.all(S.interior_values() == 0.0))
    eta_const = maximal.vmo_modulus(const, family41)
    eta_ok = np.all(eta_const.eta == 0.0)
    stab_ok, worst_rel = True, 0.0
    for p in (2.0, 3.0):
        for fit in (_hl_constant, _fs_constant):
            c0 = fit(suite41, family41, p)
            c1 = fit(suite41, family41_fine, p)
            rel = abs(c1 - c0) / c0
            worst_rel = max(worst_rel, rel)
            stab_ok &= rel <= 0.10
    slope_ok = True
    slopes = []
    for f in suite41[:5]:
        grad = sum(float(np.abs(es.apply_field_grid(X, f).interior_values())
                         .max()) for X in g1.fields)
        rep = maximal.vmo_modulus(f, family41, grad_sup=grad)
        slopes.append(rep.fitted_slope)
    fitted = max(slopes)
    for f, s in zip(suite41[:5], slopes):
        grad = sum(float(np.abs(es.apply_field_grid(X, f).interior_values())
                         .max()) for X in g1.fields)
        rep = maximal.vmo_modulus(f, family41)
        slope_ok &= bool(np.all(rep.eta <= fitted * rep.radii * grad + 1e-12))
    _gate(8, "real-analysis suite",
          trivial_ok and eta_ok and stab_ok and slope_ok,
          f"trivial={trivial_ok}, eta(const)=0={eta_ok}, worst constant "
          f"drift {worst_rel:.3f}, slope bound holds={slope_ok}")


# -- 9 -----------------------------------------------------------------------

def test_09_oscillation_estimates(g1, dom41, family41, xs2):
    u = es.grid_from_expr(dom41, es.bump_expr(xs2, (0.7, 0.7)), xs2)
    second = {(h, l): es.apply_word_grid(g1, (h, l), u)
              for h in range(2) for l in range(2)}
    M_second = {k: maximal.hl_maximal(v, family41) for k, v in second.items()}
    trust = M_second[(0, 0)].interior_mask().ravel()
    samples = maximal.sample_balls(family41, family41.radii[0], 2.0, trust)
    cs = []
    n_records = 0
    for A in [np.eye(2)] + liftgroup.spd_sweep(12):
        vals = sum(A[i, j] * second[(i, j)].values
                   for i in range(2) for j in range(2))
        LAu = GridFunction(dom41, vals,
                           max(s.margin for s in second.values()))
        recs = []
        for k in (2.0, 4.0, 8.0):
            for ci, x0 in samples:
                recs.append(maximal.oscillation_check_constant_matrix(
                    second, M_second, LAu, family41, 0, 1, ci,
                    family41.radii[0], x0, k, 2.0))
        n_records = max(n_records,
                        sum(1 for r in recs if not r.skipped))
        cs.append(maximal.fitted_constant(recs))
    cs = np.array(cs)
    var = float(cs.max() / cs.min())
    # constant coefficients: the coefficient-oscillation term is exactly 0
    M_source_p = maximal.hl_maximal(maximal.abs_power(LAu, 2.0), family41)
    M_palpha = {k: maximal.hl_maximal(maximal.abs_power(v, 4.0), family41)
                for k, v in second.items()}
    ci, x0 = samples[0]
    rec = maximal.oscillation_check_vmo(
        second, M_second, M_source_p, M_palpha, 0.0, family41, 0, 1, ci,
        family41.radii[0], x0, 2.0, 2.0, 2.0, 2.0)
    third_ok = rec.terms[2] == 0.0
    ok = (n_records >= 20 and np.all(np.isfinite(cs)) and var <= 3.0
          and third_ok)
    _gate(9, "oscillation estimates", ok,
          f"{n_records} balls per experiment, fitted c variation "
          f"{var:.2f} over 13 matrices, third term zero={third_ok}")


# -- 10 ----------------------------------------------------------------------

def test_10_apriori_ratios(g1, xs2):
    dom = BoxDomain((-2, -2), (2, 2), (61, 61))
    u_expr = es.bump_expr(xs2, (0.6, 0.6))
    opI = es.DiscreteOperator.identity(g1, dom)
    amp = 0.5
    coeffs = {(0, 0): es.grid_from_expr(dom, 1 + amp * sp.sin(4 * xs2[0]),
                                        xs2),
              (1, 1): es.grid_from_expr(dom, 1 + amp * sp.cos(4 * xs2[1]),
                                        xs2)}
    opV = es.DiscreteOperator(g1, coeffs, 0.25, dom)
    spreads = {}
    for tag, op, k in [("constant", opI, 0), ("vmo", opV, 0),
                       ("order1", opI, 1)]:
        ratios = []
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            ue = es.dilate_expr(g1, u_expr, xs2, lam)
            u = es.grid_from_expr(dom, ue, xs2)
            if k == 0:
                r, _ = es.apriori_ratio(op, u, 2.0)
            else:
                r = es.higher_order_ratio(op, u, 1, 2.0)
            ratios.append(r)
        pos = [r for r in ratios if r > 0]
        spreads[tag] = max(pos) / min(pos)
    sweep_ok = all(s <= 2.0 for s in spreads.values())
    cps = []
    for dm in (dom, BoxDomain((-2, -2), (2, 2), (81, 81))):
        u = es.grid_from_expr(dm, u_expr, xs2)
        _, cp = es.interpolation_check(g1, u, 0, 2.0, [0.25, 0.5, 1.0, 2.0])
        cps.append(cp)
    interp_ok = (np.isfinite(cps[0])
                 and abs(cps[1] - cps[0]) / cps[0] <= 0.10)
    _gate(10, "a-priori ratios", sweep_ok and interp_ok,
          f"spreads {({k: round(v, 2) for k, v in spreads.items()})}, "
          f"c_p {cps[0]:.4f} -> {cps[1]:.4f}")
