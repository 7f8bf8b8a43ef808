"""The three benchmark workloads: seeded inputs, set-up, queries, checks.

Every workload is a closed loop with one client.  Inputs come in blocks: a
block is the smallest run of queries that has the workload's stated mix
(balls: three fresh centers and one revisit; singular: three T-queries and
one representation query; realanalysis: one grid function).  ``make_block``
draws a block's inputs from the seeded generator with numpy and sympy only;
``run`` sends one query through the library, every call going through
``Tracer.call`` so it can be timed and its failures attributed to a layer.
``run`` returns the query's numeric results (compared with the recorded
references) and the work it did (the per-layer counters).
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from subelliptic import (estimates, fields, geometry, kernels, liftgroup,
                         maximal)
from subelliptic.domain import BoxDomain, GridFunction


class CheckFailed(Exception):
    """A query's result failed its correctness check."""


def _check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _spd(rng, window) -> np.ndarray:
    """Random rotation of a diagonal with eigenvalues drawn from window."""
    theta = rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    Q = np.array([[c, -s], [s, c]])
    return (Q * rng.uniform(window[0], window[1], size=2)) @ Q.T


def _domain(cfg, smoke: bool) -> BoxDomain:
    lo, hi = cfg["box"]
    return BoxDomain(tuple(lo), tuple(hi),
                     tuple(cfg["smoke_grid" if smoke else "grid"]))


class Balls:
    """Ball volumes around off-origin centers on the 81^2 grushin(1) grid."""

    name = "balls"

    def __init__(self, cfg, tracer, smoke=False, inject_every=0):
        self.cfg, self.tracer, self.inject_every = cfg, tracer, inject_every
        self.dom = _domain(cfg, smoke)
        self.radii = sorted(set(cfg["doubling_radii"])
                            | {cfg["growth_base_radius"]}
                            | set(cfg["growth_radii"]))
        self.recent: list = []        # (center, fresh) of the last queries
        self.next_query = 0

    def setup(self) -> None:
        call = self.tracer.call
        self.system = call("fields.grushin", fields.grushin, 1)
        self.metric = call("geometry.get_metric", geometry.get_metric,
                           self.system, self.dom)

    def make_block(self, rng) -> list:
        cfg = self.cfg
        n = cfg["block_queries"]
        # block 0 has no history: its revisit goes last
        slot = n - 1 if not self.recent else int(rng.integers(n))
        block = []
        for k in range(n):
            qi = self.next_query
            self.next_query += 1
            if k == slot:
                window = [c for c, fresh in self.recent if fresh]
                center, fresh = window[int(rng.integers(len(window)))], False
            else:
                x1 = rng.uniform(*cfg["center_abs_x1"]) * rng.choice([-1, 1])
                center = np.array([x1, rng.uniform(*cfg["center_x2"])])
                fresh = True
            self.recent.append((center, fresh))
            self.recent = self.recent[-cfg["revisit_window"]:]
            radii = list(self.radii)
            if self.inject_every and qi % self.inject_every == \
                    self.inject_every - 1:
                radii.append(cfg["injected_bad_radius"])
            block.append({"index": qi, "kind": "revisit" if not fresh
                          else "fresh", "center": center, "radii": radii})
        return block

    def run(self, q):
        call, cfg = self.tracer.call, self.cfg
        vol = {r: call("geometry.ball_volume", geometry.ball_volume,
                       self.system, q["center"], r, self.dom,
                       metric=self.metric) for r in q["radii"]}
        r_lo, r_hi = cfg["doubling_radii"]
        doubling = vol[r_hi] / vol[r_lo]
        base = cfg["growth_base_radius"]
        rs = cfg["growth_radii"]
        expo = call("geometry.growth_exponent_fit",
                    geometry.growth_exponent_fit, [r / base for r in rs],
                    [vol[r] / vol[base] for r in rs])
        _check(np.isfinite(doubling) and doubling > 1.0,
               f"doubling ratio {doubling}")
        lo, hi = cfg["check_exponent_window"]
        _check(lo <= expo <= hi, f"growth exponent {expo}")
        work = {"geometry.fields_built": int(q["kind"] == "fresh"),
                "geometry.revisits": int(q["kind"] == "revisit")}
        values = [vol[r] for r in self.radii] + [doubling, expo]
        return values, work


class RealAnalysis:
    """Maximal functions, oscillation records and a-priori ratios."""

    name = "realanalysis"

    def __init__(self, cfg, tracer, smoke=False):
        self.cfg, self.tracer = cfg, tracer
        self.smoke = smoke
        self.dom = _domain(cfg, smoke)
        self.next_query = 0

    def setup(self) -> None:
        call = self.tracer.call
        fam = self.cfg["smoke_family" if self.smoke else "family"]
        self.system = call("fields.grushin", fields.grushin, 1)
        call("geometry.get_metric", geometry.get_metric, self.system,
             self.dom)
        self.fam = call("maximal.build_ball_family",
                        maximal.build_ball_family, self.system, self.dom,
                        fam["r0"], num_radii=fam["num_radii"],
                        stride=fam["stride"])
        self.op = call("estimates.DiscreteOperator.identity",
                       estimates.DiscreteOperator.identity, self.system,
                       self.dom)

    def make_block(self, rng) -> list:
        cfg = self.cfg
        pts = self.dom.points()
        center = rng.uniform(*cfg["bump_center"], size=2)
        width = rng.uniform(*cfg["bump_width"], size=2)
        vals = np.exp(-np.sum(((pts - center) / width) ** 2, axis=1))
        kind = "bump" if rng.random() < cfg["query_kinds"]["bump"] \
            else "bump_cosine"
        if kind == "bump_cosine":
            vals = vals * np.cos(rng.uniform(*cfg["cosine_frequency"])
                                 * pts[:, 0])
        A = _spd(rng, cfg["spd_eigenvalues"])
        qi = self.next_query
        self.next_query += 1
        u = GridFunction(self.dom, vals.reshape(self.dom.counts))
        return [{"index": qi, "kind": kind, "u": u, "A": A}]

    def run(self, q):
        call, cfg, fam, sys_ = self.tracer.call, self.cfg, self.fam, \
            self.system
        u, A = q["u"], q["A"]
        second = {(h, l): call("estimates.apply_word_grid",
                               estimates.apply_word_grid, sys_, (h, l), u)
                  for h in range(2) for l in range(2)}
        M_second = {key: call("maximal.hl_maximal", maximal.hl_maximal, v,
                              fam) for key, v in second.items()}
        Mu = call("maximal.hl_maximal", maximal.hl_maximal, u, fam)
        Su = call("maximal.sharp_maximal", maximal.sharp_maximal, u, fam)
        vmo = call("maximal.vmo_modulus", maximal.vmo_modulus, u, fam)
        r0 = float(fam.radii[0])
        trust = M_second[(0, 0)].interior_mask().ravel()
        samples = call("maximal.sample_balls", maximal.sample_balls, fam,
                       r0, 2.0, trust)
        LAu = GridFunction(self.dom, sum(A[i, j] * second[(i, j)].values
                                         for i in range(2)
                                         for j in range(2)),
                           max(s.margin for s in second.values()))
        p = cfg["oscillation_p"]
        recs = [call("maximal.oscillation_check_constant_matrix",
                     maximal.oscillation_check_constant_matrix, second,
                     M_second, LAu, fam, 0, 1, ci, r0, x0, k, p)
                for k in cfg["oscillation_k"] for ci, x0 in samples]
        const = call("maximal.fitted_constant", maximal.fitted_constant,
                     recs)
        ratio, _ = call("estimates.apriori_ratio", estimates.apriori_ratio,
                        self.op, u, cfg["apriori_p"])

        tiny = 1e-12
        _check(np.all(Su.values <= 2.0 * Mu.values * (1 + tiny) + tiny),
               "sharp maximal exceeds twice the HL maximal")
        _check(np.max(Mu.values) <= np.max(np.abs(u.values)) * (1 + tiny),
               "HL maximal exceeds sup|u|")
        _check(np.all(np.diff(vmo.eta) >= 0), "eta decreases")
        _check(np.isfinite(const) and np.isfinite(ratio),
               f"constant {const} or ratio {ratio} not finite")
        P = self.dom.num_points
        used = sum(1 for r in recs if not r.skipped)
        work = {"maximal.ball_points": 7 * fam.num_centers * len(fam.radii)
                * P,
                "maximal.records_used": used,
                "maximal.records_attempted": len(recs),
                "estimates.grid_points": 5 * P}
        values = [const, ratio, float(np.max(Mu.values)),
                  float(np.max(Su.values))] + [float(e) for e in vmo.eta]
        return values, work


class Singular:
    """Truncated singular operators and the representation formula."""

    name = "singular"

    def __init__(self, cfg, tracer, smoke=False):
        self.cfg, self.tracer = cfg, tracer
        self.dom = _domain(cfg, smoke)
        stride = cfg["output_stride"]
        sub = tuple(np.arange(0, c, stride) for c in self.dom.counts)
        axes = self.dom.axes()
        mesh = np.meshgrid(*[np.asarray(axes[k])[sub[k]] for k in range(2)],
                           indexing="ij")
        self.sub = sub
        self.out_points = np.stack([m.ravel() for m in mesh], axis=-1)
        self.next_query = 0

    def setup(self) -> None:
        call = self.tracer.call
        self.lift = call("liftgroup.lift_grushin1", liftgroup.lift_grushin1)
        call("liftgroup.normalization_constant",
             liftgroup.normalization_constant)
        call("liftgroup.calibrate_equivalence",
             liftgroup.calibrate_equivalence, self.lift)

    def make_block(self, rng) -> list:
        cfg = self.cfg
        n = cfg["block_queries"]
        slot = int(rng.integers(n))
        pts = self.dom.points()
        y1, y2 = kernels._B_SYMS
        block = []
        for k in range(n):
            qi = self.next_query
            self.next_query += 1
            A = _spd(rng, cfg["spd_eigenvalues"])
            if k == slot:
                a = rng.uniform(*cfg["gaussian_a"])
                b = rng.uniform(*cfg["gaussian_b"])
                npt = cfg["representation"]["points"]
                xs = np.column_stack([
                    rng.uniform(*cfg["point_x1"], size=npt),
                    rng.choice([-1, 1], size=npt)
                    * rng.uniform(*cfg["point_abs_x2"], size=npt)])
                u = sp.exp(-(sp.Float(a) * y1 ** 2 + sp.Float(b) * y2 ** 2))
                block.append({"index": qi, "kind": "representation",
                              "A": A, "u": u, "xs": xs})
                continue
            eps, R = cfg["eps_R_choices"][
                int(rng.integers(len(cfg["eps_R_choices"])))]
            center = rng.uniform(*cfg["bump_center"], size=2)
            rad = rng.uniform(*cfg["bump_radius"])
            r2 = np.sum((pts - center) ** 2, axis=1) / rad ** 2
            vals = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2,
                                                              1e-300)), 0.0)
            block.append({"index": qi, "kind": "T", "A": A, "eps": eps,
                          "R": R, "f": GridFunction(
                              self.dom, vals.reshape(self.dom.counts))})
        return block

    def run(self, q):
        call, cfg = self.tracer.call, self.cfg
        if q["kind"] == "representation":
            rep = cfg["representation"]
            res = call("kernels.representation_residual",
                       kernels.representation_residual, rep["i"], rep["j"],
                       q["A"], q["u"], q["xs"], eps=rep["eps"], R=rep["R"])
            _check(np.isfinite(res) and res <= cfg["check_max_residual"],
                   f"representation residual {res}")
            return [res], {"kernels.output_points": len(q["xs"])}
        kern = call("kernels.TruncatedKernel", kernels.TruncatedKernel, 0, 1,
                    q["eps"], q["R"], q["A"])
        Tf = call("kernels.apply_T_quadrature", kernels.apply_T_quadrature,
                  kern, q["f"], self.out_points)
        _check(np.all(np.isfinite(Tf)), "T f not finite")
        p = cfg["norm_p"]
        fvals = q["f"].values[np.ix_(*self.sub)].ravel()
        ratio = float((np.sum(np.abs(Tf) ** p) / np.sum(np.abs(fvals) ** p))
                      ** (1.0 / p))
        _check(np.isfinite(ratio), f"norm ratio {ratio}")
        return [ratio, float(np.max(np.abs(Tf)))], \
            {"kernels.output_points": len(self.out_points)}


WORKLOADS = {cls.name: cls for cls in (Balls, RealAnalysis, Singular)}
