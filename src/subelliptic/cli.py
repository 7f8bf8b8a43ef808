"""Command-line entry point: catalog checks, desk-scale experiments, CSV and
SVG report emission.

Exit codes: 0 all gated checks passed, 1 a check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np
import sympy as sp

from . import estimates, fields, geometry, kernels, liftgroup, maximal
from .domain import BoxDomain, BudgetExceededError, read_grid, \
    write_grid_binary
from .reports import EstimateReport, read_report_csv, svg_plot


class ConfigError(ValueError):
    pass


def _load_system(args) -> fields.HormanderSystem:
    if getattr(args, "file", None):
        return fields.load_system_file(args.file)
    try:
        return fields.load_system(args.name)
    except KeyError as exc:
        raise ConfigError(f"unknown system {args.name!r}; catalog: "
                          f"{', '.join(fields.catalog_names())}") from exc


def _check_exponent(p: float) -> None:
    # the maximal and a-priori estimates hold for 1 < p < infinity
    if not 1.0 < p < float("inf"):
        raise ConfigError(f"--p must satisfy 1 < p < inf, got {p}")


def _box_domain(args, dim: int) -> BoxDomain:
    half = float(args.box)
    return BoxDomain((-half,) * dim, (half,) * dim, (args.grid,) * dim)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_system(args) -> int:
    sys_ = _load_system(args)
    hom = fields.check_homogeneity(sys_)
    closure = fields.lie_closure(sys_)
    rank0 = fields.hormander_rank(closure, np.zeros(sys_.n))
    ok = bool(hom) and rank0 == sys_.n
    print(f"system {sys_.name}: q={sys_.q} N={closure.N} rank@0={rank0} "
          f"homogeneous={'yes' if hom else 'no'} "
          f"-> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_geom(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    sys_ = _load_system(args)
    dom = _box_domain(args, sys_.n)
    config = {"system": sys_.name, "grid": args.grid, "box": args.box,
              "check": args.check}
    rep = EstimateReport("geom", config,
                         ["check", "label", "value", "bound", "ok"])
    ok = True
    if args.check in ("homogeneity", "all"):
        rng = np.random.default_rng(3)
        half = float(args.box)
        for _ in range(args.samples):
            y = rng.uniform(-half / 3, half / 3, size=sys_.n)
            d1 = geometry.cc_distance(sys_, np.zeros(sys_.n), y, dom)
            y2 = sys_.dilations.apply(2.0, y)
            if not dom.contains(y2):
                continue
            d2 = geometry.cc_distance(sys_, np.zeros(sys_.n), y2, dom)
            if d1.status != "ok" or d2.status != "ok":
                continue
            gap = abs(d2.value - 2.0 * d1.value)
            bound = 2.0 * d1.error_bound + d2.error_bound
            good = gap <= bound
            ok &= good
            rep.add(check="homogeneity", label=f"y={np.round(y, 3)}",
                    value=gap, bound=bound, ok=int(good))
    if args.check in ("doubling", "all"):
        for r in (0.3, 0.45, 0.6):
            try:
                v1 = geometry.ball_volume(sys_, np.zeros(sys_.n), r, dom)
                v2 = geometry.ball_volume(sys_, np.zeros(sys_.n), 2 * r, dom)
            except geometry.ClippedBallError:
                continue
            ratio = v2 / v1
            good = np.isfinite(ratio) and ratio > 1.0
            ok &= good
            rep.add(check="doubling", label=f"r={r}", value=ratio,
                    bound=2.0 ** sys_.q, ok=int(good))
    _write(rep, args.out, "geom")
    checked = {row[0] for row in rep.rows}          # the "check" column
    for check in ("homogeneity", "doubling"):
        if args.check in (check, "all") and check not in checked:
            ok = False
            print(f"geom {check}: no rows, so no evidence (every sample "
                  "unresolved or every ball clipped by the box)")
    print(f"geom {args.check} on {sys_.name}: {len(rep.rows)} rows "
          f"-> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_lift(args) -> int:
    lift = liftgroup.load_lift(args.name)
    report = liftgroup.verify_lift(lift)
    print(f"lift {lift.name}: group={report.group_axioms} "
          f"left_invariant={report.left_invariant} "
          f"dilations={report.dilation_automorphism} "
          f"fields_homogeneous={report.fields_homogeneous} "
          f"projection={report.projects_to_base} "
          f"-> {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_kernel(args) -> int:
    A = _matrix_from_file(args.matrix) if args.matrix else None
    config = {"op": args.op, "i": args.i, "j": args.j,
              "matrix": args.matrix or "identity"}
    rep = EstimateReport("kernel", config, ["op", "label", "value"])
    ok = True
    if args.op == "cancellation":
        val = kernels.cancellation_metric(args.i, args.j, A=A)
        ok = val <= 1e-3
        rep.add(op="cancellation", label="relative", value=val)
        print(f"kernel cancellation c_{args.i}{args.j}: {val:.3e} "
              f"-> {'pass' if ok else 'FAIL'}")
    elif args.op == "constant":
        flux = kernels.flux_constant(args.i, args.j, A=A)
        shell = kernels.shell_constant(args.i, args.j, A=A)
        # c_01 and c_10 vanish by symmetry: a floor well above rounding
        gap = abs(flux - shell) / max(abs(flux), abs(shell), 1e-9)
        ok = gap <= 0.01
        rep.add(op="constant", label="surface", value=flux)
        rep.add(op="constant", label="shell", value=shell)
        rep.add(op="constant", label="relative_gap", value=gap)
        print(f"kernel constant c_{args.i}{args.j}: surface={flux:.6f} "
              f"shell={shell:.6f} gap={gap:.2e} "
              f"-> {'pass' if ok else 'FAIL'}")
    elif args.op == "loggrowth":
        C, r2, _, _ = kernels.log_growth_grid(args.i, args.j, (0.2, 0.1),
                                              A=A)
        ok = r2 >= 0.95
        rep.add(op="loggrowth", label="C", value=C)
        rep.add(op="loggrowth", label="r2", value=r2)
        print(f"kernel log growth: C={C:.3f} r2={r2:.4f} "
              f"-> {'pass' if ok else 'FAIL'}")
    _write(rep, args.out, "kernel")
    return 0 if ok else 1


def cmd_maximal(args) -> int:
    _check_exponent(args.p)
    sys_ = _load_system(args)
    f = read_grid(args.f)
    fam = maximal.build_ball_family(sys_, f.domain, args.r0,
                                    num_radii=args.num_radii,
                                    stride=args.stride)
    ok = True
    if args.op in ("hl", "sharp"):
        fn = maximal.hl_maximal if args.op == "hl" else maximal.sharp_maximal
        out = fn(f, fam)
        dest = args.out or f"{args.op}_out.hvfg"
        write_grid_binary(dest, out)
        print(f"maximal {args.op}: wrote {dest} "
              f"(max {out.interior_values().max():.6g})")
    elif args.op == "vmo":
        rep = maximal.vmo_modulus(f, fam)
        for r, e in zip(rep.radii, rep.eta):
            print(f"vmo r={r:g} eta={e:.6g}")
        ok = bool(np.all(np.diff(rep.eta) >= -1e-15))
    elif args.op == "fs":
        sharp = maximal.sharp_maximal(f, fam)
        p = args.p
        num = f.lp_norm(p)
        den = sharp.lp_norm(p)
        cp = num / den if den > 0 else float("inf")
        ok = np.isfinite(cp)
        print(f"fefferman-stein p={p}: ||f||/||f#|| = {cp:.4f} "
              f"-> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_apriori(args) -> int:
    if args.k < 0:
        raise ConfigError(f"--k must be at least 0, got {args.k}")
    _check_exponent(args.p)
    sys_ = _load_system(args)
    dom = _box_domain(args, sys_.n)
    xs = sp.symbols(f"x1:{sys_.n + 1}")
    op = _operator_from_config(sys_, dom, xs, args.coeffs)
    u_expr = estimates.bump_expr(xs, (0.6,) * sys_.n)
    lams = [0.25, 0.5, 1.0, 2.0, 4.0] if args.sweep == "dilation" else [1.0]
    config = {"system": sys_.name, "coeffs": args.coeffs or "identity",
              "p": args.p, "k": args.k, "grid": args.grid, "box": args.box,
              "sweep": args.sweep}
    rep = EstimateReport("apriori", config, ["lam", "ratio"])
    ratios = []
    for lam in lams:
        ue = estimates.dilate_expr(sys_, u_expr, xs, lam)
        u = estimates.grid_from_expr(dom, ue, xs)
        if args.k == 0:
            ratio, _ = estimates.apriori_ratio(op, u, args.p)
        else:
            ratio = estimates.higher_order_ratio(op, u, args.k, args.p)
        ratios.append(ratio)
        rep.add(lam=lam, ratio=ratio)
    finite = [r for r in ratios if r > 0]
    ok = bool(finite) and max(finite) / min(finite) <= 2.0
    _write(rep, args.out, "apriori")
    if args.out:
        svg_plot(os.path.join(args.out, "apriori.svg"),
                 [("ratio", [np.log2(l) for l in lams], ratios)],
                 title=f"a-priori ratio, {sys_.name}, p={args.p}",
                 xlabel="log2 lambda", ylabel="ratio")
    print(f"apriori {sys_.name} p={args.p} k={args.k}: ratios "
          f"{['%.3f' % r for r in ratios]} -> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_report(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.dir, "*.csv")))
    if not paths:
        raise ConfigError(f"no report CSV files under {args.dir!r}")
    for path in paths:
        cols, rows = read_report_csv(path)
        print(f"{os.path.basename(path)}: {len(rows)} rows, "
              f"columns {', '.join(cols[:-2])}")
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _write(rep: EstimateReport, out_dir, stem: str) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        rep.write_csv(os.path.join(out_dir, f"{stem}.csv"))


def _matrix_from_file(path) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    A = np.array(doc["matrix"], dtype=float)
    if A.shape != (2, 2):
        raise ConfigError(f"matrix must be 2x2, got shape {A.shape}")
    return A


def _operator_from_config(sys_, dom, xs, path):
    if not path:
        return estimates.DiscreteOperator.identity(sys_, dom)
    with open(path) as fh:
        doc = json.load(fh)
    nu = float(doc.get("nu", 0.5))
    coeffs = {}
    for key, expr_s in doc["entries"].items():
        i, j = (int(t) for t in key.split(","))
        if not (0 <= i < sys_.m and 0 <= j < sys_.m):
            raise ConfigError(f"entry {key!r}: indices must lie in "
                              f"0..{sys_.m - 1}")
        expr = sp.sympify(expr_s, locals={s.name: s for s in xs})
        coeffs[(min(i, j), max(i, j))] = estimates.grid_from_expr(
            dom, expr, xs)
    return estimates.DiscreteOperator(sys_, coeffs, nu, dom)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subelliptic",
        description="desk-scale experiments for homogeneous vector-field "
                    "geometry, kernels, and a-priori estimates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("system", help="catalog structure checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--name", default=None)
    p.add_argument("--file", default=None)
    p.set_defaults(fn=cmd_system)

    p = sub.add_parser("geom", help="metric homogeneity and doubling")
    p.add_argument("--name", "--system", dest="name", required=True)
    p.add_argument("--check", choices=["homogeneity", "doubling", "all"],
                   default="all")
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--box", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_geom)

    p = sub.add_parser("lift", help="group-lift verification")
    p.add_argument("--name", default="grushin1")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("kernel", help="singular-kernel diagnostics")
    p.add_argument("--op", choices=["cancellation", "constant", "loggrowth"],
                   required=True)
    p.add_argument("--i", type=int, choices=[0, 1], default=0)
    p.add_argument("--j", type=int, choices=[0, 1], default=0)
    p.add_argument("--matrix", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("maximal", help="maximal functions and VMO moduli")
    p.add_argument("--op", choices=["hl", "sharp", "vmo", "fs"],
                   required=True)
    p.add_argument("--f", required=True, help="grid file (binary or CSV)")
    p.add_argument("--name", "--system", dest="name", required=True)
    p.add_argument("--r0", type=float, default=0.6)
    p.add_argument("--num-radii", type=int, default=2)
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_maximal)

    p = sub.add_parser("apriori", help="a-priori estimate ratio sweeps")
    p.add_argument("--name", "--system", dest="name", required=True)
    p.add_argument("--coeffs", default=None, help="JSON coefficient config")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--grid", type=int, default=81)
    p.add_argument("--box", type=float, default=2.0)
    p.add_argument("--sweep", choices=["dilation", "none"],
                   default="dilation")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_apriori)

    p = sub.add_parser("report", help="summarize emitted CSV reports")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_report)
    return ap


def run_command(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, BudgetExceededError,
            maximal.CoverageGapError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_command())


if __name__ == "__main__":
    main()
