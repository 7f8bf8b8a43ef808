"""Exit codes, CSV stamping, and artifact emission of the command line."""

import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from subelliptic.cli import build_parser, run_command
from subelliptic.domain import BoxDomain, GridFunction, write_grid_binary
from subelliptic.fields import (DilationFamily, HormanderSystem, Poly,
                                PolyVectorField, system_to_json)
from subelliptic.reports import read_report_csv


def test_system_check_pass():
    assert run_command(["system", "check", "--name", "grushin1"]) == 0


def test_system_unknown_name_is_config_error():
    assert run_command(["system", "check", "--name", "nosuch"]) == 2


def test_system_bad_subcommand_usage():
    assert run_command(["system", "frobnicate"]) == 2
    assert run_command([]) == 2


def test_system_negative_control_file(tmp_path):
    n = 2
    X1 = PolyVectorField([Poly.constant(n, 1), Poly.zero(n)])
    X2 = PolyVectorField([Poly.zero(n), Poly.monomial(n, (1, 0))])
    bad = HormanderSystem(name="bad", fields=[X1, X2],
                          dilations=DilationFamily((1, 1)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system_to_json(bad)))
    assert run_command(["system", "check", "--file", str(path)]) == 1


def test_geom_doubling_csv(tmp_path):
    out = tmp_path / "rep"
    code = run_command(["geom", "--name", "grushin1", "--check", "doubling",
                        "--grid", "41", "--out", str(out)])
    assert code == 0
    cols, rows = read_report_csv(str(out / "geom.csv"))
    assert "config_hash" in cols and "version" in cols
    ci = cols.index("check")
    assert rows and all(r[ci] == "doubling" for r in rows)
    hashes = {r[cols.index("config_hash")] for r in rows}
    assert len(hashes) == 1


def test_geom_without_rows_fails(capsys):
    # every doubling ball reaches the faces of a 0.5 box, so no row
    # carries evidence
    assert run_command(["geom", "--name", "grushin1", "--check", "doubling",
                        "--box", "0.5", "--grid", "21"]) == 1
    assert "geom doubling: no rows" in capsys.readouterr().out


def test_geom_no_samples_is_config_error(capsys):
    assert run_command(["geom", "--name", "grushin1", "--check",
                        "homogeneity", "--samples", "0"]) == 2
    assert "--samples must be at least 1" in capsys.readouterr().err


def test_lift_check():
    assert run_command(["lift", "--name", "grushin1"]) == 0
    assert run_command(["lift", "--name", "nosuch"]) == 2


def test_kernel_cancellation():
    assert run_command(["kernel", "--op", "cancellation",
                        "--i", "0", "--j", "0"]) == 0


def test_kernel_vanishing_constant_passes():
    # c_01 vanishes by symmetry; both quadratures give it to rounding
    assert run_command(["kernel", "--op", "constant",
                        "--i", "0", "--j", "1"]) == 0


def test_kernel_bad_matrix_file(tmp_path, capsys):
    # the kernels take 2x2 matrices only
    path = tmp_path / "A.json"
    for matrix in ([[1.0, 0.0]], [[1.0]], np.eye(3).tolist()):
        path.write_text(json.dumps({"matrix": matrix}))
        assert run_command(["kernel", "--op", "cancellation",
                            "--matrix", str(path)]) == 2
        assert "matrix must be 2x2" in capsys.readouterr().err


def test_kernel_index_out_of_range_is_usage_error(capsys):
    # the kernels are indexed by the two base fields only
    assert run_command(["kernel", "--op", "cancellation", "--i", "2"]) == 2
    assert "invalid choice: 2" in capsys.readouterr().err


def test_kernel_negative_index_is_usage_error(capsys):
    assert run_command(["kernel", "--op", "constant", "--j", "-1"]) == 2
    assert "invalid choice: -1" in capsys.readouterr().err


def test_maximal_hl_roundtrip(tmp_path):
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    pts = dom.points()
    vals = np.cos(pts[:, 0]).reshape(dom.counts)
    src = tmp_path / "f.hvfg"
    write_grid_binary(src, GridFunction(dom, vals))
    dst = tmp_path / "m.hvfg"
    code = run_command(["maximal", "--op", "hl", "--f", str(src),
                        "--name", "grushin1", "--r0", "0.8",
                        "--num-radii", "2", "--stride", "2",
                        "--out", str(dst)])
    assert code == 0
    from subelliptic.domain import read_grid_binary
    out = read_grid_binary(dst)
    assert np.all(out.interior_values() <= 1.0 + 1e-12)
    assert np.all(out.interior_values() > 0.0)


@pytest.mark.parametrize("flag", ["--stride", "--num-radii"])
def test_maximal_zero_family_size_is_usage_error(tmp_path, flag):
    src = tmp_path / "f.hvfg"
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    write_grid_binary(src, GridFunction(dom, np.ones(dom.counts)))
    assert run_command(["maximal", "--op", "hl", "--f", str(src),
                        "--name", "grushin1", "--r0", "0.8", flag, "0",
                        "--out", str(tmp_path / "m.hvfg")]) == 2


def test_maximal_coverage_gap_is_config_error(tmp_path, capsys):
    # the default stride-4, r0 = 0.6 family is too coarse for a 21^2 box
    src = tmp_path / "f.hvfg"
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    write_grid_binary(src, GridFunction(dom, np.ones(dom.counts)))
    assert run_command(["maximal", "--op", "hl", "--f", str(src),
                        "--name", "grushin1"]) == 2
    assert "grid points outside every" in capsys.readouterr().err


def test_maximal_missing_grid_file():
    assert run_command(["maximal", "--op", "hl", "--f", "/nonexistent.hvfg",
                        "--name", "grushin1"]) == 2


def test_exponent_outside_the_paper_range_is_config_error(tmp_path, capsys):
    # the maximal and a-priori estimates hold for 1 < p < inf
    src = tmp_path / "f.hvfg"
    dom = BoxDomain((-2, -2), (2, 2), (21, 21))
    write_grid_binary(src, GridFunction(dom, np.ones(dom.counts)))
    for p in ("0", "-2", "1", "inf"):
        for argv in (["maximal", "--op", "fs", "--f", str(src),
                      "--name", "grushin1", "--r0", "0.8", "--stride", "2",
                      "--p", p],
                     ["apriori", "--name", "grushin1", "--grid", "21",
                      "--p", p]):
            assert run_command(argv) == 2
            assert f"--p must satisfy 1 < p < inf, got {float(p)}" in \
                capsys.readouterr().err


def test_apriori_identity_sweep(tmp_path):
    out = tmp_path / "rep"
    code = run_command(["apriori", "--name", "grushin1", "--grid", "41",
                        "--sweep", "dilation", "--out", str(out)])
    assert code == 0
    cols, rows = read_report_csv(str(out / "apriori.csv"))
    assert len(rows) == 5
    assert (out / "apriori.svg").exists()
    svg = (out / "apriori.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_apriori_bad_coeffs(tmp_path, capsys):
    path = tmp_path / "c.json"
    for key, err in (("0", "not enough values"),
                     ("0,5", "indices must lie in 0..1"),
                     ("-1,0", "indices must lie in 0..1")):
        path.write_text(json.dumps({"nu": 0.5, "entries": {key: "1"}}))
        assert run_command(["apriori", "--name", "grushin1", "--grid", "41",
                            "--coeffs", str(path)]) == 2
        assert err in capsys.readouterr().err


def test_apriori_negative_order_is_config_error(capsys):
    assert run_command(["apriori", "--name", "grushin1", "--grid", "41",
                        "--k", "-1"]) == 2
    assert "--k must be at least 0" in capsys.readouterr().err


def test_report_summarize(tmp_path):
    assert run_command(["report", "--dir", str(tmp_path)]) == 2
    out = tmp_path / "rep"
    run_command(["geom", "--name", "grushin1", "--check", "doubling",
                 "--grid", "41", "--out", str(out)])
    assert run_command(["report", "--dir", str(out)]) == 0


def test_csv_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_command(["geom", "--name", "grushin1", "--check", "doubling",
                     "--grid", "41", "--out", str(out)])
    assert (a / "geom.csv").read_text() == (b / "geom.csv").read_text()


def test_readme_cli_examples_parse():
    # every line of the README's CLI block parses with the real parser
    # (nothing is run), so an example that drifts from the CLI fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "subelliptic", line
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
