"""Box grids, grid functions, margins, and grid file I/O."""

import numpy as np
import pytest

from subelliptic.domain import (BoxDomain, BudgetExceededError, GridFunction,
                                MarginError, read_grid, read_grid_binary,
                                write_grid_binary, write_grid_csv)


def test_spacing_and_volume():
    dom = BoxDomain((-1, -2), (1, 2), (11, 21))
    assert np.allclose(dom.spacing, [0.2, 0.2])
    assert dom.cell_volume == pytest.approx(0.04)
    assert dom.num_points == 231


def test_border_and_clip_test():
    dom = BoxDomain((0, 0, 0), (1, 1, 1), (4, 3, 5))
    grid = np.ones(dom.counts, dtype=bool)
    grid[1:-1, 1:-1, 1:-1] = False
    assert np.array_equal(dom.border, grid.ravel())
    mask = np.zeros(dom.num_points, dtype=bool)
    mask[dom.flat_index_of((0.5, 0.5, 0.5))] = True
    assert not dom.clips(mask)
    mask[dom.flat_index_of((0.5, 0.5, 1.0))] = True
    assert dom.clips(mask)


def test_points_row_major_order():
    dom = BoxDomain((0, 0), (1, 1), (3, 3))
    pts = dom.points()
    assert np.allclose(pts[0], [0, 0])
    assert np.allclose(pts[1], [0, 0.5])   # last axis fastest
    assert np.allclose(pts[3], [0.5, 0])


def test_index_roundtrip():
    dom = BoxDomain((-2, -2), (2, 2), (41, 41))
    for i in (0, 5, 700, 1680):
        assert dom.flat_index_of(dom.point_at(i)) == i


def test_budget_env(monkeypatch):
    monkeypatch.setenv("SUBELLIPTIC_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        BoxDomain((0, 0), (1, 1), (11, 11))
    monkeypatch.delenv("SUBELLIPTIC_BUDGET")
    BoxDomain((0, 0), (1, 1), (11, 11))


def test_margin_semantics():
    dom = BoxDomain((0, 0), (1, 1), (9, 9))
    f = GridFunction(dom, np.ones(dom.counts), margin=2)
    assert f.interior_values().shape == (5, 5)
    with pytest.raises(MarginError):
        f.interior_slice(extra=3)


def test_lp_norm_constant():
    dom = BoxDomain((0, 0), (1, 1), (21, 21))
    f = GridFunction(dom, np.full(dom.counts, 3.0))
    assert f.lp_norm(2) == pytest.approx(3.0 * (21 / 20), rel=1e-12)
    assert f.lp_norm(np.inf) == 3.0


def test_arithmetic_tracks_margin():
    dom = BoxDomain((0, 0), (1, 1), (9, 9))
    a = GridFunction(dom, np.ones(dom.counts), margin=1)
    b = GridFunction(dom, np.ones(dom.counts), margin=3)
    assert (a + b).margin == 3
    assert np.all((a - b).values == 0.0)


def test_binary_roundtrip(tmp_path):
    dom = BoxDomain((-1, 0), (1, 2), (7, 9))
    rng = np.random.default_rng(1)
    f = GridFunction(dom, rng.normal(size=dom.counts), margin=2)
    path = tmp_path / "g.hvfg"
    write_grid_binary(path, f)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"HVFG"
    back = read_grid_binary(path)
    assert back.domain == dom
    assert back.margin == 2
    assert np.array_equal(back.values, f.values)


def test_csv_roundtrip(tmp_path):
    dom = BoxDomain((0, 0), (1, 1), (5, 4))
    rng = np.random.default_rng(2)
    f = GridFunction(dom, rng.normal(size=dom.counts), margin=2)
    path = tmp_path / "g.csv"
    write_grid_csv(path, f)
    back = read_grid(path)
    assert back.domain == dom
    assert back.margin == 2
    assert np.allclose(back.values, f.values)
    # a file written without the margin line trusts every sample
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0].startswith("margin,")
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(lines[1:]))
    back = read_grid(bare)
    assert back.domain == dom and back.margin == 0
    assert np.allclose(back.values, f.values)
