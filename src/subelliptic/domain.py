"""Rectangular box domains, grid functions, and grid file I/O."""

from __future__ import annotations

import csv
import functools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

DEFAULT_BUDGET = 2_000_000
_MAGIC = b"HVFG"


class BudgetExceededError(RuntimeError):
    pass


class MarginError(ValueError):
    """Raised when an operation needs more boundary margin than available."""


def grid_budget() -> int:
    env = os.environ.get("SUBELLIPTIC_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with a uniform grid; counts are points per axis."""

    lower: tuple
    upper: tuple
    counts: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        ct = tuple(int(v) for v in self.counts)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "counts", ct)
        if not (len(lo) == len(hi) == len(ct)):
            raise ValueError("inconsistent axis counts")
        if any(c < 3 for c in ct):
            raise ValueError("need at least 3 points per axis")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("upper bound must exceed lower bound")
        total = int(np.prod(ct))
        if total > grid_budget():
            raise BudgetExceededError(
                f"{total} grid points exceed budget {grid_budget()}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(u - l) / (c - 1) for l, u, c in
                         zip(self.lower, self.upper, self.counts)])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def num_points(self) -> int:
        return int(np.prod(self.counts))

    @functools.cached_property
    def border(self) -> np.ndarray:
        """Flat mask of the nodes on the box faces."""
        inner = np.zeros(np.subtract(self.counts, 2), dtype=bool)
        return np.pad(inner, 1, constant_values=True).ravel()

    def clips(self, mask: np.ndarray) -> bool:
        """Whether a node set (a ball) reaches the box faces."""
        return bool(np.any(mask.ravel() & self.border))

    def axes(self) -> list:
        return [np.linspace(l, u, c) for l, u, c in
                zip(self.lower, self.upper, self.counts)]

    def points(self) -> np.ndarray:
        """All grid points, shape (num_points, dim), row-major axis order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def index_of(self, x) -> tuple:
        """Multi-index of the grid node nearest to x."""
        x = np.asarray(x, dtype=float)
        h = self.spacing
        idx = np.rint((x - np.array(self.lower)) / h).astype(int)
        idx = np.clip(idx, 0, np.array(self.counts) - 1)
        return tuple(int(i) for i in idx)

    def flat_index_of(self, x) -> int:
        return int(np.ravel_multi_index(self.index_of(x), self.counts))

    def point_at(self, flat_index: int) -> np.ndarray:
        multi = np.unravel_index(flat_index, self.counts)
        return np.array([self.lower[k] + self.spacing[k] * multi[k]
                         for k in range(self.dim)])

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= np.array(self.lower) - 1e-12)
                    and np.all(x <= np.array(self.upper) + 1e-12))

    def refine(self, factor: int = 2) -> "BoxDomain":
        return BoxDomain(self.lower, self.upper,
                         tuple((c - 1) * factor + 1 for c in self.counts))


@dataclass
class GridFunction:
    """Scalar samples on a BoxDomain grid, with a validity margin in cells.

    values has shape == domain.counts; samples within `margin` cells of the
    boundary are treated as untrusted (derivative stencils shrink it).
    """

    domain: BoxDomain
    values: np.ndarray
    margin: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.domain.counts):
            raise ValueError(
                f"values shape {self.values.shape} != grid {self.domain.counts}")

    def interior_slice(self, extra: int = 0):
        m = self.margin + extra
        if m == 0:
            return tuple(slice(None) for _ in self.domain.counts)
        if any(c - 2 * m < 1 for c in self.domain.counts):
            raise MarginError(f"margin {m} exhausts the grid")
        return tuple(slice(m, c - m) for c in self.domain.counts)

    def interior_values(self) -> np.ndarray:
        return self.values[self.interior_slice()]

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.domain.counts, dtype=bool)
        mask[self.interior_slice()] = True
        return mask

    def lp_norm(self, p: float) -> float:
        """Riemann-sum L^p norm over the trusted region."""
        v = self.interior_values()
        vol = self.domain.cell_volume
        if np.isinf(p):
            return float(np.max(np.abs(v))) if v.size else 0.0
        return float((np.sum(np.abs(v) ** p) * vol) ** (1.0 / p))

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.domain, self.values * c, self.margin)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if other.domain != self.domain:
            raise ValueError("domain mismatch")
        return GridFunction(self.domain, self.values + other.values,
                            max(self.margin, other.margin))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self + other.scaled(-1.0)


# ---------------------------------------------------------------------------
# grid file I/O: flat binary (magic "HVFG") or CSV fallback
# ---------------------------------------------------------------------------

def write_grid_binary(path, gf: GridFunction) -> None:
    rank = gf.domain.dim
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", rank))
        fh.write(struct.pack(f"<{rank}I", *gf.domain.counts))
        fh.write(struct.pack(f"<{rank}d", *gf.domain.lower))
        fh.write(struct.pack(f"<{rank}d", *gf.domain.upper))
        fh.write(struct.pack("<I", gf.margin))
        fh.write(np.ascontiguousarray(gf.values, dtype="<f8").tobytes())


def read_grid_binary(path) -> GridFunction:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not an HVFG grid file")
        try:
            (rank,) = struct.unpack("<I", fh.read(4))
            counts = struct.unpack(f"<{rank}I", fh.read(4 * rank))
            lower = struct.unpack(f"<{rank}d", fh.read(8 * rank))
            upper = struct.unpack(f"<{rank}d", fh.read(8 * rank))
            (margin,) = struct.unpack("<I", fh.read(4))
            data = np.frombuffer(fh.read(), dtype="<f8").reshape(counts)
        except (struct.error, ValueError) as exc:
            raise ValueError(f"{path}: malformed HVFG file: {exc}") from None
    dom = BoxDomain(lower, upper, counts)
    return GridFunction(dom, data.copy(), margin)


def write_grid_csv(path, gf: GridFunction) -> None:
    """A "margin,m" line, a header and an "x1,...,value" row per node."""
    pts = gf.domain.points()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["margin", gf.margin])
        w.writerow([f"x{i+1}" for i in range(gf.domain.dim)] + ["value"])
        for pt, v in zip(pts, gf.values.ravel()):
            w.writerow([repr(float(c)) for c in pt] + [repr(float(v))])


def read_grid(path) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MAGIC:
        return read_grid_binary(path)
    return _read_grid_csv(path)


def _read_grid_csv(path) -> GridFunction:
    """The grid of ``write_grid_csv``; margin 0 without its margin line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    margin = int(rows.pop(0)[1]) if rows and rows[0][:1] == ["margin"] else 0
    if len(rows) < 2:
        raise ValueError(f"{path}: a grid CSV needs a header and rows")
    header, rows = rows[0], rows[1:]
    dim = len(header) - 1
    pts = np.array([[float(c) for c in r[:dim]] for r in rows])
    vals = np.array([float(r[dim]) for r in rows])
    axes = [np.unique(pts[:, k]) for k in range(dim)]
    counts = tuple(len(a) for a in axes)
    dom = BoxDomain(tuple(a[0] for a in axes), tuple(a[-1] for a in axes), counts)
    order = np.lexsort(tuple(pts[:, k] for k in reversed(range(dim))))
    return GridFunction(dom, vals[order].reshape(counts), margin)
