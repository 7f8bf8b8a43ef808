"""Shared fixtures.  Heavy geometric objects (metrics, ball families,
calibration constants) are session scoped so every module reuses one copy.
"""

import numpy as np
import pytest
import sympy as sp

from subelliptic import estimates, fields, geometry, maximal
from subelliptic.domain import BoxDomain


def _unretired_fields(metric, sources):
    """CCMetric.distance_fields as it was before settled columns were
    dropped: every column is swept until the whole batch stops."""
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    nsrc, npts = src.shape[0], metric.domain.num_points
    d = np.full((npts, nsrc), geometry._BIG)
    for s in range(nsrc):
        d[metric.domain.flat_index_of(src[s]), s] = 0.0
    moves = metric._moves if nsrc == 1 else metric._corner_order_moves()
    d_new = d.copy()
    while True:
        for cost, invalid, op in moves:
            # the former per-row costs: the move's time, _BIG where the
            # move leaves the grid
            row_cost = np.full(npts, cost)
            row_cost[invalid] = geometry._BIG
            cand = op @ d
            if nsrc == 1:
                cand = cand[0::2] + cand[1::2]
            cand += row_cost[:, None]
            np.minimum(d_new, cand, out=d_new)
        delta = np.max(d - d_new)
        d, d_new = d_new, d
        if delta < geometry._TOLERANCE:
            return np.ascontiguousarray(d.T)
        d_new[...] = d


@pytest.fixture(scope="session")
def unretired_fields():
    return _unretired_fields


@pytest.fixture(scope="session")
def g1():
    """One shared grushin(1) instance so metric caches are reused."""
    return fields.grushin(1)


@pytest.fixture(scope="session")
def xs2():
    return sp.symbols("x1 x2")


@pytest.fixture(scope="session")
def dom41():
    return BoxDomain((-2, -2), (2, 2), (41, 41))


@pytest.fixture(scope="session")
def dom61():
    return BoxDomain((-2, -2), (2, 2), (61, 61))


@pytest.fixture(scope="session")
def dom81():
    return BoxDomain((-2, -2), (2, 2), (81, 81))


@pytest.fixture(scope="session")
def family41(g1, dom41):
    """Ball family on the 41^2 grid: stride-2 centers, radii 0.6 and 1.2.

    The base radius must exceed the covering radius of the strided center
    net, which is large near x1 = 0 where the second field degenerates.
    """
    return maximal.build_ball_family(g1, dom41, r0=0.6, num_radii=2, stride=2)


@pytest.fixture(scope="session")
def family41_fine(g1, dom41):
    """Stride-1 enlargement of family41 (superset of balls)."""
    return maximal.build_ball_family(g1, dom41, r0=0.6, num_radii=2, stride=1)


@pytest.fixture(scope="session")
def lift1():
    from subelliptic import liftgroup
    return liftgroup.lift_grushin1()


@pytest.fixture(scope="session")
def eq1(lift1):
    from subelliptic import liftgroup
    return liftgroup.calibrate_equivalence(lift1)


@pytest.fixture(scope="session")
def fib1(lift1):
    from subelliptic import liftgroup
    return liftgroup.calibrate_fiber_constants(lift1)


def _transported_gamma_expr(A):
    """Gamma_A built per matrix in sympy: Gamma_I composed with psi_A."""
    from subelliptic import liftgroup
    S = liftgroup.sqrt_spd(A)
    Si = np.linalg.inv(S)
    detS = float(np.linalg.det(S))
    x1, x2, x3 = liftgroup._H_SYMS
    a0 = Si[0, 0] * x1 + Si[0, 1] * x3
    b0 = Si[1, 0] * x1 + Si[1, 1] * x3
    t0 = (x2 - x1 * x3 / 2) / detS
    return liftgroup._gamma_unit_expr(a0, t0 + a0 * b0 / 2, b0) / detS ** 2


@pytest.fixture(scope="session")
def transported_gamma_expr():
    return _transported_gamma_expr


@pytest.fixture(scope="session")
def suite41(dom41, xs2):
    """Ten bump/oscillatory grid functions on the 41^2 grid."""
    return [estimates.grid_from_expr(dom41, e, xs2)
            for e in estimates.test_function_suite(xs2)]
