"""The scheme's order of accuracy, from a manufactured solution.

u_e(x, t) = 1 + a e^{-t} cos(pi x) has unit mass and zero flux at both ends.
With f = u_t - nu (u^-2 u_x)_x, which integrates to zero, u_e solves the
equation exactly, so the march's sup error at T measures the scheme alone:
O(dx^2) in space and O(dt) in time (implicit Euler).
"""

import math

import numpy as np
import pytest

from singheat.grid import Field, Grid
from singheat.solver import SimulationConfig, simulate
from singheat.source import CallableSource

A, NU = 0.5, 1.0


def exact(x, t):
    return 1.0 + A * math.exp(-t) * np.cos(np.pi * x)


def forcing(x, t):
    e = A * math.exp(-t)
    c, s = np.cos(np.pi * x), np.sin(np.pi * x)
    u, ux, uxx = 1.0 + e * c, -np.pi * e * s, -np.pi**2 * e * c
    return -e * c - NU * (uxx / u**2 - 2.0 * ux**2 / u**3)


def sup_error(n: int, dt: float, t_end: float) -> float:
    g = Grid(n)
    source = CallableSource(g, forcing, f_limit_fn=np.zeros_like)
    cfg = SimulationConfig(nu=NU, grid=g, u0=Field(g, exact(g.nodes, 0.0)), source=source,
                           dt=dt, t_end=t_end, snapshot_stride=10**9)
    rec = simulate(cfg)
    assert rec.failure is None
    return float(np.abs(rec.snapshots[-1].values - exact(g.nodes, t_end)).max())


def orders(errors):
    """log2 of each ratio of successive errors, for steps halved each time."""
    return [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]


def test_second_order_in_space():
    # dt = dx^2 / 4 keeps the time error below the space error's
    errors = [sup_error(n, (1.0 / (n - 1)) ** 2 / 4, 0.1) for n in (41, 81)]
    assert orders(errors) == [pytest.approx(2.0, abs=0.1)]


def test_first_order_in_time():
    errors = [sup_error(201, dt, 0.4) for dt in (4e-2, 2e-2, 1e-2, 5e-3)]
    assert orders(errors) == [pytest.approx(1.0, abs=0.1)] * 3
    # the constant too: forcing sampled at t instead of t + dt keeps the
    # order and multiplies the error (1.16e-4 here) by about 15
    assert errors[-1] < 2e-4


def test_large_mesh_ratio_marches():
    # dt/dx² = 12,800: the residual's round-off lies above newton_tol, and the
    # step stops at that floor instead of stalling
    assert sup_error(801, 2e-2, 0.4) < 5e-4
