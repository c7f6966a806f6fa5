"""Dictionary between the scalar equation for u and the thin-sheet system.

The map y(x, t) satisfies y_x = M/h(y, t) and y_t = v(y, t); along it the
sheet height and velocity are h = M/u and v = primitive of u_t.  The module
also carries a deliberately low-order staggered-grid solver for the sheet
system itself (h transported conservatively upwind, v advected explicitly
with an implicit viscous solve), used only to cross-validate the transform
at the percent level.

The sheet data are interpolated by the module's own not-a-knot cubic spline,
which gives scipy.interpolate.CubicSpline's bits without loading that package.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .grid import Field, Grid, gradient, primitive, trapezoid, write_csv
from .solver import rhs, tridiag_solve
from .source import mean_zero
from .steady import SteadyState


@dataclass(frozen=True)
class Spline:
    """Piecewise cubic: c[:, i] are the coefficients of y - x[i], highest power first.

    spline(y) and spline(y, 1) give scipy's PPoly bits: the piece is the last
    knot at or left of y, clipped to the first and last pieces, and the terms
    are added to 0.0 lowest power first, in scipy's evaluate_poly1 order.
    """

    x: np.ndarray
    c: np.ndarray

    def __call__(self, y, nu: int = 0) -> np.ndarray:
        x = self.x
        i = np.clip(np.searchsorted(x, y, side="right") - 1, 0, len(x) - 2)
        c3, c2, c1, c0 = self.c[:, i]
        s = y - x[i]
        z = s * s
        if nu == 0:
            return ((0.0 + c0 + c1 * s) + c2 * z) + c3 * (z * s)
        if nu == 1:
            return (0.0 + c1 + c2 * s * 2.0) + c3 * z * 3.0
        raise ValueError(f"spline derivative order must be 0 or 1, got {nu}")


def cubic_spline(x: np.ndarray, y: np.ndarray) -> Spline:
    """Not-a-knot cubic interpolant of (x, y) for n >= 3 increasing knots.

    scipy's CubicSpline(x, y) bit for bit: its slopes, its not-a-knot system
    for the knot derivatives (at n = 3 the dense system it solves, here by
    numpy's solve, which gives scipy's bits; at n >= 4 the LAPACK gtsv call of
    its solve_banded), and CubicHermiteSpline's coefficients, each in scipy's
    order of operations.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if len(x) == 3:
        A = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
        s = np.linalg.solve(A, b)
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        lower = np.append(dx[1:], d1)
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.append(d0, dx[:-1])
        b = np.empty(len(x))
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0
        b[-1] = (dx[-1]**2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        s = tridiag_solve(lower, diag, upper, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return Spline(x=x, c=np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))


@dataclass(frozen=True)
class SheetState:
    """Sheet height and velocity on the Eulerian y-grid at one time."""

    t: float
    grid: Grid
    h: Field
    v: Field
    M: float
    nu: float

    def __post_init__(self):
        if np.any(self.h.values <= 0):
            raise ValueError("sheet height must be positive")

    def mass(self) -> float:
        return trapezoid(self.h.values, self.grid.dx)

    def to_csv(self, path) -> None:
        write_csv(path, ("y", "h", "v"),
                  (self.grid.nodes, self.h.values, self.v.values))


@dataclass(frozen=True)
class LagrangianMap:
    """Monotone map y(x) with its derivative u = y_x = M/h(y).

    h_spline is the cubic interpolant of h0 the map was integrated through.
    """

    y_of_x: Field
    u: Field
    h_spline: Spline

    def __post_init__(self):
        y = self.y_of_x.values
        if np.any(np.diff(y) <= 0):
            raise ValueError("Lagrangian map must be strictly increasing")


@dataclass(frozen=True)
class SheetView:
    """Sheet quantities sampled along the Lagrangian map (indexed by x)."""

    x_grid: Grid
    y_of_x: Field
    h_on_map: Field
    v_on_map: Field
    M: float


def _scalar_spline(spline: Spline):
    """y -> float(spline(clip(y, 0, 1))) for a float y, in Python floats.

    Bit for bit what Spline.__call__ gives, without numpy's per-call overhead.
    """
    knots = spline.x.tolist()
    c3, c2, c1, c0 = spline.c.tolist()  # c3 multiplies the cube
    last = len(knots) - 2

    def value(y):
        if y < 0.0:
            y = 0.0
        elif y > 1.0:
            y = 1.0
        i = bisect_right(knots, y) - 1
        if i > last:
            i = last
        s = y - knots[i]
        z = s * s
        return ((0.0 + c0[i] + c1[i] * s) + c2[i] * z) + c3[i] * (z * s)

    return value


def initial_map(h0: Field, M: float) -> LagrangianMap:
    """Solve y' = M/h0(y), y(0) = 0 on the x-grid (classical RK4).

    h0 is interpolated cubically between its nodes.  The mass constraint
    makes y(1) = 1; a deviation beyond 1e-6 means h0 and M are inconsistent.
    """
    if np.any(h0.values <= 0):
        raise ValueError("h0 must be positive")
    grid = h0.grid
    spline = cubic_spline(grid.nodes, h0.values)
    h = _scalar_spline(spline)
    M = float(M)  # keeps the loop in Python floats
    dx = grid.dx
    y = [0.0] * grid.n
    yi = 0.0
    for i in range(1, grid.n):
        k1 = M / h(yi)
        k2 = M / h(yi + 0.5 * dx * k1)
        k3 = M / h(yi + 0.5 * dx * k2)
        k4 = M / h(yi + dx * k3)
        yi = yi + dx * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        y[i] = yi
    if not abs(yi - 1.0) <= 1e-6:   # a NaN endpoint fails too
        raise ConfigError(
            f"map endpoint y(1)={yi!r}: h0 mass and M are inconsistent"
        )
    y[-1] = 1.0
    y = np.array(y)
    u = M / spline(np.clip(y, 0.0, 1.0))
    return LagrangianMap(y_of_x=Field(grid, y), u=Field(grid, u), h_spline=spline)


def source_from_sheet(lmap: LagrangianMap, v0: Field, nu: float) -> Field:
    """Forcing profile induced by thin-sheet initial data.

    lmap is the initial map of the sheet height h0.  Uses the identity
    (M/h0) d/dy = d/dx along it, so the bracket v0 + nu h0'/h0 is composed
    with the map and differentiated in x.
    """
    if abs(v0.values[0]) > 1e-12 or abs(v0.values[-1]) > 1e-12:
        raise ValueError("v0 must vanish at both ends")
    grid = lmap.y_of_x.grid
    y = lmap.y_of_x.values
    h_spline = lmap.h_spline
    v_spline = cubic_spline(grid.nodes, v0.values)
    bracket = v_spline(y) + nu * h_spline(y, 1) / h_spline(y)
    # a non-finite bracket gives a non-finite f0, which the Field refuses
    return Field(grid, mean_zero(gradient(bracket, grid.dx), grid.dx))


def sheet_from_u(u: Field, u_t: Field, M: float) -> SheetView:
    """Reconstruct (y, h, v) along the map from u and its time derivative.

    v is integrated from v_x = u_t (v(0) = 0), which follows from y_x = u
    and y_t = v.
    """
    if np.any(u.values <= 0):
        raise ValueError("u must be positive")
    grid = u.grid
    return SheetView(
        x_grid=grid,
        y_of_x=Field(grid, primitive(u.values, grid.dx)),
        h_on_map=Field(grid, M / u.values),
        v_on_map=Field(grid, primitive(u_t.values, grid.dx)),
        M=M,
    )


def limit_sheet(steady: SteadyState, M: float) -> SheetView:
    """Limit map and height profile of the sheet (velocity zero)."""
    u_inf = steady.u_infinity
    view = sheet_from_u(u_inf, u_inf.with_values(np.zeros(u_inf.grid.n)), M)
    y_end = view.y_of_x.values[-1]
    if not abs(y_end - 1.0) <= 1e-10:
        raise ValueError(f"limit map endpoint y(1)={y_end!r}: u_inf must have unit mass")
    return view


def pde_time_derivative(u: Field, f: Field, nu: float) -> Field:
    """u_t from the spatial operator, on the solver's flux stencil."""
    return u.with_values(rhs(u.values, f.values, nu, u.grid.dx))


def solve_ssm(initial: SheetState, dt: float, t_end: float) -> SheetState:
    """Validation-grade staggered-grid march of the sheet system to t_end.

    h lives on cell centers and is transported by first-order upwind fluxes
    evaluated at the velocity nodes (mass conserved to round-off); v lives on
    nodes, advected explicitly upwind and relaxed by an implicit viscous
    solve of (nu/h)(h v_y)_y with v = 0 at both ends.  The time step is
    lowered adaptively to keep the advective CFL at 0.4.
    """
    if dt <= 0:
        raise ValueError(f"sheet time step must be positive, got dt={dt}")
    grid = initial.grid
    n = grid.n
    dx = grid.dx
    nu, M = initial.nu, initial.M

    # cell-center heights chosen so the cell sum reproduces the trapezoid mass
    h_nodes = initial.h.values
    hc = 0.5 * (h_nodes[:-1] + h_nodes[1:])
    v = initial.v.values.copy()
    v[0] = v[-1] = 0.0

    flux = np.zeros(n)      # v = 0 at the ends gives zero flux there
    v_star = np.zeros(n)
    lower, diag, upper = np.zeros(n - 1), np.ones(n), np.zeros(n - 1)  # end rows: v = 0
    t = 0.0
    min_dt = dt * 1e-6
    while t < t_end - 1e-12:
        vmax = float(np.max(np.abs(v)))
        step_dt = dt if vmax == 0 else min(dt, 0.4 * dx / vmax)
        step_dt = min(step_dt, t_end - t)
        if step_dt < min_dt:
            raise SolverError(f"CFL floor reached at t={t:.6g}")

        # conservative upwind transport of h
        inner = v[1:-1]
        forward = inner > 0
        flux[1:-1] = inner * np.where(forward, hc[:-1], hc[1:])
        hc = hc - step_dt * (flux[1:] - flux[:-1]) / dx
        if np.any(hc <= 0):
            raise SolverError(f"sheet height lost positivity at t={t:.6g}")

        # explicit upwind advection of v
        dv = (v[1:] - v[:-1]) / dx
        v_star[1:-1] = inner - step_dt * np.where(forward, inner * dv[:-1], inner * dv[1:])

        # implicit viscous solve on the new heights; a node's is its pair's mean
        pair = hc[:-1] + hc[1:]
        c = step_dt * nu / (0.5 * pair * dx**2)
        lower[:-1] = -c * hc[:-1]
        upper[1:] = -c * hc[1:]
        diag[1:-1] = 1.0 + c * pair
        try:
            v = tridiag_solve(lower, diag, upper, v_star)
        except ValueError as err:  # LinAlgError included
            raise SolverError(f"viscous solve failed at t={t:.6g}: {err}") from err
        v[0] = v[-1] = 0.0
        t += step_dt

    # back to nodes: interior averages; endpoint values from the parabola
    # with zero slope at the wall (consistent with h_y = 0 there)
    hn = np.empty(n)
    hn[1:-1] = 0.5 * (hc[:-1] + hc[1:])
    hn[0] = (9.0 * hc[0] - hc[1]) / 8.0
    hn[-1] = (9.0 * hc[-1] - hc[-2]) / 8.0
    return SheetState(t=t, grid=grid, h=Field(grid, hn), v=Field(grid, v), M=M, nu=nu)


def crosscheck_heights(ssm_state: SheetState, u: Field, M: float) -> float:
    """Max relative mismatch between h = M/u and the direct sheet solve's
    height, interpolated at the map points y(x, t) = primitive of u."""
    h_u = M / u.values
    h_ssm = np.interp(primitive(u.values, u.grid.dx), ssm_state.grid.nodes,
                      ssm_state.h.values)
    return float(np.max(np.abs(h_ssm - h_u) / np.abs(h_u)))
