import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.interpolate import CubicSpline

from singheat import lagrangian
from singheat.errors import ConfigError, SolverError
from singheat.grid import Field, Grid, derivative, trapezoid, trapezoid_integral
from singheat.lagrangian import (
    LagrangianMap,
    SheetState,
    crosscheck_heights,
    initial_map,
    limit_sheet,
    pde_time_derivative,
    sheet_from_u,
    solve_ssm,
    source_from_sheet,
)
from singheat.solver import SimulationConfig, simulate, tridiag_solve
from singheat.source import CosineStaticSource, make_source
from singheat.steady import steady_profile

C_EXACT = math.sqrt(4 * math.pi**2 + 1)


class TestInitialMap:
    def test_flat_identity(self):
        g = Grid(101)
        m = initial_map(Field(g, np.ones(101)), 1.0)
        assert np.max(np.abs(m.y_of_x.values - g.nodes)) < 1e-12
        assert np.max(np.abs(m.u.values - 1.0)) < 1e-12

    def test_constant_two(self):
        g = Grid(101)
        m = initial_map(Field(g, np.full(101, 2.0)), 2.0)
        assert np.max(np.abs(m.y_of_x.values - g.nodes)) < 1e-12

    def test_analytic_inversion_oracle(self):
        # h0(y) = 1 + 0.2 cos(pi y) has cumulative integral
        # x(y) = y + 0.2 sin(pi y) / pi, so check x(y(x)) = x
        g = Grid(401)
        h0 = Field(g, 1.0 + 0.2 * np.cos(np.pi * g.nodes))
        m = initial_map(h0, 1.0)
        y = m.y_of_x.values
        x_back = y + 0.2 * np.sin(np.pi * y) / np.pi
        sample = np.linspace(0, g.n - 1, 10, dtype=int)
        assert np.max(np.abs(x_back[sample] - g.nodes[sample])) < 1e-7

    def test_derivative_identity(self):
        g = Grid(801)
        h0 = Field(g, 1.0 + 0.2 * np.cos(np.pi * g.nodes))
        m = initial_map(h0, 1.0)
        yx = derivative(m.y_of_x)
        assert np.max(np.abs(yx.values - m.u.values)) < 1e-4

    def test_inconsistent_mass_rejected(self):
        g = Grid(101)
        with pytest.raises(ConfigError):
            initial_map(Field(g, np.ones(101)), 1.5)

    def test_nan_endpoint_rejected(self):
        # NaN compares false both ways, so only a check written as "not within" catches it
        with pytest.raises(ConfigError, match="map endpoint y\\(1\\)=nan"):
            initial_map(Field(Grid(21), np.ones(21)), math.nan)

    @pytest.mark.parametrize("eps", [0.0, 0.17, 0.3])
    @pytest.mark.parametrize("n", [201, 1601, 6401])
    def test_bits_match_cubic_spline_reference(self, n, eps):
        g = Grid(n)
        vals = 1.0 + eps * np.cos(np.pi * g.nodes)
        h0 = Field(g, vals / trapezoid_integral(Field(g, vals)))
        m = initial_map(h0, 1.0)
        y, u = _reference_map(h0, 1.0)
        assert np.array_equal(m.y_of_x.values, y)
        assert np.array_equal(m.u.values, u)

    def test_scalar_spline_matches_scipy_at_knots_and_clamps(self):
        # the scalar evaluator of the package's spline, its vectorized one and scipy's
        g = Grid(11)
        values = 1.0 + 0.3 * np.cos(np.pi * g.nodes) ** 3
        spline, ref = lagrangian.cubic_spline(g.nodes, values), CubicSpline(g.nodes, values)
        h = lagrangian._scalar_spline(spline)
        mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        points = [*g.nodes, *mids, -0.0, -1e-3, -5.0, 1.0 + 1e-12, 3.0,
                  np.nextafter(0.3, 0.0), np.nextafter(1.0, 0.0),
                  *np.random.default_rng(5).random(100)]
        for y in map(float, points):
            clipped = np.clip(y, 0.0, 1.0)
            assert h(y) == float(spline(clipped)) == float(ref(clipped)), y

    def test_folding_rejected(self):
        g = Grid(11)
        y = g.nodes.copy()
        y[5] = y[4]  # non-increasing
        with pytest.raises(ValueError):
            LagrangianMap(y_of_x=Field(g, y), u=Field(g, np.ones(11)),
                          h_spline=lagrangian.cubic_spline(g.nodes, np.ones(11)))


class TestSpline:
    """The package's spline against scipy's CubicSpline, the test-only reference."""

    @pytest.mark.parametrize("n", [3, 4, 5, 51, 1601, 6401])
    def test_bits_match_scipy(self, n):
        rng = np.random.default_rng(n)
        x = Grid(n).nodes
        points = np.concatenate((x, 0.5 * (x[:-1] + x[1:]),
                                 [0.0, 1.0, np.nextafter(1.0, 0.0)], rng.random(500)))
        # n = 3 is scipy's dense solve, where a tridiagonal solve differs in the
        # last bit on about one random data set in seven
        for _ in range(60 if n == 3 else 3):
            values = rng.standard_normal(n)
            spline, ref = lagrangian.cubic_spline(x, values), CubicSpline(x, values)
            assert np.array_equal(spline.c, ref.c)
            assert np.array_equal(spline(points), ref(points))
            assert np.array_equal(spline(points, 1), ref(points, 1))

    def test_second_derivative_refused(self):
        spline = lagrangian.cubic_spline(Grid(5).nodes, np.ones(5))
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            spline(np.array([0.5]), 2)


def _reference_map(h0, M):
    """initial_map's RK4 with one scipy CubicSpline call per stage."""
    spline = CubicSpline(h0.grid.nodes, h0.values)

    def slope(y):
        return M / float(spline(np.clip(y, 0.0, 1.0)))

    y = np.empty(h0.grid.n)
    y[0] = 0.0
    dx = h0.grid.dx
    for i in range(h0.grid.n - 1):
        k1 = slope(y[i])
        k2 = slope(y[i] + 0.5 * dx * k1)
        k3 = slope(y[i] + 0.5 * dx * k2)
        k4 = slope(y[i] + dx * k3)
        y[i + 1] = y[i] + dx * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    y[-1] = 1.0
    return y, M / spline(np.clip(y, 0.0, 1.0))


class TestSourceFromSheet:
    def test_sine_kick(self):
        # flat sheet with v0 = (1/2) sin(pi y) induces f0 = (pi/2) cos(pi x)
        g = Grid(801)
        h0 = Field(g, np.ones(g.n))
        v0 = Field(g, 0.5 * np.sin(np.pi * g.nodes))
        f0 = source_from_sheet(initial_map(h0, 1.0), v0, nu=1.0)
        expect = (np.pi / 2) * np.cos(np.pi * g.nodes)
        assert np.max(np.abs(f0.values - expect)) < 3e-5

    def test_sine_kick_converges(self):
        errs = []
        for n in (201, 401):
            g = Grid(n)
            f0 = source_from_sheet(
                initial_map(Field(g, np.ones(n)), 1.0),
                Field(g, 0.5 * np.sin(np.pi * g.nodes)),
                nu=1.0,
            )
            errs.append(
                np.max(np.abs(f0.values - (np.pi / 2) * np.cos(np.pi * g.nodes)))
            )
        assert errs[0] / errs[1] > 3.0

    def test_still_sheet_no_force(self):
        g = Grid(101)
        f0 = source_from_sheet(
            initial_map(Field(g, np.full(101, 3.0)), 3.0), Field(g, np.zeros(101)),
            nu=1.0,
        )
        assert np.max(np.abs(f0.values)) < 1e-10

    def test_two_evaluation_routes_agree(self):
        # route A: production path; route B: differentiate the bracket in y
        # first, then compose with the map; both are second order, so 1e-5
        # agreement needs the finer grid
        g = Grid(1601)
        h0_vals = 1.0 + 0.2 * np.cos(np.pi * g.nodes)
        h0 = Field(g, h0_vals)
        M = trapezoid_integral(h0)
        v0 = Field(g, np.zeros(g.n))
        f_a = source_from_sheet(initial_map(h0, M), v0, nu=1.0)

        m = initial_map(h0, M)
        spline = CubicSpline(g.nodes, h0_vals)
        bsp = CubicSpline(g.nodes, spline(g.nodes, 1) / h0_vals)
        y = m.y_of_x.values
        f_b = (M / spline(y)) * bsp(y, 1)
        f_b -= np.trapezoid(f_b, dx=g.dx)
        assert np.max(np.abs(f_a.values - f_b)) < 1e-5

    def test_nonzero_boundary_velocity_rejected(self):
        g = Grid(101)
        with pytest.raises(ValueError):
            source_from_sheet(
                initial_map(Field(g, np.ones(101)), 1.0),
                Field(g, np.cos(np.pi * g.nodes)),
                nu=1.0,
            )


class TestSheetFromU:
    def test_flat(self):
        g = Grid(101)
        view = sheet_from_u(Field(g, np.ones(101)), Field(g, np.zeros(101)), 1.0)
        assert np.max(np.abs(view.y_of_x.values - g.nodes)) < 1e-14
        assert np.max(np.abs(view.h_on_map.values - 1.0)) < 1e-14
        assert np.max(np.abs(view.v_on_map.values)) < 1e-14

    def test_limit_profile_height(self):
        g = Grid(2001)
        ss = steady_profile(CosineStaticSource(g, np.pi / 2), 1.0, which="initial")
        view = limit_sheet(ss, 1.0)
        expect = (C_EXACT - np.cos(np.pi * g.nodes)) / (2 * np.pi)
        assert np.max(np.abs(view.h_on_map.values - expect)) < 1e-5
        assert np.max(np.abs(view.v_on_map.values)) < 1e-14

    def test_initial_velocity_recovery(self):
        # at u = 1 the diffusion term vanishes, so v_x = u_t = f0 and the
        # reconstructed velocity is the original (1/2) sin(pi x) kick
        g = Grid(401)
        src = CosineStaticSource(g, np.pi / 2)
        u0 = Field(g, np.ones(g.n))
        ut = pde_time_derivative(u0, src.f_initial(), 1.0)
        view = sheet_from_u(u0, ut, 1.0)
        expect = 0.5 * np.sin(np.pi * g.nodes)
        assert np.max(np.abs(view.v_on_map.values - expect)) < 1e-4

    def test_mass_dictionary(self):
        # trapezoid over x of (M/h) u = M exactly when u has unit mass
        g = Grid(1001)
        ss = steady_profile(CosineStaticSource(g, np.pi / 2), 1.0, which="initial")
        u = ss.u_infinity
        view = sheet_from_u(u, u.with_values(np.zeros(g.n)), 2.5)
        prod = u.with_values(view.h_on_map.values * u.values)
        assert trapezoid_integral(prod) == pytest.approx(
            2.5 * trapezoid_integral(u), rel=1e-12
        )


class TestLimitSheet:
    def test_flat_forcing(self):
        g = Grid(201)
        ss = steady_profile(make_source(g, "zero"), 1.0, which="initial")
        view = limit_sheet(ss, 4.0)
        assert np.max(np.abs(view.h_on_map.values - 4.0)) < 1e-12
        assert np.max(np.abs(view.y_of_x.values - g.nodes)) < 1e-12

    def test_profile_without_unit_mass_rejected(self):
        g = Grid(101)
        ss = steady_profile(make_source(g, "zero"), 1.0, which="initial")
        doubled = replace(ss, u_infinity=ss.u_infinity.with_values(ss.u_infinity.values * 2.0))
        with pytest.raises(ValueError, match="unit mass"):
            limit_sheet(doubled, 1.0)

    def test_map_derivative_consistency(self):
        g = Grid(801)
        ss = steady_profile(CosineStaticSource(g, 1.0), 10.0, which="initial")
        view = limit_sheet(ss, 1.0)
        yx = derivative(view.y_of_x)
        assert np.max(np.abs(yx.values - ss.u_infinity.values)) < 1e-4


def ex24_sheet(n=201):
    g = Grid(n)
    return SheetState(
        t=0.0,
        grid=g,
        h=Field(g, np.ones(n)),
        v=Field(g, 0.5 * np.sin(np.pi * g.nodes)),
        M=1.0,
        nu=1.0,
    )


def _reference_solve_ssm(initial: SheetState, dt: float, t_end: float):
    """The sheet march as first written: full-length bands, masks and
    differences each step.  solve_ssm must return its bits."""
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

    t = 0.0
    min_dt = dt * 1e-6
    while t < t_end - 1e-12:
        vmax = float(np.max(np.abs(v)))
        step_dt = dt if vmax == 0 else min(dt, 0.4 * dx / vmax)
        step_dt = min(step_dt, t_end - t)
        if step_dt < min_dt:
            raise SolverError(f"CFL floor reached at t={t:.6g}")

        # conservative upwind transport of h; v=0 at the ends gives zero flux
        flux = np.zeros(n)
        up = np.where(v[1:-1] > 0, hc[:-1], hc[1:])
        flux[1:-1] = v[1:-1] * up
        hc_new = hc - step_dt * (flux[1:] - flux[:-1]) / dx
        if np.any(hc_new <= 0):
            raise SolverError(f"sheet height lost positivity at t={t:.6g}")

        # explicit upwind advection of v
        dv_minus = np.zeros(n)
        dv_plus = np.zeros(n)
        dv_minus[1:] = (v[1:] - v[:-1]) / dx
        dv_plus[:-1] = (v[1:] - v[:-1]) / dx
        adv = np.where(v > 0, v * dv_minus, v * dv_plus)
        v_star = v - step_dt * adv
        v_star[0] = v_star[-1] = 0.0

        # implicit viscous solve on the new height field
        h_node = np.empty(n)
        h_node[1:-1] = 0.5 * (hc_new[:-1] + hc_new[1:])
        h_node[0] = hc_new[0]
        h_node[-1] = hc_new[-1]
        c = step_dt * nu / (h_node * dx**2)
        lower = np.zeros(n)
        diag = np.ones(n)
        upper = np.zeros(n)
        lower[1:-1] = -c[1:-1] * hc_new[:-1]
        upper[1:-1] = -c[1:-1] * hc_new[1:]
        diag[1:-1] = 1.0 + c[1:-1] * (hc_new[:-1] + hc_new[1:])
        try:
            v = tridiag_solve(lower[1:], diag, upper[:-1], v_star)
        except ValueError as err:  # LinAlgError included
            raise SolverError(f"viscous solve failed at t={t:.6g}: {err}") from err
        v[0] = v[-1] = 0.0

        hc = hc_new
        t += step_dt

    # back to nodes: interior averages; endpoint values from the parabola
    # with zero slope at the wall (consistent with h_y = 0 there)
    hn = np.empty(n)
    hn[1:-1] = 0.5 * (hc[:-1] + hc[1:])
    hn[0] = (9.0 * hc[0] - hc[1]) / 8.0
    hn[-1] = (9.0 * hc[-1] - hc[-2]) / 8.0
    return SheetState(t=t, grid=grid, h=Field(grid, hn), v=Field(grid, v), M=M, nu=nu)


class TestSolveSSM:
    def test_stationary_sheet(self):
        g = Grid(101)
        init = SheetState(
            t=0.0, grid=g, h=Field(g, np.full(101, 2.0)),
            v=Field(g, np.zeros(101)), M=2.0, nu=1.0,
        )
        state = solve_ssm(init, dt=1e-3, t_end=0.5)
        assert state.t == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(state.h.values - 2.0)) < 1e-12
        assert np.max(np.abs(state.v.values)) < 1e-12

    def test_mass_conserved(self):
        for t_end in (0.25, 0.5, 1.0):
            state = solve_ssm(ex24_sheet(), dt=1e-3, t_end=t_end)
            assert state.mass() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("err", [LinAlgError("singular matrix"),
                                     ValueError("infs or NaNs")])
    def test_failed_viscous_solve_is_solver_error(self, monkeypatch, err):
        def fail(*args):
            raise err

        monkeypatch.setattr(lagrangian, "tridiag_solve", fail)
        with pytest.raises(SolverError, match="viscous solve failed"):
            solve_ssm(ex24_sheet(21), dt=1e-3, t_end=0.01)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(n=st.integers(5, 101), eps=st.floats(0.0, 0.3), amp=st.floats(0.0, 0.9),
           nu=st.floats(0.1, 10.0), dt=st.sampled_from((1e-3, 1e-2, 0.1)),
           t_end=st.floats(0.005, 0.1))
    def test_bits_match_the_reference_march(self, n, eps, amp, nu, dt, t_end):
        # dt = 0.1 always and dt = 1e-2 mostly take the CFL-limited step
        g = Grid(n)
        h = 1.0 + eps * np.cos(np.pi * g.nodes)
        init = SheetState(t=0.0, grid=g, h=Field(g, h / trapezoid(h, g.dx)),
                          v=Field(g, amp * np.sin(np.pi * g.nodes)), M=1.0, nu=nu)
        got, want = solve_ssm(init, dt, t_end), _reference_solve_ssm(init, dt, t_end)
        assert got.t == want.t
        assert got.h.values.tobytes() == want.h.values.tobytes()
        assert got.v.values.tobytes() == want.v.values.tobytes()

    def test_long_time_limit(self):
        state = solve_ssm(ex24_sheet(), dt=1e-3, t_end=8.0)
        g = state.grid
        # closed form gives h at the mapped points y(x); push it to the
        # y-grid through the limit map before comparing
        x_fine = np.linspace(0.0, 1.0, 4001)
        u_inf = 2 * np.pi / (C_EXACT - np.cos(np.pi * x_fine))
        y_inf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (u_inf[1:] + u_inf[:-1]) * np.diff(x_fine))]
        )
        h_inf_x = (C_EXACT - np.cos(np.pi * x_fine)) / (2 * np.pi)
        h_inf_y = np.interp(g.nodes, y_inf / y_inf[-1], h_inf_x)
        err = np.max(np.abs(state.h.values - h_inf_y))
        assert err <= 0.02
        assert np.max(np.abs(state.v.values)) < 1e-3


class TestCrosscheck:
    def test_transform_agreement_at_t1(self):
        n = 201
        g = Grid(n)
        src = CosineStaticSource(g, np.pi / 2)
        cfg = SimulationConfig(
            nu=1.0, grid=g, u0=Field(g, np.ones(n)), source=src,
            dt=1e-3, t_end=1.0, snapshot_stride=1000,
        )
        rec = simulate(cfg)
        u1 = rec.snapshots[-1]
        ssm = solve_ssm(ex24_sheet(n), dt=1e-3, t_end=1.0)
        assert crosscheck_heights(ssm, u1, 1.0) <= 0.02
