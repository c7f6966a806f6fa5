import functools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import solve_banded

from singheat import solver
from singheat.errors import NewtonStallError, QuenchError, SolverError
from singheat.grid import Field, Grid, derivative, h1, l2, rhs, trapezoid_integral
from singheat.solver import (
    DIAGNOSTIC_COLUMNS,
    SimulationConfig,
    SimulationRecord,
    diagnostics,
    simulate,
    step,
    tridiag_solve,
)
from singheat.source import (CallableSource, CosineStaticSource, SourceTerm, TabulatedSource,
                             make_source)
from singheat.steady import steady_profile


def flat_config(n=101, **kw):
    g = Grid(n)
    defaults = dict(
        nu=1.0,
        grid=g,
        u0=Field(g, np.ones(n)),
        source=make_source(g, "zero"),
        dt=1e-3,
        t_end=0.1,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


def _step(u, k, cfg):
    """solver.step k, from k dt, in a fresh workspace, with the forcing at (k + 1) dt."""
    return solver.step(u, k * cfg.dt, solver.Workspace(cfg), cfg.source.at((k + 1) * cfg.dt))


def _row(u, f, cfg, ss, work=None):
    """solver.diagnostics of the state u under the forcing row f as the block of
    one, a tuple of floats; in work, or a fresh workspace if None."""
    block = solver.diagnostics(u[None], f[None], ss, work or solver.Workspace(cfg))
    return tuple(block[0].tolist())


class TestConfigValidation:
    def test_rejects_nonunit_mass(self):
        g = Grid(11)
        with pytest.raises(ValueError):
            flat_config(11, u0=Field(g, np.full(11, 2.0)))

    def test_rejects_nonpositive_u0(self):
        g = Grid(11)
        vals = np.ones(11)
        vals[5] = -0.5
        vals /= np.trapezoid(vals, dx=g.dx)
        with pytest.raises(ValueError):
            flat_config(11, u0=Field(g, vals))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            flat_config(11, dt=-1e-3)

    @pytest.mark.parametrize("t_end", [0.0004, 0.0025, 0.0105])
    def test_rejects_t_end_off_the_step_grid(self, t_end):
        # 0 steps, or a march that would stop short of t_end
        with pytest.raises(ValueError, match="t_end must be a whole number of steps dt"):
            flat_config(11, t_end=t_end)

    def test_accepts_t_end_a_whole_number_of_steps_up_to_round_off(self):
        assert 0.3 / 0.1 != 3 and flat_config(11, dt=0.1, t_end=0.3).t_end == 0.3

    @pytest.mark.parametrize("key,value", [
        ("nu", math.nan), ("nu", 0.0), ("dt", math.inf), ("t_end", math.inf),
        ("t_end", math.nan), ("newton_tol", math.nan), ("newton_tol", 0.0),
        ("positivity_floor", -1.0), ("positivity_floor", math.inf),
    ])
    def test_rejects_a_setting_that_is_not_finite_and_positive(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite and positive, got {value!r}"):
            flat_config(11, **{key: value})

    @pytest.mark.parametrize("n,stride,steps", [
        (13, 10**8, 14_913_077),    # two snapshots; the rows reach 2**30 bytes
        (6401, 1, 20_936),          # a snapshot a step; 51 KB each at n = 6401
    ])
    def test_record_of_at_most_2_to_the_30_bytes(self, n, stride, steps):
        # (steps + 1) 9 + (steps // stride + 2) n values of 8 bytes; only the
        # config is built, so no record is allocated
        g = Grid(n)
        u0 = Field(g, np.ones(n))
        assert flat_config(n, u0=u0, dt=1.0, t_end=float(steps), snapshot_stride=stride)
        with pytest.raises(ValueError, match=f"t_end/dt = {steps + 1} steps are more than a "
                                             "record can hold"):
            flat_config(n, u0=u0, dt=1.0, t_end=float(steps + 1), snapshot_stride=stride)

    def test_rejects_u0_on_another_grid(self):
        with pytest.raises(ValueError, match="u0 has 21 nodes"):
            flat_config(51, u0=Field(Grid(21), np.ones(21)))


class TestFixedPoint:
    def test_flat_profile_is_exact(self):
        cfg = flat_config()
        u, iters = _step(cfg.u0.values, 0, cfg)
        assert np.array_equal(u, cfg.u0.values)

    def test_steady_profile_nearly_fixed(self):
        g = Grid(401)
        src = CosineStaticSource(g, math.pi / 2)
        ss = steady_profile(src, 1.0, which="initial")
        cfg = flat_config(401, u0=ss.u_infinity, source=src)
        u, _ = _step(ss.u_infinity.values, 0, cfg)
        drift = np.max(np.abs(u - ss.u_infinity.values))
        # one step moves the discrete profile by at most dt * residual-scale
        assert drift <= cfg.dt * (10 * ss.residual_l2 + 1e-8) + 10 * cfg.newton_tol


class TestConservation:
    def test_mass_over_ten_thousand_steps(self, long_record):
        assert len(long_record.times) >= 10001
        assert np.max(np.abs(np.asarray(long_record.mass) - 1.0)) <= 1e-10

    def test_positivity_recorded(self, long_record):
        assert min(long_record.min_u) > 0

    def test_energy_nonincreasing_homogeneous(self, ex24_record):
        e = np.asarray(ex24_record.energy)
        assert np.max(np.diff(e)) <= 1e-10

    def test_qx_upper_bound(self, ex24_record):
        # homogeneous estimate: ||q_x(t)||_2 <= 2 P0 / sqrt(nu) + sqrt(nu) R0
        bound = 2 * 1 / (2 * math.sqrt(2)) + 0.0
        assert np.max(ex24_record.qx_l2) <= bound * (1 + 1e-6)


class TestPointwiseBounds:
    def test_kicked_cosine_bounds(self, ex24_record):
        r0, p0 = 0.0, 1 / (2 * math.sqrt(2))
        lo = 1.0 / (1 + r0 + 2 * p0)
        hi = 1.0 / (1 - r0 - 2 * p0)
        assert min(ex24_record.min_u) >= lo - 1e-12
        assert max(ex24_record.max_u) <= hi + 1e-12

    def test_decaying_forcing_bounds(self, ex33_record):
        assert min(ex33_record.min_u) >= 0.7081 - 1e-4
        assert max(ex33_record.max_u) <= 1.7011 + 1e-4


class TestSymmetry:
    def test_reflection(self):
        n = 101
        g = Grid(n)
        u0_vals = 1.0 / (1.0 + 0.1 * np.sin(np.pi * g.nodes) + 0.05 * g.nodes)
        u0_vals /= np.trapezoid(u0_vals, dx=g.dx)

        def run(u0, src_fn):
            src = CallableSource(
                g, src_fn, f_limit_fn=src_fn_limit
            )
            cfg = SimulationConfig(
                nu=1.0, grid=g, u0=Field(g, u0), source=src,
                dt=1e-3, t_end=0.2, snapshot_stride=50,
            )
            return simulate(cfg).snapshots[-1].values

        def src_fn_limit(x):
            return np.cos(np.pi * x)

        a = run(u0_vals, lambda x, t: np.cos(np.pi * x))
        b = run(u0_vals[::-1], lambda x, t: np.cos(np.pi * (1 - x)))
        assert np.max(np.abs(a - b[::-1])) < 1e-12


class TestRelaxationToFlat:
    def test_perturbed_start_decays(self):
        n = 201
        g = Grid(n)
        vals = 1.0 / (1.0 + 0.1 * np.sin(np.pi * g.nodes))
        vals /= np.trapezoid(vals, dx=g.dx)
        cfg = SimulationConfig(
            nu=1.0, grid=g, u0=Field(g, vals), source=make_source(g, "zero"),
            dt=1e-3, t_end=3.0, snapshot_stride=500,
        )
        rec = simulate(cfg)
        assert rec.failure is None
        assert rec.h1_error_inverse[-1] < 1e-8
        assert np.max(np.abs(rec.snapshots[-1].values - 1.0)) < 1e-8


class TestFailureHandling:
    def test_quench_preserves_partial_record(self):
        # a forcing far beyond the admissible regime drives u toward zero
        n = 101
        g = Grid(n)
        src = CallableSource(
            g, lambda x, t: 2000.0 * np.cos(np.pi * x),
            f_limit_fn=lambda x: 2000.0 * np.cos(np.pi * x),
        )
        cfg = SimulationConfig(
            nu=0.01, grid=g, u0=Field(g, np.ones(n)), source=src,
            dt=1e-2, t_end=5.0,
        )
        try:
            rec = simulate(cfg)
        except Exception as err:  # steady profile itself may be rejected
            pytest.skip(f"steady state rejected input first: {err}")
        if rec.failure is None:
            pytest.fail("expected a solver failure for quenching data")
        assert rec.failure_time is not None
        assert len(rec.times) >= 1


    @pytest.mark.parametrize("err", [LinAlgError("singular matrix"),
                                     ValueError("infs or NaNs")])
    def test_failed_newton_solve_is_recorded(self, monkeypatch, err):
        def fail(*args):
            raise err

        monkeypatch.setattr(solver, "_solve_packed", fail)
        # a non-flat u0, whose first residual lies above tol, so the step solves
        rec = simulate(flat_config(21, u0=_inverse_sine(Grid(21), 0.1), t_end=0.01))
        assert rec.failure.startswith("Newton solve failed at t=0.001")
        assert rec.failure_time == 0.0
        assert len(rec.times) == 1

    @pytest.mark.parametrize("update,error", [(0.0, NewtonStallError), (-1e4, QuenchError)],
                             ids=["stall", "quench"])
    def test_exhausted_line_search_names_its_cause(self, monkeypatch, update, error):
        # a zero update keeps every trial positive and lowers no residual: a
        # stall.  A huge negative one sends every trial, down to 2**-9 of it,
        # below the positivity floor: a quench
        def solve(packed, bound=None):
            return np.full((len(packed) + 2) // 4, update)

        monkeypatch.setattr(solver, "_solve_packed", solve)
        g = Grid(51)
        cfg = flat_config(51, u0=_inverse_sine(g, 0.1), source=make_source(g, "cosine_static 0.5"))
        with pytest.raises(error):
            _step(cfg.u0.values, 0, cfg)

    @pytest.mark.parametrize("n", [1601, 6401])
    def test_fine_grid_steps_stop_at_the_round_off_floor(self, n):
        # ex-2-4's data with dt = 1e-3: the residual's round-off, about
        # eps dt nu/dx² max(u/mid²), lies above newton_tol = 1e-12, which
        # Newton cannot reach, so a step must stop at the floor
        g = Grid(n)
        cfg = flat_config(n, source=make_source(g, f"cosine_static {math.pi / 2!r}"),
                          t_end=0.01)
        assert solver.Workspace(cfg).round_off > cfg.newton_tol
        rec = simulate(cfg)
        assert rec.failure is None
        assert rec.newton_iters[1:].tolist() == [2] * 10


def test_diagnostics_flat_state():
    cfg = flat_config()
    ss = steady_profile(cfg.source, cfg.nu, which="initial")
    d = dict(zip(DIAGNOSTIC_COLUMNS[1:], _row(cfg.u0.values, cfg.source.at(0.0), cfg, ss)))
    assert d["energy"] == pytest.approx(0.0, abs=1e-14)
    assert d["relative_energy"] == pytest.approx(0.0, abs=1e-14)
    assert d["mass"] == pytest.approx(1.0, abs=1e-14)


def test_diagnostics_csv(tmp_path, ex33_record):
    path = tmp_path / "diag.csv"
    ex33_record.diagnostics_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,mass,energy")
    assert len(lines) == len(ex33_record.times) + 1


def test_record_series_are_the_rows_of_each_step(tmp_path, monkeypatch):
    # one row of diagnostics and Newton count per recorded time, in
    # DIAGNOSTIC_COLUMNS order; a failure cuts the rows at the last good step
    g = Grid(21)
    cfg = flat_config(21, source=make_source(g, "cosine_static 0.5"), t_end=0.01)
    ss = steady_profile(cfg.source, cfg.nu, which="initial")
    u, rows = cfg.u0.values, [(0.0, *_row(cfg.u0.values, cfg.source.at(0.0), cfg, ss), 0)]
    for k in range(3):
        u, iters = _step(u, k, cfg)
        t = (k + 1) * cfg.dt
        rows.append((t, *_row(u, cfg.source.at(t), cfg, ss), iters))

    def step_until_fourth(u, t, work, f):
        if t > 2.5 * cfg.dt:
            raise QuenchError("stopped")
        return step(u, t, work, f)

    monkeypatch.setattr(solver, "step", step_until_fourth)
    rec = simulate(cfg, ss)
    assert (rec.failure, rec.failure_time) == ("stopped", 3 * cfg.dt)
    series = [rec.times if c == "t" else getattr(rec, c) for c in DIAGNOSTIC_COLUMNS]
    assert all(s.dtype == float and s.flags.c_contiguous for s in series)
    assert np.array_equal(np.column_stack(series), np.array(rows))
    rec.diagnostics_csv(tmp_path / "diag.csv")
    lines = (tmp_path / "diag.csv").read_text().splitlines()
    assert lines[1:] == [",".join(f"{v:.17g}" for v in row) for row in rows]


def dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def _bands(u, nu, dx, dt, packed):
    """solver._jacobian_bands at u, written into packed, and the flux terms of u."""
    m = len(u) - 1
    _, mid, mid2, d = solver.flux_divergence(u, nu, dx)
    scratch = solver._band_scratch(m, packed, nu, dt, np.empty(4 * m))
    return solver._jacobian_bands(mid, mid2, d, nu, dx, scratch), (mid, mid2, d)


class TestNewtonLinearAlgebra:
    @pytest.mark.parametrize("n", [5, 41])
    def test_jacobian_bands_match_finite_differences(self, n):
        rng = np.random.default_rng(n)
        dx, nu, dt = Grid(n).dx, 1.7, 1e-3
        for _ in range(5):
            u = rng.uniform(0.5, 2.0, n)
            f = rng.standard_normal(n)
            bands, _ = _bands(u, nu, dx, dt, np.empty(3 * n - 2))
            assert [len(band) for band in bands] == [n - 1, n, n - 1]
            jac = (np.eye(n) - dense(*bands)) / dt
            fd = np.empty((n, n))
            for j in range(n):
                h = 1e-6 * u[j]
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                fd[:, j] = (rhs(up, f, nu, dx) - rhs(um, f, nu, dx)) / (2 * h)
            np.testing.assert_allclose(jac, fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())

    @pytest.mark.parametrize("n", [3, 41, 401])
    def test_jacobian_column_sums_are_the_trapezoid_weights(self, n):
        # the fluxes telescope, so the trapezoid-weighted column sums of
        # d(rhs)/du vanish and those of I - dt d(rhs)/du are the weights: a
        # Newton update dv then has mass(dv) = mass(un) - mass(v), 0 from the
        # first iterate on, and every iterate, damped or not, keeps the mass
        rng = np.random.default_rng(n)
        dx = Grid(n).dx
        w = np.full(n, dx)
        w[0] = w[-1] = 0.5 * dx
        for _ in range(20):
            u = rng.uniform(0.2, 5.0, n)
            nu, dt = rng.uniform(0.5, 20.0), 10.0 ** rng.uniform(-5, -1)
            bands, _ = _bands(u, nu, dx, dt, np.empty(3 * n - 2))
            matrix = w[:, None] * dense(*bands)
            # rounding: a few ulps of each column's largest weighted entry
            scale = np.abs(matrix).max(axis=0)
            assert np.all(np.abs(matrix.sum(axis=0) - w) <= 8 * np.finfo(float).eps * scale)

    def test_tridiag_solve_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        n = 41
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        b = rng.standard_normal(n)
        diag = 4.0 + rng.uniform(size=n)
        x = tridiag_solve(lower, diag, upper, b)
        np.testing.assert_allclose(
            x, np.linalg.solve(dense(lower, diag, upper), b), rtol=1e-12, atol=1e-14
        )

    def test_tridiag_solve_rejects_singular_and_nonfinite(self):
        ones = np.ones(3)
        # rows 0 and 1 of [[1, 1, 0], [1, 1, 0], [0, 0, 1]] coincide: gtsv's
        # second pivot is zero.  numpy's LinAlgError is a ValueError.
        lower, upper = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        with pytest.raises(LinAlgError, match=r"singular matrix \(gtsv info=2\)") as err:
            tridiag_solve(lower, ones, upper, ones)
        assert isinstance(err.value, ValueError)
        with pytest.raises(ValueError):
            tridiag_solve(lower, np.array([4.0, np.nan, 4.0]), upper, ones)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(4), ids=["lower", "diag", "upper", "b"])
    @pytest.mark.parametrize("where", [0, -1])
    def test_tridiag_solve_rejects_nonfinite_input(self, slot, value, where):
        # a diagonally dominant system, so gtsv never pivots: an inf on the
        # diagonal would then only zero its unknown and leave x finite
        args = [np.ones(4), np.full(5, 4.0), np.ones(4), np.ones(5)]
        args[slot][where] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            tridiag_solve(*args)

    @pytest.mark.parametrize("n", [2, 3, 4, 201, 1601, 6401])
    @pytest.mark.parametrize("kind", ["random", "dominant"])
    def test_tridiag_solve_keeps_solve_banded_bits(self, n, kind):
        # solve_banded((1, 1), ...) calls LAPACK's gtsv through scipy's own
        # build; a random diagonal makes gtsv pivot, a dominant one never
        rng = np.random.default_rng(n)
        for _ in range(5):
            lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
            b = rng.standard_normal(n)
            diag = rng.standard_normal(n) if kind == "random" else 4.0 + rng.uniform(size=n)
            args = [a.copy() for a in (lower, diag, upper, b)]
            x = tridiag_solve(*args)
            ab = np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]])
            assert np.array_equal(x, solve_banded((1, 1), ab, b))
            assert all(map(np.array_equal, args, (lower, diag, upper, b)))  # inputs kept

    def test_tridiag_solve_solves_integers_as_floats(self):
        # int64 bits read as doubles would be tiny denormals, not these values
        lower, diag, upper, b = [1, 1], [4, 4, 4], [1, 1], [5, 6, 5]
        x = tridiag_solve(*map(np.array, (lower, diag, upper, b)))
        assert x.dtype == np.float64
        assert np.array_equal(x, tridiag_solve(*(np.array(a, dtype=float)
                                                 for a in (lower, diag, upper, b))))
        np.testing.assert_allclose(x, [1.0, 1.0, 1.0], rtol=1e-15)

    @pytest.mark.parametrize("lengths", [(3, 5, 5, 5), (4, 5, 4, 4), (4, 5, 4, 6), (0, 0, 0, 0)])
    def test_tridiag_solve_refuses_mismatched_lengths(self, lengths):
        with pytest.raises(ValueError, match="tridiagonal system of"):
            tridiag_solve(*(np.ones(k) for k in lengths))

    def test_gtsv_lookup_names_numpys_lapack_when_the_symbol_is_missing(self):
        # a stand-in library that exports nothing
        with pytest.raises(ImportError, match="numpy's LAPACK.*numpy.show_config"):
            solver._lapack_gtsv(SimpleNamespace())

    @pytest.mark.parametrize("bad", ["nonfinite", "singular"])
    def test_failed_solve_in_a_march_is_a_solver_failure(self, monkeypatch, bad):
        # the real LAPACK solve, handed bands it must refuse
        def broken_bands(*args):
            lower, diag, upper = bands(*args)
            if bad == "nonfinite":
                diag[3] = np.inf
            else:
                diag[:] = lower[:] = upper[:] = 0.0
            return lower, diag, upper

        bands = solver._jacobian_bands
        monkeypatch.setattr(solver, "_jacobian_bands", broken_bands)
        cfg = flat_config(21, u0=_inverse_sine(Grid(21), 0.1), t_end=0.01)
        with pytest.raises(SolverError, match="Newton solve failed at t=0.001"):
            _step(cfg.u0.values, 0, cfg)
        rec = simulate(cfg)
        assert rec.failure.startswith("Newton solve failed at t=0.001")
        assert len(rec.times) == 1


@pytest.mark.parametrize("spec", ["cosine_static 0.8", "cosine_decay", "cosine_exp 1.5"])
def test_diagnostics_match_field_reference_exactly(spec):
    n = 101
    g = Grid(n)
    src = make_source(g, spec)
    cfg = flat_config(n, nu=2.0, source=src, t_end=0.05)
    which = "limit" if src.time_dependent else "initial"
    ss = steady_profile(src, cfg.nu, which=which)
    u = simulate(cfg, ss).snapshots[-1]
    for t in (0.0, 0.05, 1.5):
        sqrt_nu = math.sqrt(cfg.nu)
        q = u.with_values(sqrt_nu / u.values)
        qx = derivative(q)
        f = src.evaluate(t)
        wx = derivative(q.with_values(q.values - ss.q_infinity().values))
        expected = (
            trapezoid_integral(u),
            trapezoid_integral(qx.with_values(
                qx.values * qx.values * 0.5 + f.values * q.values * (1.0 / sqrt_nu))),
            0.5 * trapezoid_integral(wx.with_values(wx.values * wx.values)),
            h1(1.0 / u.values - 1.0 / ss.u_infinity.values, g.dx),
            l2(qx.values, g.dx),
            float(np.min(u.values)),
            float(np.max(u.values)),
        )
        assert _row(u.values, src.at(t), cfg, ss) == expected


def _inverse_sine(g, eps):
    u0 = 1.0 / (1.0 + eps * np.sin(np.pi * g.nodes))
    return Field(g, u0 / np.trapezoid(u0, dx=g.dx))


def _count_step_and_diagnostics(monkeypatch):
    """Counts of the steps, the diagnostics calls and the states they record."""
    calls = {"step": 0, "diagnostics": 0, "diagnostic rows": 0}

    def counted_step(*args, **kwargs):
        calls["step"] += 1
        return step(*args, **kwargs)

    def counted_diagnostics(block, *args, **kwargs):
        calls["diagnostics"] += 1
        calls["diagnostic rows"] += len(block)
        return diagnostics(block, *args, **kwargs)

    step, diagnostics = solver.step, solver.diagnostics
    monkeypatch.setattr(solver, "step", counted_step)
    monkeypatch.setattr(solver, "diagnostics", counted_diagnostics)
    return calls


def test_simulate_calls_step_and_diagnostics_through_module(monkeypatch):
    # perfbench times marches by rebinding solver.step and solver.diagnostics,
    # so every step that runs goes through them; from inverse_sine 0.1 no
    # step of the 20 returns its input.  At n = 21 a block holds 195 states,
    # so the 20 steps are recorded in one call after u0's
    calls = _count_step_and_diagnostics(monkeypatch)
    rec = simulate(flat_config(21, u0=_inverse_sine(Grid(21), 0.1), t_end=0.02))
    assert calls == {"step": 20, "diagnostics": 2, "diagnostic rows": len(rec.times)}
    assert len(rec.times) == 21 and rec.fixed_point_time is None


def test_simulate_stops_stepping_at_a_fixed_point(monkeypatch):
    # flat u0 and no forcing: the first step returns its input, and the
    # other 19 rows are filled without stepping
    calls = _count_step_and_diagnostics(monkeypatch)
    rec = simulate(flat_config(21, t_end=0.02))
    assert calls == {"step": 1, "diagnostics": 2, "diagnostic rows": 2}
    assert len(rec.times) == 21 and rec.fixed_point_time == 1e-3


@pytest.mark.parametrize("u0,source,built", [
    # no step returns its input: a Field per snapshot after the first
    ("inverse_sine", "cosine_static 0.5", 4),
    # the first step returns its input: the four later snapshots share one Field
    ("flat", "zero", 1),
])
def test_march_builds_fields_only_for_snapshots(fields_built, u0, source, built):
    # the march steps plain arrays; with stride 50, 200 steps keep 5 snapshots,
    # the first of them cfg.u0 itself, and steady_profile builds u_infinity
    g = Grid(51)
    start = _inverse_sine(g, 0.1) if u0 == "inverse_sine" else Field(g, np.ones(51))
    cfg = flat_config(51, u0=start, source=make_source(g, source), t_end=0.2,
                      snapshot_stride=50)
    fields_built.clear()
    rec = simulate(cfg)
    assert rec.failure is None and len(rec.snapshots) == 5 and rec.snapshots[0] is cfg.u0
    assert len(fields_built) == built + 1
    assert (rec.snapshots[1] is rec.snapshots[-1]) == (u0 == "flat")


def test_march_reuses_flux_terms_and_builds_no_forcing_fields(monkeypatch, fields_built):
    # each step's first residual takes the flux terms the step before it
    # computed for its last iterate, so a march with no damped update makes
    # one flux evaluation per Newton iteration, and one for u0; the forcing
    # is read as arrays, so the Fields built are the snapshots after t = 0
    # (steps that recompute them make 197 evaluations for these 147 iterations,
    # and reading a Field per forcing time builds 64)
    g = Grid(51)
    cfg = flat_config(51, nu=10.0, source=make_source(g, "cosine_exp 1.5"), t_end=0.05,
                      snapshot_stride=10)
    ss = steady_profile(cfg.source, cfg.nu)
    calls = []
    flux_divergence = solver.flux_divergence

    def counted(*args):
        calls.append(None)
        return flux_divergence(*args)

    monkeypatch.setattr(solver, "flux_divergence", counted)
    fields_built.clear()
    rec = simulate(cfg, ss)
    assert rec.failure is None and len(rec.times) == 51
    assert len(calls) == rec.newton_iters.sum() + 1
    assert len(fields_built) == len(rec.snapshots) - 1 == 5


def test_arrays_a_step_returns_are_never_written_again():
    # the workspace's buffers are rewritten by every step; the values each
    # step returns, which snapshots and the next step hold, are not
    g = Grid(51)
    cfg = flat_config(51, u0=_inverse_sine(g, 0.3), source=make_source(g, "cosine_exp 1.5"))
    ss = steady_profile(cfg.source, cfg.nu)
    work = solver.Workspace(cfg)
    u, kept = cfg.u0.values, []
    for k in range(5):
        f = cfg.source.at((k + 1) * cfg.dt)
        u, _ = step(u, k * cfg.dt, work, f)
        kept.append((u, u.copy()))
        assert _row(u, f, cfg, ss, work) == _row(u, f, cfg, ss)
    assert all(np.array_equal(a, b) for a, b in kept)
    assert len({id(a) for a, _ in kept}) == 5


def test_diagnostics_of_a_block_are_its_states_alone():
    # a block of up to K states gives each state's one-state row, bit for bit
    g = Grid(201)
    cfg = flat_config(201, nu=2.0, source=make_source(g, "cosine_exp 1.5"))
    ss = steady_profile(cfg.source, cfg.nu)
    rng = np.random.default_rng(5)
    states = 1.0 + 0.1 * rng.standard_normal((21, 201))
    forcing = cfg.source.at(rng.uniform(0.0, 2.0, 21))
    work = solver.Workspace(cfg)
    for k in (1, 7, 20):
        block = diagnostics(states[:k], forcing[:k], ss, work)
        assert block.shape == (k, len(DIAGNOSTIC_COLUMNS) - 2)
        for row, u, f in zip(block, states, forcing):
            assert tuple(row.tolist()) == _row(u, f, cfg, ss)
    for k in (0, 21):
        with pytest.raises(ValueError, match="block of"):
            diagnostics(states[:k], forcing[:k], ss, work)


#: a warm march at n = 6401 in a fresh interpreter that loads no scipy, whose
#: import raises glibc's dynamic mmap and trim thresholds and would hide the
#: churn; prints the minor page faults per step of steps 11 to 29, each with
#: its diagnostics row
WARM_MARCH = """
import resource
import numpy as np
from singheat import solver
from singheat.grid import Field, Grid
from singheat.source import make_source
g = Grid(6401)
cfg = solver.SimulationConfig(nu=1.0, grid=g, u0=Field(g, np.ones(g.n)),
                              source=make_source(g, "cosine_exp 1"), dt=1e-5, t_end=3e-4)
faults, step = [], solver.step
def counted(*args, **kwargs):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return step(*args, **kwargs)
solver.step = counted
record = solver.simulate(cfg)
assert record.failure is None, record.failure
print((faults[-1] - faults[10]) / (len(faults) - 11))
"""


def test_march_memory_is_not_trimmed_and_faulted_in_again():
    # n-sized temporaries past glibc's 128 KiB thresholds are given back to
    # the system and faulted in again on every Newton trial and diagnostics
    # row: about 130 minor faults per step here when each step allocates
    # them, and none with the workspace's buffers
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", WARM_MARCH],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 5


# --- a reference march for the bits -----------------------------------------
# The residual and Jacobian bands built with a control-volume width array and
# padded bands, the solve through scipy's solve_banded (the same LAPACK gtsv),
# the step's forcing sampled afresh at its end time, and the diagnostics as one
# numpy gradient and trapezoid per quantity.  The solver's step and diagnostics must
# reproduce its records bit for bit.

def _reference_rhs_terms(u, f, nu, dx):
    mid = 0.5 * (u[:-1] + u[1:])
    d = u[1:] - u[:-1]
    flux = d / (dx * mid**2)
    out = np.empty(len(u))
    out[1:-1] = nu * (flux[1:] - flux[:-1]) / dx
    out[0] = nu * flux[0] / (0.5 * dx)
    out[-1] = -nu * flux[-1] / (0.5 * dx)
    out += f
    return out, mid, d


def _reference_jacobian_bands(mid, d, nu, dx, dt):
    n = len(d) + 1
    a = 1.0 / mid**2
    c = d / mid**3
    dF_left = (-a - c) / dx
    dF_right = (a - c) / dx
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    lower = np.zeros(n)
    diag = np.empty(n)
    upper = np.zeros(n)
    lower[1:] = -dt * (-nu * dF_left / w[1:])
    upper[:-1] = -dt * (nu * dF_right / w[:-1])
    diag[0] = nu * dF_left[0] / w[0]
    diag[-1] = -nu * dF_right[-1] / w[-1]
    diag[1:-1] = nu * (dF_left[1:] - dF_right[:-1]) / w[1:-1]
    return lower, 1.0 - dt * diag, upper


def _reference_step(un, t, work, f, damped=None):
    """The reference step k, from t = k dt; it takes only the config of the
    workspace, and adds t to the list damped, if given, for each update it
    damps (lambda < 1).  The forcing f it is given must be its own sample at
    (k + 1) dt, bit for bit."""
    cfg = work.cfg
    dx, dt, nu = cfg.grid.dx, cfg.dt, cfg.nu
    own = cfg.source.at((round(t / dt) + 1) * dt)
    assert f.tobytes() == own.tobytes()
    f = own

    def residual(v):
        terms, mid, d = _reference_rhs_terms(v, f, nu, dx)
        res = v - un - dt * terms
        return res, float(np.abs(res).max()), mid, d

    v = un
    res, res_norm, mid, d = residual(v)
    iters = 0
    while not res_norm <= cfg.newton_tol:
        if iters >= cfg.newton_max_iter:
            raise SolverError("Newton stalled")
        lower, diag, upper = _reference_jacobian_bands(mid, d, nu, dx, dt)
        dv = solve_banded((1, 1), np.array([np.r_[0.0, upper[:-1]], diag,
                                            np.r_[lower[1:], 0.0]]), -res)
        lam = 1.0
        for _ in range(10):
            trial = v + lam * dv
            if (trial > cfg.positivity_floor).all():
                trial_res, trial_norm, trial_mid, trial_d = residual(trial)
                if trial_norm < res_norm:
                    break
            lam *= 0.5
        else:
            raise QuenchError("Newton damping exhausted")
        if lam < 1.0 and damped is not None:
            damped.append(t)
        v, res, res_norm, mid, d = trial, trial_res, trial_norm, trial_mid, trial_d
        iters += 1
    return v, iters


def _reference_diagnostics(block, f, steady, work):
    """The reference diagnostics of a block of states under their forcing rows,
    row by row; it takes only the config of the workspace."""
    return np.array([_reference_row(u, g, work.cfg, steady)
                     for u, g in zip(block, f, strict=True)])


def _reference_row(uv, f, cfg, steady):
    dx = cfg.grid.dx
    sqrt_nu = math.sqrt(cfg.nu)
    q = sqrt_nu / uv
    qx = np.gradient(q, dx, edge_order=2)
    u_inf = steady.u_infinity.values
    wx = np.gradient(q - np.sqrt(steady.nu) / u_inf, dx, edge_order=2)
    y = 1.0 / uv - 1.0 / u_inf
    yx = np.gradient(y, dx, edge_order=2)
    return (
        float(np.trapezoid(uv, dx=dx)),
        float(np.trapezoid(qx * qx * 0.5 + f * q * (1.0 / sqrt_nu), dx=dx)),
        0.5 * float(np.trapezoid(wx * wx, dx=dx)),
        math.sqrt(np.trapezoid(y * y, dx=dx) + np.trapezoid(yx * yx, dx=dx)),
        math.sqrt(np.trapezoid(qx * qx, dx=dx)),
        float(uv.min()),
        float(uv.max()),
    )


@pytest.mark.parametrize("n", [3, 4, 101, 401])
def test_residual_and_bands_keep_the_reference_bits(n):
    # Newton's end point barely depends on the Jacobian's last bits, so the
    # bands are compared here directly, in gtsv's layout
    rng = np.random.default_rng(n)
    dx = Grid(n).dx
    for _ in range(20):
        u = rng.uniform(0.2, 5.0, n)
        f = rng.standard_normal(n)
        nu, dt = rng.uniform(0.5, 20.0), 10.0 ** rng.uniform(-5, -1)
        packed = np.full(4 * n - 2, np.nan)
        (lower, diag, upper), (mid, mid2, d) = _bands(u, nu, dx, dt, packed)
        ref_out, ref_mid, ref_d = _reference_rhs_terms(u, f, nu, dx)
        assert all(map(np.array_equal, (rhs(u, f, nu, dx), mid, d), (ref_out, ref_mid, ref_d)))
        assert np.array_equal(mid2, mid**2)
        assert np.array_equal(packed[:3 * n - 2], np.concatenate((lower, diag, upper)))
        assert np.isnan(packed[3 * n - 2:]).all()    # the right-hand side's slot is left
        ref_lower, ref_diag, ref_upper = _reference_jacobian_bands(mid, d, nu, dx, dt)
        assert np.array_equal(lower, ref_lower[1:])
        assert np.array_equal(diag, ref_diag)
        assert np.array_equal(upper, ref_upper[:-1])


def _tabulated_source(g):
    cos = np.cos(np.pi * g.nodes)
    return TabulatedSource([0.0, 0.07, 0.15],
                           [Field(g, a * cos) for a in (0.8, -0.3, 0.5)])


@pytest.mark.parametrize("n,source,eps,nu,dt,steps,damps", [
    (401, lambda g: make_source(g, f"cosine_static {math.pi / 2}"), 0.2, 2.0, 1e-3, 200, False),
    (101, lambda g: make_source(g, "cosine_exp 1.5"), 0.2, 2.0, 1e-3, 200, False),
    (101, _tabulated_source, 0.2, 2.0, 1e-3, 200, False),
    # ten long steps from a deep dip: one Newton update is damped, the one
    # path where the line search reuses dv, which lives in the step's buffer
    (101, lambda g: make_source(g, "cosine_static 0.3"), 0.9, 1.0, 0.1, 10, True),
], ids=["cosine_static", "cosine_exp", "tabulated", "damped"])
def test_march_keeps_the_reference_bits(monkeypatch, n, source, eps, nu, dt, steps, damps):
    # from a non-flat start, the records, the Newton counts and the
    # snapshots must equal the reference march's bit for bit
    g = Grid(n)
    src = source(g)
    cfg = SimulationConfig(nu=nu, grid=g, u0=_inverse_sine(g, eps), source=src, dt=dt,
                           t_end=steps * dt, snapshot_stride=50)
    ss = steady_profile(src, cfg.nu)
    new = simulate(cfg, ss)
    damped = []
    monkeypatch.setattr(solver, "step", functools.partial(_reference_step, damped=damped))
    monkeypatch.setattr(solver, "diagnostics", _reference_diagnostics)
    ref = simulate(cfg, ss)
    assert new.failure is ref.failure is None
    assert len(ref.times) == steps + 1 and ref.newton_iters.sum() > steps
    assert bool(damped) == damps
    if damps:
        # a damped update keeps the mass too: the update's own mass is
        # mass(un) - mass(v), which is 0 from the first iterate on
        assert np.abs(new.mass - new.mass[0]).max() <= 2 * np.finfo(float).eps
    for column in DIAGNOSTIC_COLUMNS:
        name = "times" if column == "t" else column
        assert np.array_equal(getattr(new, name), getattr(ref, name)), column
    assert new.snapshot_times == ref.snapshot_times
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(new.snapshots, ref.snapshots, strict=True))


@pytest.mark.parametrize("scale", [2.5, 4.0])
def test_march_of_damped_updates_keeps_the_mass(monkeypatch, scale):
    # each solve returns scale times the Newton update, so the line search
    # damps every one: at 2.5 the accepted update is always 1.25 times
    # Newton's, at 4 it is twice or once Newton's.  The mass of every update
    # is still 0, so each row keeps the first row's mass to rounding, in the
    # damped march as in the plain one
    g = Grid(101)
    cfg = SimulationConfig(nu=1.0, grid=g, u0=_inverse_sine(g, 0.9), dt=0.1, t_end=1.0,
                           source=make_source(g, "cosine_static 0.3"))
    plain = simulate(cfg)
    solve = solver._solve_packed
    monkeypatch.setattr(solver, "_solve_packed",
                        lambda packed, bound=None: scale * solve(packed, bound))
    rec = simulate(cfg)
    assert plain.failure is rec.failure is None and len(rec.times) == 11
    assert rec.newton_iters.sum() > plain.newton_iters.sum()
    for march in (plain, rec):
        assert np.abs(march.mass - march.mass[0]).max() <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("source", ["zero", "cosine_static 0.3"])
def test_a_step_from_a_fixed_point_returns_its_input(source):
    # a step whose input already meets tol takes no Newton iteration and
    # returns that very array, so a static march from the step's fixed point
    # records 0 iterations and stops stepping after its first step
    g = Grid(51)
    cfg = flat_config(51, source=make_source(g, source), t_end=2.0)
    rec = simulate(cfg)
    assert rec.fixed_point_time is not None
    start = rec.snapshots[-1]
    cfg = flat_config(51, u0=start, source=cfg.source, t_end=0.01)
    u, iters = _step(start.values, 0, cfg)
    assert u is start.values and iters == 0
    rec = simulate(cfg)
    assert rec.fixed_point_time == cfg.dt
    assert rec.newton_iters.tolist() == [0] * 11


def _reference_simulate(cfg, steady):
    """The march that steps every time and records each state on its own, the
    reference for the fixed-point exit and the blocks; it stops at a SolverError.
    Each step takes a fresh workspace, so none reuses the flux terms of the
    step before it."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    u = cfg.u0.values
    rows = [(0.0, *_row(u, cfg.source.at(0.0), cfg, steady), 0)]
    snapshot_times, snapshots = [0.0], [cfg.u0]
    for k in range(n_steps):
        try:
            u, iters = _step(u, k, cfg)
        except SolverError:
            break
        t_new = (k + 1) * cfg.dt
        rows.append((t_new, *_row(u, cfg.source.at(t_new), cfg, steady), iters))
        if (k + 1) % cfg.snapshot_stride == 0 or k + 1 == n_steps:
            snapshot_times.append(t_new)
            snapshots.append(Field(cfg.grid, u))
    return np.array(rows), snapshot_times, snapshots


def _assert_same_march(rec, reference):
    """rec's series, snapshot times and snapshots are the reference's, bit for bit."""
    rows, snapshot_times, snapshots = reference
    for column, series in zip(DIAGNOSTIC_COLUMNS, rows.T, strict=True):
        name = "times" if column == "t" else column
        assert np.array_equal(getattr(rec, name), series), column
    assert rec.snapshot_times == snapshot_times
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(rec.snapshots, snapshots, strict=True))


@pytest.mark.parametrize("source,t_end,stride,fixed_step", [
    ("cosine_static 0.3", 3.5, 300, 1993),    # 300 does not divide 3500
    ("cosine_static 0.3", 1.993, 300, 1993),  # the fixed point is the last step
    ("zero", 0.1, 100, 1),
], ids=["past-the-fixed-point", "fixed-point-last", "flat-unforced"])
def test_fixed_point_exit_keeps_the_reference_bits(source, t_end, stride, fixed_step):
    # the record filled past the step's fixed point must equal the one that
    # steps every time, bit for bit
    g = Grid(51)
    cfg = flat_config(51, source=make_source(g, source), t_end=t_end,
                      snapshot_stride=stride)
    ss = steady_profile(cfg.source, cfg.nu)
    rec = simulate(cfg, ss)
    assert rec.failure is None
    assert rec.fixed_point_time == fixed_step * cfg.dt
    _assert_same_march(rec, _reference_simulate(cfg, ss))


def test_time_dependent_source_is_stepped_past_a_fixed_point(monkeypatch):
    # a tabulated source held at its last (zero) profile past t = 0.01 is
    # constant from then on, but it is time-dependent, so no step is skipped
    g = Grid(21)
    src = TabulatedSource([0.0, 0.01], [Field(g, np.zeros(21))] * 2)
    calls = _count_step_and_diagnostics(monkeypatch)
    cfg = flat_config(21, source=src, t_end=0.05)
    rec = simulate(cfg)
    assert src.time_dependent
    assert calls == {"step": 50, "diagnostics": 2, "diagnostic rows": 51}
    assert rec.fixed_point_time is None
    assert np.array_equal(rec.snapshots[-1].values, cfg.u0.values)


# --- blocks of steps ---------------------------------------------------------
# simulate records its states in blocks of K = max(1, 2**12 // n), and reads
# the forcing once for a block's K times, for its steps and its records alike.  Every
# record must be the one-row loop's, bit for bit, wherever a block ends.

def _block_rows(n):
    return max(1, 2**12 // n)


@pytest.mark.parametrize("n,rows", [(21, 195), (201, 20), (401, 10), (1601, 2), (2049, 1),
                                    (4097, 1)])
def test_a_block_holds_about_4096_samples(n, rows):
    assert _block_rows(n) == rows == len(solver.Workspace(flat_config(n)).states)


def _forced_march(n, steps, source="cosine_exp 1.5", **kw):
    g = Grid(n)
    src = source(g) if callable(source) else make_source(g, source)
    cfg = flat_config(n, nu=2.0, u0=_inverse_sine(g, 0.2), source=src,
                      t_end=steps * 1e-3, snapshot_stride=7, **kw)
    return cfg, steady_profile(cfg.source, cfg.nu)


STEP_COUNTS = {"1": lambda k: 1, "K-1": lambda k: k - 1, "K": lambda k: k,
               "K+1": lambda k: k + 1, "3K+7": lambda k: 3 * k + 7}


@pytest.mark.parametrize("steps", STEP_COUNTS)
@pytest.mark.parametrize("n", [21, 201])
def test_block_boundaries_keep_the_one_row_bits(n, steps):
    cfg, ss = _forced_march(n, STEP_COUNTS[steps](_block_rows(n)))
    rec = simulate(cfg, ss)
    assert rec.failure is None
    _assert_same_march(rec, _reference_simulate(cfg, ss))


def _step_that(monkeypatch, after: int, then):
    """Rebind solver.step to the real step until step `after`, then `then`."""
    real = solver.step

    def patched(u, t, work, f):
        if t > (after - 0.5) * work.cfg.dt:
            return then(u)
        return real(u, t, work, f)

    monkeypatch.setattr(solver, "step", patched)


@pytest.mark.parametrize("failing", ["0", "K", "K+3"])
def test_solver_failure_in_a_block_records_the_rows_before_it(monkeypatch, failing):
    # the failing step's block is recorded up to the step before it
    K = _block_rows(201)
    k = {"0": 0, "K": K, "K+3": K + 3}[failing]
    cfg, ss = _forced_march(201, 2 * K + 5)

    def stop(u):
        raise QuenchError("stopped")

    _step_that(monkeypatch, k, stop)
    rec = simulate(cfg, ss)
    assert (rec.failure, rec.failure_time) == ("stopped", k * cfg.dt)
    assert len(rec.times) == k + 1
    _assert_same_march(rec, _reference_simulate(cfg, ss))


@pytest.mark.parametrize("row", ["mid-block", "last-row"])
def test_fixed_point_in_a_block_keeps_the_one_row_bits(monkeypatch, row):
    # from step k on the step returns its input with 0 iterations, as a real
    # step does at its fixed point, so a static march records the block up to
    # k and fills the rest
    K = _block_rows(201)
    k = K + 5 if row == "mid-block" else 2 * K - 1
    cfg, ss = _forced_march(201, 3 * K + 7, source="cosine_static 0.5")
    _step_that(monkeypatch, k, lambda u: (u, 0))
    rec = simulate(cfg, ss)
    assert rec.failure is None and rec.fixed_point_time == (k + 1) * cfg.dt
    _assert_same_march(rec, _reference_simulate(cfg, ss))


def test_each_step_and_its_record_row_read_one_forcing_row(monkeypatch):
    # the step from k dt and the record of its state both take the forcing
    # row at (k + 1) dt, and a march reads the forcing once per block and once
    # for u0.  Where k dt + dt is not (k + 1) dt, this f differs by many ulps
    # between the two floats, enough to move a state's bits and its record's
    def fast(g):
        return CallableSource(g, lambda x, t: math.sin(1e6 * t) * np.cos(np.pi * x),
                              f_limit_fn=lambda x: 0.0 * x)

    K = _block_rows(21)
    steps = 3 * K + 7
    cfg, ss = _forced_march(21, steps, source=fast)
    apart = [k for k in range(steps) if k * cfg.dt + cfg.dt != (k + 1) * cfg.dt]
    assert len(apart) > 10 and {k // K for k in apart} >= {0, 1, 2}   # in every full block
    assert not any(np.array_equal(cfg.source.at(k * cfg.dt + cfg.dt),
                                  cfg.source.at((k + 1) * cfg.dt)) for k in apart)
    stepped, recorded, reads = [], [], []
    real_step, real_diagnostics, real_at = solver.step, solver.diagnostics, SourceTerm.at

    def step(u, t, work, f):
        stepped.append(f.tobytes())
        return real_step(u, t, work, f)

    def diagnostics(block, f, steady, work):
        recorded.extend(row.tobytes() for row in f)
        return real_diagnostics(block, f, steady, work)

    def at(self, t):
        reads.append(t)
        return real_at(self, t)

    monkeypatch.setattr(solver, "step", step)
    monkeypatch.setattr(solver, "diagnostics", diagnostics)
    monkeypatch.setattr(SourceTerm, "at", at)
    rec = simulate(cfg, ss)
    monkeypatch.undo()
    assert rec.failure is None and len(reads) == -(-steps // K) + 1
    assert recorded[1:] == stepped
    assert stepped == [cfg.source.at((k + 1) * cfg.dt).tobytes() for k in range(steps)]
    _assert_same_march(rec, _reference_simulate(cfg, ss))


def test_one_state_blocks_past_4096_nodes():
    cfg, ss = _forced_march(4097, 3, dt=1e-5)
    cfg = SimulationConfig(**{**vars(cfg), "t_end": 3e-5})
    assert len(solver.Workspace(cfg).states) == 1
    rec = simulate(cfg, ss)
    assert rec.failure is None and len(rec.times) == 4
    _assert_same_march(rec, _reference_simulate(cfg, ss))
