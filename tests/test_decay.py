import math
from types import SimpleNamespace

import numpy as np
import pytest

from singheat.constants import TheoremConstants
from singheat.decay import (
    DecayReport,
    check_direct_convergence,
    check_gradient_energy_envelope,
    check_homogeneous_envelope,
    check_inhomogeneous_envelope,
    envelope_csv,
    fit_rate,
)
from singheat.errors import HypothesisError, SolverError
from singheat.grid import Field, Grid, h1, l2
from singheat.solver import SimulationConfig, simulate
from singheat.source import (
    CallableSource,
    SeparableSource,
    TabulatedSource,
    forcing_gap_sq,
    make_source,
    mean_zero,
)
from test_source import _amplitude


class TestFitRate:
    def test_exact_exponential(self):
        t = np.arange(0.0, 6.0, 0.01)
        rate, prefactor, window = fit_rate(t, 3.0 * np.exp(-2.0 * t))
        assert rate == pytest.approx(2.0, abs=1e-6)
        assert prefactor == pytest.approx(3.0, abs=1e-4)
        assert window[0] > 0.0

    def test_perturbed_exponential(self):
        t = np.arange(0.0, 8.0, 0.01)
        err = np.exp(-t) * (1 + 0.01 * np.sin(50 * t))
        rate, _, _ = fit_rate(t, err)
        assert rate == pytest.approx(1.0, abs=0.01)

    def test_floor_excludes_plateau(self):
        t = np.arange(0.0, 20.0, 0.01)
        err = np.maximum(np.exp(-1.5 * t), 1e-6)
        rate, _, window = fit_rate(t, err, floor=2e-6)
        assert rate == pytest.approx(1.5, abs=1e-3)
        assert window[1] < 10.0

    def test_too_few_samples(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(SolverError):
            fit_rate(t, np.exp(-t))

    def test_no_decay(self):
        t = np.linspace(0, 1, 100)
        with pytest.raises(SolverError):
            fit_rate(t, np.ones(100))


@pytest.fixture(scope="module")
def ex24_consts(ex24_record):
    cfg = ex24_record.config
    return TheoremConstants.from_problem(cfg.u0, cfg.source, cfg.nu)


@pytest.fixture(scope="module")
def ex33_consts(ex33_record):
    cfg = ex33_record.config
    return TheoremConstants.from_problem(cfg.u0, cfg.source, cfg.nu)


class TestHomogeneousEnvelope:
    def test_kicked_cosine_holds(self, ex24_record, ex24_consts):
        report = check_homogeneous_envelope(ex24_record, ex24_consts,
                                            floor=1e-4)
        assert report.envelope_ok
        assert report.theory_rate == pytest.approx(0.8467, abs=1e-3)
        assert report.fitted_rate >= report.theory_rate

    def test_falsifiable_with_doubled_rate(self, ex24_record, ex24_consts):
        # with the default floor the late-time error plateau stays in view
        # and the inflated bound dips below it
        report = check_homogeneous_envelope(
            ex24_record, ex24_consts, rate=2 * ex24_consts.lambda_hom,
        )
        assert not report.envelope_ok

    def test_small_perturbation_heat_rate(self):
        n = 201
        g = Grid(n)
        vals = 1.0 / (1.0 + 0.05 * np.sin(np.pi * g.nodes))
        vals /= np.trapezoid(vals, dx=g.dx)
        cfg = SimulationConfig(
            nu=1.0, grid=g, u0=Field(g, vals), source=make_source(g, "zero"),
            dt=1e-3, t_end=2.0,
        )
        rec = simulate(cfg)
        consts = TheoremConstants.from_problem(cfg.u0, cfg.source, cfg.nu)
        report = check_homogeneous_envelope(rec, consts, floor=1e-7)
        assert report.envelope_ok
        # measured R0 is small, so the rate is close to pi^2 nu
        assert report.theory_rate == pytest.approx(math.pi**2, rel=0.25)

    def test_rejects_failed_hypotheses(self, ex24_record):
        bad = TheoremConstants.from_values(0.9, 2.0, 0.0, 1.0)
        with pytest.raises(HypothesisError):
            check_homogeneous_envelope(ex24_record, bad)

    def test_rejects_time_dependent_source(self, ex33_record, ex33_consts):
        # ex-3-3's constants pass the homogeneous hypotheses, but its forcing
        # decays, so the homogeneous theorem does not apply to it
        assert ex33_consts.hom_ok
        with pytest.raises(HypothesisError, match="time-dependent"):
            check_homogeneous_envelope(ex33_record, ex33_consts)


class TestGradientEnergyEnvelope:
    def test_decaying_forcing_holds(self, ex33_record, ex33_consts):
        report = check_gradient_energy_envelope(
            ex33_record, ex33_consts, ex33_record.config.source
        )
        assert report.envelope_ok

    def test_trivial_steady_start(self):
        n = 201
        g = Grid(n)
        src = make_source(g, "zero")
        cfg = SimulationConfig(
            nu=1.0, grid=g, u0=Field(g, np.ones(n)), source=src,
            dt=1e-3, t_end=0.5,
        )
        rec = simulate(cfg)
        consts = TheoremConstants.from_problem(cfg.u0, src, 1.0)
        report = check_gradient_energy_envelope(rec, consts, src)
        # zero forcing, flat start: both sides vanish identically
        assert report.envelope_ok
        assert report.envelope_margin == 0.0

    def test_large_rate_times_horizon_stays_finite(self):
        # B * t_end ~ 1442 here: forming e^{B t} directly would overflow and
        # turn the margin into NaN on an admissible run
        n = 101
        g = Grid(n)
        src = make_source(g, "cosine_decay")
        cfg = SimulationConfig(
            nu=100.0, grid=g, u0=Field(g, np.ones(n)), source=src,
            dt=1e-3, t_end=3.0, snapshot_stride=10**9,
        )
        rec = simulate(cfg)
        consts = TheoremConstants.from_problem(cfg.u0, src, cfg.nu)
        assert consts.B * cfg.t_end > 709
        report = check_gradient_energy_envelope(rec, consts, src)
        assert math.isfinite(report.envelope_margin)
        assert report.envelope_ok


class TestForcingGap:
    @staticmethod
    def per_time(record, src):
        f_inf = src.f_limit()
        return np.array([l2(src.evaluate(t).values - f_inf.values, src.grid.dx) ** 2
                         for t in record.times])

    @staticmethod
    def factored(record, src):
        """per_time for a separable source: (|g(t)| ||mean_zero(cos(pi x))||_2)^2."""
        dx = src.grid.dx
        norm = l2(mean_zero(np.cos(np.pi * src.grid.nodes), dx), dx)
        g = _amplitude(src)[0]
        return np.array([(abs(g(t)) * norm) ** 2 for t in record.times])

    def check(self, record, src):
        got, rows = forcing_gap_sq(src, record.times), self.per_time(record, src)
        if not isinstance(src, SeparableSource):
            assert np.array_equal(got, rows)
            return
        assert np.array_equal(got, self.factored(record, src))
        assert np.all(np.abs(got - rows) <= 1e-14 * rows)

    def test_equals_per_time_loop(self, ex33_record):
        self.check(ex33_record, ex33_record.config.source)

    @pytest.mark.parametrize("spec", ["cosine_exp 0.7", "cosine_static 1.5", "tabulated"])
    def test_other_families_equal_per_time_loop(self, spec):
        g = Grid(201)
        if spec == "tabulated":
            cos = np.cos(np.pi * g.nodes)
            src = TabulatedSource([0.0, 1.0, 2.0],
                                  [Field(g, (1 - t / 2) * cos) for t in (0.0, 1.0, 2.0)])
        else:
            src = make_source(g, spec)
        self.check(SimpleNamespace(times=[k * 1e-3 for k in range(2001)]), src)

    def test_nan_sample_raises(self, ex33_record, ex33_consts):
        bad_t = ex33_record.times[100]

        def fn(x, t):
            scale = np.nan if t == bad_t else min(1.0, 1.0 / t if t > 0 else 1.0)
            return scale * np.cos(np.pi * x)

        src = CallableSource(ex33_record.config.grid, fn, f_limit_fn=lambda x: 0.0 * x)
        with pytest.raises(ValueError, match="non-finite"):
            check_gradient_energy_envelope(ex33_record, ex33_consts, src)


class TestInhomogeneousEnvelope:
    def test_rejects_failed_hypotheses(self, ex33_record):
        bad = TheoremConstants.from_values(0.9, 2.0, 2.0, 1.0)
        with pytest.raises(HypothesisError):
            check_inhomogeneous_envelope(
                ex33_record, bad, ex33_record.config.source
            )

    def test_homogeneous_source_reduces_to_rate_B(self, ex24_record):
        # with f constant the forcing gap vanishes and the bound is a pure
        # exponential with rate B; B < lambda_hom here, so it must also hold
        cfg = ex24_record.config
        consts = TheoremConstants.from_problem(cfg.u0, cfg.source, cfg.nu)
        assert consts.N_infinity == 0.0
        report = check_inhomogeneous_envelope(ex24_record, consts, cfg.source,
                                              floor=1e-4)
        assert report.theory_rate == pytest.approx(consts.B, rel=1e-14)
        assert report.envelope_ok
        assert consts.B <= consts.lambda_hom


class TestDirectConvergence:
    def test_kicked_cosine(self, ex24_record):
        # snapshots are strided, so the floor must sit just above the
        # discretization plateau (~6e-6) to keep ten samples in the window
        report = check_direct_convergence(ex24_record, 0.8467, floor=1e-5)
        assert report.fitted_rate >= 0.80
        assert report.envelope_ok

    def test_steady_start_stays_on_floor(self):
        n = 401
        g = Grid(n)
        src = make_source(g, f"cosine_static {math.pi / 2}")
        from singheat.steady import steady_profile

        ss = steady_profile(src, 1.0, which="initial")
        u0 = ss.u_infinity
        u0 = u0.with_values(u0.values / np.trapezoid(u0.values, dx=g.dx))
        cfg = SimulationConfig(
            nu=1.0, grid=g, u0=u0, source=src, dt=1e-3, t_end=0.5,
            snapshot_stride=100,
        )
        rec = simulate(cfg)
        errs = [h1(u.values - ss.u_infinity.values, g.dx) for u in rec.snapshots]
        assert max(errs) < 10 * ss.residual_l2

    def test_inverse_and_direct_rates_agree(self):
        n = 201
        g = Grid(n)
        vals = 1.0 / (1.0 + 0.1 * np.sin(np.pi * g.nodes))
        vals /= np.trapezoid(vals, dx=g.dx)
        cfg = SimulationConfig(
            nu=1.0, grid=g, u0=Field(g, vals), source=make_source(g, "zero"),
            dt=1e-3, t_end=2.0, snapshot_stride=20,
        )
        rec = simulate(cfg)
        direct = check_direct_convergence(rec, 0.0, floor=1e-7)
        inverse_rate, _, _ = fit_rate(rec.times, rec.h1_error_inverse,
                                      floor=1e-7)
        assert direct.fitted_rate == pytest.approx(inverse_rate, rel=0.10)


def test_report_serialization(tmp_path):
    report = DecayReport(
        fitted_rate=1.0, fitted_prefactor=0.4, theory_rate=0.9,
        envelope_ok=True, envelope_margin=0.7, fit_window=(0.5, 3.0),
        floor=1e-9,
    )
    path = tmp_path / "report.json"
    report.to_json(path)
    import json

    data = json.loads(path.read_text())
    assert data["envelope_ok"] is True
    assert data["fit_window"] == [0.5, 3.0]


def test_envelope_csv(tmp_path):
    path = tmp_path / "env.csv"
    t = np.linspace(0, 1, 5)
    envelope_csv(path, t, np.exp(-t), 0.9 * np.exp(-t))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,bound,observed"
    assert len(lines) == 6
