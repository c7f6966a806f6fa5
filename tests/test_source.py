import numpy as np
import pytest

from singheat.errors import ConfigError
from singheat.grid import Field, Grid, l2_norm, trapezoid_integral
from singheat.source import (
    CallableSource,
    CosineDecaySource,
    CosineExpSource,
    CosineStaticSource,
    HomogeneousSource,
    TabulatedSource,
    compute_functionals,
    compute_N_infinity,
    compute_P,
    compute_P0,
    load_tabulated_csv,
    make_source,
    project_mean_zero,
)

COS_PRIMITIVE_NORM = 1.0 / (np.pi * np.sqrt(2.0))  # ||sin(pi x)/pi||_2


@pytest.fixture(scope="module")
def grid():
    return Grid(2001)


def test_project_mean_zero(grid):
    f = Field(grid, grid.nodes**2 + 1.0)
    g = project_mean_zero(f)
    assert trapezoid_integral(g) == pytest.approx(0.0, abs=1e-15)


class TestEvaluate:
    def test_all_evaluations_mean_zero(self, grid):
        for src in (
            CosineStaticSource(grid, 2.0),
            CosineDecaySource(grid),
            CosineExpSource(grid, 0.7),
        ):
            for t in (0.0, 0.5, 1.0, 3.0):
                assert trapezoid_integral(src.evaluate(t)) == pytest.approx(
                    0.0, abs=1e-14
                )

    def test_negative_time_rejected(self, grid):
        with pytest.raises(ValueError):
            CosineStaticSource(grid, 1.0).evaluate(-0.1)

    def test_static_is_time_independent(self, grid):
        src = CosineStaticSource(grid, 1.5)
        assert not src.time_dependent
        assert np.array_equal(src.evaluate(0.0).values, src.evaluate(7.0).values)
        assert np.max(np.abs(src.f_limit().values - src.f_initial().values)) < 1e-14

    def test_decay_profile(self, grid):
        src = CosineDecaySource(grid)
        f0 = src.evaluate(0.0).values
        assert np.max(np.abs(src.evaluate(0.5).values - f0)) < 1e-14
        assert np.max(np.abs(src.evaluate(4.0).values - f0 / 4.0)) < 1e-14
        assert l2_norm(src.f_limit()) == 0.0

    def test_exp_profile(self, grid):
        src = CosineExpSource(grid, 2.0)
        f0 = src.evaluate(0.0).values
        assert np.max(np.abs(src.evaluate(1.0).values - f0 * np.exp(-2.0))) < 1e-14

    def test_exp_rate_must_be_positive(self, grid):
        with pytest.raises(ConfigError):
            CosineExpSource(grid, -1.0)

    def test_static_evaluation_is_computed_once(self, grid):
        src = CosineStaticSource(grid, 1.5)
        first = src.evaluate(0.0)
        assert src.evaluate(3.0) is first
        # the stored field is the projection of the already projected profile
        assert np.array_equal(
            first.values, project_mean_zero(src.f_limit()).values
        )
        with pytest.raises(ValueError):
            src.evaluate(-1)

    def test_homogeneous_with_nonzero_mean_input(self, grid):
        src = HomogeneousSource(Field(grid, np.cos(np.pi * grid.nodes) + 5.0))
        assert trapezoid_integral(src.evaluate(0.0)) == pytest.approx(0.0, abs=1e-13)


class TestDfdt:
    def test_decay_piecewise(self, grid):
        src = CosineDecaySource(grid)
        assert np.all(src.dfdt(0.5) == 0.0)
        expect = -np.cos(np.pi * grid.nodes) / 4.0
        assert np.max(np.abs(src.dfdt(2.0) - expect)) < 1e-14

    def test_exp(self, grid):
        src = CosineExpSource(grid, 3.0)
        expect = -3.0 * np.exp(-3.0) * np.cos(np.pi * grid.nodes)
        assert np.max(np.abs(src.dfdt(1.0) - expect)) < 1e-14

    def test_static_is_zero(self, grid):
        assert np.all(CosineStaticSource(grid, 1.0).dfdt(1.0) == 0.0)

    def test_callable_without_derivative_raises(self, grid):
        src = CallableSource(grid, lambda x, t: np.sin(np.pi * x) * t)
        with pytest.raises(ConfigError):
            src.dfdt(0.5)


class TestP:
    def test_P0_cosine_analytic(self, grid):
        src = CosineStaticSource(grid, 1.0)
        assert compute_P0(src) == pytest.approx(COS_PRIMITIVE_NORM, abs=1e-7)

    def test_P0_scales_with_amplitude(self, grid):
        a = compute_P0(CosineStaticSource(grid, 1.0))
        b = compute_P0(CosineStaticSource(grid, 3.0))
        assert b == pytest.approx(3 * a, rel=1e-13)

    def test_P_of_t_decay(self, grid):
        src = CosineDecaySource(grid)
        assert compute_P(src, 5.0) == pytest.approx(compute_P0(src) / 5.0, rel=1e-12)


class TestNInfinity:
    def test_static_source_zero(self, grid):
        val, truncated = compute_N_infinity(CosineStaticSource(grid, 2.0))
        assert val == 0.0
        assert not truncated

    def test_decay_closed_form(self, grid):
        # integral of ||sin(pi x)/pi||_2 / t^2 over (1, inf) = ||.||_2
        val, truncated = compute_N_infinity(CosineDecaySource(grid))
        assert not truncated
        assert val == pytest.approx(COS_PRIMITIVE_NORM, rel=1e-4)

    def test_exp_closed_form(self, grid):
        rate = 1.7
        val, truncated = compute_N_infinity(CosineExpSource(grid, rate))
        assert not truncated
        assert val == pytest.approx(COS_PRIMITIVE_NORM, rel=1e-4)

    def test_tail_flag_for_callable(self, grid):
        src = CallableSource(
            grid,
            lambda x, t: np.exp(-t) * np.cos(np.pi * x),
            dfdt_fn=lambda x, t: -np.exp(-t) * np.cos(np.pi * x),
        )
        val, truncated = compute_N_infinity(src, t_cut=30.0)
        assert truncated
        assert val == pytest.approx(COS_PRIMITIVE_NORM, rel=1e-4)

    def test_brute_force_quadrature_oracle(self, grid):
        # independent rectangle-rule check against the production quadrature
        src = CosineDecaySource(grid)
        ts = np.linspace(1.0, 400.0, 80000)
        brute = np.trapezoid(COS_PRIMITIVE_NORM / ts**2, ts) + COS_PRIMITIVE_NORM / 400.0
        val, _ = compute_N_infinity(src)
        # both quadratures are second order; agreement limited by the
        # production step dt_quad = 1e-2 near t = 1
        assert val == pytest.approx(brute, rel=1e-4)


def test_compute_functionals_decay(grid):
    src = CosineDecaySource(grid)
    times = np.linspace(0.0, 10.0, 2001)
    fn = compute_functionals(src, times)
    assert fn.P0 == pytest.approx(COS_PRIMITIVE_NORM, abs=1e-6)
    assert not fn.tail_truncated
    assert np.all(np.diff(fn.N_of_t) >= 0)
    # N(t) = P0 (1 - 1/t) for t > 1
    k = np.searchsorted(times, 5.0)
    # sampled cumulative trapezoid crosses the kink at t = 1, so the
    # accuracy there is first order in the sampling step
    assert fn.N_of_t[k] == pytest.approx(COS_PRIMITIVE_NORM * (1 - 1 / 5.0), rel=5e-3)
    assert fn.N_infinity == pytest.approx(COS_PRIMITIVE_NORM, rel=1e-4)


class TestTabulated:
    def test_linear_interpolation(self, grid):
        f0 = Field(grid, np.cos(np.pi * grid.nodes))
        f1 = Field(grid, 3 * np.cos(np.pi * grid.nodes))
        src = TabulatedSource([0.0, 2.0], [f0, f1])
        mid = src.evaluate(1.0).values
        assert np.max(np.abs(mid - 2 * np.cos(np.pi * grid.nodes))) < 1e-13

    def test_out_of_range_rejected(self, grid):
        src = TabulatedSource([0.0, 1.0], [Field(grid, np.zeros(grid.n))] * 2)
        with pytest.raises(ConfigError):
            src.evaluate(2.0)

    def test_nonincreasing_times_rejected(self, grid):
        z = Field(grid, np.zeros(grid.n))
        with pytest.raises(ConfigError):
            TabulatedSource([0.0, 0.0], [z, z])

    def test_csv_roundtrip(self, tmp_path):
        g = Grid(21)
        times = [0.0, 1.0]
        rows = ["t,x,f"]
        for t in times:
            for x in g.nodes:
                rows.append(f"{t},{x:.17g},{(1 + t) * np.sin(np.pi * x):.17g}")
        path = tmp_path / "src.csv"
        path.write_text("\n".join(rows) + "\n")
        src = load_tabulated_csv(g, path)
        expect = project_mean_zero(Field(g, 1.5 * np.sin(np.pi * g.nodes)))
        assert np.max(np.abs(src.evaluate(0.5).values - expect.values)) < 1e-12


class TestMakeSource:
    @pytest.mark.parametrize("spec,cls", [
        ("zero", HomogeneousSource),
        ("cosine_static 0.5", CosineStaticSource),
        ("cosine_decay", CosineDecaySource),
        ("cosine_exp 2.0", CosineExpSource),
    ])
    def test_dispatch(self, grid, spec, cls):
        assert isinstance(make_source(grid, spec), cls)

    def test_zero_source(self, grid):
        src = make_source(grid, "zero")
        assert not src.time_dependent
        assert l2_norm(src.evaluate(0.0)) == 0.0

    @pytest.mark.parametrize("spec", ["", "cosine_static", "cosine_static 1 2", "wobble"])
    def test_bad_specs(self, grid, spec):
        with pytest.raises(ConfigError):
            make_source(grid, spec)
