import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from singheat.errors import ConfigError
from singheat.grid import Field, Grid, l2, trapezoid_integral
from singheat.source import (
    CallableSource,
    CosineDecaySource,
    CosineExpSource,
    CosineStaticSource,
    HomogeneousSource,
    SeparableSource,
    TabulatedSource,
    compute_N_infinity,
    compute_P0,
    forcing_gap_sq,
    load_tabulated_csv,
    make_source,
    mean_zero,
)

COS_PRIMITIVE_NORM = 1.0 / (np.pi * np.sqrt(2.0))  # ||sin(pi x)/pi||_2


@pytest.fixture(scope="module")
def grid():
    return Grid(2001)


def test_project_mean_zero(grid):
    f = Field(grid, grid.nodes**2 + 1.0)
    g = Field(grid, mean_zero(f.values, grid.dx))
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
        assert np.max(np.abs(src.f_limit().values - src.evaluate(0.0).values)) < 1e-14

    def test_decay_profile(self, grid):
        src = CosineDecaySource(grid)
        f0 = src.evaluate(0.0).values
        assert np.max(np.abs(src.evaluate(0.5).values - f0)) < 1e-14
        assert np.max(np.abs(src.evaluate(4.0).values - f0 / 4.0)) < 1e-14
        assert l2(src.f_limit().values, grid.dx) == 0.0

    def test_exp_profile(self, grid):
        src = CosineExpSource(grid, 2.0)
        f0 = src.evaluate(0.0).values
        assert np.max(np.abs(src.evaluate(1.0).values - f0 * np.exp(-2.0))) < 1e-14

    def test_exp_rate_must_be_positive(self, grid):
        with pytest.raises(ConfigError):
            CosineExpSource(grid, -1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_exp_rate_must_be_finite(self, grid, rate):
        # exp(-rate t) is nan at t = 0 for an infinite rate, and everywhere for nan
        with pytest.raises(ConfigError, match="finite positive decay rate"):
            CosineExpSource(grid, rate)

    def test_static_evaluation_is_computed_once(self, grid):
        src = CosineStaticSource(grid, 1.5)
        first = src.evaluate(0.0)
        # the profile is sampled once; every later read is that array
        assert src.at(3.0) is src.at(0.0) is src.f_limit().values
        assert np.array_equal(src.evaluate(3.0).values, first.values)
        # the stored field is the profile projected twice, as every static
        # artifact was made
        profile = Field(grid, 1.5 * np.cos(np.pi * grid.nodes))
        assert np.array_equal(
            first.values, mean_zero(mean_zero(profile.values, grid.dx), grid.dx)
        )
        with pytest.raises(ValueError):
            src.evaluate(-1)

    def test_homogeneous_with_nonzero_mean_input(self, grid):
        src = HomogeneousSource(Field(grid, np.cos(np.pi * grid.nodes) + 5.0))
        assert trapezoid_integral(src.evaluate(0.0)) == pytest.approx(0.0, abs=1e-13)


def _central_difference(src, t, h=1e-4):
    """(f(t + h) - f(t - h)) / 2h: f_t, which N_infinity integrates, from the samples."""
    return (src.at(t + h) - src.at(t - h)) / (2 * h)


class TestDfdt:
    # the package no longer writes f_t; these check the time derivative its
    # closed forms assume, from the samples alone

    def test_decay_piecewise(self, grid):
        src = CosineDecaySource(grid)
        assert np.all(_central_difference(src, 0.5) == 0.0)
        expect = -mean_zero(np.cos(np.pi * grid.nodes), grid.dx) / 4.0
        assert np.max(np.abs(_central_difference(src, 2.0) - expect)) < 1e-8

    def test_exp(self, grid):
        src = CosineExpSource(grid, 3.0)
        expect = -3.0 * np.exp(-3.0) * mean_zero(np.cos(np.pi * grid.nodes), grid.dx)
        assert np.max(np.abs(_central_difference(src, 1.0) - expect)) < 1e-8

    def test_static_is_zero(self, grid):
        assert np.all(_central_difference(CosineStaticSource(grid, 1.0), 1.0) == 0.0)

    def test_callable_without_derivative_raises(self, grid):
        # a callable's f_t has no closed-form total variation
        src = CallableSource(grid, lambda x, t: np.sin(np.pi * x) * t)
        with pytest.raises(ConfigError, match="callable"):
            compute_N_infinity(src)


class TestP:
    def test_P0_cosine_analytic(self, grid):
        src = CosineStaticSource(grid, 1.0)
        assert compute_P0(src) == pytest.approx(COS_PRIMITIVE_NORM, abs=1e-7)

    def test_P0_scales_with_amplitude(self, grid):
        a = compute_P0(CosineStaticSource(grid, 1.0))
        b = compute_P0(CosineStaticSource(grid, 3.0))
        assert b == pytest.approx(3 * a, rel=1e-13)


class TestNInfinity:
    def test_static_source_zero(self, grid):
        assert compute_N_infinity(CosineStaticSource(grid, 2.0)) == 0.0

    def test_decay_closed_form(self, grid):
        # integral of ||sin(pi x)/pi||_2 / t^2 over (1, inf) = ||.||_2, up to
        # the grid's primitive, whose error is O(dx^2)
        val = compute_N_infinity(CosineDecaySource(grid))
        assert val == pytest.approx(COS_PRIMITIVE_NORM, rel=grid.dx**2)

    def test_exp_closed_form(self, grid):
        rate = 1.7
        val = compute_N_infinity(CosineExpSource(grid, rate))
        assert val == pytest.approx(COS_PRIMITIVE_NORM, rel=grid.dx**2)

    def test_brute_force_quadrature_oracle(self, grid):
        # an independent trapezoid rule in time, closed past t = 400
        src = CosineDecaySource(grid)
        ts = np.linspace(1.0, 400.0, 80000)
        brute = np.trapezoid(COS_PRIMITIVE_NORM / ts**2, ts) + COS_PRIMITIVE_NORM / 400.0
        assert compute_N_infinity(src) == pytest.approx(brute, rel=1e-4)


class TestTabulated:
    def test_linear_interpolation(self, grid):
        f0 = Field(grid, np.cos(np.pi * grid.nodes))
        f1 = Field(grid, 3 * np.cos(np.pi * grid.nodes))
        src = TabulatedSource([0.0, 2.0], [f0, f1])
        mid = src.evaluate(1.0).values
        assert np.max(np.abs(mid - 2 * np.cos(np.pi * grid.nodes))) < 1e-13

    def test_out_of_range_rejected(self, grid):
        # only times before the table are out of range; past it f is held
        src = TabulatedSource([0.5, 1.0], [Field(grid, np.zeros(grid.n))] * 2)
        with pytest.raises(ConfigError):
            src.evaluate(0.25)

    def test_last_profile_held_past_the_table(self, grid):
        f0 = Field(grid, np.cos(np.pi * grid.nodes))
        f1 = Field(grid, 3 * np.cos(np.pi * grid.nodes))
        src = TabulatedSource([0.0, 2.0], [f0, f1])
        last = src.evaluate(2.0).values
        assert np.array_equal(src.evaluate(2.5).values, last)
        assert np.array_equal(src.at(np.array([1.0, 7.0]))[1], last)
        assert np.array_equal(src.evaluate(100.0).values, src.f_limit().values)

    def test_nonincreasing_times_rejected(self, grid):
        z = Field(grid, np.zeros(grid.n))
        with pytest.raises(ConfigError):
            TabulatedSource([0.0, 0.0], [z, z])

    def test_derivative_is_zero_past_the_table(self):
        # f decays linearly to zero at t = 2 and stays there
        g = Grid(51)
        cos = 0.5 * np.cos(np.pi * g.nodes)
        fields = [Field(g, (1 - t / 2) * cos) for t in (0.0, 1.0, 2.0)]
        src = TabulatedSource([0.0, 1.0, 2.0], fields)
        for t in (2.0 + 1e-9, 2.5, 50.0):
            assert np.array_equal(src.at(t), src.at(2.0))
        # a held stamp adds nothing to N_infinity
        held = TabulatedSource([0.0, 1.0, 2.0, 9.0], [*fields, fields[-1]])
        assert compute_N_infinity(held) == compute_N_infinity(src)
        # f_t = -cos(pi x) / 4 on (0, 2): N_inf = 2 * ||sin(pi x) / pi||_2 / 4
        assert compute_N_infinity(src) == pytest.approx(COS_PRIMITIVE_NORM / 2,
                                                        rel=g.dx**2)

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
        expect = mean_zero(1.5 * np.sin(np.pi * g.nodes), g.dx)
        assert np.max(np.abs(src.evaluate(0.5).values - expect)) < 1e-12


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
        assert l2(src.evaluate(0.0).values, grid.dx) == 0.0

    @pytest.mark.parametrize("spec", ["", "cosine_static", "cosine_static 1 2", "wobble"])
    def test_bad_specs(self, grid, spec):
        with pytest.raises(ConfigError):
            make_source(grid, spec)


# --- time-axis rows: the batched code keeps the bits of the one-time code ---

def _cos(g):
    return np.cos(np.pi * g.nodes)


def _tabulated(g):
    return TabulatedSource([0.0, 1.0, 2.0],
                           [Field(g, (1 - t / 2) * 0.5 * _cos(g)) for t in (0.0, 1.0, 2.0)])


def _callable(g):
    return CallableSource(g, lambda x, t: np.exp(-t) * np.cos(np.pi * x),
                          f_limit_fn=lambda x: 0.0 * x)


# t = 0, t < 1, t = 1, t > 1, and a t where x * x and pow(x, 2) differ
DECAY_TIMES = np.array([0.0, 0.25, 1.0, 1.5, 95.97])
SOURCES = {
    "cosine_decay": (CosineDecaySource, DECAY_TIMES),
    "cosine_exp": (lambda g: CosineExpSource(g, 0.7), np.array([0.0, 0.3, 1.0, 40.0])),
    "tabulated": (_tabulated, np.array([0.0, 0.5, 1.0, 1.25, 2.0])),
    "callable": (_callable, np.array([0.0, 0.5, 2.0])),
    "cosine_static": (lambda g: CosineStaticSource(g, 1.5), np.array([0.0, 3.0])),
}


@pytest.mark.parametrize("kind", SOURCES)
def test_rows_equal_one_time_calls(kind):
    make, times = SOURCES[kind]
    g = Grid(41)
    src = make(g)
    for method in (src._raw, src.at):
        rows = method(times)
        assert rows.shape == (len(times), g.n)
        for t, row in zip(times, rows):
            assert np.array_equal(row, method(t))
            assert np.array_equal(row, method(float(t)))
    for t, row in zip(times, src.at(times)):
        assert np.array_equal(row, src.evaluate(t).values)
    # the march's reads: read-only rows, each with its own time's bits
    block = src.at(times)
    assert block.shape == (len(times), g.n) and not block.flags.writeable
    for t, row in zip(times.tolist(), block):
        assert row.tobytes() == src.at(t).tobytes()
        assert not src.at(t).flags.writeable


def test_at_refuses_what_a_field_would():
    g = Grid(41)
    late_nan = CallableSource(g, lambda x, t: np.cos(np.pi * x) * (np.nan if t > 1 else 1.0))
    assert np.isfinite(late_nan.at(np.array([0.5, 1.0]))).all()
    with pytest.raises(ValueError, match="non-finite"):
        late_nan.at(np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="non-finite"):
        late_nan.at(1.5)
    for src in (CosineStaticSource(g, 1.5), CosineExpSource(g, 0.7)):
        for t in (-0.5, np.array([0.0, -0.5])):
            with pytest.raises(ValueError, match="negative time"):
                src.at(t)
    # no memo: each read is sampled afresh
    src = CosineExpSource(g, 0.7)
    assert src.at(0.5) is not src.at(0.5)


@pytest.mark.parametrize("kind", [*(kind for kind in SOURCES if kind != "cosine_static"),
                                  "linear_in_t"])
def test_evaluate_memo_keeps_fresh_bits(kind):
    # k dt + dt and (k + 1) dt are two floats at this k, a few ulps apart:
    # each must be evaluated on its own, and asked again, gives the same bits
    g = Grid(41)
    src = (CallableSource(g, lambda x, t: t * np.cos(np.pi * x)) if kind == "linear_in_t"
           else SOURCES[kind][0](g))
    dt = 1e-3
    k = next(k for k in range(1100, 2000) if k * dt + dt != (k + 1) * dt)
    t1, t2 = k * dt + dt, (k + 1) * dt
    first, second, again = src.evaluate(t1), src.evaluate(t2), src.evaluate(t1)
    for t, got in ((t1, first), (t2, second), (t1, again)):
        assert np.array_equal(got.values, src.at(t))
    if kind == "linear_in_t":
        assert not np.array_equal(first.values, second.values)


def test_cosine_rows_keep_the_scalar_formulas():
    # the formulas as scalar code wrote them
    g = Grid(41)
    cos = _cos(g)
    raw = CosineDecaySource(g)._raw(DECAY_TIMES)
    for t, row in zip(DECAY_TIMES, raw):
        assert np.array_equal(row, min(1.0, 1.0 / t if t > 0 else 1.0) * cos)
    for t, row in zip(DECAY_TIMES, CosineExpSource(g, 0.7)._raw(DECAY_TIMES)):
        assert np.array_equal(row, np.exp(-0.7 * t) * cos)


def _amplitude(src):
    """g and |g'| of a separable family, as scalar code writes them, with the C
    library's exp."""
    if isinstance(src, CosineDecaySource):
        return (lambda t: min(1.0, 1.0 / t if t > 0 else 1.0),
                lambda t: 0.0 if t <= 1.0 else 1.0 / (t * t))
    return lambda t: math.exp(-src.rate * t), lambda t: src.rate * math.exp(-src.rate * t)


def _profile_norm(g):
    """||primitive of cos(pi x)||_2 on the grid, by scipy's and numpy's trapezoids."""
    y = cumulative_trapezoid(_cos(g), dx=g.dx, initial=0.0)
    return math.sqrt(np.trapezoid(y * y, dx=g.dx))


def _per_time_N_infinity(src, t_split):
    """N_infinity by scipy's quad over time, one time at a time, and quad's error bound.

    A separable source's integrand is |g'(t)| times the profile norm, taken on
    (0, t_split), with the tail past t_split closed as g(t_split) times that
    norm.  A tabulated one's is ||primitive of the slope between the stamps
    around t||_2, and zero past the last stamp, taken up to t_split beyond it.
    """
    if isinstance(src, SeparableSource):
        g, abs_dgdt = _amplitude(src)
        norm = _profile_norm(src.grid)
        kinks = [1.0] if isinstance(src, CosineDecaySource) and t_split > 1.0 else None
        total, err = quad(abs_dgdt, 0.0, t_split, points=kinks)
        return norm * (total + g(t_split)), norm * err
    dx, stamps = src.grid.dx, src.times
    profiles = [src.evaluate(t).values for t in stamps]
    slopes = [(b - a) / (tb - ta)
              for a, b, ta, tb in zip(profiles, profiles[1:], stamps, stamps[1:])]

    def rate(t):
        k = np.searchsorted(stamps, t, side="right") - 1
        if k >= len(slopes):    # f is held past the last stamp
            return 0.0
        y = cumulative_trapezoid(slopes[k], dx=dx, initial=0.0)
        return math.sqrt(np.trapezoid(y * y, dx=dx))

    return quad(rate, 0.0, stamps[-1] + t_split, points=stamps[1:], limit=100)


def check_N_infinity(src, t_split):
    """compute_N_infinity against its per-time reference, within the reference's error.

    A separable source also gives the bits of the profile norm times |g(0)|,
    both built here, and 1/(pi sqrt 2) within the grid's O(dx^2).  A callable
    source, with no closed form, is refused.
    """
    if isinstance(src, CallableSource):
        with pytest.raises(ConfigError, match="callable"):
            compute_N_infinity(src)
        return
    got = compute_N_infinity(src)
    if not src.time_dependent:
        assert got == 0.0
        return
    want, err = _per_time_N_infinity(src, t_split)
    # quad's error bound, and room for the rounding of the two sums
    assert abs(got - want) <= err + 1e-13 * want
    if isinstance(src, SeparableSource):
        assert got == _profile_norm(src.grid) * abs(_amplitude(src)[0](0.0))
        assert abs(got - COS_PRIMITIVE_NORM) <= src.grid.dx**2 * COS_PRIMITIVE_NORM


@pytest.mark.parametrize("kind,t_split", [
    ("cosine_decay", 100.0), ("cosine_exp", 100.0), ("tabulated", 5.0), ("callable", 5.0),
])
def test_N_infinity_equals_per_time_loop(kind, t_split):
    check_N_infinity(SOURCES[kind][0](Grid(201)), t_split)


def test_decay_tail_is_closed_before_the_kink():
    # g = min(1, 1/t) falls monotonically to 0, so the reference's tail past
    # any split is ||primitive of cos(pi x)||_2 g(split), before the kink as
    # at it and after it
    src = CosineDecaySource(Grid(201))
    for t_split in (0.5, 1.0, 3.0):
        check_N_infinity(src, t_split)


def test_nan_sample_raises():
    # the forcing gap's row blocks (399 times at n = 41) refuse a non-finite
    # sample, here in the last, partial block
    g = Grid(41)
    times = np.linspace(0.0, 1.0, 1001)
    src = CallableSource(
        g, lambda x, t: np.cos(np.pi * x) * (np.nan if t == times[-1] else 1.0 - t),
        f_limit_fn=lambda x: 0.0 * x)
    assert np.isfinite(forcing_gap_sq(src, times[:-1])).all()
    with pytest.raises(ValueError, match="non-finite"):
        forcing_gap_sq(src, times)


@pytest.mark.parametrize("arg,value", [
    ("dt_quad", -1.0), ("dt_quad", math.inf), ("dt_quad", 0.0), ("dt_quad", math.nan),
    ("t_cut", math.inf), ("t_cut", 0.0), ("t_cut", -1.0), ("t_cut", math.nan),
])
def test_N_infinity_refuses_bad_quadrature_arguments(arg, value):
    # N_infinity is exact, with no quadrature in time: an argument that once
    # set its cut-off or step is refused, whatever its value
    with pytest.raises(TypeError, match=arg):
        compute_N_infinity(CosineExpSource(Grid(41), 1.0), **{arg: value})


def test_negative_time_rejected_in_rows(grid):
    with pytest.raises(ValueError, match="negative time"):
        CosineExpSource(grid, 1.0).at(np.array([0.0, -0.5]))


def test_tabulated_range_checked_in_rows():
    g = Grid(41)
    src = TabulatedSource([1.0, 2.0], [Field(g, _cos(g)), Field(g, 2 * _cos(g))])
    with pytest.raises(ConfigError, match="t=0.5 before"):
        src.at(np.array([1.5, 0.5]))


def _two_stamp_source(g):
    """cos(pi x) at t = 0 falling linearly to 0 at t = 100."""
    cos = _cos(g)
    return TabulatedSource([0.0, 100.0], [Field(g, cos), Field(g, 0.0 * cos)])


def test_N_infinity_memory_is_bounded():
    # N_infinity reads the table's stamps alone; the forcing gap on the same
    # table, the one row-block path, keeps its working set small over 10,001
    # times at n = 2001, where the whole (times x nodes) array is about 160 MB
    src = _two_stamp_source(Grid(2001))
    times = np.linspace(0.0, 100.0, 10001)
    tracemalloc.start()
    try:
        compute_N_infinity(src)
        forcing_gap_sq(src, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
