import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from singheat.errors import ConfigError
from singheat.grid import Field, Grid, l2, trapezoid_integral
from singheat.source import (
    CallableSource,
    CosineDecaySource,
    CosineExpSource,
    CosineStaticSource,
    HomogeneousSource,
    TabulatedSource,
    compute_N_infinity,
    compute_P0,
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
        assert np.max(np.abs(src.f_limit().values - src.f_initial().values)) < 1e-14

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
        # the stored field is the profile projected twice, as SourceTerm.samples
        # projects the once-projected profile
        profile = Field(grid, 1.5 * np.cos(np.pi * grid.nodes))
        assert np.array_equal(
            first.values, mean_zero(mean_zero(profile.values, grid.dx), grid.dx)
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
        assert np.array_equal(src.samples(np.array([1.0, 7.0]))[1], last)
        assert np.array_equal(src.evaluate(100.0).values, src.f_limit().values)

    def test_nonincreasing_times_rejected(self, grid):
        z = Field(grid, np.zeros(grid.n))
        with pytest.raises(ConfigError):
            TabulatedSource([0.0, 0.0], [z, z])

    def test_derivative_is_zero_past_the_table(self):
        # f decays linearly to zero at t = 2 and stays there
        g = Grid(51)
        cos = 0.5 * np.cos(np.pi * g.nodes)
        src = TabulatedSource([0.0, 1.0, 2.0],
                              [Field(g, (1 - t / 2) * cos) for t in (0.0, 1.0, 2.0)])
        assert np.array_equal(src.dfdt(1.5), src._table[2] - src._table[1])
        assert np.array_equal(src.dfdt(2.0), src._table[2] - src._table[1])
        assert np.all(src.dfdt(2.0 + 1e-9) == 0.0)
        assert np.all(src.dfdt(np.array([2.5, 50.0])) == 0.0)
        assert src.tail_norm_integral(2.0) == 0.0
        assert src.tail_norm_integral(100.0) == 0.0
        assert src.tail_norm_integral(1.5) is None
        # f_t = -cos(pi x) / 4 on (0, 2): N_inf = 2 * ||sin(pi x) / pi||_2 / 4
        val, truncated = compute_N_infinity(src)
        assert not truncated
        assert val == pytest.approx(COS_PRIMITIVE_NORM / 2, rel=1e-3)

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
                          f_limit_fn=lambda x: 0.0 * x,
                          dfdt_fn=lambda x, t: -np.exp(-t) * np.cos(np.pi * x))


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
    for method in (src._raw, src.dfdt, src.samples):
        rows = method(times)
        assert rows.shape == (len(times), g.n)
        for t, row in zip(times, rows):
            assert np.array_equal(row, method(t))
            assert np.array_equal(row, method(float(t)))
    for t, row in zip(times, src.samples(times)):
        assert np.array_equal(row, src.evaluate(t).values)
    # the march's reads: read-only rows, each with its own time's bits
    block = src.at(times)
    assert block.shape == (len(times), g.n) and not block.flags.writeable
    for t, row in zip(times.tolist(), block):
        assert row.tobytes() == src.at(t).tobytes() == src.samples(t).tobytes()
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
    # a march asks for f at k dt + dt (the step) and at (k + 1) dt (its
    # record); at this k the two differ, so each must be evaluated on its own,
    # and asked again, gives the same bits
    g = Grid(41)
    src = (CallableSource(g, lambda x, t: t * np.cos(np.pi * x)) if kind == "linear_in_t"
           else SOURCES[kind][0](g))
    dt = 1e-3
    k = next(k for k in range(1100, 2000) if k * dt + dt != (k + 1) * dt)
    t1, t2 = k * dt + dt, (k + 1) * dt
    first, second, again = src.evaluate(t1), src.evaluate(t2), src.evaluate(t1)
    for t, got in ((t1, first), (t2, second), (t1, again)):
        assert np.array_equal(got.values, src.samples(t))
    if kind == "linear_in_t":
        assert not np.array_equal(first.values, second.values)


def test_cosine_rows_keep_the_scalar_formulas():
    # the formulas as scalar code wrote them, with numpy's and Python's pow
    g = Grid(41)
    cos = _cos(g)
    decay = CosineDecaySource(g).dfdt(DECAY_TIMES)
    for t, row in zip(DECAY_TIMES, decay):
        assert np.array_equal(row, np.zeros(g.n) if t <= 1.0 else -cos / t**2)
    raw = CosineDecaySource(g)._raw(DECAY_TIMES)
    for t, row in zip(DECAY_TIMES, raw):
        assert np.array_equal(row, min(1.0, 1.0 / t if t > 0 else 1.0) * cos)
    src = CosineExpSource(g, 0.7)
    for t, row in zip(DECAY_TIMES, src.dfdt(DECAY_TIMES)):
        assert np.array_equal(row, -0.7 * np.exp(-0.7 * t) * cos)


def _per_time_N_infinity(src, t_cut, dt_quad=1e-2):
    """compute_N_infinity one time at a time, on numpy's and scipy's quadratures."""
    dx = src.grid.dx

    def rate(t):
        y = cumulative_trapezoid(src.dfdt(t), dx=dx, initial=0.0)
        return math.sqrt(np.trapezoid(y * y, dx=dx))

    cuts = sorted({0.0, t_cut, *(b for b in src.breakpoints if 0.0 < b < t_cut)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        ts = np.linspace(a, b, max(2, int(np.ceil((b - a) / dt_quad)) + 1))
        ts_eval = ts.copy()
        ts_eval[0] += 1e-9 * (b - a)
        ts_eval[-1] -= 1e-9 * (b - a)
        total += np.trapezoid(np.array([rate(t) for t in ts_eval]), ts)
    tail = src.tail_norm_integral(t_cut)
    return (total, True) if tail is None else (total + tail, False)


@pytest.mark.parametrize("kind,t_cut", [
    ("cosine_decay", 100.0), ("cosine_exp", 100.0), ("tabulated", 5.0), ("callable", 5.0),
])
def test_N_infinity_equals_per_time_loop(kind, t_cut):
    src = SOURCES[kind][0](Grid(201))
    assert compute_N_infinity(src, t_cut=t_cut) == _per_time_N_infinity(src, t_cut)


def test_nan_sample_raises():
    g = Grid(41)

    def dfdt(x, t):
        return np.full_like(x, np.nan) if abs(t - 0.5) < 1e-12 else -np.cos(np.pi * x)

    src = CallableSource(g, lambda x, t: np.cos(np.pi * x) * (1 - t), dfdt_fn=dfdt)
    with pytest.raises(ValueError, match="non-finite"):
        compute_N_infinity(src, t_cut=1.0, dt_quad=0.1)


@pytest.mark.parametrize("arg,value", [
    ("dt_quad", -1.0), ("dt_quad", math.inf), ("dt_quad", 0.0), ("dt_quad", math.nan),
    ("t_cut", math.inf), ("t_cut", 0.0), ("t_cut", -1.0), ("t_cut", math.nan),
])
def test_N_infinity_refuses_bad_quadrature_arguments(arg, value):
    # each once gave a wrong value (a 2-point trapezoid) or a bare numeric error
    with pytest.raises(ValueError, match=f"{arg} must be finite and positive"):
        compute_N_infinity(CosineExpSource(Grid(41), 1.0), **{arg: value})


def test_negative_time_rejected_in_rows(grid):
    with pytest.raises(ValueError, match="negative time"):
        CosineExpSource(grid, 1.0).samples(np.array([0.0, -0.5]))


def test_tabulated_range_checked_in_rows():
    g = Grid(41)
    src = TabulatedSource([1.0, 2.0], [Field(g, _cos(g)), Field(g, 2 * _cos(g))])
    with pytest.raises(ConfigError, match="t=0.5 before"):
        src.samples(np.array([1.5, 0.5]))


def test_N_infinity_memory_is_bounded():
    # row blocks keep the working set small at n = 2001; the whole
    # (times x nodes) array would be about 160 MB
    src = CosineExpSource(Grid(2001), 0.7)
    tracemalloc.start()
    try:
        compute_N_infinity(src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


#: a warm second N-infinity call in a fresh interpreter that loads no scipy,
#: whose import raises glibc's dynamic mmap and trim thresholds and would hide
#: the churn; prints that call's minor page faults
WARM_N_INFINITY = """
import resource
from singheat.grid import Grid
from singheat.source import compute_N_infinity, make_source
src = make_source(Grid(2001), "cosine_exp 1")
compute_N_infinity(src)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
compute_N_infinity(src)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_N_infinity_blocks_are_not_trimmed_and_faulted_in_again():
    # blocks whose temporaries reach glibc's 128 KiB thresholds are given back
    # to the system and faulted in again each time: 2**14 samples a block
    # make about 80,000-100,000 minor faults here, and 2**13 none
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", WARM_N_INFINITY],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 5000
