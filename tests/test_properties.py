"""Property tests on drawn data: N_infinity keeps the bits of its per-time
references, and the march keeps the theorems' invariants.

For N_infinity, hypothesis draws a forcing family (`cosine_decay`;
`cosine_exp` with rates up to 50, whose f_t underflows to zero rows at late
times; tabulated; a callable with its own time derivative; the static
cosine), a grid of at most 201 nodes, t_cut, dt_quad, and a block of one to
four rows, so that one-row blocks and partial last blocks occur.  The two
cosine families keep the factored reference's bits (|g'(t)| times the
profile's norm) and the row reference's value within 1e-14; the others keep
the row reference's bits.  For the
march, it draws admissible data (u0 = inverse_sine eps, a `cosine_static`
amplitude or a `cosine_exp` rate, nu inside its theorem's box), a grid of at
most 201 nodes, and up to 20 steps at mesh ratios dt/dx² up to 4000.  The
runs are derandomized and keep no example database, so every run sees the
same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singheat import source
from singheat.constants import TheoremConstants
from singheat.grid import Field, Grid, trapezoid
from singheat.solver import SimulationConfig, simulate
from singheat.source import (
    CallableSource,
    CosineDecaySource,
    CosineExpSource,
    CosineStaticSource,
    TabulatedSource,
)
from test_source import check_N_infinity

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _modes(g: Grid, coefs) -> np.ndarray:
    """sum_k c_k cos(k pi x) at the grid's nodes."""
    return sum(c * np.cos(k * np.pi * g.nodes) for k, c in enumerate(coefs, 1))


@st.composite
def sources(draw):
    g = Grid(draw(st.integers(3, 201), label="n"))
    kind = draw(st.sampled_from(
        ["cosine_decay", "cosine_exp", "tabulated", "callable", "cosine_static"]), label="kind")
    coefs = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)
    if kind == "cosine_decay":
        return CosineDecaySource(g)
    if kind == "cosine_exp":
        return CosineExpSource(g, draw(st.floats(0.05, 50.0), label="rate"))
    if kind == "cosine_static":
        return CosineStaticSource(g, draw(st.floats(-2.0, 2.0), label="amplitude"))
    if kind == "tabulated":
        gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3), label="gaps")
        times = np.cumsum([0.0, *gaps])
        return TabulatedSource(times, [Field(g, _modes(g, draw(coefs))) for _ in times])
    rate, profile = draw(st.floats(0.1, 5.0), label="rate"), _modes(g, draw(coefs))
    return CallableSource(g, lambda x, t: np.exp(-rate * t) * profile,
                          dfdt_fn=lambda x, t: -rate * np.exp(-rate * t) * profile)


@PROPERTY
@given(src=sources(), data=st.data())
def test_N_infinity_blocks_equal_the_per_time_loop(src, data):
    n = src.grid.n
    t_cut = data.draw(st.floats(0.05, 20.0), label="t_cut")
    dt_quad = data.draw(st.floats(0.05, 2.0), label="dt_quad")
    block_values = data.draw(st.integers(n, 4 * n), label="block values")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(source, "_BLOCK_VALUES", block_values)
        check_N_infinity(src, t_cut, dt_quad)


@PROPERTY
@given(src=sources(), times=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6))
def test_dfdt_writes_its_bits_into_out(src, times):
    ts = np.array(times)
    # NaN wherever dfdt fails to write
    rows, row = np.full((len(ts), src.grid.n), np.nan), np.full(src.grid.n, np.nan)
    assert src.dfdt(ts, out=rows) is rows
    assert rows.tobytes() == src.dfdt(ts).tobytes()
    assert src.dfdt(ts[0], row) is row
    assert row.tobytes() == src.dfdt(ts[0]).tobytes()


@st.composite
def marches(draw):
    """A SimulationConfig on admissible data, and its theorem constants."""
    g = Grid(draw(st.integers(11, 201), label="n"))
    eps = draw(st.floats(0.0, 0.3), label="eps")
    u0 = 1.0 / (1.0 + eps * np.sin(np.pi * g.nodes))
    u0 = Field(g, u0 / trapezoid(u0, g.dx))
    if draw(st.booleans(), label="static"):
        src = CosineStaticSource(g, draw(st.floats(-2.0, 2.0), label="amplitude"))
    else:
        src = CosineExpSource(g, draw(st.floats(0.2, 5.0), label="rate"))
    # nu from 1.05 to 4 times the theorem's threshold (at least 0.1)
    consts = TheoremConstants.from_problem(u0, src, 1.0)
    threshold = consts.nu_plus if src.time_dependent else 2 * consts.P0 / (1 - consts.R0)
    nu = max(threshold, 0.1) * draw(st.floats(1.05, 4.0), label="nu factor")
    # a decade and a mantissa: mesh ratios from 0.1 to 4000, in every decade
    ratio = draw(st.floats(1.0, 4.0), label="mantissa") * 10.0 ** draw(st.integers(-1, 3),
                                                                       label="decade")
    dt, steps = ratio * g.dx**2, draw(st.integers(1, 20), label="steps")
    cfg = SimulationConfig(nu=nu, grid=g, u0=u0, source=src, dt=dt, t_end=steps * dt)
    return cfg, TheoremConstants.from_problem(u0, src, nu)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(drawn=marches())
def test_march_keeps_mass_positivity_bounds_and_energy(drawn):
    cfg, consts = drawn
    rec = simulate(cfg)
    assert rec.failure is None
    assert np.max(np.abs(rec.mass - rec.mass[0])) <= 1e-13
    assert rec.min_u.min() > 0
    if cfg.source.time_dependent:
        assert consts.inhom_ok
        lo, hi = consts.A_minus, consts.A_plus
    else:
        lo, hi = consts.homogeneous_bounds()
        assert np.max(np.diff(rec.energy), initial=0.0) <= 1e-10
    assert lo - 1e-12 <= rec.min_u.min() and rec.max_u.max() <= hi + 1e-12
