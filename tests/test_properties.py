"""Property tests on drawn forcing data: N_infinity's row blocks keep the per-time bits.

hypothesis draws a forcing family (`cosine_decay`; `cosine_exp` with rates up
to 50, whose f_t underflows to zero rows at late times; tabulated; a callable
with its own time derivative; the static cosine), a grid of at most 201 nodes,
t_cut, dt_quad, and a block of one to four rows, so that one-row blocks and
partial last blocks occur.  The runs are derandomized and keep no example
database, so every run sees the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singheat import source
from singheat.grid import Field, Grid
from singheat.source import (
    CallableSource,
    CosineDecaySource,
    CosineExpSource,
    CosineStaticSource,
    TabulatedSource,
    compute_N_infinity,
)
from test_source import _per_time_N_infinity

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
        got = compute_N_infinity(src, t_cut=t_cut, dt_quad=dt_quad)
    assert got == _per_time_N_infinity(src, t_cut, dt_quad)


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
