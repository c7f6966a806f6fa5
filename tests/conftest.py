import math

import numpy as np
import pytest

from singheat import Field, Grid, grid as grid_module, make_source
from singheat.solver import SimulationConfig, simulate


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion(request):
    """Record one PASS/FAIL line per acceptance criterion.

    Lines are echoed immediately (visible in failure output) and replayed
    in the terminal summary so passing criteria are visible too.
    """

    def _report(number: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        line = f"CRITERION {number:2d}: {status} — {detail}"
        request.config._criterion_lines.append((number, line))
        print(line, flush=True)

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def fields_built(monkeypatch):
    """A list that gains the values of every Field built while the test runs."""
    built = []
    init = grid_module.Field.__init__

    def counted(self, grid, values):
        built.append(values)
        init(self, grid, values)

    monkeypatch.setattr(grid_module.Field, "__init__", counted)
    return built


@pytest.fixture(scope="session")
def ex24_record():
    """Constant-height sheet with a sine kick: nu=1, f0=(pi/2)cos(pi x)."""
    n = 401
    grid = Grid(n)
    cfg = SimulationConfig(
        nu=1.0,
        grid=grid,
        u0=Field(grid, np.ones(n)),
        source=make_source(grid, f"cosine_static {math.pi / 2}"),
        dt=1e-3,
        t_end=8.0,
        snapshot_stride=100,
    )
    return simulate(cfg)


@pytest.fixture(scope="session")
def ex33_record():
    """Decaying cosine forcing: nu=10, f = min(1, 1/t) cos(pi x)."""
    n = 201
    grid = Grid(n)
    cfg = SimulationConfig(
        nu=10.0,
        grid=grid,
        u0=Field(grid, np.ones(n)),
        source=make_source(grid, "cosine_decay"),
        dt=1e-3,
        t_end=3.0,
        snapshot_stride=100,
    )
    return simulate(cfg)


@pytest.fixture(scope="session")
def long_record():
    """10^4-step run for per-step conservation checks."""
    n = 201
    grid = Grid(n)
    cfg = SimulationConfig(
        nu=1.0,
        grid=grid,
        u0=Field(grid, np.ones(n)),
        source=make_source(grid, f"cosine_static {math.pi / 2}"),
        dt=1e-3,
        t_end=10.0,
        snapshot_stride=1000,
    )
    return simulate(cfg)
