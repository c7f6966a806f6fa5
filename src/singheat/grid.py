"""Uniform 1D grid on [0, 1] with trapezoid quadrature and discrete calculus.

Everything downstream (profiles, norms, energies) lives on node-centered
fields over this grid, so the quadrature and differencing conventions here
fix the discrete conservation structure of the whole package.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [0, 1] with n >= 3 nodes."""

    n: int
    dx: float = field(init=False)
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got n={self.n}")
        object.__setattr__(self, "dx", 1.0 / (self.n - 1))
        nodes = np.linspace(0.0, 1.0, self.n)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class Field:
    """Real nodal samples on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"field has {values.shape} values for a grid of {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def trapezoid(y: np.ndarray, dx: float):
    """np.trapezoid(y, dx=dx) along the last axis, with the same operations in order.

    A 1-D y gives a float; a (rows x nodes) y gives one value per row, each
    with the bits of that row alone.
    """
    if y.ndim == 1:
        return float((dx * (y[1:] + y[:-1]) / 2.0).sum())
    return (dx * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1)


def gradient(y: np.ndarray, dx: float) -> np.ndarray:
    """np.gradient(y, dx, edge_order=2) for 1-D y, with the same operations."""
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dx)
    out[0] = -1.5 / dx * y[0] + 2.0 / dx * y[1] + -0.5 / dx * y[2]
    out[-1] = 0.5 / dx * y[-3] + -2.0 / dx * y[-2] + 1.5 / dx * y[-1]
    return out


def l2(y: np.ndarray, dx: float):
    """L2 norm along the last axis: a float for 1-D y, one value per row otherwise."""
    sq = trapezoid(y * y, dx)
    return math.sqrt(sq) if y.ndim == 1 else np.sqrt(sq)


def primitive(y: np.ndarray, dx: float) -> np.ndarray:
    """cumulative_trapezoid(y, dx=dx, initial=0) along the last axis.

    The same operations in the same order as scipy's, so each row has the
    bits scipy gives for it alone.
    """
    out = np.zeros(y.shape)
    np.cumsum(dx * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1, out=out[..., 1:])
    return out


def pow2(x):
    """x ** 2 elementwise through the C library's pow, as Python squares a float.

    numpy's `x ** 2` on an array is x * x, which differs from pow(x, 2) in the
    last bit for about one value in a thousand; code that replaces a loop of
    scalar squares keeps its bits with this.
    """
    return np.asarray(_pow(x, 2.0), dtype=float)


_pow = np.frompyfunc(pow, 2, 1)


def h1(y: np.ndarray, dx: float) -> float:
    yx = gradient(y, dx)
    return math.sqrt(trapezoid(y * y, dx) + trapezoid(yx * yx, dx))


def trapezoid_integral(g: Field) -> float:
    """Composite trapezoid rule for the integral over [0, 1].

    Exact for piecewise-linear fields; this is the quadrature against which
    mass conservation and all mean-zero projections are defined.
    """
    return trapezoid(g.values, g.grid.dx)


def derivative(g: Field) -> Field:
    """Second-order derivative: central interior, one-sided at the endpoints."""
    return g.with_values(gradient(g.values, g.grid.dx))


def antiderivative(g: Field) -> Field:
    """Cumulative trapezoid primitive with result(0) = 0."""
    return g.with_values(primitive(g.values, g.grid.dx))


def l2_norm(g: Field) -> float:
    return l2(g.values, g.grid.dx)


def h1_norm(g: Field) -> float:
    return h1(g.values, g.grid.dx)


def write_csv(path, header, columns) -> None:
    """Header line, then one row per sample with every value as %.17g.

    17 significant digits round-trip a float64 exactly.
    """
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row.format(*values) for values in zip(*columns))


def write_json(path, data) -> None:
    """Two-space-indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, default=float)
        fh.write("\n")


def write_field_csv(path, g: Field, header=("x", "value")) -> None:
    write_csv(path, header, (g.grid.nodes, g.values))


def read_csv_rows(path, columns) -> np.ndarray:
    """The rows after a CSV file's header line, one array row each.

    No data rows, or fewer than len(columns) columns, is a ValueError, not a warning.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < len(columns):
        raise ValueError(f"{path} needs ({', '.join(columns)}) rows")
    return data


def read_field_csv(path, grid: Grid | None = None) -> Field:
    """A field read from (x, value) rows; on `grid` if given, which must match."""
    data = read_csv_rows(path, ("x", "value"))
    x, v = data[:, 0], data[:, 1]
    if grid is None:
        grid = Grid(len(x))
    elif len(x) != grid.n:
        raise ValueError(f"{path} has {len(x)} nodes, the grid has n = {grid.n}")
    if not np.allclose(x, grid.nodes, atol=1e-12):
        raise ValueError(f"{path}: nodes are not a uniform grid on [0, 1]")
    return Field(grid, v)
