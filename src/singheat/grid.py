"""Uniform 1D grid on [0, 1] with trapezoid quadrature and discrete calculus.

Everything downstream (profiles, norms, energies) lives on node-centered
fields over this grid, so the quadrature and differencing conventions here
fix the discrete conservation structure of the whole package, the flux form
of nu (u^-2 u_x)_x included: the one discretization of the operator.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat

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


def const(value) -> np.ndarray:
    """value as a read-only 0-d float64 array: an operand numpy's ufuncs take as
    it is, where they turn a Python float into an array on every call."""
    value = np.array(value, dtype=float)
    value.setflags(write=False)
    return value


HALF, ONE = const(0.5), const(1.0)


def _panels(y: np.ndarray, dx, out: np.ndarray | None = None) -> np.ndarray:
    """The panels dx (y[k + 1] + y[k]) / 2 along the last axis, as numpy's trapezoid
    and scipy's cumulative_trapezoid compute them, in out (a float array one node
    shorter than y) or a fresh array.  dx is a float or a const.  The halving is a
    product by 0.5, the correctly rounded x / 2 for every float64, as / 2.0 is."""
    if out is None:
        out = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    terms = np.add(y[..., 1:], y[..., :-1], out)
    terms *= dx
    terms *= HALF
    return terms


def trapezoid(y: np.ndarray, dx, out: np.ndarray | None = None):
    """np.trapezoid(y, dx=dx) along the last axis, with the same operations in order.

    A 1-D y gives a float; a (rows x nodes) y gives one value per row, each
    with the bits of that row alone.  The panels are written into out, or a
    fresh array if None.
    """
    sums = np.add.reduce(_panels(y, dx, out), -1)
    return float(sums) if y.ndim == 1 else sums


def gradient(y: np.ndarray, dx: float, out: np.ndarray | None = None,
             two_dx: np.ndarray | None = None) -> np.ndarray:
    """np.gradient(y, dx, edge_order=2) of each row (along the last axis), with its bits.

    Written into out, shaped as y, or a fresh array if None.  two_dx is
    const(2.0 * dx), for a caller that makes many calls, or None.
    """
    if out is None:
        out = np.empty(y.shape)
    inner = np.subtract(y[..., 2:], y[..., :-2], out[..., 1:-1])
    inner /= 2.0 * dx if two_dx is None else two_dx
    # the one-sided ends row by row on Python floats, in numpy's order: for
    # the few rows callers pass, faster than numpy calls on the end columns
    a0, a1, a2 = -1.5 / dx, 2.0 / dx, -0.5 / dx
    b0, b1, b2 = 0.5 / dx, -2.0 / dx, 1.5 / dx
    rows, ys = out.reshape(-1, y.shape[-1]), y.reshape(-1, y.shape[-1])
    for i, (p, q, r) in enumerate(ys[:, :3].tolist()):
        rows[i, 0] = a0 * p + a1 * q + a2 * r
    for i, (p, q, r) in enumerate(ys[:, -3:].tolist()):
        rows[i, -1] = b0 * p + b1 * q + b2 * r
    return out


def l2(y: np.ndarray, dx: float, out: np.ndarray | None = None):
    """L2 norm along the last axis: a float for 1-D y, one value per row otherwise.

    The squares are written into out, shaped as y (y itself will do), or a fresh array if None.
    """
    sq = trapezoid(np.multiply(y, y, out), dx)
    return math.sqrt(sq) if y.ndim == 1 else np.sqrt(sq)


def primitive(y: np.ndarray, dx: float) -> np.ndarray:
    """cumulative_trapezoid(y, dx=dx, initial=0) along the last axis.

    The same operations in the same order as scipy's, so each row has the
    bits scipy gives for it alone.
    """
    out = np.zeros(y.shape)
    np.add.accumulate(_panels(y, dx), -1, None, out[..., 1:])
    return out


def pow2(x):
    """x ** 2 elementwise through the C library's pow, as Python squares a float.

    numpy's `x ** 2` on an array is x * x, which differs from pow(x, 2) in the
    last bit for about one value in a thousand; code that replaces a loop of
    scalar squares keeps its bits with this.
    """
    return np.asarray(_pow(x, 2.0), dtype=float)


_pow = np.frompyfunc(pow, 2, 1)


def exp(x) -> np.ndarray:
    """e ** x elementwise through the C library's exp, as an array of x's shape.

    numpy's exp runs the SIMD loop of the CPU features it dispatches on, and
    those loops round some values differently; the C library's exp does not
    depend on them, so what is built on it has the same bits on either.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def h1(y: np.ndarray, dx: float) -> float:
    yx = gradient(y, dx)
    return math.sqrt(trapezoid(y * y, dx) + trapezoid(yx * yx, dx))


def flux_buffers(n: int) -> tuple:
    """Buffers for flux_divergence at n nodes: the divergence, then the
    half-node means, their squares, the differences of u and the fluxes;
    then the views of them it writes: the divergence but its ends, and the
    fluxes but the first and but the last."""
    out, flux = np.empty(n), np.empty(n - 1)
    return (out, *(np.empty(n - 1) for _ in range(3)), flux, out[1:-1], flux[1:], flux[:-1])


def flux_divergence(u: np.ndarray, nu, dx, buffers: tuple | None = None):
    """nu (u^-2 u_x)_x in flux form, with the half-node means, their squares
    and the differences of u.

    The fluxes (u_{i+1} - u_i) / (dx mid²) vanish at both ends and the end
    nodes have half-width control volumes, so the divergence has zero
    trapezoid mass.  They are written into buffers, flux_buffers(len(u)), or
    fresh arrays if None.  nu and dx are floats or consts.
    """
    out, mid, mid2, d, flux, inner, right, left = buffers or flux_buffers(len(u))
    lo, hi = u[:-1], u[1:]
    np.add(lo, hi, mid)
    mid *= HALF
    np.square(mid, mid2)
    np.subtract(hi, lo, d)
    np.multiply(mid2, dx, flux)
    np.divide(d, flux, flux)    # d / (dx mid²)
    np.subtract(right, left, inner)
    inner *= nu
    inner /= dx
    nu, half = float(nu), 0.5 * float(dx)
    out[0] = nu * flux[0] / half
    out[-1] = -nu * flux[-1] / half
    return out, mid, mid2, d


def rhs(u: np.ndarray, f: np.ndarray, nu: float, dx: float) -> np.ndarray:
    """nu (u^-2 u_x)_x + f, the right-hand side of the equation, in flux form."""
    out = flux_divergence(u, nu, dx)[0]
    out += f
    return out


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


#: rows write_csv formats and writes at a time
CSV_BLOCK_ROWS = 256


def _texts(values: np.ndarray) -> list:
    """The %.17g text of each float64 in values, formatted once per run of equal bits.

    Bits, not floats, make a run: -0.0 is not 0.0 and NaNs are equal only to
    their own bits.  A repeat is the text of the row above, the same str.
    """
    bits = values.view(np.int64)
    changed = np.empty(len(values), bool)
    changed[0] = True
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    run = changed.cumsum()      # each row's run, counted from 1
    if run[-1] == len(values):
        return list(map(float.__format__, values.tolist(), repeat(".17g")))
    texts = [None, *map(float.__format__, values[changed].tolist(), repeat(".17g"))]
    return np.array(texts, dtype=object)[run].tolist()


def write_csv(path, header, columns) -> None:
    """Header line, then one row per sample with every value as %.17g.

    17 significant digits round-trip a float64 exactly.  Columns may be
    arrays or sequences of numbers, all of one length (ValueError
    otherwise).  The rows go out in blocks of CSV_BLOCK_ROWS, so the writer
    holds one block of text at a time, whatever the row count.  In a block a
    value is formatted only where its bits differ from the row above.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    lengths = sorted({len(col) for col in columns})
    if len(lengths) > 1:
        raise ValueError(f"CSV columns must have one length, got lengths {lengths}")
    rows = lengths[0] if lengths else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            texts = [_texts(col[start:stop]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*texts))))
            fh.write("\n")


def _strict(value):
    """value with each non-finite float as None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


def write_json(path, data) -> None:
    """Two-space-indented JSON with a trailing newline.

    It is RFC 8259 JSON, which has no NaN or infinity: a non-finite float
    is written as null.
    """
    with open(path, "w") as fh:
        json.dump(_strict(data), fh, indent=2, default=float, allow_nan=False)
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
