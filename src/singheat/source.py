"""Forcing terms f(x, t) with zero spatial mean, and their size functionals.

Every evaluated field is mean-zero projected against the trapezoid quadrature:
nodal sampling of an analytically mean-zero function is not discretely
mean-zero, and the discrete zero mean is what makes the solver conserve mass
exactly.  The functionals P0 and N_infinity computed here are the data
constants entering the convergence theorems.

Each family writes f once, for a time or for a 1-D array of times (one row
of nodal samples per time).  N_infinity, the integral over time of
||primitive of f_t||_2, is the total variation of t -> primitive of f(t) in
L2, and the envelopes' forcing gap is ||f(t) - f_inf||_2^2.  Every family
but a callable has both in closed form: 0 for a static source; for a
separable one, f = g(t) phi with g monotone to 0, ||primitive of phi||_2 |g(0)|
and a profile norm times |g(t)|; for a tabulated one, sums over its stamps.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConfigError
from .grid import Field, Grid, check_nodes, exp, l2, primitive, read_csv_rows, trapezoid


def mean_zero(y: np.ndarray, dx: float) -> np.ndarray:
    """y less its trapezoid mean (of each row), so it integrates to zero exactly."""
    mean = trapezoid(y, dx)
    return y - (mean[..., None] if y.ndim > 1 else mean)


class SourceTerm(ABC):
    """Time-dependent forcing with declared initial and limit profiles."""

    kind: str = "abstract"
    #: whether f changes with t
    time_dependent = True

    def __init__(self, grid: Grid):
        self.grid = grid

    @abstractmethod
    def _raw(self, t) -> np.ndarray:
        """Nodal samples of f(., t) before mean-zero projection.

        (n,) for a time t, (len(t), n) for a 1-D array of times.
        """

    def evaluate(self, t: float) -> Field:
        """f(., t) as a Field."""
        return Field(self.grid, self.at(t))

    def at(self, t) -> np.ndarray:
        """f(., t) as read-only mean-zero projected nodal samples, shaped as `_raw`.

        The one read of a forcing.  t is a time or a 1-D array of times, each
        row with the bits of its time alone.  A negative time raises
        ValueError, as does a non-finite sample, as a Field of them would.
        """
        first = t.min() if isinstance(t, np.ndarray) else t
        if first < 0:
            raise ValueError(f"source evaluated at negative time t={first}")
        values = mean_zero(self._raw(t), self.grid.dx)
        if np.count_nonzero(np.isfinite(values)) < values.size:
            raise ValueError("field contains non-finite values")
        values.setflags(write=False)
        return values

    def f_limit(self) -> Field:
        """Strong L2 limit of f(., t) as t -> infinity."""
        raise ConfigError(f"source kind '{self.kind}' declares no limit profile")


class HomogeneousSource(SourceTerm):
    """Time-independent forcing f(x, t) = f0(x)."""

    kind = "homogeneous"
    time_dependent = False

    def __init__(self, f0: Field):
        super().__init__(f0.grid)
        # projected twice, as every static artifact was made; once can differ
        # in the last bits
        dx = f0.grid.dx
        self._f = Field(f0.grid, mean_zero(mean_zero(f0.values, dx), dx))

    def at(self, t) -> np.ndarray:
        # a negative t goes to SourceTerm.at, which refuses it
        first = t.min() if isinstance(t, np.ndarray) else t
        return super().at(t) if first < 0 else self._raw(t)

    def _raw(self, t) -> np.ndarray:
        """The stored profile as read-only rows; for an array of times a zero-stride
        view, as broadcast_to makes, in a quarter of its call's time."""
        f = self._f.values
        if not isinstance(t, np.ndarray):
            return f
        return np.ndarray((len(t), len(f)), buffer=f, strides=(0, f.strides[0]))

    def f_limit(self) -> Field:
        return self._f


class CosineStaticSource(HomogeneousSource):
    """f(x, t) = amplitude * cos(pi x), time-independent."""

    kind = "cosine_static"

    def __init__(self, grid: Grid, amplitude: float):
        self.amplitude = float(amplitude)
        super().__init__(Field(grid, amplitude * np.cos(np.pi * grid.nodes)))


class SeparableSource(SourceTerm):
    """f(x, t) = g(t) phi(x), phi = cos(pi x), with g falling monotonically to 0.

    Each family gives g(t) as `g`, at a time or at a 1-D array of times;
    `phi_norm` is ||primitive of phi||_2, so N_infinity is phi_norm |g(0)|.
    """

    def __init__(self, grid: Grid):
        super().__init__(grid)
        self.phi = np.cos(np.pi * grid.nodes)
        self.phi_norm = _primitive_norms(self.phi, grid.dx)

    def _raw(self, t) -> np.ndarray:
        return self.g(t)[..., None] * self.phi

    def f_limit(self) -> Field:
        return Field(self.grid, mean_zero(np.zeros(self.grid.n), self.grid.dx))


class CosineDecaySource(SeparableSource):
    """f(x, t) = min(1, 1/t) cos(pi x), decaying to zero.

    f is only piecewise smooth at t = 1: constant before it, falling as 1/t
    past it.
    """

    kind = "cosine_decay"

    def g(self, t):
        # min(1, 1/t) for t >= 0, with 1/1 = 1 exactly up to the kink
        return 1.0 / np.maximum(t, 1.0)


class CosineExpSource(SeparableSource):
    """f(x, t) = exp(-rate * t) cos(pi x), decaying to zero."""

    kind = "cosine_exp"

    def __init__(self, grid: Grid, rate: float = 1.0):
        if not (np.isfinite(rate) and rate > 0):
            raise ConfigError(f"cosine_exp needs a finite positive decay rate, got {rate!r}")
        super().__init__(grid)
        self.rate = float(rate)

    def g(self, t):
        return exp(-self.rate * t)


class CallableSource(SourceTerm):
    """Forcing given by a Python callable f(x, t) (vectorized in x).

    Used for manufactured solutions; an optional callable supplies the limit
    profile.  It has no N_infinity and no forcing gap.
    """

    kind = "callable"

    def __init__(self, grid: Grid, fn, f_limit_fn=None):
        super().__init__(grid)
        self._fn = fn
        self._f_limit_fn = f_limit_fn

    def _raw(self, t) -> np.ndarray:
        """fn(x, t), vectorized in x only, stacked one row per time."""
        x = self.grid.nodes
        rows = np.array([self._fn(x, s) for s in t] if np.ndim(t) else self._fn(x, t),
                        dtype=float)
        if rows.shape != np.shape(t) + (self.grid.n,):
            raise ValueError(
                f"callable source gives {rows.shape} samples on {self.grid.n} nodes"
            )
        return rows

    def f_limit(self) -> Field:
        if self._f_limit_fn is None:
            return super().f_limit()
        limit = Field(self.grid, self._f_limit_fn(self.grid.nodes))   # checked as it enters
        return Field(self.grid, mean_zero(limit.values, self.grid.dx))


class TabulatedSource(SourceTerm):
    """Forcing tabulated at time stamps, linearly interpolated in t.

    Past the last time stamp f stays at its last profile, the limit, so f is
    constant there and has a kink at every time stamp after the first.  It
    needs two stamps or more; one profile is a HomogeneousSource.
    """

    kind = "tabulated"

    def __init__(self, times, fields):
        times = np.asarray(times, dtype=float)
        if len(times) < 2 or len(times) != len(fields):
            raise ConfigError("tabulated source needs two or more matching times and fields")
        if np.any(np.diff(times) <= 0):
            raise ConfigError("tabulated source times must increase")
        super().__init__(fields[0].grid)
        self.times = times
        self._table = np.stack([f.values for f in fields])

    def _interval(self, t):
        """The k with times[k] <= t <= times[k+1] and the weight w of stamp k + 1
        at t, clamped into the table: w = 1 past it.  A t before the first stamp
        (by more than 1e-12) raises ConfigError."""
        lo = np.min(t)
        if lo < self.times[0] - 1e-12:
            raise ConfigError(
                f"t={lo} before the tabulated range [{self.times[0]}, {self.times[-1]}]"
            )
        t = np.clip(t, self.times[0], self.times[-1])
        k = np.minimum(np.searchsorted(self.times, t, side="right") - 1, len(self.times) - 2)
        return k, (t - self.times[k]) / (self.times[k + 1] - self.times[k])

    def _raw(self, t) -> np.ndarray:
        k, w = self._interval(t)
        w = w[..., None]
        return (1 - w) * self._table[k] + w * self._table[k + 1]

    def f_limit(self) -> Field:
        return Field(self.grid, mean_zero(self._table[-1], self.grid.dx))


def compute_P0(src: SourceTerm) -> float:
    """L2 norm of the primitive of the initial forcing profile."""
    return _primitive_norms(src.at(0.0), src.grid.dx)


def _primitive_norms(rows: np.ndarray, dx: float) -> np.ndarray:
    """||primitive of each row||_2; a float for one row."""
    prim = primitive(rows, dx)
    return l2(prim, dx, out=prim)   # squared in place


def compute_N_infinity(src: SourceTerm) -> float:
    """Time integral of ||primitive of f_t||_2 over (0, infinity), exactly.

    That integral is the total variation of t -> primitive of f(t) in L2.  A
    static source has none; a separable one, whose g is monotone to 0, has
    phi_norm |g(0)|; a tabulated one, linear between stamps and held after
    the last, has the sum of ||primitive of each stamp-to-stamp change||_2.
    A callable source has no closed form (ConfigError).
    """
    if not src.time_dependent:
        return 0.0
    if isinstance(src, SeparableSource):
        return src.phi_norm * abs(float(src.g(0.0)))
    if isinstance(src, TabulatedSource):
        return float(sum(_primitive_norms(np.diff(src._table, axis=0), src.grid.dx)))
    raise ConfigError(f"source kind '{src.kind}' has no closed-form N_infinity")


def forcing_gap_sq(src: SourceTerm, times) -> np.ndarray:
    """||f(t) - f_inf||_2^2 at each of the times, in closed form.

    A static source's is 0; a separable one, whose limit is zero, has
    (||mean_zero(phi)||_2 |g(t)|)^2.  A tabulated one is (1 - w) D_k + w D_k+1
    between stamps k and k + 1, D_j stamp j projected to mean zero less the
    limit, so its gap is (1 - w)^2 G_kk + 2 w (1 - w) G_k,k+1 + w^2 G_k+1,k+1
    from the stamps' inner products G, of which only the diagonal and the
    first off-diagonal are built; it is 0 past the last stamp.  A callable
    source has no closed form (ConfigError).
    """
    times, dx = np.asarray(times, dtype=float), src.grid.dx
    if not src.time_dependent:
        return np.zeros(len(times))
    if isinstance(src, SeparableSource):
        return np.square(l2(mean_zero(src.phi, dx), dx) * np.abs(src.g(times)))
    if isinstance(src, TabulatedSource):
        d = mean_zero(src._table, dx)
        d -= src.f_limit().values
        diag, off = trapezoid(d * d, dx), trapezoid(d[:-1] * d[1:], dx)
        k, w = src._interval(times)
        return (1 - w)**2 * diag[k] + 2 * w * (1 - w) * off[k] + w**2 * diag[k + 1]
    raise ConfigError(f"source kind '{src.kind}' has no closed-form forcing gap")


def spec_number(word) -> float:
    """A spec's numeric word as a float; ValueError, before any arithmetic, if not finite."""
    value = float(word)
    if not np.isfinite(value):
        raise ValueError(f"{word} is not a finite number")
    return value


def parse_spec(slot: str, spec: str, builders: dict):
    """Build the object a `NAME ARG...` config spec names.

    `builders` maps each name the slot accepts to a callable taking the
    words after the name as strings; its signature fixes how many words it
    takes.  Every malformed spec (empty, unknown name, wrong word count, a
    word the builder rejects with ValueError or OSError) raises ConfigError
    naming the slot.
    """
    words = spec.split()
    if not words:
        raise ConfigError(f"empty {slot} spec")
    name, args = words[0], words[1:]
    if name not in builders:
        raise ConfigError(
            f"unknown {slot} spec '{spec}' (expected one of: {', '.join(builders)})"
        )
    build = builders[name]
    try:
        inspect.signature(build).bind(*args)
    except TypeError:
        raise ConfigError(
            f"{slot} spec '{spec}': wrong number of arguments for '{name}'"
        ) from None
    try:
        return build(*args)
    except (ValueError, OSError) as err:
        raise ConfigError(f"{slot} spec '{spec}': {err}") from err


def make_source(grid: Grid, spec: str) -> SourceTerm:
    """Build a named analytic source from a config string.

    Recognized forms: "zero", "cosine_static AMPLITUDE", "cosine_decay",
    "cosine_exp [RATE]" (default 1), "csv PATH" (tabulated, columns t, x, f).
    """
    return parse_spec("source", spec, {
        "zero": lambda: HomogeneousSource(Field(grid, np.zeros(grid.n))),
        "cosine_static": lambda amplitude: CosineStaticSource(grid, spec_number(amplitude)),
        "cosine_decay": lambda: CosineDecaySource(grid),
        "cosine_exp": lambda rate=1.0: CosineExpSource(grid, spec_number(rate)),
        "csv": lambda path: load_tabulated_csv(grid, path),
    })


def load_tabulated_csv(grid: Grid, path) -> SourceTerm:
    """Load a tabulated source from CSV rows (t, x, f), whose first time stamp is t = 0.

    Rows are grouped by their exact t, and each stamp's x, sorted, must be the
    grid's nodes.  A table of one time stamp is constant in time: a HomogeneousSource.
    """
    data = read_csv_rows(path, ("t", "x", "f"))
    times = np.unique(data[:, 0])
    if times[0] > 1e-12:   # f would be undefined from t = 0 to the first stamp
        raise ConfigError(f"t=0.0 before the tabulated range [{times[0]}, {times[-1]}]")
    fields = []
    for t in times:
        rows = data[data[:, 0] == t]
        rows = rows[np.argsort(rows[:, 1])]
        check_nodes(rows[:, 1], grid, f"{path} at t={t}")
        fields.append(Field(grid, rows[:, 2]))
    return TabulatedSource(times, fields) if len(fields) > 1 else HomogeneousSource(fields[0])
