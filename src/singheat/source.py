"""Forcing terms f(x, t) with zero spatial mean, and their size functionals.

Every evaluated field is mean-zero projected against the trapezoid quadrature:
nodal sampling of an analytically mean-zero function is not discretely
mean-zero, and the discrete zero mean is what makes the solver conserve mass
exactly.  The functionals P0 and N_infinity computed here are the data
constants entering the convergence theorems.

Each family writes f and f_t once, for a time or for a 1-D array of times
(one row of nodal samples per time).  The time-axis norms (N_infinity and the
envelopes' forcing gap) run on blocks of such rows, with the operations of
the one-time code, so they keep its bits.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConfigError
from .grid import (
    Field, Grid, antiderivative, l2, l2_norm, pow2, primitive, read_csv_rows,
    trapezoid, trapezoid_integral,
)

#: most samples (times x nodes) one block of rows holds; bounds the memory of
#: the time-axis norms whatever the grid or the number of times.  Each of a
#: block's temporaries is then at most 128 KiB: at n = 2001, blocks of 2**15
#: samples made N_infinity about 1.5x slower than blocks of 2**14.
_BLOCK_VALUES = 2**14


def project_mean_zero(g: Field) -> Field:
    """Subtract the trapezoid mean so the result integrates to zero exactly."""
    return g.with_values(g.values - trapezoid_integral(g))


class SourceTerm(ABC):
    """Time-dependent forcing with declared initial and limit profiles."""

    kind: str = "abstract"

    def __init__(self, grid: Grid):
        self.grid = grid

    @abstractmethod
    def _raw(self, t) -> np.ndarray:
        """Nodal samples of f(., t) before mean-zero projection.

        (n,) for a time t, (len(t), n) for a 1-D array of times.
        """

    @property
    def time_dependent(self) -> bool:
        return True

    def evaluate(self, t: float) -> Field:
        return Field(self.grid, self.samples(t))

    def samples(self, t) -> np.ndarray:
        """Mean-zero projected nodal samples, shaped as `_raw`; not validated."""
        first = t.min() if isinstance(t, np.ndarray) else t
        if first < 0:
            raise ValueError(f"source evaluated at negative time t={first}")
        raw = self._raw(t)
        mean = trapezoid(raw, self.grid.dx)
        return raw - (mean[:, None] if raw.ndim > 1 else mean)

    def f_initial(self) -> Field:
        return self.evaluate(0.0)

    def f_limit(self) -> Field:
        """Strong L2 limit of f(., t) as t -> infinity."""
        raise ConfigError(f"source kind '{self.kind}' declares no limit profile")

    def dfdt(self, t) -> np.ndarray:
        """Nodal samples of the time derivative (one-sided off kinks), shaped as `_raw`."""
        raise ConfigError(f"source kind '{self.kind}' has no time derivative")

    #: times where f(., t) is not smooth in t; the N-quadrature splits there
    breakpoints: tuple = ()

    def tail_norm_integral(self, t_cut: float):
        """Closed-form tail of the N-integral past t_cut, or None."""
        return None


class HomogeneousSource(SourceTerm):
    """Time-independent forcing f(x, t) = f0(x)."""

    kind = "homogeneous"

    def __init__(self, f0: Field):
        super().__init__(f0.grid)
        self._f0 = project_mean_zero(f0)
        # _f0 projected once more, as SourceTerm.evaluate does; not _f0 itself,
        # whose last bits can differ
        self._f = super().evaluate(0.0)

    @property
    def time_dependent(self) -> bool:
        return False

    def evaluate(self, t: float) -> Field:
        # a negative t goes to SourceTerm.evaluate, which rejects it
        return self._f if t >= 0 else super().evaluate(t)

    def _raw(self, t) -> np.ndarray:
        return np.broadcast_to(self._f0.values, np.shape(t) + (self.grid.n,))

    def f_limit(self) -> Field:
        return self._f

    def dfdt(self, t) -> np.ndarray:
        return np.zeros(np.shape(t) + (self.grid.n,))

    def tail_norm_integral(self, t_cut: float):
        return 0.0


class CosineStaticSource(HomogeneousSource):
    """f(x, t) = amplitude * cos(pi x), time-independent."""

    kind = "cosine_static"

    def __init__(self, grid: Grid, amplitude: float):
        self.amplitude = float(amplitude)
        super().__init__(Field(grid, amplitude * np.cos(np.pi * grid.nodes)))


class CosineDecaySource(SourceTerm):
    """f(x, t) = min(1, 1/t) cos(pi x), decaying to zero.

    f is only piecewise smooth at t = 1; the time derivative is taken
    piecewise (0 for t < 1, -cos(pi x)/t^2 for t > 1).
    """

    kind = "cosine_decay"
    breakpoints = (1.0,)

    def __init__(self, grid: Grid):
        super().__init__(grid)
        self._cos = np.cos(np.pi * grid.nodes)

    def _raw(self, t) -> np.ndarray:
        # min(1, 1/t) for t >= 0, with 1/1 = 1 exactly up to the kink
        return (1.0 / np.maximum(t, 1.0))[..., None] * self._cos

    def f_limit(self) -> Field:
        return project_mean_zero(Field(self.grid, np.zeros(self.grid.n)))

    def dfdt(self, t) -> np.ndarray:
        late = -self._cos / pow2(np.maximum(t, 1.0))[..., None]
        return np.where((np.asarray(t) > 1.0)[..., None], late, 0.0)

    def tail_norm_integral(self, t_cut: float):
        if t_cut < 1.0:
            return None
        # integrand is ||primitive of cos(pi x)||_2 / t^2 for t > 1
        amp = l2_norm(antiderivative(Field(self.grid, self._cos)))
        return amp / t_cut


class CosineExpSource(SourceTerm):
    """f(x, t) = exp(-rate * t) cos(pi x), decaying to zero."""

    kind = "cosine_exp"

    def __init__(self, grid: Grid, rate: float = 1.0):
        if rate <= 0:
            raise ConfigError("cosine_exp needs a positive decay rate")
        super().__init__(grid)
        self.rate = float(rate)
        self._cos = np.cos(np.pi * grid.nodes)

    def _raw(self, t) -> np.ndarray:
        return np.exp(-self.rate * t)[..., None] * self._cos

    def f_limit(self) -> Field:
        return project_mean_zero(Field(self.grid, np.zeros(self.grid.n)))

    def dfdt(self, t) -> np.ndarray:
        return (-self.rate * np.exp(-self.rate * t))[..., None] * self._cos

    def tail_norm_integral(self, t_cut: float):
        amp = l2_norm(antiderivative(Field(self.grid, self._cos)))
        return amp * np.exp(-self.rate * t_cut)


class CallableSource(SourceTerm):
    """Forcing given by a Python callable f(x, t) (vectorized in x).

    Used for manufactured solutions; optional callables supply the limit
    profile and the analytic time derivative.
    """

    kind = "callable"

    def __init__(self, grid: Grid, fn, f_limit_fn=None, dfdt_fn=None):
        super().__init__(grid)
        self._fn = fn
        self._f_limit_fn = f_limit_fn
        self._dfdt_fn = dfdt_fn

    def _rows(self, fn, t) -> np.ndarray:
        """fn(x, t), vectorized in x only, stacked one row per time."""
        x = self.grid.nodes
        rows = np.array([fn(x, s) for s in t] if np.ndim(t) else fn(x, t), dtype=float)
        if rows.shape != np.shape(t) + (self.grid.n,):
            raise ValueError(
                f"callable source gives {rows.shape} samples on {self.grid.n} nodes"
            )
        return rows

    def _raw(self, t) -> np.ndarray:
        return self._rows(self._fn, t)

    def f_limit(self) -> Field:
        if self._f_limit_fn is None:
            return super().f_limit()
        return project_mean_zero(
            Field(self.grid, self._f_limit_fn(self.grid.nodes))
        )

    def dfdt(self, t) -> np.ndarray:
        if self._dfdt_fn is None:
            return super().dfdt(t)
        return self._rows(self._dfdt_fn, t)


class TabulatedSource(SourceTerm):
    """Forcing tabulated at time stamps, linearly interpolated in t.

    Past the last time stamp f stays at its last profile, the limit, so f_t
    is zero there and f has a kink at every time stamp after the first.
    """

    kind = "tabulated"

    def __init__(self, times, fields):
        times = np.asarray(times, dtype=float)
        if len(times) < 1 or len(times) != len(fields):
            raise ConfigError("tabulated source needs matching times and fields")
        if np.any(np.diff(times) <= 0):
            raise ConfigError("tabulated source times must increase")
        super().__init__(fields[0].grid)
        self.times = times
        self._table = np.stack([f.values for f in fields])
        self.breakpoints = tuple(times[1:])

    def _interval(self, t):
        """t clamped into the table, and the k with times[k] <= t <= times[k+1]."""
        t = np.clip(t, self.times[0], self.times[-1])
        k = np.searchsorted(self.times, t, side="right") - 1
        return t, np.minimum(k, len(self.times) - 2)

    def _raw(self, t) -> np.ndarray:
        lo = np.min(t)
        if lo < self.times[0] - 1e-12:
            raise ConfigError(
                f"t={lo} before the tabulated range [{self.times[0]}, {self.times[-1]}]"
            )
        if len(self.times) == 1:
            return self._table[np.zeros(np.shape(t), dtype=int)]
        t, k = self._interval(t)
        w = ((t - self.times[k]) / (self.times[k + 1] - self.times[k]))[..., None]
        return (1 - w) * self._table[k] + w * self._table[k + 1]

    def f_limit(self) -> Field:
        return project_mean_zero(Field(self.grid, self._table[-1]))

    def dfdt(self, t) -> np.ndarray:
        if len(self.times) < 2:
            raise ConfigError("tabulated source has no time resolution")
        _, k = self._interval(t)
        dt = (self.times[k + 1] - self.times[k])[..., None]
        slope = (self._table[k + 1] - self._table[k]) / dt
        return np.where((np.asarray(t) > self.times[-1])[..., None], 0.0, slope)

    def tail_norm_integral(self, t_cut: float):
        return 0.0 if t_cut >= self.times[-1] else None


def compute_P0(src: SourceTerm) -> float:
    """L2 norm of the primitive of the initial forcing profile."""
    return l2_norm(antiderivative(src.f_initial()))


def over_time(kernel, ts, n: int) -> np.ndarray:
    """kernel(block) for consecutive blocks of the times `ts`, concatenated.

    `kernel` maps a 1-D block of times to one value per time, computed from
    that block's (times x n) rows of samples; a block holds at most
    _BLOCK_VALUES samples.  A non-finite sample makes its time's value
    non-finite, which raises ValueError, as a Field of it would.
    """
    ts = np.asarray(ts, dtype=float)
    rows = max(1, _BLOCK_VALUES // n)
    out = np.concatenate(
        [kernel(ts[i:i + rows]) for i in range(0, len(ts), rows)] or [np.empty(0)]
    )
    bad = ~np.isfinite(out)
    if bad.any():
        raise ValueError(f"non-finite source samples at t={ts[bad][0]}")
    return out


def _primitive_norms(rows: np.ndarray, dx: float) -> np.ndarray:
    """||primitive of each row||_2."""
    return l2(primitive(rows, dx), dx)


def _segments(src: SourceTerm, t_cut: float):
    cuts = sorted({0.0, t_cut, *(b for b in src.breakpoints if 0.0 < b < t_cut)})
    return list(zip(cuts[:-1], cuts[1:]))


def compute_N_infinity(
    src: SourceTerm, t_cut: float = 100.0, dt_quad: float = 1e-2
):
    """Time integral of ||primitive of f_t||_2 over (0, infinity).

    Composite trapezoid on [0, t_cut], split exactly at the source's kinks;
    a closed-form tail is added when the family provides one, otherwise the
    result is flagged as tail-truncated.

    Returns (value, tail_truncated).
    """
    if not src.time_dependent:
        return 0.0, False
    if t_cut <= 0:
        raise ValueError("t_cut must be positive")
    total, dx = 0.0, src.grid.dx
    for a, b in _segments(src, t_cut):
        m = max(2, int(np.ceil((b - a) / dt_quad)) + 1)
        ts = np.linspace(a, b, m)
        # keep samples strictly inside the smooth segment
        eps = 1e-9 * (b - a)
        ts_eval = ts.copy()
        ts_eval[0] += eps
        ts_eval[-1] -= eps
        vals = over_time(lambda block: _primitive_norms(src.dfdt(block), dx),
                         ts_eval, src.grid.n)
        total += np.trapezoid(vals, ts)
    tail = src.tail_norm_integral(t_cut)
    if tail is None:
        return total, True
    return total + tail, False


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
        "cosine_static": lambda amplitude: CosineStaticSource(grid, float(amplitude)),
        "cosine_decay": lambda: CosineDecaySource(grid),
        "cosine_exp": lambda rate=1.0: CosineExpSource(grid, float(rate)),
        "csv": lambda path: load_tabulated_csv(grid, path),
    })


def load_tabulated_csv(grid: Grid, path) -> TabulatedSource:
    """Load a tabulated source from CSV rows (t, x, f)."""
    data = read_csv_rows(path, ("t", "x", "f"))
    times = np.unique(data[:, 0])
    fields = []
    for t in times:
        rows = data[np.isclose(data[:, 0], t)]
        order = np.argsort(rows[:, 1])
        if len(rows) != grid.n:
            raise ConfigError(
                f"{path}: {len(rows)} samples at t={t}, expected {grid.n}"
            )
        fields.append(Field(grid, rows[order, 2]))
    return TabulatedSource(times, fields)
