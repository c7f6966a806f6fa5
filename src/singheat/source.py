"""Forcing terms f(x, t) with zero spatial mean, and their size functionals.

Every evaluated field is mean-zero projected against the trapezoid quadrature:
nodal sampling of an analytically mean-zero function is not discretely
mean-zero, and the discrete zero mean is what makes the solver conserve mass
exactly.  The functionals P0 and N_infinity computed here are the data
constants entering the convergence theorems.

Each family writes f and f_t once, for a time or for a 1-D array of times
(one row of nodal samples per time); f_t can be written into a given array.
The time-axis norms (N_infinity and the envelopes' forcing gap) of a separable
source, f = g(t) cos(pi x), are a profile norm times |g'(t)| or |g(t)|; any
other's run on blocks of rows with the one-time code's operations and bits,
N_infinity reusing one set of block buffers for all of its times.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConfigError, require_positive
from .grid import Field, Grid, _panels, l2, pow2, primitive, read_csv_rows, trapezoid

#: most samples (times x nodes) one block of rows holds; bounds the memory of
#: the time-axis norms whatever the grid or the number of times.  N_infinity
#: makes its three block buffers once per call, so a block may pass glibc's
#: 128 KiB trim threshold without being trimmed and faulted in again block by
#: block.  Blocks of 2**15 samples gave the same pass time on the benchmark's
#: forcing workload and raised its peak memory by 0.4 MB more.
_BLOCK_VALUES = 2**14


def mean_zero(y: np.ndarray, dx: float) -> np.ndarray:
    """y less its trapezoid mean (of each row), so it integrates to zero exactly."""
    mean = trapezoid(y, dx)
    return y - (mean[..., None] if y.ndim > 1 else mean)


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
        """f(., t) as a Field."""
        return Field(self.grid, self.at(t))

    def at(self, t) -> np.ndarray:
        """f(., t) as read-only nodal samples, shaped as `_raw`, for the march; no Field is built.

        t is a time or a 1-D array of times, each row with the bits of its
        time alone.  A non-finite sample raises the ValueError a Field of them
        would.
        """
        values = self.samples(t)
        if np.count_nonzero(np.isfinite(values)) < values.size:
            raise ValueError("field contains non-finite values")
        values.setflags(write=False)
        return values

    def samples(self, t) -> np.ndarray:
        """Mean-zero projected nodal samples, a fresh array shaped as `_raw`; not validated."""
        first = t.min() if isinstance(t, np.ndarray) else t
        if first < 0:
            raise ValueError(f"source evaluated at negative time t={first}")
        return mean_zero(self._raw(t), self.grid.dx)

    def f_initial(self) -> Field:
        return self.evaluate(0.0)

    def f_limit(self) -> Field:
        """Strong L2 limit of f(., t) as t -> infinity."""
        raise ConfigError(f"source kind '{self.kind}' declares no limit profile")

    def dfdt(self, t, out=None) -> np.ndarray:
        """Nodal samples of the time derivative (one-sided off kinks), shaped as `_raw`.

        Written into out, a float array of that shape, and returned, or into a
        fresh array if None; the bits are the same either way.
        """
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
        self._f0 = mean_zero(f0.values, f0.grid.dx)
        # _f0 projected once more, as SourceTerm.samples does; not _f0 itself,
        # whose last bits can differ
        self._f = Field(f0.grid, self.samples(0.0))

    @property
    def time_dependent(self) -> bool:
        return False

    def at(self, t) -> np.ndarray:
        # a negative t goes to SourceTerm.at, which rejects it
        if not isinstance(t, np.ndarray):
            return self._f.values if t >= 0 else super().at(t)
        if t.min() < 0:
            return super().at(t)
        # the profile as every row, a read-only view as broadcast_to makes,
        # in a quarter of its call's time
        f = self._f.values
        return np.ndarray((len(t), len(f)), buffer=f, strides=(0, f.strides[0]))

    def _raw(self, t) -> np.ndarray:
        return np.broadcast_to(self._f0, np.shape(t) + (self.grid.n,))

    def f_limit(self) -> Field:
        return self._f

    def dfdt(self, t, out=None) -> np.ndarray:
        if out is None:
            return np.zeros(np.shape(t) + (self.grid.n,))
        out.fill(0.0)
        return out

    def tail_norm_integral(self, t_cut: float):
        return 0.0


class CosineStaticSource(HomogeneousSource):
    """f(x, t) = amplitude * cos(pi x), time-independent."""

    kind = "cosine_static"

    def __init__(self, grid: Grid, amplitude: float):
        self.amplitude = float(amplitude)
        super().__init__(Field(grid, amplitude * np.cos(np.pi * grid.nodes)))


class SeparableSource(SourceTerm):
    """f(x, t) = g(t) phi(x), phi = cos(pi x), with g falling monotonically to 0.

    Each family gives g(t) and g'(t) (one-sided off kinks) as `g` and `dgdt`, at
    a time or at a 1-D array of times; `phi_norm` is ||primitive of phi||_2.
    """

    def __init__(self, grid: Grid):
        super().__init__(grid)
        self.phi = np.cos(np.pi * grid.nodes)
        self.phi_norm = _primitive_norms(self.phi, grid.dx)

    def _raw(self, t) -> np.ndarray:
        return self.g(t)[..., None] * self.phi

    def f_limit(self) -> Field:
        return Field(self.grid, mean_zero(np.zeros(self.grid.n), self.grid.dx))

    def dfdt(self, t, out=None) -> np.ndarray:
        return np.multiply(self.dgdt(t)[..., None], self.phi, out)

    def tail_norm_integral(self, t_cut: float):
        return self.phi_norm * self.g(t_cut)


class CosineDecaySource(SeparableSource):
    """f(x, t) = min(1, 1/t) cos(pi x), decaying to zero.

    f is only piecewise smooth at t = 1; f_t is 0 for t < 1 and -cos(pi x) / t^2
    past it.  `dfdt` keeps that quotient's bits, not g'(t) cos(pi x)'s, for its
    callers and the row tests; N_infinity reads `dgdt` instead.
    """

    kind = "cosine_decay"
    breakpoints = (1.0,)

    def g(self, t):
        # min(1, 1/t) for t >= 0, with 1/1 = 1 exactly up to the kink
        return 1.0 / np.maximum(t, 1.0)

    def dgdt(self, t):
        return np.where(t > 1.0, -1.0 / np.square(np.maximum(t, 1.0)), 0.0)

    def dfdt(self, t, out=None) -> np.ndarray:
        t = np.asarray(t)
        out = np.divide(-self.phi, pow2(np.maximum(t, 1.0))[..., None], out)
        out[~(t > 1.0)] = 0.0    # the rows up to the kink
        return out


class CosineExpSource(SeparableSource):
    """f(x, t) = exp(-rate * t) cos(pi x), decaying to zero."""

    kind = "cosine_exp"

    def __init__(self, grid: Grid, rate: float = 1.0):
        if not (np.isfinite(rate) and rate > 0):
            raise ConfigError(f"cosine_exp needs a finite positive decay rate, got {rate!r}")
        super().__init__(grid)
        self.rate = float(rate)

    def g(self, t):
        return np.exp(-self.rate * t)

    def dgdt(self, t):
        return -self.rate * np.exp(-self.rate * t)


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
        limit = Field(self.grid, self._f_limit_fn(self.grid.nodes))   # checked as it enters
        return Field(self.grid, mean_zero(limit.values, self.grid.dx))

    def dfdt(self, t, out=None) -> np.ndarray:
        if self._dfdt_fn is None:
            return super().dfdt(t, out)
        rows = self._rows(self._dfdt_fn, t)
        if out is None:
            return rows
        out[...] = rows
        return out


class TabulatedSource(SourceTerm):
    """Forcing tabulated at time stamps, linearly interpolated in t.

    Past the last time stamp f stays at its last profile, the limit, so f_t
    is zero there and f has a kink at every time stamp after the first.  It
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
        t, k = self._interval(t)
        w = ((t - self.times[k]) / (self.times[k + 1] - self.times[k]))[..., None]
        return (1 - w) * self._table[k] + w * self._table[k + 1]

    def f_limit(self) -> Field:
        return Field(self.grid, mean_zero(self._table[-1], self.grid.dx))

    def dfdt(self, t, out=None) -> np.ndarray:
        _, k = self._interval(t)
        slope = np.subtract(self._table[k + 1], self._table[k], out)
        slope /= (self.times[k + 1] - self.times[k])[..., None]
        slope[np.asarray(t) > self.times[-1]] = 0.0
        return slope

    def tail_norm_integral(self, t_cut: float):
        return 0.0 if t_cut >= self.times[-1] else None


def compute_P0(src: SourceTerm) -> float:
    """L2 norm of the primitive of the initial forcing profile."""
    return _primitive_norms(src.f_initial().values, src.grid.dx)


def _block_rows(n: int) -> int:
    """Times per block of the time-axis norms on n nodes."""
    return max(1, _BLOCK_VALUES // n)


def over_time(kernel, ts, n: int) -> np.ndarray:
    """kernel(block) for consecutive blocks of the times `ts`, in one array.

    `kernel` maps a 1-D block of at most _block_rows(n) times to one value per
    time, computed from its n samples per time.  A non-finite sample makes its
    time's value non-finite, which raises ValueError, as a Field of it would.
    """
    ts = np.asarray(ts, dtype=float)
    rows = _block_rows(n)
    out = np.empty(len(ts))
    for i in range(0, len(ts), rows):
        out[i:i + rows] = kernel(ts[i:i + rows])
    bad = ~np.isfinite(out)
    if bad.any():
        raise ValueError(f"non-finite source samples at t={ts[bad][0]}")
    return out


def _primitive_norms(rows: np.ndarray, dx: float) -> np.ndarray:
    """||primitive of each row||_2; a float for one row."""
    prim = primitive(rows, dx)
    return l2(prim, dx, out=prim)   # squared in place


def _dfdt_primitive_norms(src: SourceTerm):
    """N_infinity's kernel for over_time: ||primitive of f_t||_2 at each time of a block.

    A block's f_t rows, panels and primitives are written into three buffers
    made once, with _primitive_norms' operations in its order, so each time
    keeps the bits of its row alone.  The panels run over the flattened rows
    and those straddling two rows are never read; no panel's overflow is
    reported, as a row's own makes its norm non-finite, which over_time refuses.
    """
    n, dx = src.grid.n, src.grid.dx
    rows = _block_rows(n)
    samples, panels = np.empty(rows * n), np.empty(rows * n)
    prim = np.zeros((rows, n))    # column 0 stays zero: primitive(0) = 0

    def norms(block: np.ndarray) -> np.ndarray:
        r = len(block)
        f_t, flat, sq = samples[:r * n], panels[:r * n], prim[:r].reshape(-1)
        inside = flat.reshape(r, n)[:, :-1]    # each row's n - 1 panels
        src.dfdt(block, f_t.reshape(r, n))
        with np.errstate(over="ignore", invalid="ignore"):
            _panels(f_t, dx, flat[:-1])
        np.add.accumulate(inside, -1, None, prim[:r, 1:])
        np.multiply(sq, sq, sq)
        with np.errstate(over="ignore", invalid="ignore"):
            _panels(sq, dx, flat[:-1])
        return np.sqrt(np.add.reduce(inside, -1))

    return norms


def compute_N_infinity(
    src: SourceTerm, t_cut: float = 100.0, dt_quad: float = 1e-2
):
    """Time integral of ||primitive of f_t||_2 over (0, infinity).

    Composite trapezoid on [0, t_cut] with steps of at most dt_quad, split
    exactly at the source's kinks; a closed-form tail is added when the family
    provides one, otherwise the result is flagged as tail-truncated.  A
    separable source's integrand is |g'(t)| `phi_norm`; any other's runs on
    blocks of f_t rows reusing one set of buffers per call.  t_cut and dt_quad
    must be finite and positive (ValueError).

    Returns (value, tail_truncated).
    """
    require_positive(t_cut=t_cut, dt_quad=dt_quad)
    if not src.time_dependent:
        return 0.0, False
    if isinstance(src, SeparableSource):
        norms, width = (lambda block: src.phi_norm * np.abs(src.dgdt(block))), 1
    else:
        norms, width = _dfdt_primitive_norms(src), src.grid.n
    total = 0.0
    cuts = sorted({0.0, t_cut, *(b for b in src.breakpoints if 0.0 < b < t_cut)})
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = max(2, int(np.ceil((b - a) / dt_quad)) + 1)
        ts = np.linspace(a, b, m)
        # keep samples strictly inside the smooth segment
        eps = 1e-9 * (b - a)
        ts_eval = ts.copy()
        ts_eval[0] += eps
        ts_eval[-1] -= eps
        vals = over_time(norms, ts_eval, width)
        total += np.trapezoid(vals, ts)
    tail = src.tail_norm_integral(t_cut)
    return (total, True) if tail is None else (total + tail, False)


def forcing_gap_sq(src: SourceTerm, times) -> np.ndarray:
    """||f(t) - f_inf||_2^2 at each of the times; a separable source's, whose
    limit is zero, is (|g(t)| ||mean_zero(phi)||_2)^2, any other's on row blocks.
    """
    f_inf, dx = src.f_limit().values, src.grid.dx
    if isinstance(src, SeparableSource):
        norm = l2(mean_zero(src.phi, dx), dx)
        return pow2(over_time(lambda block: norm * np.abs(src.g(block)), times, 1))
    return pow2(over_time(lambda block: l2(src.samples(block) - f_inf, dx), times, src.grid.n))


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
    """Load a tabulated source from CSV rows (t, x, f).

    A table of one time stamp at t = 0 is constant in time: a HomogeneousSource.
    """
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
    if len(fields) > 1:
        return TabulatedSource(times, fields)
    if times[0] > 1e-12:   # refused as TabulatedSource refuses t = 0
        raise ConfigError(f"t=0.0 before the tabulated range [{times[0]}, {times[0]}]")
    return HomogeneousSource(fields[0])
