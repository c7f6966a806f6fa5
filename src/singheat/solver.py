"""Implicit conservative time integration of u_t = nu (u^-2 u_x)_x + f.

The unknown is u in flux form on the node-centered grid: half-node fluxes
a_{i+1/2} (u_{i+1} - u_i)/dx with a = (mean of neighbors)^-2, zero flux at
both ends, and half-width control volumes at the boundary nodes.  Flux
telescoping then conserves the trapezoid mass exactly (up to the Newton
tolerance), which is the structural constraint of the problem.  Each step is
implicit Euler solved by damped Newton on the tridiagonal system; the forcing
is sampled at t + dt.

Per-step diagnostics track the energy of the q = sqrt(nu)/u formulation, the
relative energy, and the H1 distance of 1/u to the steady state.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import QuenchError, SolverError, require_positive
from .grid import HALF, ONE, Field, Grid, const, gradient, trapezoid, write_csv
from .source import SourceTerm
from .steady import SteadyState, steady_profile


@dataclass(frozen=True)
class SimulationConfig:
    nu: float
    grid: Grid
    u0: Field
    source: SourceTerm
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_stride: int = 100
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    positivity_floor: float = 1e-8

    def __post_init__(self):
        require_positive(nu=self.nu, dt=self.dt, t_end=self.t_end, newton_tol=self.newton_tol,
                         positivity_floor=self.positivity_floor)
        step_count(self.t_end, self.dt)
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be at least 1, got {self.snapshot_stride}")
        if self.u0.grid.n != self.grid.n:
            raise ValueError(
                f"u0 has {self.u0.grid.n} nodes, the grid has n = {self.grid.n}"
            )
        if np.any(self.u0.values <= 0):
            raise ValueError("u0 must be positive nodewise")
        mass = trapezoid(self.u0.values, self.grid.dx)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"u0 must have unit mass, got {mass!r}")


def step_count(t_end: float, dt: float, name: str = "t_end") -> int:
    """t_end/dt, which must be a whole number, at least one; errors call t_end `name`."""
    steps = t_end / dt
    if not (math.isfinite(steps) and round(steps) >= 1
            and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"{name} must be a whole number of steps dt, at least one; "
                         f"got {name}/dt = {steps:.10g}")
    return round(steps)


#: diagnostics.csv columns, in file order; "t" is stored as `times`
DIAGNOSTIC_COLUMNS = (
    "t", "mass", "energy", "relative_energy", "h1_error_inverse", "qx_l2",
    "min_u", "max_u", "newton_iters",
)


def _series():
    return field(default_factory=lambda: np.empty(0))


@dataclass
class SimulationRecord:
    """Snapshots plus per-step diagnostics of one run.

    The nine per-step series come in DIAGNOSTIC_COLUMNS order; `simulate`
    makes them the columns of one array.
    """

    config: SimulationConfig
    steady: SteadyState
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    times: np.ndarray = _series()
    mass: np.ndarray = _series()
    energy: np.ndarray = _series()
    relative_energy: np.ndarray = _series()
    h1_error_inverse: np.ndarray = _series()
    qx_l2: np.ndarray = _series()
    min_u: np.ndarray = _series()
    max_u: np.ndarray = _series()
    newton_iters: np.ndarray = _series()
    failure: str | None = None
    failure_time: float | None = None
    fixed_point_time: float | None = None   # t of the first step that returned its input

    def diagnostics_csv(self, path) -> None:
        write_csv(path, DIAGNOSTIC_COLUMNS,
                  [getattr(self, "times" if c == "t" else c) for c in DIAGNOSTIC_COLUMNS])


def _flux_buffers(n: int) -> tuple:
    """Buffers for _flux_divergence at n nodes: the divergence, then the
    half-node means, their squares, the differences of u and the fluxes;
    then the views of them it writes: the divergence but its ends, and the
    fluxes but the first and but the last."""
    out, flux = np.empty(n), np.empty(n - 1)
    return (out, *(np.empty(n - 1) for _ in range(3)), flux, out[1:-1], flux[1:], flux[:-1])


def _flux_divergence(u: np.ndarray, nu, dx, buffers: tuple | None = None):
    """nu times the flux divergence of u, with the half-node means, their squares
    and the differences of u.

    They are written into buffers, _flux_buffers(len(u)), or fresh arrays if
    None.  nu and dx are floats or consts.
    """
    out, mid, mid2, d, flux, inner, right, left = buffers or _flux_buffers(len(u))
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


def _rhs_terms(u: np.ndarray, f: np.ndarray, nu: float, dx: float):
    """rhs(u), with the half-node means, their squares and the differences of u."""
    out, mid, mid2, d = _flux_divergence(u, nu, dx)
    out += f
    return out, mid, mid2, d


def rhs(u: np.ndarray, f: np.ndarray, nu: float, dx: float) -> np.ndarray:
    """nu * flux divergence + f on half-width boundary control volumes."""
    return _rhs_terms(u, f, nu, dx)[0]


_CUBE = const(3.0)


def _band_scratch(m: int, packed: np.ndarray, nu: float, dt: float,
                  memory: np.ndarray | None = None) -> tuple:
    """_jacobian_bands' scratch for m = n - 1 half nodes, nu and dt: 1/mid², d/mid³
    and the (2, m) flux derivatives, in memory (4m values) or fresh if None; the
    views of them and of packed that it writes; and -nu and -dt as consts."""
    memory = np.empty(4 * m) if memory is None else memory
    a, c, dF = memory[:m], memory[m:2 * m], memory[2 * m:4 * m].reshape(2, m)
    lower, diag, upper = packed[:m], packed[m:2 * m + 1], packed[2 * m + 1:3 * m + 1]
    return (a, c, dF, *dF, dF[0, 1:], dF[1, :-1], lower, diag, upper, diag[1:-1],
            packed[:3 * m + 1], const(-nu), const(-dt))


def _jacobian_bands(mid, mid2, d, nu, dx, dt, packed: np.ndarray,
                    scratch: tuple | None = None):
    """Bands (lower, diag, upper) of I - dt * d(rhs)/du, written into packed.

    They fill packed[:3n - 2] in _solve_packed's order and are returned as
    views of it.  mid, mid2 and d are those _rhs_terms returns at the
    linearization point.  Row i is divided by its control-volume width: dx,
    or dx/2 at the ends.  The temporaries are written into scratch,
    _band_scratch(n - 1, packed, nu, dt), or fresh arrays if None.  nu, dx
    and dt are floats or consts.
    """
    (a, c, dF, dF_left, dF_right, left_tail, right_head, lower, diag, upper, inner, bands,
     neg_nu, neg_dt) = scratch or _band_scratch(len(mid), packed, float(nu), float(dt))
    np.divide(ONE, mid2, a)
    np.power(mid, _CUBE, c)
    np.divide(d, c, c)          # d / mid³
    # flux_k = a(m_k) d_k / dx with m_k the arithmetic mean of the neighbors;
    # dF_left = d flux_k / d u_k and dF_right = d flux_k / d u_{k+1}
    np.negative(a, dF_left)
    dF_left -= c
    np.subtract(a, c, dF_right)
    dF /= dx
    # lower[i] = -dt * d rhs_{i+1} / d u_i and upper[i] = -dt * d rhs_i / d u_{i+1}
    np.multiply(neg_nu, dF_left, lower)
    lower /= dx
    np.multiply(nu, dF_right, upper)
    upper /= dx
    np.subtract(left_tail, right_head, inner)
    inner *= nu                 # d rhs_i / d u_i
    inner /= dx
    nu, half = float(nu), 0.5 * float(dx)   # the end rows' volumes are dx/2 wide
    lower[-1] = -nu * dF_left[-1] / half
    upper[0] = nu * dF_right[0] / half
    diag[0] = nu * dF_left[0] / half
    diag[-1] = -nu * dF_right[-1] / half
    bands *= neg_dt             # lower, diag and upper, each -dt times itself
    diag += ONE
    return lower, diag, upper


def _lapack_gtsv(lib):
    """LAPACK's dgtsv from the loaded library lib, as numpy's OpenBLAS exports it.

    That build is ILP64 and names it scipy_dgtsv_64_: every argument is a
    pointer, and n, nrhs, ldb and info point to int64.
    """
    try:
        gtsv = lib.scipy_dgtsv_64_
    except AttributeError:
        raise ImportError(
            "singheat solves its tridiagonal systems with dgtsv from numpy's LAPACK, "
            "and this numpy's LAPACK exports no scipy_dgtsv_64_; numpy.show_config() "
            "names the LAPACK it was built with") from None
    gtsv.argtypes = [ctypes.c_void_p] * 8
    gtsv.restype = None
    return gtsv


# a symbol lookup on numpy's linalg extension also searches the OpenBLAS it links
_gtsv = _lapack_gtsv(ctypes.CDLL(_umath_linalg.__file__))
_NRHS = ctypes.c_int64(1)   # which gtsv only reads


def _gtsv_arguments(packed: np.ndarray):
    """gtsv's eight arguments that solve packed in place, the info they point to,
    a mask for _solve_packed's finiteness check, and the view of x."""
    n = (len(packed) + 2) // 4
    rows, info = ctypes.c_int64(n), ctypes.c_int64()
    at = ctypes.addressof(ctypes.c_char.from_buffer(packed))
    # byref keeps rows and info alive; the addresses need packed kept alive
    args = (ctypes.byref(rows), ctypes.byref(_NRHS), at, at + 8 * (n - 1),
            at + 8 * (2 * n - 1), at + 8 * (3 * n - 2), ctypes.byref(rows), ctypes.byref(info))
    return args, info, np.empty(len(packed), dtype=bool), packed[3 * n - 2:]


def _solve_packed(packed: np.ndarray, bound=None) -> np.ndarray:
    """Solve in place the system packed as (lower, diag, upper, b); returns x, its tail.

    packed is a C-contiguous float64 array of 4n - 2 values that gtsv
    overwrites, bands included; bound is _gtsv_arguments(packed), made once
    for a buffer solved many times, or None.  ValueError on a non-finite
    value, and LinAlgError on a singular matrix.
    """
    args, info, finite, x = bound or _gtsv_arguments(packed)
    if np.count_nonzero(np.isfinite(packed, finite)) < len(packed):
        raise ValueError("tridiagonal system contains infs or NaNs")
    _gtsv(*args)
    if info.value:
        raise LinAlgError(f"singular matrix (gtsv info={info.value})")
    return x


def tridiag_solve(lower, diag, upper, b):
    """Solve lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = b[i].

    lower and upper hold the n - 1 entries below and above the diagonal.
    The four are copied, as floats, into one fresh buffer that LAPACK's
    gtsv solves in place, so the inputs are left as they were.  This is
    solve_banded((1, 1), ...)'s LAPACK call, with its ValueError on a
    non-finite input and numpy's LinAlgError (a ValueError) on a singular
    matrix.
    """
    n = len(diag)
    packed = np.concatenate((lower, diag, upper, b), dtype=float)
    if packed.shape != (4 * n - 2,) or len(lower) != n - 1 or len(upper) != n - 1:
        raise ValueError(f"tridiagonal system of {n} rows needs bands of {n - 1} "
                         f"and a right-hand side of {n} values")
    return _solve_packed(packed)


#: most samples (states x nodes) in a block of the march's diagnostics and
#: forcing reads.  A block costs the numpy calls of one state, whatever its
#: rows, so at n = 201 a diagnostics row costs 8-10 us in blocks of 20
#: against 34-38 us alone; at n = 1601, blocks of 2 gain nothing.
_BLOCK_VALUES = 2**12


class Workspace:
    """What the steps of one march share: every n-sized buffer, and the flux terms they carry.

    packed is the (lower, diag, upper, b) buffer gtsv solves in place, with
    its call arguments and finiteness mask bound once.  terms, res and
    scratch take each iterate's _flux_divergence terms, its residual and the
    temporaries of both, and bands the Jacobian's temporaries.  states holds
    a block of accepted states, K = max(1, 2**12 // n) rows, whose
    diagnostics `simulate` records in one call; memory holds the rows,
    gradients and integrands of `diagnostics` for up to K states, and
    diagnostic the views of them for K states.  Each buffer comes with the
    fixed views of it that its writer takes.  A step allocates only its
    trial iterates, each a fresh array, so an array `step` returns is never
    written again.  u is the last iterate a step accepted and flux its
    terms, which the next step, starting from that very array, takes in
    place of computing them again.  The config's scalars that numpy takes
    as operands are consts: dx, two_dx (2 dx), nu, dt, sqrt_nu and
    inv_sqrt_nu (1/sqrt_nu).  A workspace serves the steps and diagnostics
    of one config, one call at a time.
    """

    def __init__(self, cfg: SimulationConfig):
        n, m, dx, sqrt_nu = cfg.grid.n, cfg.grid.n - 1, cfg.grid.dx, math.sqrt(cfg.nu)
        self.cfg = cfg
        self.dx, self.two_dx, self.nu, self.dt, self.sqrt_nu, self.inv_sqrt_nu = map(
            const, (dx, 2.0 * dx, cfg.nu, cfg.dt, sqrt_nu, 1.0 / sqrt_nu))
        self.packed = np.empty(4 * n - 2)
        self.gtsv = _gtsv_arguments(self.packed)
        self.b = self.gtsv[3]
        self.terms = _flux_buffers(n)
        rows = max(1, _BLOCK_VALUES // n)
        self.states = np.empty((rows, n))
        self.memory = (np.empty(6 * rows * n), np.empty(6 * rows * n))
        self.diagnostic = _diagnostic_buffers(*self.memory, rows, n)
        # neither a step nor a diagnostics call runs inside the other, so the
        # step's residual and Jacobian temporaries take the memory of the
        # integrands, which are spent between calls
        self.res, self.scratch, bands, _ = np.split(self.memory[1][:6 * n],
                                                    (n, 2 * n, 2 * n + 4 * m))
        self.bands = _band_scratch(m, self.packed, cfg.nu, cfg.dt, bands)
        self.u = self.flux = None

    def check(self, cfg: SimulationConfig) -> None:
        """ValueError unless the workspace was made for cfg."""
        if self.cfg is not cfg:
            raise ValueError("the workspace belongs to another config")


def step(un: np.ndarray, t: float, cfg: SimulationConfig,
         work: Workspace | None = None, f: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """One implicit-Euler step of the nodal values un from t to t + dt.

    Returns the new values, a fresh array, and the Newton iteration count.
    They are finite: the loop ends only on a residual at most newton_tol,
    which is finite.  f is the forcing at t + dt, as `cfg.source.at(t +
    cfg.dt)` gives it, or None to read it so; `simulate` passes each row of
    the block it reads for the next steps.  work is the march's Workspace
    for cfg, or None for a fresh one; the step writes its flux terms,
    residuals and bands into it and allocates only the trial iterates.  When
    un is the very array the last step with this workspace returned,
    unchanged since, the step takes its flux terms from the workspace instead
    of computing them again; the result has the same bits either way.
    """
    if work is None:
        work = Workspace(cfg)
    work.check(cfg)
    nu, dx, dt, floor, t_new = work.nu, work.dx, work.dt, cfg.positivity_floor, t + cfg.dt
    packed, scratch = work.packed, work.scratch
    if f is None:
        f = cfg.source.at(t_new)

    def residual(v, flux):
        """The norm of v's residual, which is written into work.res."""
        res = np.add(flux[0], f, work.res)  # rhs(v), then dt times it
        res *= dt
        np.subtract(np.subtract(v, un, scratch), res, res)
        return float(np.maximum.reduce(np.absolute(res, scratch)))

    v = un
    flux = work.flux if un is work.u else _flux_divergence(un, nu, dx, work.terms)
    # one set of buffers serves the iterate and its trials: the iterate's
    # terms and residual are last read to build its system, before any trial
    # rewrites them, so until the step returns they belong to no array
    work.u = None
    res_norm = residual(v, flux)
    iters = 0
    polish = False
    while True:
        if res_norm <= cfg.newton_tol:
            if polish:
                break
            polish = True  # one extra iteration sharpens the mass balance
        elif iters >= cfg.newton_max_iter:
            raise SolverError(
                f"Newton stalled at t={t_new:.6g} with residual {res_norm:.3g}"
            )
        _jacobian_bands(*flux[1:], nu, dx, dt, packed, work.bands)
        np.negative(work.res, work.b)
        try:
            dv = _solve_packed(packed, work.gtsv)    # lives in packed until the next solve
        except ValueError as err:  # LinAlgError included
            raise SolverError(f"Newton solve failed at t={t_new:.6g}: {err}") from err
        lam = 1.0
        for _ in range(10):
            trial = v + dv if lam == 1.0 else v + lam * dv  # 1.0 * dv is dv
            # a NaN entry makes the minimum NaN, which fails the test
            if np.minimum.reduce(trial) > floor:
                trial_flux = _flux_divergence(trial, nu, dx, work.terms)
                trial_norm = residual(trial, trial_flux)
                if trial_norm < res_norm or res_norm <= cfg.newton_tol:
                    break
            lam *= 0.5
        else:
            raise QuenchError(
                f"Newton damping exhausted at t={t_new:.6g} "
                f"(solution near the singular set u=0)"
            )
        # every accepted iterate lies above the positivity floor
        v, res_norm, flux = trial, trial_norm, trial_flux
        iters += 1
    work.u, work.flux = v, flux
    return v, iters


def _diagnostic_buffers(spent: np.ndarray, integrands: np.ndarray, k: int, n: int) -> tuple:
    """diagnostics' buffers for k states of n nodes, in the workspace's memory: the
    (3, k, n) rows, their gradients, the (6, k, n) integrands and their (6, k, n - 1)
    trapezoid panels; then the views of them it writes: each row, the third to
    fifth integrands and each integrand.

    Each is a contiguous view of the first values of its memory, so a row
    of a block is the row it would be alone.  The rows and gradients are
    spent by the time the panels, which take their memory, are written.
    """
    rows, grads = (spent[i * k * n:(i + 3) * k * n].reshape(3, k, n) for i in (0, 3))
    integrands = integrands[:6 * k * n].reshape(6, k, n)
    return (rows, grads, integrands, spent[:6 * k * (n - 1)].reshape(6, k, n - 1), *rows,
            integrands[2:5], *integrands)


def diagnostics(uv: np.ndarray, t, cfg: SimulationConfig, steady: SteadyState,
                work: Workspace | None = None):
    """Energy/norm diagnostics: DIAGNOSTIC_COLUMNS but the last.

    uv is the nodal values at a time t, which gives a tuple of floats, or
    a (k, n) block of states at a 1-D array of k times, which gives a (k, 8)
    array, one row per state.  A block takes one gradient and one trapezoid
    over all its rows and one forcing read for its times, and each row has
    the bits it has alone: one state is the block of one.  They are computed
    in the buffers of work, the march's Workspace for cfg, or of a fresh one
    if None; a block holds at most its K states.
    """
    if work is None:
        work = Workspace(cfg)
    work.check(cfg)
    n = cfg.grid.n
    block = uv.reshape(-1, n)
    k = len(block)
    if not 0 < k <= len(work.states):
        raise ValueError(f"a block of {k} states; the workspace holds 1 to {len(work.states)}")
    q_inf, inverse_u_inf = steady.inverse_profiles
    # rows: w = q - q_inf, y = 1/u - 1/u_inf and q = sqrt(nu)/u; integrands:
    # u, the energy density, wx², yx², qx² and y², so that the sums of the
    # first five are the columns from mass to qx_l2 before the last steps
    (rows, grads, integrands, panels, w, y, q, squares, u_rows, density, _, _, qx2,
     y2) = work.diagnostic if k == len(work.states) else _diagnostic_buffers(*work.memory, k, n)
    np.divide(work.sqrt_nu, block, q)
    np.subtract(q, q_inf, w)
    np.divide(ONE, block, y)
    y -= inverse_u_inf
    f = cfg.source.at(t)
    gradient(rows, cfg.grid.dx, grads, work.two_dx)
    np.multiply(grads, grads, squares)
    np.multiply(qx2, HALF, density)
    np.multiply(f, q, y2)           # f q / sqrt(nu), in the row y² takes last
    y2 *= work.inv_sqrt_nu
    density += y2
    np.copyto(u_rows, block)
    np.multiply(y, y, y2)
    sums = trapezoid(integrands, work.dx, panels)
    out = np.empty((len(DIAGNOSTIC_COLUMNS) - 1, k))
    out[0] = t
    out[1:6] = sums[:5]
    out[3] *= HALF                          # wx² to the relative energy
    out[4] += sums[5]                       # yx² + y², the squared H1 error of 1/u
    np.sqrt(out[4:6], out[4:6])
    np.minimum.reduce(block, 1, None, out[6])
    np.maximum.reduce(block, 1, None, out[7])
    return tuple(out[:, 0].tolist()) if uv.ndim == 1 else out.T


def simulate(cfg: SimulationConfig, steady: SteadyState | None = None) -> SimulationRecord:
    """March to t_end, recording snapshots and per-step diagnostics.

    The march steps plain arrays; only the snapshots are Fields.  Its steps
    and diagnostics share one Workspace: every n-sized buffer they write,
    the gtsv buffer among them with its arguments bound once, and the flux
    terms of each step's last iterate, which the next step's first residual
    reuses.  So a step allocates only its trial iterates, and the march's
    memory is bounded by its state and its record.  The diagnostics fill
    one (steps + 1) x 9 array, a row per recorded time; its columns, each
    contiguous, become the record's series.

    The march goes in blocks of the workspace's K steps (K = max(1, 2**12 //
    n)).  It reads the forcing once per block, as read-only rows through
    `SourceTerm.at`: one row per step time k*dt + dt, handed to `step`.  It
    copies each accepted state into the workspace's block and records the
    block's rows in one `diagnostics` call, at the record times (k + 1)*dt,
    when the block is full, at the end, before the fixed-point fill below,
    and on a solver failure.  Every row has the bits it would have alone.
    On a solver failure the array is cut at the last completed step and the
    partial record is returned with the failure annotated rather than lost.

    Under a time-independent source a step is a function of u alone, so once
    a step returns its input bit for bit, every later step would return it
    again with the same Newton count, and every later row would repeat the
    current one but for t.  The march then fills those rows and snapshots
    without stepping and stops.
    """
    if steady is None:
        steady = steady_profile(cfg.source, cfg.nu)
    n_steps = step_count(cfg.t_end, cfg.dt)
    data = np.empty((n_steps + 1, len(DIAGNOSTIC_COLUMNS)), order="F")
    u = cfg.u0.values
    work = Workspace(cfg)
    data[0] = (*diagnostics(u, 0.0, cfg, steady, work=work), 0)
    states, block = work.states, len(work.states)

    def record(first: int, rows: int) -> None:
        """Record the states of steps first to first + rows - 1, at their times (k + 1)*dt."""
        times = np.arange(first + 1, first + rows + 1) * cfg.dt
        data[first + 1:first + rows + 1, :-1] = diagnostics(states[:rows], times, cfg, steady,
                                                            work=work)

    snapshot_times, snapshots = [0.0], [cfg.u0]
    failure = failure_time = fixed_point_time = None
    static = not cfg.source.time_dependent
    done = n_steps
    for k in range(n_steps):
        j = k % block
        if j == 0:
            forcing = cfg.source.at(np.arange(k, min(k + block, n_steps)) * cfg.dt + cfg.dt)
        t = k * cfg.dt
        previous = u
        try:
            u, iters = step(u, t, cfg, work=work, f=forcing[j])
        except SolverError as err:
            failure, failure_time, done = str(err), t, k
            if j:
                record(k - j, j)
            break
        states[j] = u
        data[k + 1, -1] = iters
        # equal bytes are equal bits, which is all the step reads of u
        fixed = static and u.tobytes() == previous.tobytes()
        if fixed or j == block - 1 or k + 1 == n_steps:
            record(k - j, j + 1)
        t_new = (k + 1) * cfg.dt
        if (k + 1) % cfg.snapshot_stride == 0 or k + 1 == n_steps:
            snapshot_times.append(t_new)
            snapshots.append(Field(cfg.grid, u))
        if fixed:
            fixed_point_time = t_new
            later = np.arange(k + 2, n_steps + 1)
            data[k + 2:] = data[k + 1]
            data[k + 2:, 0] = later * cfg.dt    # row i at i * dt, as t_new is
            later = later[(later % cfg.snapshot_stride == 0) | (later == n_steps)]
            if len(later):
                snapshot_times += (later * cfg.dt).tolist()
                snapshots += [Field(cfg.grid, u)] * len(later)   # one Field for them all
            break
    return SimulationRecord(cfg, steady, snapshot_times, snapshots,
                            *data[:done + 1].T, failure=failure,
                            failure_time=failure_time, fixed_point_time=fixed_point_time)
