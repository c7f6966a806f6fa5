"""Implicit conservative time integration of u_t = nu (u^-2 u_x)_x + f.

The spatial operator is grid.flux_divergence, whose fluxes telescope: the
trapezoid-weighted column sums of d(rhs)/du vanish, so a Newton update dv has
mass(dv) = mass(un) - mass(v), 0 from the first iterate v = un on, and every
iterate, damped or not, keeps un's trapezoid mass to rounding.  Each step is
implicit Euler solved by damped Newton on the tridiagonal system; the
forcing is sampled at the step's end time.

Per-step diagnostics track the energy of the q = sqrt(nu)/u formulation, the
relative energy, and the H1 distance of 1/u to the steady state.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import NewtonStallError, QuenchError, SolverError, require_positive
from .grid import (HALF, ONE, Field, Grid, const, flux_buffers, flux_divergence, gradient,
                   trapezoid, write_csv)
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
        steps = step_count(self.t_end, self.dt)
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be at least 1, got {self.snapshot_stride}")
        rows, snapshots = steps + 1, steps // self.snapshot_stride + 2
        if (rows * len(DIAGNOSTIC_COLUMNS) + snapshots * self.grid.n) * 8 > MAX_RECORD_BYTES:
            raise ValueError(f"t_end/dt = {self.t_end / self.dt:.10g} steps are more than a "
                             f"record can hold ({MAX_RECORD_BYTES:,} bytes)")
        if self.u0.grid.n != self.grid.n:
            raise ValueError(
                f"u0 has {self.u0.grid.n} nodes, the grid has n = {self.grid.n}"
            )
        if np.any(self.u0.values <= 0):
            raise ValueError("u0 must be positive nodewise")
        mass = trapezoid(self.u0.values, self.grid.dx)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"u0 must have unit mass, got {mass!r}")


#: most bytes a march's record may take: its diagnostics rows and its snapshots
MAX_RECORD_BYTES = 2**30


def step_count(t_end: float, dt: float) -> int:
    """t_end/dt, which must be a whole number, at least one."""
    steps = t_end / dt
    if not (math.isfinite(steps) and round(steps) >= 1
            and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"t_end must be a whole number of steps dt, at least one; "
                         f"got t_end/dt = {steps:.10g}")
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


_CUBE = const(3.0)


def _band_scratch(m: int, packed: np.ndarray, nu: float, dt: float, memory: np.ndarray) -> tuple:
    """_jacobian_bands' scratch for m = n - 1 half nodes, nu and dt: 1/mid², d/mid³
    and the (2, m) flux derivatives, in memory (4m values); the views of them
    and of packed that it writes; and -nu and -dt as consts."""
    a, c, dF = memory[:m], memory[m:2 * m], memory[2 * m:4 * m].reshape(2, m)
    lower, diag, upper = packed[:m], packed[m:2 * m + 1], packed[2 * m + 1:3 * m + 1]
    return (a, c, dF, *dF, dF[0, 1:], dF[1, :-1], lower, diag, upper, diag[1:-1],
            packed[:3 * m + 1], const(-nu), const(-dt))


def _jacobian_bands(mid, mid2, d, nu, dx, scratch: tuple):
    """Bands (lower, diag, upper) of I - dt * d(rhs)/du, written into the packed
    buffer of scratch, _band_scratch(n - 1, packed, nu, dt, memory).

    They fill packed[:3n - 2] in _solve_packed's order and are returned as
    views of it.  mid, mid2 and d are those flux_divergence returns at the
    linearization point.  Row i is divided by its control-volume width: dx,
    or dx/2 at the ends.  nu and dx are floats or consts.
    """
    (a, c, dF, dF_left, dF_right, left_tail, right_head, lower, diag, upper, inner, bands,
     neg_nu, neg_dt) = scratch
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
_MARCH_BLOCK_SAMPLES = 2**12


class Workspace:
    """What the steps of one march share: its config, every n-sized buffer, and
    the flux terms they carry.

    packed is the (lower, diag, upper, b) buffer gtsv solves in place, with
    its call arguments and finiteness mask bound once.  terms, res and
    scratch take each iterate's flux_divergence terms, its residual and the
    temporaries of both, and bands the Jacobian's temporaries.  states holds
    a block of accepted states, K = max(1, 2**12 // n) rows, whose
    diagnostics `simulate` records in one call; memory holds the rows,
    gradients and integrands of `diagnostics` for up to K states, and
    diagnostic the views of them for K states.  u is the last iterate a step
    accepted and flux its terms, which the next step, starting from that
    very array, takes in place of computing them again.  The config's
    scalars that numpy takes as operands are consts: dx, two_dx (2 dx), nu,
    dt, sqrt_nu and inv_sqrt_nu (1/sqrt_nu).  round_off is 3 eps dt nu/dx²,
    a float: times max(u/mid²), it is the floor below which a step's
    residual is round-off.  A workspace serves one call at a time.
    """

    def __init__(self, cfg: SimulationConfig):
        n, m, dx, sqrt_nu = cfg.grid.n, cfg.grid.n - 1, cfg.grid.dx, math.sqrt(cfg.nu)
        self.cfg = cfg
        self.dx, self.two_dx, self.nu, self.dt, self.sqrt_nu, self.inv_sqrt_nu = map(
            const, (dx, 2.0 * dx, cfg.nu, cfg.dt, sqrt_nu, 1.0 / sqrt_nu))
        self.packed = np.empty(4 * n - 2)
        self.gtsv = _gtsv_arguments(self.packed)
        self.b = self.gtsv[3]
        self.terms = flux_buffers(n)
        rows = max(1, _MARCH_BLOCK_SAMPLES // n)
        self.states = np.empty((rows, n))
        self.memory = (np.empty(6 * rows * n), np.empty(6 * rows * n))
        self.diagnostic = _diagnostic_buffers(*self.memory, rows, n)
        self.res, self.scratch = np.empty(n), np.empty(n)
        self.bands = _band_scratch(m, self.packed, cfg.nu, cfg.dt, np.empty(4 * m))
        self.round_off = 3.0 * math.ulp(1.0) * cfg.dt * cfg.nu / (dx * dx)
        self.u = self.flux = None


def step(un: np.ndarray, t: float, work: Workspace, f: np.ndarray) -> tuple[np.ndarray, int]:
    """One implicit-Euler step of the nodal values un from t to t + dt.

    Returns the first iterate whose residual is at most tol, the larger of
    newton_tol and the residual's round-off floor at un, and the Newton
    count.  It is finite, as a NaN residual never ends the loop: un itself,
    with 0 iterations, if un meets tol, and a fresh array otherwise.  A
    line search that runs out of halvings raises QuenchError if every trial
    fell to the positivity floor, and NewtonStallError otherwise.  work is
    the march's Workspace, whose config the step takes; f is the forcing at
    the step's end time, the row `simulate` reads for it.  The step writes its
    flux terms, residuals and bands into work and allocates only the trial
    iterates.  When un is the very array the last step with this workspace
    returned, unchanged since, the step takes its flux terms from the
    workspace instead of computing them again; the result has the same bits
    either way.
    """
    cfg = work.cfg
    nu, dx, dt, floor, t_new = work.nu, work.dx, work.dt, cfg.positivity_floor, t + cfg.dt
    packed, scratch = work.packed, work.scratch

    def residual(v, flux):
        """The norm of v's residual, which is written into work.res."""
        res = np.add(flux[0], f, work.res)  # rhs(v), then dt times it
        res *= dt
        np.subtract(np.subtract(v, un, scratch), res, res)
        return float(np.maximum.reduce(np.absolute(res, scratch)))

    v = un
    flux = work.flux if un is work.u else flux_divergence(un, nu, dx, work.terms)
    # one set of buffers serves the iterate and its trials: the iterate's
    # terms and residual are last read to build its system, before any trial
    # rewrites them, so until the step returns they belong to no array
    work.u = None
    res_norm = residual(v, flux)
    # the residual's round-off, which Newton cannot get below: 3 eps dt nu/dx²
    # times max(u/mid²), in scratch, which the residual has spent
    q = np.divide(un[1:], flux[2], scratch[1:])
    tol = max(cfg.newton_tol, work.round_off * float(np.maximum.reduce(q)))
    iters = 0
    while not res_norm <= tol:     # a NaN residual goes on, to fail below
        if iters >= cfg.newton_max_iter:
            raise SolverError(f"Newton stalled at t={t_new:.6g} with residual {res_norm:.3g}")
        _jacobian_bands(*flux[1:], nu, dx, work.bands)
        np.negative(work.res, work.b)
        try:
            dv = _solve_packed(packed, work.gtsv)    # lives in packed until the next solve
        except ValueError as err:  # LinAlgError included
            raise SolverError(f"Newton solve failed at t={t_new:.6g}: {err}") from err
        lam, positive = 1.0, False
        for _ in range(10):
            trial = v + dv if lam == 1.0 else v + lam * dv  # 1.0 * dv is dv
            # a NaN entry makes the minimum NaN, which fails the test
            if np.minimum.reduce(trial) > floor:
                positive = True
                trial_flux = flux_divergence(trial, nu, dx, work.terms)
                trial_norm = residual(trial, trial_flux)
                if trial_norm < res_norm:
                    break
            lam *= 0.5
        else:
            if positive:
                raise NewtonStallError(
                    f"Newton stalled at t={t_new:.6g}: no damped update lowers the "
                    f"residual {res_norm:.3g} (floor {tol:.3g})"
                )
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


def diagnostics(block: np.ndarray, f: np.ndarray, steady: SteadyState, work: Workspace):
    """Energy/norm diagnostics: DIAGNOSTIC_COLUMNS but the first and last, a (k, 7) array.

    block is a (k, n) block of states and f the (k, n) rows of the forcing at
    their times, at most the workspace's K states; a row per state.  A block
    takes one gradient and one trapezoid over all its rows, and each row has
    the bits it has alone.  They are computed in the buffers of work, the
    march's Workspace, whose config they take.
    """
    cfg = work.cfg
    n, k = cfg.grid.n, len(block)
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
    gradient(rows, cfg.grid.dx, grads, work.two_dx)
    np.multiply(grads, grads, squares)
    np.multiply(qx2, HALF, density)
    np.multiply(f, q, y2)           # f q / sqrt(nu), in the row y² takes last
    y2 *= work.inv_sqrt_nu
    density += y2
    np.copyto(u_rows, block)
    np.multiply(y, y, y2)
    sums = trapezoid(integrands, work.dx, panels)
    out = np.empty((len(DIAGNOSTIC_COLUMNS) - 2, k))
    out[:5] = sums[:5]
    out[2] *= HALF                          # wx² to the relative energy
    out[3] += sums[5]                       # yx² + y², the squared H1 error of 1/u
    np.sqrt(out[3:5], out[3:5])
    np.minimum.reduce(block, 1, None, out[5])
    np.maximum.reduce(block, 1, None, out[6])
    return out.T


def simulate(cfg: SimulationConfig, steady: SteadyState | None = None) -> SimulationRecord:
    """March to t_end, recording snapshots and per-step diagnostics.

    The march steps plain arrays in one Workspace, so its memory is bounded
    by its state and its record; only the snapshots are Fields.  The
    diagnostics fill one (steps + 1) x 9 array, a row per recorded time; its
    columns, each contiguous, become the record's series.

    One schedule is made up front: the record's times k*dt, written once
    into its t column, and a mask of the snapshot steps, every
    snapshot_stride-th and the last.  The march goes in blocks of the
    workspace's K steps (K = max(1, 2**12 // n)).  Each block reads the
    forcing once, at its record times, as read-only rows through
    `SourceTerm.at`; the step to time t takes the row of t, and after the
    block's steps one `diagnostics` call records its states with the same
    rows.  Every row has the bits it would have alone.  On a solver failure
    the record is cut at the last completed step and the partial record is
    returned with the failure annotated rather than lost.

    Under a time-independent source a step is a function of u alone, so once
    a step returns its input array itself (0 iterations), every later step
    would return it again, and every later row would repeat the current one
    but for t.  The march then fills those rows and snapshots without
    stepping and stops.
    """
    if steady is None:
        steady = steady_profile(cfg.source, cfg.nu)
    n_steps = step_count(cfg.t_end, cfg.dt)
    data = np.empty((n_steps + 1, len(DIAGNOSTIC_COLUMNS)), order="F")
    times = data[:, 0]
    times[:] = np.arange(n_steps + 1) * cfg.dt
    snapshot = np.zeros(n_steps + 1, dtype=bool)
    snapshot[::cfg.snapshot_stride] = snapshot[-1] = True
    u = cfg.u0.values
    work = Workspace(cfg)
    data[:1, 1:-1] = diagnostics(u[None], cfg.source.at(times[:1]), steady, work)
    data[0, -1] = 0
    snapshots, states = [cfg.u0], work.states
    failure = failure_time = fixed_point_time = None
    static = not cfg.source.time_dependent
    end = n_steps   # the last row of the record
    for first in range(0, n_steps, len(states)):
        forcing = cfg.source.at(times[first + 1:first + 1 + len(states)])
        rows = 0
        for f in forcing:
            k = first + rows
            previous = u
            try:
                u, data[k + 1, -1] = step(u, times[k], work, f)
            except SolverError as err:
                failure, failure_time, end = str(err), float(times[k]), k
                break
            states[rows] = u
            rows += 1
            if snapshot[k + 1]:
                snapshots.append(Field(cfg.grid, u))
            # a step gives its input's bits back only as that array itself: an
            # iterate with those bits has their residual, which the line search refuses
            if static and u is previous:
                fixed_point_time = float(times[k + 1])
                break
        if rows:
            data[first + 1:first + 1 + rows, 1:-1] = diagnostics(
                states[:rows], forcing[:rows], steady, work)
        if fixed_point_time is not None:
            data[k + 2:, 1:] = data[k + 1, 1:]
            later = np.count_nonzero(snapshot[k + 2:])
            if later:
                snapshots += [Field(cfg.grid, u)] * later   # one Field for them all
        if failure is not None or fixed_point_time is not None:
            break
    return SimulationRecord(cfg, steady, times[:end + 1][snapshot[:end + 1]].tolist(),
                            snapshots, *data[:end + 1].T, failure=failure,
                            failure_time=failure_time, fixed_point_time=fixed_point_time)
