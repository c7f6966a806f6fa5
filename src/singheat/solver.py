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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .errors import QuenchError, SolverError
from .grid import Field, Grid, gradient, h1, l2, trapezoid, trapezoid_integral, write_csv
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
        if self.nu <= 0 or self.dt <= 0 or self.t_end <= 0:
            raise ValueError("nu, dt and t_end must be positive")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be at least 1, got {self.snapshot_stride}")
        if self.u0.grid.n != self.grid.n:
            raise ValueError(
                f"u0 has {self.u0.grid.n} nodes, the grid has n = {self.grid.n}"
            )
        if np.any(self.u0.values <= 0):
            raise ValueError("u0 must be positive nodewise")
        mass = trapezoid_integral(self.u0)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"u0 must have unit mass, got {mass!r}")


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

    def diagnostics_csv(self, path) -> None:
        # Python floats: the writer formats them faster than numpy scalars
        write_csv(path, DIAGNOSTIC_COLUMNS,
                  [getattr(self, "times" if c == "t" else c).tolist()
                   for c in DIAGNOSTIC_COLUMNS])


def _rhs_terms(u: np.ndarray, f: np.ndarray, nu: float, dx: float):
    """rhs(u), with the half-node means and differences of u it is built from."""
    mid = 0.5 * (u[:-1] + u[1:])
    d = u[1:] - u[:-1]
    flux = d / (dx * mid**2)
    out = np.empty(len(u))
    out[1:-1] = nu * (flux[1:] - flux[:-1]) / dx
    out[0] = nu * flux[0] / (0.5 * dx)
    out[-1] = -nu * flux[-1] / (0.5 * dx)
    out += f
    return out, mid, d


def rhs(u: np.ndarray, f: np.ndarray, nu: float, dx: float) -> np.ndarray:
    """nu * flux divergence + f on half-width boundary control volumes."""
    return _rhs_terms(u, f, nu, dx)[0]


def _jacobian_bands(mid, d, nu: float, dx: float, dt: float):
    """Bands (lower, diag, upper) of I - dt * d(rhs)/du, as tridiag_solve takes.

    mid and d are those _rhs_terms returns at the linearization point.
    """
    n = len(d) + 1
    a = 1.0 / mid**2
    c = d / mid**3
    # flux_k = a(m_k) d_k / dx with m_k the arithmetic mean of the neighbors
    dF_left = (-a - c) / dx     # d flux_k / d u_k
    dF_right = (a - c) / dx     # d flux_k / d u_{k+1}
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    lower = np.zeros(n)   # -dt * d rhs_i / d u_{i-1}
    diag = np.empty(n)    # d rhs_i / d u_i
    upper = np.zeros(n)   # -dt * d rhs_i / d u_{i+1}
    lower[1:] = -dt * (-nu * dF_left / w[1:])
    upper[:-1] = -dt * (nu * dF_right / w[:-1])
    diag[0] = nu * dF_left[0] / w[0]
    diag[-1] = -nu * dF_right[-1] / w[-1]
    diag[1:-1] = nu * (dF_left[1:] - dF_right[:-1]) / w[1:-1]
    return lower, 1.0 - dt * diag, upper


_gtsv = get_lapack_funcs("gtsv", dtype=np.float64)


def tridiag_solve(lower, diag, upper, b):
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = b[i].

    lower[0] and upper[-1] lie outside the matrix and are ignored.  This is
    solve_banded((1, 1), ...)'s LAPACK call, with its ValueError on a
    non-finite input and LinAlgError on a singular matrix.
    """
    dl, du = lower[1:], upper[:-1]
    if not np.isfinite(np.concatenate((dl, diag, du, b))).all():
        raise ValueError("tridiagonal system contains infs or NaNs")
    x, info = _gtsv(dl, diag, du, b)[3:]
    if info:
        raise LinAlgError(f"singular matrix (gtsv info={info})")
    return x


def step(u: Field, t: float, cfg: SimulationConfig) -> tuple[Field, int]:
    """One implicit-Euler step from t to t + dt.

    Returns the new field and the Newton iteration count.
    """
    dx, dt, nu = cfg.grid.dx, cfg.dt, cfg.nu
    f = cfg.source.evaluate(t + dt).values
    un = u.values

    def residual(v):
        terms, mid, d = _rhs_terms(v, f, nu, dx)
        res = v - un - dt * terms
        return res, float(np.abs(res).max()), mid, d

    v = un
    res, res_norm, mid, d = residual(v)
    iters = 0
    polish = False
    while True:
        if res_norm <= cfg.newton_tol:
            if polish:
                break
            polish = True  # one extra iteration sharpens the mass balance
        elif iters >= cfg.newton_max_iter:
            raise SolverError(
                f"Newton stalled at t={t + dt:.6g} with residual {res_norm:.3g}"
            )
        bands = _jacobian_bands(mid, d, nu, dx, dt)
        try:
            dv = tridiag_solve(*bands, -res)
        except ValueError as err:  # LinAlgError included
            raise SolverError(f"Newton solve failed at t={t + dt:.6g}: {err}") from err
        lam = 1.0
        for _ in range(10):
            trial = v + lam * dv
            if (trial > cfg.positivity_floor).all():
                trial_res, trial_norm, trial_mid, trial_d = residual(trial)
                if trial_norm < res_norm or res_norm <= cfg.newton_tol:
                    break
            lam *= 0.5
        else:
            raise QuenchError(
                f"Newton damping exhausted at t={t + dt:.6g} "
                f"(solution near the singular set u=0)"
            )
        v, res, res_norm, mid, d = trial, trial_res, trial_norm, trial_mid, trial_d
        iters += 1
    if (v <= cfg.positivity_floor).any():
        raise QuenchError(f"u fell to the positivity floor at t={t + dt:.6g}")
    return u.with_values(v), iters


def diagnostics(u: Field, t: float, cfg: SimulationConfig,
                steady: SteadyState) -> tuple:
    """Energy/norm diagnostics of one snapshot: DIAGNOSTIC_COLUMNS but the last."""
    dx = cfg.grid.dx
    uv = u.values
    sqrt_nu = math.sqrt(cfg.nu)
    q = sqrt_nu / uv
    qx = gradient(q, dx)
    f = cfg.source.evaluate(t).values
    energy = trapezoid(qx * qx * 0.5 + f * q * (1.0 / sqrt_nu), dx)
    u_inf = steady.u_infinity.values
    # q - steady.q_infinity(), without building a Field
    wx = gradient(q - np.sqrt(steady.nu) / u_inf, dx)
    return (
        t,
        trapezoid(uv, dx),
        energy,
        0.5 * trapezoid(wx * wx, dx),
        h1(1.0 / uv - 1.0 / u_inf, dx),
        l2(qx, dx),
        float(uv.min()),
        float(uv.max()),
    )


def simulate(cfg: SimulationConfig, steady: SteadyState | None = None) -> SimulationRecord:
    """March to t_end, recording snapshots and per-step diagnostics.

    The diagnostics fill one (steps + 1) x 9 array, a row per recorded time;
    its columns, each contiguous, become the record's series.  On a solver
    failure the array is cut at the last completed step and the partial
    record is returned with the failure annotated rather than lost.
    """
    if steady is None:
        steady = steady_profile(cfg.source, cfg.nu)
    n_steps = int(round(cfg.t_end / cfg.dt))
    data = np.empty((n_steps + 1, len(DIAGNOSTIC_COLUMNS)), order="F")
    u = cfg.u0
    data[0] = (*diagnostics(u, 0.0, cfg, steady), 0)
    snapshot_times, snapshots = [0.0], [u]
    failure = failure_time = None
    done = n_steps
    for k in range(n_steps):
        t = k * cfg.dt
        try:
            u, iters = step(u, t, cfg)
        except SolverError as err:
            failure, failure_time, done = str(err), t, k
            break
        t_new = (k + 1) * cfg.dt
        data[k + 1] = (*diagnostics(u, t_new, cfg, steady), iters)
        if (k + 1) % cfg.snapshot_stride == 0 or k + 1 == n_steps:
            snapshot_times.append(t_new)
            snapshots.append(u)
    return SimulationRecord(cfg, steady, snapshot_times, snapshots,
                            *data[:done + 1].T,
                            failure=failure, failure_time=failure_time)
