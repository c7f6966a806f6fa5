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
from scipy.linalg import solve_banded

from .errors import QuenchError, SolverError
from .grid import (
    Field,
    Grid,
    derivative,
    h1_norm,
    l2_norm,
    trapezoid_integral,
    write_csv,
)
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


@dataclass
class SimulationRecord:
    """Snapshots plus per-step diagnostics of one run."""

    config: SimulationConfig
    steady: SteadyState
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    relative_energy: list = field(default_factory=list)
    h1_error_inverse: list = field(default_factory=list)
    qx_l2: list = field(default_factory=list)
    min_u: list = field(default_factory=list)
    max_u: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    failure: str | None = None
    failure_time: float | None = None

    def columns(self) -> list:
        """The per-step series, in DIAGNOSTIC_COLUMNS order."""
        return [self.times if c == "t" else getattr(self, c)
                for c in DIAGNOSTIC_COLUMNS]

    def diagnostics_csv(self, path) -> None:
        write_csv(path, DIAGNOSTIC_COLUMNS, self.columns())


def _fluxes(u: np.ndarray, dx: float) -> np.ndarray:
    mid = 0.5 * (u[:-1] + u[1:])
    return (u[1:] - u[:-1]) / (dx * mid**2)


def rhs(u: np.ndarray, f: np.ndarray, nu: float, dx: float) -> np.ndarray:
    """nu * flux divergence + f on half-width boundary control volumes."""
    flux = _fluxes(u, dx)
    out = np.empty_like(u)
    out[1:-1] = nu * (flux[1:] - flux[:-1]) / dx
    out[0] = nu * flux[0] / (0.5 * dx)
    out[-1] = -nu * flux[-1] / (0.5 * dx)
    return out + f


def _jacobian_bands(u: np.ndarray, nu: float, dx: float, dt: float):
    """Bands (lower, diag, upper) of I - dt * d(rhs)/du, as tridiag_solve takes."""
    n = len(u)
    mid = 0.5 * (u[:-1] + u[1:])
    a = 1.0 / mid**2
    d = u[1:] - u[:-1]
    # flux_k = a(m_k) d_k / dx with m_k the arithmetic mean of the neighbors
    dF_left = (-a - d / mid**3) / dx    # d flux_k / d u_k
    dF_right = (a - d / mid**3) / dx    # d flux_k / d u_{k+1}
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    lower = np.zeros(n)   # d rhs_i / d u_{i-1}
    diag = np.zeros(n)
    upper = np.zeros(n)   # d rhs_i / d u_{i+1}
    lower[1:] = -nu * dF_left / w[1:]
    upper[:-1] = nu * dF_right / w[:-1]
    diag[0] = nu * dF_left[0] / w[0]
    diag[-1] = -nu * dF_right[-1] / w[-1]
    diag[1:-1] = nu * (dF_left[1:] - dF_right[:-1]) / w[1:-1]
    return -dt * lower, 1.0 - dt * diag, -dt * upper


def tridiag_solve(lower, diag, upper, b):
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = b[i].

    lower[0] and upper[-1] lie outside the matrix and are ignored.
    """
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, b)


def step(u: Field, t: float, cfg: SimulationConfig) -> tuple[Field, int]:
    """One implicit-Euler step from t to t + dt.

    Returns the new field and the Newton iteration count.
    """
    dx = cfg.grid.dx
    f = cfg.source.evaluate(t + cfg.dt).values
    un = u.values
    v = un.copy()

    def residual(w):
        return w - un - cfg.dt * rhs(w, f, cfg.nu, dx)

    res = residual(v)
    res_norm = float(np.max(np.abs(res)))
    iters = 0
    polish = False
    while True:
        if res_norm <= cfg.newton_tol:
            if polish:
                break
            polish = True  # one extra iteration sharpens the mass balance
        elif iters >= cfg.newton_max_iter:
            raise SolverError(
                f"Newton stalled at t={t + cfg.dt:.6g} with residual {res_norm:.3g}"
            )
        dv = tridiag_solve(*_jacobian_bands(v, cfg.nu, dx, cfg.dt), -res)
        lam = 1.0
        for _ in range(10):
            trial = v + lam * dv
            if np.all(trial > cfg.positivity_floor):
                trial_res = residual(trial)
                trial_norm = float(np.max(np.abs(trial_res)))
                if trial_norm < res_norm or res_norm <= cfg.newton_tol:
                    break
            lam *= 0.5
        else:
            raise QuenchError(
                f"Newton damping exhausted at t={t + cfg.dt:.6g} "
                f"(solution near the singular set u=0)"
            )
        v, res, res_norm = trial, trial_res, trial_norm
        iters += 1
    if np.any(v <= cfg.positivity_floor):
        raise QuenchError(f"u fell to the positivity floor at t={t + cfg.dt:.6g}")
    return u.with_values(v), iters


def diagnostics(u: Field, t: float, cfg: SimulationConfig,
                steady: SteadyState) -> dict:
    """Energy/norm diagnostics of one solution snapshot."""
    sqrt_nu = math.sqrt(cfg.nu)
    q = u.with_values(sqrt_nu / u.values)
    qx = derivative(q)
    f = cfg.source.evaluate(t)
    energy = trapezoid_integral(qx * qx * 0.5 + f * q * (1.0 / sqrt_nu))
    w = q - steady.q_infinity()
    wx = derivative(w)
    inv_err = u.with_values(1.0 / u.values - 1.0 / steady.u_infinity.values)
    return {
        "t": t,
        "mass": trapezoid_integral(u),
        "energy": energy,
        "relative_energy": 0.5 * trapezoid_integral(wx * wx),
        "h1_error_inverse": h1_norm(inv_err),
        "qx_l2": l2_norm(qx),
        "min_u": float(np.min(u.values)),
        "max_u": float(np.max(u.values)),
    }


def simulate(cfg: SimulationConfig, steady: SteadyState | None = None) -> SimulationRecord:
    """March to t_end, recording snapshots and per-step diagnostics.

    On a solver failure the partial record is returned with the failure
    annotated rather than lost.
    """
    if steady is None:
        which = "limit" if cfg.source.time_dependent else "initial"
        steady = steady_profile(cfg.source, cfg.nu, which=which)
    rec = SimulationRecord(config=cfg, steady=steady)

    def record(u, t, iters):
        d = diagnostics(u, t, cfg, steady)
        d["newton_iters"] = iters
        for name, series in zip(DIAGNOSTIC_COLUMNS, rec.columns()):
            series.append(d[name])

    u = cfg.u0
    record(u, 0.0, 0)
    rec.snapshot_times.append(0.0)
    rec.snapshots.append(u)
    n_steps = int(round(cfg.t_end / cfg.dt))
    for k in range(n_steps):
        t = k * cfg.dt
        try:
            u, iters = step(u, t, cfg)
        except SolverError as err:
            rec.failure = str(err)
            rec.failure_time = t
            return rec
        t_new = (k + 1) * cfg.dt
        record(u, t_new, iters)
        if (k + 1) % cfg.snapshot_stride == 0 or k + 1 == n_steps:
            rec.snapshot_times.append(t_new)
            rec.snapshots.append(u)
    return rec
