"""Seeded inputs, operations and output checks of the benchmark workloads.

A workload is a fixed list of operations that one caller runs in a closed
loop: each starts after the previous one ends.  The seed draws the workload's
free parameters inside the boxes below; the program sees them only through
the config files that `generate` writes.  The same seed gives the same files.

Every operation is checked.  A failure that matches a documented defect of
the program (`KNOWN_DEFECTS`) is recorded with its class and message and
counted as known; anything else, including a failed output check, fails the
operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from singheat import Field, Grid, cli, make_source, solver

WORKLOADS = ("static-march", "decaying-forcing", "fine-grid")

# boxes the seed draws from; every draw satisfies its theorem's hypotheses
STATIC_A = (1.0, 2.0)        # cosine_static amplitude: 2 P0 = sqrt(2) a / pi <= 0.9 < nu
STATIC_NU = (1.0, 2.0)
DECAY_RATE = (0.5, 2.0)      # cosine_exp rate
DECAY_NU = (5.0, 20.0)       # above nu_plus ~ 1.31 for both decaying families
SHEET_EPS = (0.0, 0.3)       # h0 = cosine_bump eps
SHEET_SPEED = (0.25, 0.75)   # v0 = sine s

FINE_T_END = 0.01            # short, so the dt = 1e-3 fine-grid marches add little
                             # time to a pass once they run

MASS_DRIFT = 1e-13
BOUND_SLACK = 1e-9
C_INFINITY = math.sqrt(4 * math.pi**2 + 1)   # steady constant of ex-2-4 data
C_INFINITY_TOL = 1e-4                        # acceptance criterion 1
N_INF_DECAY = 1 / (math.pi * math.sqrt(2))   # N_infinity (and P0) of both decaying families
N_INF_TOL = 1e-4
SSM_MASS_TOL = 1e-9
CROSSCHECK_TOL = 0.02

KNOWN_DEFECTS = {
    "newton-stall-mislabel":
        "at n >= 1601 and dt = 1e-3 Newton stalls at round-off on the first step "
        "and raises QuenchError 'near the singular set' while min u is ~1",
    "homogeneous-envelope-plateau":
        "the homogeneous H1 envelope exits 3 once lambda * t_end >~ 10: the H1 "
        "error of 1/u plateaus at O(dx^2), far above decay.DEFAULT_FLOOR",
}


class CheckFailed(Exception):
    """An operation's output failed a benchmark check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def head(text: str, width: int = 120) -> str:
    lines = [line for line in str(text).strip().splitlines() if line.strip()]
    return lines[0][:width] if lines else ""


@dataclass
class Run:
    """What one operation produced."""

    value: object          # CLI exit code, or a SimulationRecord
    out: Path
    stdout: str
    stderr: str
    marches: list          # spans.March entries recorded during the call


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[Path], object]
    # returns None, or (known defect, detail); raises CheckFailed
    check: Callable[[Run], tuple | None]


@dataclass(frozen=True)
class Workload:
    params: dict    # the seeded draw
    ops: tuple


def draw(workload: str, seed: int) -> dict:
    """The workload's seeded parameters."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])

    def uniform(box):
        return float(rng.uniform(*box))

    if workload == "static-march":
        return {"a": uniform(STATIC_A), "nu": uniform(STATIC_NU)}
    if workload == "decaying-forcing":
        family = "cosine_decay" if rng.random() < 0.5 else "cosine_exp"
        rate = uniform(DECAY_RATE)
        source = "cosine_decay" if family == "cosine_decay" else f"cosine_exp {rate!r}"
        return {"source": source, "nu": uniform(DECAY_NU)}
    if workload == "fine-grid":
        return {"eps": uniform(SHEET_EPS), "speed": uniform(SHEET_SPEED)}
    raise ValueError(f"unknown workload {workload!r}")


def _write_config(path: Path, **entries) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return str(path)


def generate(workload: str, seed: int, inputs: Path) -> Workload:
    """Write the workload's config files into `inputs` and list its operations."""
    inputs.mkdir(parents=True, exist_ok=True)
    p = draw(workload, seed)
    if workload == "static-march":
        cfg = _write_config(inputs / "simulate.txt", source=f"cosine_static {p['a']!r}",
                            nu=repr(p["nu"]), n=401, dt="1e-3", t_end=4)
        ops = (
            Op("example-ex-2-4", _cli("example", "ex-2-4"),
               _homogeneous_check(math.pi / 2, 1.0, allow_plateau=False)),
            Op("simulate", _cli("simulate", "--config", cfg),
               _homogeneous_check(p["a"], p["nu"], allow_plateau=True)),
        )
    elif workload == "decaying-forcing":
        sim = _write_config(inputs / "simulate.txt", source=p["source"], nu=repr(p["nu"]),
                            n=201, dt="1e-3", t_end=3)
        const = _write_config(inputs / "constants.txt", source=p["source"], nu=repr(p["nu"]))
        ops = (
            Op("example-ex-3-3", _cli("example", "ex-3-3"), _inhomogeneous_check(10.0)),
            Op("simulate", _cli("simulate", "--config", sim), _inhomogeneous_check(p["nu"])),
            Op("constants", _cli("constants", "--config", const, "--n", "2001"),
               _check_constants),
        )
    else:
        steady = _write_config(inputs / "steady.txt", source=f"cosine_static {math.pi / 2!r}",
                               nu=1)
        sheet = dict(nu=1, M=1, h0=f"cosine_bump {p['eps']!r}", v0=f"sine {p['speed']!r}")
        transform = _write_config(inputs / "transform.txt", **sheet)
        # dt = 5e-4 is the step at which n = 1601 marches today
        crosscheck = _write_config(inputs / "crosscheck.txt", **sheet, dt="5e-4",
                                   dt_ssm="2e-3", t_check=1, tolerance=CROSSCHECK_TOL)
        ops = (
            Op("steady", _cli("steady", "--config", steady, "--n", "6401"), _check_steady),
            Op("transform", _cli("transform", "--config", transform, "--n", "6401"),
               _check_transform),
            Op("ssm-crosscheck", _cli("ssm-crosscheck", "--config", crosscheck, "--n", "1601"),
               _check_crosscheck),
            Op("march-1601", _ex24_march(1601), _fine_march_check),
            Op("march-6401", _ex24_march(6401), _fine_march_check),
        )
    return Workload(p, ops)


def _cli(*argv):
    def call(out: Path):
        return cli.main([*argv, "--out", str(out)])
    return call


def _ex24_march(n: int):
    """ex-2-4 data marched directly with dt = 1e-3."""
    def call(out: Path):
        grid = Grid(n)
        cfg = solver.SimulationConfig(
            nu=1.0, grid=grid, u0=Field(grid, np.ones(n)),
            source=make_source(grid, f"cosine_static {math.pi / 2!r}"),
            dt=1e-3, t_end=FINE_T_END,
        )
        return solver.simulate(cfg)
    return call


# ---- checks -----------------------------------------------------------------

def homogeneous_bounds(a: float, nu: float):
    """Pointwise bounds of the homogeneous theorem for u0 = 1 (R0 = 0)."""
    two_p0 = math.sqrt(2) * a / math.pi
    return nu / (nu + two_p0), nu / (nu - two_p0)


def inhomogeneous_bounds(nu: float):
    """A-, A+ for u0 = 1 and a decaying family with P0 = N_inf = 1/(pi sqrt 2)."""
    p = n = N_INF_DECAY
    s = n + p
    k = 2 * n + p + math.sqrt(s * s + 2 * s * n)
    return nu / (nu + k), nu / (nu - k)


def check_marches(marches, bounds=None) -> None:
    """Mass drift, positivity and optional pointwise bounds on every record."""
    require(len(marches) > 0, "no march recorded")
    for m in marches:
        rec = m.record
        require(rec is not None, f"march raised {m.error_class}: {head(m.failure)}")
        mass = np.asarray(rec.mass)
        drift = float(np.max(np.abs(mass - mass[0])))
        require(drift <= MASS_DRIFT, f"mass drift {drift:.3g} > {MASS_DRIFT:g}")
        lo_u, hi_u = float(np.min(rec.min_u)), float(np.max(rec.max_u))
        require(lo_u > 0, f"min u = {lo_u!r} is not positive")
        if bounds is not None:
            lo, hi = bounds
            require(lo - BOUND_SLACK <= lo_u and hi_u <= hi + BOUND_SLACK,
                    f"u in [{lo_u:.6g}, {hi_u:.6g}] leaves the bounds [{lo:.6g}, {hi:.6g}]")


def _exit_ok(run: Run) -> None:
    require(run.value == 0, f"exit {run.value}: {head(run.stderr or run.stdout)}")


def _march_completed(run: Run) -> None:
    for m in run.marches:
        require(m.failure is None, f"{m.error_class}: {head(m.failure)}")


def _homogeneous_check(a: float, nu: float, allow_plateau: bool):
    def check(run: Run):
        check_marches(run.marches, homogeneous_bounds(a, nu))
        _march_completed(run)
        if allow_plateau and run.value == 3 and "envelope_ok=False bounds_ok=True" in run.stdout:
            return "homogeneous-envelope-plateau", f"exit 3: {head(run.stdout)}"
        _exit_ok(run)
        return None
    return check


def _inhomogeneous_check(nu: float):
    def check(run: Run):
        check_marches(run.marches, inhomogeneous_bounds(nu))
        _march_completed(run)
        _exit_ok(run)
        return None
    return check


def _check_constants(run: Run):
    _exit_ok(run)
    data = json.loads((run.out / "constants.json").read_text())
    err = abs(data["N_infinity"] - N_INF_DECAY)
    require(err <= N_INF_TOL, f"N_infinity off by {err:.3g}")
    require(data["hypotheses"]["inhom"], "inhomogeneous hypotheses reported false")
    return None


def _check_steady(run: Run):
    _exit_ok(run)
    data = json.loads((run.out / "report.json").read_text())
    err = abs(data["C_infinity"] - C_INFINITY)
    require(err <= C_INFINITY_TOL, f"C_infinity off by {err:.3g}")
    return None


def _check_transform(run: Run):
    _exit_ok(run)
    f0 = np.loadtxt(run.out / "f0.csv", delimiter=",", skiprows=1)
    require(f0.shape == (6401, 2) and np.all(np.isfinite(f0)), "f0.csv malformed")
    mean = float(np.trapezoid(f0[:, 1], f0[:, 0]))
    require(abs(mean) <= 1e-12, f"f0 mean {mean:.3g} is not zero")
    return None


def _check_crosscheck(run: Run):
    check_marches(run.marches)
    _march_completed(run)
    _exit_ok(run)
    mismatch = json.loads((run.out / "crosscheck.json").read_text())["max_rel_error_h"]
    require(mismatch <= CROSSCHECK_TOL, f"cross-check mismatch {mismatch:.4g}")
    sheet = np.loadtxt(run.out / "sheet_final.csv", delimiter=",", skiprows=1)
    drift = abs(float(np.trapezoid(sheet[:, 1], sheet[:, 0])) - 1.0)
    require(drift <= SSM_MASS_TOL, f"SSM mass drift {drift:.3g}")
    return None


def _fine_march_check(run: Run):
    check_marches(run.marches, homogeneous_bounds(math.pi / 2, 1.0))
    (m,) = run.marches
    if m.failure is None:
        return None
    last_min_u = m.record.min_u[-1]
    if (m.error_class == "QuenchError" and m.failure.startswith("Newton damping exhausted")
            and last_min_u > 0.1):
        return "newton-stall-mislabel", f"{m.error_class}: {head(m.failure)}"
    raise CheckFailed(f"{m.error_class}: {head(m.failure)}")
