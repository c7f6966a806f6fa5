"""Command-line front end: wires config files to the modules and writes
CSV/JSON artifacts, including one-command reproductions of the two worked
examples (constant-height sheet with a sine kick; decaying cosine forcing).

Exit codes: 0 success, 2 hypothesis violation, 3 solver failure, 4 config
error (usage errors and config keys a command does not read included), 5 a
ValueError raised once a command has built its inputs and begun its output,
which is a fault of the program, not of the config.  The
forcing picks the theorem: homogeneous for a time-independent source,
inhomogeneous otherwise.  Identical configs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import platform
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__, lagrangian
from .constants import TheoremConstants
from .decay import (
    check_gradient_energy_envelope, check_homogeneous_envelope, envelope_csv, homogeneous_bound,
)
from .errors import ConfigError, HypothesisError, SingheatError, SolverError, require_positive
from .grid import Field, Grid, read_field_csv, trapezoid, write_field_csv, write_json
from .solver import SimulationConfig, SimulationRecord, simulate, step_count
from .source import HomogeneousSource, compute_P0, make_source, parse_spec, spec_number
from .steady import steady_profile

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5

#: worked examples: name -> the simulate config it runs, with u0 = 1 and
#: SimulationConfig's dt unless a flag sets them
EXAMPLES = {
    "ex-2-4": {"nu": 1.0, "n": 401, "source": f"cosine_static {math.pi / 2}", "t_end": 8.0},
    "ex-3-3": {"nu": 10.0, "n": 201, "source": "cosine_decay", "t_end": 3.0},
}

#: march settings a simulate config may set; an unset one keeps SimulationConfig's default
MARCH_KEYS = ("dt", "t_end", "snapshot_stride", "newton_tol", "newton_max_iter",
              "positivity_floor")

#: what --dt and --t-end set on the commands that take them: (config key, help)
TIME_FLAGS = {
    "simulate": (("dt", "time step"), ("t_end", "end time")),
    "example": (("dt", "time step"), ("t_end", "end time")),
    "ssm-crosscheck": (("dt_ssm", "time step of the sheet solver"),
                       ("t_check", "time of the check")),
}

#: the config keys each command reads, each with its default, or with its type
#: where the command needs it set; any other key is a config error.  A key's
#: kind is that type, or the type of its default: a str is a spec, passed on as
#: it is; an int must be at least 1; a float must be finite and positive
CONFIG_KEYS = {
    "steady": {"source": str, "nu": float, "n": 4097},
    "constants": {"source": str, "nu": float, "n": 2001, "u0": "constant 1"},
    "simulate": {"source": str, "nu": float, "n": 401, "u0": "constant 1",
                 **{key: getattr(SimulationConfig, key) for key in MARCH_KEYS}},
    "transform": {"nu": float, "n": 401, "M": 1.0, "h0": "constant", "v0": "zero"},
    "ssm-crosscheck": {"nu": 1.0, "n": 201, "M": 1.0, "h0": "constant", "v0": "sine 0.5",
                       "dt": SimulationConfig.dt, "dt_ssm": 2e-3, "t_check": 1.0,
                       "tolerance": 0.02},
}
CONFIG_KEYS["example"] = CONFIG_KEYS["simulate"]     # set by its EXAMPLES entry and flags


def read_config(path, keys) -> dict:
    """Flat key = value text file of the given keys; later keys override earlier ones."""
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(
                f"{path}:{lineno}: unknown key '{key}' (expected one of: {', '.join(keys)})"
            )
        cfg[key] = value
    return cfg


def _normalized(grid: Grid, vals: np.ndarray, mass: float) -> Field:
    """vals scaled to the given trapezoid mass."""
    return Field(grid, mass * vals / trapezoid(vals, grid.dx))


def _make_u0(grid: Grid, spec: str) -> Field:
    return parse_spec("u0", spec, {
        "constant": lambda value=1.0: Field(grid, np.full(grid.n, spec_number(value))),
        # 1/(1 + eps sin(pi x)): unit mass to round-off is restored by scaling
        "inverse_sine": lambda eps: _normalized(
            grid, 1.0 / (1.0 + spec_number(eps) * np.sin(np.pi * grid.nodes)), 1.0),
        "csv": lambda path: read_field_csv(path, grid),
    })


def _settings(args, data=None) -> dict:
    """The command's config keys, each parsed and checked by its kind, from its
    flag (n and the command's TIME_FLAGS), the config file, the data given (an
    example's) or its default, the first that sets it."""
    keys = CONFIG_KEYS[args.command]
    flags = {key: value for key, value in vars(args).items() if key in keys and value is not None}
    given = {**(data or {}), **(read_config(args.config, keys) if args.config else {}), **flags}
    cfg = {}
    for key, entry in keys.items():
        kind = entry if isinstance(entry, type) else type(entry)
        if key not in given and kind is entry:
            raise ConfigError(f"missing config key '{key}'")
        value = kind(given.get(key, entry))
        if kind is int and value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
        if kind is float:
            require_positive(**{key: value})
        cfg[key] = value
    return cfg


def _build_sim_config(cfg: dict) -> SimulationConfig:
    grid = Grid(cfg["n"])
    source = make_source(grid, cfg["source"])
    return SimulationConfig(nu=cfg["nu"], grid=grid, u0=_make_u0(grid, cfg["u0"]),
                            source=source, **{key: cfg[key] for key in MARCH_KEYS})


def _write_manifest(out: Path, command: str, config_path,
                    march: SimulationConfig | None = None) -> None:
    """What ran: the command, its config file and the sha256 of its bytes, the
    resolved settings of its march (null for a command that marches none), and
    the versions."""
    write_json(out / "manifest.json", {
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "config_sha256": (hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
                          if config_path else None),
        "output_dir": str(out),
        "march": None if march is None else {
            "n": march.grid.n, "nu": march.nu,
            **{key: getattr(march, key) for key in MARCH_KEYS}},
        "seedless": True,
        "versions": {"singheat": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
    })


def cmd_steady(args) -> int:
    cfg = _settings(args)
    source = make_source(Grid(cfg["n"]), cfg["source"])
    out = _prepare_out(args, "steady")
    state = steady_profile(source, cfg["nu"])
    state.to_json(out / "steady.json")
    state.profile_csv(out / "u_infinity.csv")
    # sheet-side constant: h_inf(y_inf(x)) = M/u_inf scaled into 2 pi h form
    write_json(out / "report.json", {
        "C_nu": state.C_nu,
        "C_infinity": 2 * math.pi * state.C_nu + 1,
        "residual_l2": state.residual_l2,
        "mass_defect": state.mass_defect,
    })
    print(f"C_nu = {state.C_nu:.10g}  residual_l2 = {state.residual_l2:.3g}")
    return EXIT_OK


def cmd_constants(args) -> int:
    cfg = _settings(args)
    grid = Grid(cfg["n"])
    source = make_source(grid, cfg["source"])
    consts = TheoremConstants.from_problem(_make_u0(grid, cfg["u0"]), source, cfg["nu"])
    out = _prepare_out(args, "constants")
    consts.to_json(out / "constants.json")
    print(
        f"R0={consts.R0:.6g} P0={consts.P0:.6g} N_inf={consts.N_infinity:.6g} "
        f"nu_plus={consts.nu_plus:.6g} hom={consts.hom_ok} inhom={consts.inhom_ok}"
    )
    theorem, ok = (("inhomogeneous", consts.inhom_ok) if source.time_dependent
                   else ("homogeneous", consts.hom_ok))
    if not ok:
        raise HypothesisError(f"{theorem} admissibility conditions fail")
    return EXIT_OK


def _march(sim_cfg: SimulationConfig) -> SimulationRecord:
    """simulate(sim_cfg); a failed march raises, naming its last completed step."""
    record = simulate(sim_cfg)
    if record.failure:
        raise SolverError(f"{record.failure}; last completed step at t={record.failure_time}")
    return record


def _run_and_report(sim_cfg: SimulationConfig, out: Path) -> int:
    """March, then check the theorem the source picks."""
    record = _march(sim_cfg)
    record.diagnostics_csv(out / "diagnostics.csv")
    last = written = None
    for t, snap in zip(record.snapshot_times, record.snapshots):
        path = out / f"u_t{t:010.4f}.csv"
        if snap is last:    # the fill past a fixed point repeats one Field: copy its bytes
            shutil.copyfile(written, path)
        else:
            write_field_csv(path, snap, header=("x", "u"))
        last, written = snap, path
    consts = TheoremConstants.from_problem(sim_cfg.u0, sim_cfg.source, sim_cfg.nu)
    consts.to_json(out / "constants.json")

    def within(lo, hi):
        return bool(record.min_u.min() >= lo - 1e-12 and record.max_u.max() <= hi + 1e-12)

    if sim_cfg.source.time_dependent:
        report = check_gradient_energy_envelope(record, consts, sim_cfg.source)
        report.to_json(out / "energy_envelope_report.json")
        bounds_ok = within(consts.A_minus, consts.A_plus)
        print(f"bounds_ok={bounds_ok} energy_envelope_ok={report.envelope_ok} "
              f"B={consts.B:.4f}")
    else:
        report = check_homogeneous_envelope(record, consts)
        report.to_json(out / "decay_report.json")
        envelope_csv(out / "envelope.csv", record.times,
                     homogeneous_bound(record, consts.lambda_hom), record.h1_error_inverse)
        bounds_ok = within(*consts.homogeneous_bounds())
        print(f"envelope_ok={report.envelope_ok} bounds_ok={bounds_ok} "
              f"rate={consts.lambda_hom:.4f}")
    if record.fixed_point_time is not None:    # after the verdict, which stays the first line
        later = np.count_nonzero(record.times > record.fixed_point_time)
        print(f"march reached a fixed point of the step at t={record.fixed_point_time:.6g}; "
              f"{later} later steps repeat it")
    return EXIT_OK if report.envelope_ok and bounds_ok else EXIT_SOLVER


def cmd_simulate(args) -> int:
    sim_cfg = _build_sim_config(_settings(args))
    return _run_and_report(sim_cfg, _prepare_out(args, "simulate", sim_cfg))


def cmd_example(args) -> int:
    if args.config:
        raise ConfigError("example runs its built-in data and takes no --config")
    sim_cfg = _build_sim_config(_settings(args, EXAMPLES[args.name]))
    return _run_and_report(sim_cfg, _prepare_out(args, f"example-{args.name}", sim_cfg))


def cmd_transform(args) -> int:
    cfg = _settings(args)
    grid = Grid(cfg["n"])
    h0 = _sheet_profile(grid, cfg["h0"], cfg["M"])
    v0 = _sheet_velocity(grid, cfg["v0"])
    f0 = lagrangian.source_from_sheet(lagrangian.initial_map(h0, cfg["M"]), v0, cfg["nu"])
    out = _prepare_out(args, "transform")
    write_field_csv(out / "f0.csv", f0, header=("x", "f0"))
    print(f"P0 = {compute_P0(HomogeneousSource(f0)):.6g}")
    return EXIT_OK


def _sheet_profile(grid: Grid, spec: str, M: float) -> Field:
    return parse_spec("h0", spec, {
        "constant": lambda value=M: Field(grid, np.full(grid.n, spec_number(value))),
        # M (1 + eps cos(pi y)) / (1 + eps * mean correction): unit-interval mass M
        "cosine_bump": lambda eps: _normalized(
            grid, 1.0 + spec_number(eps) * np.cos(np.pi * grid.nodes), M),
        "csv": lambda path: read_field_csv(path, grid),
    })


def _sheet_velocity(grid: Grid, spec: str) -> Field:
    return parse_spec("v0", spec, {
        "zero": lambda: Field(grid, np.zeros(grid.n)),
        "sine": lambda amp=0.5: Field(grid, spec_number(amp) * np.sin(np.pi * grid.nodes)),
        "csv": lambda path: read_field_csv(path, grid),
    })


def cmd_ssm_crosscheck(args) -> int:
    cfg = _settings(args)
    nu, M, dt, t_check = cfg["nu"], cfg["M"], cfg["dt"], cfg["t_check"]
    grid = Grid(cfg["n"])
    h0 = _sheet_profile(grid, cfg["h0"], M)
    v0 = _sheet_velocity(grid, cfg["v0"])
    if not t_check / cfg["dt_ssm"] <= lagrangian.MAX_SSM_STEPS:
        raise ConfigError(f"t_check/dt_ssm = {t_check / cfg['dt_ssm']:.6g} sheet steps "
                          f"are more than {lagrangian.MAX_SSM_STEPS:,}")
    lmap = lagrangian.initial_map(h0, M)
    f0 = lagrangian.source_from_sheet(lmap, v0, nu)
    # the map's u misses unit mass by its quadrature error, 1e-9 on coarse grids
    u0 = _normalized(grid, lmap.u.values, 1.0)
    try:
        sim_cfg = SimulationConfig(nu=nu, grid=grid, u0=u0, source=HomogeneousSource(f0),
                                   dt=dt, t_end=t_check,
                                   snapshot_stride=step_count(t_check, dt))
    except ValueError as err:   # its errors name the march's t_end, this command's t_check
        raise ConfigError(str(err).replace("t_end", "t_check")) from None
    out = _prepare_out(args, "ssm-crosscheck", sim_cfg)
    record = _march(sim_cfg)
    u_final = record.snapshots[-1]

    initial = lagrangian.SheetState(t=0.0, grid=grid, h=h0, v=v0, M=M, nu=nu)
    sheet = lagrangian.solve_ssm(initial, dt=cfg["dt_ssm"], t_end=t_check)
    mismatch = lagrangian.crosscheck_heights(sheet, u_final, M)
    sheet.to_csv(out / "sheet_final.csv")
    write_json(out / "crosscheck.json", {"t": t_check, "max_rel_error_h": mismatch})
    print(f"max relative height mismatch at t={t_check}: {mismatch:.4f}")
    return EXIT_OK if mismatch <= cfg["tolerance"] else EXIT_SOLVER


def _prepare_out(args, command: str, march: SimulationConfig | None = None) -> Path:
    """The output directory, made, with the manifest of the command (and of its
    march, if any) in it; every input is built by now."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, command, args.config, march)
    args.running = True     # a ValueError from here on is no config error
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, which is the hypothesis-violation code here
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="singheat",
        description="Singular heat equation laboratory: steady states, "
        "convergence constants, simulations, and the thin-sheet transform.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    commands = (
        # name, handler, whether --config is required, help
        ("steady", cmd_steady, True, "closed-form steady state and constants"),
        ("constants", cmd_constants, True, "theorem constants and hypotheses"),
        ("simulate", cmd_simulate, True, "time integration with diagnostics"),
        ("example", cmd_example, False, "one-command reproduction of a worked example"),
        ("transform", cmd_transform, True, "sheet data to forcing profile"),
        ("ssm-crosscheck", cmd_ssm_crosscheck, False, "direct sheet solve vs transform"),
    )
    for name, fn, config_required, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        config_help = "key = value config file"
        if fn is cmd_example:
            sp.add_argument("name", choices=list(EXAMPLES))
            config_help = argparse.SUPPRESS  # parsed only to be rejected
        sp.add_argument("--config", required=config_required, help=config_help)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--n", type=int, default=None, help="grid node count")
        for flag, (key, text) in zip(("--dt", "--t-end"), TIME_FLAGS.get(name, ())):
            sp.add_argument(flag, dest=key, type=float, default=None, help=f"{text} ({key})")
        sp.set_defaults(fn=fn, running=False)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HypothesisError as err:
        print(f"hypothesis violated: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError) as err:
        if args.running and isinstance(err, ValueError):
            print(f"internal error: {err}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SingheatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
