"""Time fixed marches, the forcing gap, the sheet solver and output in fresh interpreters.

perfbench prices each step of a march at the least time seen for its Newton
count, so work that lands in one step out of many (a block of diagnostics,
the fill past a fixed point) is priced away.  This script times the march
itself: each measurement is a fresh interpreter, pinned to one CPU with
OPENBLAS_NUM_THREADS=1, that builds the case's config and steady state,
runs `simulate` --repeat times and reports the least wall time.  The
`gap-*` case times `forcing_gap_sq`, closed-form over a table's stamps, the
same way, over 10,001 times up to t = 100 on a two-stamp tabulated source
built once per interpreter, the `ssm-*` cases time `solve_ssm` on sheet
data built once per interpreter, and the `out-*` cases time a worked
example's output: the example marches once per interpreter, then the
CLI's `_run_and_report` writes diagnostics.csv, the snapshot files,
envelope.csv and its two JSON files to a fresh temporary directory each
repeat, with the march, the theorem constants and the envelope check
replaced by their results, computed once.
Per case it prints the median and quartiles of those least times over
--rounds interpreters:

    python3 scripts/march_timing.py
    python3 scripts/march_timing.py --against ../parent --rounds 10
    python3 scripts/march_timing.py --cases gap-tab-2001
    python3 scripts/march_timing.py --cases ssm-1601
    python3 scripts/march_timing.py --cases out-ex-2-4

With --against, the checkout at that path (its `src` directory) is timed
too, in pairs: each round runs both sides, the side that goes first
alternating, and the report adds the change of the medians and the rounds
in which this checkout was faster.  Uses only the standard library and the
package.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: name -> (nu, n, source spec, dt, t_end); u0 = 1 throughout
CASES = {
    "ex-3-3": (10.0, 201, "cosine_decay", 1e-3, 3.0),
    "cosine_exp": (10.0, 201, "cosine_exp 1.2", 1e-3, 3.0),
    "ex-2-4": (1.0, 401, f"cosine_static {math.pi / 2!r}", 1e-3, 4.0),
    "n1601": (1.0, 1601, f"cosine_static {math.pi / 2!r}", 5e-4, 0.25),
    # past 4096 nodes a block holds one state
    "n4097": (1.0, 4097, "cosine_exp 1", 1e-4, 0.02),
}

#: run in the child: argv is nu, n, source, dt, t_end, repeat; prints the least seconds
CHILD = """
import sys, time
import numpy as np
from singheat.grid import Field, Grid
from singheat.solver import SimulationConfig, simulate
from singheat.source import make_source
from singheat.steady import steady_profile
nu, n, spec, dt, t_end, repeat = sys.argv[1:]
g = Grid(int(n))
cfg = SimulationConfig(nu=float(nu), grid=g, u0=Field(g, np.ones(g.n)),
                       source=make_source(g, spec), dt=float(dt), t_end=float(t_end))
steady = steady_profile(cfg.source, cfg.nu)
best = float("inf")
for _ in range(int(repeat)):
    t0 = time.perf_counter()
    record = simulate(cfg, steady)
    best = min(best, time.perf_counter() - t0)
assert record.failure is None, record.failure
print(best)
"""

#: name -> (n,) of a case timing the forcing gap over 10,001 times up to
#: t = 100 of two stamps, f falling linearly from cos(pi x) at t = 0 to 0 at
#: t = 100, in the gap's closed form over the stamps.  N_infinity is a closed
#: form for every family the CLI builds, 0.2 ms at most, and has no case
GAP_CASES = {
    "gap-tab-2001": (2001,),
}

#: run in the child: argv is n, repeat; prints the least seconds
GAP_CHILD = """
import sys, time
import numpy as np
from singheat.grid import Field, Grid
from singheat.source import TabulatedSource, forcing_gap_sq
n, repeat = sys.argv[1:]
g = Grid(int(n))
cos = np.cos(np.pi * g.nodes)
src = TabulatedSource([0.0, 100.0], [Field(g, cos), Field(g, 0.0 * cos)])
times = np.linspace(0.0, 100.0, 10001)
best = float("inf")
for _ in range(int(repeat)):
    t0 = time.perf_counter()
    forcing_gap_sq(src, times)
    best = min(best, time.perf_counter() - t0)
print(best)
"""


#: name -> (nu, M, h0 spec, v0 spec, n, dt, t_end) of a sheet-solver case;
#: ssm-1601 is fine-grid's sheet data, 584 sheet steps
SSM_CASES = {
    "ssm-1601": (1.0, 1.0, "cosine_bump 0.15", "sine 0.5", 1601, 2e-3, 1.0),
}

#: run in the child: argv is nu, M, h0, v0, n, dt, t_end, repeat; prints the least seconds
SSM_CHILD = """
import sys, time
from singheat.cli import _sheet_profile, _sheet_velocity
from singheat.grid import Grid
from singheat.lagrangian import SheetState, solve_ssm
nu, M, h0, v0, n, dt, t_end, repeat = sys.argv[1:]
g = Grid(int(n))
initial = SheetState(t=0.0, grid=g, h=_sheet_profile(g, h0, float(M)),
                     v=_sheet_velocity(g, v0), M=float(M), nu=float(nu))
best = float("inf")
for _ in range(int(repeat)):
    t0 = time.perf_counter()
    solve_ssm(initial, float(dt), float(t_end))
    best = min(best, time.perf_counter() - t0)
print(best)
"""

#: name -> (example,) of an output case; ex-2-4 fills 5,840 of its 8,001
#: diagnostics rows past its fixed point and writes 81 snapshot files
OUT_CASES = {
    "out-ex-2-4": ("ex-2-4",),
}

#: run in the child: argv is example, repeat; prints the least seconds
OUT_CHILD = """
import contextlib, io, sys, tempfile, time
from pathlib import Path
from singheat import cli
name, repeat = sys.argv[1:]
args = cli.build_parser().parse_args(["example", name])
sim_cfg = cli._build_sim_config(cli._settings(args, cli.EXAMPLES[name]))
assert not sim_cfg.source.time_dependent
record = cli._march(sim_cfg)
consts = cli.TheoremConstants.from_problem(sim_cfg.u0, sim_cfg.source, sim_cfg.nu)
report = cli.check_homogeneous_envelope(record, consts)
cli._march = lambda cfg: record
cli.TheoremConstants = type("Computed", (), {"from_problem": lambda *args: consts})
cli.check_homogeneous_envelope = lambda *args: report
best = float("inf")
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for i in range(int(repeat)):
        out = Path(tmp) / str(i)
        out.mkdir()
        t0 = time.perf_counter()
        cli._run_and_report(sim_cfg, out)
        best = min(best, time.perf_counter() - t0)
print(best)
"""

#: each table of cases with the child that runs them
KINDS = ((CASES, CHILD), (GAP_CASES, GAP_CHILD), (SSM_CASES, SSM_CHILD),
         (OUT_CASES, OUT_CHILD))
#: every case, in the order they run
EVERY = [case for table, _ in KINDS for case in table]
#: the default interpreters per case and side, and runs per interpreter
ROUNDS, REPEAT = 5, 7


def least_seconds(src: Path, case: str, repeat: int, cpu: int) -> float:
    """The least of `repeat` runs of `case` in a fresh interpreter importing src."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    child, case_args = next((child, table[case]) for table, child in KINDS if case in table)
    done = subprocess.run(
        [sys.executable, "-c", child, *map(str, case_args), str(repeat)], env=env,
        capture_output=True, text=True, check=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return float(done.stdout)


def quartiles(samples: list) -> tuple:
    """(q1, median, q3) of samples; one sample is all three."""
    if len(samples) == 1:
        return tuple(samples * 3)
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def summary(ms: list) -> str:
    q1, median, q3 = quartiles(ms)
    return f"{median:8.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="interpreters per case and side")
    parser.add_argument("--repeat", type=int, default=REPEAT, help="runs per interpreter")
    parser.add_argument("--cases", default=",".join(EVERY),
                        help=f"comma-separated subset of {', '.join(EVERY)}")
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to time in alternating pairs")
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)),
                        help="the CPU every interpreter is pinned to")
    args = parser.parse_args(argv)
    cases = args.cases.split(",")
    unknown = set(cases) - set(EVERY)
    if unknown or args.rounds < 1 or args.repeat < 1:
        parser.error(f"unknown cases {sorted(unknown)}" if unknown
                     else "--rounds and --repeat must be at least 1")
    sides = {"this": ROOT / "src"}
    if args.against is not None:
        sides["base"] = args.against.resolve() / "src"
    header = f"{'case':<15} " + " ".join(f"{side + ' ms: median [q1, q3]':>30}" for side in sides)
    print(header + ("   change  faster" if len(sides) == 2 else ""))
    for case in cases:
        times = {side: [] for side in sides}
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                times[side].append(1e3 * least_seconds(sides[side], case, args.repeat, args.cpu))
        line = f"{case:<15} " + " ".join(f"{summary(times[side]):>30}" for side in sides)
        if len(sides) == 2:
            this, base = times["this"], times["base"]
            change = statistics.median(this) / statistics.median(base) - 1
            wins = sum(a < b for a, b in zip(this, base))
            line += f"  {100 * change:+6.1f}%  {wins}/{args.rounds}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
