"""Time `simulate` calls of fixed marches, N_infinity and the sheet solver in fresh interpreters.

perfbench prices each step of a march at the least time seen for its Newton
count, so work that lands in one step out of many (a block of diagnostics,
the fill past a fixed point) is priced away.  This script times the march
itself: each measurement is a fresh interpreter, pinned to one CPU with
OPENBLAS_NUM_THREADS=1, that builds the case's config and steady state,
runs `simulate` --repeat times and reports the least wall time.  The
`ninf-*` cases time `compute_N_infinity` at its defaults (10,001 times up to
t = 100) the same way, on a source built once per interpreter, and the
`ssm-*` cases time `solve_ssm` on sheet data built once per interpreter.
Per case it prints the median and quartiles of those least times over
--rounds interpreters:

    python3 scripts/march_timing.py
    python3 scripts/march_timing.py --against ../parent --rounds 10
    python3 scripts/march_timing.py --cases ninf-decay-2001,ninf-exp-2001
    python3 scripts/march_timing.py --cases ssm-1601

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

#: name -> (n, source spec) of an N_infinity case.  The cosine families' N_infinity
#: is factored; "tabulated", two stamps with f falling linearly from cos(pi x)
#: at t = 0 to 0 at t = 100, times the path on blocks of f_t rows
N_INFINITY_CASES = {
    "ninf-decay-201": (201, "cosine_decay"),
    "ninf-exp-201": (201, "cosine_exp 1.3"),
    "ninf-decay-2001": (2001, "cosine_decay"),
    "ninf-exp-2001": (2001, "cosine_exp 1.3"),
    "ninf-tab-2001": (2001, "tabulated"),
}

#: run in the child: argv is n, source, repeat; prints the least seconds
N_INFINITY_CHILD = """
import sys, time
import numpy as np
from singheat.grid import Field, Grid
from singheat.source import TabulatedSource, compute_N_infinity, make_source
n, spec, repeat = sys.argv[1:]
g = Grid(int(n))
if spec == "tabulated":
    cos = np.cos(np.pi * g.nodes)
    src = TabulatedSource([0.0, 100.0], [Field(g, cos), Field(g, 0.0 * cos)])
else:
    src = make_source(g, spec)
best = float("inf")
for _ in range(int(repeat)):
    t0 = time.perf_counter()
    compute_N_infinity(src)
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

#: each table of cases with the child that runs them
KINDS = ((CASES, CHILD), (N_INFINITY_CASES, N_INFINITY_CHILD), (SSM_CASES, SSM_CHILD))


def least_seconds(src: Path, case: str, repeat: int, cpu: int) -> float:
    """The least of `repeat` runs of `case` in a fresh interpreter importing src."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    child, case_args = next((child, table[case]) for table, child in KINDS if case in table)
    done = subprocess.run(
        [sys.executable, "-c", child, *map(str, case_args), str(repeat)], env=env,
        capture_output=True, text=True, check=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return float(done.stdout)


def summary(ms: list) -> str:
    q1, median, q3 = (statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1
                      else ms * 3)
    return f"{median:8.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5, help="interpreters per case and side")
    parser.add_argument("--repeat", type=int, default=7, help="runs per interpreter")
    every = [case for table, _ in KINDS for case in table]
    parser.add_argument("--cases", default=",".join(every),
                        help=f"comma-separated subset of {', '.join(every)}")
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to time in alternating pairs")
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)),
                        help="the CPU every interpreter is pinned to")
    args = parser.parse_args(argv)
    cases = args.cases.split(",")
    unknown = set(cases) - set(every)
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
