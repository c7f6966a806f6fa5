"""Benchmark of the singheat laboratory: one workload, one run.

    python3 perfbench/run.py --workload static-march --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it measures the package in `src/` of
that checkout and writes only under `.perfbench/` there.  One process, one
caller, closed loop: the workload's operations run one after another, in
passes, until `--seconds` have gone by.  BLAS threads are pinned to 1.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json,
with tracing off.  With `--trace 1` it alternates untraced and traced passes
and reports the per-layer metrics, computed from spans recorded around each
layer's public callables, and the tracing overhead.

Every line of standard output names a metric with its unit, an operation's
outcome or the environment; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A run report and, for a
traced run, the spans are written to `.perfbench/<workload>-seed<n>-trace<k>/`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

from envinfo import THREAD_VARS, environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("static-march", "decaying-forcing", "fine-grid")

SETUP_REPEATS = 5       # timed fresh interpreters, after one untimed warm-up
END_TO_END_UNITS = {
    "setup_s": "s",
    "march_node_steps_per_s": "node-steps/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

perf_counter = time.perf_counter


@dataclass
class Outcome:
    op: str
    status: str                 # "ok", "known" (a catalogued defect) or "failed"
    wall_s: float               # time inside the program call
    march_s: float = 0.0        # of which inside solver.simulate
    node_steps: int = 0
    error: str | None = None    # exception class or exit code, and message head
    defect: str | None = None
    output_files: int = 0
    output_bytes: int = 0


@dataclass
class Pass:
    traced: bool
    outcomes: list = field(default_factory=list)
    marches: list = field(default_factory=list)   # ((op, index), spans.March)
    analysis: list = field(default_factory=list)  # ((op, kind), seconds)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin(k: int, cpus: list) -> None:
    """Run on one CPU, a different one each k.

    Other tenants of the machine slow each CPU at different times; spreading
    the repeats over the CPUs lets the least observed cost avoid a CPU that
    stays busy for a whole run.
    """
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def measure_setup(workload: str, seed: int, work: Path, cpus: list) -> list[float]:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        pin(k, cpus)
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
               str(work / f"setup-{k}")]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code}")
        if k > 0:
            times.append(elapsed)
    return times


def run_op(op, out: Path, meter, traced: bool):
    """Run and check one operation.

    Returns its outcome, its marches and its analysis samples: the coarse
    calls outside marches, and the rest of the call's time as one more.
    """
    from workloads import CheckFailed, Run, head

    shutil.rmtree(out, ignore_errors=True)
    first, first_unit = len(meter.marches), len(meter.units)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            value = op.call(out)
    except Exception as err:  # a crash fails this operation, not the run
        value, error = None, f"{type(err).__name__}: {head(err)}"
    else:
        error = None
    wall = perf_counter() - t0
    marches = meter.marches[first:]
    units = meter.units[first_unit:]
    outcome = Outcome(op.name, "ok", wall, sum(m.seconds for m in marches),
                      sum(m.n * m.steps for m in marches))
    if error is not None:
        outcome.status, outcome.error = "failed", error
    else:
        try:
            known = op.check(Run(value, out, stdout.getvalue(), stderr.getvalue(), marches))
        except CheckFailed as err:
            outcome.status, outcome.error = "failed", str(err)
        except Exception as err:  # e.g. an artifact the check needs is missing
            outcome.status, outcome.error = "failed", f"{type(err).__name__}: {head(err)}"
        else:
            if known is not None:
                outcome.status = "known"
                outcome.defect, outcome.error = known
    for m in marches:
        m.record = None
    if traced and out.is_dir():
        files = [p for p in out.rglob("*") if p.is_file()]
        outcome.output_files = len(files)
        outcome.output_bytes = sum(p.stat().st_size for p in files)
    analysis = [((op.name, kind), seconds) for kind, seconds in units]
    analysis.append(((op.name, "rest"),
                     wall - outcome.march_s - sum(seconds for _, seconds in units)))
    return outcome, marches, analysis


def end_to_end(passes, setup, peak_rss_mb: float) -> dict:
    """End-to-end metrics; each timing is the least observed cost of its work.

    Every pass repeats the same work, so each step of a march and each coarse
    call of the analysis is costed at the least time seen for its kind
    (spans.least_cost).
    """
    import spans

    node_steps = sum(o.node_steps for o in passes[0].outcomes)
    march_s = spans.least_cost([[sample for key, m in p.marches
                                 for sample in spans.march_samples(key, m)]
                                for p in passes])
    return {
        "setup_s": statistics.median(setup),
        "march_node_steps_per_s": node_steps / march_s,
        "pass_s": march_s + spans.least_cost([p.analysis for p in passes]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes, tracer) -> dict:
    import spans

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    tracer.counts["cli.output.files"] = sum(o.output_files for p in traced for o in p.outcomes)
    tracer.counts["cli.output.bytes"] = sum(o.output_bytes for p in traced for o in p.outcomes)
    metrics = spans.layer_metrics(tracer, len(traced))
    untraced_s = statistics.median(p.wall_s for p in plain)
    traced_s = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "1")
    # too unsteady for a bound: most of it is a few long calls per pass
    metrics["analysis_s"] = (spans.least_cost([p.analysis for p in plain]), "s")
    outcomes = [o for p in passes for o in p.outcomes]
    bad = sum(o.status != "ok" for o in outcomes)
    metrics["ops_failed_frac"] = (bad / len(outcomes), "1")
    return metrics


def summarize(passes) -> list[str]:
    """One line per operation and outcome, with the failure's class and message."""
    groups: dict = {}
    for p in passes:
        for o in p.outcomes:
            groups.setdefault((o.op, o.status, o.defect, o.error), []).append(o)
    lines = []
    for (op, status, defect, error), items in groups.items():
        line = f"op {op}: {status} x{len(items)}"
        if defect:
            line += f" [known defect {defect}]"
        if error:
            line += f" {error}"
        lines.append(line)
    return lines


def format_metrics(metrics: dict) -> list[str]:
    return [f"metric {name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "singheat" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'singheat'}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    cpus = sorted(os.sched_getaffinity(0))
    setup = [] if args.trace else measure_setup(args.workload, args.seed, work, cpus)

    sys.path.insert(0, str(SRC))
    import singheat

    if Path(singheat.__file__).resolve().parent != (SRC / "singheat").resolve():
        print(f"perfbench: imported singheat from {singheat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.generate(args.workload, args.seed, work / "inputs")
    meter = spans.Meter()
    tracer = spans.Tracer() if args.trace else None
    passes: list[Pass] = []
    deadline = perf_counter() + args.seconds
    try:
        while (len(passes) < (2 if tracer else 1) or perf_counter() < deadline):
            current = Pass(traced=tracer is not None and len(passes) % 2 == 1)
            pin(len(passes) // (2 if tracer else 1), cpus)
            if current.traced:
                tracer.install()
            try:
                for op in workload.ops:
                    outcome, marches, analysis = run_op(op, work / "out" / op.name, meter,
                                                        current.traced)
                    current.outcomes.append(outcome)
                    current.marches += [((op.name, j), m) for j, m in enumerate(marches)]
                    current.analysis += analysis
            finally:
                if current.traced:
                    tracer.uninstall()
            passes.append(current)
    finally:
        meter.close()
        os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        metrics = per_layer(passes, tracer)
        tracer.save(work / "spans.npz")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(passes, setup, peak_rss_mb).items()}

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(o.status == "failed" for o in outcomes)
    env = environment(ROOT)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.params, "environment": env,
        "known_defects": workloads.KNOWN_DEFECTS, "setup_s_samples": setup,
        "analysis_least_s": {f"{op} {kind}": seconds for (op, kind), seconds
                             in spans.least_costs([p.analysis for p in passes]).items()},
        "passes": [{"traced": p.traced, "ops": [asdict(o) for o in p.outcomes]}
                   for p in passes],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(workload.params)}")
    print(f"environment {json.dumps(env)}")
    print(f"passes {len(passes)} ({sum(p.traced for p in passes)} traced)")
    for line in summarize(passes) + format_metrics(metrics):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
