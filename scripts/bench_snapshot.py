"""Write a BENCH_*.json snapshot: perfbench's metrics, the direct timings and tier-1's wall time.

    python3 scripts/bench_snapshot.py BENCH_1.json

Run it from the root of a checkout, on a quiet host; it takes about 20
minutes.  For each workload of perfbench it runs

    python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0

over the seeds 3001-3010, one after another, and reads each run's
`.perfbench/W-seedS-trace0/report.json`; then one `--trace 1` run per
workload on seed 3001.  It then times each case of `scripts/march_timing.py`
at that script's default rounds and repeats, and times tier-1 once.  The
snapshot holds:

- the commit measured, and whether `src/`, `scripts/` or `perfbench/` had
  uncommitted changes;
- the environment perfbench reports (the first run's);
- per workload, each end-to-end metric's samples, median and quartiles,
  and the runs' operation counts and failures;
- per workload, the per-layer metrics of its traced run;
- per case of `scripts/march_timing.py`, the median and quartiles in ms;
- tier-1's wall time and its summary line.

The seeds and the run length are fixed, so that every snapshot compares
with the one before it.  Each later claim of a speed-up commits the next
BENCH_*.json and cites the one before it.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import march_timing

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("static-march", "decaying-forcing", "fine-grid")
#: the seeds of the untraced runs; the traced run takes the first
SEEDS = range(3001, 3011)
#: seconds per perfbench run, BENCHMARK.json's run_seconds
SECONDS = 25


def run(argv: list, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def perfbench(workload: str, seed: int, trace: int) -> dict:
    """One perfbench run's report.json."""
    done = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(SECONDS), "--trace", str(trace)])
    if done.returncode:
        raise RuntimeError(f"perfbench {workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    report = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}" / "report.json"
    return json.loads(report.read_text())


def spread(samples: list) -> dict:
    q1, median, q3 = march_timing.quartiles(samples)
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end(reports: list) -> dict:
    """Each metric's samples, median and quartiles over the untraced runs."""
    out = {}
    for name in reports[0]["metrics"]:
        samples = [r["metrics"][name]["value"] for r in reports]
        out[name] = {"unit": reports[0]["metrics"][name]["unit"], **spread(samples),
                     "samples": samples}
    ops = [op for r in reports for p in r["passes"] for op in p["ops"]]
    out["operations"] = {status: sum(op["status"] == status for op in ops)
                         for status in ("ok", "known", "failed")}
    return out


def direct_timings() -> dict:
    """Each case of scripts/march_timing.py, timed as that script times it: ms."""
    cpu = max(os.sched_getaffinity(0))
    return {case: spread([1e3 * march_timing.least_seconds(ROOT / "src", case,
                                                           march_timing.REPEAT, cpu)
                          for _ in range(march_timing.ROUNDS)])
            for case in march_timing.EVERY}


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    done = run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                "-p", "no:cacheprovider"], env)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit": done.returncode, "summary": done.stdout.splitlines()[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the snapshot to write, e.g. BENCH_0.json")
    args = parser.parse_args(argv)

    commit = run(["git", "rev-parse", "HEAD"]).stdout.strip()
    dirty = bool(run(["git", "status", "--porcelain", "src", "scripts", "perfbench"]).stdout)
    workloads, per_layer, environment = {}, {}, None
    for workload in WORKLOADS:
        reports = []
        for seed in SEEDS:
            reports.append(perfbench(workload, seed, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in reports[-1]["metrics"].items()), flush=True)
        environment = environment or reports[0]["environment"]
        workloads[workload] = end_to_end(reports)
        traced = perfbench(workload, SEEDS[0], 1)
        per_layer[workload] = {name: m["value"] for name, m in traced["metrics"].items()}
    snapshot = {
        "commit": commit,
        "uncommitted_changes": dirty,
        "command": f"perfbench/run.py --seconds {SECONDS} --trace 0, seeds "
                   f"{SEEDS[0]}-{SEEDS[-1]}; --trace 1 on seed {SEEDS[0]}",
        "environment": environment,
        "end_to_end": workloads,
        "per_layer": per_layer,
        "march_timing_ms": direct_timings(),
        "tier1": tier1(),
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
