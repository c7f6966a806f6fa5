"""Tests of the benchmark's own code: span arithmetic, least-cost timing,
metric names, the meter, seeded inputs, known-defect matching and the
command itself.

    python3 -m pytest perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from singheat import Field, Grid, make_source, solver

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_span_stats_aggregate_by_name():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def fail():
        raise ValueError("boom")

    def middle():
        leaf()
        leaf()
        with pytest.raises(ValueError):
            tracer.wrap("fail", fail)()

    tracer.wrap("root", tracer.wrap("middle", middle))()
    stats = tracer.span_stats()
    assert {k: v["calls"] for k, v in stats.items()} == {
        "root": 1, "middle": 1, "leaf": 2, "fail": 1}
    assert stats["fail"]["failed"] == 1
    total = sum(v["self_s"] for v in stats.values())
    root = tracer.end[0] - tracer.start[0]
    assert total == pytest.approx(root, rel=1e-9, abs=1e-12)


def test_least_cost_takes_each_kind_at_its_cheapest():
    passes = [
        [("step", 2.0), ("step", 3.0), ("write", 5.0)],
        [("step", 1.0), ("step", 4.0), ("write", 6.0)],
    ]
    # two steps at 1.0 and one write at 5.0
    assert spans.least_cost(passes) == 7.0


def test_meter_times_steps_and_only_outermost_analysis_calls():
    from singheat import steady

    grid = Grid(41)
    src = make_source(grid, "cosine_static 1")
    cfg = solver.SimulationConfig(nu=1.0, grid=grid, u0=Field(grid, np.ones(41)),
                                  source=src, dt=1e-3, t_end=5e-3)
    meter = spans.Meter()
    try:
        solver.simulate(cfg)          # calls steady_profile inside the march
        steady.steady_profile(src, 1.0, which="initial")
    finally:
        meter.close()
    (march,) = meter.marches
    assert march.steps == 5 and len(march.step_cost) == 5
    assert all(i > 0 for i in march.step_iters)
    assert march.overhead > 0
    assert [kind for kind, _ in meter.units] == ["singheat.steady.steady_profile"]


def test_metric_names_are_valid_and_match_the_code():
    workload_names = [w["name"] for w in SPEC["workloads"]]
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in [*workload_names, *e2e, *layer]:
        assert NAME.fullmatch(name), name
    assert tuple(workload_names) == run.WORKLOADS == workloads.WORKLOADS
    assert e2e == run.END_TO_END_UNITS
    produced = spans.layer_metrics(spans.Tracer(), passes=1)
    produced_units = {name: unit for name, (_, unit) in produced.items()}
    produced_units["trace.overhead_frac"] = "1"
    produced_units["ops_failed_frac"] = "1"
    produced_units["analysis_s"] = "s"
    assert layer == produced_units


def test_march_failing_at_step_one_has_zero_throughput():
    grid = Grid(41)
    cfg = solver.SimulationConfig(
        nu=1.0, grid=grid, u0=Field(grid, np.ones(41)),
        source=make_source(grid, "cosine_static 1"), dt=1e-3, t_end=0.01,
        newton_max_iter=0,
    )
    meter = spans.Meter()
    try:
        record = solver.simulate(cfg)
    finally:
        meter.close()
    assert record.failure
    (march,) = meter.marches
    assert march.steps == 0 and march.seconds > 0
    assert march.error_class == "SolverError"
    one_pass = run.Pass(traced=False)
    one_pass.outcomes.append(run.Outcome("march", "known", march.seconds, march.seconds, 0))
    one_pass.marches.append((("march", 0), march))
    one_pass.analysis.append((("march", "rest"), 0.0))
    metrics = run.end_to_end([one_pass], setup=[0.5], peak_rss_mb=80.0)
    assert metrics["march_node_steps_per_s"] == 0.0


def test_wrappers_are_removed_after_a_pass():
    from singheat import cli, grid as grid_module

    before = (cli.simulate, solver.step, grid_module.Field.__init__,
              vars(workloads.solver.SimulationRecord)["diagnostics_csv"])
    tracer = spans.Tracer()
    tracer.install()
    assert cli.simulate is not before[0]
    tracer.uninstall()
    after = (cli.simulate, solver.step, grid_module.Field.__init__,
             vars(workloads.solver.SimulationRecord)["diagnostics_csv"])
    assert after == before


def test_seeded_inputs_repeat_and_stay_in_their_boxes(tmp_path):
    boxes = {
        "static-march": {"a": workloads.STATIC_A, "nu": workloads.STATIC_NU},
        "decaying-forcing": {"nu": workloads.DECAY_NU},
        "fine-grid": {"eps": workloads.SHEET_EPS, "speed": workloads.SHEET_SPEED},
    }
    for name in workloads.WORKLOADS:
        draws = [workloads.draw(name, seed) for seed in range(200)]
        assert workloads.draw(name, 7) == draws[7]
        assert len({json.dumps(d, sort_keys=True) for d in draws}) == len(draws)
        for d in draws:
            for key, (lo, hi) in boxes[name].items():
                assert lo <= d[key] <= hi
    families = {workloads.draw("decaying-forcing", s)["source"].split()[0] for s in range(50)}
    assert families == {"cosine_decay", "cosine_exp"}
    rates = [float(workloads.draw("decaying-forcing", s)["source"].split()[1])
             for s in range(200)
             if workloads.draw("decaying-forcing", s)["source"].startswith("cosine_exp")]
    assert all(workloads.DECAY_RATE[0] <= r <= workloads.DECAY_RATE[1] for r in rates)

    for name in workloads.WORKLOADS:
        first, again, other = tmp_path / f"{name}-a", tmp_path / f"{name}-b", tmp_path / f"{name}-c"
        workloads.generate(name, 3, first)
        workloads.generate(name, 3, again)
        workloads.generate(name, 4, other)
        files = sorted(p.name for p in first.iterdir())
        assert files and files == sorted(p.name for p in again.iterdir())
        assert all((first / f).read_bytes() == (again / f).read_bytes() for f in files)
        assert any((first / f).read_bytes() != (other / f).read_bytes() for f in files)


def test_drawn_data_satisfy_the_hypotheses():
    for seed in range(200):
        p = workloads.draw("static-march", seed)
        assert math.sqrt(2) * p["a"] / math.pi < p["nu"]
        lo, hi = workloads.homogeneous_bounds(p["a"], p["nu"])
        assert 0 < lo < 1 < hi
        nu = workloads.draw("decaying-forcing", seed)["nu"]
        lo, hi = workloads.inhomogeneous_bounds(nu)
        assert 0 < lo < 1 < hi


def _march(error_class, failure, min_u=1.0):
    record = solver.SimulationRecord(config=None, steady=None)
    record.mass, record.min_u, record.max_u = [1.0], [min_u], [min_u]
    return spans.March(0.01, 1601, 0, failure, error_class, record)


def test_only_the_catalogued_stall_counts_as_known():
    def run_of(march):
        return workloads.Run(None, Path("."), "", "", [march])

    stall = "Newton damping exhausted at t=0.001 (solution near the singular set u=0)"
    defect, detail = workloads._fine_march_check(run_of(_march("QuenchError", stall)))
    assert defect == "newton-stall-mislabel" and detail.startswith("QuenchError")
    for march in (_march("SolverError", "Newton stalled at t=0.001"),
                  _march("QuenchError", "u fell to the positivity floor at t=0.5"),
                  _march("QuenchError", stall, min_u=1e-7)):
        with pytest.raises(workloads.CheckFailed):
            workloads._fine_march_check(run_of(march))


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine-grid", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(re.fullmatch(rf"metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}",
                                line) for line in lines), m["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
