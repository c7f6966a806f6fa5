import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

import singheat
from singheat import lagrangian, solver
from singheat.source import CosineExpSource
from singheat.cli import CONFIG_KEYS, main
from singheat.grid import Grid
from singheat.lagrangian import initial_map


def run(argv):
    return main(argv)


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSteady:
    def test_kicked_cosine_constant(self, tmp_path):
        cfg = write_config(tmp_path, f"source = cosine_static {math.pi / 2}\nnu = 1\nn = 2001\n")
        out = tmp_path / "out"
        assert run(["steady", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["C_infinity"] == pytest.approx(6.362, abs=1e-3)
        assert (out / "u_infinity.csv").exists()
        assert (out / "manifest.json").exists()

    def test_zero_forcing_flat(self, tmp_path):
        cfg = write_config(tmp_path, "source = zero\nnu = 1\nn = 101\n")
        out = tmp_path / "out"
        assert run(["steady", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["C_nu"] == pytest.approx(1.0, abs=1e-10)

    def test_missing_key_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "source = zero\n")  # nu missing
        out = tmp_path / "out"
        assert run(["steady", "--config", cfg, "--out", str(out)]) == 4
        assert "nu" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        cfg = write_config(tmp_path, "just some words\n")
        assert run(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_missing_file(self, tmp_path):
        assert run(["steady", "--config", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "o")]) == 4


class TestConstants:
    def test_decaying_cosine_threshold(self, tmp_path):
        cfg = write_config(tmp_path, "source = cosine_decay\nnu = 10\nn = 1001\n")
        out = tmp_path / "out"
        assert run(["constants", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / "constants.json").read_text())
        assert data["hypotheses"]["inhom"] is True
        assert data["nu_plus"] < 10

    def test_hypothesis_violation_exit_code(self, tmp_path):
        # steep initial data: R0 >= 1, homogeneous admissibility fails
        cfg = write_config(
            tmp_path,
            "source = cosine_static 4\nnu = 0.1\nu0 = inverse_sine 0.9\nn = 1001\n",
        )
        assert run(["constants", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 2


class TestSimulate:
    def test_short_homogeneous_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "source = cosine_static 0.3\nnu = 1\nn = 101\ndt = 1e-3\nt_end = 0.5\n",
        )
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "diagnostics.csv").exists()
        assert (out / "decay_report.json").exists()
        assert (out / "envelope.csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "source = cosine_static 0.3\nnu = 1\nn = 101\ndt = 1e-3\nt_end = 0.2\n",
        )
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for name in ("diagnostics.csv", "decay_report.json", "constants.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_override_flags(self, tmp_path):
        cfg = write_config(
            tmp_path, "source = zero\nnu = 1\nn = 501\ndt = 1e-2\nt_end = 5\n"
        )
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out),
                    "--n", "51", "--t-end", "0.1"]) == 0
        first_data_row = (out / "diagnostics.csv").read_text().splitlines()
        assert len(first_data_row) < 50  # 0.1 / 1e-2 steps, not 500

    def test_fixed_point_of_the_step_is_reported(self, tmp_path, capsys):
        # flat u0 and no forcing: the first step returns its input
        cfg = write_config(tmp_path, "source = zero\nnu = 1\nn = 21\nt_end = 0.01\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "march reached a fixed point of the step at t=0.001; 9 later steps repeat it"]
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 12


class TestExamples:
    def test_ex24_short_smoke(self, tmp_path):
        # full-length reproduction lives in the acceptance suite; here only
        # the wiring is exercised
        out = tmp_path / "out"
        code = run(["example", "ex-2-4", "--out", str(out), "--n", "101",
                    "--t-end", "2"])
        assert code == 0
        assert (out / "decay_report.json").exists()

    def test_ex33_short_smoke(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["example", "ex-3-3", "--out", str(out), "--n", "101",
                    "--t-end", "1"])
        assert code == 0
        # the run's one envelope report agrees with its exit code
        assert not (out / "decay_report.json").exists()
        energy = json.loads((out / "energy_envelope_report.json").read_text())
        assert energy["envelope_ok"] is True
        # a time-dependent source is stepped to the end, so no fixed point is reported
        assert "fixed point" not in capsys.readouterr().out
        # every report is RFC 8259 JSON, which has no NaN or Infinity: the
        # fit that finds no window writes null
        assert energy["fitted_rate"] is None and energy["fit_window"] == [None, None]

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        written = sorted(out.glob("*.json"))
        assert len(written) == 3
        for path in written:
            json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("line", [
    "u0 =", "u0 = inverse_sine", "u0 = constant abc", "h0 = cosine_bump",
    "h0 = csv", "v0 =", "source = bogus",
])
def test_malformed_spec_is_config_error(tmp_path, capsys, line):
    slot = line.split("=")[0].strip()
    if slot in ("h0", "v0"):
        command, base = "transform", "nu = 1\nn = 51\n"
    else:
        command, base = "simulate", "source = zero\nnu = 1\nn = 51\n"
    cfg = write_config(tmp_path, base + line + "\n")
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert f"{slot} spec" in capsys.readouterr().err


def test_manifest_records_the_versions_and_the_config_hash(tmp_path):
    text = "source = zero\nnu = 1\nn = 101\n"
    out = tmp_path / "out"
    assert run(["steady", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert manifest["versions"] == {"singheat": singheat.__version__,
                                    "python": platform.python_version(),
                                    "numpy": np.__version__}
    assert manifest["command"] == "steady" and manifest["seedless"] is True
    # a command without a config has no hash
    out = tmp_path / "example"
    assert run(["example", "ex-3-3", "--n", "21", "--t-end", "0.01", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_path"] is None and manifest["config_sha256"] is None


def test_manifest_records_the_resolved_march_settings(tmp_path):
    defaults = {"newton_max_iter": 50, "positivity_floor": 1e-8}
    text = ("source = cosine_static 0.5\nnu = 1.5\nn = 21\ndt = 0.005\nt_end = 0.02\n"
            "snapshot_stride = 2\nnewton_tol = 1e-11\n")
    runs = {
        "simulate": (["simulate", "--config", write_config(tmp_path, text)],
                     {"n": 21, "nu": 1.5, "dt": 0.005, "t_end": 0.02, "snapshot_stride": 2,
                      "newton_tol": 1e-11, **defaults}),
        # the example's data, with its flags
        "example": (["example", "ex-3-3", "--n", "21", "--t-end", "0.01"],
                    {"n": 21, "nu": 10.0, "dt": 1e-3, "t_end": 0.01, "snapshot_stride": 100,
                     "newton_tol": 1e-12, **defaults}),
        # the cross-check's march ends at t_check, with one snapshot there
        "ssm-crosscheck": (["ssm-crosscheck", "--n", "21", "--t-end", "0.01"],
                           {"n": 21, "nu": 1.0, "dt": 1e-3, "t_end": 0.01,
                            "snapshot_stride": 10, "newton_tol": 1e-12, **defaults}),
        "steady": (["steady", "--config", write_config(tmp_path, "source = zero\nnu = 1\nn = 21\n",
                                                       "steady.txt")], None),
    }
    for name, (argv, march) in runs.items():
        out = tmp_path / name
        run([*argv, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["march"] == march, name


class TestTransform:
    def test_sine_kick_source(self, tmp_path):
        cfg = write_config(
            tmp_path, "nu = 1\nM = 1\nh0 = constant 1\nv0 = sine 0.5\nn = 801\n"
        )
        out = tmp_path / "out"
        assert run(["transform", "--config", cfg, "--out", str(out)]) == 0
        from singheat.grid import read_field_csv
        import numpy as np

        f0 = read_field_csv(out / "f0.csv")
        expect = (np.pi / 2) * np.cos(np.pi * f0.grid.nodes)
        assert np.max(np.abs(f0.values - expect)) < 3e-5


class TestSSMCrosscheck:
    def test_default_agrees_within_tolerance(self, tmp_path):
        out = tmp_path / "out"
        assert run(["ssm-crosscheck", "--out", str(out), "--n", "201"]) == 0
        data = json.loads((out / "crosscheck.json").read_text())
        assert data["max_rel_error_h"] <= 0.02
        assert (out / "sheet_final.csv").exists()

    def test_coarse_sheet_map_is_scaled_to_unit_mass(self, tmp_path):
        # at n = 51 the map's u misses unit mass by 1.4e-9, more than the march
        # accepts; the cross-check scales it, and the sheet still agrees
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "h0 = cosine_bump 0.2\n")
        assert run(["ssm-crosscheck", "--config", cfg, "--n", "51", "--out", str(out)]) == 0
        data = json.loads((out / "crosscheck.json").read_text())
        assert data["max_rel_error_h"] <= 0.02


@pytest.mark.parametrize("command", ["ssm-crosscheck", "transform"])
def test_sheet_commands_build_one_map(tmp_path, monkeypatch, command):
    calls = []

    def counted(h0, M):
        calls.append(M)
        return initial_map(h0, M)

    monkeypatch.setattr(lagrangian, "initial_map", counted)
    cfg = write_config(tmp_path, "nu = 1\nh0 = constant 1\nv0 = sine 0.5\n")
    assert run([command, "--config", cfg, "--n", "51",
                "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["transform", "ssm-crosscheck"])
def test_unset_h0_is_the_constant_sheet_of_mass_M(tmp_path, command):
    # h0 defaults to `constant`, whose value defaults to M, not to 1
    outs = []
    for h0 in ("", "h0 = constant 2\n"):
        out = tmp_path / f"out{len(outs)}"
        cfg = write_config(tmp_path, f"nu = 1\nM = 2\n{h0}", f"config{len(outs)}.txt")
        flags = ["--t-end", "0.01"] if command == "ssm-crosscheck" else []
        assert run([command, "--config", cfg, "--n", "51", *flags, "--out", str(out)]) == 0
        outs.append(out)
    for path in outs[0].glob("*.csv"):
        assert path.read_bytes() == (outs[1] / path.name).read_bytes()


def test_simulate_past_tabulated_source_end(tmp_path):
    # the table ends at t = 2; past it f is held at its last profile
    g = Grid(51)
    path = tmp_path / "source.csv"
    path.write_text("t,x,f\n" + "".join(
        f"{t!r},{x!r},{(1 - t / 2) * 0.5 * math.cos(math.pi * x)!r}\n"
        for t in (0.0, 1.0, 2.0) for x in g.nodes.tolist()))
    cfg = write_config(tmp_path, f"source = csv {path}\nnu = 30\nn = 51\nt_end = 2.5\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "u_t00002.5000.csv").exists()


@pytest.mark.parametrize("stamps", [(0.0,), (5.0,), (0.5, 1.0)], ids=["0.0", "5.0", "0.5-1.0"])
@pytest.mark.parametrize("command", ["simulate", "constants", "steady"])
def test_one_time_stamp_table_is_a_static_source(tmp_path, command, stamps, capsys):
    # a table of one profile at t = 0 is constant in time, so the homogeneous
    # theorem applies; its time derivative is zero, not a config error after
    # the march.  One stamp at t = 5, like stamps at 0.5 and 1, leaves f
    # undefined from t = 0 to the first stamp, a config error before any output
    g = Grid(21)
    path = tmp_path / "source.csv"
    path.write_text("t,x,f\n" + "".join(
        f"{stamp!r},{x!r},{0.3 * math.cos(math.pi * x)!r}\n"
        for stamp in stamps for x in g.nodes.tolist()))
    cfg = write_config(tmp_path, f"source = csv {path}\nnu = 1\nn = 21\nt_end = 0.01\n")
    if command != "simulate":
        cfg = write_config(tmp_path, f"source = csv {path}\nnu = 1\nn = 21\n", "other.txt")
    out = tmp_path / "out"
    if stamps[0] > 0:
        assert run([command, "--config", cfg, "--out", str(out)]) == 4
        assert "before the tabulated range" in capsys.readouterr().err
        assert not out.exists()
        return
    assert run([command, "--config", cfg, "--out", str(out)]) == 0
    if command == "constants":
        assert json.loads((out / "constants.json").read_text())["N_infinity"] == 0.0
    if command == "simulate":
        assert (out / "decay_report.json").exists()


def test_failed_newton_solve_exits_as_solver_failure(tmp_path, monkeypatch, capsys):
    def singular(*args):
        raise LinAlgError("singular matrix")

    monkeypatch.setattr(solver, "_solve_packed", singular)
    # flat u0 under a forcing: the first residual lies above tol, so the step solves
    cfg = write_config(tmp_path, "source = cosine_static 0.5\nnu = 1\nn = 21\nt_end = 0.01\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "solver failure: Newton solve failed at t=0.001" in capsys.readouterr().err


def test_value_error_inside_a_march_is_no_config_error(tmp_path, monkeypatch, capsys):
    # a forcing sample that turns non-finite mid-march is a fault of the
    # run, found after the inputs were built and the output begun
    def nonfinite_after_five_steps(self, t):
        values = raw(self, t)
        values[np.asarray(t) > 0.0055] = np.nan     # the rows of those times, or all
        return values

    raw = CosineExpSource._raw
    monkeypatch.setattr(CosineExpSource, "_raw", nonfinite_after_five_steps)
    cfg = write_config(tmp_path, "source = cosine_exp 1\nnu = 10\nn = 21\nt_end = 0.01\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert "internal error: field contains non-finite values" in err
    assert "config error" not in err
    assert (out / "manifest.json").exists()


#: a march of 10 steps at n = 21 for each command that marches u
MARCH_CONFIGS = {
    "simulate": "source = cosine_static 0.5\nnu = 1\nn = 21\nt_end = 0.01\n",
    "ssm-crosscheck": "nu = 1\nn = 21\nt_check = 0.01\n",
}


@pytest.mark.parametrize("command", MARCH_CONFIGS)
def test_failure_names_the_last_completed_step(tmp_path, monkeypatch, capsys, command):
    calls = []

    def singular_from_the_fifth_call(*args):
        calls.append(None)
        bands = jacobian_bands(*args)
        if len(calls) >= 5:
            for band in bands:
                band[:] = 0.0
        return bands

    # the march's solves only: the sheet's splines and viscous solves build no Jacobian
    jacobian_bands = solver._jacobian_bands
    monkeypatch.setattr(solver, "_jacobian_bands", singular_from_the_fifth_call)
    cfg = write_config(tmp_path, MARCH_CONFIGS[command])
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    found = re.search(r"Newton solve failed at t=(\S+): singular matrix \(gtsv info=1\); "
                      r"last completed step at t=(\S+)\n", err)
    assert found, err
    failed_at, completed = map(float, found.groups())
    assert completed > 0 and failed_at == pytest.approx(completed + 1e-3, abs=1e-12)


#: initial-data files that do not fit a 51-node grid: rows after the header,
#: and the phrases the error names
CSV_MISFITS = {
    "": ("".join(f"{a:.17g},1.0\n" for a in np.linspace(0.0, 1.0, 21)),
         ("21 nodes", "n = 51")),
    "-one-row": ("0,1.0\n", ("1 nodes", "n = 51")),
    "-header-only": ("", ("(x, value) rows",)),
}


@pytest.mark.filterwarnings("error")  # numpy's "no data" warning would fail the run
@pytest.mark.parametrize("slot,rows,phrases", [
    *(pytest.param(slot, rows, phrases, id=slot + case)
      for case, (rows, phrases) in CSV_MISFITS.items() for slot in ("u0", "h0", "v0")),
    # a tabulated source needs (t, x, f) rows
    pytest.param("source", "0,0\n0,1\n", ("(t, x, f) rows",), id="source-two-columns"),
    pytest.param("source", "", ("(t, x, f) rows",), id="source-header-only"),
])
def test_csv_initial_data_must_match_grid(tmp_path, capsys, slot, rows, phrases):
    path = tmp_path / "data.csv"
    path.write_text("x,value\n" + rows)
    command, base = {"u0": ("simulate", "source = zero\nnu = 1\n"),
                     "source": ("simulate", "nu = 1\n")}.get(slot, ("transform", "nu = 1\n"))
    cfg = write_config(tmp_path, f"{base}n = 51\n{slot} = csv {path}\n")
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert f"config error: {slot} spec" in err
    assert all(phrase in err for phrase in phrases)
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "0"],
    ["simulate", "--dt", "0"],
    ["simulate", "--t-end", "0"],
    ["example", "ex-3-3", "--n", "0"],
    ["example", "ex-3-3", "--dt", "0"],
    ["example", "ex-3-3", "--t-end", "0"],
    ["ssm-crosscheck", "--n", "21", "--t-end", "0.01", "--dt", "0"],
], ids=" ".join)
def test_zero_flag_is_config_error(tmp_path, capsys, argv):
    # an explicit 0 is a value, not an absent flag, and every one is invalid
    if argv[0] == "simulate":
        argv = argv + ["--config", write_config(tmp_path, "source = zero\nnu = 1\nn = 21\n")]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 4
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t_end", ["0.0004", "0.0025"])
@pytest.mark.parametrize("command", ["simulate", "example"])
def test_t_end_off_the_step_grid_is_config_error(tmp_path, capsys, command, t_end):
    # with dt = 1e-3 the march would run 0 steps, or stop at t = 0.002
    if command == "simulate":
        cfg = write_config(tmp_path, f"source = zero\nnu = 1\nn = 21\nt_end = {t_end}\n")
        argv = ["simulate", "--config", cfg]
    else:
        argv = ["example", "ex-2-4", "--n", "21", "--t-end", t_end]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 4
    assert "config error: t_end must be a whole number of steps dt" in capsys.readouterr().err
    assert not out.exists()


#: (command and flags, config text) of config errors found only when an input
#: is parsed or built; "{csv}" is a two-column data file
LATE_CONFIG_ERRORS = {
    "steady-nu": (["steady"], "source = cosine_static 0.5\nnu = one\n"),
    "constants-u0": (["constants"], "source = cosine_decay\nnu = 10\nn = 51\n"
                                    "u0 = inverse_sine x\n"),
    "simulate-source-csv": (["simulate"], "source = csv {csv}\nnu = 1\nn = 51\n"),
    "simulate-u0": (["simulate"], "source = zero\nnu = 1\nn = 51\nu0 = inverse_sine x\n"),
    "example-n": (["example", "ex-3-3", "--n", "2"], None),
    "transform-h0": (["transform"], "nu = 1\nn = 51\nh0 = cosine_bump x\n"),
    "ssm-crosscheck-tolerance": (["ssm-crosscheck", "--n", "21"], "tolerance = loose\n"),
    # t_check = 0.0025 is not a whole number of steps dt = 1e-3
    "ssm-crosscheck-t-check": (["ssm-crosscheck", "--n", "21", "--t-end", "0.0025"], None),
    "ssm-crosscheck-tolerance-nan": (["ssm-crosscheck", "--n", "21"], "tolerance = nan\n"),
    # march settings that are not finite and positive
    "simulate-t-end-inf": (["simulate"], "source = zero\nnu = 1\nn = 21\nt_end = inf\n"),
    "simulate-nu-nan": (["simulate"], "source = zero\nnu = nan\nn = 21\n"),
    "simulate-newton-tol-nan": (["simulate"], "source = zero\nnu = 1\nn = 21\nnewton_tol = nan\n"),
    "simulate-positivity-floor": (["simulate"],
                                  "source = zero\nnu = 1\nn = 21\npositivity_floor = -1\n"),
    # sheet data the map refuses: M off the mass of h0, or h0 not positive
    "transform-M-zero": (["transform"], "nu = 1\nn = 21\nM = 0\n"),
    "transform-M-negative": (["transform"], "nu = 1\nn = 21\nM = -1\n"),
    "transform-h0-negative": (["transform"], "nu = 1\nn = 21\nh0 = cosine_bump 2\n"),
    # a sheet mass that is not finite and positive, refused before it scales h0
    "transform-M-nan": (["transform"], "nu = 1\nn = 21\nM = nan\n"),
    "transform-M-inf": (["transform"], "nu = 1\nn = 21\nM = inf\n"),
    "ssm-crosscheck-M-nan": (["ssm-crosscheck", "--n", "21"], "M = nan\n"),
    "ssm-crosscheck-M-inf": (["ssm-crosscheck", "--n", "21"], "M = inf\n"),
    # a viscosity that is not finite and positive, where no march checks it
    "steady-nu-nan": (["steady"], "source = cosine_static 0.5\nnu = nan\nn = 21\n"),
    "constants-nu-inf": (["constants"], "source = cosine_static 0.5\nnu = inf\nn = 21\n"),
    "transform-nu-negative": (["transform"], "nu = -1\nn = 21\nv0 = sine 0.5\n"),
    # the cross-check divides t_check by its march step dt
    "ssm-crosscheck-dt-zero": (["ssm-crosscheck", "--n", "21"], "dt = 0\n"),
    # more steps than numpy can shape a record of, refused before any output
    "simulate-dt-tiny": (["simulate"], "source = zero\nnu = 1\nn = 21\ndt = 1e-300\n"
                                       "t_end = 0.01\n"),
    "simulate-t-end-huge": (["simulate"], "source = zero\nnu = 1\nn = 21\nt_end = 1e300\n"),
    # more sheet steps than the sheet solver is allowed, which it would take forever over
    "ssm-crosscheck-dt-ssm-tiny": (["ssm-crosscheck", "--n", "21"], "dt_ssm = 1e-300\n"),
    "ssm-crosscheck-dt-ssm-small": (["ssm-crosscheck", "--n", "21", "--dt", "1e-7"], None),
    # a cross-check march whose record passes 2**30 bytes, as simulate-record-rows
    "ssm-crosscheck-record": (["ssm-crosscheck", "--n", "21"], "dt = 1e-9\n"),
    # data the theorem constants refuse, found before the output is begun
    "constants-u0-zero": (["constants"], "source = cosine_static 0.5\nnu = 1\nn = 21\n"
                                         "u0 = constant 0\n"),
    "constants-source-rate-nan": (["constants"], "source = cosine_exp nan\nnu = 1\nn = 21\n"),
    "steady-source-rate-inf": (["steady"], "source = cosine_exp inf\nnu = 1\nn = 21\n"),
    # a viscosity whose square overflows in the theorem constants
    "constants-nu-1e155": (["constants"], "source = cosine_decay\nnu = 1e155\nn = 21\n"),
    "constants-nu-1e300": (["constants"], "source = cosine_decay\nnu = 1e300\nn = 21\n"),
    # records past 2**30 bytes: 72 GB of diagnostics rows, and 1.08 GB of
    # snapshots a step apart
    "simulate-record-rows": (["simulate"], "source = zero\nnu = 1\nn = 21\ndt = 1e-9\n"),
    "simulate-record-snapshots": (["simulate"], "source = zero\nnu = 1\nn = 6401\nt_end = 21\n"
                                                "snapshot_stride = 1\n"),
    # non-finite spec numbers, refused before numpy's arithmetic warns on them
    "simulate-u0-inf": (["simulate"], "source = zero\nnu = 1\nn = 21\nu0 = inverse_sine inf\n"),
    "transform-h0-inf": (["transform"], "nu = 1\nn = 21\nh0 = cosine_bump inf\n"),
    "transform-v0-inf": (["transform"], "nu = 1\nn = 21\nv0 = sine inf\n"),
}

#: what the error says, where its wording is the point of the case
LATE_CONFIG_MESSAGES = {
    "ssm-crosscheck-t-check": "t_check must be a whole number of steps dt",
    "ssm-crosscheck-tolerance-nan": "tolerance must be finite and positive, got nan",
    "simulate-t-end-inf": "t_end must be finite and positive, got inf",
    "steady-nu-nan": "nu must be finite and positive, got nan",
    "constants-nu-inf": "nu must be finite and positive, got inf",
    "transform-nu-negative": "nu must be finite and positive, got -1.0",
    "ssm-crosscheck-dt-zero": "dt must be finite and positive, got 0.0",
    "simulate-nu-nan": "nu must be finite and positive, got nan",
    "simulate-newton-tol-nan": "newton_tol must be finite and positive, got nan",
    "simulate-positivity-floor": "positivity_floor must be finite and positive, got -1.0",
    "transform-h0-negative": "h0 must be positive",
    "transform-M-zero": "M must be finite and positive, got 0.0",
    "transform-M-negative": "M must be finite and positive, got -1.0",
    "transform-M-nan": "M must be finite and positive, got nan",
    "transform-M-inf": "M must be finite and positive, got inf",
    "ssm-crosscheck-M-nan": "M must be finite and positive, got nan",
    "ssm-crosscheck-M-inf": "M must be finite and positive, got inf",
    "simulate-dt-tiny": "t_end/dt = 1e+298 steps are more than a record can hold",
    "simulate-t-end-huge": "t_end/dt = 1e+303 steps are more than a record can hold",
    "simulate-record-rows": "t_end/dt = 1000000000 steps are more than a record can hold",
    "simulate-record-snapshots": "t_end/dt = 21000 steps are more than a record can hold",
    "ssm-crosscheck-dt-ssm-tiny": "t_check/dt_ssm = 1e+300 sheet steps are more than 1,000,000",
    "ssm-crosscheck-dt-ssm-small": "t_check/dt_ssm = 1e+07 sheet steps are more than 1,000,000",
    "ssm-crosscheck-record": "t_check/dt = 1000000000 steps are more than a record can hold",
    "constants-u0-zero": "u0 must be positive nodewise",
    "constants-source-rate-nan": "source spec 'cosine_exp nan': nan is not a finite number",
    "steady-source-rate-inf": "source spec 'cosine_exp inf': inf is not a finite number",
    "constants-nu-1e155": "nu=1e+155 is too large: the theorem constants overflow",
    "constants-nu-1e300": "nu=1e+300 is too large: the theorem constants overflow",
    "simulate-u0-inf": "u0 spec 'inverse_sine inf': inf is not a finite number",
    "transform-h0-inf": "h0 spec 'cosine_bump inf': inf is not a finite number",
    "transform-v0-inf": "v0 spec 'sine inf': inf is not a finite number",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", LATE_CONFIG_ERRORS)
def test_config_error_leaves_no_output_directory(tmp_path, capsys, case):
    argv, text = LATE_CONFIG_ERRORS[case]
    data = tmp_path / "data.csv"
    data.write_text("t,x\n0,0\n0,1\n")
    if text is not None:
        argv = argv + ["--config", write_config(tmp_path, text.format(csv=data))]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "config error:" in err and LATE_CONFIG_MESSAGES.get(case, "") in err
    assert not out.exists()


@pytest.mark.parametrize("nu", ["1e155", "1e300"])
def test_huge_nu_fails_the_steady_state_of_a_march(tmp_path, capsys, nu):
    # the constants refuse this nu as a config error; the march fails first
    cfg = write_config(tmp_path, f"source = cosine_decay\nnu = {nu}\nn = 21\nt_end = 0.01\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "error: mass integral never drops below 1/nu" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["snapshot_stride", "newton_max_iter"])
def test_config_count_below_one_is_config_error(tmp_path, capsys, key):
    cfg = write_config(tmp_path, f"source = zero\nnu = 1\nn = 21\nt_end = 0.01\n{key} = 0\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert f"config error: {key} must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command,line", [
    ("simulate", "mode = homogeneous"),
    ("simulate", "t_ned = 0.05"),
    ("constants", "mode = inhomogeneous"),
    ("steady", "which = initial"),
    ("transform", "dt = 1e-3"),
])
def test_unread_key_is_config_error(tmp_path, capsys, command, line):
    base = "nu = 1\nn = 21\n" + ("" if command == "transform" else "source = cosine_static 0.5\n")
    cfg = write_config(tmp_path, line + "\n" + base)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 4
    key = line.split("=")[0].strip()
    assert f"config error: {cfg}:1: unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()
    # the time flags exist only on the commands that march
    with pytest.raises(SystemExit) as help_exit:
        run([command, "--help"])
    assert help_exit.value.code == 0
    assert ("--dt" in capsys.readouterr().out) == (command == "simulate")


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "o"],
    ["steady", "--config", "c.txt", "--dt", "1"],
    ["constants", "--config", "c.txt", "--t-end", "1"],
], ids=" ".join)
def test_usage_error_is_config_error(capsys, argv):
    # argparse's own code, 2, means a violated hypothesis here
    with pytest.raises(SystemExit) as usage_exit:
        run(argv)
    assert usage_exit.value.code == 4
    assert "error:" in capsys.readouterr().err


def test_crosscheck_help_names_what_its_flags_set(capsys):
    with pytest.raises(SystemExit) as help_exit:
        run(["ssm-crosscheck", "--help"])
    assert help_exit.value.code == 0
    text = capsys.readouterr().out
    assert "--dt DT_SSM" in text and "--t-end T_CHECK" in text


def _readme_key_table() -> dict:
    """README's table of config keys: {command: {key: cell}}, blank cells left out."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| key | `steady`"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    header, body = rows[0], rows[2:]     # rows[1] is the |---| row
    commands = header[1:-1]              # the last column says what a key sets
    return {command: {row[0]: row[column] for row in body if row[column]}
            for column, command in enumerate(commands, 1)}


def test_readme_key_table_matches_config_keys():
    table = _readme_key_table()
    assert CONFIG_KEYS["example"] is CONFIG_KEYS["simulate"]
    assert table.keys() == CONFIG_KEYS.keys() - {"example"}
    for command, cells in table.items():
        keys = CONFIG_KEYS[command]
        assert cells.keys() == keys.keys(), command
        for key, entry in keys.items():
            if isinstance(entry, type):
                assert cells[key] == "required", (command, key)
            else:
                assert type(entry)(cells[key]) == entry, (command, key)


def test_example_rejects_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["example", "ex-3-3", "--config", "nonexistent.txt",
                "--out", str(out)]) == 4
    assert "built-in data" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        run(["example", "--help"])
    assert "--config" not in capsys.readouterr().out


#: runs each argv list given as JSON through cli.main in this one interpreter;
#: its last stdout line lists (command, exit code, the scipy modules loaded so far)
COLD_START = """
import json, sys
from singheat.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    seen.append([argv[0], code, sorted(name for name in sys.modules
                                       if name == "scipy" or name.startswith("scipy."))])
print(json.dumps(seen))
"""


def test_no_command_loads_the_spline_library(tmp_path):
    configs = {
        "steady": "source = cosine_static 0.5\nnu = 1\nn = 21\n",
        "constants": "source = cosine_decay\nnu = 10\nn = 21\n",
        "simulate": "source = cosine_static 0.5\nnu = 1\nn = 21\nt_end = 0.01\n",
        "transform": "nu = 1\nn = 21\nv0 = sine 0.5\n",
    }
    argvs = [[command, "--config", write_config(tmp_path, text, f"{command}.txt"),
              "--out", str(tmp_path / command)] for command, text in configs.items()]
    argvs += [["ssm-crosscheck", "--n", "21", "--t-end", "0.01", "--out", str(tmp_path / "ssm")],
              ["example", "ex-3-3", "--n", "21", "--t-end", "0.01",
               "--out", str(tmp_path / "example")]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [
        ["steady", 0, []],
        ["constants", 0, []],
        ["simulate", 0, []],
        ["transform", 0, []],
        ["ssm-crosscheck", 0, []],
        ["example", 0, []],
    ]
