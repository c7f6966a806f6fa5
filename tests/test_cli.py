import json
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from singheat import lagrangian, solver
from singheat.cli import main
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


class TestExamples:
    def test_ex24_short_smoke(self, tmp_path):
        # full-length reproduction lives in the acceptance suite; here only
        # the wiring is exercised
        out = tmp_path / "out"
        code = run(["example", "ex-2-4", "--out", str(out), "--n", "101",
                    "--t-end", "2"])
        assert code == 0
        assert (out / "decay_report.json").exists()

    def test_ex33_short_smoke(self, tmp_path):
        out = tmp_path / "out"
        code = run(["example", "ex-3-3", "--out", str(out), "--n", "101",
                    "--t-end", "1"])
        assert code == 0
        # the run's one envelope report agrees with its exit code
        assert not (out / "decay_report.json").exists()
        energy = json.loads((out / "energy_envelope_report.json").read_text())
        assert energy["envelope_ok"] is True


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


def test_failed_newton_solve_exits_as_solver_failure(tmp_path, monkeypatch, capsys):
    def singular(*args):
        raise LinAlgError("singular matrix")

    monkeypatch.setattr(solver, "tridiag_solve", singular)
    cfg = write_config(tmp_path, "source = zero\nnu = 1\nn = 21\nt_end = 0.01\n")
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "solver failure: Newton solve failed at t=0.001" in capsys.readouterr().err


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


def test_example_rejects_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["example", "ex-3-3", "--config", "nonexistent.txt",
                "--out", str(out)]) == 4
    assert "built-in data" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        run(["example", "--help"])
    assert "--config" not in capsys.readouterr().out
