import errno
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from diagflow import (ExperimentConfig, StepController, experiments, integrate, report,
                      write_trajectory_csv)
from diagflow.cli import main


def test_usage_error_for_single_layer(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--layers", "1"])
    assert err.value.code == 2


def test_usage_error_for_missing_command():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_simulate_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    flags = ["simulate", "--layers", "3", "--dim", "3", "--samples", "5",
             "--seed", "1", "--tmax", "2.0"]
    assert main([*flags, "--output", str(out1)]) == 0
    assert main([*flags, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "pass" in capsys.readouterr().out


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    """A fresh directory for the files of the ``tempfile`` module."""
    path = tmp_path / "temp"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def test_simulate_output_is_the_trajectory_csv_of_its_flow(tmp_path, temp_dir, capsys):
    # 6,001 steps kept at 3,001 rows, formatted by the writer process while
    # the flow runs: the bytes write_trajectory_csv gives for the same flow
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    assert main(["simulate", "--tmax", "6", "--output", str(out)]) == 0
    loss, stack0 = ExperimentConfig(layers=3, n=8, t_max=6.0).problem()
    traj = integrate(stack0, loss, StepController(h=1e-3, t_max=6.0))
    write_trajectory_csv(traj, ref, include_layers=True)
    assert len(traj) == 3001
    assert out.read_bytes() == ref.read_bytes()
    assert not any(temp_dir.iterdir())


@pytest.mark.parametrize("reads_all_rows", [True, False],
                         ids=["when_waited_for", "while_the_flow_runs"])
def test_a_failed_writer_process_is_an_error_and_writes_no_file(tmp_path, temp_dir, monkeypatch,
                                                              capsys, reads_all_rows):
    # the forked writer inherits the patched write_rows_csv, and its OSError
    # comes back as the parent's error: when main waits for it, or when the
    # flow meets the pipe it closed
    def disk_full(path, header, rows):
        if reads_all_rows:
            for _ in rows:
                pass
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(report, "write_rows_csv", disk_full)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--tmax", "10", "--output", str(out)]) == 1
    assert "[Errno 28] No space left on device" in capsys.readouterr().err
    assert not out.exists()
    assert not any(temp_dir.iterdir())


def test_a_writer_error_that_is_not_an_os_error_keeps_its_message(tmp_path, temp_dir,
                                                                  monkeypatch, capsys):
    def bad_row(path, header, rows):
        raise ValueError("row 7 has 3 cells, not 5")

    monkeypatch.setattr(report, "write_rows_csv", bad_row)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--tmax", "1", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: row 7 has 3 cells, not 5\n"
    assert not out.exists()
    assert not any(temp_dir.iterdir())


@pytest.mark.parametrize("command, module, name, role", [
    (["simulate", "--tmax", "1"], report, "write_rows_csv", "trajectory CSV writer"),
    (["bias"], experiments, "solve_kkt", "sweep worker"),
], ids=["simulate_writer", "bias_worker"])
def test_a_killed_child_process_is_an_error(tmp_path, temp_dir, monkeypatch, capsys,
                                            command, module, name, role):
    # on two CPUs, bias's forked worker solves alpha=0.1's KKT system
    parent, fn = os.getpid(), getattr(module, name)

    def killed_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(module, name, killed_in_a_child)
    out = tmp_path / "out.csv"
    assert main([*command, "--output", str(out)]) == 1
    assert re.fullmatch(rf"error: {role} process \d+ was killed by signal 9 \(Killed\)\n",
                        capsys.readouterr().err)
    assert not out.exists()
    assert not any(temp_dir.iterdir())


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="finds the writer process through /proc/PID/task/PID/children")
def test_a_terminated_simulate_leaves_no_temporary_file(tmp_path):
    # SIGTERM ends the parent at once; its writer then reads the end of the
    # pipe and exits, and the nameless temporary file goes with it
    temp, out = tmp_path / "temp", tmp_path / "out.csv"
    temp.mkdir()
    src = str(Path(report.__file__).parents[1])
    env = {**os.environ, "TMPDIR": str(temp),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "diagflow.cli", "simulate", "--layers", "5",
                             "--dim", "64", "--samples", "48", "--tmax", "100",
                             "--output", str(out)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    deadline = time.monotonic() + 30.0
    try:
        while proc.poll() is None and not (children.exists() and children.read_text().strip()):
            assert time.monotonic() < deadline, "simulate started no writer process"
            time.sleep(0.01)
        time.sleep(0.3)  # the writer has rows in its file
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)  # the pipes close when the writer has exited too
    assert proc.returncode == -signal.SIGTERM
    assert not any(temp.iterdir())
    assert not out.exists()


def test_simulate_divergence_exits_one(tmp_path, capsys):
    code = main(["simulate", "--layers", "2", "--dim", "2", "--samples", "3",
                 "--step", "1000", "--tmax", "100000"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_divergence_writes_no_file(tmp_path, temp_dir, capsys):
    out, diag = tmp_path / "o.csv", tmp_path / "d.csv"
    code = main(["simulate", "--layers", "2", "--dim", "2", "--samples", "3", "--step", "0.8",
                 "--tmax", "1000", "--output", str(out), "--diagnostics", str(diag)])
    assert code == 1
    assert "reduce the step size" in capsys.readouterr().err
    assert not out.exists() and not diag.exists()
    assert not any(temp_dir.iterdir())


def test_simulate_shorter_than_three_snapshots(tmp_path, capsys):
    # one step leaves 2 snapshots: too few for the general mirror residual
    diag = tmp_path / "diag.csv"
    assert main(["simulate", "--tmax", "0.01", "--step", "0.01", "--diagnostics", str(diag)]) == 0
    out = capsys.readouterr().out
    assert "conservation max defect" in out
    assert "mirror residual" not in out
    assert "general_residual" not in diag.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [["simulate"], ["crossings", "--diagnostics", "diag.csv"]])
def test_vanishing_mobility_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys, argv):
    # two zero layers: the mobility diagonal is zero in every coordinate
    monkeypatch.chdir(tmp_path)
    weights = tmp_path / "init.txt"
    weights.write_text("0 0 0\n0 0 0\n0.5 1 2\n", encoding="utf-8")
    code = main([*argv, "--layers", "3", "--dim", "3", "--tmax", "0.1",
                 "--init-scheme", "explicit", "--init-file", str(weights)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "at most one zero node per coordinate" in err


@pytest.mark.parametrize("command", ["simulate", "crossings", "convergence"])
def test_failed_run_writes_no_file(tmp_path, temp_dir, monkeypatch, capsys, command):
    # two zero nodes in a coordinate: the diagnostics of simulate and
    # crossings fail, convergence's sigma bound raises TiedMinimumError; a
    # failed run writes neither file
    monkeypatch.chdir(tmp_path)
    weights = tmp_path / "init.txt"
    weights.write_text("0 0 0\n0 0 0\n0.5 1 2\n", encoding="utf-8")
    code = main([command, "--layers", "3", "--dim", "3", "--tmax", "0.1",
                 "--init-scheme", "explicit", "--init-file", str(weights),
                 "--output", "o.csv", "--diagnostics", "d.csv"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "d.csv").exists()
    assert not any(temp_dir.iterdir())


def test_crossings_writes_node_columns(tmp_path, capsys):
    out = tmp_path / "nodes.csv"
    code = main(["crossings", "--tmax", "3.0", "--seed", "2", "--output", str(out)])
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,u_1_1,u_2_1,u_3_1,u_4_1"


def test_convergence_run_with_diagnostics(tmp_path, capsys):
    out = tmp_path / "gap.csv"
    diag = tmp_path / "diag.csv"
    code = main(["convergence", "--layers", "4", "--dim", "5", "--samples", "8",
                 "--seed", "1", "--tmax", "200", "--init-scale", "1.2",
                 "--output", str(out), "--diagnostics", str(diag)])
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == "t,loss_gap,log_loss_gap,bound"
    diag_text = diag.read_text(encoding="utf-8")
    assert diag_text.splitlines()[0] == "section,metric,value"
    for section in ("conservation", "sign_census", "mirror", "manifold", "rate"):
        assert section in diag_text


def test_bias_run(tmp_path, capsys):
    out = tmp_path / "bias.csv"
    code = main(["bias", "--samples", "2", "--dim", "4", "--seed", "3",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,l1_norm,l1_min,linf_mismatch"
    assert len(lines) == 4  # default three-scale sweep


def test_bias_writes_the_same_bytes_on_one_cpu_and_on_two(tmp_path, capsys, monkeypatch):
    # criterion 11 across CPU counts: on two, a forked worker computes alpha=0.1
    outputs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out, diag = tmp_path / f"bias{len(cpus)}.csv", tmp_path / f"diag{len(cpus)}.csv"
        assert main(["bias", "--output", str(out), "--diagnostics", str(diag)]) == 0
        outputs.append((out.read_bytes(), diag.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flags, code, status", [([], 0, "pass"), (["--tmax", "0.001"], 1, "FAIL")],
                         ids=["defaults", "stopped_at_tmax"])
def test_bias_checks_that_each_flow_reached_its_limit(capsys, flags, code, status):
    # the defaults end at gaps of 6e-11 to 8e-11; --tmax 0.001 stops the flows at gaps near 1
    assert main(["bias", *flags]) == code
    rows = [line for line in capsys.readouterr().out.splitlines() if " flow gap " in line]
    assert [row.split()[0] for row in rows] == ["alpha=1", "alpha=0.1", "alpha=0.01"]
    assert all(row.endswith(status) for row in rows)


def test_paramcheck_table(capsys):
    assert main(["paramcheck", "--samples", "25", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "commuting defect" in out
    assert "FAIL" not in out


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small smoke run\nlayers = 3\ndim = 2\nsamples = 4\ntmax = 1.0\nseed = 9\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "c1.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out1)]) == 0
    header = out1.read_text(encoding="utf-8").splitlines()[0]
    assert header.count("theta_") == 2  # dim taken from the config file

    out2 = tmp_path / "c2.csv"
    assert main(["simulate", "--config", str(cfg), "--dim", "3",
                 "--output", str(out2)]) == 0
    assert out2.read_text(encoding="utf-8").splitlines()[0].count("theta_") == 3


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("layers 3\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--config", str(bad)])
    assert err.value.code == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("volume = 11\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--config", str(unknown)])
    assert err.value.code == 2
    not_read = tmp_path / "not_read.cfg"
    not_read.write_text("layers = 3\n", encoding="utf-8")  # bias has no --layers
    with pytest.raises(SystemExit) as err:
        main(["bias", "--config", str(not_read)])
    assert err.value.code == 2
    nested = tmp_path / "nested.cfg"
    nested.write_text(f"config = {not_read}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--config", str(nested)])
    assert err.value.code == 2


def test_explicit_init_from_file(tmp_path, capsys):
    weights = tmp_path / "init.txt"
    np.savetxt(weights, np.array([[0.2, 0.3], [0.5, 0.8]]))
    out = tmp_path / "run.csv"
    code = main(["simulate", "--layers", "2", "--dim", "2", "--samples", "3",
                 "--tmax", "0.5", "--init-scheme", "explicit",
                 "--init-file", str(weights), "--output", str(out)])
    assert code == 0
    first_row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    # u columns of the first snapshot carry the explicit weights
    assert [float(v) for v in first_row[6:]] == [0.2, 0.3, 0.5, 0.8]


def test_explicit_scheme_requires_file():
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--init-scheme", "explicit"])
    assert err.value.code == 2


def test_init_file_errors_are_usage_errors(tmp_path, capsys):
    flags = ["simulate", "--layers", "2", "--dim", "2", "--init-scheme", "explicit"]
    with pytest.raises(SystemExit) as err:
        main([*flags, "--init-file", str(tmp_path / "missing.txt")])
    assert err.value.code == 2
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("0.2 x\n0.5 0.8\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main([*flags, "--init-file", str(malformed)])
    assert err.value.code == 2
    assert "--init-file" in capsys.readouterr().err


def test_init_file_of_the_wrong_shape_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # two rows for three layers: rejected while parsing, before any file is written
    monkeypatch.chdir(tmp_path)
    weights = tmp_path / "init.txt"
    np.savetxt(weights, np.ones((2, 3)))
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--layers", "3", "--dim", "3", "--init-scheme", "explicit",
              "--init-file", str(weights), "--output", "o.csv", "--diagnostics", "d.csv"])
    assert err.value.code == 2
    assert "expected (3, 3)" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "d.csv").exists()


_SIMULATE = ["simulate", "--layers", "2", "--dim", "2"]


@pytest.mark.parametrize("flags", [[*_SIMULATE, "--tmax", "nan"], [*_SIMULATE, "--tmax", "inf"],
                                   [*_SIMULATE, "--step", "nan"],
                                   [*_SIMULATE, "--init-scale", "nan"], [*_SIMULATE, "--seed", "-1"],
                                   [*_SIMULATE, "--init-scheme", "explicit", "--init-file", "nan.txt"],
                                   ["bias", "--samples", "6", "--dim", "6"],
                                   ["bias", "--samples", "3", "--dim", "17"]])
def test_out_of_range_value_is_a_usage_error(tmp_path, monkeypatch, capsys, flags):
    # rejected while parsing, before any file is written
    monkeypatch.chdir(tmp_path)
    np.savetxt(tmp_path / "nan.txt", [[0.5, np.nan], [0.5, 0.8]])
    with pytest.raises(SystemExit) as err:
        main([*flags, "--output", "o.csv"])
    assert err.value.code == 2
    assert re.search(r"must be|expects an underdetermined instance|desk-scale only \(dim <= 16\)",
                     capsys.readouterr().err)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("flag", ["--output", "--diagnostics"])
def test_unwritable_output_exits_one(tmp_path, temp_dir, capsys, flag):
    target = tmp_path / "no_such_dir" / "out.csv"
    code = main(["simulate", "--layers", "2", "--dim", "2", "--samples", "3",
                 "--tmax", "0.1", flag, str(target)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no_such_dir" in err
    assert not any(temp_dir.iterdir())


def test_config_value_is_checked_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("init_scheme = bogus\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--config", str(cfg)])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_init_file_requires_explicit_scheme(tmp_path, capsys):
    weights = tmp_path / "init.txt"
    np.savetxt(weights, np.array([[0.2, 0.3], [0.5, 0.8]]))
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--layers", "2", "--dim", "2", "--init-file", str(weights)])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [["bias", "--layers", "4"], ["paramcheck", "--output", "x.csv"]])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()

