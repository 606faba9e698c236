import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadrl
from quadrl import net
from quadrl.checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                               save_checkpoint)
from quadrl.cli import build_parser, main
from quadrl.config import parse_config
from quadrl.env import OBS_SIZE, SimulationDiverged
from quadrl.rl import actor_spec
from quadrl.terrain import make_terrain, save_terrain

TINY = """
t_max = 20
episodes = 2
generations = 2
warmup_steps = 10
rl.batch_size = 8
cem.population_size = 4
cem.elite_count = 2
"""


def run_cli(argv):
    return main(argv)


def trained_dir(tmp_path, algo="td3"):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path / "run"
    code = run_cli(["train", "--algo", algo, "--config", str(cfg),
                    "--seed", "1", "--out", str(out)])
    assert code == 0
    return out


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["launch"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval", "--terrain", "flat"])  # missing --checkpoint
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["train", "--algo", "sarsa"])
    assert exc.value.code == 1
    # A trial count below 1 exits 1 before the (missing) checkpoint is read.
    for argv in (["eval", "--terrain", "flat", "--trials", "0"],
                 ["eval", "--terrain", "rough", "--trials", "-2"],
                 ["transfer", "--trials", "0"], ["transfer", "--trials", "-2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--checkpoint", "missing.json"])
        assert exc.value.code == 1
    capsys.readouterr()


def test_train_offers_each_algorithm_dashed():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    [algo] = [a for a in commands.choices["train"]._actions if a.dest == "algo"]
    assert algo.choices == ["ddpg", "td3", "cem-ddpg", "cem-td3"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("train", "eval", "transfer", "plot"):
        assert command in out


def test_train_writes_artifacts(tmp_path, capsys):
    out = trained_dir(tmp_path)
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "checkpoint_best.json").exists()
    stdout = capsys.readouterr().out
    assert "best return:" in stdout
    doc = json.loads((out / "checkpoint.json").read_text())
    assert doc["algorithm"] == "td3"
    assert doc["config"]["master_seed"] == 1


def test_train_rejects_bad_config_with_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_drive = on\n")
    assert run_cli(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_train_negative_seed_exit_2_without_directory(tmp_path, capsys):
    # numpy once refused the seed only after the output directory existed.
    out = tmp_path / "run"
    assert run_cli(["train", "--seed", "-1", "--out", str(out)]) == 2
    assert "master_seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_eval_runs_and_writes_report(tmp_path, capsys):
    out = trained_dir(tmp_path)
    report = tmp_path / "eval.csv"
    code = run_cli(["eval", "--checkpoint", str(out / "checkpoint.json"),
                    "--terrain", "rough", "--trials", "2", "--seed", "3",
                    "--out", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "terrain,mean,std,median,best,trial_1,trial_2"
    assert lines[1].startswith("rough,")
    assert "mean" in capsys.readouterr().out


def test_eval_default_report_location(tmp_path, capsys):
    out = trained_dir(tmp_path)
    code = run_cli(["eval", "--checkpoint", str(out / "checkpoint.json"),
                    "--terrain", "flat", "--trials", "1"])
    assert code == 0
    assert (out / "eval_flat.csv").exists()
    capsys.readouterr()


def test_eval_missing_checkpoint_exit_2(tmp_path, capsys):
    code = run_cli(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                    "--terrain", "flat"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_eval_malformed_checkpoint_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = run_cli(["eval", "--checkpoint", str(bad), "--terrain", "flat"])
    assert code == 2
    capsys.readouterr()


def actor_checkpoint(path, nan_index=None):
    """Save a small random actor, with one NaN weight if nan_index is given."""
    spec = actor_spec(OBS_SIZE, 8, 0.7, hidden=(8, 8))
    values = np.random.default_rng(0).normal(size=spec.param_count)
    if nan_index is not None:
        values[nan_index] = np.nan
    save_checkpoint(Checkpoint(net.ParamVector(values, spec),
                               parse_config("t_max = 30")), str(path))
    return path


def record_episodes(monkeypatch) -> list:
    """The argument tuples of every evaluation episode run from now on."""
    episodes = []
    run_episode = quadrl.evaluate.run_episode

    def counted(*args):
        episodes.append(args)
        return run_episode(*args)

    monkeypatch.setattr("quadrl.evaluate.run_episode", counted)
    return episodes


def test_eval_divergence_exit_2_without_report(tmp_path, monkeypatch, capsys):
    def diverge(*args):
        raise SimulationDiverged("forced")

    monkeypatch.setattr("quadrl.env.step", diverge)
    ck = actor_checkpoint(tmp_path / "ck.json")
    report = tmp_path / "eval.csv"
    code = run_cli(["eval", "--checkpoint", str(ck), "--terrain", "flat",
                    "--trials", "2", "--out", str(report)])
    assert code == 2
    assert "forced" in capsys.readouterr().err
    assert not report.exists()


def test_transfer_nan_weight_checkpoint_exit_2_without_report(tmp_path, capsys):
    ck = actor_checkpoint(tmp_path / "ck.json", nan_index=5)
    code = run_cli(["transfer", "--checkpoint", str(ck), "--trials", "2",
                    "--out", str(tmp_path / "reports")])
    assert code == 2
    assert "'actor'" in capsys.readouterr().err
    assert not (tmp_path / "reports" / "transfer_report.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("t_max", "250"), ("robot.substeps", 2.5), ("episodes", 1.5),
    ("master_seed", True)])
def test_transfer_mistyped_config_value_exit_2_without_report(key, value, tmp_path,
                                                              capsys):
    # Each once raised a TypeError outside ConfigError, or loaded silently.
    ck = actor_checkpoint(tmp_path / "ck.json")
    doc = json.loads(ck.read_text())
    doc["config"][key] = value
    ck.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(str(ck))
    code = run_cli(["transfer", "--checkpoint", str(ck), "--trials", "2",
                    "--out", str(tmp_path / "reports")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def test_eval_fixed_terrain(tmp_path, capsys):
    out = trained_dir(tmp_path)
    terrain_file = tmp_path / "pinned.terrain"
    save_terrain(make_terrain("rough", seed=5), str(terrain_file))
    report = tmp_path / "pinned.csv"
    code = run_cli(["eval", "--checkpoint", str(out / "checkpoint.json"),
                    "--terrain", "rough", "--trials", "3",
                    "--fixed-terrain", str(terrain_file), "--out", str(report)])
    assert code == 0
    row = report.read_text().splitlines()[1].split(",")
    # A pinned terrain plus the deterministic reset makes trials identical.
    assert float(row[2]) == 0.0
    capsys.readouterr()


@pytest.mark.parametrize("argv, kind, message", [
    (["eval", "--terrain", "flat", "--out", "reports/eval.csv"], "rough",
     "fixed terrain is rough, not flat"),
    (["transfer", "--out", "reports"], "flat", "fixed terrain is flat, not rough"),
])
def test_fixed_terrain_of_another_kind_exit_2_without_report(
        argv, kind, message, tmp_path, monkeypatch, capsys):
    # The report would carry the label of one terrain and the returns of the other.
    # The kind is checked before any trial runs, flat trials included.
    monkeypatch.chdir(tmp_path)
    ck = actor_checkpoint(tmp_path / "ck.json")
    save_terrain(make_terrain(kind, seed=5), "pinned.terrain")
    episodes = record_episodes(monkeypatch)
    code = run_cli([*argv, "--checkpoint", str(ck), "--trials", "2",
                    "--fixed-terrain", "pinned.terrain"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()
    assert episodes == []


@pytest.mark.parametrize("argv, report", [
    (["eval", "--terrain", "rough", "--out", "eval.csv"], "eval.csv"),
    (["transfer", "--out", "reports"], "reports"),
])
def test_negative_eval_seed_exit_2_before_any_trial(argv, report, tmp_path,
                                                    monkeypatch, capsys):
    # A transfer once ran every flat trial before the rough terrain's draw
    # refused the seed.
    monkeypatch.chdir(tmp_path)
    ck = actor_checkpoint(tmp_path / "ck.json")
    episodes = record_episodes(monkeypatch)
    code = run_cli([*argv, "--checkpoint", str(ck), "--trials", "2",
                    "--seed", "-3"])
    assert code == 2
    assert "eval_seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / report).exists()
    assert episodes == []


def test_transfer_writes_table_and_report(tmp_path, capsys):
    out = trained_dir(tmp_path, algo="cem-td3")
    code = run_cli(["transfer", "--checkpoint", str(out / "checkpoint_best.json"),
                    "--trials", "2", "--out", str(tmp_path / "reports")])
    assert code == 0
    report = (tmp_path / "reports" / "transfer_report.csv").read_text()
    assert report.splitlines()[1].startswith("flat,")
    assert report.splitlines()[2].startswith("rough,")
    table = (tmp_path / "reports" / "transfer_table.txt").read_text()
    for column in ("Mean Reward", "Std. Dev.", "Median Reward", "Best Reward"):
        assert column in table
    stdout = capsys.readouterr().out
    assert "degradation" in stdout


def test_plot_from_training_metrics(tmp_path, capsys):
    out = trained_dir(tmp_path)
    svg = tmp_path / "curve.svg"
    code = run_cli(["plot", "--metrics", str(out / "metrics.csv"),
                    "--out", str(svg)])
    assert code == 0
    assert svg.read_text().startswith("<svg ")
    capsys.readouterr()


def test_plot_bad_metrics_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    assert run_cli(["plot", "--metrics", str(bad),
                    "--out", str(tmp_path / "c.svg")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("row, problem", [
    ("1,2", "best_return is None"),
    ("1,nan,2", "return is 'nan'"),
    ("1,5.0,inf", "best_return is 'inf'"),
    ("1,,5.0", "return is ''"),
])
def test_plot_refuses_a_short_or_non_finite_row(tmp_path, capsys, row, problem):
    bad = tmp_path / "metrics.csv"
    bad.write_text(f"step_or_generation,return,best_return\n1,5.0,5.0\n{row}\n")
    svg = tmp_path / "c.svg"
    assert run_cli(["plot", "--metrics", str(bad), "--out", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err == (f"quadrl plot: error: {str(bad)!r} line 3: {problem}, "
                   "not a finite number\n")
    assert not svg.exists()


def test_plot_refuses_a_row_longer_than_its_header(tmp_path, capsys):
    bad = tmp_path / "metrics.csv"
    bad.write_text("step_or_generation,return,best_return\n1,5.0,5.0\n"
                   "2,5.0,5.0,7,8\n")
    svg = tmp_path / "c.svg"
    assert run_cli(["plot", "--metrics", str(bad), "--out", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err == (f"quadrl plot: error: {str(bad)!r} line 3: 2 more cells "
                   "than the header\n")
    assert not svg.exists()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_vars_after_import(preset: dict) -> list[str]:
    """The three BLAS thread variables as a fresh `import quadrl` leaves them."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(quadrl.__file__).resolve().parent.parent)
    code = ("import os, quadrl; "
            f"print(' '.join(os.environ[v] for v in {BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_import_pins_blas_to_one_thread():
    assert blas_vars_after_import({}) == ["1", "1", "1"]


def test_import_keeps_a_blas_thread_count_already_set():
    assert blas_vars_after_import({"OPENBLAS_NUM_THREADS": "2"}) == ["2", "1", "1"]
