import importlib
import json
import math
import os

import numpy as np
import pytest

from quadrl import net
from quadrl.checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                               save_checkpoint)
from quadrl.config import (CemHyperparams, ConfigError, RunConfig,
                           config_from_dict, config_to_dict, load_config,
                           parse_config)
from quadrl.env import OBS_SIZE, QuadrupedEnv, RobotConfig
from quadrl.evaluate import (EvalReport, evaluate, report_csv, summarize,
                             transfer_experiment, transfer_table, TABLE_COLUMNS)
from quadrl.rl import TrainingDiverged, actor_spec
from quadrl.rollout import run_episode
from quadrl.seeds import SeedStream
from quadrl.svgplot import plot_metrics, read_metrics, render_curve
from quadrl.terrain import make_terrain
from quadrl.train import CEM_HEADER, GRADIENT_HEADER, train


# --- seeds ---------------------------------------------------------------

def test_seed_stream_deterministic():
    a = SeedStream(7)
    b = SeedStream(7)
    seq_a = [a.next() for _ in range(20)]
    seq_b = [b.next() for _ in range(20)]
    assert seq_a == seq_b
    c = SeedStream(8)
    assert [c.next() for _ in range(20)] != seq_a
    assert all(0 <= s < 2**63 for s in seq_a)
    assert len(set(seq_a)) == 20


# --- config --------------------------------------------------------------

def test_parse_empty_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.algorithm == "ddpg"
    assert cfg.t_max == 1000
    assert cfg.rl.gamma == 0.99
    assert cfg.cem.population_size == 10
    assert cfg.robot.mass == 5.0


def test_parse_sections_comments_and_types():
    text = """
    # run settings
    algorithm = cem-td3
    master_seed = 9
    t_max = 250          # episode cap
    record_wall_time = true

    rl.gamma = 0.95
    rl.batch_size = 32
    cem.population_size = 6
    cem.elite_count = 3
    robot.mass = 4.5
    """
    cfg = parse_config(text)
    assert cfg.algorithm == "cem_td3"
    assert cfg.master_seed == 9
    assert cfg.t_max == 250
    assert cfg.record_wall_time is True
    assert cfg.rl.gamma == 0.95
    assert cfg.rl.batch_size == 32
    assert cfg.cem.population_size == 6
    assert cfg.robot.mass == 4.5
    # Untouched fields keep their defaults.
    assert cfg.rl.tau == 0.005
    assert cfg.robot.torque_limit == 5.0


def test_parse_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("not_a_key = 3")
    with pytest.raises(ConfigError):
        parse_config("rl.momentum = 3")
    with pytest.raises(ConfigError):
        parse_config("rl.gamma = fast")
    with pytest.raises(ConfigError):
        parse_config("episodes = 3.5")
    with pytest.raises(ConfigError):
        parse_config("record_wall_time = yes")
    with pytest.raises(ConfigError):
        parse_config("just a line")
    with pytest.raises(ConfigError):
        parse_config("algorithm = sarsa")
    with pytest.raises(ConfigError):
        parse_config("t_max = 0")
    with pytest.raises(ConfigError):
        parse_config("cem.elite_count = 99")


def test_parse_overrides_win_and_none_is_skipped():
    cfg = parse_config("master_seed = 1\nepisodes = 5",
                       master_seed=42, out_dir=None)
    assert cfg.master_seed == 42
    assert cfg.episodes == 5
    assert cfg.out_dir == "run_output"


def test_budget_property():
    assert parse_config("algorithm = ddpg\nepisodes = 7").budget == 7
    assert parse_config("algorithm = cem_td3\ngenerations = 9").budget == 9


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("algorithm = td3\nmaster_seed = 3\n")
    cfg = load_config(str(path))
    assert cfg.algorithm == "td3"
    assert cfg.master_seed == 3


def test_config_dict_round_trip():
    cfg = parse_config("algorithm = cem_ddpg\nrl.tau = 0.01\nrobot.pd_kp = 55\n"
                       "cem.noise_floor = 0.5\nout_dir = /tmp/somewhere")
    data = config_to_dict(cfg)
    assert "out_dir" not in data
    back = config_from_dict(data)
    assert back.rl == cfg.rl
    assert back.robot == cfg.robot
    assert back.cem == cfg.cem
    assert back.algorithm == cfg.algorithm
    assert back.out_dir == "run_output"  # default restored
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})


def test_cem_hyperparams_validation():
    with pytest.raises(ConfigError):
        CemHyperparams(population_size=1)
    with pytest.raises(ConfigError):
        CemHyperparams(elite_count=0)
    with pytest.raises(ConfigError):
        CemHyperparams(grad_steps_cap=-1)


# --- checkpoint ----------------------------------------------------------

def sample_checkpoint(seed=0):
    spec = actor_spec(OBS_SIZE, 8, hidden=(8, 8))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=spec.param_count)
    values[0] = 1e-300  # denormal-adjacent values must survive the trip
    values[1] = -1e300
    return Checkpoint("td3", {"actor": spec}, {"actor": values},
                      parse_config("t_max = 30"), {"episodes": 3})


def test_checkpoint_round_trip_is_exact(tmp_path):
    ck = sample_checkpoint()
    path = str(tmp_path / "ck.json")
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.algorithm == "td3"
    assert loaded.specs["actor"] == ck.specs["actor"]
    assert np.array_equal(loaded.params["actor"], ck.params["actor"])
    assert loaded.progress == {"episodes": 3}
    assert loaded.config.t_max == 30
    obs = np.zeros(OBS_SIZE)
    assert np.array_equal(net.forward(loaded.actor(), obs),
                          net.forward(ck.actor(), obs))


def test_checkpoint_save_is_byte_stable(tmp_path):
    ck = sample_checkpoint()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(ck, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_requires_actor():
    spec = actor_spec(4, 2, hidden=(4,))
    with pytest.raises(CheckpointError):
        Checkpoint("ddpg", {"critic": spec}, {"critic": np.zeros(spec.param_count)},
                   RunConfig())


def test_checkpoint_rejects_length_mismatch():
    spec = actor_spec(4, 2, hidden=(4,))
    with pytest.raises(CheckpointError):
        Checkpoint("ddpg", {"actor": spec}, {"actor": np.zeros(3)}, RunConfig())


def test_load_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    path.write_text("[1, 2, 3]")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    path.write_text("{}")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_load_rejects_tampered_fields(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(sample_checkpoint(), str(path))
    doc = json.loads(path.read_text())
    tampered = tmp_path / "tampered.json"

    cases = [
        dict(doc, format_version=99),
        dict(doc, params=dict(doc["params"], actor="!!!not-base64!!!")),
        dict(doc, params=dict(doc["params"], actor="AAAA")),  # 3 bytes
        dict(doc, config=dict(doc["config"], mystery=1)),
    ]
    for bad in cases:
        tampered.write_text(json.dumps(bad))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tampered))


# --- rollout -------------------------------------------------------------

def test_run_episode_to_timeout_and_return_sum():
    env = QuadrupedEnv(make_terrain("flat", 0), t_max=15)
    stance = RobotConfig().nominal_stance
    result = run_episode(env, lambda obs: stance, reset_seed=0)
    assert result.steps == 15
    assert result.done_reason == "timeout"
    assert not result.diverged
    assert len(result.transitions) == 15
    assert result.episode_return == pytest.approx(
        sum(t.reward for t in result.transitions), abs=1e-12)
    assert result.transitions[-1].done
    assert all(not t.done for t in result.transitions[:-1])


def test_run_episode_collect_flag():
    env = QuadrupedEnv(make_terrain("flat", 0), t_max=5)
    stance = RobotConfig().nominal_stance
    result = run_episode(env, lambda obs: stance, reset_seed=0, collect=False)
    assert result.transitions == []
    assert result.steps == 5


def test_run_episode_transitions_chain():
    env = QuadrupedEnv(make_terrain("flat", 0), t_max=8)
    stance = RobotConfig().nominal_stance
    result = run_episode(env, lambda obs: stance, reset_seed=0)
    for prev, cur in zip(result.transitions, result.transitions[1:]):
        assert np.array_equal(prev.next_observation, cur.observation)


# --- train ---------------------------------------------------------------

TINY_GRADIENT = """
t_max = 20
episodes = 3
warmup_steps = 10
rl.batch_size = 8
"""

TINY_CEM = """
t_max = 20
generations = 2
cem.population_size = 4
cem.elite_count = 2
"""


def read_lines(path):
    with open(path, encoding="ascii") as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("algo", ["ddpg", "td3"])
def test_train_gradient_artifacts(tmp_path, algo):
    cfg = parse_config(TINY_GRADIENT, algorithm=algo, out_dir=str(tmp_path))
    ck, metrics_path = train(cfg)
    lines = read_lines(metrics_path)
    assert lines[0] == GRADIENT_HEADER
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[3] == "0"  # wall_ms suppressed by default
    assert ck.algorithm == algo
    assert ck.progress["episodes"] == 3
    # Episodes may end early (falls during random warmup), never late.
    assert 3 <= ck.progress["env_steps"] <= 60
    assert not ck.progress["diverged"]
    returns = [float(l.split(",")[1]) for l in lines[1:]]
    bests = [float(l.split(",")[2]) for l in lines[1:]]
    assert ck.progress["best_return"] == max(returns)
    for i, b in enumerate(bests):
        assert b == max(returns[: i + 1])
    final = load_checkpoint(os.path.join(str(tmp_path), "checkpoint.json"))
    best = load_checkpoint(os.path.join(str(tmp_path), "checkpoint_best.json"))
    assert np.array_equal(final.params["actor"], ck.params["actor"])
    assert best.specs["actor"] == final.specs["actor"]
    if algo == "td3":
        assert "critic_1" in final.specs and "critic_2" in final.specs
    else:
        assert "critic" in final.specs


def test_train_cem_artifacts(tmp_path):
    cfg = parse_config(TINY_CEM, algorithm="cem_td3", out_dir=str(tmp_path))
    ck, metrics_path = train(cfg)
    lines = read_lines(metrics_path)
    assert lines[0] == CEM_HEADER
    assert len(lines) == 1 + 2
    assert ck.progress["generations"] == 2
    assert 8 <= ck.progress["env_steps"] <= 2 * 4 * 20
    cells = lines[1].split(",")
    assert len(cells) == len(CEM_HEADER.split(","))
    # Generation best is the return column; it can never beat best-so-far.
    assert float(cells[1]) <= float(cells[2])
    best = load_checkpoint(os.path.join(str(tmp_path), "checkpoint_best.json"))
    assert ck.progress["best_return"] == max(
        float(l.split(",")[1]) for l in lines[1:])
    # Final actor is the distribution mean, best is one individual.
    assert not np.array_equal(best.params["actor"], ck.params["actor"])


@pytest.mark.parametrize("algo", ["ddpg", "td3", "cem_ddpg", "cem_td3"])
def test_train_records_learner_divergence(tmp_path, monkeypatch, algo):
    def diverge(learner, buffer, seed):
        raise TrainingDiverged("forced")

    # The package re-exports the function `train` under the module's name.
    monkeypatch.setattr(importlib.import_module("quadrl.train"), "train_step",
                        diverge)
    monkeypatch.setattr(importlib.import_module("quadrl.cem"), "train_step",
                        diverge)
    # A batch of 8 lets the second CEM generation coach, so train_step runs.
    tiny = (TINY_GRADIENT if algo in ("ddpg", "td3")
            else TINY_CEM + "rl.batch_size = 8\n")
    cfg = parse_config(tiny, algorithm=algo, out_dir=str(tmp_path))
    with pytest.raises(TrainingDiverged):
        train(cfg)
    for name in ("checkpoint.json", "checkpoint_best.json"):
        assert load_checkpoint(str(tmp_path / name)).progress["diverged"] is True


def test_train_deterministic_bytes(tmp_path):
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        cfg = parse_config(TINY_GRADIENT, algorithm="ddpg", master_seed=5,
                           out_dir=str(d))
        train(cfg)
        outputs.append({name: open(d / name, "rb").read()
                        for name in ("metrics.csv", "checkpoint.json",
                                     "checkpoint_best.json")})
    assert outputs[0] == outputs[1]


def test_train_seed_changes_results(tmp_path):
    metrics = []
    for seed in (0, 1):
        d = tmp_path / str(seed)
        cfg = parse_config(TINY_GRADIENT, algorithm="ddpg", master_seed=seed,
                           out_dir=str(d))
        train(cfg)
        metrics.append(open(d / "metrics.csv").read())
    assert metrics[0] != metrics[1]


def test_train_env_step_cap(tmp_path):
    cfg = parse_config(TINY_GRADIENT + "max_env_steps = 25\nepisodes = 50\n",
                       algorithm="ddpg", out_dir=str(tmp_path))
    ck, metrics_path = train(cfg)
    # The cap is checked at episode boundaries: training stops at the end
    # of the first episode that pushes the total to 25 or beyond.
    assert 25 <= ck.progress["env_steps"] < 25 + 20
    assert ck.progress["episodes"] < 50
    assert len(read_lines(metrics_path)) == 1 + ck.progress["episodes"]


def test_train_wall_time_flag(tmp_path):
    cfg = parse_config(TINY_GRADIENT + "record_wall_time = true\n",
                       algorithm="ddpg", out_dir=str(tmp_path))
    _, metrics_path = train(cfg)
    walls = [float(l.split(",")[3]) for l in read_lines(metrics_path)[1:]]
    assert all(w > 0.0 for w in walls)


# --- evaluate ------------------------------------------------------------

def test_summarize_hand_values():
    mean, std, median, best = summarize([1, 2, 3, 4])
    assert mean == 2.5
    assert std == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-15)
    assert median == 2.5
    assert best == 4.0
    assert summarize([7.0]) == (7.0, 0.0, 7.0, 7.0)
    mean, std, median, best = summarize([3.0, 1.0, 2.0])
    assert (mean, median, best) == (2.0, 2.0, 3.0)
    assert std == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        summarize([])


def test_eval_report_from_returns():
    report = EvalReport.from_returns("flat", [1.0, 2.0, 3.0, 4.0])
    assert report.terrain == "flat"
    assert report.trial_returns == (1.0, 2.0, 3.0, 4.0)
    assert report.mean == 2.5
    assert report.best == 4.0


def eval_checkpoint():
    return sample_checkpoint(seed=3)


def test_evaluate_runs_requested_trials():
    report = evaluate(eval_checkpoint(), "flat", trials=3, eval_seed=0)
    assert len(report.trial_returns) == 3
    # Flat evaluation is deterministic, so all trials agree exactly.
    assert report.std == 0.0
    assert report.trial_returns[0] == report.trial_returns[1]


def test_evaluate_rough_regenerates_terrain_per_trial():
    report = evaluate(eval_checkpoint(), "rough", trials=4, eval_seed=0)
    assert len(set(report.trial_returns)) > 1


def test_evaluate_rough_seed_shifts_results():
    a = evaluate(eval_checkpoint(), "rough", trials=2, eval_seed=0)
    b = evaluate(eval_checkpoint(), "rough", trials=2, eval_seed=100)
    c = evaluate(eval_checkpoint(), "rough", trials=2, eval_seed=0)
    assert a.trial_returns == c.trial_returns
    assert a.trial_returns != b.trial_returns


def test_evaluate_fixed_terrain_pins_every_trial():
    fixed = make_terrain("rough", seed=77)
    report = evaluate(eval_checkpoint(), "rough", trials=3, eval_seed=0,
                      fixed_terrain=fixed)
    assert report.std == 0.0


def test_evaluate_validates_inputs():
    with pytest.raises(ValueError):
        evaluate(eval_checkpoint(), "hilly")
    with pytest.raises(ValueError):
        evaluate(eval_checkpoint(), "flat", trials=0)


def test_transfer_experiment_degradation():
    flat, rough, degradation = transfer_experiment(eval_checkpoint(), trials=2)
    assert degradation == pytest.approx(flat.mean - rough.mean, abs=1e-12)
    assert flat.terrain == "flat"
    assert rough.terrain == "rough"


def test_report_csv_layout_and_round_trip():
    flat = EvalReport.from_returns("flat", [1.5, 2.5])
    rough = EvalReport.from_returns("rough", [0.25, -1.75])
    text = report_csv([flat, rough])
    lines = text.splitlines()
    assert lines[0] == "terrain,mean,std,median,best,trial_1,trial_2"
    cells = lines[2].split(",")
    assert cells[0] == "rough"
    assert float(cells[1]) == rough.mean
    assert float(cells[5]) == 0.25
    assert float(cells[6]) == -1.75
    with pytest.raises(ValueError):
        report_csv([flat, EvalReport.from_returns("rough", [1.0])])


def test_transfer_table_columns():
    flat = EvalReport.from_returns("flat", [10.0, 20.0])
    rough = EvalReport.from_returns("rough", [1.0, 2.0])
    table = transfer_table(flat, rough, 13.5)
    for column in TABLE_COLUMNS:
        assert column in table
    assert "13.50" in table
    assert table.splitlines()[1].startswith("flat")
    assert table.splitlines()[2].startswith("rough")


# --- svgplot -------------------------------------------------------------

def test_read_metrics_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("step_or_generation,return,best_return,wall_ms\n"
                    "1,5.0,5.0,0\n2,-3.5,5.0,0\n")
    xs, ys, bests = read_metrics(str(path))
    assert xs == [1.0, 2.0]
    assert ys == [5.0, -3.5]
    assert bests == [5.0, 5.0]


def test_read_metrics_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_metrics(str(path))
    path.write_text("step_or_generation,return,best_return\n")
    with pytest.raises(ValueError):
        read_metrics(str(path))


def test_render_curve_is_svg():
    svg = render_curve([1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [0.0, 1.0, 4.0])
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2


def test_render_curve_handles_constant_series():
    svg = render_curve([1.0, 2.0], [3.0, 3.0], [3.0, 3.0])
    assert "NaN" not in svg and "nan" not in svg


def test_plot_metrics_writes_svg(tmp_path):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("step_or_generation,return,best_return,wall_ms\n"
                       "1,1.0,1.0,0\n2,2.0,2.0,0\n")
    out = tmp_path / "curve.svg"
    plot_metrics(str(metrics), str(out))
    content = out.read_text()
    assert content.startswith("<svg ")
    assert "polyline" in content
