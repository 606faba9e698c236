import base64
import dataclasses
import importlib.util
import json
import math
import os
import re
import sys

import numpy as np
import pytest

import quadrl.env
import quadrl.train
from quadrl import net
from quadrl.checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                               save_checkpoint)
from quadrl.config import (CemHyperparams, ConfigError, RunConfig,
                           config_from_dict, config_to_dict, load_config,
                           parse_config)
from quadrl.env import OBS_SIZE, QuadrupedEnv, RobotConfig, SimulationDiverged
from quadrl.evaluate import (EvalReport, evaluate, report_csv, summarize,
                             transfer_experiment, transfer_table, TABLE_COLUMNS)
from quadrl.replay import ReplayBuffer
from quadrl.rl import RlHyperparams, TrainingDiverged, actor_spec
from quadrl.rollout import episode_steps, run_episode
from quadrl.seeds import SeedStream
from quadrl.svgplot import plot_metrics, read_metrics, render_curve
from quadrl.terrain import make_terrain
from quadrl.train import CEM_HEADER, GRADIENT_HEADER, train
from test_hygiene import PERFBENCH, SETTINGS_RECORDS


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
    with pytest.raises(ConfigError,
                       match=r"^rl\.gamma: expected a number, got 'fast'$"):
        parse_config("rl.gamma = fast")
    with pytest.raises(ConfigError,
                       match=r"^episodes: expected an integer, got '3\.5'$"):
        parse_config("episodes = 3.5")
    # Retired settings are unknown keys, as any removed setting is.
    for key in ("record_wall_time", "rl.action_bound"):
        with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
            parse_config(f"{key} = 0")
    with pytest.raises(ConfigError):
        parse_config("just a line")
    with pytest.raises(ConfigError, match="^algorithm 'sarsa' is not one of ddpg, "
                                          "td3, cem_ddpg, cem_td3$"):
        parse_config("algorithm = sarsa")
    with pytest.raises(ConfigError):
        parse_config("t_max = 0")
    with pytest.raises(ConfigError):
        parse_config("cem.elite_count = 99")


def test_parse_refuses_a_key_set_twice():
    # The message names the key and both lines, never a value.
    text = "t_max = 100\n# a comment\nepisodes = 3\nt_max = 250\n"
    with pytest.raises(ConfigError,
                       match=r"^line 4: 't_max' is already set on line 1$"):
        parse_config(text)
    with pytest.raises(ConfigError, match=r"^line 2: 'rl\.gamma' is already set "
                                          r"on line 1$"):
        parse_config("rl.gamma = 0.9\n  rl.gamma   =   0.9  # the same value")
    # A keyword override (a CLI flag) still wins over the file's one line.
    assert parse_config("t_max = 100", t_max=250).t_max == 250


def test_parse_overrides_win_and_none_is_skipped():
    cfg = parse_config("master_seed = 1\nepisodes = 5",
                       master_seed=42, out_dir=None)
    assert cfg.master_seed == 42
    assert cfg.episodes == 5
    assert cfg.out_dir == "run_output"


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


def test_every_config_path_accepts_a_dashed_algorithm():
    # Text, keyword overrides and dicts all go through config_from_dict.
    assert config_from_dict({"algorithm": "cem-ddpg"}).algorithm == "cem_ddpg"
    assert parse_config("", algorithm="cem-td3").algorithm == "cem_td3"
    with pytest.raises(ConfigError):
        config_from_dict({"algorithm": 3})


def test_cem_hyperparams_validation():
    with pytest.raises(ConfigError):
        CemHyperparams(population_size=1)
    with pytest.raises(ConfigError):
        CemHyperparams(population_size=1, elite_count=1)
    with pytest.raises(ConfigError):
        CemHyperparams(population_size=4, elite_count=5)
    with pytest.raises(ConfigError):
        CemHyperparams(elite_count=0)
    with pytest.raises(ConfigError):
        CemHyperparams(population_size=4, elite_count=2, noise_decay=0.0)
    with pytest.raises(ConfigError):
        CemHyperparams(grad_steps_cap=-1)


@pytest.mark.parametrize("name, value", [
    ("init_variance", math.inf), ("noise_floor", math.nan),
    ("noise_floor_final", math.inf), ("noise_decay", math.nan)])
def test_cem_hyperparams_reject_non_finite_values(name, value):
    # Built in Python: the record's own check, which config_from_dict
    # raises under the dotted key.
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        CemHyperparams(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("terrain_extent", math.inf), ("terrain_amplitude", math.nan),
    ("terrain_amplitude", math.inf), ("terrain_cell_size", math.nan)])
def test_run_config_rejects_non_finite_values(name, value):
    # Built in Python: the record's own check, which config_from_dict
    # raises under the dotted key.
    with pytest.raises(ConfigError, match=f"{name} must be .*finite"):
        RunConfig(**{name: value})


@pytest.mark.parametrize("line", ["cem.noise_decay = 0", "cem.noise_decay = 1.5",
                                  "cem.noise_floor_final = -1"])
def test_parse_rejects_bad_cem_noise_schedule(line):
    # Caught at parse time, not when training builds the CEM state.
    with pytest.raises(ConfigError):
        parse_config(line)


@pytest.mark.parametrize("line", ["terrain_amplitude = -0.03",
                                  "terrain_cell_size = 0", "terrain_extent = -1"])
def test_parse_rejects_bad_terrain(line):
    # A checkpoint trained with these could never be evaluated on rough terrain.
    with pytest.raises(ConfigError):
        parse_config(line)


@pytest.mark.parametrize("line", ["rl.exploration_sigma = -0.1",
                                  "rl.actor_lr = -1", "rl.critic_lr = -1e-3"])
def test_parse_rejects_negative_learner_steps(line):
    # Caught at parse time, not when the first update or noisy action runs.
    with pytest.raises(ConfigError):
        parse_config(line)


@pytest.mark.parametrize("line", ["robot.mass = inf", "robot.stance_hip = nan",
                                  "rl.tau = -inf", "terrain_amplitude = NaN"])
def test_config_file_rejects_non_finite_numbers(line, tmp_path):
    # float() reads these; without the check robot.mass = inf is accepted
    # and a nan stance surfaces only as a diverged observation at reset.
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="finite"):
        load_config(str(path))


def test_config_values_must_have_their_field_type():
    # An int in a float field is kept as it is, so snapshots keep their bytes.
    mass = config_from_dict({"robot.mass": 5}).robot.mass
    assert type(mass) is int and mass == 5
    for key, value in (("robot.mass", True), ("rl.batch_size", 128.0),
                       ("out_dir", 3), ("algorithm", None), ("cem.elite_count", [4])):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({key: value})
    # No field takes a bool, whatever type it is due.
    for key, due in (("master_seed", "int"), ("rl.gamma", "float"),
                     ("algorithm", "str")):
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(key)}: expected {due}, got bool$"):
            config_from_dict({key: True})


@pytest.mark.parametrize("record, error, name, value", [
    (RobotConfig, ValueError, "substeps", 2.5),
    (RobotConfig, ValueError, "mass", True),
    (RunConfig, ConfigError, "episodes", 1.5),
    (RunConfig, ConfigError, "t_max", "250"),
    (RunConfig, ConfigError, "robot", None),
    (RlHyperparams, ValueError, "batch_size", 128.0),
    (RlHyperparams, ValueError, "policy_delay", True),
    (CemHyperparams, ConfigError, "population_size", 8.0)])
def test_settings_records_check_their_field_types(record, error, name, value):
    # Built in Python, not through config_from_dict, which names the dotted key.
    with pytest.raises(error, match=f"^{name}: expected"):
        record(**{name: value})
    mass = RobotConfig(mass=5).mass
    assert type(mass) is int and mass == 5


@pytest.mark.parametrize("key, value", [("rl.gamma", 1.5), ("robot.mass", -1),
                                        ("rl.actor_lr", -1), ("cem.init_variance", -1)])
def test_config_range_errors_name_their_dotted_key(key, value):
    # The record's message starts with its field name; the parser adds the section.
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} "):
        parse_config(f"{key} = {value}")


@pytest.mark.parametrize("seed", [2**64, 10**5000], ids=["2_64", "10_5000"])
def test_master_seed_of_2_64_or_more_is_rejected(seed, tmp_path):
    # Before training, where the checkpoint's config snapshot could not
    # write a seed of more than 4300 digits after the whole budget ran.
    with pytest.raises(ConfigError, match=r"^master_seed must be below 2\*\*64$"):
        RunConfig(master_seed=seed)
    with pytest.raises(ConfigError, match=r"^master_seed must be below 2\*\*64$"):
        parse_config("t_max = 5\nepisodes = 2", algorithm="ddpg", master_seed=seed,
                     out_dir=str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("settings, name", [
    ({"terrain_amplitude": 1e300}, "terrain_amplitude"),
    ({"terrain_cell_size": 1e-30}, "terrain_cell_size"),
    ({"terrain_extent": 1e20, "terrain_cell_size": 1e18}, "terrain_extent"),
    ({"terrain_cell_size": 1e-4}, "terrain_cell_size"),
], ids=["amplitude_1e300", "cell_size_1e-30", "extent_1e20", "grid_over_cap"])
def test_terrain_settings_the_ground_refuses_are_refused_at_parse(settings, name,
                                                                  tmp_path):
    # Once accepted: train made its output directory, or trained its whole
    # budget on flat ground, before the terrain refused them. The grid cap is
    # a plain check: nothing is drawn or allocated.
    with pytest.raises(ConfigError, match=f"^{name} must "):
        parse_config("t_max = 5\nepisodes = 2", algorithm="ddpg",
                     out_dir=str(tmp_path / "run"), **settings)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("record, settings, message", [
    (RunConfig, {"terrain_amplitude": 1e300},
     "terrain_amplitude must lie in [0, 2**64)"),
    (RunConfig, {"terrain_cell_size": 1e-30},
     "terrain_cell_size must lie in [2**-64, 2**64)"),
    (RunConfig, {"terrain_extent": 1e20}, "terrain_extent must lie in (0, 2**64)"),
    (RlHyperparams, {"gamma": 1.0}, "gamma must lie in [0, 1)"),
], ids=["amplitude", "cell_size", "extent", "gamma"])
def test_range_messages_write_2_64_as_the_terrain_does(record, settings, message):
    # Not 18446744073709551616 and 5.421010862427522e-20; other edges as written.
    with pytest.raises(ValueError) as error:
        record(**settings)
    assert str(error.value) == message


def test_keyword_overrides_reject_non_finite_numbers():
    with pytest.raises(ConfigError, match="finite"):
        parse_config("", terrain_extent=math.inf)
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict({"robot.stance_knee": math.nan})


def _number_fields():
    return [(record, f) for record in SETTINGS_RECORDS
            for f in dataclasses.fields(record) if type(f.default) in (int, float)]


def test_no_two_settings_records_declare_one_name():
    # One record owns each setting, so no two copies can drift apart.
    owners = {}
    for record in SETTINGS_RECORDS:
        for f in dataclasses.fields(record):
            owners.setdefault(f.name, []).append(record.__name__)
    assert {name: who for name, who in owners.items() if len(who) > 1} == {}


def _past(edge, kind, direction):
    """The nearest value of the field's kind beyond `edge` in `direction`."""
    if kind is int:
        return edge + direction
    return math.nextafter(float(edge), direction * math.inf)


def test_every_declared_range_holds_at_its_edges():
    # elite_count = 1 keeps the rule elite_count <= population_size true at
    # population_size's lower edge. A tiny terrain_extent and a wide
    # terrain_cell_size keep the generated grid under its cap at every edge
    # of either.
    base = {CemHyperparams: {"elite_count": 1},
            RunConfig: {"terrain_extent": 2.0**-64, "terrain_cell_size": 2.0**53}}
    unbounded = [f"{record.__name__}.{f.name}" for record, f in _number_fields()
                 if "range" not in f.metadata]
    assert unbounded == ["RobotConfig.stance_hip", "RobotConfig.stance_knee"]
    for record, f in _number_fields():
        if "range" not in f.metadata:
            continue
        kind = type(f.default)
        low, high, open_low, open_high = f.metadata["range"]
        edges = [(low, open_low, -1)]
        if high is not None:
            edges.append((high, open_high, 1))
        for edge, is_open, direction in edges:
            edge = kind(edge)
            inside, outside = ((_past(edge, kind, -direction), edge) if is_open
                               else (edge, _past(edge, kind, direction)))
            record(**{**base.get(record, {}), f.name: inside})
            with pytest.raises(ConfigError, match=f"^{f.name} must "):
                record(**{**base.get(record, {}), f.name: outside})


def test_every_number_setting_refuses_an_int_of_2_64_or_more():
    # The message leaves out the value: an int of more than 4300 digits
    # has no str. A float field takes an int, so it is capped too.
    for record, f in _number_fields():
        for value in (2**64, 10**5000, -10**5000):
            with pytest.raises(ConfigError, match=f"^{f.name} must "):
                record(**{f.name: value})


def test_an_episode_count_of_2_64_or_more_is_refused_before_training(tmp_path):
    # Once accepted: train ran its whole budget and then failed writing the
    # count into the config snapshot, leaving a truncated checkpoint.
    with pytest.raises(ConfigError, match=r"^episodes must be below 2\*\*64$"):
        parse_config("t_max = 5\nwarmup_steps = 5\nmax_env_steps = 20",
                     algorithm="ddpg", episodes=10**5000,
                     out_dir=str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


# --- checkpoint ----------------------------------------------------------

def sample_checkpoint(seed=0):
    spec = actor_spec(OBS_SIZE, 8, 0.7, hidden=(8, 8))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=spec.param_count)
    values[0] = 1e-300  # denormal-adjacent values must survive the trip
    values[1] = -1e300
    return Checkpoint(net.ParamVector(values, spec),
                      parse_config("algorithm = td3\nt_max = 30"), {"episodes": 3})


def test_checkpoint_round_trip_is_exact(tmp_path):
    ck = sample_checkpoint()
    path = str(tmp_path / "ck.json")
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.config.algorithm == "td3"
    assert loaded.actor.spec == ck.actor.spec
    assert np.array_equal(loaded.actor.values, ck.actor.values)
    assert loaded.progress == {"episodes": 3}
    assert loaded.config.t_max == 30
    obs = np.zeros(OBS_SIZE)
    assert np.array_equal(net.forward(loaded.actor, obs), net.forward(ck.actor, obs))


def test_largest_master_seed_survives_the_config_snapshot(tmp_path):
    ck = sample_checkpoint()
    ck = Checkpoint(ck.actor, parse_config("", master_seed=2**64 - 1), {})
    path = str(tmp_path / "ck.json")
    save_checkpoint(ck, path)
    seed = load_checkpoint(path).config.master_seed
    assert type(seed) is int and seed == 2**64 - 1


def test_checkpoint_save_is_byte_stable(tmp_path):
    ck = sample_checkpoint()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(ck, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_requires_actor(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(sample_checkpoint(), str(path))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, specs={"critic": doc["specs"]["actor"]},
                                    params={"critic": doc["params"]["actor"]})))
    with pytest.raises(CheckpointError,
                       match="^checkpoint requires an actor network$"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_length_mismatch(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(sample_checkpoint(), str(path))
    doc = json.loads(path.read_text())
    # One float short of what the actor's spec needs.
    raw = base64.b64decode(doc["params"]["actor"])
    doc["params"]["actor"] = base64.b64encode(raw[:-8]).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_load_rejects_non_finite_config_snapshot(tmp_path):
    # json reads NaN and Infinity; the snapshot goes through config_from_dict.
    path = tmp_path / "ck.json"
    save_checkpoint(sample_checkpoint(), str(path))
    doc = json.loads(path.read_text())
    for value in (math.nan, math.inf):
        path.write_text(json.dumps(dict(doc, config=dict(doc["config"],
                                                         **{"robot.mass": value}))))
        with pytest.raises(CheckpointError, match="finite"):
            load_checkpoint(str(path))


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


def _with_actor_cell(doc, layer, column, value):
    rows = [list(row) for row in doc["specs"]["actor"]]
    rows[layer][column] = value
    return dict(doc, specs=dict(doc["specs"], actor=rows))


def test_load_rejects_tampered_fields(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(sample_checkpoint(), str(path))
    doc = json.loads(path.read_text())
    tampered = tmp_path / "tampered.json"
    values = np.frombuffer(base64.b64decode(doc["params"]["actor"]), "<f8").copy()
    values[5] = np.nan
    nan_actor = base64.b64encode(values.tobytes()).decode("ascii")

    cases = [
        dict(doc, format_version=99),
        dict(doc, params=dict(doc["params"], actor="!!!not-base64!!!")),
        dict(doc, params=dict(doc["params"], actor="AAAA")),  # 3 bytes
        dict(doc, config=dict(doc["config"], mystery=1)),
        dict(doc, algorithm="ddpg"),  # the config says td3
        dict(doc, specs=dict(doc["specs"], critic=doc["specs"]["actor"])),
        dict(doc, params=dict(doc["params"], critic=doc["params"]["actor"])),
        dict(doc, params=dict(doc["params"], actor=nan_actor)),
        # A spec row that is an object, once a bare KeyError.
        dict(doc, specs=dict(doc["specs"],
                             actor=[{"x": 1}, *doc["specs"]["actor"][1:]])),
        # Each once loaded: True == 1.0 == 1, int(8.9) == 8 and
        # float("0.7") == 0.7, and an infinite bound passed bound > 0.
        dict(doc, format_version=True),
        dict(doc, format_version=1.0),
        _with_actor_cell(doc, 0, 1, 8.9),
        _with_actor_cell(doc, 2, 3, "0.7"),
        _with_actor_cell(doc, 2, 3, math.inf),
    ]
    for bad in cases:
        tampered.write_text(json.dumps(bad))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tampered))


def test_a_snapshot_with_retired_settings_loads_as_before(tmp_path):
    # Checkpoints saved before record_wall_time and rl.action_bound were
    # retired hold both keys in their config snapshot.
    path = tmp_path / "ck.json"
    ck = sample_checkpoint()
    save_checkpoint(ck, str(path))
    doc = json.loads(path.read_text())
    doc["config"].update({"record_wall_time": False, "rl.action_bound": 0.7})
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(str(path))
    assert loaded.config == ck.config
    assert loaded.actor.spec == ck.actor.spec
    assert np.array_equal(loaded.actor.values, ck.actor.values)


def test_the_benchmark_transfer_checkpoint_loads(monkeypatch):
    # The transfer workload checks this file's sha256 and loads it; its
    # snapshot holds both retired keys.
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module runs.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    transfer = workloads.TransferWorkload()
    transfer.prepare()
    doc = json.loads(workloads.TRANSFER_CHECKPOINT.read_text())
    assert {"record_wall_time", "rl.action_bound"} <= set(doc["config"])
    # It holds its run's critics too; the load ignores them.
    assert set(doc["specs"]) == {"actor", "critic_1", "critic_2"}
    assert transfer.checkpoint.actor.spec.layers[-1].bound == 0.7


@pytest.mark.parametrize("field", ["specs", "params", "config", "progress"])
def test_load_rejects_fields_that_are_not_objects(tmp_path, field):
    # Not a TypeError or AttributeError, which the CLI would print as a
    # traceback, and not a silent load of a list as progress.
    path = tmp_path / "ck.json"
    save_checkpoint(sample_checkpoint(), str(path))
    doc = json.loads(path.read_text())
    for value in (5, [], "text", None):
        path.write_text(json.dumps(dict(doc, **{field: value})))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(str(path))


# --- rollout -------------------------------------------------------------

def stored_rows(buffer):
    """Every stored transition, in insertion order (the buffer never wrapped)."""
    return buffer._rows(np.arange(len(buffer)))


def test_run_episode_to_timeout_and_return_sum():
    env = QuadrupedEnv(make_terrain("flat", 0), t_max=15)
    stance = RobotConfig().nominal_stance
    buffer = ReplayBuffer(100, OBS_SIZE, 8)
    result = run_episode(env, lambda obs: stance, reset_seed=0, buffer=buffer)
    assert result.steps == 15
    assert result.done_reason == "timeout"
    assert len(buffer) == 15
    batch = stored_rows(buffer)
    assert result.episode_return == pytest.approx(batch.rewards.sum(), abs=1e-12)
    assert batch.dones[-1]
    assert not batch.dones[:-1].any()


def test_run_episode_without_buffer():
    env = QuadrupedEnv(make_terrain("flat", 0), t_max=5)
    stance = RobotConfig().nominal_stance
    result = run_episode(env, lambda obs: stance, reset_seed=0)
    assert result.steps == 5


def test_run_episode_transitions_chain():
    env = QuadrupedEnv(make_terrain("flat", 0), t_max=8)
    stance = RobotConfig().nominal_stance
    buffer = ReplayBuffer(100, OBS_SIZE, 8)
    run_episode(env, lambda obs: stance, reset_seed=0, buffer=buffer)
    batch = stored_rows(buffer)
    assert len(batch) == 8
    assert np.array_equal(batch.next_observations[:-1], batch.observations[1:])



class DivergesOnThirdStep:
    """A flat-terrain env whose third step raises SimulationDiverged."""

    def __init__(self):
        self.env = QuadrupedEnv(make_terrain("flat", 0), t_max=15)
        self.steps = 0

    def reset(self, seed):
        self.steps = 0
        return self.env.reset(seed)

    def step(self, action):
        self.steps += 1
        if self.steps == 3:
            raise SimulationDiverged("forced")
        return self.env.step(action)


def test_episode_steps_and_run_episode_raise_divergence():
    stance = RobotConfig().nominal_stance
    seen = []
    with pytest.raises(SimulationDiverged):
        # The record is updated in place, so each yield is read as it comes.
        for episode in episode_steps(DivergesOnThirdStep(), lambda obs: stance, 0):
            seen.append((episode.steps, episode.episode_return))
    assert len(seen) == 2
    # The two steps completed before the divergence stay in the buffer.
    buffer = ReplayBuffer(100, OBS_SIZE, 8)
    with pytest.raises(SimulationDiverged):
        run_episode(DivergesOnThirdStep(), lambda obs: stance, 0, buffer)
    assert len(buffer) == 2
    rewards = stored_rows(buffer).rewards
    assert seen == [(1, 0.0 + rewards[0]), (2, 0.0 + rewards[0] + rewards[1])]

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
    assert ck.config.algorithm == algo
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
    assert np.array_equal(final.actor.values, ck.actor.values)
    assert best.actor.spec == final.actor.spec


@pytest.mark.parametrize("algo", ["ddpg", "td3", "cem_ddpg", "cem_td3"])
def test_training_writes_only_the_actor(tmp_path, algo):
    # The learner's critics are not saved: no reader reads them.
    tiny = TINY_GRADIENT if algo in ("ddpg", "td3") else TINY_CEM
    train(parse_config(tiny, algorithm=algo, out_dir=str(tmp_path)))
    for name in ("checkpoint.json", "checkpoint_best.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert set(doc["specs"]) == set(doc["params"]) == {"actor"}


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
    assert not np.array_equal(best.actor.values, ck.actor.values)


@pytest.mark.parametrize("algo", ["ddpg", "td3", "cem_ddpg", "cem_td3"])
def test_train_records_learner_divergence(tmp_path, monkeypatch, algo):
    def diverge(learner, buffer, seed):
        raise TrainingDiverged("forced")

    monkeypatch.setattr("quadrl.train.train_step", diverge)
    monkeypatch.setattr("quadrl.cem.train_step", diverge)
    # A batch of 8 lets the second CEM generation coach, so train_step runs.
    tiny = (TINY_GRADIENT if algo in ("ddpg", "td3")
            else TINY_CEM + "rl.batch_size = 8\n")
    cfg = parse_config(tiny, algorithm=algo, out_dir=str(tmp_path))
    with pytest.raises(TrainingDiverged):
        train(cfg)
    for name in ("checkpoint.json", "checkpoint_best.json"):
        assert load_checkpoint(str(tmp_path / name)).progress["diverged"] is True


def test_train_records_non_finite_critic_gradient(tmp_path, monkeypatch):
    # Adam refuses the gradient with TrainingDiverged, which the training
    # loop records like any other learner divergence.
    monkeypatch.setattr("quadrl.rl._critic_gradient",
                        lambda critic, x, targets: np.full(critic.values.size,
                                                           np.inf))
    cfg = parse_config(TINY_GRADIENT, algorithm="td3", out_dir=str(tmp_path))
    with pytest.raises(TrainingDiverged):
        train(cfg)
    for name in ("checkpoint.json", "checkpoint_best.json"):
        assert load_checkpoint(str(tmp_path / name)).progress["diverged"] is True


def raise_on_call(fn, n, error):
    """fn, except that its n-th call raises error instead."""
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            raise error("forced")
        return fn(*args, **kwargs)
    return wrapped


def test_train_divergence_mid_episode_counts_its_steps(tmp_path, monkeypatch):
    # Updates start after step 10, so call 25 comes on step 35, in the
    # second 20-step episode: its steps count, its return and row do not.
    monkeypatch.setattr("quadrl.train.train_step",
                        raise_on_call(quadrl.train.train_step, 25,
                                      TrainingDiverged))
    cfg = parse_config(TINY_GRADIENT, algorithm="td3", out_dir=str(tmp_path))
    with pytest.raises(TrainingDiverged):
        train(cfg)
    for name in ("checkpoint.json", "checkpoint_best.json"):
        progress = load_checkpoint(str(tmp_path / name)).progress
        assert (progress["episodes"], progress["env_steps"],
                progress["diverged"]) == (1, 35, True)
    lines = read_lines(tmp_path / "metrics.csv")
    assert len(lines) == 1 + 1
    assert float(lines[1].split(",")[1]) == progress["best_return"]


def count_pushes(monkeypatch):
    """A list that gains one entry per ReplayBuffer.push, which still runs."""
    pushes = []
    push = ReplayBuffer.push

    def counted(self, *args):
        pushes.append(None)
        return push(self, *args)

    monkeypatch.setattr(ReplayBuffer, "push", counted)
    return pushes


def tiny_config(algo, tmp_path):
    tiny = TINY_GRADIENT if algo in ("ddpg", "td3") else TINY_CEM
    return parse_config(tiny, algorithm=algo, out_dir=str(tmp_path))


@pytest.mark.parametrize("algo", ["ddpg", "td3", "cem_ddpg", "cem_td3"])
def test_train_counts_each_pushed_step(tmp_path, monkeypatch, algo):
    pushes = count_pushes(monkeypatch)
    ck, _ = train(tiny_config(algo, tmp_path))
    assert ck.progress["env_steps"] == len(pushes) > 0


@pytest.mark.parametrize("algo, call", [
    ("ddpg", 30), ("td3", 30), ("cem_ddpg", 90), ("cem_td3", 90)])
def test_train_records_simulation_divergence(tmp_path, monkeypatch, algo, call):
    # The call lands in the second unit: after a 20-step first episode, or
    # after a first generation of four 20-step rollouts. The steps before
    # it count, for every algorithm: each was simulated and pushed.
    pushes = count_pushes(monkeypatch)
    monkeypatch.setattr("quadrl.env.step",
                        raise_on_call(quadrl.env.step, call, SimulationDiverged))
    with pytest.raises(SimulationDiverged):
        train(tiny_config(algo, tmp_path))
    unit = "episodes" if algo in ("ddpg", "td3") else "generations"
    assert len(pushes) == call - 1
    for name in ("checkpoint.json", "checkpoint_best.json"):
        progress = load_checkpoint(str(tmp_path / name)).progress
        assert (progress[unit], progress["env_steps"],
                progress["diverged"]) == (1, call - 1, True)
    lines = read_lines(tmp_path / "metrics.csv")
    assert len(lines) == 1 + 1
    assert float(lines[1].split(",")[1]) == progress["best_return"]


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
    cfg = parse_config(TINY_GRADIENT + "max_env_steps = 25\n", episodes=50,
                       algorithm="ddpg", out_dir=str(tmp_path))
    ck, metrics_path = train(cfg)
    # The cap is checked at episode boundaries: training stops at the end
    # of the first episode that pushes the total to 25 or beyond.
    assert 25 <= ck.progress["env_steps"] < 25 + 20
    assert ck.progress["episodes"] < 50
    assert len(read_lines(metrics_path)) == 1 + ck.progress["episodes"]


# --- evaluate ------------------------------------------------------------

def test_summarize_hand_values():
    mean, std, median, best = summarize([1, 2, 3, 4])
    assert mean == 2.5
    assert std == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-15)
    assert median == 2.5
    assert best == 4.0
    assert summarize([7.0]) == (7.0, 0.0, 7.0, 7.0)
    # Left to right: Python 3.12's compensated float sum gives a mean of 1/3.
    assert summarize([1e16, 1.0, -1e16])[0] == 0.0
    mean, std, median, best = summarize([3.0, 1.0, 2.0])
    assert (mean, median, best) == (2.0, 2.0, 3.0)
    assert std == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        summarize([])


def test_eval_report_from_returns():
    report = EvalReport("flat", [1, 2.0, 3.0, 4.0])
    assert report.terrain == "flat"
    assert report.trial_returns == (1.0, 2.0, 3.0, 4.0)
    assert (report.mean, report.std, report.median, report.best) == summarize(
        [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TypeError):
        EvalReport("flat", [1.0], 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        EvalReport("flat", [])


def eval_checkpoint():
    return sample_checkpoint(seed=3)


def test_evaluate_refuses_a_negative_eval_seed_that_has_no_str():
    with pytest.raises(ValueError, match="^eval_seed must be non-negative$"):
        evaluate(eval_checkpoint(), "flat", 1, -10**5000)


def test_evaluate_refuses_trial_seeds_of_2_64_or_more_before_any_trial(
        monkeypatch):
    # A transfer once ran its flat trials before a rough terrain refused the
    # seed. The message leaves out a seed that may have no str.
    ck, seeds = eval_checkpoint(), []

    def recorded(env, policy, seed):
        seeds.append(seed)
        return run_episode(env, policy, seed)

    monkeypatch.setattr("quadrl.evaluate.run_episode", recorded)
    message = r"^the last trial seed, eval_seed \+ trials - 1, must be below 2\*\*64$"
    with pytest.raises(ValueError, match=message):
        transfer_experiment(ck, eval_seed=2**64 - 3, trials=10)
    with pytest.raises(ValueError, match=message):
        evaluate(ck, "rough", 2, 2**64 - 1, make_terrain("rough", 5))
    with pytest.raises(ValueError, match=message):
        evaluate(ck, "flat", 1, 10**5000)
    assert seeds == []
    evaluate(ck, "flat", 2, 2**64 - 2)
    assert seeds == [2**64 - 2, 2**64 - 1]


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


def test_evaluate_rough_trial_computes_only_the_rows_it_reads(monkeypatch):
    built, read = [], set()

    def recording_terrain(*args):
        terrain = make_terrain(*args)
        node = terrain._node

        def recorded(i, j):
            read.add(i)
            return node(i, j)

        object.__setattr__(terrain, "_node", recorded)
        built.append(terrain)
        return terrain

    monkeypatch.setattr("quadrl.config.make_terrain", recording_terrain)
    evaluate(eval_checkpoint(), "rough", trials=1)
    [terrain] = built
    computed = {i for i, row in enumerate(terrain._rows) if row is not None}
    assert computed == read
    assert 0 < len(computed) < terrain._grid_frame[0] // 10
    assert "height_grid" not in vars(terrain)


def test_evaluate_raises_on_a_diverged_trial():
    # A NaN weight makes every action NaN, so the first step diverges; the
    # trial is not scored as a return of 0.
    ck = eval_checkpoint()
    values = ck.actor.values.copy()
    values[5] = np.nan
    ck.actor = net.ParamVector(values, ck.actor.spec)
    with pytest.raises(SimulationDiverged, match="control step 1"):
        evaluate(ck, "flat", trials=2)


def test_evaluate_validates_inputs(monkeypatch):
    # Each is refused before any trial runs. The first trial's terrain checks
    # the kind; a fixed terrain, already of a known kind, must match it.
    def never(*args):
        raise AssertionError("run_episode ran")

    monkeypatch.setattr("quadrl.evaluate.run_episode", never)
    with pytest.raises(ValueError, match="^unknown terrain kind 'hilly'$"):
        evaluate(eval_checkpoint(), "hilly")
    with pytest.raises(ValueError, match="^fixed terrain is rough, not hilly$"):
        evaluate(eval_checkpoint(), "hilly", fixed_terrain=make_terrain("rough", 5))
    with pytest.raises(ValueError):
        evaluate(eval_checkpoint(), "flat", trials=0)


def test_transfer_experiment_degradation():
    flat, rough, degradation = transfer_experiment(eval_checkpoint(), trials=2)
    assert degradation == pytest.approx(flat.mean - rough.mean, abs=1e-12)
    assert flat.terrain == "flat"
    assert rough.terrain == "rough"


def test_report_csv_layout_and_round_trip():
    flat = EvalReport("flat", [1.5, 2.5])
    rough = EvalReport("rough", [0.25, -1.75])
    text = report_csv([flat, rough])
    lines = text.splitlines()
    assert lines[0] == "terrain,mean,std,median,best,trial_1,trial_2"
    cells = lines[2].split(",")
    assert cells[0] == "rough"
    assert float(cells[1]) == rough.mean
    assert float(cells[5]) == 0.25
    assert float(cells[6]) == -1.75
    with pytest.raises(ValueError):
        report_csv([flat, EvalReport("rough", [1.0])])


def test_transfer_table_columns():
    flat = EvalReport("flat", [10.0, 20.0])
    rough = EvalReport("rough", [1.0, 2.0])
    table = transfer_table(flat, rough, 13.5)
    for column in TABLE_COLUMNS:
        assert column in table
    assert "13.50" in table
    assert table.splitlines()[1].startswith("flat")
    assert table.splitlines()[2].startswith("rough")


# --- svgplot -------------------------------------------------------------

def test_read_metrics_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("step_or_generation,return,best_return\n"
                    "1,5.0,5.0\n2,-3.5,5.0\n")
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
    metrics.write_text("step_or_generation,return,best_return\n"
                       "1,1.0,1.0\n2,2.0,2.0\n")
    out = tmp_path / "curve.svg"
    plot_metrics(str(metrics), str(out))
    content = out.read_text()
    assert content.startswith("<svg ")
    assert "polyline" in content
