"""Training loops for the four algorithms, with CSV metrics and checkpoints.

Seed discipline: one SeedStream per run, seeded by master_seed, drawn in
a fixed documented order so any run segment can be replayed externally.

Gradient runs (ddpg, td3) draw: learner init seed; then per episode one
reset seed; then per env step one action seed (used for the uniform
random warmup action or the exploration noise); then, only on steps
where a gradient update actually runs, one train-step seed.

Evolutionary runs (cem_ddpg, cem_td3) draw: distribution-mean init
seed; learner init seed; then one seed per generation.

Metrics rows are one per episode or generation. The wall_ms column is 0
unless record_wall_time is set, because wall-clock numbers would break
byte-identical reproducibility of the metrics file.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .cem import CemState, cem_rl_generation
from .checkpoint import Checkpoint, save_checkpoint
from .config import RunConfig
from .env import OBS_SIZE, N_JOINTS, QuadrupedEnv, SimulationDiverged
from .net import ParamVector, init_network
from .replay import ReplayBuffer
from .rl import (Learner, TrainingDiverged, actor_spec, exploration_action,
                 init_learner, train_step)
from .rollout import episode_steps
from .seeds import SeedStream
from .terrain import make_terrain

REPLAY_CAPACITY = 1_000_000

GRADIENT_HEADER = "step_or_generation,return,best_return,wall_ms"
CEM_HEADER = (GRADIENT_HEADER + ",mean_fitness,median_fitness,noise_floor,"
              "buffer_size,rl_mean_fitness,evo_mean_fitness")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path: str, header: str, rows: list[list]) -> None:
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_artifacts(config: RunConfig, header: str, rows: list[list],
                     progress: dict, learner: Learner, final_actor: ParamVector,
                     best_actor: ParamVector) -> Checkpoint:
    """Write metrics.csv, checkpoint.json and checkpoint_best.json.

    Both checkpoints hold the learner's critics and the same progress;
    they differ only in their actor.
    """
    _write_rows(os.path.join(config.out_dir, "metrics.csv"), header, rows)
    names = ("critic_1", "critic_2") if learner.twin else ("critic",)
    critics = dict(zip(names, learner.critics))
    final = Checkpoint(dict(critics, actor=final_actor), config, progress)
    save_checkpoint(final, os.path.join(config.out_dir, "checkpoint.json"))
    best = Checkpoint(dict(critics, actor=best_actor), config, progress)
    save_checkpoint(best, os.path.join(config.out_dir, "checkpoint_best.json"))
    return final


def _flat_env(config: RunConfig) -> QuadrupedEnv:
    terrain = make_terrain("flat", 0, 0.0, config.terrain_cell_size,
                           config.terrain_extent)
    return QuadrupedEnv(terrain, config.robot, config.t_max)


class _Clock:
    """Per-row wall time in ms, or a constant 0 when timing is off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._last = time.perf_counter() if enabled else 0.0

    def lap(self):
        if not self.enabled:
            return 0
        now = time.perf_counter()
        ms = (now - self._last) * 1000.0
        self._last = now
        return ms


def train(config: RunConfig) -> tuple[Checkpoint, str]:
    """Run one training job; returns the final checkpoint and metrics path.

    Writes metrics.csv, checkpoint.json (final) and checkpoint_best.json
    (best return seen) into config.out_dir. If the simulation or the
    learner diverges, partial artifacts are written with a diverged
    progress flag and the divergence is re-raised.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    loop = _train_gradient if config.algorithm in ("ddpg", "td3") else _train_cem
    return loop(config), os.path.join(config.out_dir, "metrics.csv")


def _train_gradient(config: RunConfig) -> Checkpoint:
    stream = SeedStream(config.master_seed)
    hp = config.rl
    learner = init_learner(OBS_SIZE, N_JOINTS, hp, stream.next(),
                           twin=config.algorithm == "td3")
    env = _flat_env(config)
    buffer = ReplayBuffer(REPLAY_CAPACITY, OBS_SIZE, N_JOINTS)
    bound = hp.action_bound

    rows: list[list] = []
    clock = _Clock(config.record_wall_time)
    best_return = -np.inf
    best_actor = learner.actor
    total_steps = 0
    episodes_run = 0
    diverged = False

    def policy(obs):
        # Uniform warmup actions, then the actor plus exploration noise.
        action_seed = stream.next()
        if total_steps < config.warmup_steps:
            return np.random.default_rng(action_seed).uniform(-bound, bound,
                                                              N_JOINTS)
        return exploration_action(learner.actor, obs, hp.exploration_sigma,
                                  action_seed, bound)

    try:
        for episode in range(1, config.episodes + 1):
            if config.max_env_steps and total_steps >= config.max_env_steps:
                break
            ep_return = 0.0
            for obs, action, result in episode_steps(env, policy, stream.next()):
                buffer.push(obs, action, result.reward, result.observation,
                            result.done)
                ep_return += result.reward
                total_steps += 1
                if total_steps > config.warmup_steps and len(buffer) >= hp.batch_size:
                    train_step(learner, buffer, stream.next())
            episodes_run = episode
            if ep_return > best_return:
                best_return = ep_return
                best_actor = learner.actor
            rows.append([episode, ep_return, best_return, clock.lap()])
    except (SimulationDiverged, TrainingDiverged):
        diverged = True
        raise
    finally:
        progress = {"episodes": episodes_run, "env_steps": total_steps,
                    "best_return": float(best_return), "diverged": diverged}
        final = _write_artifacts(config, GRADIENT_HEADER, rows, progress, learner,
                                 learner.actor, best_actor)
    return final


def _train_cem(config: RunConfig) -> Checkpoint:
    stream = SeedStream(config.master_seed)
    hp, ch = config.rl, config.cem
    a_spec = actor_spec(OBS_SIZE, N_JOINTS, hp.action_bound)
    mean = init_network(a_spec, stream.next())
    learner = init_learner(OBS_SIZE, N_JOINTS, hp, stream.next(),
                           twin=config.algorithm == "cem_td3")
    state = CemState(mean.values, np.full(a_spec.param_count, ch.init_variance),
                     ch.noise_floor, ch)
    buffer = ReplayBuffer(REPLAY_CAPACITY, OBS_SIZE, N_JOINTS)
    env = _flat_env(config)
    half = ch.population_size // 2

    rows: list[list] = []
    clock = _Clock(config.record_wall_time)
    best_return = -np.inf
    best_actor = mean
    total_steps = 0
    prev_collected = 0
    generations_run = 0
    diverged = False
    try:
        for generation in range(1, config.generations + 1):
            if config.max_env_steps and total_steps >= config.max_env_steps:
                break
            grad_steps = min(ch.grad_steps_cap, prev_collected // half)
            state, log = cem_rl_generation(state, learner, env, buffer,
                                           grad_steps, stream.next())
            prev_collected = log.transitions_collected
            total_steps += log.transitions_collected
            generations_run = generation
            diverged |= log.diverged_count > 0
            if log.best_fitness > best_return:
                best_return = log.best_fitness
                best_actor = ParamVector(log.best_params, a_spec)
            rows.append([generation, log.best_fitness, best_return, clock.lap(),
                         log.mean_fitness, log.median_fitness, log.noise_floor,
                         log.buffer_size, log.rl_mean_fitness,
                         log.evo_mean_fitness])
    except (SimulationDiverged, TrainingDiverged):
        diverged = True
        raise
    finally:
        progress = {"generations": generations_run, "env_steps": total_steps,
                    "best_return": float(best_return),
                    "diverged": diverged}
        final = _write_artifacts(config, CEM_HEADER, rows, progress, learner,
                                 ParamVector(state.mean, a_spec), best_actor)
    return final
