"""One training loop for the four algorithms, with CSV metrics and checkpoints.

A run is a sequence of units, episodes (ddpg, td3) or generations
(cem_ddpg, cem_td3), drawn from a generator per family. train owns the
budget check before each unit, the best actor, the metrics rows and the
artifact write. Every step count of a run is its env's total_steps.

Seed discipline: one SeedStream per run, seeded by master_seed, drawn in
a fixed documented order so any run segment can be replayed externally.

Gradient runs (ddpg, td3) draw: learner init seed; then per episode one
reset seed; then per env step one action seed (used for the uniform
random warmup action or the exploration noise); then, only on steps
where a gradient update actually runs, one train-step seed.

Evolutionary runs (cem_ddpg, cem_td3) draw: distribution-mean init
seed; learner init seed; then one seed per generation.
"""

from __future__ import annotations

import os

import numpy as np

from .cem import CemState, cem_rl_generation
from .checkpoint import Checkpoint, save_checkpoint
from .config import ALGORITHMS, RunConfig
from .env import OBS_SIZE, N_JOINTS, QuadrupedEnv, SimulationDiverged
from .evaluate import summarize
from .net import ParamVector, TrainingDiverged, init_network
from .replay import ReplayBuffer
from .rl import actor_spec, init_learner, noisy_action, train_step
from .rollout import episode_steps
from .seeds import SeedStream

REPLAY_CAPACITY = 1_000_000

GRADIENT_HEADER = "step_or_generation,return,best_return"
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


def _episodes(config: RunConfig, stream: SeedStream, env, buffer, twin):
    """Gradient family: (episode units, final actor getter)."""
    hp, bound = config.rl, config.robot.action_bound
    learner = init_learner(OBS_SIZE, N_JOINTS, bound, hp, stream.next(), twin=twin)

    def policy(obs):
        # Uniform warmup actions, then the actor plus exploration noise.
        action_seed = stream.next()
        if env.total_steps < config.warmup_steps:
            return np.random.default_rng(action_seed).uniform(-bound, bound,
                                                              N_JOINTS)
        return noisy_action(learner.actor, obs, hp.exploration_sigma, action_seed)

    def units():
        while True:
            for episode in episode_steps(env, policy, stream.next(), buffer):
                if (env.total_steps > config.warmup_steps
                        and len(buffer) >= hp.batch_size):
                    train_step(learner, buffer, stream.next())
            yield episode.episode_return, learner.actor, []

    return units(), lambda: learner.actor


def _generations(config: RunConfig, stream: SeedStream, env, buffer, twin):
    """CEM family: (generation units, distribution-mean getter)."""
    ch, bound = config.cem, config.robot.action_bound
    a_spec = actor_spec(OBS_SIZE, N_JOINTS, bound)
    mean = init_network(a_spec, stream.next())
    learner = init_learner(OBS_SIZE, N_JOINTS, bound, config.rl, stream.next(),
                           twin=twin)
    state = CemState(mean.values, np.full(a_spec.param_count, ch.init_variance),
                     ch.noise_floor, ch)

    def units():
        nonlocal state
        previous = 0
        while True:
            before = env.total_steps
            state, log = cem_rl_generation(state, learner, env, buffer,
                                           previous, stream.next())
            previous = env.total_steps - before
            # CEM_HEADER's columns; with nobody coached, evo_mean covers all.
            # The median is summarize's: np.median would import numpy.ma.
            fit, coached = log.fitnesses, log.coached
            best = int(np.argmax(fit))
            candidate = ParamVector(log.population[best], a_spec)
            # The candidate is a copy, so the population is freed before the
            # next generation samples its own.
            del log
            rl_mean = fit[:coached].mean() if coached else float("nan")
            yield fit[best], candidate, [
                fit.mean(), summarize(fit)[2], state.noise_floor, len(buffer),
                rl_mean, fit[coached:].mean()]

    return units(), lambda: ParamVector(state.mean, a_spec)


def train(config: RunConfig) -> tuple[Checkpoint, str]:
    """Run one training job; returns the final checkpoint and metrics path.

    Writes metrics.csv, checkpoint.json (the final actor: the learner's,
    or for CEM the distribution mean) and checkpoint_best.json into
    config.out_dir; each holds one actor and the same progress. The best
    file holds the actor of the unit with the highest return: for ddpg
    and td3, learner.actor after the updates of the episode with the
    highest training return, earned under exploration noise or, in
    warmup, by uniform random actions (so it can be the untrained actor);
    for CEM, the best-scoring member exactly as it was rolled out. If the
    simulation or the learner diverges, partial artifacts are written
    with a diverged progress flag and the divergence is re-raised.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    population, twin = ALGORITHMS[config.algorithm]
    unit_name, header, family = (("generations", CEM_HEADER, _generations)
                                 if population else
                                 ("episodes", GRADIENT_HEADER, _episodes))
    progress = {unit_name: 0, "env_steps": 0, "best_return": float("-inf"),
                "diverged": False}
    stream = SeedStream(config.master_seed)
    env = QuadrupedEnv(config.terrain("flat", 0), config.robot, t_max=config.t_max)
    buffer = ReplayBuffer(REPLAY_CAPACITY, OBS_SIZE, N_JOINTS)
    units, final_actor = family(config, stream, env, buffer, twin)

    rows: list[list] = []
    best_actor = final_actor()
    try:
        for unit in range(1, getattr(config, unit_name) + 1):
            if config.max_env_steps and env.total_steps >= config.max_env_steps:
                break
            unit_return, candidate, extra = next(units)
            progress[unit_name] = unit
            if unit_return > progress["best_return"]:
                progress["best_return"] = float(unit_return)
                best_actor = candidate
            rows.append([unit, unit_return, progress["best_return"], *extra])
    except (SimulationDiverged, TrainingDiverged):
        progress["diverged"] = True
        raise
    finally:
        progress["env_steps"] = env.total_steps
        metrics_path = os.path.join(config.out_dir, "metrics.csv")
        _write_rows(metrics_path, header, rows)
        final = Checkpoint(final_actor(), config, progress)
        save_checkpoint(final, os.path.join(config.out_dir, "checkpoint.json"))
        save_checkpoint(Checkpoint(best_actor, config, progress),
                        os.path.join(config.out_dir, "checkpoint_best.json"))
    return final, metrics_path
