"""Cross-entropy search over flat actor parameters, plus critic coupling.

The search distribution is a diagonal Gaussian with an additive noise
floor that decays geometrically per generation. Updates refit the mean
to a log-rank weighted combination of the elites and refit the variance
about the pre-update mean, which delays variance collapse.

The coupled generation (used by the hybrid algorithms) gives the first
half of each sampled population critic-guided gradient steps before
fitness evaluation; the critic persists across generations while actors
are transient population members.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import net
from .replay import ReplayBuffer
from .rl import Learner, train_step
from .rollout import run_episode
from .seeds import SeedStream


@dataclass(frozen=True, eq=False)
class CemState:
    mean: np.ndarray
    variance: np.ndarray
    noise_floor: float
    population_size: int
    elite_count: int
    generation: int = 0
    noise_floor_final: float = 1e-5
    noise_decay: float = 0.999

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        variance = np.asarray(self.variance, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)
        if mean.shape != variance.shape or mean.ndim != 1:
            raise ValueError("mean and variance must be matching 1-D arrays")
        if np.any(variance < 0.0):
            raise ValueError("variance must be non-negative componentwise")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 1 <= self.elite_count <= self.population_size:
            raise ValueError("elite_count must lie in [1, population_size]")
        if self.noise_floor < 0.0 or self.noise_floor_final < 0.0:
            raise ValueError("noise floor must be non-negative")
        if not 0.0 < self.noise_decay <= 1.0:
            raise ValueError("noise_decay must lie in (0, 1]")


@dataclass
class Individual:
    params: np.ndarray
    fitness: float = float("nan")
    rl_updated: bool = False


def sample_population(state: CemState, seed: int) -> list[Individual]:
    """Draw population_size individuals from the current Gaussian."""
    rng = np.random.default_rng(seed)
    std = np.sqrt(state.variance + state.noise_floor)
    draws = rng.standard_normal((state.population_size, state.mean.size))
    return [Individual(state.mean + std * g) for g in draws]


def elite_weights(elite_count: int) -> np.ndarray:
    """Log-rank weights, strictly decreasing, normalized to sum 1."""
    if elite_count < 1:
        raise ValueError("elite_count must be at least 1")
    ranks = np.arange(1, elite_count + 1)
    raw = np.log(1.0 + elite_count) - np.log(ranks)
    return raw / raw.sum()


def cem_update(state: CemState, individuals: list[Individual],
               fitnesses) -> CemState:
    """Refit mean and variance to the elites of one evaluated population.

    Individuals are ranked by fitness descending with ties broken toward
    the lower index. The variance is refit about the pre-update mean and
    the current noise floor is added componentwise.
    """
    fit = np.asarray(fitnesses, dtype=np.float64)
    if fit.shape != (state.population_size,) or len(individuals) != fit.size:
        raise ValueError("need one fitness per population member")
    if not np.all(np.isfinite(fit)):
        raise ValueError("non-finite fitness")
    order = np.argsort(-fit, kind="stable")[:state.elite_count]
    elites = np.stack([individuals[i].params for i in order])
    weights = elite_weights(state.elite_count)
    new_mean = weights @ elites
    centered = elites - state.mean
    new_variance = weights @ (centered * centered) + state.noise_floor
    return replace(state, mean=new_mean, variance=new_variance,
                   generation=state.generation + 1)


def decay_noise(state: CemState) -> CemState:
    floor = max(state.noise_floor_final, state.noise_floor * state.noise_decay)
    return replace(state, noise_floor=floor)


@dataclass
class GenerationLog:
    generation: int
    best_fitness: float
    mean_fitness: float
    median_fitness: float
    noise_floor: float
    buffer_size: int
    rl_mean_fitness: float
    evo_mean_fitness: float
    transitions_collected: int
    best_params: np.ndarray
    diverged_count: int = 0
    fitnesses: list[float] = field(default_factory=list)


def _load_actor(learner: Learner, params: np.ndarray) -> None:
    """Install population parameters as the learner's (transient) actor."""
    actor = net.unflatten(learner.actor.spec, params)
    learner.actor = actor
    learner.target_actor = actor
    learner.actor_adam = net.init_adam(actor.spec.param_count)
    learner.update_counter = 0


def cem_rl_generation(state: CemState, learner: Learner, env, buffer: ReplayBuffer,
                      grad_steps: int, seed: int) -> tuple[CemState, GenerationLog]:
    """One generation: sample, gradient-coach half, evaluate, refit, decay.

    The learner and the buffer are updated in place. Every individual is
    rolled out in env, whose reset rebuilds all episode state.

    Seed draw order (fixed): one population seed; then grad_steps seeds
    per coached individual, first-half individuals in index order (only
    when gradient steps actually run); then one evaluation seed per
    individual in index order. Coaching runs only once the buffer can
    fill a batch, and an individual's rl_updated flag records whether
    gradient steps were actually applied to it.
    """
    stream = SeedStream(seed)
    individuals = sample_population(state, stream.next())
    half = state.population_size // 2
    for individual in individuals[:half]:
        if grad_steps > 0 and len(buffer) >= learner.hp.batch_size:
            _load_actor(learner, individual.params)
            for _ in range(grad_steps):
                train_step(learner, buffer, stream.next())
            individual.params = net.flatten(learner.actor)
            individual.rl_updated = True

    eval_seeds = [stream.next() for _ in individuals]
    actor_spec = learner.actor.spec
    diverged = 0
    collected = 0
    for individual, eval_seed in zip(individuals, eval_seeds):
        actor = net.unflatten(actor_spec, individual.params)
        result = run_episode(env, lambda obs: net.forward(actor, obs), eval_seed)
        individual.fitness = result.episode_return
        diverged += int(result.diverged)
        collected += len(result.transitions)
        for transition in result.transitions:
            buffer.push_transition(transition)

    fitnesses = np.array([ind.fitness for ind in individuals])
    new_state = decay_noise(cem_update(state, individuals, fitnesses))
    best = int(np.argmax(fitnesses))
    rl_fit = [ind.fitness for ind in individuals if ind.rl_updated]
    evo_fit = [ind.fitness for ind in individuals if not ind.rl_updated]
    log = GenerationLog(
        generation=new_state.generation,
        best_fitness=float(fitnesses[best]),
        mean_fitness=float(fitnesses.mean()),
        median_fitness=float(np.median(fitnesses)),
        noise_floor=new_state.noise_floor,
        buffer_size=len(buffer),
        rl_mean_fitness=float(np.mean(rl_fit)) if rl_fit else float("nan"),
        evo_mean_fitness=float(np.mean(evo_fit)) if evo_fit else float("nan"),
        transitions_collected=collected,
        best_params=individuals[best].params.copy(),
        diverged_count=diverged,
        fitnesses=[float(f) for f in fitnesses],
    )
    return new_state, log


def cem_solve_toy(objective: Callable[[np.ndarray], float], dim: int,
                  state: CemState, generations: int,
                  seed: int = 0) -> tuple[np.ndarray, CemState]:
    """Plain sample/evaluate/refit loop for a deterministic objective.

    Returns the best parameters ever evaluated and the final state.
    """
    if state.mean.size != dim:
        raise ValueError("state dimension does not match dim")
    stream = SeedStream(seed)
    best_params = state.mean.copy()
    best_fitness = -np.inf
    for _ in range(generations):
        individuals = sample_population(state, stream.next())
        fitnesses = np.array([float(objective(ind.params)) for ind in individuals])
        top = int(np.argmax(fitnesses))
        if fitnesses[top] > best_fitness:
            best_fitness = float(fitnesses[top])
            best_params = individuals[top].params.copy()
        state = decay_noise(cem_update(state, individuals, fitnesses))
    return best_params, state
