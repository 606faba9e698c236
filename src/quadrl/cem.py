"""Cross-entropy search over flat actor parameters, plus critic coupling.

The search distribution is a diagonal Gaussian with an additive noise
floor that decays geometrically per generation. One update refits the
mean to a log-rank weighted combination of the elites, refits the
variance about the pre-update mean, which delays variance collapse, and
decays the floor. A CemState carries its CemHyperparams, which fix the
population size, the elite count and the floor's decay.

The coupled generation (used by the hybrid algorithms) gives the first
half of each sampled population critic-guided gradient steps before
fitness evaluation; the critic persists across generations while actors
are transient population members. Each of the population_size // 2
coached members takes min(grad_steps_cap, previous // (population_size // 2))
steps, previous being the env steps the previous generation ran, which the
caller reads from the env's own count (Pourchot & Sigaud 2019).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import net
from .config import CemHyperparams
from .replay import ReplayBuffer
from .rl import Learner, reset_actor, train_step
from .rollout import run_episode
from .seeds import SeedStream


@dataclass(frozen=True, eq=False)
class CemState:
    """The search distribution plus the hyperparameters that drive it.

    hp supplies the population size, the elite count and the noise-floor
    decay; they are validated once, by CemHyperparams.
    """

    mean: np.ndarray
    variance: np.ndarray
    noise_floor: float
    hp: CemHyperparams

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        variance = np.asarray(self.variance, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)
        if mean.shape != variance.shape or mean.ndim != 1:
            raise ValueError("mean and variance must be matching 1-D arrays")
        if np.any(variance < 0.0):
            raise ValueError("variance must be non-negative componentwise")
        if self.noise_floor < 0.0:
            raise ValueError("noise floor must be non-negative")


def sample_population(state: CemState, seed: int) -> np.ndarray:
    """Draw hp.population_size members from the current Gaussian, one per row.

    The standard normal draws are scaled and shifted in place, so the
    population is the only population-sized array built; each entry is
    the same product and sum as ``mean + std * draws``.
    """
    rng = np.random.default_rng(seed)
    std = np.sqrt(state.variance + state.noise_floor)
    draws = rng.standard_normal((state.hp.population_size, state.mean.size))
    draws *= std
    draws += state.mean
    return draws


def elite_weights(elite_count: int) -> np.ndarray:
    """Log-rank weights, strictly decreasing, normalized to sum 1."""
    if elite_count < 1:
        raise ValueError("elite_count must be at least 1")
    ranks = np.arange(1, elite_count + 1)
    raw = np.log(1.0 + elite_count) - np.log(ranks)
    return raw / raw.sum()


def cem_update(state: CemState, population: np.ndarray,
               fitnesses) -> CemState:
    """Refit the Gaussian to one evaluated population's elites; decay the floor.

    Rows of population are ranked by fitness descending with ties broken
    toward the lower index. The variance is refit about the pre-update
    mean, and the current floor is added componentwise; the floor then
    decays to max(noise_floor_final, noise_floor * noise_decay).
    """
    fit = np.asarray(fitnesses, dtype=np.float64)
    if fit.shape != (state.hp.population_size,) or len(population) != fit.size:
        raise ValueError("need one fitness per population member")
    if not np.all(np.isfinite(fit)):
        raise ValueError("non-finite fitness")
    order = np.argsort(-fit, kind="stable")[:state.hp.elite_count]
    elites = population[order]
    weights = elite_weights(state.hp.elite_count)
    new_mean = weights @ elites
    centered = elites - state.mean
    centered *= centered  # squared in place: the same operand for the gemv
    new_variance = weights @ centered + state.noise_floor
    floor = max(state.hp.noise_floor_final, state.noise_floor * state.hp.noise_decay)
    return replace(state, mean=new_mean, variance=new_variance, noise_floor=floor)


@dataclass(frozen=True, eq=False)
class GenerationLog:
    """What one generation evaluated.

    population holds the rows as they were rolled out, so its first
    `coached` rows are the coached parameters; fitnesses[i] is row i's
    episode return.
    """

    population: np.ndarray
    fitnesses: np.ndarray
    coached: int


def cem_rl_generation(state: CemState, learner: Learner, env, buffer: ReplayBuffer,
                      previous: int, seed: int) -> tuple[CemState, GenerationLog]:
    """One generation: sample, gradient-coach half, evaluate, update.

    The learner and the buffer are updated in place. Every member is
    rolled out in env, whose reset rebuilds all episode state, and each
    step of its episode is pushed into the buffer as it happens.
    previous is the previous generation's env step count (0 for the
    first); it sets the gradient steps per coached member.

    Seed draw order (fixed): one population seed; then one seed per
    gradient step, coached members in index order (only when gradient
    steps actually run); then one evaluation seed per member in index
    order. Coaching runs only once the buffer can fill a batch; coaching
    pushes nothing, so that holds for the whole first half or for none
    of it.
    """
    stream = SeedStream(seed)
    population = sample_population(state, stream.next())
    half = state.hp.population_size // 2
    grad_steps = min(state.hp.grad_steps_cap, previous // half)
    coached = half if grad_steps > 0 and len(buffer) >= learner.hp.batch_size else 0
    for row in population[:coached]:
        reset_actor(learner, row)
        for _ in range(grad_steps):
            train_step(learner, buffer, stream.next())
        row[:] = learner.actor.values

    eval_seeds = [stream.next() for _ in population]
    actor_spec = learner.actor.spec
    fitnesses = np.empty(len(population))
    for i, eval_seed in enumerate(eval_seeds):
        actor = net.ParamVector(population[i], actor_spec)
        fitnesses[i] = run_episode(env, lambda obs: net.forward(actor, obs),
                                   eval_seed, buffer).episode_return

    return (cem_update(state, population, fitnesses),
            GenerationLog(population, fitnesses, coached))
