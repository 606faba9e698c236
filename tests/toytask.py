"""Test-only tasks: a 1-DOF surrogate env and a plain CEM loop.

The surrogate is a single mass driven by a bounded action a in [-0.7, 0.7]:

    v' = v + (GAIN * a - DRAG * v) * DT,  reward = 75 * v' per step.

The optimal policy saturates the action, so the optimal return has a
closed form. The env exposes reset(seed)/step(action) exactly like
QuadrupedEnv, which lets the package's learners and rollout helper run
on it unchanged. `cem_solve_toy` runs the cross-entropy search alone,
with no critic, on any deterministic objective.
"""

import numpy as np

from quadrl.cem import CemState, cem_update, sample_population
from quadrl.env import StepResult
from quadrl.seeds import SeedStream

GAIN = 2.0
DRAG = 1.0
DT = 0.05
T_MAX = 60
ACTION_BOUND = 0.7


class ToyEnv:
    t_max = T_MAX

    def __init__(self):
        self.velocity = 0.0
        self.timestep = 0
        self.done = False

    def reset(self, seed=0):
        del seed  # start state is deterministic, like the quadruped reset
        self.velocity = 0.0
        self.timestep = 0
        self.done = False
        return np.array([self.velocity])

    def step(self, action):
        if self.done:
            raise RuntimeError("step called on a finished episode")
        a = float(np.clip(np.asarray(action, dtype=np.float64).ravel()[0],
                          -ACTION_BOUND, ACTION_BOUND))
        self.velocity += (GAIN * a - DRAG * self.velocity) * DT
        self.timestep += 1
        self.done = self.timestep >= T_MAX
        reason = "timeout" if self.done else "none"
        return StepResult(np.array([self.velocity]), 75.0 * self.velocity,
                          reason)


def optimal_return() -> float:
    """Return of the saturating policy a = ACTION_BOUND every step."""
    v, total = 0.0, 0.0
    for _ in range(T_MAX):
        v += (GAIN * ACTION_BOUND - DRAG * v) * DT
        total += 75.0 * v
    return total


def cem_solve_toy(objective, dim: int, state: CemState, generations: int,
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
        population = sample_population(state, stream.next())
        fitnesses = np.array([float(objective(p)) for p in population])
        top = int(np.argmax(fitnesses))
        if fitnesses[top] > best_fitness:
            best_fitness = float(fitnesses[top])
            best_params = population[top].copy()
        state = cem_update(state, population, fitnesses)
    return best_params, state
