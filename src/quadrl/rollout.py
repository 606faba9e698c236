"""Run one episode of any env exposing reset(seed) and step(action).

This module owns the reset/step loop: training, CEM fitness evaluation
and the evaluation protocol all roll their policies through
episode_steps, directly or through run_episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


@dataclass
class EpisodeResult:
    episode_return: float
    steps: int
    done_reason: str  # the last step's reason


def episode_steps(env, policy: Callable[[np.ndarray], np.ndarray],
                  reset_seed: int) -> Iterator[tuple]:
    """Reset env, then yield (obs, action, result) per step until done.

    The policy is called for the next action only after the consumer has
    handled the previous step, so a consumer may draw seeds or update
    the policy between steps. A simulation divergence in env.step
    propagates to the consumer.
    """
    obs = env.reset(reset_seed)
    while True:
        action = policy(obs)
        result = env.step(action)
        yield obs, action, result
        if result.done:
            return
        obs = result.observation


def run_episode(env, policy: Callable[[np.ndarray], np.ndarray], reset_seed: int,
                buffer=None) -> EpisodeResult:
    """Roll the policy until the env reports done.

    Each step is pushed into buffer when one is given. A simulation
    divergence propagates; the steps pushed before it stay in the buffer.
    """
    total = 0.0
    steps = 0
    for obs, action, result in episode_steps(env, policy, reset_seed):
        total += result.reward
        steps += 1
        if buffer is not None:
            buffer.push(obs, action, result.reward, result.observation,
                        result.done)
    return EpisodeResult(total, steps, result.done_reason)
