"""Run one episode of any env exposing reset(seed) and step(action).

This module owns the reset/step loop, the replay push and the episode's
return: training, CEM fitness evaluation and the evaluation protocol all
roll their policies through episode_steps, directly or through run_episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .trace import span


@dataclass
class EpisodeResult:
    episode_return: float
    steps: int
    done_reason: str  # the last step's reason


def episode_steps(env, policy: Callable[[np.ndarray], np.ndarray],
                  reset_seed: int, buffer=None) -> Iterator[EpisodeResult]:
    """Reset env, then yield the episode's record after each step until done.

    Each step is pushed into buffer when one is given, then added to the
    record, which is updated in place: its reward to the return, summed
    left to right from 0.0, one to the step count, and its done reason.

    The policy is called for the next action only after the consumer has
    handled the previous step, so a consumer may draw seeds or update
    the policy between steps. A simulation divergence in env.step
    propagates; the steps pushed before it stay in the buffer.
    """
    episode = EpisodeResult(0.0, 0, "none")
    obs = env.reset(reset_seed)
    while True:
        action = policy(obs)
        result = env.step(action)
        if buffer is not None:
            buffer.push(obs, action, result.reward, result.observation,
                        result.done)
        episode.episode_return += result.reward
        episode.steps += 1
        episode.done_reason = result.done_reason
        yield episode
        if result.done:
            return
        obs = result.observation


@span
def run_episode(env, policy: Callable[[np.ndarray], np.ndarray], reset_seed: int,
                buffer=None) -> EpisodeResult:
    """Roll the policy until the env reports done; episode_steps' last record."""
    for episode in episode_steps(env, policy, reset_seed, buffer):
        pass
    return episode
