"""Fixed-capacity transition store with seeded uniform sampling.

A transition is pushed as its five fields (observation, action, reward,
next observation, done); rollout.run_episode pushes each step of an
episode as it happens.

Storage is column-major numpy arrays grown by doubling up to the
configured capacity, so a large nominal capacity costs nothing until the
buffer actually fills. Once full, the oldest transition is overwritten
first. Sampling draws indices uniformly with replacement from a
per-call seeded generator, so a batch is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Batch:
    """Stacked transition arrays, one row per sampled transition."""

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_observations: np.ndarray
    dones: np.ndarray

    def __len__(self) -> int:
        return self.rewards.shape[0]


class ReplayBuffer:
    def __init__(self, capacity: int, obs_size: int, action_size: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.obs_size = int(obs_size)
        self.action_size = int(action_size)
        self.size = 0
        self.write_index = 0
        self._allocated = 0
        self._obs = np.empty((0, obs_size))
        self._act = np.empty((0, action_size))
        self._rew = np.empty(0)
        self._next_obs = np.empty((0, obs_size))
        self._done = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return self.size

    def _grow(self, needed: int) -> None:
        """Reallocate every column and copy only the stored rows."""
        new_alloc = min(self.capacity, max(1024, 2 * self._allocated, needed))
        for name in ("_obs", "_act", "_rew", "_next_obs", "_done"):
            old = getattr(self, name)
            new = np.empty((new_alloc,) + old.shape[1:], dtype=old.dtype)
            new[:self.size] = old[:self.size]
            setattr(self, name, new)
        self._allocated = new_alloc

    def push(self, observation, action, reward, next_observation, done) -> None:
        obs = np.asarray(observation, dtype=np.float64)
        act = np.asarray(action, dtype=np.float64)
        nxt = np.asarray(next_observation, dtype=np.float64)
        reward = float(reward)
        if obs.shape != (self.obs_size,) or nxt.shape != (self.obs_size,):
            raise ValueError("observation shape mismatch")
        if act.shape != (self.action_size,):
            raise ValueError("action shape mismatch")
        if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(act))
                and np.isfinite(reward) and np.all(np.isfinite(nxt))):
            raise ValueError("non-finite transition rejected")
        if self.write_index >= self._allocated and self._allocated < self.capacity:
            self._grow(self.write_index + 1)
        i = self.write_index
        self._obs[i] = obs
        self._act[i] = act
        self._rew[i] = reward
        self._next_obs[i] = nxt
        self._done[i] = bool(done)
        self.write_index = (self.write_index + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_batch(self, batch_size: int, seed: int) -> Batch:
        """batch_size uniform draws with replacement, seeded."""
        if self.size < 1:
            raise RuntimeError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, self.size, size=batch_size)
        # Integer-array indexing copies, so a batch never aliases the store.
        return Batch(self._obs[idx], self._act[idx], self._rew[idx],
                     self._next_obs[idx], self._done[idx])
