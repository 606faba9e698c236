"""Fixed-capacity transition store with seeded uniform sampling.

A transition is pushed as its five fields (observation, action, reward,
next observation, done); rollout.episode_steps pushes each step of an
episode as it happens.

Storage is column-major numpy arrays grown by doubling up to the
configured capacity, so a large nominal capacity costs nothing until the
buffer actually fills. Once full, the oldest transition is overwritten
first. Sampling draws indices uniformly with replacement from a
per-call seeded generator, so a batch is reproducible from its seed.

Each observation is stored once. Within an episode, step t's next
observation is step t+1's observation, so a transition whose successor
continued it (the next push's observation is bytewise equal to its next
observation) reads its next observation from the successor's slot. Only
the newest transition and the episode ends, the transitions not
continued, keep their own, in a dict keyed by slot: the next push deletes
the newest's entry if it continues it, and a push over the oldest slot
replaces that slot's entry.

Bytes per stored transition, at 48 observation and 8 action entries: 841
with both observations stored (two 48-float64 observations, 8 float64
actions, a float64 reward and a bool done), 457 with one. The newest and
each episode end add a copy of their next observation and its dict entry:
598 B each at 60 ends and 615 B at 417 ends in 15000 transitions,
measured with tracemalloc (a 496 B array of 48 float64, a 28 B int key
and the dict's table). At 15000 transitions of 250-step episodes that is
12.6 MB with both observations and 6.9 MB with one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import span


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
        self._done = np.empty(0, dtype=bool)
        # Slot -> its own next observation. A slot not in it reads its next
        # observation from the successor slot's observation.
        self._ends: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.size

    def _grow(self, needed: int) -> None:
        """Reallocate every column and copy only the stored rows."""
        new_alloc = min(self.capacity, max(1024, 2 * self._allocated, needed))
        for name in ("_obs", "_act", "_rew", "_done"):
            old = getattr(self, name)
            new = np.empty((new_alloc,) + old.shape[1:], dtype=old.dtype)
            new[:self.size] = old[:self.size]
            setattr(self, name, new)
        self._allocated = new_alloc

    @span
    def push(self, observation, action, reward, next_observation, done) -> None:
        obs = np.asarray(observation, dtype=np.float64)
        act = np.asarray(action, dtype=np.float64)
        nxt = np.array(next_observation, dtype=np.float64)  # a copy to keep
        reward = float(reward)
        if obs.shape != (self.obs_size,) or nxt.shape != (self.obs_size,):
            raise ValueError("observation shape mismatch")
        if act.shape != (self.action_size,):
            raise ValueError("action shape mismatch")
        if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(act))
                and np.isfinite(reward) and np.all(np.isfinite(nxt))):
            raise ValueError("non-finite transition rejected")
        i = self.write_index
        newest = (i - 1) % self.capacity
        # Bytes, not values: -0.0 == 0.0, but a sample must return the
        # next observation that was pushed.
        if self.size and self._ends[newest].tobytes() == obs.tobytes():
            del self._ends[newest]  # continued: slot i holds it
        if i >= self._allocated:
            self._grow(i + 1)
        self._obs[i] = obs
        self._act[i] = act
        self._rew[i] = reward
        self._done[i] = bool(done)
        self._ends[i] = nxt  # replaces an overwritten oldest slot's entry
        self.write_index = (self.write_index + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    @span
    def sample_batch(self, batch_size: int, seed: int) -> Batch:
        """batch_size uniform draws with replacement, seeded."""
        if self.size < 1:
            raise RuntimeError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        rng = np.random.default_rng(seed)
        return self._rows(rng.integers(0, self.size, size=batch_size))

    def _rows(self, idx: np.ndarray) -> Batch:
        """The transitions in slots idx, in that order."""
        # take and integer-array indexing copy, so a batch never aliases the
        # store; take is the faster of the two on rows. Before the ring
        # wraps only the newest slot's successor lies past the stored rows,
        # and the newest keeps its own next observation.
        next_obs = self._obs.take(idx + 1, axis=0, mode="wrap")
        for row, slot in enumerate(idx.tolist()):
            if slot in self._ends:
                next_obs[row] = self._ends[slot]
        return Batch(self._obs.take(idx, axis=0), self._act.take(idx, axis=0),
                     self._rew[idx], next_obs, self._done[idx])
