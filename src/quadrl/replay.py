"""Fixed-capacity transition store with seeded uniform sampling.

A transition is pushed as its five fields (observation, action, reward,
next observation, done); rollout.run_episode pushes each step of an
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
continued, keep their own, in a side store: the next push frees the
newest's row if it continues it, and eviction frees the oldest's.

Bytes per stored transition, at 48 observation and 8 action entries: 841
before (two 48-float64 observations, 8 float64 actions, a float64 reward
and a bool done), 461 now (one observation and a 4 B side-store row
index; its type is the narrowest signed integer that holds -capacity,
int32 for a million), plus 384 B for the newest and for each episode
end. At 15000 transitions of 250-step episodes that is 12.6 MB before
and 6.9 MB now.
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
        self._done = np.empty(0, dtype=bool)
        # Per slot: the _ends row holding its next observation, or -1 when
        # that is the successor slot's observation.
        self._end_row = np.empty(0, dtype=np.min_scalar_type(-self.capacity))
        self._ends = np.empty((0, obs_size))
        self._free_rows: list[int] = []

    def __len__(self) -> int:
        return self.size

    def _grow(self, needed: int) -> None:
        """Reallocate every column and copy only the stored rows."""
        new_alloc = min(self.capacity, max(1024, 2 * self._allocated, needed))
        for name in ("_obs", "_act", "_rew", "_done", "_end_row"):
            old = getattr(self, name)
            new = np.empty((new_alloc,) + old.shape[1:], dtype=old.dtype)
            new[:self.size] = old[:self.size]
            setattr(self, name, new)
        self._end_row[self.size:] = -1
        self._allocated = new_alloc

    def _keep_end(self, next_observation: np.ndarray) -> int:
        """Copy a next observation into a free _ends row.

        Live rows never outnumber the stored transitions, so the side
        store never needs more rows than the capacity.
        """
        if not self._free_rows:
            n = self._ends.shape[0]
            grown = np.empty((min(self.capacity, max(16, 2 * n)), self.obs_size))
            grown[:n] = self._ends
            self._ends = grown
            self._free_rows = list(range(grown.shape[0] - 1, n - 1, -1))
        row = self._free_rows.pop()
        self._ends[row] = next_observation
        return row

    def _release_end(self, slot: int) -> None:
        """Free the slot's own next observation, if it kept one."""
        row = int(self._end_row[slot])
        if row >= 0:
            self._free_rows.append(row)
            self._end_row[slot] = -1

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
        i = self.write_index
        if self.size:
            # Bytes, not values: -0.0 == 0.0, but a sample must return the
            # next observation that was pushed.
            newest = (i - 1) % self.capacity
            if self._ends[self._end_row[newest]].tobytes() == obs.tobytes():
                self._release_end(newest)  # continued: slot i holds it
        if self.size == self.capacity:
            self._release_end(i)  # the oldest transition is overwritten
        elif i >= self._allocated:
            self._grow(i + 1)
        self._obs[i] = obs
        self._act[i] = act
        self._rew[i] = reward
        self._done[i] = bool(done)
        self._end_row[i] = self._keep_end(nxt)
        self.write_index = (self.write_index + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

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
        rows = self._end_row[idx]
        own = rows >= 0
        next_obs[own] = self._ends[rows[own]]
        return Batch(self._obs.take(idx, axis=0), self._act.take(idx, axis=0),
                     self._rew[idx], next_obs, self._done[idx])
