import numpy as np
import pytest

from quadrl import replay


def make_transition(i, obs_size=3, action_size=2):
    """(observation, action, reward, next_observation, done) number i."""
    return (np.full(obs_size, float(i)), np.full(action_size, float(i) / 10.0),
            float(i), np.full(obs_size, float(i) + 0.5), bool(i % 2))


def test_push_and_len():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    assert len(buf) == 0
    for i in range(4):
        buf.push(*make_transition(i))
    assert len(buf) == 4


def test_fifo_overwrite_at_capacity():
    buf = replay.ReplayBuffer(capacity=5, obs_size=3, action_size=2)
    for i in range(8):
        buf.push(*make_transition(i))
    assert len(buf) == 5
    batch = buf.sample_batch(200, seed=0)
    # Entries 0..2 were overwritten by 5..7; only 3..7 remain.
    seen = set(batch.rewards.tolist())
    assert seen <= {3.0, 4.0, 5.0, 6.0, 7.0}
    assert len(seen) == 5


def test_sample_batch_shapes_and_reproducibility():
    buf = replay.ReplayBuffer(capacity=100, obs_size=3, action_size=2)
    for i in range(30):
        buf.push(*make_transition(i))
    a = buf.sample_batch(16, seed=42)
    b = buf.sample_batch(16, seed=42)
    assert a.observations.shape == (16, 3)
    assert a.actions.shape == (16, 2)
    assert a.rewards.shape == (16,)
    assert a.next_observations.shape == (16, 3)
    assert a.dones.shape == (16,)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.dones, b.dones)
    c = buf.sample_batch(16, seed=43)
    assert not np.array_equal(a.rewards, c.rewards)


def test_sample_with_replacement_allows_small_buffers():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    buf.push(*make_transition(4))
    batch = buf.sample_batch(8, seed=0)
    assert len(batch) == 8
    assert np.all(batch.rewards == 4.0)


def test_sample_rows_are_stored_transitions():
    buf = replay.ReplayBuffer(capacity=50, obs_size=3, action_size=2)
    originals = {}
    for i in range(20):
        t = make_transition(i)
        originals[t[2]] = t
        buf.push(*t)
    batch = buf.sample_batch(32, seed=1)
    for k in range(len(batch)):
        obs, action, reward, next_obs, done = originals[batch.rewards[k]]
        assert np.array_equal(batch.observations[k], obs)
        assert np.array_equal(batch.actions[k], action)
        assert np.array_equal(batch.next_observations[k], next_obs)
        assert batch.dones[k] == done


def test_sample_uniformity_rough():
    buf = replay.ReplayBuffer(capacity=100, obs_size=1, action_size=1)
    for i in range(10):
        buf.push(np.array([float(i)]), np.zeros(1), float(i), np.zeros(1), False)
    counts = np.zeros(10)
    for seed in range(200):
        batch = buf.sample_batch(50, seed=seed)
        for r in batch.rewards:
            counts[int(r)] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 0.1) < 0.02)


def test_sampled_arrays_are_copies():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    buf.push(*make_transition(1))
    batch = buf.sample_batch(4, seed=0)
    batch.observations[0, 0] = 999.0
    again = buf.sample_batch(4, seed=0)
    assert again.observations[0, 0] == 1.0


def test_push_rejects_bad_shapes():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    with pytest.raises(ValueError):
        buf.push(np.zeros(4), np.zeros(2), 0.0, np.zeros(3), False)
    with pytest.raises(ValueError):
        buf.push(np.zeros(3), np.zeros(1), 0.0, np.zeros(3), False)


def test_push_rejects_non_finite():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    with pytest.raises(ValueError):
        buf.push(np.array([np.nan, 0.0, 0.0]), np.zeros(2), 0.0, np.zeros(3), False)
    with pytest.raises(ValueError):
        buf.push(np.zeros(3), np.zeros(2), np.inf, np.zeros(3), False)


def test_sample_empty_buffer_raises():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    with pytest.raises(RuntimeError):
        buf.sample_batch(4, seed=0)


def test_sample_zero_batch_raises():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    buf.push(*make_transition(0))
    with pytest.raises(ValueError):
        buf.sample_batch(0, seed=0)


def test_capacity_validation():
    with pytest.raises(ValueError):
        replay.ReplayBuffer(capacity=0, obs_size=3, action_size=2)


def test_growth_preserves_order_across_wrap():
    buf = replay.ReplayBuffer(capacity=4, obs_size=1, action_size=1)
    for i in range(6):
        buf.push(np.array([float(i)]), np.zeros(1), float(i), np.zeros(1), False)
    batch = buf.sample_batch(100, seed=3)
    assert set(batch.rewards.tolist()) == {2.0, 3.0, 4.0, 5.0}


def test_lazy_allocation_under_large_capacity():
    buf = replay.ReplayBuffer(capacity=1_000_000, obs_size=48, action_size=8)
    transition = make_transition(0, obs_size=48, action_size=8)
    buf.push(*transition)
    # A million-slot buffer must not preallocate its full footprint.
    assert buf._obs.shape[0] < 100_000
    # Only the newest transition's next observation is in the side store.
    assert list(buf._ends) == [0]
    assert np.array_equal(buf._ends[0], transition[3])
    assert len(buf) == 1


def test_rows_and_samples_survive_growth():
    # 2500 pushes cross the 1024 and 2048 reallocations.
    buf = replay.ReplayBuffer(capacity=4000, obs_size=3, action_size=2)
    rows = [make_transition(i) for i in range(2500)]
    for n, row in enumerate(rows, start=1):
        buf.push(*row)
        if n in (1024, 1025, 2048, 2049, 2500):
            idx = np.random.default_rng(n).integers(0, n, size=64)
            batch = buf.sample_batch(64, seed=n)
            assert np.array_equal(batch.observations, np.array([rows[i][0] for i in idx]))
            assert np.array_equal(batch.actions, np.array([rows[i][1] for i in idx]))
            assert np.array_equal(batch.rewards, np.array([rows[i][2] for i in idx]))
            assert np.array_equal(batch.next_observations,
                                  np.array([rows[i][3] for i in idx]))
            assert np.array_equal(batch.dones, np.array([rows[i][4] for i in idx]))
    assert buf._obs.shape[0] == 4000
    assert np.array_equal(buf._rew[:2500], np.arange(2500.0))
    assert np.array_equal(buf._obs[:2500], np.array([r[0] for r in rows]))
    assert np.array_equal(buf._done[:2500], np.array([r[4] for r in rows]))
    # No row continues its predecessor (observation i follows next
    # observation i - 0.5), so every transition keeps its own next
    # observation, and the slots past the stored rows keep none.
    assert sorted(buf._ends) == list(range(2500))
    assert np.array_equal(np.array([buf._ends[s] for s in range(2500)]),
                          np.array([r[3] for r in rows]))


class NaiveBuffer:
    """The reference layout: every slot stores all five fields, copied."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.slots = []
        self.write_index = 0

    def push(self, observation, action, reward, next_observation, done):
        row = (np.array(observation, dtype=np.float64),
               np.array(action, dtype=np.float64), float(reward),
               np.array(next_observation, dtype=np.float64), bool(done))
        if len(self.slots) < self.capacity:
            self.slots.append(row)
        else:
            self.slots[self.write_index] = row
        self.write_index = (self.write_index + 1) % self.capacity

    def sample_batch(self, batch_size, seed):
        idx = np.random.default_rng(seed).integers(0, len(self.slots),
                                                   size=batch_size)
        return replay.Batch(*(np.array([self.slots[i][k] for i in idx])
                              for k in range(5)))

    def own_next_count(self):
        """Stored transitions that are the newest or whose successor slot
        does not hold their next observation byte for byte."""
        n, newest = len(self.slots), (self.write_index - 1) % self.capacity
        return sum(s == newest or self.slots[s][3].tobytes()
                   != self.slots[(s + 1) % n][0].tobytes() for s in range(n))


def random_pushes(rng, count, obs_size=3, action_size=2):
    """Transitions with continuing and fresh observations, episode ends,
    zeros of both signs, and a caller that reuses its arrays."""
    values = np.array([-1.5, -0.0, 0.0, 0.25])
    nxt = rng.choice(values, obs_size)
    for _ in range(count):
        kind = rng.integers(5)
        if kind == 0:
            obs = rng.choice(values, obs_size)  # fresh: an episode end
        elif kind == 1:
            obs = np.where(nxt == 0.0, -nxt, nxt)  # equal, not byte-equal
        elif kind == 2:
            obs = nxt.copy()  # continues, as a copy
        else:
            obs = nxt  # continues, the caller's own array
        new_nxt = rng.choice(values, obs_size)
        yield (obs, rng.normal(size=action_size), float(rng.normal()), new_nxt,
               bool(rng.random() < 0.2))
        if rng.random() < 0.3:
            # The caller reuses its next-observation array after the push.
            new_nxt[:] = rng.choice(values, obs_size)
        nxt = new_nxt


@pytest.mark.parametrize("capacity", [1, 2, 5, 37])
@pytest.mark.parametrize("stream_seed", [0, 1, 2])
def test_samples_match_a_buffer_that_stores_everything(capacity, stream_seed):
    buf = replay.ReplayBuffer(capacity, obs_size=3, action_size=2)
    ref = NaiveBuffer(capacity)
    rng = np.random.default_rng(stream_seed)
    for n, transition in enumerate(random_pushes(rng, 4 * capacity + 60)):
        buf.push(*transition)
        ref.push(*transition)
        for seed in (n, n + 1000):
            got, want = buf.sample_batch(16, seed), ref.sample_batch(16, seed)
            for field in ("observations", "actions", "rewards",
                          "next_observations", "dones"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                           b.tobytes()), (n, field)
        # Each observation is stored once: only the newest transition and
        # the episode ends keep an entry, and it holds the pushed bytes.
        assert len(buf._ends) == ref.own_next_count()
        for slot, end in buf._ends.items():
            assert end.tobytes() == ref.slots[slot][3].tobytes(), (n, slot)


def test_continuing_pushes_keep_only_the_newest_next_observation():
    buf = replay.ReplayBuffer(capacity=50, obs_size=3, action_size=2)
    obs = np.zeros(3)
    for i in range(120):
        nxt = np.full(3, i + 1.0)
        buf.push(obs, np.zeros(2), 0.0, nxt, False)
        obs = nxt
    # Only the newest transition keeps its own next observation.
    assert list(buf._ends) == [buf.write_index - 1]
    assert np.array_equal(buf._ends[buf.write_index - 1], np.full(3, 120.0))
    batch = buf.sample_batch(64, seed=0)
    assert np.array_equal(batch.next_observations, batch.observations + 1.0)
