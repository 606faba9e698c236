import numpy as np
import pytest

from quadrl import replay


def make_transition(i, obs_size=3, action_size=2):
    return replay.Transition(
        observation=np.full(obs_size, float(i)),
        action=np.full(action_size, float(i) / 10.0),
        reward=float(i),
        next_observation=np.full(obs_size, float(i) + 0.5),
        done=bool(i % 2),
    )


def test_push_and_len():
    buf = replay.ReplayBuffer(capacity=10, obs_size=3, action_size=2)
    assert len(buf) == 0
    for i in range(4):
        buf.push_transition(make_transition(i))
    assert len(buf) == 4


def test_fifo_overwrite_at_capacity():
    buf = replay.ReplayBuffer(capacity=5, obs_size=3, action_size=2)
    for i in range(8):
        buf.push_transition(make_transition(i))
    assert len(buf) == 5
    batch = buf.sample_batch(200, seed=0)
    # Entries 0..2 were overwritten by 5..7; only 3..7 remain.
    seen = set(batch.rewards.tolist())
    assert seen <= {3.0, 4.0, 5.0, 6.0, 7.0}
    assert len(seen) == 5


def test_sample_batch_shapes_and_reproducibility():
    buf = replay.ReplayBuffer(capacity=100, obs_size=3, action_size=2)
    for i in range(30):
        buf.push_transition(make_transition(i))
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
    buf.push_transition(make_transition(4))
    batch = buf.sample_batch(8, seed=0)
    assert len(batch) == 8
    assert np.all(batch.rewards == 4.0)


def test_sample_rows_are_stored_transitions():
    buf = replay.ReplayBuffer(capacity=50, obs_size=3, action_size=2)
    originals = {}
    for i in range(20):
        t = make_transition(i)
        originals[t.reward] = t
        buf.push_transition(t)
    batch = buf.sample_batch(32, seed=1)
    for k in range(len(batch)):
        t = batch[k]
        src = originals[t.reward]
        assert np.array_equal(t.observation, src.observation)
        assert np.array_equal(t.action, src.action)
        assert np.array_equal(t.next_observation, src.next_observation)
        assert t.done == src.done


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
    buf.push_transition(make_transition(1))
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
    buf.push_transition(make_transition(0))
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
    buf.push_transition(make_transition(0, obs_size=48, action_size=8))
    # A million-slot buffer must not preallocate its full footprint.
    assert buf._obs.shape[0] < 100_000
    assert len(buf) == 1
