import numpy as np
import pytest

from quadrl import net, rl
from quadrl.replay import ReplayBuffer

OBS, ACT = 5, 2
HP = rl.RlHyperparams(batch_size=16)


def filled_buffer(seed=0, n=200, reward_scale=1.0):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity=1000, obs_size=OBS, action_size=ACT)
    for _ in range(n):
        buf.push(rng.normal(size=OBS), rng.uniform(-0.7, 0.7, size=ACT),
                 reward_scale * rng.normal(), rng.normal(size=OBS),
                 bool(rng.integers(0, 2)))
    return buf


def small_learner(kind, seed=0, hp=HP):
    return rl.init_learner(OBS, ACT, hp, seed, twin=kind == "td3", hidden=(8, 8))


def test_hyperparams_defaults():
    hp = rl.RlHyperparams()
    assert hp.gamma == 0.99
    assert hp.tau == 0.005
    assert hp.actor_lr == 1e-3
    assert hp.critic_lr == 1e-3
    assert hp.batch_size == 128
    assert hp.exploration_sigma == 0.07
    assert hp.policy_delay == 2
    assert hp.target_noise_sigma == pytest.approx(0.2 * 0.7)
    assert hp.target_noise_clip == pytest.approx(0.5 * 0.7)
    assert hp.action_bound == 0.7


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        rl.RlHyperparams(gamma=1.0)
    with pytest.raises(ValueError):
        rl.RlHyperparams(tau=0.0)
    with pytest.raises(ValueError):
        rl.RlHyperparams(policy_delay=0)
    with pytest.raises(ValueError):
        rl.RlHyperparams(batch_size=0)


def test_network_shapes():
    a = rl.actor_spec(48, 8)
    assert a.input_size == 48
    assert a.output_size == 8
    assert a.layers[-1].activation == "scaled_tanh"
    assert a.layers[-1].bound == 0.7
    c = rl.critic_spec(48, 8)
    assert c.input_size == 56
    assert c.output_size == 1
    assert c.layers[-1].activation == "linear"


def test_init_targets_start_equal():
    ddpg = small_learner("ddpg")
    assert len(ddpg.critics) == 1 and not ddpg.twin
    assert np.array_equal(ddpg.actor.values, ddpg.target_actor.values)
    assert np.array_equal(ddpg.critics[0].values, ddpg.target_critics[0].values)
    td3 = small_learner("td3")
    assert len(td3.critics) == 2 and td3.twin
    assert np.array_equal(td3.actor.values, td3.target_actor.values)
    assert np.array_equal(td3.critics[0].values, td3.target_critics[0].values)
    assert np.array_equal(td3.critics[1].values, td3.target_critics[1].values)
    assert not np.array_equal(td3.critics[0].values, td3.critics[1].values)
    assert td3.update_counter == 0


def test_init_seeded():
    a = small_learner("td3", seed=3)
    b = small_learner("td3", seed=3)
    c = small_learner("td3", seed=4)
    assert np.array_equal(a.actor.values, b.actor.values)
    assert not np.array_equal(a.actor.values, c.actor.values)


def test_exploration_action_noise_free_limit():
    learner = small_learner("ddpg")
    obs = np.random.default_rng(0).normal(size=OBS)
    clean = net.forward(learner.actor, obs)
    assert np.array_equal(rl.exploration_action(learner.actor, obs, 0.0, 1), clean)


def test_exploration_action_bounded_and_seeded():
    learner = small_learner("ddpg")
    rng = np.random.default_rng(2)
    for i in range(50):
        obs = rng.normal(size=OBS)
        a1 = rl.exploration_action(learner.actor, obs, 0.5, seed=i)
        a2 = rl.exploration_action(learner.actor, obs, 0.5, seed=i)
        a3 = rl.exploration_action(learner.actor, obs, 0.5, seed=i + 1000)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)
        assert np.all(np.abs(a1) <= 0.7)
    with pytest.raises(ValueError):
        rl.exploration_action(learner.actor, obs, -0.1, seed=0)


def test_ddpg_target_formula():
    learner = small_learner("ddpg", hp=rl.RlHyperparams(batch_size=16, gamma=0.9))
    buf = filled_buffer()
    batch = buf.sample_batch(16, seed=5)
    y = rl.critic_target(batch, learner, seed=0)
    a_next = net.forward(learner.target_actor, batch.next_observations)
    q_next = net.forward(learner.target_critics[0],
                         np.concatenate([batch.next_observations, a_next],
                                        axis=1))[:, 0]
    expected = batch.rewards + 0.9 * (1.0 - batch.dones) * q_next
    assert np.allclose(y, expected, atol=1e-12)
    done = batch.dones.astype(bool)
    assert np.array_equal(y[done], batch.rewards[done])


def test_smoothed_target_action_properties():
    learner = small_learner("td3")
    rng = np.random.default_rng(1)
    obs = rng.normal(size=(32, OBS))
    clean = net.forward(learner.target_actor, obs)
    for seed in range(20):
        smoothed = rl.smoothed_target_action(learner.target_actor, obs, HP, seed)
        assert np.all(np.abs(smoothed) <= HP.action_bound)
        assert np.all(np.abs(smoothed - clean) <= HP.target_noise_clip + 1e-12)
        again = rl.smoothed_target_action(learner.target_actor, obs, HP, seed)
        assert np.array_equal(smoothed, again)


def test_td3_target_uses_pessimistic_critic():
    learner = small_learner("td3")
    buf = filled_buffer(seed=3)
    for seed in range(50):
        batch = buf.sample_batch(16, seed=seed)
        y = rl.critic_target(batch, learner, seed=seed)
        a = rl.smoothed_target_action(learner.target_actor,
                                      batch.next_observations, HP, seed=seed)
        x = np.concatenate([batch.next_observations, a], axis=1)
        q1 = net.forward(learner.target_critics[0], x)[:, 0]
        q2 = net.forward(learner.target_critics[1], x)[:, 0]
        not_done = 1.0 - batch.dones
        y1 = batch.rewards + HP.gamma * not_done * q1
        y2 = batch.rewards + HP.gamma * not_done * q2
        assert np.allclose(y, np.minimum(y1, y2), atol=1e-12)
        assert np.all(y <= y1 + 1e-12)
        assert np.all(y <= y2 + 1e-12)


def test_critic_gradient_matches_finite_differences():
    learner = small_learner("ddpg", seed=2,
                            hp=rl.RlHyperparams(batch_size=8))
    buf = filled_buffer(seed=4)
    batch = buf.sample_batch(8, seed=0)
    targets = rl.critic_target(batch, learner, seed=0)
    grad = rl._critic_gradient(learner.critics[0], batch, targets)
    x = np.concatenate([batch.observations, batch.actions], axis=1)

    def loss(values):
        q = net.forward(net.unflatten(learner.critics[0].spec, values), x)[:, 0]
        return float(np.mean((q - targets) ** 2))

    v = learner.critics[0].values
    h = 1e-6
    rng = np.random.default_rng(7)
    for j in rng.choice(v.size, size=20, replace=False):
        vp, vm = v.copy(), v.copy()
        vp[j] += h
        vm[j] -= h
        fd = (loss(vp) - loss(vm)) / (2.0 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_actor_gradient_matches_finite_differences():
    learner = small_learner("ddpg", seed=5)
    buf = filled_buffer(seed=6)
    batch = buf.sample_batch(16, seed=1)
    grad = rl.actor_gradient(learner.actor, learner.critics[0], batch.observations)

    def mean_q(values):
        actor = net.unflatten(learner.actor.spec, values)
        a = net.forward(actor, batch.observations)
        x = np.concatenate([batch.observations, a], axis=1)
        return float(np.mean(net.forward(learner.critics[0], x)[:, 0]))

    v = learner.actor.values
    h = 1e-6
    rng = np.random.default_rng(8)
    for j in rng.choice(v.size, size=20, replace=False):
        vp, vm = v.copy(), v.copy()
        vp[j] += h
        vm[j] -= h
        fd = (mean_q(vp) - mean_q(vm)) / (2.0 * h)
        # actor_gradient descends -mean Q.
        assert grad[j] == pytest.approx(-fd, rel=1e-4, abs=1e-8)


def test_critic_update_reduces_bellman_error():
    learner = small_learner("ddpg", seed=9)
    buf = filled_buffer(seed=10)
    batch = buf.sample_batch(16, seed=2)
    targets = rl.critic_target(batch, learner, seed=0)
    x = np.concatenate([batch.observations, batch.actions], axis=1)

    def loss():
        q = net.forward(learner.critics[0], x)[:, 0]
        return float(np.mean((q - targets) ** 2))

    before = loss()
    for _ in range(50):
        rl.update_critic(learner, batch, targets)
    assert loss() < before


def test_actor_update_increases_mean_q():
    learner = small_learner("ddpg", seed=11)
    buf = filled_buffer(seed=12)
    batch = buf.sample_batch(16, seed=3)

    def mean_q():
        a = net.forward(learner.actor, batch.observations)
        x = np.concatenate([batch.observations, a], axis=1)
        return float(np.mean(net.forward(learner.critics[0], x)[:, 0]))

    before = mean_q()
    for _ in range(25):
        rl.update_actor(learner, batch)
    assert mean_q() > before


def test_ddpg_train_step_moves_everything():
    learner = small_learner("ddpg")
    buf = filled_buffer()
    actor0 = learner.actor.values.copy()
    critic0 = learner.critics[0].values.copy()
    t_actor0 = learner.target_actor.values.copy()
    rl.train_step(learner, buf, seed=0)
    assert not np.array_equal(learner.actor.values, actor0)
    assert not np.array_equal(learner.critics[0].values, critic0)
    assert not np.array_equal(learner.target_actor.values, t_actor0)
    # Targets move slowly: the blend keeps them near where they were.
    assert np.max(np.abs(learner.target_actor.values - t_actor0)) < 1e-3


def test_td3_actor_updates_are_delayed():
    learner = small_learner("td3")
    buf = filled_buffer()
    actor_versions = [learner.actor.values.copy()]
    for step in range(1, 7):
        rl.train_step(learner, buf, seed=step)
        actor_versions.append(learner.actor.values.copy())
    assert learner.update_counter == 6
    # Actor frozen after odd-numbered calls, moved after even-numbered ones.
    assert np.array_equal(actor_versions[1], actor_versions[0])
    assert not np.array_equal(actor_versions[2], actor_versions[1])
    assert np.array_equal(actor_versions[3], actor_versions[2])
    assert not np.array_equal(actor_versions[4], actor_versions[3])
    assert np.array_equal(actor_versions[5], actor_versions[4])
    assert not np.array_equal(actor_versions[6], actor_versions[5])


def test_td3_critics_update_every_step():
    learner = small_learner("td3")
    buf = filled_buffer()
    c1 = learner.critics[0].values.copy()
    rl.train_step(learner, buf, seed=0)
    assert not np.array_equal(learner.critics[0].values, c1)
    c1 = learner.critics[0].values.copy()
    rl.train_step(learner, buf, seed=1)
    assert not np.array_equal(learner.critics[0].values, c1)


def test_td3_targets_only_move_with_actor():
    learner = small_learner("td3")
    buf = filled_buffer()
    t0 = learner.target_critics[0].values.copy()
    rl.train_step(learner, buf, seed=0)
    assert np.array_equal(learner.target_critics[0].values, t0)
    rl.train_step(learner, buf, seed=1)
    assert not np.array_equal(learner.target_critics[0].values, t0)


def test_train_step_deterministic():
    def run(kind):
        learner = small_learner(kind, seed=1)
        buf = filled_buffer(seed=2)
        for step in range(10):
            rl.train_step(learner, buf, seed=step)
        return learner.actor.values

    for kind in ("ddpg", "td3"):
        assert np.array_equal(run(kind), run(kind))


def test_diverging_loss_raises():
    learner = small_learner("ddpg")
    buf = filled_buffer(reward_scale=1e200)
    with pytest.raises(rl.TrainingDiverged):
        for step in range(5):
            rl.train_step(learner, buf, seed=step)
