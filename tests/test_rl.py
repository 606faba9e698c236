import math

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
    return rl.init_learner(OBS, ACT, 0.7, hp, seed, twin=kind == "td3",
                           hidden=(8, 8))


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


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        rl.RlHyperparams(gamma=1.0)
    with pytest.raises(ValueError):
        rl.RlHyperparams(tau=0.0)
    with pytest.raises(ValueError):
        rl.RlHyperparams(policy_delay=0)
    with pytest.raises(ValueError):
        rl.RlHyperparams(batch_size=0)


@pytest.mark.parametrize("name, value", [
    ("actor_lr", math.inf), ("actor_lr", math.nan),
    ("target_noise_sigma", math.inf), ("gamma", -math.inf)])
def test_hyperparams_reject_non_finite_values(name, value):
    # Built in Python: the record's own check, which config_from_dict
    # raises under the dotted key.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        rl.RlHyperparams(**{name: value})


def test_network_shapes():
    a = rl.actor_spec(48, 8, 0.7)
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
    assert np.array_equal(rl.noisy_action(learner.actor, obs, 0.0, 1), clean)


def test_exploration_action_bounded_and_seeded():
    learner = small_learner("ddpg")
    rng = np.random.default_rng(2)
    for i in range(50):
        obs = rng.normal(size=OBS)
        a1 = rl.noisy_action(learner.actor, obs, 0.5, seed=i)
        a2 = rl.noisy_action(learner.actor, obs, 0.5, seed=i)
        a3 = rl.noisy_action(learner.actor, obs, 0.5, seed=i + 1000)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)
        assert np.all(np.abs(a1) <= 0.7)
    with pytest.raises(ValueError):
        rl.noisy_action(learner.actor, obs, -0.1, seed=0)


def smooth(target_actor, observations, seed):
    """The target action a twin learner with HP backs up at."""
    return rl.noisy_action(target_actor, observations, HP.target_noise_sigma,
                           seed, HP.target_noise_clip)


def noisy_observations(rng):
    """Single observations and batches, the shapes both noises act on."""
    return [rng.normal(size=OBS), rng.normal(size=(1, OBS)),
            rng.normal(size=(32, OBS))]


def test_noisy_action_unclipped_matches_old_exploration_bytewise():
    learner = small_learner("td3")
    actor, bound = learner.actor, learner.actor.spec.layers[-1].bound
    rng = np.random.default_rng(11)
    for seed in range(200):
        for obs in noisy_observations(rng):
            action = net.forward(actor, obs)
            noise = np.random.default_rng(seed).normal(0.0, 0.3, size=action.shape)
            expected = np.clip(action + noise, -bound, bound)
            assert (rl.noisy_action(actor, obs, 0.3, seed).tobytes()
                    == expected.tobytes())


def test_noisy_action_clipped_matches_old_smoothing_bytewise():
    learner = small_learner("td3")
    target, bound = learner.target_actor, learner.target_actor.spec.layers[-1].bound
    rng = np.random.default_rng(12)
    for seed in range(200):
        for obs in noisy_observations(rng):
            actions = net.forward(target, obs)
            noise = np.clip(np.random.default_rng(seed).normal(
                0.0, HP.target_noise_sigma, size=actions.shape),
                -HP.target_noise_clip, HP.target_noise_clip)
            expected = np.clip(actions + noise, -bound, bound)
            assert smooth(target, obs, seed).tobytes() == expected.tobytes()


def test_noise_is_clamped_to_the_actors_own_bound():
    # Both noisy actions clip where the actor's scaled_tanh output does.
    learner = rl.init_learner(OBS, ACT, 0.3, HP, 0, twin=True, hidden=(8, 8))
    obs = np.random.default_rng(3).normal(size=(64, OBS))
    explored = np.array([rl.noisy_action(learner.actor, o, 5.0, seed)
                         for seed, o in enumerate(obs)])
    smoothed = rl.noisy_action(learner.target_actor, obs, 5.0, 0, noise_clip=5.0)
    for actions in (explored, smoothed):
        assert np.abs(actions).max() == 0.3


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
        smoothed = smooth(learner.target_actor, obs, seed)
        assert np.all(np.abs(smoothed) <= 0.7)
        assert np.all(np.abs(smoothed - clean) <= HP.target_noise_clip + 1e-12)
        again = smooth(learner.target_actor, obs, seed)
        assert np.array_equal(smoothed, again)


def test_td3_target_uses_pessimistic_critic():
    learner = small_learner("td3")
    buf = filled_buffer(seed=3)
    for seed in range(50):
        batch = buf.sample_batch(16, seed=seed)
        y = rl.critic_target(batch, learner, seed=seed)
        a = smooth(learner.target_actor, batch.next_observations, seed)
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
    x = np.concatenate([batch.observations, batch.actions], axis=1)
    grad = rl._critic_gradient(learner.critics[0], x, targets)

    def loss(values):
        q = net.forward(net.ParamVector(values, learner.critics[0].spec), x)[:, 0]
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
        actor = net.ParamVector(values, learner.actor.spec)
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


@pytest.mark.parametrize("kind, passes", [("td3", [5, 7, 5, 7]),
                                          ("ddpg", [5, 5])])
def test_train_step_network_evaluations(monkeypatch, kind, passes):
    """Network passes per update, counted as activations over 3 layers.

    Targets take the target actor and every target critic, and each
    critic's gradient takes one recorded pass: 5 for both learners. An
    actor step adds the actor and the first critic, every call for a
    single critic and every second call for a twin pair.
    """
    learner = small_learner(kind)
    buf = filled_buffer()
    activate = net._activate
    calls = []

    def counting(z, layer):
        calls.append(layer)
        return activate(z, layer)

    monkeypatch.setattr(net, "_activate", counting)
    per_step = []
    for step in range(len(passes)):
        calls.clear()
        rl.train_step(learner, buf, seed=step)
        per_step.append(len(calls))
    assert per_step == [3 * n for n in passes]


def test_diverging_loss_raises():
    learner = small_learner("ddpg")
    buf = filled_buffer(reward_scale=1e200)
    with pytest.raises(rl.TrainingDiverged):
        for step in range(5):
            rl.train_step(learner, buf, seed=step)
