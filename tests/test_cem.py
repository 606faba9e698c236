import numpy as np
import pytest

from quadrl import cem
from quadrl.env import OBS_SIZE, QuadrupedEnv
from quadrl.replay import ReplayBuffer
from quadrl.rl import RlHyperparams, init_learner
from quadrl.terrain import make_terrain


def simple_state(dim=1, mean=0.0, variance=1.0, pop=4, elites=2,
                 noise_floor=1e-3):
    return cem.CemState(np.full(dim, float(mean)), np.full(dim, float(variance)),
                        noise_floor, pop, elites)


def test_state_validation():
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), np.zeros(2), 1e-3, 4, 2)
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), -np.ones(3), 1e-3, 4, 2)
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), np.ones(3), 1e-3, 1, 1)
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), np.ones(3), 1e-3, 4, 5)
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), np.ones(3), -1.0, 4, 2)
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), np.ones(3), 1e-3, 4, 2, noise_decay=0.0)


def test_elite_weights_known_values():
    w2 = cem.elite_weights(2)
    raw = np.log(3.0) - np.log([1.0, 2.0])
    assert np.allclose(w2, raw / raw.sum(), atol=1e-15)
    assert np.allclose(w2, [0.73042271, 0.26957729], atol=1e-8)
    assert cem.elite_weights(1)[0] == pytest.approx(1.0, abs=0)


def test_elite_weights_properties():
    for k in range(1, 12):
        w = cem.elite_weights(k)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) < 0.0) or k == 1
    with pytest.raises(ValueError):
        cem.elite_weights(0)


def test_sample_population_shape_and_seeding():
    state = simple_state(dim=3, pop=6)
    a = cem.sample_population(state, seed=5)
    b = cem.sample_population(state, seed=5)
    c = cem.sample_population(state, seed=6)
    assert len(a) == 6
    assert all(ind.params.shape == (3,) for ind in a)
    assert all(np.isnan(ind.fitness) for ind in a)
    assert all(not ind.rl_updated for ind in a)
    for x, y in zip(a, b):
        assert np.array_equal(x.params, y.params)
    assert not np.array_equal(a[0].params, c[0].params)


def test_sample_population_statistics():
    state = cem.CemState(np.array([3.0, -1.0]), np.array([0.25, 4.0]),
                         0.0, 4000, 10)
    draws = np.stack([ind.params for ind in cem.sample_population(state, 0)])
    assert np.allclose(draws.mean(axis=0), [3.0, -1.0], atol=0.1)
    assert np.allclose(draws.std(axis=0), [0.5, 2.0], rtol=0.1)


def test_sample_population_noise_floor_keeps_spread():
    state = cem.CemState(np.zeros(1), np.zeros(1), 0.01, 1000, 10)
    draws = np.stack([ind.params for ind in cem.sample_population(state, 1)])
    assert draws.std() == pytest.approx(0.1, rel=0.1)


def test_cem_update_hand_example():
    # 1-D, two elites at 2 and 4 from a zero mean: the log-rank weights
    # are [0.7304, 0.2696], so the new mean is 2.539 and the refit
    # variance is 0.7304*4 + 0.2696*16 plus the noise floor.
    floor = 1e-3
    state = cem.CemState(np.zeros(1), np.ones(1), floor, 4, 2)
    individuals = [
        cem.Individual(np.array([2.0])),
        cem.Individual(np.array([4.0])),
        cem.Individual(np.array([-5.0])),
        cem.Individual(np.array([0.5])),
    ]
    new = cem.cem_update(state, individuals, [10.0, 5.0, -1.0, 0.0])
    assert new.mean[0] == pytest.approx(2.539, abs=1e-3)
    assert new.variance[0] == pytest.approx(7.235 + floor, abs=1e-3)
    assert new.generation == 1


def test_cem_update_identical_elites_collapse_to_floor():
    state = simple_state(dim=2, mean=1.5, variance=3.0, pop=4, elites=2,
                         noise_floor=1e-3)
    individuals = [cem.Individual(np.full(2, 1.5)) for _ in range(4)]
    new = cem.cem_update(state, individuals, [3.0, 2.0, 1.0, 0.0])
    assert np.allclose(new.mean, 1.5, atol=0)
    assert np.allclose(new.variance, 1e-3, atol=1e-15)


def test_cem_update_variance_refit_about_old_mean():
    # Single elite at z with old mean m: sigma^2 = (z - m)^2 + floor,
    # not zero, because the refit centers on the pre-update mean.
    state = cem.CemState(np.array([1.0]), np.array([1.0]), 0.0, 2, 1)
    individuals = [cem.Individual(np.array([4.0])), cem.Individual(np.array([0.0]))]
    new = cem.cem_update(state, individuals, [1.0, 0.0])
    assert new.mean[0] == pytest.approx(4.0, abs=0)
    assert new.variance[0] == pytest.approx(9.0, abs=1e-12)


def test_cem_update_permutation_invariant():
    rng = np.random.default_rng(2)
    state = cem.CemState(rng.normal(size=4), np.ones(4), 1e-3, 8, 3)
    individuals = [cem.Individual(rng.normal(size=4)) for _ in range(8)]
    fitnesses = rng.normal(size=8)  # distinct with probability 1
    ref = cem.cem_update(state, individuals, fitnesses)
    for _ in range(50):
        perm = rng.permutation(8)
        shuffled = [individuals[i] for i in perm]
        new = cem.cem_update(state, shuffled, fitnesses[perm])
        assert np.allclose(new.mean, ref.mean, atol=1e-12)
        assert np.allclose(new.variance, ref.variance, atol=1e-12)


def test_cem_update_tie_prefers_lower_index():
    state = cem.CemState(np.zeros(1), np.ones(1), 0.0, 3, 1)
    individuals = [cem.Individual(np.array([1.0])),
                   cem.Individual(np.array([2.0])),
                   cem.Individual(np.array([3.0]))]
    new = cem.cem_update(state, individuals, [5.0, 5.0, 0.0])
    assert new.mean[0] == pytest.approx(1.0, abs=0)


def test_cem_update_rejects_bad_fitness():
    state = simple_state(pop=3, elites=2)
    individuals = [cem.Individual(np.zeros(1)) for _ in range(3)]
    with pytest.raises(ValueError):
        cem.cem_update(state, individuals, [1.0, 2.0])
    with pytest.raises(ValueError):
        cem.cem_update(state, individuals, [1.0, np.nan, 2.0])


def test_decay_noise():
    state = cem.CemState(np.zeros(1), np.ones(1), 1e-3, 4, 2,
                         noise_floor_final=1e-5, noise_decay=0.95)
    once = cem.decay_noise(state)
    assert once.noise_floor == pytest.approx(9.5e-4, abs=1e-12)
    for _ in range(500):
        state = cem.decay_noise(state)
    assert state.noise_floor == pytest.approx(1e-5, abs=0)


def test_decay_noise_monotone():
    state = simple_state()
    floors = []
    for _ in range(20):
        state = cem.decay_noise(state)
        floors.append(state.noise_floor)
    assert all(b <= a for a, b in zip(floors, floors[1:]))


def test_solve_toy_quadratic():
    state = cem.CemState(np.full(2, 5.0), np.full(2, 4.0), 1e-6, 16, 8,
                         noise_floor_final=1e-12, noise_decay=0.9)
    best, final = cem.cem_solve_toy(lambda p: -float(p @ p), 2, state,
                                    generations=40, seed=0)
    assert np.linalg.norm(final.mean) < 1e-2
    assert -float(best @ best) >= -1e-3
    assert final.generation == 40


def test_solve_toy_returns_best_ever():
    # An objective that punishes late generations still reports the best
    # parameters seen, not the final mean.
    calls = {"n": 0}

    def objective(p):
        calls["n"] += 1
        return -abs(float(p[0]) - 1.0)

    state = cem.CemState(np.zeros(1), np.ones(1), 1e-6, 8, 4)
    best, _ = cem.cem_solve_toy(objective, 1, state, generations=30, seed=1)
    assert abs(best[0] - 1.0) < 0.05
    assert calls["n"] == 30 * 8


def test_solve_toy_dimension_check():
    state = simple_state(dim=2)
    with pytest.raises(ValueError):
        cem.cem_solve_toy(lambda p: 0.0, 3, state, 1)


def make_generation_fixture(batch_size=8):
    terrain = make_terrain("flat", seed=0)
    hp = RlHyperparams(batch_size=batch_size)
    learner = init_learner(OBS_SIZE, 8, hp, seed=0, twin=True, hidden=(8, 8))
    dim = learner.actor.spec.param_count
    state = cem.CemState(learner.actor.values.copy(), np.full(dim, 1e-4),
                         1e-5, 4, 2)
    buffer = ReplayBuffer(capacity=10000, obs_size=OBS_SIZE, action_size=8)
    return state, learner, buffer, QuadrupedEnv(terrain, t_max=5)


def test_generation_collects_transitions_and_logs():
    state, learner, buffer, env = make_generation_fixture()
    new_state, log = cem.cem_rl_generation(
        state, learner, env, buffer, grad_steps=0, seed=0)
    assert new_state.generation == 1
    assert log.generation == 1
    assert len(buffer) == log.transitions_collected == 4 * 5
    assert log.buffer_size == len(buffer)
    assert len(log.fitnesses) == 4
    assert log.best_fitness == max(log.fitnesses)
    assert log.best_fitness >= log.median_fitness
    assert np.isnan(log.rl_mean_fitness)  # nobody was gradient-coached
    assert log.evo_mean_fitness == pytest.approx(np.mean(log.fitnesses))
    assert log.best_params.shape == state.mean.shape


def test_generation_skips_coaching_until_buffer_fills():
    state, learner, buffer, env = make_generation_fixture(batch_size=512)
    _, log = cem.cem_rl_generation(
        state, learner, env, buffer, grad_steps=3, seed=0)
    # 20 transitions < batch 512, so no individual got gradient steps.
    assert np.isnan(log.rl_mean_fitness)


def test_generation_coaches_first_half_once_possible():
    state, learner, buffer, env = make_generation_fixture(batch_size=8)
    state, _ = cem.cem_rl_generation(
        state, learner, env, buffer, grad_steps=0, seed=0)
    _, log = cem.cem_rl_generation(
        state, learner, env, buffer, grad_steps=2, seed=1)
    assert not np.isnan(log.rl_mean_fitness)
    assert not np.isnan(log.evo_mean_fitness)


def test_generation_deterministic():
    def run():
        state, learner, buffer, env = make_generation_fixture()
        for g in range(3):
            state, log = cem.cem_rl_generation(
                state, learner, env, buffer, grad_steps=1, seed=g)
        return state, log

    s1, l1 = run()
    s2, l2 = run()
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.variance, s2.variance)
    assert l1.fitnesses == l2.fitnesses


def test_generation_odd_population_coaches_floor_half():
    terrain = make_terrain("flat", seed=0)
    hp = RlHyperparams(batch_size=4)
    learner = init_learner(OBS_SIZE, 8, hp, seed=0, twin=True, hidden=(8, 8))
    dim = learner.actor.spec.param_count
    state = cem.CemState(learner.actor.values.copy(), np.full(dim, 1e-4),
                         1e-5, 5, 2)
    buffer = ReplayBuffer(capacity=10000, obs_size=OBS_SIZE, action_size=8)
    env = QuadrupedEnv(terrain, t_max=3)
    state, _ = cem.cem_rl_generation(
        state, learner, env, buffer, grad_steps=0, seed=0)
    collected_before = len(buffer)
    _, log = cem.cem_rl_generation(
        state, learner, env, buffer, grad_steps=1, seed=1)
    # floor(5 / 2) = 2 coached individuals, in index order, then 3 pure draws.
    assert log.rl_mean_fitness == pytest.approx(np.mean(log.fitnesses[:2]))
    assert log.evo_mean_fitness == pytest.approx(np.mean(log.fitnesses[2:]))
    assert len(buffer) == collected_before + 5 * 3
