import tracemalloc
import weakref

import numpy as np
import pytest

import quadrl.train
from quadrl import cem
from quadrl.config import CemHyperparams, parse_config
from quadrl.env import OBS_SIZE, QuadrupedEnv
from quadrl.replay import ReplayBuffer
from quadrl.rl import RlHyperparams, init_learner
from quadrl.seeds import SeedStream
from quadrl.terrain import make_terrain
from test_hygiene import TINY_COACHED_CEM
from toytask import cem_solve_toy


def cem_hp(pop, elites, **kwargs):
    return CemHyperparams(population_size=pop, elite_count=elites, **kwargs)


def simple_state(dim=1, mean=0.0, variance=1.0, pop=4, elites=2,
                 noise_floor=1e-3):
    return cem.CemState(np.full(dim, float(mean)), np.full(dim, float(variance)),
                        noise_floor, cem_hp(pop, elites))


def test_state_validation():
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), np.zeros(2), 1e-3, cem_hp(4, 2))
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), -np.ones(3), 1e-3, cem_hp(4, 2))
    with pytest.raises(ValueError):
        cem.CemState(np.zeros(3), np.ones(3), -1.0, cem_hp(4, 2))


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
    assert a.shape == (6, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], c[0])


def test_sample_population_statistics():
    state = cem.CemState(np.array([3.0, -1.0]), np.array([0.25, 4.0]),
                         0.0, cem_hp(4000, 10))
    draws = cem.sample_population(state, 0)
    assert np.allclose(draws.mean(axis=0), [3.0, -1.0], atol=0.1)
    assert np.allclose(draws.std(axis=0), [0.5, 2.0], rtol=0.1)


def test_sample_population_noise_floor_keeps_spread():
    state = cem.CemState(np.zeros(1), np.zeros(1), 0.01, cem_hp(1000, 10))
    draws = cem.sample_population(state, 1)
    assert draws.std() == pytest.approx(0.1, rel=0.1)


def test_cem_update_hand_example():
    # 1-D, two elites at 2 and 4 from a zero mean: the log-rank weights
    # are [0.7304, 0.2696], so the new mean is 2.539 and the refit
    # variance is 0.7304*4 + 0.2696*16 plus the noise floor.
    floor = 1e-3
    state = cem.CemState(np.zeros(1), np.ones(1), floor, cem_hp(4, 2))
    population = np.array([[2.0], [4.0], [-5.0], [0.5]])
    new = cem.cem_update(state, population, [10.0, 5.0, -1.0, 0.0])
    assert new.mean[0] == pytest.approx(2.539, abs=1e-3)
    assert new.variance[0] == pytest.approx(7.235 + floor, abs=1e-3)


def test_cem_update_identical_elites_collapse_to_floor():
    state = simple_state(dim=2, mean=1.5, variance=3.0, pop=4, elites=2,
                         noise_floor=1e-3)
    new = cem.cem_update(state, np.full((4, 2), 1.5), [3.0, 2.0, 1.0, 0.0])
    assert np.allclose(new.mean, 1.5, atol=0)
    assert np.allclose(new.variance, 1e-3, atol=1e-15)


def test_cem_update_variance_refit_about_old_mean():
    # Single elite at z with old mean m: sigma^2 = (z - m)^2 + floor,
    # not zero, because the refit centers on the pre-update mean.
    state = cem.CemState(np.array([1.0]), np.array([1.0]), 0.0, cem_hp(2, 1))
    new = cem.cem_update(state, np.array([[4.0], [0.0]]), [1.0, 0.0])
    assert new.mean[0] == pytest.approx(4.0, abs=0)
    assert new.variance[0] == pytest.approx(9.0, abs=1e-12)


def test_cem_update_permutation_invariant():
    rng = np.random.default_rng(2)
    state = cem.CemState(rng.normal(size=4), np.ones(4), 1e-3, cem_hp(8, 3))
    population = rng.normal(size=(8, 4))
    fitnesses = rng.normal(size=8)  # distinct with probability 1
    ref = cem.cem_update(state, population, fitnesses)
    for _ in range(50):
        perm = rng.permutation(8)
        new = cem.cem_update(state, population[perm], fitnesses[perm])
        assert np.allclose(new.mean, ref.mean, atol=1e-12)
        assert np.allclose(new.variance, ref.variance, atol=1e-12)


def test_cem_update_tie_prefers_lower_index():
    state = cem.CemState(np.zeros(1), np.ones(1), 0.0, cem_hp(3, 1))
    population = np.array([[1.0], [2.0], [3.0]])
    new = cem.cem_update(state, population, [5.0, 5.0, 0.0])
    assert new.mean[0] == pytest.approx(1.0, abs=0)


def test_cem_update_rejects_bad_fitness():
    state = simple_state(pop=3, elites=2)
    population = np.zeros((3, 1))
    with pytest.raises(ValueError):
        cem.cem_update(state, population, [1.0, 2.0])
    with pytest.raises(ValueError):
        cem.cem_update(state, population, [1.0, np.nan, 2.0])


def decayed(state):
    """cem_update over a fixed population; the floor it returns is read here."""
    pop, dim = state.hp.population_size, state.mean.size
    return cem.cem_update(state, np.zeros((pop, dim)), np.arange(pop, dtype=float))


def test_decay_noise():
    state = cem.CemState(np.zeros(1), np.ones(1), 1e-3,
                         cem_hp(4, 2, noise_floor_final=1e-5, noise_decay=0.95))
    once = decayed(state)
    assert once.noise_floor == pytest.approx(9.5e-4, abs=1e-12)
    for _ in range(500):
        state = decayed(state)
    assert state.noise_floor == pytest.approx(1e-5, abs=0)


def test_decay_noise_monotone():
    state = simple_state()
    floors = []
    for _ in range(20):
        state = decayed(state)
        floors.append(state.noise_floor)
    assert all(b <= a for a, b in zip(floors, floors[1:]))


def test_solve_toy_quadratic():
    state = cem.CemState(np.full(2, 5.0), np.full(2, 4.0), 1e-6,
                         cem_hp(16, 8, noise_floor_final=1e-12, noise_decay=0.9))
    best, final = cem_solve_toy(lambda p: -float(p @ p), 2, state,
                                generations=40, seed=0)
    assert np.linalg.norm(final.mean) < 1e-2
    assert -float(best @ best) >= -1e-3


def test_solve_toy_returns_best_ever():
    # An objective that punishes late generations still reports the best
    # parameters seen, not the final mean.
    calls = {"n": 0}

    def objective(p):
        calls["n"] += 1
        return -abs(float(p[0]) - 1.0)

    state = cem.CemState(np.zeros(1), np.ones(1), 1e-6, cem_hp(8, 4))
    best, _ = cem_solve_toy(objective, 1, state, generations=30, seed=1)
    assert abs(best[0] - 1.0) < 0.05
    assert calls["n"] == 30 * 8


def test_solve_toy_dimension_check():
    state = simple_state(dim=2)
    with pytest.raises(ValueError):
        cem_solve_toy(lambda p: 0.0, 3, state, 1)


def make_generation_fixture(batch_size=8, pop=4, t_max=5, **cem_kwargs):
    terrain = make_terrain("flat", seed=0)
    hp = RlHyperparams(batch_size=batch_size)
    learner = init_learner(OBS_SIZE, 8, 0.7, hp, seed=0, twin=True, hidden=(8, 8))
    dim = learner.actor.spec.param_count
    state = cem.CemState(learner.actor.values.copy(), np.full(dim, 1e-4),
                         1e-5, cem_hp(pop, 2, **cem_kwargs))
    buffer = ReplayBuffer(capacity=10000, obs_size=OBS_SIZE, action_size=8)
    return state, learner, buffer, QuadrupedEnv(terrain, t_max=t_max)


def test_generation_collects_transitions_and_logs():
    state, learner, buffer, env = make_generation_fixture()
    new_state, log = cem.cem_rl_generation(state, learner, env, buffer, 0, seed=0)
    # The generation's one update is cem_update over what it rolled out.
    refit = cem.cem_update(state, log.population, log.fitnesses)
    assert new_state.mean.tobytes() == refit.mean.tobytes()
    assert new_state.variance.tobytes() == refit.variance.tobytes()
    assert new_state.noise_floor == refit.noise_floor
    assert len(buffer) == env.total_steps == 4 * 5
    assert log.fitnesses.shape == (4,)
    assert log.population.shape == (4, state.mean.size)
    assert log.coached == 0  # the first generation has nothing to coach with


def test_generation_skips_coaching_until_buffer_fills():
    state, learner, buffer, env = make_generation_fixture(batch_size=512)
    # 6 previous transitions give 6 // 2 = 3 steps per coached member, but
    # the buffer holds fewer than a batch of 512, so nobody is coached.
    _, log = cem.cem_rl_generation(state, learner, env, buffer, 6, seed=0)
    assert log.coached == 0


def test_generation_coaches_first_half_once_possible():
    state, learner, buffer, env = make_generation_fixture(batch_size=8)
    state, _ = cem.cem_rl_generation(state, learner, env, buffer, 0, seed=0)
    _, log = cem.cem_rl_generation(state, learner, env, buffer, 4, seed=1)
    assert log.coached == 2


def test_generation_deterministic():
    def run():
        state, learner, buffer, env = make_generation_fixture()
        for g in range(3):
            state, log = cem.cem_rl_generation(state, learner, env, buffer, 2,
                                               seed=g)
        return state, log

    s1, l1 = run()
    s2, l2 = run()
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.variance, s2.variance)
    assert np.array_equal(l1.fitnesses, l2.fitnesses)
    assert np.array_equal(l1.population, l2.population)


def test_generation_odd_population_coaches_floor_half():
    state, learner, buffer, env = make_generation_fixture(batch_size=4, pop=5,
                                                          t_max=3)
    state, _ = cem.cem_rl_generation(state, learner, env, buffer, 0, seed=0)
    collected_before = len(buffer)
    _, log = cem.cem_rl_generation(state, learner, env, buffer, 2, seed=1)
    # floor(5 / 2) = 2 coached individuals, in index order, then 3 pure draws.
    drawn = cem.sample_population(state, SeedStream(1).next())
    assert log.coached == 2
    assert np.array_equal(log.population[2:], drawn[2:])
    assert len(buffer) == collected_before + 5 * 3


@pytest.mark.parametrize("pop, cap, previous, batch_size, steps", [
    (4, 100, 0, 8, 0),        # the first generation
    (4, 100, 1, 8, 0),        # 1 // 2 = 0 steps per member
    (4, 100, 20, 512, 0),     # the buffer holds less than a batch
    (4, 100, 20, 8, 2 * 10),
    (4, 100, 21, 8, 2 * 10),  # the remainder of previous // half is dropped
    (4, 3, 20, 8, 2 * 3),     # grad_steps_cap binds
    (5, 100, 9, 8, 2 * 4),    # an odd population coaches floor(5 / 2) = 2
    (5, 3, 9, 8, 2 * 3),
])
def test_generation_coaching_schedule(monkeypatch, pop, cap, previous,
                                      batch_size, steps):
    # Each coached member takes min(cap, previous // half) gradient steps.
    state, learner, buffer, env = make_generation_fixture(
        batch_size=batch_size, pop=pop, grad_steps_cap=cap)
    for _ in range(previous):
        buffer.push(np.zeros(OBS_SIZE), np.zeros(8), 0.0, np.zeros(OBS_SIZE),
                    False)
    counters = []

    def count_step(lrn, buf, seed):
        counters.append(lrn.update_counter)
        lrn.update_counter += 1

    monkeypatch.setattr("quadrl.cem.train_step", count_step)
    _, log = cem.cem_rl_generation(state, learner, env, buffer, previous, seed=0)
    assert len(counters) == steps
    half = pop // 2
    assert log.coached == (half if steps else 0)
    # Each coached member starts from a fresh actor, update_counter 0.
    assert counters == list(range(steps // half)) * half


# The benchmark's CEM-TD3 population: 8 actors of the default 48-64-64-8
# architecture's 7816 parameters, 4 of them elites.
BENCH_POP, BENCH_ELITES, ACTOR_PARAMS = 8, 4, 7816


def random_state(rng, dim, pop, elites):
    # Variances span several decades, and the mean has both signs.
    return cem.CemState(rng.normal(scale=3.0, size=dim),
                        10.0 ** rng.uniform(-8, 1, size=dim),
                        float(rng.choice([0.0, 1e-5, 1e-3])), cem_hp(pop, elites))


STATE_SHAPES = [(1, 2, 1), (3, 4, 2), (17, 5, 2), (1001, 10, 5),
                (ACTOR_PARAMS, BENCH_POP, BENCH_ELITES)]


@pytest.mark.parametrize("dim, pop, elites", STATE_SHAPES)
def test_sample_population_matches_old_expression_bytewise(dim, pop, elites):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        state = random_state(rng, dim, pop, elites)
        seed = int(rng.integers(0, 2**63))
        # The broadcast the in-place scaling replaced.
        std = np.sqrt(state.variance + state.noise_floor)
        draws = np.random.default_rng(seed).standard_normal((pop, dim))
        expected = state.mean + std * draws
        assert cem.sample_population(state, seed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim, pop, elites", STATE_SHAPES)
def test_cem_update_matches_old_expression_bytewise(dim, pop, elites):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        state = random_state(rng, dim, pop, elites)
        population = cem.sample_population(state, int(rng.integers(0, 2**63)))
        fitnesses = rng.normal(size=pop)
        # The refit with the squared deviations built as a new array.
        elites_rows = population[np.argsort(-fitnesses, kind="stable")[:elites]]
        weights = cem.elite_weights(elites)
        centered = elites_rows - state.mean
        variance = weights @ (centered * centered) + state.noise_floor
        floor = max(state.hp.noise_floor_final,
                    state.noise_floor * state.hp.noise_decay)
        new = cem.cem_update(state, population, fitnesses)
        assert new.mean.tobytes() == (weights @ elites_rows).tobytes()
        assert new.variance.tobytes() == variance.tobytes()
        assert new.noise_floor == floor  # decayed after the refit read it


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees during one call of fn(*args), after one
    untraced warm-up call; the result counts while it is still held."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_state():
    return random_state(np.random.default_rng(0), ACTOR_PARAMS, BENCH_POP,
                        BENCH_ELITES)


def test_sampling_builds_one_population_sized_array():
    # The population itself plus a few parameter-sized vectors; the
    # broadcast form peaked at about 3.1 population sizes.
    population_bytes = BENCH_POP * ACTOR_PARAMS * 8
    peak = traced_peak(cem.sample_population, bench_state(), 1)
    assert peak < 1.5 * population_bytes


def test_refit_holds_two_elite_blocks():
    # The elite rows and their deviations, squared in place, plus a few
    # parameter-sized vectors; a separate square peaked at about 3.5 blocks.
    state = bench_state()
    population = cem.sample_population(state, 1)
    fitnesses = np.random.default_rng(2).normal(size=BENCH_POP)
    elite_bytes = BENCH_ELITES * ACTOR_PARAMS * 8
    peak = traced_peak(cem.cem_update, state, population, fitnesses)
    assert peak < 3 * elite_bytes


def test_train_frees_a_generation_before_sampling_the_next(monkeypatch, tmp_path):
    populations = []  # weakrefs to each generation's population
    alive_at_sampling = []  # how many earlier populations each draw saw alive
    run_generation, sample = quadrl.train.cem_rl_generation, cem.sample_population

    def generation(*args):
        state, log = run_generation(*args)
        populations.append(weakref.ref(log.population))
        return state, log

    def sampling(*args):
        alive_at_sampling.append(sum(ref() is not None for ref in populations))
        return sample(*args)

    monkeypatch.setattr("quadrl.train.cem_rl_generation", generation)
    monkeypatch.setattr("quadrl.cem.sample_population", sampling)
    config = parse_config("t_max = 20\ngenerations = 2\ncem.population_size = 4\n"
                          "cem.elite_count = 2", algorithm="cem_td3",
                          out_dir=str(tmp_path))
    quadrl.train.train(config)
    assert len(populations) == 2
    assert alive_at_sampling == [0, 0]


def test_train_coaches_from_the_previous_generations_steps(monkeypatch, tmp_path):
    # Once the buffer holds a batch, generation g gives each of its half
    # coached members min(grad_steps_cap, steps_{g-1} // half) gradient
    # steps, steps_{g-1} being the env steps generation g - 1 ran.
    calls, per_generation = [], []
    run_generation, run_step = quadrl.train.cem_rl_generation, cem.train_step

    def generation(*args):
        before = len(calls)
        result = run_generation(*args)
        per_generation.append(len(calls) - before)
        return result

    def step(*args):
        calls.append(None)
        return run_step(*args)

    monkeypatch.setattr("quadrl.train.cem_rl_generation", generation)
    monkeypatch.setattr("quadrl.cem.train_step", step)
    config = parse_config(TINY_COACHED_CEM, algorithm="cem_td3",
                          out_dir=str(tmp_path))
    _, metrics_path = quadrl.train.train(config)
    with open(metrics_path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    column = quadrl.train.CEM_HEADER.split(",").index("buffer_size")
    sizes = [int(line.split(",")[column]) for line in lines[1:]]
    steps = [sizes[0]] + [b - a for a, b in zip(sizes, sizes[1:])]
    half, cap = config.cem.population_size // 2, config.cem.grad_steps_cap
    expected = [0] + [half * min(cap, ran // half)
                      if size >= config.rl.batch_size else 0
                      for ran, size in zip(steps[:-1], sizes[:-1])]
    assert len(per_generation) == config.generations == len(sizes)
    assert per_generation == expected
    assert sum(expected) > 0
