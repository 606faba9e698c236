"""The scalar simulator kernel against the numpy substep it replaced.

`env_reference` keeps the array implementation. Every test here needs
byte equality (``tobytes``, so the sign of zero counts) between the two,
on random states and on the edge cases random states rarely reach: feet
exactly at rest, feet above the ground, joints at their stops, points
off the height grid and non-finite inputs.
"""

import numpy as np
import pytest

import env_reference as ref
from quadrl import env
from quadrl.terrain import Terrain, height_at, make_terrain

CONFIG = env.RobotConfig()
TERRAINS = {
    "flat": make_terrain("flat", seed=0),
    "rough": make_terrain("rough", seed=6, amplitude=0.03),
    # 0.5 m across, so feet and torso also leave the grid and clamp.
    "small": make_terrain("rough", seed=2, amplitude=0.03, extent=0.25),
}
FIELDS = ("torso_position", "torso_orientation", "linear_velocity",
          "angular_velocity", "joint_angles", "joint_velocities",
          "previous_joint_angles", "foot_forces", "initial_position")


def _random_state(rng, terrain, case):
    state, _ = env.reset(terrain, CONFIG)
    x, y = rng.uniform(-0.6, 0.6, size=2)
    lift = 1.0 if case == "air" else rng.uniform(-0.03, 0.04)
    state.torso_position[:] = [x, y, CONFIG.stand_height + height_at(terrain, x, y)
                               + lift]
    state.torso_orientation[:] = rng.uniform(-0.4, 0.4, size=3)
    state.linear_velocity[:] = rng.normal(0.0, 0.5, size=3)
    state.angular_velocity[:] = rng.normal(0.0, 2.0, size=3)
    state.joint_angles[:] = (CONFIG.nominal_stance
                             + rng.uniform(-0.6, 0.6, size=env.N_JOINTS))
    state.joint_velocities[:] = rng.normal(0.0, 5.0, size=env.N_JOINTS)
    state.foot_forces[:] = rng.normal(0.0, 20.0, size=(env.N_LEGS, 3))
    state.timestep = int(rng.integers(0, 1000))
    torques = rng.uniform(-CONFIG.torque_limit, CONFIG.torque_limit,
                          size=env.N_JOINTS)
    if case == "rest":
        # Every foot speed is exactly 0, with zeros of both signs.
        zeros = np.where(rng.random(3) < 0.5, -0.0, 0.0)
        state.torso_orientation[:] = 0.0
        state.linear_velocity[:] = zeros
        state.angular_velocity[:] = zeros[::-1]
        state.joint_velocities[:] = np.where(rng.random(env.N_JOINTS) < 0.5, -0.0, 0.0)
        state.joint_angles[:] = CONFIG.nominal_stance
        torques = np.zeros(env.N_JOINTS)
    elif case == "stop":
        # Joints at or past a stop, driven further into it.
        side = np.where(rng.random(env.N_JOINTS) < 0.5, -1.0, 1.0)
        state.joint_angles[:] = side * (env.JOINT_RANGE - rng.uniform(0.0, 0.02)
                                        * (rng.random(env.N_JOINTS) < 0.5))
        state.joint_velocities[:] = side * rng.uniform(0.0, 10.0, size=env.N_JOINTS)
        torques = side * CONFIG.torque_limit
    return state, torques


def _fields(state):
    return tuple(getattr(state, name).tobytes() for name in FIELDS) + (state.timestep,)


def _outcome(integrate, state, torques, terrain):
    try:
        return _fields(integrate(state, torques, terrain, CONFIG))
    except env.SimulationDiverged as exc:
        return ("diverged", str(exc))


@pytest.mark.parametrize("terrain_name", sorted(TERRAINS))
def test_kernel_matches_numpy_substep(terrain_name):
    terrain = TERRAINS[terrain_name]
    rng = np.random.default_rng(sorted(TERRAINS).index(terrain_name))
    cases = ("random", "random", "rest", "air", "stop")
    stops = airborne = 0
    for k in range(400):
        state, torques = _random_state(rng, terrain, cases[k % len(cases)])
        new = ref.integrate(state, torques, terrain, CONFIG)
        assert _outcome(env.integrate, state, torques, terrain) == _fields(new), (
            f"state {k} ({cases[k % len(cases)]})")
        stops += int(np.any(np.abs(new.joint_angles) == env.JOINT_RANGE))
        airborne += int(not np.any(new.foot_forces[:, 2]))
    assert stops >= 80 and airborne >= 80


def test_kernel_matches_numpy_substep_over_episodes():
    # Chained states: what a rollout feeds the kernel, stops included.
    rng = np.random.default_rng(9)
    for terrain in TERRAINS.values():
        state, _ = env.reset(terrain, CONFIG)
        for k in range(150):
            torques = rng.uniform(-1.5, 1.5, size=env.N_JOINTS) * CONFIG.torque_limit
            torques = np.clip(torques, -CONFIG.torque_limit, CONFIG.torque_limit)
            new = ref.integrate(state, torques, terrain, CONFIG)
            assert _outcome(env.integrate, state, torques, terrain) == _fields(new), k
            state = new


def test_step_matches_numpy_forms_over_episodes():
    # The composed step against one built from the reference forms:
    # pd_torque, integrate, then reward, observation and done rule. Each
    # episode pushes every joint one way, past the action bound, so
    # episodes end by each reason.
    rng = np.random.default_rng(0)
    t_max = 40
    reasons = set()
    for terrain in TERRAINS.values():
        state, _ = env.reset(terrain, CONFIG)
        signs = rng.choice([-1.0, 1.0], size=env.N_JOINTS)
        for k in range(400):
            action = signs * rng.uniform(0.4, 1.0, size=env.N_JOINTS)
            torques = ref.pd_torque(action, state.joint_angles,
                                    state.joint_velocities, CONFIG)
            want = ref.integrate(state, torques, terrain, CONFIG)
            state, result = env.step(state, action, terrain, CONFIG, t_max)
            assert _fields(state) == _fields(want), k
            assert result.observation.tobytes() == ref.observe(want).tobytes(), k
            assert (repr(result.reward)
                    == repr(ref.compute_reward(want, CONFIG, t_max))), k
            assert result.done_reason == ref.done_reason(want, terrain, CONFIG,
                                                         t_max), k
            if result.done:
                reasons.add(result.done_reason)
                state, _ = env.reset(terrain, CONFIG)
                signs = rng.choice([-1.0, 1.0], size=env.N_JOINTS)
    assert reasons == {"fell", "tilted", "timeout"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_torque_behaves_like_numpy_substep(bad):
    for terrain in TERRAINS.values():
        state, _ = env.reset(terrain, CONFIG)
        torques = np.zeros(env.N_JOINTS)
        torques[3] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            want = _outcome(ref.integrate, state, torques, terrain)
            assert _outcome(env.integrate, state, torques, terrain) == want
            if np.isnan(bad):
                assert want[0] == "diverged"
                with pytest.raises(env.SimulationDiverged):
                    env.integrate(state, torques, terrain, CONFIG)


def test_height_matches_numpy_bilinear_rule():
    rng = np.random.default_rng(4)
    edge = [0.0, -0.0, 0.025, -0.025, 0.05, 0.25, -0.25, 0.2501, 8.0, -8.0,
            100.0, 1e19, -1e19, 1e300, np.inf, -np.inf, np.nan]
    xs = np.concatenate([rng.uniform(-9.0, 9.0, size=300), np.repeat(edge, len(edge))])
    ys = np.concatenate([rng.uniform(-9.0, 9.0, size=300), np.tile(edge, len(edge))])
    strips = {"row": Terrain("rough", 0, 0.03, 0.05, rng.uniform(size=(1, 5))),
              "column": Terrain("rough", 0, 0.03, 0.05, rng.uniform(size=(5, 1)))}
    with np.errstate(invalid="ignore"):
        for terrain in list(TERRAINS.values()) + list(strips.values()):
            want = ref.height_at(terrain, xs, ys)
            got = [height_at(terrain, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
            assert {type(h) for h in got} == {float}
            assert np.array(got).tobytes() == want.tobytes()


def test_contact_forces_match_numpy_law():
    rng = np.random.default_rng(5)
    zeros = np.array([0.0, -0.0])
    for terrain in TERRAINS.values():
        for _ in range(200):
            pos = rng.uniform(-0.3, 0.3, size=(4, 3))
            pos[:, 2] = rng.uniform(-0.01, 0.01, size=4)
            vel = rng.normal(0.0, 0.1, size=(4, 3))
            mask = rng.random((4, 3)) < 0.3
            vel[mask] = rng.choice(zeros, size=mask.sum())
            got = [env.contact_forces(height_at(terrain, x, y) - z, vx, vy, vz,
                                      CONFIG)
                   for (x, y, z), (vx, vy, vz) in zip(pos.tolist(), vel.tolist())]
            assert {type(f) for row in got for f in row} == {float}
            assert np.array(got).tobytes() == ref.contact_forces(pos, vel, terrain,
                                                                 CONFIG).tobytes()


def test_step_wrappers_match_numpy_forms():
    rng = np.random.default_rng(8)
    for terrain in TERRAINS.values():
        for k in range(600):
            state, _ = _random_state(rng, terrain, ("random", "rest", "stop")[k % 3])
            state.previous_joint_angles[:] = np.where(
                rng.random(env.N_JOINTS) < 0.2, -state.joint_angles,
                state.joint_angles + rng.normal(0.0, 0.3, size=env.N_JOINTS))
            targets = rng.uniform(-1.0, 1.0, size=env.N_JOINTS)
            assert (env.pd_torque(targets, state.joint_angles,
                                  state.joint_velocities, CONFIG).tobytes()
                    == ref.pd_torque(targets, state.joint_angles,
                                     state.joint_velocities, CONFIG).tobytes())
            assert env.observe(state).tobytes() == ref.observe(state).tobytes()
            terms = env.reward_terms(state, 1000)
            assert {type(term) for term in terms} == {float}
            assert (np.array(terms).tobytes()
                    == ref.reward_terms(state, CONFIG, 1000).tobytes())
            assert (repr(env.compute_reward(state, 1000))
                    == repr(ref.compute_reward(state, CONFIG, 1000)))
