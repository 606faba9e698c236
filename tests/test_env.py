import dataclasses
import math

import numpy as np
import pytest

import env_reference as ref
from quadrl import env
from quadrl.terrain import Terrain, height_at, make_terrain

FLAT = make_terrain("flat", seed=0)
CONFIG = env.RobotConfig()


def standing_state():
    state, _ = env.reset(FLAT, CONFIG)
    return state


def test_config_defaults_and_validation():
    assert CONFIG.mass == 5.0
    assert CONFIG.torque_limit == 5.0
    assert CONFIG.dt == 0.01
    assert CONFIG.action_bound == 0.7
    with pytest.raises(ValueError):
        env.RobotConfig(mass=-1.0)
    with pytest.raises(ValueError):
        env.RobotConfig(substeps=0)


@pytest.mark.parametrize("name, value", [
    ("mass", math.inf), ("contact_stiffness", math.inf), ("dt", math.nan),
    ("stance_hip", math.nan), ("stance_knee", -math.inf)])
def test_config_rejects_non_finite_values(name, value):
    # Built in Python: the record's own check, which config_from_dict
    # raises under the dotted key.
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        env.RobotConfig(**{name: value})


def test_stand_height_closed_form():
    expected = 0.12 * np.cos(0.3) + 0.12 * np.cos(-0.3)
    assert CONFIG.stand_height == pytest.approx(expected, abs=1e-15)


def kernel_rotation(roll, pitch, yaw):
    """The kernel's rotation as a matrix: its entries come column by column."""
    return np.array(env._rotation_columns(roll, pitch, yaw)).reshape(3, 3).T


def test_rotation_matrix_identity_at_zero():
    assert np.allclose(kernel_rotation(0.0, 0.0, 0.0), np.eye(3), atol=0)


def test_rotation_matrix_orthonormal_and_composed():
    rng = np.random.default_rng(0)
    for _ in range(25):
        roll, pitch, yaw = rng.uniform(-1.0, 1.0, size=3)
        rot = kernel_rotation(roll, pitch, yaw)
        # The reference keeps its own copy of the rule, entry for entry.
        assert (np.ascontiguousarray(rot).tobytes()
                == ref.rotation_matrix(np.array([roll, pitch, yaw])).tobytes())
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        rx = np.array([[1, 0, 0],
                       [0, np.cos(roll), -np.sin(roll)],
                       [0, np.sin(roll), np.cos(roll)]])
        ry = np.array([[np.cos(pitch), 0, np.sin(pitch)],
                       [0, 1, 0],
                       [-np.sin(pitch), 0, np.cos(pitch)]])
        rz = np.array([[np.cos(yaw), -np.sin(yaw), 0],
                       [np.sin(yaw), np.cos(yaw), 0],
                       [0, 0, 1]])
        assert np.allclose(rot, rz @ ry @ rx, atol=1e-12)


def test_reset_pose_and_observation():
    state, obs = env.reset(FLAT, CONFIG)
    assert obs.shape == (env.OBS_SIZE,)
    assert np.all(np.isfinite(obs))
    assert state.torso_position[2] == pytest.approx(CONFIG.stand_height, abs=1e-15)
    assert np.array_equal(state.torso_orientation, np.zeros(3))
    assert np.array_equal(state.joint_angles, CONFIG.nominal_stance)
    assert state.timestep == 0


def test_reset_on_rough_terrain_sits_on_local_ground():
    rough = make_terrain("rough", seed=8)
    state, _ = env.reset(rough, CONFIG)
    expected = CONFIG.stand_height + height_at(rough, 0.0, 0.0)
    assert state.torso_position[2] == pytest.approx(expected, abs=1e-15)


def test_feet_under_hips_at_nominal_stance():
    # hip + knee = 0.3 - 0.6 mirrors the hip angle, so both link x
    # offsets cancel and each foot sits directly below its hip.
    state = standing_state()
    feet = ref.forward_kinematics(state, CONFIG)
    assert np.allclose(feet[:, :2], CONFIG.hip_offsets[:, :2], atol=1e-15)
    assert np.allclose(feet[:, 2], 0.0, atol=1e-15)


def test_state_is_one_array_in_the_observation_layout():
    state = standing_state()
    assert [f.name for f in dataclasses.fields(state)] == [
        "values", "timestep", "initial_position"]
    assert state.values.shape == (env.OBS_SIZE,)
    state.values[:] = np.arange(env.OBS_SIZE)
    blocks = ("torso_position", "torso_orientation", "linear_velocity",
              "angular_velocity", "joint_angles", "joint_velocities",
              "foot_forces", "previous_joint_angles")
    for name in blocks:
        # Each block is a view: a write through it changes values.
        block = getattr(state, name)
        assert np.shares_memory(block, state.values), name
        with pytest.raises(AttributeError):
            setattr(state, name, block.copy())
    assert np.array_equal(np.concatenate([getattr(state, name).ravel()
                                          for name in blocks]),
                          np.arange(env.OBS_SIZE))
    assert state.foot_forces.shape == (env.N_LEGS, 3)
    state.joint_angles[:] = -1.0
    assert np.array_equal(state.values[12:20], np.full(8, -1.0))
    assert np.array_equal(env.observe(state), state.values / env.OBS_SCALES)


def test_observation_layout_and_normalizers():
    state = standing_state()
    state.torso_position[:] = np.array([1.0, 2.0, 3.0])
    state.torso_orientation[:] = np.array([0.1, 0.2, 0.3])
    state.linear_velocity[:] = np.array([4.0, 5.0, 6.0])
    state.angular_velocity[:] = np.array([7.0, 8.0, 9.0])
    state.joint_angles[:] = np.arange(8.0) / 10.0
    state.joint_velocities[:] = np.arange(8.0)
    state.foot_forces[:] = np.arange(12.0).reshape(4, 3)
    state.previous_joint_angles[:] = -np.arange(8.0) / 10.0
    obs = env.observe(state)
    assert np.allclose(obs[0:3], [1.0, 2.0, 3.0], atol=0)
    assert np.allclose(obs[3:6], np.array([0.1, 0.2, 0.3]) / (np.pi / 2), atol=1e-15)
    assert np.allclose(obs[6:9], np.array([4.0, 5.0, 6.0]) / 2.0, atol=0)
    assert np.allclose(obs[9:12], np.array([7.0, 8.0, 9.0]) / 10.0, atol=0)
    assert np.allclose(obs[12:20], state.joint_angles / (np.pi / 2), atol=1e-15)
    assert np.allclose(obs[20:28], state.joint_velocities / 10.0, atol=0)
    assert np.allclose(obs[28:40], np.arange(12.0) / 100.0, atol=0)
    assert np.allclose(obs[40:48], state.previous_joint_angles / (np.pi / 2),
                       atol=1e-15)


def test_reset_rejects_non_finite_start_state():
    # Finite leg lengths whose stance height overflows.
    config = env.RobotConfig(upper_leg_length=1e308, lower_leg_length=1e308)
    with np.errstate(over="ignore"):
        assert config.stand_height == math.inf
    with pytest.raises(env.SimulationDiverged, match="start state"):
        env.reset(FLAT, config)


def test_pd_torque_zero_at_rest_on_target():
    q = CONFIG.nominal_stance
    tau = env.pd_torque(q, q, np.zeros(8), CONFIG)
    assert np.array_equal(tau, np.zeros(8))


def test_pd_torque_clamps_targets_then_saturates():
    q = np.zeros(8)
    qd = np.zeros(8)
    tau = env.pd_torque(np.full(8, 10.0), q, qd, CONFIG)
    # Target clamps to 0.7; kp * 0.7 = 28 exceeds the 5 Nm limit.
    assert np.array_equal(tau, np.full(8, CONFIG.torque_limit))
    tau = env.pd_torque(np.full(8, -10.0), q, qd, CONFIG)
    assert np.array_equal(tau, np.full(8, -CONFIG.torque_limit))
    small = env.pd_torque(np.full(8, 0.1), q, qd, CONFIG)
    assert np.allclose(small, 40.0 * 0.1, atol=1e-15)


def test_pd_torque_damping_sign():
    tau = env.pd_torque(np.zeros(8), np.zeros(8), np.full(8, 2.0), CONFIG)
    assert np.allclose(tau, -CONFIG.pd_kd * 2.0, atol=1e-15)


def flat_contact(z, velocity):
    """The contact law for a foot at height z over flat ground."""
    return np.array(env.contact_forces(height_at(FLAT, 0.0, 0.0) - z, *velocity,
                                       CONFIG))


def test_contact_zero_above_ground():
    forces = flat_contact(0.01, [0.0, 0.0, 0.0])
    assert np.array_equal(forces, np.zeros(3))


def test_contact_spring_and_damping_terms():
    still = flat_contact(-0.002, [0.0, 0.0, 0.0])
    assert still[2] == pytest.approx(5000.0 * 0.002, abs=1e-12)
    assert np.array_equal(still[:2], np.zeros(2))
    moving_down = flat_contact(-0.002, [0.0, 0.0, -0.1])
    assert moving_down[2] == pytest.approx(5000.0 * 0.002 + 50.0 * 0.1, abs=1e-12)
    moving_up = flat_contact(-0.002, [0.0, 0.0, 0.1])
    # Upward motion gets no damping bonus and never a sticking force.
    assert moving_up[2] == pytest.approx(5000.0 * 0.002, abs=1e-12)


def test_friction_opposes_motion_and_respects_cone():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, size=3)
        forces = flat_contact(-0.002, v.tolist())
        normal = forces[2]
        tangent = forces[:2]
        assert np.hypot(*tangent) <= CONFIG.friction_mu * normal + 1e-12
        if np.hypot(v[0], v[1]) > 1e-9:
            assert tangent @ v[:2] <= 0.0


def test_friction_saturates_beyond_slip_velocity():
    forces = flat_contact(-0.002, [1.0, 0.0, 0.0])  # far above slip_velocity
    assert forces[0] == pytest.approx(-CONFIG.friction_mu * forces[2], abs=1e-12)
    slow = flat_contact(-0.002, [0.01, 0.0, 0.0])
    # Below the slip velocity the magnitude ramps linearly.
    assert slow[0] == pytest.approx(-CONFIG.friction_mu * slow[2]
                                    * 0.01 / CONFIG.slip_velocity, abs=1e-12)


def test_free_fall_matches_closed_form():
    state = standing_state()
    state.torso_position[2] += 5.0
    z0 = state.torso_position[2]
    s = CONFIG.substeps
    h = CONFIG.dt / s
    steps = 10
    for _ in range(steps):
        state = env.integrate(state, np.zeros(8), FLAT, CONFIG)
    n = steps * s
    expected_drop = CONFIG.gravity * h * h * n * (n + 1) / 2.0
    assert state.torso_position[2] == pytest.approx(z0 - expected_drop, abs=1e-12)
    assert state.linear_velocity[2] == pytest.approx(-CONFIG.gravity * h * n,
                                                     abs=1e-12)


def test_constant_torque_spins_joint():
    state = standing_state()
    state.torso_position[2] += 5.0
    state.joint_angles[:] = 0.0
    state.joint_velocities[:] = 0.0
    tau = np.zeros(8)
    tau[0] = 0.1
    new = env.integrate(state, tau, FLAT, CONFIG)
    h = CONFIG.dt / CONFIG.substeps
    qd = 0.0
    q = 0.0
    for _ in range(CONFIG.substeps):
        qd += tau[0] / CONFIG.leg_inertia * h
        q += qd * h
    assert new.joint_velocities[0] == pytest.approx(qd, abs=1e-15)
    assert new.joint_angles[0] == pytest.approx(q, abs=1e-15)
    assert np.array_equal(new.joint_angles[1:], np.zeros(7))


def test_joint_stop_clamps_and_zeroes_velocity():
    state = standing_state()
    state.torso_position[2] += 5.0
    state.joint_angles[:] = 0.0
    state.joint_velocities[:] = 0.0
    tau = np.full(8, CONFIG.torque_limit)
    for _ in range(100):
        state = env.integrate(state, tau, FLAT, CONFIG)
    assert np.allclose(state.joint_angles, env.JOINT_RANGE, atol=1e-12)
    assert np.array_equal(state.joint_velocities, np.zeros(8))


def test_integrate_tracks_previous_joint_angles():
    state = standing_state()
    before = state.joint_angles.copy()
    new = env.integrate(state, np.full(8, 1.0), FLAT, CONFIG)
    assert np.array_equal(new.previous_joint_angles, before)
    assert new.timestep == state.timestep + 1


def test_integrate_raises_on_non_finite():
    state = standing_state()
    with pytest.raises(env.SimulationDiverged):
        env.integrate(state, np.full(8, np.nan), FLAT, CONFIG)


def test_reward_terms_hand_values():
    state = standing_state()
    state.timestep = 50
    state.linear_velocity[:] = np.array([0.5, 0.0, 0.0])
    state.torso_position[:] = state.initial_position + np.array([1.0, 0.03, -0.02])
    state.torso_orientation[:] = np.array([0.1, -0.2, 0.5])
    state.previous_joint_angles[:] = state.joint_angles - 0.01
    terms = env.reward_terms(state, t_max=1000)
    assert [type(term) for term in terms] == [float] * 7
    assert terms[0] == pytest.approx(75.0 * 0.5, abs=1e-12)
    assert terms[1] == pytest.approx(25.0 * 50 / 1000, abs=1e-12)
    assert terms[2] == pytest.approx(-10.0 * 0.02, abs=1e-12)
    assert terms[3] == pytest.approx(-5.0 * 0.03, abs=1e-12)
    assert terms[4] == pytest.approx(-5.0 * 0.1, abs=1e-12)
    assert terms[5] == pytest.approx(-5.0 * 0.2, abs=1e-12)
    # |q| - |q_prev| per joint: hips |0.3|-|0.29|, knees |-0.6|-|-0.59|.
    assert terms[6] == pytest.approx(-0.05 * 8 * 0.01, abs=1e-12)
    assert env.compute_reward(state, 1000) == pytest.approx(sum(terms), abs=0)


def test_reward_survival_full_at_t_max():
    state = standing_state()
    state.timestep = 1000
    state.linear_velocity[:] = 0.0
    state.previous_joint_angles[:] = state.joint_angles
    terms = env.reward_terms(state, t_max=1000)
    assert terms[1] == pytest.approx(25.0, abs=0)


def test_done_priority_fell_over_tilted():
    state = standing_state()
    state.timestep = 5
    state.torso_position[:] = np.array([0.0, 0.0, 0.1 * CONFIG.stand_height])
    state.torso_orientation[:] = np.array([1.5, 0.0, 0.0])
    assert env._done_reason(state, FLAT, CONFIG, 1000) == "fell"
    state.torso_position[:] = np.array([0.0, 0.0, CONFIG.stand_height])
    assert env._done_reason(state, FLAT, CONFIG, 1000) == "tilted"
    state.torso_orientation[:] = 0.0
    state.timestep = 1000
    assert env._done_reason(state, FLAT, CONFIG, 1000) == "timeout"
    state.timestep = 999
    assert env._done_reason(state, FLAT, CONFIG, 1000) == "none"


def test_fell_threshold_uses_local_ground():
    rough = make_terrain("rough", seed=3, amplitude=0.03)
    state, _ = env.reset(rough, CONFIG)
    # Drop the torso to 0.39 of stand height above the local ground.
    ground = height_at(rough, 0.0, 0.0)
    state.torso_position[:] = np.array([0.0, 0.0, ground + 0.39 * CONFIG.stand_height])
    assert env._done_reason(state, rough, CONFIG, 1000) == "fell"


def test_step_result_done_follows_done_reason():
    obs = np.zeros(env.OBS_SIZE)
    assert not env.StepResult(obs, 0.0, "none").done
    for reason in ("fell", "tilted", "timeout"):
        assert env.StepResult(obs, 0.0, reason).done


def test_step_clips_action():
    state = standing_state()
    a, ra = env.step(state, np.full(8, 100.0), FLAT, CONFIG, 1000)
    state2 = standing_state()
    b, rb = env.step(state2, np.full(8, CONFIG.action_bound), FLAT, CONFIG, 1000)
    assert np.array_equal(ra.observation, rb.observation)
    assert ra.reward == rb.reward


def test_step_protocol_error_past_t_max():
    state = standing_state()
    state.timestep = 10
    with pytest.raises(env.ProtocolError):
        env.step(state, np.zeros(8), FLAT, CONFIG, t_max=10)


def test_env_wrapper_protocol():
    e = env.QuadrupedEnv(FLAT, t_max=5)
    with pytest.raises(env.ProtocolError):
        e.step(np.zeros(8))
    e.reset(seed=0)
    for _ in range(5):
        result = e.step(CONFIG.nominal_stance)
    assert result.done
    assert result.done_reason == "timeout"
    with pytest.raises(env.ProtocolError):
        e.step(np.zeros(8))
    obs = e.reset(seed=1)
    assert obs.shape == (env.OBS_SIZE,)
    assert not e.done


def test_standing_controller_is_stable():
    e = env.QuadrupedEnv(FLAT, t_max=300)
    e.reset(seed=0)
    targets = CONFIG.nominal_stance
    heights = []
    for _ in range(300):
        result = e.step(targets)
        heights.append(e.state.torso_position[2])
    assert result.done_reason == "timeout"
    ratio = np.array(heights) / CONFIG.stand_height
    assert ratio.min() > 0.95
    assert ratio.max() < 1.05


def test_trajectory_bit_reproducible():
    rng = np.random.default_rng(7)
    actions = rng.uniform(-0.7, 0.7, size=(50, 8))

    def run():
        e = env.QuadrupedEnv(FLAT, t_max=200)
        e.reset(seed=0)
        out = []
        for a in actions:
            r = e.step(a)
            out.append(r.observation)
            if r.done:
                break
        return np.array(out)

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_rough_trajectory_differs_from_flat():
    rough = make_terrain("rough", seed=1, amplitude=0.03)
    ef = env.QuadrupedEnv(FLAT, t_max=100)
    er = env.QuadrupedEnv(rough, t_max=100)
    ef.reset(seed=0)
    er.reset(seed=0)
    for _ in range(50):
        rf = ef.step(CONFIG.nominal_stance)
        rr = er.step(CONFIG.nominal_stance)
        if rf.done or rr.done:
            break
    assert not np.array_equal(rf.observation, rr.observation)


# The left-right mirror (y -> -y) of the observation layout and of an
# action. Legs are front-left, front-right, rear-left, rear-right, so the
# mirror swaps legs 0 and 1 and legs 2 and 3. Joints pitch about the
# lateral axis and keep their sign; y, roll, yaw, the lateral velocity, the
# roll and yaw rates and each foot's lateral force change sign.
LEG_SWAP = [1, 0, 3, 2]
JOINT_SWAP = [2, 3, 0, 1, 6, 7, 4, 5]
MIRRORED_SIGNS = [1, 3, 5, 7, 9, 11]


def mirror_observation(obs):
    out = obs.copy()
    out[MIRRORED_SIGNS] *= -1.0
    for start in (12, 20, 40):  # joint angles, joint velocities, previous angles
        out[start:start + 8] = obs[start:start + 8][JOINT_SWAP]
    feet = obs[28:40].reshape(4, 3)[LEG_SWAP] * [1.0, -1.0, 1.0]
    out[28:40] = feet.ravel()
    return out


def test_contact_forces_mirror_exactly():
    fx, fy, fz = env.contact_forces(0.004, 0.03, -0.02, -0.1, CONFIG)
    assert env.contact_forces(0.004, 0.03, 0.02, -0.1, CONFIG) == (fx, -fy, fz)


def _assert_mirrored_episodes(ground, mirrored_ground, seed, atol):
    """Step a robot on `ground` with seeded uniform random actions and one
    on `mirrored_ground` with the legs swapped, for up to 50 steps: each
    observation and reward mirrors within `atol`, and each done reason is
    equal."""
    rng = np.random.default_rng(seed)
    walker = env.QuadrupedEnv(ground, t_max=50)
    mirrored = env.QuadrupedEnv(mirrored_ground, t_max=50)
    assert np.array_equal(mirror_observation(walker.reset()), mirrored.reset())
    result = None
    while result is None or not result.done:
        action = rng.uniform(-1.0, 1.0, size=8)
        result, image = walker.step(action), mirrored.step(action[JOINT_SWAP])
        assert np.allclose(mirror_observation(result.observation),
                           image.observation, rtol=0.0, atol=atol)
        assert image.reward == pytest.approx(result.reward, rel=0.0, abs=atol)
        assert image.done_reason == result.done_reason


@pytest.mark.parametrize("seed", range(6))
def test_flat_ground_dynamics_are_mirror_symmetric(seed):
    # Mirrored runs add the feet in another order, so they round apart. At
    # these seeds and t_max they differed by at most 8e-14 in an
    # observation entry and 3e-13 in a reward; the rounding grows with
    # the episode (8e-7 after 221 steps of seed 1).
    _assert_mirrored_episodes(FLAT, FLAT, seed, atol=1e-11)


@pytest.mark.parametrize("seed", range(100, 106))
def test_rough_ground_dynamics_mirror_on_the_grid_flipped_in_y(seed):
    # The grid is centred on the origin, so its rows reversed are the ground
    # mirrored in y; both sides hold their grid. Heights at mirrored points
    # differed by at most 3.7e-16. The episodes (two tilted, four timed out)
    # differed by at most 6.5e-11 in an observation entry and 6.7e-10 in a
    # reward, both in seed 101, whose rounding grew from 1e-14 to 1e-11
    # near its 40th step.
    made = make_terrain("rough", seed)
    ground, flipped = (Terrain("rough", seed, made.amplitude, made.cell_size, grid)
                       for grid in (made.height_grid, made.height_grid[::-1].copy()))
    points = np.random.default_rng(seed).uniform(-9.0, 9.0, size=(500, 2))
    for x, y in points.tolist():
        assert height_at(flipped, x, -y) == pytest.approx(
            height_at(ground, x, y), rel=0.0, abs=1e-15)
    _assert_mirrored_episodes(ground, flipped, seed, atol=5e-9)
