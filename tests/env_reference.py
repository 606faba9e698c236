"""The simulator's numpy substep, kept as the reference for the scalar kernel.

This is the array implementation `quadrl.env.integrate` used before it
became a scalar loop: vectorized bilinear height queries, the array
contact law, the rotation matrix, the foot kinematics on (4, 3) rows,
the substep loop and the step's scoring: PD torque, reward, observation
and done rule. The simulator applies each rule to one point at a time
(`terrain.height_at` per point, `env.contact_forces` per foot,
`env.reward_terms` per state); the forms here apply it to whole arrays.
`tests/test_env_kernel.py` requires the kernel to reproduce them byte for
byte. It also keeps the broadcast-gather upsample that rough terrain
generation used, which `tests/test_terrain.py` holds `make_terrain` to.
It is test code only; nothing under ``src/`` imports it, and it imports
no function from the code under test.
"""

from __future__ import annotations

import math

import numpy as np

from quadrl.env import (JOINT_RANGE, N_LEGS, RobotConfig, RobotState,
                        SimulationDiverged)
from quadrl.terrain import LATTICE_STEP, Terrain


def height_at(terrain: Terrain, x, y):
    """Ground height at world (x, y); accepts scalars or same-shape arrays."""
    grid = terrain.height_grid
    rows, cols = grid.shape
    if rows == 1 and cols == 1:
        value = float(grid[0, 0])
        if np.isscalar(x) or np.ndim(x) == 0:
            return value
        return np.full(np.shape(x), value)
    gx = np.asarray(x, dtype=np.float64) / terrain.cell_size + (cols - 1) / 2.0
    gy = np.asarray(y, dtype=np.float64) / terrain.cell_size + (rows - 1) / 2.0
    # Clamp before the cast, so far and infinite points read the edge.
    gx = np.clip(gx, 0.0, max(cols - 2, 0) + 1.0)
    gy = np.clip(gy, 0.0, max(rows - 2, 0) + 1.0)
    j0 = np.clip(np.floor(gx).astype(np.int64), 0, max(cols - 2, 0))
    i0 = np.clip(np.floor(gy).astype(np.int64), 0, max(rows - 2, 0))
    fx = np.clip(gx - j0, 0.0, 1.0)
    fy = np.clip(gy - i0, 0.0, 1.0)
    j1 = np.minimum(j0 + 1, cols - 1)
    i1 = np.minimum(i0 + 1, rows - 1)
    h = ((1 - fy) * (1 - fx) * grid[i0, j0] + (1 - fy) * fx * grid[i0, j1]
         + fy * (1 - fx) * grid[i1, j0] + fy * fx * grid[i1, j1])
    return float(h) if np.isscalar(x) or np.ndim(x) == 0 else h


def rough_height_grid(seed: int, amplitude: float, cell_size: float,
                      extent: float) -> np.ndarray:
    """The rough fine grid from four broadcast fancy-index gathers."""
    n = 2 * int(round(extent / cell_size)) + 1
    n_coarse = (n - 1 + LATTICE_STEP - 1) // LATTICE_STEP + 1
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(-amplitude, amplitude, size=(n_coarse, n_coarse))
    pos = np.arange(n) / LATTICE_STEP
    i0 = np.minimum(pos.astype(np.int64), n_coarse - 2)
    f = pos - i0
    fy, fx = f[:, None], f[None, :]
    r0, r1 = i0[:, None], i0[:, None] + 1
    c0, c1 = i0[None, :], i0[None, :] + 1
    grid = ((1 - fy) * (1 - fx) * coarse[r0, c0] + (1 - fy) * fx * coarse[r0, c1]
            + fy * (1 - fx) * coarse[r1, c0] + fy * fx * coarse[r1, c1])
    np.clip(grid, -amplitude, amplitude, out=grid)
    return grid


def rotation_matrix(orientation) -> np.ndarray:
    """World-from-body rotation for (roll, pitch, yaw), applied z-y-x.

    Rz(yaw) @ Ry(pitch) @ Rx(roll) written out, each entry's products in
    the order the simulator forms them.
    """
    roll, pitch, yaw = orientation
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([[cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
                     [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
                     [-sp, cp * sr, cp * cr]])


def feet_body_frame(joint_angles: np.ndarray, config: RobotConfig):
    """Foot positions and joint-rate velocity terms in the torso frame."""
    l1, l2 = config.upper_leg_length, config.lower_leg_length
    hip = joint_angles[0::2]
    total = hip + joint_angles[1::2]
    sin_h, cos_h = np.sin(hip), np.cos(hip)
    sin_t, cos_t = np.sin(total), np.cos(total)
    pos = config.hip_offsets.copy()
    pos[:, 0] += l1 * sin_h + l2 * sin_t
    pos[:, 2] -= l1 * cos_h + l2 * cos_t
    d_knee = np.zeros((N_LEGS, 3))
    d_knee[:, 0] = l2 * cos_t
    d_knee[:, 2] = l2 * sin_t
    d_hip = d_knee.copy()
    d_hip[:, 0] += l1 * cos_h
    d_hip[:, 2] += l1 * sin_h
    return pos, d_hip, d_knee


def forward_kinematics(state: RobotState, config: RobotConfig) -> np.ndarray:
    rot = rotation_matrix(state.torso_orientation)
    body, _, _ = feet_body_frame(state.joint_angles, config)
    return state.torso_position + body @ rot.T


def cross_rows(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise w x rows for a single 3-vector w and an (n, 3) array."""
    out = np.empty_like(rows)
    out[:, 0] = w[1] * rows[:, 2] - w[2] * rows[:, 1]
    out[:, 1] = w[2] * rows[:, 0] - w[0] * rows[:, 2]
    out[:, 2] = w[0] * rows[:, 1] - w[1] * rows[:, 0]
    return out


def foot_kinematics(position, orientation, linear_velocity, angular_velocity,
                    joint_angles, joint_velocities, config):
    """World foot positions and velocities for the current pose."""
    rot = rotation_matrix(orientation)
    body, d_hip, d_knee = feet_body_frame(joint_angles, config)
    offsets = body @ rot.T
    world = position + offsets
    joint_vel_body = (d_hip * joint_velocities[0::2, None]
                      + d_knee * joint_velocities[1::2, None])
    vel = (linear_velocity + cross_rows(angular_velocity, offsets)
           + joint_vel_body @ rot.T)
    return world, vel


def pd_torque(targets, angles, velocities, config: RobotConfig) -> np.ndarray:
    b = config.action_bound
    t = np.clip(np.asarray(targets, dtype=np.float64), -b, b)
    raw = config.pd_kp * (t - angles) - config.pd_kd * velocities
    return np.clip(raw, -config.torque_limit, config.torque_limit)


def contact_forces(foot_positions, foot_velocities, terrain: Terrain,
                   config: RobotConfig) -> np.ndarray:
    """Spring-damper normal force plus regularized Coulomb friction."""
    pos = np.asarray(foot_positions, dtype=np.float64)
    vel = np.asarray(foot_velocities, dtype=np.float64)
    ground = height_at(terrain, pos[:, 0], pos[:, 1])
    depth = ground - pos[:, 2]
    in_contact = depth > 0.0
    normal = np.where(
        in_contact,
        config.contact_stiffness * depth
        + config.contact_damping * np.maximum(0.0, -vel[:, 2]),
        0.0,
    )
    horizontal = vel[:, :2]
    speed = np.sqrt(horizontal[:, 0] ** 2 + horizontal[:, 1] ** 2)
    magnitude = (config.friction_mu * normal
                 * np.minimum(1.0, speed / config.slip_velocity))
    safe_speed = np.where(speed > 0.0, speed, 1.0)
    direction = horizontal / safe_speed[:, None]
    forces = np.zeros_like(pos)
    forces[:, :2] = -magnitude[:, None] * direction
    forces[:, 2] = normal
    return forces


def integrate(state: RobotState, torques, terrain: Terrain,
              config: RobotConfig) -> RobotState:
    """Advance one control step with semi-implicit Euler substeps."""
    tau = np.asarray(torques, dtype=np.float64)
    h = config.dt / config.substeps
    pos = state.torso_position.copy()
    euler = state.torso_orientation.copy()
    lin_vel = state.linear_velocity.copy()
    ang_vel = state.angular_velocity.copy()
    q = state.joint_angles.copy()
    qd = state.joint_velocities.copy()
    inertia = config.inertia
    gravity = np.array([0.0, 0.0, -config.gravity])
    forces = state.foot_forces

    for _ in range(config.substeps):
        feet, feet_vel = foot_kinematics(pos, euler, lin_vel, ang_vel, q, qd, config)
        forces = contact_forces(feet, feet_vel, terrain, config)
        lin_acc = gravity + forces.sum(axis=0) / config.mass
        lever = feet - pos
        torque_world = np.array([
            (lever[:, 1] * forces[:, 2] - lever[:, 2] * forces[:, 1]).sum(),
            (lever[:, 2] * forces[:, 0] - lever[:, 0] * forces[:, 2]).sum(),
            (lever[:, 0] * forces[:, 1] - lever[:, 1] * forces[:, 0]).sum(),
        ])
        ang_acc = torque_world / inertia
        lin_vel = lin_vel + lin_acc * h
        ang_vel = ang_vel + ang_acc * h
        qd = qd + (tau / config.leg_inertia) * h
        pos = pos + lin_vel * h
        euler = euler + ang_vel * h
        q = q + qd * h
        hit_stop = np.abs(q) > JOINT_RANGE
        if np.any(hit_stop):
            q = np.clip(q, -JOINT_RANGE, JOINT_RANGE)
            qd = np.where(hit_stop, 0.0, qd)

    new_state = RobotState(
        np.concatenate([pos, euler, lin_vel, ang_vel, q, qd, forces.ravel(),
                        state.joint_angles]),
        state.timestep + 1, state.initial_position)
    for arr in (pos, euler, lin_vel, ang_vel, q, qd, forces):
        if not np.all(np.isfinite(arr)):
            raise SimulationDiverged(
                f"non-finite state at control step {new_state.timestep}"
            )
    return new_state


def reward_terms(state: RobotState, config: RobotConfig, t_max: int) -> np.ndarray:
    """The seven reward terms; their plain sum is the step reward.

    Order: forward velocity, survival, height deviation, lateral
    deviation, roll, pitch, joint motion. Deviations are measured from
    the torso position recorded at reset.
    """
    dz = state.torso_position[2] - state.initial_position[2]
    dy = state.torso_position[1] - state.initial_position[1]
    joint_motion = np.sum(np.abs(np.abs(state.joint_angles)
                                 - np.abs(state.previous_joint_angles)))
    return np.array([
        75.0 * state.linear_velocity[0],
        25.0 * state.timestep / t_max,
        -10.0 * abs(dz),
        -5.0 * abs(dy),
        -5.0 * abs(state.torso_orientation[0]),
        -5.0 * abs(state.torso_orientation[1]),
        -0.05 * joint_motion,
    ])


def compute_reward(state: RobotState, config: RobotConfig, t_max: int) -> float:
    return float(reward_terms(state, config, t_max).sum())


def observe(state: RobotState) -> np.ndarray:
    obs = np.concatenate([
        state.torso_position / 1.0,
        state.torso_orientation / (np.pi / 2.0),
        state.linear_velocity / 2.0,
        state.angular_velocity / 10.0,
        state.joint_angles / (np.pi / 2.0),
        state.joint_velocities / 10.0,
        state.foot_forces.ravel() / 100.0,
        state.previous_joint_angles / (np.pi / 2.0),
    ])
    if not np.all(np.isfinite(obs)):
        raise SimulationDiverged("non-finite observation")
    return obs


def done_reason(state: RobotState, terrain: Terrain, config: RobotConfig,
                t_max: int) -> str:
    ground = height_at(terrain, state.torso_position[0], state.torso_position[1])
    height = state.torso_position[2] - ground
    if height < 0.4 * config.stand_height:
        return "fell"
    if (abs(state.torso_orientation[0]) > 1.0
            or abs(state.torso_orientation[1]) > 1.0):
        return "tilted"
    if state.timestep >= t_max:
        return "timeout"
    return "none"
