"""Simplified quadruped walker: dynamics, reward, and observations.

Model summary. The torso is a single rigid box; the four two-link legs
are treated as massless appendages, so joints follow their PD-driven
dynamics with a fixed effective inertia and the ground acts on the torso
through the summed foot contact forces and their torques about the torso
center. Orientation uses roll/pitch/yaw with the angular velocity state
identified with the Euler-angle rates and a diagonal box inertia, which
is accurate in the small-tilt regime the walker operates in (episodes
end beyond 1 rad of tilt).

Leg layout: legs are ordered front-left, front-right, rear-left,
rear-right; each leg has a hip pitch joint then a knee pitch joint, so
the 8-entry joint vector is [hip_fl, knee_fl, hip_fr, knee_fr, hip_rl,
knee_rl, hip_rr, knee_rr]. At zero joint angles a leg points straight
down; positive hip pitch swings the foot forward.

Observation layout (48 entries, fixed order, each block divided by its
constant in `OBS_SCALES`):

    [0:3]   torso position (m)
    [3:6]   torso roll, pitch, yaw (rad)
    [6:9]   torso linear velocity (m/s)
    [9:12]  torso angular velocity (rad/s)
    [12:20] joint angles (rad)
    [20:28] joint velocities (rad/s)
    [28:40] foot contact forces, foot-major x/y/z (N)
    [40:48] previous-step joint angles (rad)

Every simulation quantity is float64 and every update is a pure
function of its inputs, so a (terrain seed, reset seed, action sequence)
triple reproduces trajectories bit-exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .terrain import Terrain, height_at, point_height

N_LEGS = 4
N_JOINTS = 8
OBS_SIZE = 48
JOINT_RANGE = np.pi / 2.0


class SimulationDiverged(RuntimeError):
    """The integrator produced a non-finite state."""


class ProtocolError(RuntimeError):
    """An episode was driven past its done signal."""


@dataclass(frozen=True)
class RobotConfig:
    body_length: float = 0.40
    body_width: float = 0.20
    mass: float = 5.0
    torque_limit: float = 5.0
    upper_leg_length: float = 0.12
    lower_leg_length: float = 0.12
    pd_kp: float = 40.0
    pd_kd: float = 1.0
    dt: float = 0.01
    substeps: int = 4
    gravity: float = 9.81
    leg_inertia: float = 0.02
    contact_stiffness: float = 5000.0
    contact_damping: float = 50.0
    friction_mu: float = 0.8
    slip_velocity: float = 0.05
    action_bound: float = 0.7
    stance_hip: float = 0.3
    stance_knee: float = -0.6

    def __post_init__(self) -> None:
        positive = ("body_length", "body_width", "mass", "torque_limit",
                    "upper_leg_length", "lower_leg_length", "pd_kp", "pd_kd",
                    "dt", "substeps", "gravity", "leg_inertia",
                    "contact_stiffness", "contact_damping", "friction_mu",
                    "slip_velocity", "action_bound")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def stand_height(self) -> float:
        """Torso height above the feet at the nominal stance."""
        return (self.upper_leg_length * np.cos(self.stance_hip)
                + self.lower_leg_length * np.cos(self.stance_hip + self.stance_knee))

    @property
    def nominal_stance(self) -> np.ndarray:
        return np.tile([self.stance_hip, self.stance_knee], N_LEGS)

    @functools.cached_property
    def hip_offsets(self) -> np.ndarray:
        """Hip anchor points in the torso frame, one row per leg."""
        hl, hw = self.body_length / 2.0, self.body_width / 2.0
        return np.array([[hl, hw, 0.0], [hl, -hw, 0.0],
                         [-hl, hw, 0.0], [-hl, -hw, 0.0]])

    @functools.cached_property
    def inertia(self) -> np.ndarray:
        """Diagonal box inertia; box height taken as half the body width."""
        l, w, h = self.body_length, self.body_width, self.body_width / 2.0
        return self.mass / 12.0 * np.array([w * w + h * h,
                                            l * l + h * h,
                                            l * l + w * w])


# Each observation entry's divisor, in the observation layout: position,
# orientation, linear and angular velocity, joint angles, joint velocities,
# foot forces, previous joint angles.
OBS_SCALES = np.repeat(
    [1.0, np.pi / 2.0, 2.0, 10.0, np.pi / 2.0, 10.0, 100.0, np.pi / 2.0],
    [3, 3, 3, 3, N_JOINTS, N_JOINTS, 3 * N_LEGS, N_JOINTS])
OBS_SCALES.setflags(write=False)


@dataclass
class RobotState:
    torso_position: np.ndarray
    torso_orientation: np.ndarray
    linear_velocity: np.ndarray
    angular_velocity: np.ndarray
    joint_angles: np.ndarray
    joint_velocities: np.ndarray
    previous_joint_angles: np.ndarray
    foot_forces: np.ndarray
    timestep: int
    initial_position: np.ndarray


@dataclass(frozen=True)
class StepResult:
    observation: np.ndarray
    reward: float
    done_reason: str  # one of: fell, tilted, timeout, none

    @property
    def done(self) -> bool:
        return self.done_reason != "none"


def rotation_matrix(orientation: np.ndarray) -> np.ndarray:
    """World-from-body rotation for (roll, pitch, yaw), applied z-y-x.

    Written out as the composed Rz(yaw) @ Ry(pitch) @ Rx(roll) matrix.
    """
    roll, pitch, yaw = orientation
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def _leg_geometry(q: list, config: RobotConfig):
    """Torso-frame foot positions and joint-rate terms from 8 joint angles.

    Each leg is a planar two-link chain in the torso's x-z plane. Returns
    (body, rates): body is the 12 foot coordinates, leg-major x/y/z, and
    rates holds per leg the x and z of d_pos/d_hip and of d_pos/d_knee
    (their y is 0). One np.sin and one np.cos call cover all 8 hip and
    total angles.
    """
    l1, l2 = config.upper_leg_length, config.lower_leg_length
    hip = q[0::2]
    angles = np.array(hip + [a + b for a, b in zip(hip, q[1::2])])
    sin, cos = np.sin(angles).tolist(), np.cos(angles).tolist()
    body, rates = [], []
    for (hx, hy, hz), sin_h, sin_t, cos_h, cos_t in zip(
            config.hip_offsets.tolist(), sin[:N_LEGS], sin[N_LEGS:],
            cos[:N_LEGS], cos[N_LEGS:]):
        body += (hx + (l1 * sin_h + l2 * sin_t), hy, hz - (l1 * cos_h + l2 * cos_t))
        knee_x, knee_z = l2 * cos_t, l2 * sin_t
        rates.append((knee_x + l1 * cos_h, knee_z + l1 * sin_h, knee_x, knee_z))
    return body, rates


def forward_kinematics(state: RobotState, config: RobotConfig) -> np.ndarray:
    """World positions of the four feet, one row per leg."""
    rot = rotation_matrix(state.torso_orientation)
    body, _ = _leg_geometry(state.joint_angles.tolist(), config)
    return state.torso_position + np.array(body).reshape(N_LEGS, 3) @ rot.T


def _clamp(x: float, bound: float) -> float:
    """np.clip(x, -bound, bound) for one float, NaN passing through."""
    return bound if x > bound else (-bound if x < -bound else x)


def pd_torque(targets, angles, velocities, config: RobotConfig) -> np.ndarray:
    """Saturated PD torque toward the (clamped) joint targets."""
    b, limit = config.action_bound, config.torque_limit
    kp, kd = config.pd_kp, config.pd_kd
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != np.shape(angles):
        t = np.broadcast_to(t, np.shape(angles))
    torques = [_clamp(kp * (_clamp(target, b) - q) - kd * qd, limit)
               for target, q, qd in zip(t.tolist(), np.asarray(angles).tolist(),
                                        np.asarray(velocities).tolist())]
    return np.array(torques, dtype=np.float64)


def _foot_force(depth, vx, vy, vz, config: RobotConfig):
    """The contact law for one foot: world (fx, fy, fz) as Python floats.

    depth is the ground height minus the foot height. The normal force is
    a spring-damper that only pushes; friction ramps linearly with
    horizontal speed up to the Coulomb bound mu * normal. Each branch
    gives what np.where, np.maximum and np.minimum give on the same
    floats, signed zeros and NaN included.
    """
    if depth > 0.0:
        down = -vz
        normal = (config.contact_stiffness * depth
                  + config.contact_damping * (0.0 if down < 0.0 else down))
    else:
        normal = 0.0
    speed = math.sqrt(vx * vx + vy * vy)
    ratio = speed / config.slip_velocity
    magnitude = config.friction_mu * normal * (1.0 if ratio > 1.0 else ratio)
    safe_speed = speed if speed > 0.0 else 1.0
    return -magnitude * (vx / safe_speed), -magnitude * (vy / safe_speed), normal


def contact_forces(foot_positions, foot_velocities, terrain: Terrain,
                   config: RobotConfig) -> np.ndarray:
    """Spring-damper normal force plus regularized Coulomb friction.

    Accepts (n, 3) position/velocity arrays and returns (n, 3) forces in
    world x/y/z per foot. A foot at or above the ground gets zero force.
    The friction magnitude ramps linearly with horizontal speed up to the
    Coulomb bound mu * normal, so it never violates the friction cone.
    """
    pos = np.asarray(foot_positions, dtype=np.float64)
    vel = np.asarray(foot_velocities, dtype=np.float64)
    forces = [_foot_force(point_height(terrain, x, y) - z, vx, vy, vz, config)
              for (x, y, z), (vx, vy, vz) in zip(pos.tolist(), vel.tolist())]
    return np.array(forces, dtype=np.float64).reshape(pos.shape)


def integrate(state: RobotState, torques, terrain: Terrain,
              config: RobotConfig) -> RobotState:
    """Advance one control step with semi-implicit Euler substeps.

    Torques are held constant over the control step. Velocities update
    before positions each substep; contact forces are evaluated at the
    substep's starting pose. Joint angles are clamped to the mechanical
    range with their velocity zeroed at the stop.

    The substep is a scalar kernel: every per-foot and per-joint quantity
    is a Python float, and only the two rotation products and the leg
    sin/cos run in numpy. Each operation runs in the order the array form
    of these equations would run it (sums left to right from 0.0, numpy's
    `@` for the products), so trajectories are bit-identical to it.
    """
    h = config.dt / config.substeps
    qd_step = [(t / config.leg_inertia) * h
               for t in np.asarray(torques, dtype=np.float64).tolist()]
    px, py, pz = state.torso_position.tolist()
    roll, pitch, yaw = state.torso_orientation.tolist()
    vx, vy, vz = state.linear_velocity.tolist()
    wx, wy, wz = state.angular_velocity.tolist()
    q = state.joint_angles.tolist()
    qd = state.joint_velocities.tolist()
    ix, iy, iz = config.inertia.tolist()
    mass, gravity = config.mass, config.gravity

    for _ in range(config.substeps):
        rot_t = rotation_matrix((roll, pitch, yaw)).T
        body, rates = _leg_geometry(q, config)
        joint_vel = []  # the y rows are 0.0 times the rates, as in the array form
        for (hip_x, hip_z, knee_x, knee_z), rate_h, rate_k in zip(
                rates, qd[0::2], qd[1::2]):
            joint_vel += (hip_x * rate_h + knee_x * rate_k,
                          0.0 * rate_h + 0.0 * rate_k,
                          hip_z * rate_h + knee_z * rate_k)
        offsets = (np.array(body).reshape(N_LEGS, 3) @ rot_t).tolist()
        joint_vel = (np.array(joint_vel).reshape(N_LEGS, 3) @ rot_t).tolist()

        forces = []
        fx_sum = fy_sum = fz_sum = tx_sum = ty_sum = tz_sum = 0.0
        for (ox, oy, oz), (jx, jy, jz) in zip(offsets, joint_vel):
            foot_x, foot_y, foot_z = px + ox, py + oy, pz + oz
            fx, fy, fz = _foot_force(
                point_height(terrain, foot_x, foot_y) - foot_z,
                (vx + (wy * oz - wz * oy)) + jx,
                (vy + (wz * ox - wx * oz)) + jy,
                (vz + (wx * oy - wy * ox)) + jz,
                config)
            forces += (fx, fy, fz)
            lx, ly, lz = foot_x - px, foot_y - py, foot_z - pz
            fx_sum += fx
            fy_sum += fy
            fz_sum += fz
            tx_sum += ly * fz - lz * fy
            ty_sum += lz * fx - lx * fz
            tz_sum += lx * fy - ly * fx

        vx = vx + (fx_sum / mass) * h
        vy = vy + (fy_sum / mass) * h
        vz = vz + (fz_sum / mass - gravity) * h
        wx = wx + (tx_sum / ix) * h
        wy = wy + (ty_sum / iy) * h
        wz = wz + (tz_sum / iz) * h
        qd = [rate + step for rate, step in zip(qd, qd_step)]
        px, py, pz = px + vx * h, py + vy * h, pz + vz * h
        roll, pitch, yaw = roll + wx * h, pitch + wy * h, yaw + wz * h
        q = [angle + rate * h for angle, rate in zip(q, qd)]
        for j, angle in enumerate(q):
            if angle > JOINT_RANGE:
                q[j], qd[j] = JOINT_RANGE, 0.0
            elif angle < -JOINT_RANGE:
                q[j], qd[j] = -JOINT_RANGE, 0.0

    new_state = RobotState(
        torso_position=np.array([px, py, pz]),
        torso_orientation=np.array([roll, pitch, yaw]),
        linear_velocity=np.array([vx, vy, vz]),
        angular_velocity=np.array([wx, wy, wz]),
        joint_angles=np.array(q),
        joint_velocities=np.array(qd),
        previous_joint_angles=state.joint_angles.copy(),
        foot_forces=np.array(forces).reshape(N_LEGS, 3),
        timestep=state.timestep + 1,
        initial_position=state.initial_position,
    )
    values = [px, py, pz, roll, pitch, yaw, vx, vy, vz, wx, wy, wz,
              *q, *qd, *forces]
    if not all(map(math.isfinite, values)):
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
    _, y, z = state.torso_position.tolist()
    _, y0, z0 = state.initial_position.tolist()
    roll, pitch, _ = state.torso_orientation.tolist()
    m = [abs(abs(a) - abs(b)) for a, b in zip(state.joint_angles.tolist(),
                                                state.previous_joint_angles.tolist())]
    # np.sum's pairwise order for 8 values.
    joint_motion = ((m[0] + m[1]) + (m[2] + m[3])) + ((m[4] + m[5]) + (m[6] + m[7]))
    return np.array([
        75.0 * state.linear_velocity.item(0),
        25.0 * state.timestep / t_max,
        -10.0 * abs(z - z0),
        -5.0 * abs(y - y0),
        -5.0 * abs(roll),
        -5.0 * abs(pitch),
        -0.05 * joint_motion,
    ])


def compute_reward(state: RobotState, config: RobotConfig, t_max: int) -> float:
    total = 0.0
    for term in reward_terms(state, config, t_max).tolist():
        total += term  # left to right from 0.0, as ndarray.sum adds 7 values
    return total


def observe(state: RobotState) -> np.ndarray:
    obs = np.concatenate([
        state.torso_position,
        state.torso_orientation,
        state.linear_velocity,
        state.angular_velocity,
        state.joint_angles,
        state.joint_velocities,
        state.foot_forces.ravel(),
        state.previous_joint_angles,
    ]) / OBS_SCALES
    if not np.isfinite(obs).all():
        raise SimulationDiverged("non-finite observation")
    return obs


def reset(terrain: Terrain, config: RobotConfig,
          seed: int = 0) -> tuple[RobotState, np.ndarray]:
    """Place the robot at the origin in its nominal stance, at rest.

    The placement is deterministic; the seed parameter is accepted for
    interface uniformity and reserved for future start randomization.
    The initial torso position becomes the reward's deviation reference.
    """
    del seed
    position = np.array([0.0, 0.0, config.stand_height + height_at(terrain, 0.0, 0.0)])
    stance = config.nominal_stance.astype(np.float64)
    state = RobotState(
        torso_position=position,
        torso_orientation=np.zeros(3),
        linear_velocity=np.zeros(3),
        angular_velocity=np.zeros(3),
        joint_angles=stance.copy(),
        joint_velocities=np.zeros(N_JOINTS),
        previous_joint_angles=stance.copy(),
        foot_forces=np.zeros((N_LEGS, 3)),
        timestep=0,
        initial_position=position.copy(),
    )
    return state, observe(state)


def _done_reason(state: RobotState, terrain: Terrain, config: RobotConfig,
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


def step(state: RobotState, action, terrain: Terrain, config: RobotConfig,
         t_max: int) -> tuple[RobotState, StepResult]:
    """Apply one control step: clamp action, PD torques, integrate, score."""
    if state.timestep >= t_max:
        raise ProtocolError("step called on a finished episode")
    # pd_torque clamps the action to the action bound.
    torques = pd_torque(action, state.joint_angles, state.joint_velocities, config)
    new_state = integrate(state, torques, terrain, config)
    reward = compute_reward(new_state, config, t_max)
    result = StepResult(observe(new_state), reward,
                        _done_reason(new_state, terrain, config, t_max))
    return new_state, result


@dataclass
class QuadrupedEnv:
    """Stateful convenience wrapper over the pure simulator functions."""

    terrain: Terrain
    config: RobotConfig = field(default_factory=RobotConfig)
    t_max: int = 1000

    def __post_init__(self) -> None:
        self.state: RobotState | None = None
        self.done = False

    def reset(self, seed: int = 0) -> np.ndarray:
        self.state, obs = reset(self.terrain, self.config, seed)
        self.done = False
        return obs

    def step(self, action) -> StepResult:
        if self.state is None:
            raise ProtocolError("step called before reset")
        if self.done:
            raise ProtocolError("step called on a finished episode")
        self.state, result = step(self.state, action, self.terrain, self.config,
                                  self.t_max)
        self.done = result.done
        return result
