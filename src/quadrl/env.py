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

from .records import Settings, positive
from .terrain import AnyTerrain, height_at
from .trace import span

N_LEGS = 4
N_JOINTS = 8
OBS_SIZE = 48
JOINT_RANGE = np.pi / 2.0


class SimulationDiverged(RuntimeError):
    """The integrator produced a non-finite state."""


class ProtocolError(RuntimeError):
    """An episode was driven past its done signal."""


@dataclass(frozen=True)
class RobotConfig(Settings):
    body_length: float = positive(0.40)
    body_width: float = positive(0.20)
    mass: float = positive(5.0)
    torque_limit: float = positive(5.0)
    upper_leg_length: float = positive(0.12)
    lower_leg_length: float = positive(0.12)
    pd_kp: float = positive(40.0)
    pd_kd: float = positive(1.0)
    dt: float = positive(0.01)
    substeps: int = positive(4)
    gravity: float = positive(9.81)
    leg_inertia: float = positive(0.02)
    contact_stiffness: float = positive(5000.0)
    contact_damping: float = positive(50.0)
    friction_mu: float = positive(0.8)
    slip_velocity: float = positive(0.05)
    action_bound: float = positive(0.7)
    stance_hip: float = 0.3
    stance_knee: float = -0.6

    @functools.cached_property
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


def _block(start: int, stop: int, *shape: int) -> property:
    """A read-only attribute: a view of `values[start:stop]`, in shape if given."""
    def view(state: RobotState) -> np.ndarray:
        block = state.values[start:stop]
        return block.reshape(shape) if shape else block
    return property(view)


@dataclass
class RobotState:
    """One robot's state: `values` holds its 48 raw entries in the
    observation layout of the module docstring (position, orientation,
    linear and angular velocity, joint angles, joint velocities, foot
    forces, previous joint angles), so the observation is
    `values / OBS_SCALES`. Each named block is a view of `values`; write
    through it (`state.joint_angles[:] = ...`) to change the state.
    """

    values: np.ndarray
    timestep: int
    initial_position: np.ndarray

    torso_position = _block(0, 3)
    torso_orientation = _block(3, 6)
    linear_velocity = _block(6, 9)
    angular_velocity = _block(9, 12)
    joint_angles = _block(12, 20)
    joint_velocities = _block(20, 28)
    foot_forces = _block(28, 40, N_LEGS, 3)
    previous_joint_angles = _block(40, 48)


@dataclass(frozen=True)
class StepResult:
    observation: np.ndarray
    reward: float
    done_reason: str  # one of: fell, tilted, timeout, none

    @property
    def done(self) -> bool:
        return self.done_reason != "none"


def _rotation_columns(roll: float, pitch: float, yaw: float) -> list:
    """World-from-body rotation for (roll, pitch, yaw), applied z-y-x.

    The composed Rz(yaw) @ Ry(pitch) @ Rx(roll) matrix written out, as
    its 9 entries column by column: row-major, that is the transposed
    rotation, and torso-frame rows times it are world rows.
    """
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return [cy * cp, sy * cp, -sp,
            cy * sp * sr - sy * cr, sy * sp * sr + cy * cr, cp * sr,
            cy * sp * cr + sy * sr, sy * sp * cr - cy * sr, cp * cr]


def _world_rows(q: list, qd: list, orientation, hips: list, l1: float,
                l2: float) -> list:
    """The `_leg_rows` rows turned into the world frame: 8 rows of 3 floats.

    One array holds the 24 row entries and then the transposed rotation,
    so one product, through BLAS, turns all eight rows.
    """
    values = np.array(_leg_rows(q, qd, hips, l1, l2) + _rotation_columns(*orientation))
    return (values[:24].reshape(2 * N_LEGS, 3) @ values[24:].reshape(3, 3)).tolist()


def _leg_rows(q: list, qd: list, hips: list, l1: float, l2: float) -> list:
    """The eight torso-frame rows a substep rotates, as 24 floats.

    Each leg is a planar two-link chain in the torso's x-z plane. Rows
    0-3 are the foot positions and rows 4-7 the feet's velocities from
    the joint rates (their y is 0.0 times the rates, as in the array
    form), one row per leg. q and qd are the 8 joint angles and rates,
    hips the torso-frame hip offsets as rows of floats, l1 and l2 the
    upper and lower leg lengths.
    """
    feet, rates = [], []
    for (hx, hy, hz), hip, knee, rate_h, rate_k in zip(
            hips, q[0::2], q[1::2], qd[0::2], qd[1::2]):
        total = hip + knee
        # (knee_x, knee_z) is d_pos/d_knee, the lower link turned a quarter
        # turn; (hip_x, hip_z) is d_pos/d_hip, which adds the upper link.
        # The foot sits at (hip_z, 0, -hip_x) from its hip.
        knee_x, knee_z = l2 * math.cos(total), l2 * math.sin(total)
        hip_x, hip_z = l1 * math.cos(hip) + knee_x, l1 * math.sin(hip) + knee_z
        feet += (hx + hip_z, hy, hz - hip_x)
        rates += (hip_x * rate_h + knee_x * rate_k,
                  0.0 * rate_h + 0.0 * rate_k,
                  hip_z * rate_h + knee_z * rate_k)
    return feet + rates


def pd_torque(targets, angles, velocities, config: RobotConfig) -> np.ndarray:
    """Saturated PD torque toward the (clamped) joint targets.

    Each clamp is a branch that gives what np.clip gives on one float,
    NaN passing through.
    """
    b, limit = config.action_bound, config.torque_limit
    kp, kd = config.pd_kp, config.pd_kd
    t = np.asarray(targets, dtype=np.float64)
    angles, velocities = np.asarray(angles), np.asarray(velocities)
    if t.shape != angles.shape:
        t = np.broadcast_to(t, angles.shape)
    torques = []
    for target, q, qd in zip(t.tolist(), angles.tolist(), velocities.tolist()):
        target = b if target > b else (-b if target < -b else target)
        torque = kp * (target - q) - kd * qd
        torques.append(limit if torque > limit
                       else (-limit if torque < -limit else torque))
    return np.array(torques)


def contact_forces(depth: float, vx: float, vy: float, vz: float,
                   config: RobotConfig) -> tuple[float, float, float]:
    """Spring-damper normal force plus regularized Coulomb friction on one foot.

    depth is the ground height minus the foot height and (vx, vy, vz) the
    foot's world velocity; the result is world (fx, fy, fz) as Python
    floats. A foot at or above the ground gets zero force. The normal
    force only pushes; friction ramps linearly with horizontal speed up to
    the Coulomb bound mu * normal, so it never leaves the friction cone.
    Each branch gives what np.where, np.maximum and np.minimum give on the
    same floats, signed zeros and NaN included.
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


@span
def integrate(state: RobotState, torques, terrain: AnyTerrain,
              config: RobotConfig) -> RobotState:
    """Advance one control step with semi-implicit Euler substeps.

    Torques are held constant over the control step. Velocities update
    before positions each substep; contact forces are evaluated at the
    substep's starting pose. Joint angles are clamped to the mechanical
    range with their velocity zeroed at the stop.

    The substep is a scalar kernel: every per-foot and per-joint quantity
    is a Python float, the leg sin/cos included, and only one product
    runs in numpy: `_world_rows` turns the eight torso-frame rows of
    `_leg_rows` into the world frame. Each operation runs in the order the
    array form of these equations would run it (sums left to right from
    0.0, numpy's `@` for the product), so trajectories are bit-identical
    to it.

    Only a NaN torque makes the step diverge. A torque of +-inf drives its
    joint into the stop, which zeroes the joint's velocity, so the state
    stays finite; `step` never passes one, because `pd_torque` saturates.
    """
    h = config.dt / config.substeps
    qd_step = [(t / config.leg_inertia) * h
               for t in np.asarray(torques, dtype=np.float64).tolist()]
    start = state.values.tolist()
    px, py, pz, roll, pitch, yaw, vx, vy, vz, wx, wy, wz = start[:12]
    q = q_start = start[12:20]
    qd = start[20:28]
    hips = config.hip_offsets.tolist()
    l1, l2 = config.upper_leg_length, config.lower_leg_length
    ix, iy, iz = config.inertia.tolist()
    mass, gravity = config.mass, config.gravity

    for _ in range(config.substeps):
        world = _world_rows(q, qd, (roll, pitch, yaw), hips, l1, l2)

        forces = []
        fx_sum = fy_sum = fz_sum = tx_sum = ty_sum = tz_sum = 0.0
        for (ox, oy, oz), (jx, jy, jz) in zip(world[:N_LEGS], world[N_LEGS:]):
            foot_x, foot_y, foot_z = px + ox, py + oy, pz + oz
            fx, fy, fz = contact_forces(
                height_at(terrain, foot_x, foot_y) - foot_z,
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
        px, py, pz = px + vx * h, py + vy * h, pz + vz * h
        roll, pitch, yaw = roll + wx * h, pitch + wy * h, yaw + wz * h
        angles, rates = q, qd
        q, qd = [], []
        for angle, rate, rate_step in zip(angles, rates, qd_step):
            rate = rate + rate_step
            angle = angle + rate * h
            if angle > JOINT_RANGE:
                angle, rate = JOINT_RANGE, 0.0
            elif angle < -JOINT_RANGE:
                angle, rate = -JOINT_RANGE, 0.0
            q.append(angle)
            qd.append(rate)

    values = [px, py, pz, roll, pitch, yaw, vx, vy, vz, wx, wy, wz,
              *q, *qd, *forces]
    if not all(map(math.isfinite, values)):
        raise SimulationDiverged(
            f"non-finite state at control step {state.timestep + 1}"
        )
    return RobotState(np.array(values + q_start), state.timestep + 1,
                      state.initial_position)


def reward_terms(state: RobotState, t_max: int) -> list[float]:
    """The seven reward terms as Python floats; their sum is the step reward.

    Order: forward velocity, survival, height deviation, lateral
    deviation, roll, pitch, joint motion. Deviations are measured from
    the torso position recorded at reset.
    """
    values = state.values.tolist()
    _, y, z, roll, pitch, _, forward_velocity = values[:7]
    _, y0, z0 = state.initial_position.tolist()
    m = [abs(abs(a) - abs(b)) for a, b in zip(values[12:20], values[40:48])]
    # np.sum's pairwise order for 8 values.
    joint_motion = ((m[0] + m[1]) + (m[2] + m[3])) + ((m[4] + m[5]) + (m[6] + m[7]))
    return [
        75.0 * forward_velocity,
        25.0 * state.timestep / t_max,
        -10.0 * abs(z - z0),
        -5.0 * abs(y - y0),
        -5.0 * abs(roll),
        -5.0 * abs(pitch),
        -0.05 * joint_motion,
    ]


def compute_reward(state: RobotState, t_max: int) -> float:
    total = 0.0
    for term in reward_terms(state, t_max):
        total += term  # left to right from 0.0, as ndarray.sum adds 7 values
    return total


def observe(state: RobotState) -> np.ndarray:
    """`values / OBS_SCALES`; `reset` and `integrate` refuse a non-finite state."""
    return state.values / OBS_SCALES


def reset(terrain: AnyTerrain, config: RobotConfig,
          seed: int = 0) -> tuple[RobotState, np.ndarray]:
    """Place the robot at the origin in its nominal stance, at rest.

    The placement is deterministic; the seed parameter is accepted for
    interface uniformity and reserved for future start randomization.
    The initial torso position becomes the reward's deviation reference.
    A start state that is not finite (a stance height that overflows)
    raises SimulationDiverged.
    """
    del seed
    position = [0.0, 0.0, config.stand_height + height_at(terrain, 0.0, 0.0)]
    stance = config.nominal_stance.tolist()
    # At rest: orientation, velocities and foot forces are zero.
    values = position + [0.0] * 9 + stance + [0.0] * (N_JOINTS + 3 * N_LEGS) + stance
    if not all(map(math.isfinite, values)):
        raise SimulationDiverged("non-finite start state")
    state = RobotState(np.array(values), 0, np.array(position))
    return state, observe(state)


def _done_reason(state: RobotState, terrain: AnyTerrain, config: RobotConfig,
                 t_max: int) -> str:
    x, y, z, roll, pitch = state.values[:5].tolist()
    if z - height_at(terrain, x, y) < 0.4 * config.stand_height:
        return "fell"
    if abs(roll) > 1.0 or abs(pitch) > 1.0:
        return "tilted"
    if state.timestep >= t_max:
        return "timeout"
    return "none"


@span
def step(state: RobotState, action, terrain: AnyTerrain, config: RobotConfig,
         t_max: int) -> tuple[RobotState, StepResult]:
    """Apply one control step: clamp action, PD torques, integrate, score."""
    if state.timestep >= t_max:
        raise ProtocolError("step called on a finished episode")
    # pd_torque clamps the action to the action bound.
    torques = pd_torque(action, state.joint_angles, state.joint_velocities, config)
    new_state = integrate(state, torques, terrain, config)
    reward = compute_reward(new_state, t_max)
    result = StepResult(observe(new_state), reward,
                        _done_reason(new_state, terrain, config, t_max))
    return new_state, result


@dataclass
class QuadrupedEnv:
    """Stateful convenience wrapper over the pure simulator functions."""

    terrain: AnyTerrain
    config: RobotConfig = field(default_factory=RobotConfig)
    t_max: int = field(kw_only=True)  # no default: a run setting, RunConfig.t_max

    def __post_init__(self) -> None:
        self.state: RobotState | None = None
        self.done = False
        self.total_steps = 0  # steps completed (not raised) over all episodes

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
        self.total_steps += 1
        return result
