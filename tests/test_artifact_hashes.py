"""Pinned sha256 of the criterion-5 training artifacts, per algorithm,
of one transfer report, and of the simulator's own trajectories.

Byte-identical artifacts are the behaviour spec: a refactor that claims
to keep behaviour must reproduce these digests bit for bit. A change
that alters numerics on purpose updates them here and says so in
CHANGES.md. The training digests were the same across processes and at
1 and 2 OpenBLAS threads.
"""

import hashlib

import numpy as np
import pytest

import blas_kernel
from quadrl.checkpoint import Checkpoint
from quadrl.config import parse_config
from quadrl.env import (JOINT_RANGE, OBS_SIZE, QuadrupedEnv, RobotConfig,
                        integrate, reset)
from quadrl.evaluate import report_csv, transfer_experiment
from quadrl.net import ParamVector
from quadrl.rl import actor_spec
from quadrl.terrain import make_terrain
from quadrl.train import train
from test_acceptance import _ARTIFACTS, _TINY_BUDGET

# The OpenBLAS kernel the digests below were taken under. Another kernel
# gives other training bytes (see the README's byte contract), so each
# failure names the kernel that ran.
PINNED_KERNEL = "SkylakeX"
KERNEL_NOTE = (f"digests pinned under OpenBLAS {PINNED_KERNEL}, "
               f"running {blas_kernel.corename() or 'an unknown BLAS kernel'}")

PINNED = {
    "ddpg": {
        "metrics.csv":
            "ad22800326c9ddb3722f99c0ea3de15582cc4f88ac1d1854192fc89463aba1a1",
        "checkpoint.json":
            "3a0fd1f6445403511a307b6d2e7df408a5f986c18d735f1a86aac35ac62b0bca",
        "checkpoint_best.json":
            "48cb00e78960ec61f1ee166974e6bbacc53f3e8fcb64115a9f1bb45c376770cc",
    },
    "td3": {
        "metrics.csv":
            "dcf19083015c1373683e57c0a77fce7e8ca765e00db594e89865f07fe7fd484b",
        "checkpoint.json":
            "ac684b1abf6a576f6724694f134e981963a28d87f09f4fd9cdb31a0363ccc655",
        "checkpoint_best.json":
            "81ceea90eed1b3605f0ab87e21bf4116a4ad131e86fa6e2e219747356bdad697",
    },
    "cem_ddpg": {
        "metrics.csv":
            "ef7924fafc974b424688f8d505fc8e31710fb2ce0126b38ec8f13758f9026a43",
        "checkpoint.json":
            "1e10926ca2613a236a29a3c8c42b59f920c2291572ac3f1273b22645d324d578",
        "checkpoint_best.json":
            "ce6dfc377a9ed958f9dadede6629de1d5a2f88dbe03fd80b315e0e7d09e1b61e",
    },
    "cem_td3": {
        "metrics.csv":
            "a8ec58e75aed62e7b2bdbdb236f0bbdf57eaa48b9c919285417ebc0428c0a7a4",
        "checkpoint.json":
            "f055b7aa34479f47939e801860a708b48bf12c58a5139e1c5ff773dd43f76599",
        "checkpoint_best.json":
            "40cad177b269f888b81394585daa8302adc933160ef76927a07a82a24e4ca7c8",
    },
}


@pytest.mark.parametrize("algorithm", sorted(PINNED))
def test_artifacts_match_pinned_sha256(algorithm, tmp_path):
    config = parse_config(_TINY_BUDGET, algorithm=algorithm, master_seed=11,
                          out_dir=str(tmp_path))
    train(config)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in _ARTIFACTS}
    assert digests == PINNED[algorithm], KERNEL_NOTE


TRANSFER_REPORT_SHA256 = (
    "431ad41b18ab7c4b14c1ab5ab1c1614c5df958005744adb0b5eb82d3f8cd4e9d")


def test_transfer_report_matches_pinned_sha256():
    # The criterion-8 checkpoint: a random small actor, 30-step episodes.
    spec = actor_spec(OBS_SIZE, 8, 0.7, hidden=(8, 8))
    values = np.random.default_rng(0).normal(size=spec.param_count)
    ck = Checkpoint({"actor": ParamVector(values, spec)},
                    parse_config("algorithm = td3\nt_max = 30"))
    flat, rough, _ = transfer_experiment(ck, eval_seed=0, trials=3)
    digest = hashlib.sha256(report_csv([flat, rough]).encode("ascii")).hexdigest()
    assert digest == TRANSFER_REPORT_SHA256, KERNEL_NOTE


SIMULATOR_SHA256 = (
    "6ab09c8d4c7ec85da4b23390e26594e230975db640e5441420e7181006fad3fd")


def _state_bytes(state) -> bytes:
    arrays = (state.torso_position, state.torso_orientation,
              state.linear_velocity, state.angular_velocity,
              state.joint_angles, state.joint_velocities,
              state.previous_joint_angles, state.foot_forces)
    return b"".join(a.tobytes() for a in arrays) + repr(state.timestep).encode()


def test_simulator_matches_pinned_sha256():
    """Every byte the simulator produces, on paths training and transfer use.

    Seeded random-action episodes on flat and rough ground (actions
    beyond the action bound, so the clamps act), a zero-action episode
    that ends on timeout, and a direct integrate sequence whose saturated
    torques drive every joint into its stops, which random actions
    through step never reach.
    """
    digest = hashlib.sha256()
    config = RobotConfig()
    rough = make_terrain("rough", seed=4, amplitude=0.03)
    rng = np.random.default_rng(55)
    reasons = []
    for terrain in (make_terrain("flat", seed=0), rough):
        for reset_seed in range(3):
            env = QuadrupedEnv(terrain, t_max=200)
            digest.update(env.reset(seed=reset_seed).tobytes())
            result = None
            while result is None or not result.done:
                result = env.step(rng.uniform(-1.0, 1.0, size=8))
                digest.update(result.observation.tobytes())
                digest.update(repr(result.reward).encode())
                digest.update(result.done_reason.encode())
            reasons.append(result.done_reason)

    env = QuadrupedEnv(rough, t_max=25)
    env.reset()
    result = None
    while result is None or not result.done:
        result = env.step(np.zeros(8))
        digest.update(result.observation.tobytes())
        digest.update(repr(result.reward).encode())
    reasons.append(result.done_reason)

    state, _ = reset(rough, config)
    stops = 0
    for k in range(60):
        torques = np.full(8, config.torque_limit * (1.0 if k // 15 % 2 else -1.0))
        torques[1::2] *= -1.0
        state = integrate(state, torques, rough, config)
        digest.update(_state_bytes(state))
        stops += int(np.sum(np.abs(state.joint_angles) == JOINT_RANGE))

    assert reasons[-1] == "timeout"
    assert stops > 0
    assert digest.hexdigest() == SIMULATOR_SHA256, KERNEL_NOTE
