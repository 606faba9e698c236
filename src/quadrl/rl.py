"""Deterministic-policy gradient learners over flat-parameter networks.

One learner covers DDPG and TD3. With a single critic it blends its
targets every call; with a twin pair of critics it takes min-backup
targets at smoothed target actions and delays actor updates to every
d-th call. Critic inputs are the observation concatenated with the
action, so the actor update chains the critic's action-input gradient
through the actor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net
from .replay import Batch, ReplayBuffer
from .seeds import SeedStream


class TrainingDiverged(RuntimeError):
    """A loss or gradient became non-finite during an update."""


@dataclass(frozen=True)
class RlHyperparams:
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    batch_size: int = 128
    exploration_sigma: float = 0.07
    policy_delay: int = 2
    target_noise_sigma: float = 0.14
    target_noise_clip: float = 0.35
    action_bound: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.policy_delay < 1:
            raise ValueError("policy_delay must be at least 1")
        if self.target_noise_clip < 0.0 or self.target_noise_sigma < 0.0:
            raise ValueError("target noise parameters must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.action_bound <= 0.0:
            raise ValueError("action_bound must be positive")


def actor_spec(obs_size: int, action_size: int, bound: float = 0.7,
               hidden: tuple[int, ...] = (64, 64)) -> net.NetworkSpec:
    return net.mlp_spec([obs_size, *hidden, action_size],
                        output_activation="scaled_tanh", output_bound=bound)


def critic_spec(obs_size: int, action_size: int,
                hidden: tuple[int, ...] = (64, 64)) -> net.NetworkSpec:
    return net.mlp_spec([obs_size + action_size, *hidden, 1])


@dataclass
class Learner:
    """Actor plus one critic (DDPG) or a twin pair (TD3), with their targets.

    The number of critics decides the update rule: a twin learner backs
    up the min over its target critics at a smoothed target action and
    updates its actor and targets every policy_delay-th call; a single
    critic learner does neither.
    """

    actor: net.ParamVector
    target_actor: net.ParamVector
    actor_adam: net.AdamState
    critics: tuple[net.ParamVector, ...]
    target_critics: tuple[net.ParamVector, ...]
    critic_adams: tuple[net.AdamState, ...]
    hp: RlHyperparams
    update_counter: int = 0

    @property
    def twin(self) -> bool:
        return len(self.critics) == 2


def init_learner(obs_size: int, action_size: int, hp: RlHyperparams, seed: int,
                 *, twin: bool, hidden: tuple[int, ...] = (64, 64)) -> Learner:
    """Seed draw order: the actor, then one seed per critic."""
    stream = SeedStream(seed)
    a_spec = actor_spec(obs_size, action_size, hp.action_bound, hidden)
    c_spec = critic_spec(obs_size, action_size, hidden)
    actor = net.init_network(a_spec, stream.next())
    critics = tuple(net.init_network(c_spec, stream.next())
                    for _ in range(2 if twin else 1))
    return Learner(actor, actor, net.init_adam(a_spec.param_count),
                   critics, critics,
                   tuple(net.init_adam(c_spec.param_count) for _ in critics), hp)


def exploration_action(actor: net.ParamVector, observation, sigma: float,
                       seed: int, bound: float = 0.7) -> np.ndarray:
    """Deterministic policy action plus clamped seeded Gaussian noise."""
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    action = net.forward(actor, observation)
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=action.shape)
    return np.clip(action + noise, -bound, bound)


def _critic_input(observations: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return np.concatenate([observations, actions], axis=1)


def smoothed_target_action(target_actor: net.ParamVector, next_observations,
                           hp: RlHyperparams, seed: int) -> np.ndarray:
    """Target action with clipped Gaussian smoothing noise, clamped to bounds."""
    actions = net.forward(target_actor, next_observations)
    rng = np.random.default_rng(seed)
    noise = np.clip(rng.normal(0.0, hp.target_noise_sigma, size=actions.shape),
                    -hp.target_noise_clip, hp.target_noise_clip)
    return np.clip(actions + noise, -hp.action_bound, hp.action_bound)


def critic_target(batch: Batch, learner: Learner, seed: int) -> np.ndarray:
    """y = r + gamma * (1 - done) * Q'(s', a'), one value per item.

    A single critic backs up at a' = pi'(s'). A twin learner backs up the
    min of its target critics at a smoothed a' drawn from seed.
    """
    hp = learner.hp
    if learner.twin:
        a = smoothed_target_action(learner.target_actor, batch.next_observations,
                                   hp, seed)
    else:
        a = net.forward(learner.target_actor, batch.next_observations)
    x = _critic_input(batch.next_observations, a)
    q = np.min([net.forward(c, x)[:, 0] for c in learner.target_critics], axis=0)
    return batch.rewards + hp.gamma * (1.0 - batch.dones.astype(np.float64)) * q


def _critic_gradient(critic: net.ParamVector, batch: Batch,
                     targets: np.ndarray) -> np.ndarray:
    """Gradient of mean squared Bellman error for one critic."""
    x = _critic_input(batch.observations, batch.actions)
    q = net.forward(critic, x)[:, 0]
    residual = q - targets
    with np.errstate(over="ignore"):  # overflow is caught as divergence below
        loss = float(np.mean(residual * residual))
    if not np.isfinite(loss):
        raise TrainingDiverged("critic loss is non-finite")
    upstream = (2.0 / len(batch)) * residual[:, None]
    grad, _ = net.backward(critic, x, upstream)
    return grad


def update_critic(learner: Learner, batch: Batch, targets: np.ndarray) -> Learner:
    """One Adam step on the squared-error loss of every critic."""
    grads = [_critic_gradient(c, batch, targets) for c in learner.critics]
    steps = [net.adam_step(c, g, adam, learner.hp.critic_lr)
             for c, g, adam in zip(learner.critics, grads, learner.critic_adams)]
    learner.critics = tuple(critic for critic, _ in steps)
    learner.critic_adams = tuple(adam for _, adam in steps)
    return learner


def actor_gradient(actor: net.ParamVector, critic: net.ParamVector,
                   observations: np.ndarray) -> np.ndarray:
    """Gradient that descends -mean Q(s, pi(s)) (an ascent step on Q)."""
    actions = net.forward(actor, observations)
    x = _critic_input(observations, actions)
    upstream = np.full((observations.shape[0], 1), -1.0 / observations.shape[0])
    _, input_grad = net.backward(critic, x, upstream)
    action_grad = input_grad[:, observations.shape[1]:]
    grad, _ = net.backward(actor, observations, action_grad)
    return grad


def update_actor(learner: Learner, batch: Batch) -> Learner:
    """One Adam ascent step on mean Q under the first critic."""
    grad = actor_gradient(learner.actor, learner.critics[0], batch.observations)
    if not np.all(np.isfinite(grad)):
        raise TrainingDiverged("actor gradient is non-finite")
    learner.actor, learner.actor_adam = net.adam_step(
        learner.actor, grad, learner.actor_adam, learner.hp.actor_lr)
    return learner


def _blend_targets(learner: Learner) -> None:
    tau = learner.hp.tau
    learner.target_actor = net.polyak_blend(learner.target_actor, learner.actor, tau)
    learner.target_critics = tuple(
        net.polyak_blend(target, critic, tau)
        for target, critic in zip(learner.target_critics, learner.critics))


def train_step(learner: Learner, buffer: ReplayBuffer, seed: int) -> Learner:
    """One minibatch update.

    The critics update every call. The actor and all targets update on
    every policy_delay-th call for a twin learner and on every call for a
    single-critic one, so after n calls a twin learner has made exactly
    floor(n / policy_delay) actor updates.
    """
    hp = learner.hp
    stream = SeedStream(seed)
    batch = buffer.sample_batch(hp.batch_size, stream.next())
    update_critic(learner, batch, critic_target(batch, learner, stream.next()))
    learner.update_counter += 1
    if learner.update_counter % (hp.policy_delay if learner.twin else 1) == 0:
        update_actor(learner, batch)
        _blend_targets(learner)
    return learner
