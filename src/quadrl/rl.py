"""Deterministic-policy gradient learners over flat-parameter networks.

One learner covers DDPG and TD3. With a single critic it blends its
targets every call; with a twin pair of critics it takes min-backup
targets at smoothed target actions and delays actor updates to every
d-th call. Critic inputs are the observation concatenated with the
action, so the actor update chains the critic's action-input gradient
through the actor. One rule, noisy_action, adds both of TD3's noises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import net
from .net import TrainingDiverged
from .records import Settings, setting
from .replay import Batch, ReplayBuffer
from .seeds import SeedStream
from .trace import span

# Hidden layer widths of the actor and critic networks.
HIDDEN = (64, 64)


@dataclass(frozen=True)
class RlHyperparams(Settings):
    gamma: float = setting(0.99, 0, 1, open_high=True)
    tau: float = setting(0.005, 0, 1, open_low=True)
    actor_lr: float = setting(1e-3, 0)
    critic_lr: float = setting(1e-3, 0)
    batch_size: int = setting(128, 1)
    exploration_sigma: float = setting(0.07, 0)
    policy_delay: int = setting(2, 1)
    target_noise_sigma: float = setting(0.14, 0)
    target_noise_clip: float = setting(0.35, 0)


def actor_spec(obs_size: int, action_size: int, bound: float,
               hidden: tuple[int, ...] = HIDDEN) -> net.NetworkSpec:
    return net.mlp_spec([obs_size, *hidden, action_size],
                        output_activation="scaled_tanh", output_bound=bound)


def critic_spec(obs_size: int, action_size: int,
                hidden: tuple[int, ...] = HIDDEN) -> net.NetworkSpec:
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


def init_learner(obs_size: int, action_size: int, bound: float,
                 hp: RlHyperparams, seed: int, *, twin: bool,
                 hidden: tuple[int, ...] = HIDDEN) -> Learner:
    """Seed draw order: the actor, then one seed per critic."""
    stream = SeedStream(seed)
    a_spec = actor_spec(obs_size, action_size, bound, hidden)
    c_spec = critic_spec(obs_size, action_size, hidden)
    actor = net.init_network(a_spec, stream.next())
    critics = tuple(net.init_network(c_spec, stream.next())
                    for _ in range(2 if twin else 1))
    return Learner(actor, actor, net.init_adam(a_spec.param_count),
                   critics, critics,
                   tuple(net.init_adam(c_spec.param_count) for _ in critics), hp)


def reset_actor(learner: Learner, params) -> None:
    """Install params as a fresh actor.

    The actor is its own target, its Adam moments are zero and
    update_counter is 0, so a twin learner's policy delay counts from it.
    """
    actor = net.ParamVector(params, learner.actor.spec)
    learner.actor = actor
    learner.target_actor = actor
    learner.actor_adam = net.init_adam(actor.spec.param_count)
    learner.update_counter = 0


def noisy_action(actor: net.ParamVector, observations, sigma: float, seed: int,
                 noise_clip: float = math.inf) -> np.ndarray:
    """Policy action plus seeded Gaussian noise clipped to +-noise_clip, in bounds."""
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    actions = net.forward(actor, observations)
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=actions.shape)
    bound = actor.spec.layers[-1].bound  # its scaled_tanh output layer's
    return np.clip(actions + np.clip(noise, -noise_clip, noise_clip),
                   -bound, bound)


def _critic_input(observations: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return np.concatenate([observations, actions], axis=1)


def critic_target(batch: Batch, learner: Learner, seed: int) -> np.ndarray:
    """y = r + gamma * (1 - done) * Q'(s', a'), one value per item.

    A single critic backs up at a' = pi'(s'). A twin learner backs up the
    min of its target critics at a smoothed a' drawn from seed.
    """
    hp = learner.hp
    if learner.twin:
        a = noisy_action(learner.target_actor, batch.next_observations,
                         hp.target_noise_sigma, seed, hp.target_noise_clip)
    else:
        a = net.forward(learner.target_actor, batch.next_observations)
    x = _critic_input(batch.next_observations, a)
    q = np.min([net.forward(c, x)[:, 0] for c in learner.target_critics], axis=0)
    return batch.rewards + hp.gamma * (1.0 - batch.dones.astype(np.float64)) * q


def _critic_gradient(critic: net.ParamVector, critic_input: np.ndarray,
                     targets: np.ndarray) -> np.ndarray:
    """Gradient of mean squared Bellman error for one critic."""
    outputs = net.layer_outputs(critic, critic_input)
    residual = outputs[-1][:, 0] - targets
    with np.errstate(over="ignore"):  # overflow is caught as divergence below
        loss = float(np.mean(residual * residual))
    if not np.isfinite(loss):
        raise TrainingDiverged("critic loss is non-finite")
    upstream = (2.0 / len(critic_input)) * residual[:, None]
    return net.backward(critic, outputs, upstream, wrt="params")


def update_critic(learner: Learner, batch: Batch, targets: np.ndarray) -> None:
    """One Adam step on the squared-error loss of every critic."""
    x = _critic_input(batch.observations, batch.actions)
    grads = [_critic_gradient(c, x, targets) for c in learner.critics]
    steps = [net.adam_step(c, g, adam, learner.hp.critic_lr)
             for c, g, adam in zip(learner.critics, grads, learner.critic_adams)]
    learner.critics = tuple(critic for critic, _ in steps)
    learner.critic_adams = tuple(adam for _, adam in steps)


def actor_gradient(actor: net.ParamVector, critic: net.ParamVector,
                   observations: np.ndarray) -> np.ndarray:
    """Gradient that descends -mean Q(s, pi(s)) (an ascent step on Q)."""
    actor_outputs = net.layer_outputs(actor, observations)
    x = _critic_input(observations, actor_outputs[-1])
    upstream = np.full((observations.shape[0], 1), -1.0 / observations.shape[0])
    input_grad = net.backward(critic, net.layer_outputs(critic, x), upstream,
                              wrt="inputs")
    action_grad = input_grad[:, observations.shape[1]:]
    return net.backward(actor, actor_outputs, action_grad, wrt="params")


def update_actor(learner: Learner, batch: Batch) -> None:
    """One Adam ascent step on mean Q under the first critic."""
    grad = actor_gradient(learner.actor, learner.critics[0], batch.observations)
    learner.actor, learner.actor_adam = net.adam_step(
        learner.actor, grad, learner.actor_adam, learner.hp.actor_lr)


def _blend_targets(learner: Learner) -> None:
    tau = learner.hp.tau
    learner.target_actor = net.polyak_blend(learner.target_actor, learner.actor, tau)
    learner.target_critics = tuple(
        net.polyak_blend(target, critic, tau)
        for target, critic in zip(learner.target_critics, learner.critics))


@span
def train_step(learner: Learner, buffer: ReplayBuffer, seed: int) -> None:
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
