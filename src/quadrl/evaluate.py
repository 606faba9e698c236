"""Two-terrain evaluation protocol and its reports.

A policy is evaluated with its deterministic actor (no exploration
noise) for `EVAL_TRIALS` trials by default. Trial t uses seed
eval_seed + t; on rough terrain that seed also regenerates the terrain,
so the statistics average over ground maps rather than measuring one
map's quirks. A transfer experiment evaluates flat then rough and
reports the degradation (flat mean minus rough mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import net
from .checkpoint import Checkpoint
from .env import QuadrupedEnv
from .rollout import run_episode
from .terrain import AnyTerrain

EVAL_TRIALS = 10
EVAL_SEED = 0


def summarize(returns) -> tuple[float, float, float, float]:
    """(mean, sample std, median, best); std is 0 for a single value.

    Sums run left to right from 0.0, not through `sum`, whose float
    summation is compensated from Python 3.12 on, so the statistics have
    the same bits on every Python version."""
    values = [float(v) for v in returns]
    if not values:
        raise ValueError("cannot summarize an empty list of returns")
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    if n == 1:
        std = 0.0
    else:
        squares = 0.0
        for v in values:
            squares += (v - mean) ** 2
        std = math.sqrt(squares / (n - 1))
    ordered = sorted(values)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    return mean, std, median, max(values)


@dataclass(frozen=True)
class EvalReport:
    """One terrain's trial returns; summarize derives the statistics.

    A report is built from (terrain, trial_returns) alone, so its
    statistics cannot disagree with its trials.
    """

    terrain: str
    trial_returns: tuple[float, ...]
    mean: float = field(init=False)
    std: float = field(init=False)
    median: float = field(init=False)
    best: float = field(init=False)

    def __post_init__(self) -> None:
        returns = tuple(float(v) for v in self.trial_returns)
        object.__setattr__(self, "trial_returns", returns)
        for name, value in zip(("mean", "std", "median", "best"),
                               summarize(returns)):
            object.__setattr__(self, name, value)


def _check_fixed_kind(fixed_terrain: AnyTerrain | None, terrain_kind: str) -> None:
    if fixed_terrain is not None and fixed_terrain.kind != terrain_kind:
        raise ValueError(f"fixed terrain is {fixed_terrain.kind}, not {terrain_kind}")


def evaluate(ck: Checkpoint, terrain_kind: str, trials: int = EVAL_TRIALS,
             eval_seed: int = EVAL_SEED,
             fixed_terrain: AnyTerrain | None = None) -> EvalReport:
    """Run noise-free rollouts of the checkpoint's actor and summarize.

    A fixed terrain must be of terrain_kind, the label the report carries,
    and an unknown kind is refused before any rollout. A simulation
    divergence in any trial propagates: no report is made."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if eval_seed < 0:
        raise ValueError("eval_seed must be non-negative")
    if eval_seed + trials > 2**64:
        raise ValueError("the last trial seed, eval_seed + trials - 1, must be "
                         "below 2**64")
    _check_fixed_kind(fixed_terrain, terrain_kind)
    actor = ck.actor
    cfg = ck.config
    returns = []
    for t in range(trials):
        seed = eval_seed + t
        terrain = fixed_terrain or cfg.terrain(terrain_kind, seed)
        env = QuadrupedEnv(terrain, cfg.robot, t_max=cfg.t_max)
        result = run_episode(env, lambda obs: net.forward(actor, obs), seed)
        returns.append(result.episode_return)
    return EvalReport(terrain_kind, returns)


def transfer_experiment(ck: Checkpoint, eval_seed: int = EVAL_SEED,
                        trials: int = EVAL_TRIALS,
                        fixed_terrain: AnyTerrain | None = None
                        ) -> tuple[EvalReport, EvalReport, float]:
    """Evaluate flat then rough; degradation = flat mean - rough mean.

    A fixed terrain pins the rough trials, so it must be rough; that is
    checked before any trial runs."""
    _check_fixed_kind(fixed_terrain, "rough")
    flat = evaluate(ck, "flat", trials, eval_seed)
    rough = evaluate(ck, "rough", trials, eval_seed, fixed_terrain)
    return flat, rough, flat.mean - rough.mean


def report_csv(reports: list[EvalReport]) -> str:
    """CSV with one row per report: terrain, stats, then trial returns."""
    trials = len(reports[0].trial_returns)
    if any(len(r.trial_returns) != trials for r in reports):
        raise ValueError("reports have differing trial counts")
    header = ("terrain,mean,std,median,best,"
              + ",".join(f"trial_{i}" for i in range(1, trials + 1)))
    lines = [header]
    for r in reports:
        cells = [r.terrain, repr(r.mean), repr(r.std), repr(r.median), repr(r.best)]
        cells += [repr(v) for v in r.trial_returns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


TABLE_COLUMNS = ("Mean Reward", "Std. Dev.", "Median Reward", "Best Reward")


def transfer_table(flat: EvalReport, rough: EvalReport, degradation: float) -> str:
    """Plain-text table, one row per terrain, in the standard column order."""
    rows = [("Terrain", *TABLE_COLUMNS)]
    for r in (flat, rough):
        rows.append((r.terrain, f"{r.mean:.2f}", f"{r.std:.2f}",
                     f"{r.median:.2f}", f"{r.best:.2f}"))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.append(f"degradation (flat mean - rough mean): {degradation:.2f}")
    return "\n".join(lines) + "\n"
