"""The three benchmark workloads and the checks on their outputs.

Each workload turns the benchmark seed into a stream of unit inputs. A
unit is one call into quadrl's public API: one budgeted training run
(`train`) or one 10-trial flat + rough transfer of the committed
checkpoint (`transfer_experiment`). `prepare` is the set-up a user pays
before the first unit (imports happen before it, config parsing and
checkpoint loading inside it); `run` is the timed phase; `inspect` reads
the unit's artifacts back and checks them.

Returns are not metrics. They are pinned through the sha256 of the
artifacts instead: every repeat of one input must reproduce them.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import math
import os
import random
from pathlib import Path

from quadrl.checkpoint import load_checkpoint
from quadrl.config import parse_config
from quadrl.evaluate import report_csv, transfer_experiment
from quadrl.train import train

# The package re-exports the function `evaluate` under the module's name.
quadrl_evaluate = importlib.import_module("quadrl.evaluate")

BENCH_DIR = Path(__file__).resolve().parent

# The criterion-9 configuration of the acceptance suite, less its budget.
TRAIN_CONFIG = """
t_max = 250
episodes = 10000
generations = 10000
warmup_steps = 1000
cem.population_size = 8
cem.elite_count = 4
"""
# 3000 steps: 2000 TD3 updates after the 1000-step warmup; for CEM-TD3,
# 3 or 4 generations of which all but the first are coached. Longer CEM
# budgets make the generation count, and with it the share of coaching,
# swing with the seed (about 20% between seeds at 4500 steps).
TRAIN_BUDGET = 3000

TRANSFER_CHECKPOINT = BENCH_DIR / "transfer_checkpoint.json"
TRANSFER_CHECKPOINT_SHA256 = (
    "63aa75287dabfa037075672f01c7a3493ac19c93f32da96bad14eddafa8b30c1")
TRANSFER_TRIALS = 10


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass
class Unit:
    """What one unit did, as read back from its artifacts."""

    input_seed: int
    workload: str
    wall_s: float = 0.0
    env_steps: int = 0
    digests: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)
    # Output-derived facts the trace is checked against and reports.
    budget: int = 0
    episodes: int = 0
    generations: int = 0
    expected_updates: int = 0
    checkpoint_bytes: int = 0
    coached_generations: int = 0
    flat_trials: int = 0
    flat_distinct: int = 0


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class TrainWorkload:
    """One budgeted training run per unit; the seed draws master seeds."""

    def __init__(self, name: str, algorithm: str, unit_seconds: float):
        self.name = name
        self.algorithm = algorithm
        self.unit_seconds = unit_seconds
        self.config = None

    def prepare(self) -> None:
        self.config = parse_config(TRAIN_CONFIG, algorithm=self.algorithm,
                                   max_env_steps=TRAIN_BUDGET)

    @staticmethod
    def inputs(seed: int):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(1, 2**31)

    def run(self, input_seed: int, out_dir: str) -> Unit:
        config = dataclasses.replace(self.config, master_seed=input_seed,
                                     out_dir=out_dir)
        train(config)
        return Unit(input_seed, self.name, budget=config.max_env_steps)

    def inspect(self, unit: Unit, out_dir: str) -> None:
        cfg = self.config
        paths = {name: os.path.join(out_dir, name) for name in
                 ("metrics.csv", "checkpoint.json", "checkpoint_best.json")}
        unit.digests = {name: sha256_file(p) for name, p in paths.items()}
        final = load_checkpoint(paths["checkpoint.json"])
        best = load_checkpoint(paths["checkpoint_best.json"])
        progress = final.progress
        with open(paths["metrics.csv"], newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        unit.env_steps = int(progress["env_steps"])
        unit.checkpoint_bytes = sum(os.path.getsize(paths[n]) for n in
                                    ("checkpoint.json", "checkpoint_best.json"))
        problems = unit.problems
        if best.progress != progress:
            problems.append("the two checkpoints disagree on progress")
        if progress.get("diverged"):
            problems.append("training reported a divergence")
        returns = [float(r["return"]) for r in rows]
        if not rows or not _finite(returns + [progress["best_return"]]):
            problems.append("non-finite or missing return")
        elif max(returns) != progress["best_return"]:
            problems.append("best_return is not the best metrics.csv return")
        # The budget is checked at episode/generation ends, so a run may
        # overshoot by at most one episode (one generation for CEM).
        episode_cap = cfg.t_max
        if self.algorithm.startswith("cem"):
            episode_cap *= cfg.cem.population_size
        if not (cfg.max_env_steps <= unit.env_steps
                < cfg.max_env_steps + episode_cap):
            problems.append(f"env_steps {unit.env_steps} outside the budget "
                            f"[{cfg.max_env_steps}, "
                            f"{cfg.max_env_steps + episode_cap})")
        if self.algorithm.startswith("cem"):
            unit.generations = int(progress["generations"])
            if len(rows) != unit.generations:
                problems.append("metrics.csv rows != generations")
            self._cem_facts(unit, rows)
        else:
            unit.episodes = int(progress["episodes"])
            if len(rows) != unit.episodes:
                problems.append("metrics.csv rows != episodes")
            first = max(cfg.warmup_steps, cfg.rl.batch_size - 1)
            unit.expected_updates = max(0, unit.env_steps - first)

    def _cem_facts(self, unit: Unit, rows) -> None:
        """Updates and coached generations implied by metrics.csv.

        A generation coaches the first half of its population with
        min(cap, previous generation's transitions // half) gradient
        steps each, once the buffer holds a batch.
        """
        cfg = self.config
        half = cfg.cem.population_size // 2
        sizes = [0] + [int(r["buffer_size"]) for r in rows]
        unit.episodes = len(rows) * cfg.cem.population_size
        if sizes[-1] != unit.env_steps:
            unit.problems.append("final buffer_size != env_steps")
        for g in range(1, len(sizes)):
            prev_collected = sizes[g - 1] - sizes[g - 2] if g >= 2 else 0
            grad_steps = min(cfg.cem.grad_steps_cap,
                             prev_collected // max(1, half))
            coached = grad_steps > 0 and sizes[g - 1] >= cfg.rl.batch_size
            unit.expected_updates += half * grad_steps if coached else 0
            has_rl_mean = not math.isnan(float(rows[g - 1]["rl_mean_fitness"]))
            if coached != has_rl_mean:
                unit.problems.append(f"generation {g}: coaching does not "
                                     "match rl_mean_fitness")
            unit.coached_generations += int(coached)


class TransferWorkload:
    """A 10-trial flat + rough transfer of the committed checkpoint.

    The seed draws the evaluation seed, which picks the rough terrains.
    """

    name = "transfer"
    unit_seconds = 1.4

    def __init__(self):
        self.checkpoint = None
        self._steps: list[int] = []
        self._reports = None

    def prepare(self) -> None:
        digest = sha256_file(TRANSFER_CHECKPOINT)
        if digest != TRANSFER_CHECKPOINT_SHA256:
            raise RuntimeError(f"{TRANSFER_CHECKPOINT.name} has sha256 "
                               f"{digest}, expected {TRANSFER_CHECKPOINT_SHA256}")
        self.checkpoint = load_checkpoint(str(TRANSFER_CHECKPOINT))

    @staticmethod
    def inputs(seed: int):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(0, 10**6)

    def run(self, input_seed: int, out_dir: str) -> Unit:
        # Episode lengths are not in the report; count them as the trials
        # return, through the name evaluate calls.
        run_episode = quadrl_evaluate.run_episode
        steps = self._steps = []

        def counted(*args, **kwargs):
            result = run_episode(*args, **kwargs)
            steps.append(result.steps)
            return result

        quadrl_evaluate.run_episode = counted
        try:
            flat, rough, _ = transfer_experiment(self.checkpoint, input_seed,
                                                 TRANSFER_TRIALS)
        finally:
            quadrl_evaluate.run_episode = run_episode
        with open(os.path.join(out_dir, "transfer_report.csv"), "w",
                  encoding="ascii") as fh:
            fh.write(report_csv([flat, rough]))
        self._reports = (flat, rough)
        return Unit(input_seed, self.name)

    def inspect(self, unit: Unit, out_dir: str) -> None:
        path = os.path.join(out_dir, "transfer_report.csv")
        unit.digests = {"transfer_report.csv": sha256_file(path)}
        flat, rough = self._reports
        unit.flat_trials = len(flat.trial_returns)
        unit.flat_distinct = len(set(flat.trial_returns))
        if not _finite(flat.trial_returns + rough.trial_returns):
            unit.problems.append("non-finite trial return")
        unit.episodes = len(self._steps)
        unit.env_steps = sum(self._steps)
        t_max = self.checkpoint.config.t_max
        if unit.episodes != 2 * TRANSFER_TRIALS:
            unit.problems.append(f"{unit.episodes} trials, expected "
                                 f"{2 * TRANSFER_TRIALS}")
        if any(not 1 <= s <= t_max for s in self._steps):
            unit.problems.append("a trial length is outside [1, t_max]")


# unit_seconds: one unit, process start included, on a 2-core x86 machine
# with BLAS pinned to one thread. It turns --seconds into a unit count, so
# that one seed always means the same inputs.
WORKLOADS = {
    "train-td3": TrainWorkload("train-td3", "td3", unit_seconds=9.0),
    "train-cem-td3": TrainWorkload("train-cem-td3", "cem_td3", unit_seconds=6.0),
    "transfer": TransferWorkload(),
}
