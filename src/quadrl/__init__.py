"""Gradient and evolutionary reinforcement learning on a built-in quadruped walker."""

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .config import CemHyperparams, ConfigError, RunConfig, load_config, parse_config
from .env import (Normalizers, ProtocolError, QuadrupedEnv, RobotConfig,
                  RobotState, SimulationDiverged, StepResult)
from .evaluate import EvalReport, evaluate, summarize, transfer_experiment
from .rl import Learner, RlHyperparams
from .terrain import Terrain, load_terrain, make_terrain, save_terrain
from .train import train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "CheckpointError", "load_checkpoint", "save_checkpoint",
    "CemHyperparams", "ConfigError", "RunConfig", "load_config", "parse_config",
    "Normalizers", "ProtocolError", "QuadrupedEnv", "RobotConfig", "RobotState",
    "SimulationDiverged", "StepResult",
    "EvalReport", "evaluate", "summarize", "transfer_experiment",
    "Learner", "RlHyperparams",
    "Terrain", "load_terrain", "make_terrain", "save_terrain",
    "train", "__version__",
]
