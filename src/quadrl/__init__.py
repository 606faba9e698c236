"""Gradient and evolutionary reinforcement learning on a built-in quadruped walker."""

import os

# One BLAS thread unless the caller chose otherwise. The matrices here are
# small, and extra threads only add synchronisation. This must run before
# the first numpy import, so it only takes effect if numpy is not loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .config import CemHyperparams, ConfigError, RunConfig, load_config, parse_config
from .env import (ProtocolError, QuadrupedEnv, RobotConfig, RobotState,
                  SimulationDiverged, StepResult)
from .evaluate import EvalReport, summarize, transfer_experiment
from .rl import Learner, RlHyperparams
from .terrain import Terrain, load_terrain, make_terrain, save_terrain

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "CheckpointError", "load_checkpoint", "save_checkpoint",
    "CemHyperparams", "ConfigError", "RunConfig", "load_config", "parse_config",
    "ProtocolError", "QuadrupedEnv", "RobotConfig", "RobotState",
    "SimulationDiverged", "StepResult",
    "EvalReport", "summarize", "transfer_experiment",
    "Learner", "RlHyperparams",
    "Terrain", "load_terrain", "make_terrain", "save_terrain",
    "__version__",
]
