"""Run configuration and its flat key-value text format.

Grammar, one setting per line:

    # comment (also allowed after a value)
    key = value
    section.key = value

Sections are ``robot`` (simulator constants), ``rl`` (gradient-learner
hyperparameters), ``cem`` (evolutionary hyperparameters); bare keys are
run-level settings. Value types follow the field being set: int, float
or string. Unknown keys are errors so typos cannot silently fall back to
defaults, and a key set twice is an error so no line silently loses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .env import RobotConfig
from .records import ConfigError, Settings, copied, setting
from .rl import RlHyperparams
from .terrain import AnyTerrain, Ground, grid_side, make_terrain

# Each algorithm's two traits, declared here only: (does it search a
# population, as CEM-RL does; does it back up twin critics, as TD3 does).
ALGORITHMS = {"ddpg": (False, False), "td3": (False, True),
              "cem_ddpg": (True, False), "cem_td3": (True, True)}


@dataclass(frozen=True)
class CemHyperparams(Settings):
    population_size: int = setting(10, 2)
    elite_count: int = setting(5, 1)
    noise_floor: float = setting(1e-3, 0)
    noise_floor_final: float = setting(1e-5, 0)
    noise_decay: float = setting(0.999, 0, 1, open_low=True)
    init_variance: float = setting(0.01, 0)
    grad_steps_cap: int = setting(100, 0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.elite_count > self.population_size:
            raise ConfigError("elite_count must not exceed population_size")


@dataclass(frozen=True)
class RunConfig(Settings):
    algorithm: str = "ddpg"
    master_seed: int = setting(0, 0)
    episodes: int = setting(100, 1)
    generations: int = setting(50, 1)
    warmup_steps: int = setting(1000, 0)
    max_env_steps: int = setting(0, 0)
    t_max: int = setting(1000, 1)
    out_dir: str = "run_output"
    # The ground's own defaults and ranges, so a config holds only ground it
    # can make.
    terrain_amplitude: float = copied(Ground, "amplitude")
    terrain_cell_size: float = copied(Ground, "cell_size")
    terrain_extent: float = copied(Ground, "extent")
    robot: RobotConfig = field(default_factory=RobotConfig)
    rl: RlHyperparams = field(default_factory=RlHyperparams)
    cem: CemHyperparams = field(default_factory=CemHyperparams)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm {self.algorithm!r} is not one of "
                              f"{', '.join(ALGORITHMS)}")
        try:
            grid_side(self.terrain_cell_size, self.terrain_extent)
        except ValueError as exc:
            raise ConfigError(f"terrain_{exc}") from None

    def terrain(self, kind: str, seed: int) -> AnyTerrain:
        """The ground of `kind` from `seed` under this run's terrain settings;
        the one place they become `make_terrain` arguments."""
        return make_terrain(kind, seed, self.terrain_amplitude,
                            self.terrain_cell_size, self.terrain_extent)


_SECTIONS = {"robot": RobotConfig, "rl": RlHyperparams, "cem": CemHyperparams}


def _coerce(key: str, raw: str, default):
    kind = type(default)
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    return raw


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse config text; keyword overrides (e.g. from CLI flags) win."""
    data: dict = {}
    first_line: dict[str, int] = {}  # each key's line, to refuse a second one
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line "
                              f"{first_line[key]}")
        data[key] = _coerce(key, value, _DEFAULTS[key])
    data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)


def load_config(path: str, **overrides) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), **overrides)


def config_to_dict(config: RunConfig) -> dict:
    """Flatten to dotted keys with JSON-native values (exact round trip).

    out_dir is omitted: it locates run artifacts rather than describing
    the experiment, and keeping it would make otherwise-identical
    checkpoints differ byte-wise across output directories.
    """
    out: dict = {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        if f.name in _SECTIONS:
            for sub in dataclasses.fields(value):
                out[f"{f.name}.{sub.name}"] = getattr(value, sub.name)
        elif f.name != "out_dir":
            out[f.name] = value
    return out


# Every settable key, dotted for section fields, with its default value.
_DEFAULTS = dict(config_to_dict(RunConfig()), out_dir=RunConfig().out_dir)

def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from dotted keys; missing keys take their defaults.

    An algorithm may be spelled with dashes (cem-td3) or underscores.
    Each record checks the rules its fields declare, and a section's
    message, which starts with the field's name, is raised here under its
    dotted key. An int in a float field is kept as it is.
    """
    top: dict = {}
    sections: dict[str, dict] = {name: {} for name in _SECTIONS}
    for key, value in data.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        section, dot, name = key.partition(".")
        if dot:
            sections[section][name] = value
        else:
            top[key] = value
    if isinstance(top.get("algorithm"), str):
        top["algorithm"] = top["algorithm"].replace("-", "_")
    for name, cls in _SECTIONS.items():
        try:
            top[name] = cls(**sections[name])
        except ConfigError as exc:
            raise ConfigError(f"{name}.{exc}") from None
    return RunConfig(**top)
