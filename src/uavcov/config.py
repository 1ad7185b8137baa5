"""Experiment configuration: defaults, profiles, flat-file parsing, hashing.

The on-disk format is flat `key = value` lines (UTF-8, # comments). Every
field of the four dataclasses (EnvConstants, EnvConfig, TrainSchedule and the
top-level fields of ExperimentConfig) is a key of the same name, parsed and
formatted by its annotation. Every key of the resolved configuration
round-trips through dump/parse, and each run directory receives the fully
resolved dump so results are self-describing.
"""

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple

from .channel import EnvConstants
from .env import EnvConfig
from .learn import TrainSchedule

METHODS = ("flare", "maddpg_only", "static")
PROFILES = ("full", "desk")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    constants: EnvConstants = field(default_factory=EnvConstants)
    env: EnvConfig = field(default_factory=EnvConfig)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    grid_width: int = 100
    grid_height: int = 100
    cell_size_m: float = 300.0
    attraction_prob: float = 0.4
    n_attraction_points: int = 3
    attraction_points: list[tuple[int, int]] | None = None  # None: drawn per seed
    frames: int = 10
    method: str = "flare"
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    out_dir: str = "runs"
    profile: str = "desk"
    maddpg_bw_mode: str = "equal"   # "equal" or "learned" bandwidth for maddpg_only
    metrics_interval: int = 0       # 0: one metrics row per episode (its last step)
    eval_steps: int = 0             # 0: schedule.steps_per_episode

    def __post_init__(self):
        for key, valid, rule in (
            ("method", self.method in METHODS, ""),
            ("profile", self.profile in PROFILES, ""),
            ("maddpg_bw_mode", self.maddpg_bw_mode in ("equal", "learned"), ""),
            ("frames", self.frames >= 1, " (at least 1)"),
            ("seeds", len(self.seeds) >= 1, " (at least one)"),
            ("eval_steps", self.eval_steps >= 0, " (0 or more)"),
            ("metrics_interval", self.metrics_interval >= 0, " (0 or more)"),
            ("grid_width", self.grid_width >= 1, " (at least 1)"),
            ("grid_height", self.grid_height >= 1, " (at least 1)"),
            ("cell_size_m", self.cell_size_m > 0, " (positive)"),
            ("attraction_prob", 0.0 <= self.attraction_prob <= 1.0, " (in [0, 1])"),
        ):
            if not valid:
                raise ConfigError(f"invalid value for key '{key}': {getattr(self, key)}{rule}")
        sch = self.schedule  # a frame's replay must hold the warm-up, or no learner updates
        for key in ("warmup_transitions", "batch_size"):
            if getattr(sch, key) > sch.replay_capacity:
                raise ConfigError(f"invalid value for key '{key}': {getattr(sch, key)} (more than "
                                  f"the {sch.replay_capacity} transitions of a frame's replay)")


# Desk-scale profile: the same physics at a laptop-sized training budget.
# Pilot runs showed the actor/critic pair cannot extract a usable policy
# gradient from ~200 updates per frame (it drifts into a single-user power
# spike), so the desk profile keeps the policy near its neutral init and
# leans on sustained exploration plus the serve-and-freeze ratchet; the DQN
# lane keeps a small learning rate of its own.
DESK_OVERRIDES = {
    "episodes": 20,
    "steps_per_episode": 200,
    "frames": 10,
    "batch_size": 128,
    "buffer_capacity": 4000,
    "warmup_transitions": 1000,
    "update_interval": 16,
    "dqn_update_interval": 8,
    "lr": 1e-5,
    "dqn_lr": 1e-4,
    "sigma_start": 0.4,
    "sigma_end": 0.4,
    "eps_end": 0.25,
}


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.split(",") if v.strip()]


def _format_ints(value) -> str:
    return ",".join(str(int(v)) for v in value)


def _parse_points(raw: str) -> list[tuple[int, int]] | None:
    if raw.lower() in ("", "none", "auto"):
        return None
    return [(int(x), int(y)) for x, y in (part.split(",") for part in raw.split(";"))]


def _format_points(value) -> str:
    return "auto" if value is None else ";".join(f"{x},{y}" for x, y in value)


# field annotation -> (parse the stripped text, format the value)
_CODECS = {
    int: (int, str),
    float: (float, lambda value: repr(float(value))),
    str: (str, str),
    list[int]: (_int_list, _format_ints),
    tuple[int, ...]: (lambda raw: tuple(_int_list(raw)), _format_ints),
    list[tuple[int, int]] | None: (_parse_points, _format_points),
}


class _Key(NamedTuple):
    section: str | None  # ExperimentConfig attribute holding the field; None: top level
    parse: Callable[[str], object]
    format: Callable[[object], str]


# The nested dataclass fields of ExperimentConfig are its sections.
_SECTIONS = {f.name: f.type for f in fields(ExperimentConfig) if is_dataclass(f.type)}
_KEYS: dict[str, _Key] = {
    f.name: _Key(section, *_CODECS[f.type])
    for section, cls in [*_SECTIONS.items(), (None, ExperimentConfig)]
    for f in fields(cls) if f.name not in _SECTIONS
}


def _lookup(name: str) -> _Key:
    try:
        return _KEYS[name]
    except KeyError:
        raise ConfigError(f"unknown config key '{name}'") from None


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    parse = _lookup(key).parse
    try:
        return parse(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for key '{key}': {raw}") from exc


def parse_config_text(text: str) -> dict[str, object]:
    """Parse `key = value` lines into typed values; unknown keys are errors."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got: {stripped}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values[key] = _parse_value(key, raw)
    return values


def build_config(overrides: dict[str, object]) -> ExperimentConfig:
    """Defaults -> profile presets -> explicit overrides, then validation."""
    profile = overrides.get("profile", "desk")
    if profile not in PROFILES:
        raise ConfigError(f"invalid value for key 'profile': {profile}")
    merged: dict[str, object] = {}
    if profile == "desk":
        merged.update(DESK_OVERRIDES)
    merged.update(overrides)
    merged["profile"] = profile

    parts: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    top: dict[str, object] = {}
    for key, value in merged.items():
        section = _lookup(key).section
        (top if section is None else parts[section])[key] = value
    try:
        cfg = ExperimentConfig(**{name: _SECTIONS[name](**kw) for name, kw in parts.items()}, **top)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return cfg


def dump_config(cfg: ExperimentConfig, extra: dict[str, object] | None = None) -> str:
    """Flat, sorted, fully resolved key = value text (round-trips via parse)."""
    values = {key: k.format(getattr(cfg if k.section is None else getattr(cfg, k.section), key))
              for key, k in _KEYS.items()}
    for key, value in (extra or {}).items():
        values[key] = _KEYS[key].format(value) if key in _KEYS else str(value)
    return "".join(f"{k} = {values[k]}\n" for k in sorted(values))


def config_hash(cfg: ExperimentConfig, extra: dict[str, object] | None = None) -> str:
    """Identity hash of a run's configuration; the output path is excluded."""
    lines = [ln for ln in dump_config(cfg, extra).splitlines()
             if not ln.startswith("out_dir ")]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
