"""Experiment configuration: defaults, profiles, flat-file parsing, hashing.

The on-disk format is flat `key = value` lines (UTF-8, # comments). Every key
of the resolved configuration round-trips through dump/parse, and each run
directory receives the fully resolved dump so results are self-describing.
"""

import hashlib
from dataclasses import dataclass, field

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
        if self.method not in METHODS:
            raise ConfigError(f"invalid value for key 'method': {self.method}")
        if self.profile not in PROFILES:
            raise ConfigError(f"invalid value for key 'profile': {self.profile}")
        if self.maddpg_bw_mode not in ("equal", "learned"):
            raise ConfigError(f"invalid value for key 'maddpg_bw_mode': {self.maddpg_bw_mode}")
        if self.frames < 1:
            raise ConfigError(f"invalid value for key 'frames': {self.frames} (at least 1)")
        if self.eval_steps < 0:
            raise ConfigError(f"invalid value for key 'eval_steps': {self.eval_steps} (0 or more)")


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

_POINT_LIST = "point_list"
_INT_LIST = "int_list"
_INT_TUPLE = "int_tuple"
_OPT_POINTS = "opt_points"

# key -> (section attribute or None for top level, field name, type)
_KEYS: dict[str, tuple[str | None, str, object]] = {
    # propagation constants
    "b": ("constants", "b", float),
    "c": ("constants", "c", float),
    "alpha_los": ("constants", "alpha_los", float),
    "alpha_nlos": ("constants", "alpha_nlos", float),
    "noise_power": ("constants", "noise_power", float),
    "rician_k_db": ("constants", "rician_k_db", float),
    # environment
    "n_ues": ("env", "n_ues", int),
    "k_max": ("env", "k_max", int),
    "p_max": ("env", "p_max", float),
    "b_max": ("env", "b_max", float),
    "block_size": ("env", "block_size", float),
    "block_limit": ("env", "block_limit", int),
    "h_min": ("env", "h_min", float),
    "h_max": ("env", "h_max", float),
    "r_th": ("env", "r_th", float),
    "max_cluster_size": ("env", "max_cluster_size", int),
    "p_avg_mode": ("env", "p_avg_mode", str),
    # training schedule
    "episodes": ("schedule", "episodes", int),
    "steps_per_episode": ("schedule", "steps_per_episode", int),
    "lr": ("schedule", "lr", float),
    "dqn_lr": ("schedule", "dqn_lr", float),
    "gamma": ("schedule", "gamma", float),
    "tau": ("schedule", "tau", float),
    "batch_size": ("schedule", "batch_size", int),
    "buffer_capacity": ("schedule", "buffer_capacity", int),
    "warmup_transitions": ("schedule", "warmup_transitions", int),
    "update_interval": ("schedule", "update_interval", int),
    "dqn_update_interval": ("schedule", "dqn_update_interval", int),
    "hidden": ("schedule", "hidden", _INT_TUPLE),
    "sigma_start": ("schedule", "sigma_start", float),
    "sigma_end": ("schedule", "sigma_end", float),
    "sigma_frac": ("schedule", "sigma_frac", float),
    "eps_start": ("schedule", "eps_start", float),
    "eps_end": ("schedule", "eps_end", float),
    "eps_frac": ("schedule", "eps_frac", float),
    "critic_mode": ("schedule", "critic_mode", str),
    # world / harness
    "grid_width": (None, "grid_width", int),
    "grid_height": (None, "grid_height", int),
    "cell_size_m": (None, "cell_size_m", float),
    "attraction_prob": (None, "attraction_prob", float),
    "n_attraction_points": (None, "n_attraction_points", int),
    "attraction_points": (None, "attraction_points", _OPT_POINTS),
    "frames": (None, "frames", int),
    "method": (None, "method", str),
    "seeds": (None, "seeds", _INT_LIST),
    "out_dir": (None, "out_dir", str),
    "profile": (None, "profile", str),
    "maddpg_bw_mode": (None, "maddpg_bw_mode", str),
    "metrics_interval": (None, "metrics_interval", int),
    "eval_steps": (None, "eval_steps", int),
}


def _parse_value(key: str, raw: str):
    _, _, typ = _KEYS[key]
    raw = raw.strip()
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        if typ is str:
            return raw
        if typ is _INT_LIST:
            return [int(v) for v in raw.split(",") if v.strip()]
        if typ is _INT_TUPLE:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if typ is _OPT_POINTS:
            if raw.lower() in ("", "none", "auto"):
                return None
            pts = []
            for part in raw.split(";"):
                x, y = part.split(",")
                pts.append((int(x), int(y)))
            return pts
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for key '{key}': {raw}") from exc
    raise ConfigError(f"invalid value for key '{key}': {raw}")


def _format_value(key: str, value) -> str:
    _, _, typ = _KEYS[key]
    if typ is _INT_LIST or typ is _INT_TUPLE:
        return ",".join(str(int(v)) for v in value)
    if typ is _OPT_POINTS:
        return "auto" if value is None else ";".join(f"{x},{y}" for x, y in value)
    if typ is float:
        return repr(float(value))
    return str(value)


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
        if key not in _KEYS:
            raise ConfigError(f"unknown config key '{key}'")
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

    sections = {"constants": {}, "env": {}, "schedule": {}}
    top: dict[str, object] = {}
    for key, value in merged.items():
        section, attr, _ = _KEYS[key]
        if section is None:
            top[attr] = value
        else:
            sections[section][attr] = value
    try:
        cfg = ExperimentConfig(
            constants=EnvConstants(**sections["constants"]),
            env=EnvConfig(**sections["env"]),
            schedule=TrainSchedule(**sections["schedule"]),
            **top,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return cfg


def dump_config(cfg: ExperimentConfig, extra: dict[str, object] | None = None) -> str:
    """Flat, sorted, fully resolved key = value text (round-trips via parse)."""
    values: dict[str, str] = {}
    for key, (section, attr, _) in _KEYS.items():
        obj = cfg if section is None else getattr(cfg, section)
        values[key] = _format_value(key, getattr(obj, attr))
    if extra:
        for k, v in extra.items():
            values[k] = _format_value(k, v) if k in _KEYS else str(v)
    return "".join(f"{k} = {values[k]}\n" for k in sorted(values))


def config_hash(cfg: ExperimentConfig, extra: dict[str, object] | None = None) -> str:
    """Identity hash of a run's configuration; the output path is excluded."""
    lines = [ln for ln in dump_config(cfg, extra).splitlines()
             if not ln.startswith("out_dir ")]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
