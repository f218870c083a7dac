"""Run configuration: one JSON file drives every subcommand.

The file has five sections (features, model, train, priors, data) plus
the top-level seed and rng, and each setting has exactly one key.
Unknown keys are rejected by name before any work starts; command-line
flags override file values. configs/default.json holds every key at its
default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidParameter, check_count, read_text
from .geometry import FeatureConfig
from .recycling import ModelConfig
from .rng import GENERATOR_NAME
from .training import TrainConfig


def _check_text(record, *names) -> None:
    """InvalidParameter unless each field is a string the OS can take as a
    path (no NUL character)."""
    for name in names:
        value = getattr(record, name)
        if not isinstance(value, str) or "\0" in value:
            raise InvalidParameter(f"{name} must be a string without NUL characters, "
                                   f"got {value!r}")


@dataclass
class PriorSettings:
    structure_provider: str = "stub"  # "stub" or a path to an embedding file
    sequence_provider: str = "stub"
    struct_dim: int = ModelConfig.struct_dim
    seq_dim: int = ModelConfig.seq_dim

    def __post_init__(self):
        _check_text(self, "structure_provider", "sequence_provider")
        for name in ("struct_dim", "seq_dim"):
            check_count(self, name, 0)


@dataclass
class DataSettings:
    out_dir: str = "runs"

    def __post_init__(self):
        _check_text(self, "out_dir")


def _default_model() -> ModelConfig:
    features = FeatureConfig()
    return ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim)


@dataclass
class RunConfig:
    seed: int = 0
    rng: str = GENERATOR_NAME
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=_default_model)
    train: TrainConfig = field(default_factory=TrainConfig)
    priors: PriorSettings = field(default_factory=PriorSettings)
    data: DataSettings = field(default_factory=DataSettings)


_SECTIONS = {
    "features": FeatureConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "priors": PriorSettings,
    "data": DataSettings,
}
_TOP_LEVEL = {"seed", "rng"} | set(_SECTIONS)
# record fields filled from other keys of the file, so not keys of their section
_DERIVED = {"model": {"node_dim", "edge_dim", "struct_dim", "seq_dim"},
            "train": {"seed", "dropout"}}


def _build_section(raw: dict, section: str, **derived):
    values = raw.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(f"section {section!r} must be an object")
    cls = _SECTIONS[section]
    names = {f.name for f in dataclasses.fields(cls)} - _DERIVED.get(section, set())
    for key in values:
        if key not in names:
            raise ConfigError(f"unknown key {section}.{key!r}")
    try:
        return cls(**values, **derived)
    except Exception as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    for key in raw:
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown key {key!r}")
    if raw.get("rng", GENERATOR_NAME) != GENERATOR_NAME:
        raise ConfigError(f"unsupported rng {raw.get('rng')!r}; this build uses {GENERATOR_NAME}")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    features = _build_section(raw, "features")
    priors = _build_section(raw, "priors")
    model = _build_section(raw, "model", node_dim=features.node_dim, edge_dim=features.edge_dim,
                           struct_dim=priors.struct_dim, seq_dim=priors.seq_dim)
    return RunConfig(seed=seed, rng=GENERATOR_NAME, features=features, model=model,
                     train=_build_section(raw, "train", seed=seed, dropout=model.dropout),
                     priors=priors, data=_build_section(raw, "data"))


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        raw = json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


def config_to_dict(cfg: RunConfig) -> dict:
    out = {"seed": cfg.seed, "rng": cfg.rng}
    for section in _SECTIONS:
        values = dataclasses.asdict(getattr(cfg, section))
        out[section] = {k: v for k, v in values.items() if k not in _DERIVED.get(section, set())}
    return out
