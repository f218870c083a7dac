"""Run configuration: one JSON file drives every subcommand.

The file has four sections (features, model, train, priors) plus
top-level seed/rng/data fields. Unknown keys are rejected by name
before any work starts; command-line flags override file values. The
repository ships configs/default.json with the stock desk-scale
settings.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidParameter
from .geometry import FeatureConfig
from .recycling import ModelConfig
from .rng import GENERATOR_NAME
from .training import TrainConfig


@dataclass
class ModelSettings:
    hidden_dim: int = 128
    layers: int = 5
    heads: int = 4
    dropout: float = 0.1
    activation: str = "gelu"
    pool_mode: str = "channel"
    recycles: int = 3
    share_stage_params: bool = True


@dataclass
class PriorSettings:
    structure_provider: str = "stub"  # "stub" or a path to an embedding file
    sequence_provider: str = "stub"
    struct_dim: int = 512
    seq_dim: int = 320
    provider_seed: int = 0


@dataclass
class DataSettings:
    corpus_dir: str | None = None
    chain: str = "A"
    out_dir: str = "runs"


@dataclass
class RunConfig:
    seed: int = 0
    rng: str = GENERATOR_NAME
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    priors: PriorSettings = field(default_factory=PriorSettings)
    data: DataSettings = field(default_factory=DataSettings)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            node_dim=self.features.node_dim,
            edge_dim=self.features.edge_dim,
            hidden_dim=self.model.hidden_dim,
            layers=self.model.layers,
            heads=self.model.heads,
            dropout=self.model.dropout,
            activation=self.model.activation,
            pool_mode=self.model.pool_mode,
            struct_dim=self.priors.struct_dim,
            seq_dim=self.priors.seq_dim,
            recycles=self.model.recycles,
            share_stage_params=self.model.share_stage_params,
        )


_SECTIONS = {
    "features": FeatureConfig,
    "model": ModelSettings,
    "train": TrainConfig,
    "priors": PriorSettings,
    "data": DataSettings,
}
_TOP_LEVEL = {"seed", "rng"} | set(_SECTIONS)


def _build_section(cls, values: dict, section: str):
    names = {f.name for f in dataclasses.fields(cls)}
    for key in values:
        if key not in names:
            raise ConfigError(f"unknown key {section}.{key!r}")
    try:
        return cls(**values)
    except Exception as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    for key in raw:
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown key {key!r}")
    if raw.get("rng", GENERATOR_NAME) != GENERATOR_NAME:
        raise ConfigError(f"unsupported rng {raw.get('rng')!r}; this build uses {GENERATOR_NAME}")
    try:
        seed = int(raw.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be an integer, got {raw['seed']!r}") from exc
    kwargs = {"seed": seed, "rng": GENERATOR_NAME}
    for section, cls in _SECTIONS.items():
        values = raw.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be an object")
        kwargs[section] = _build_section(cls, values, section)
    cfg = RunConfig(**kwargs)
    try:  # the model's ranges, checked once here rather than when a command builds it
        cfg.model_config()
    except (InvalidParameter, TypeError) as exc:
        raise ConfigError(f"invalid model settings: {exc}") from exc
    return cfg


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


def config_to_dict(cfg: RunConfig) -> dict:
    out = {"seed": cfg.seed, "rng": cfg.rng}
    for section in _SECTIONS:
        out[section] = dataclasses.asdict(getattr(cfg, section))
    return out


def write_default_config(path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(RunConfig()), fh, indent=2)
        fh.write("\n")
