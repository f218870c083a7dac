"""Configuration schema validation."""

import json

import pytest

from invfold.config import RunConfig, config_from_dict, config_to_dict, load_config
from invfold.errors import ConfigError


def test_defaults_match_shipped_values():
    cfg = RunConfig()
    assert cfg.features.k == 48
    assert cfg.model.hidden_dim == 128
    assert cfg.model.layers == 5
    assert cfg.model.recycles == 3
    assert cfg.train.lr == 1e-3
    assert cfg.train.weight_decay == 1e-4
    assert cfg.train.warmup_steps == 1000
    assert cfg.train.grad_clip_norm == 1.0
    assert cfg.train.early_stop_patience == 10
    assert cfg.train.noise_sigma == 0.02
    assert cfg.train.dropout == 0.1
    assert cfg.priors.struct_dim == 512
    assert cfg.priors.seq_dim == 320


def test_round_trip_dict():
    cfg = config_from_dict(config_to_dict(RunConfig()))
    assert config_to_dict(cfg) == config_to_dict(RunConfig())


def test_unknown_key_names_offender():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"train": {"learning_rate": 1}})
    assert "train.'learning_rate'" in str(err.value) or "learning_rate" in str(err.value)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"nope": 1})
    assert "nope" in str(err.value)


def test_invalid_value_surfaces_section():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"features": {"k": 0}})
    assert "features" in str(err.value)


def test_unsupported_rng_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"rng": "mersenne"})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_repo_default_file_loads():
    cfg = load_config("configs/default.json")
    assert cfg.model.hidden_dim == 128
    assert cfg.train.max_steps == 2000


def test_shipped_config_is_the_schema():
    """configs/default.json holds every key of the schema at its default,
    and no other key."""
    with open("configs/default.json") as fh:
        assert json.load(fh) == config_to_dict(RunConfig())


def test_derived_fields_follow_their_sections():
    cfg = config_from_dict({"seed": 7, "features": {"rbf_count": 4},
                            "priors": {"struct_dim": 8, "seq_dim": 6},
                            "model": {"dropout": 0.3}})
    assert (cfg.model.node_dim, cfg.model.edge_dim) == (cfg.features.node_dim,
                                                        cfg.features.edge_dim)
    assert (cfg.model.struct_dim, cfg.model.seq_dim) == (8, 6)
    assert (cfg.train.seed, cfg.train.dropout) == (7, 0.3)


@pytest.mark.parametrize("raw", [{"model": {"node_dim": 9}}, {"model": {"struct_dim": 8}},
                                 {"train": {"seed": 1}}, {"train": {"dropout": 0.2}},
                                 {"priors": {"provider_seed": 0}}, {"data": {"chain": "B"}},
                                 {"data": {"corpus_dir": None}}])
def test_keys_with_another_home_are_unknown(raw):
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(raw)


@pytest.mark.parametrize("raw", [{"seed": True}, {"seed": 2.7}, {"seed": "5"}, {"seed": None},
                                 {"priors": {"structure_provider": 5}},
                                 {"priors": {"sequence_provider": ["a"]}},
                                 {"priors": {"struct_dim": -1}}, {"priors": {"seq_dim": 1.0}},
                                 {"data": {"out_dir": None}}])
def test_ill_typed_seed_priors_and_data_are_config_errors(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_model_config_assembly():
    cfg = RunConfig()
    mc = cfg.model
    assert mc.node_dim == cfg.features.node_dim
    assert mc.edge_dim == cfg.features.edge_dim
    assert mc.struct_dim == 512 and mc.seq_dim == 320


@pytest.mark.parametrize("model", [{"heads": 0}, {"hidden_dim": -8}, {"layers": -1},
                                   {"recycles": 0}, {"dropout": 1.0}, {"dropout": -0.1},
                                   {"hidden_dim": 10, "heads": 4}, {"heads": "two"},
                                   {"layers": True}, {"hidden_dim": 2**31},
                                   {"recycles": 1.5}])
def test_model_out_of_range_is_a_config_error(model):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"model": model})
    assert "model" in str(err.value)


def test_zero_layers_is_legal():
    """A depth-0 stack is the identity on the fused node states; the
    model still decodes from them."""
    from invfold.geometry import build_knn_graph
    from invfold.recycling import (InverseFoldModel, StubSequenceProvider,
                                   StubStructureProvider, recycle_infer)
    from invfold.synthetic import random_backbone
    cfg = config_from_dict({"features": {"k": 6, "rbf_count": 4},
                            "model": {"layers": 0, "hidden_dim": 8, "heads": 2},
                            "priors": {"struct_dim": 4, "seq_dim": 4}})
    model = InverseFoldModel(cfg.model, seed=0)
    graph = build_knn_graph(random_backbone(3, 10), cfg.features)
    result = recycle_infer(model, graph, StubStructureProvider(dim=4, seed=0),
                           StubSequenceProvider(dim=4, seed=0), 2)
    assert len(result.predicted.tokens) == 10
