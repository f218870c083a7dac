"""Initialization, MLP blocks, the parameter tree, and the checkpoint format."""

import hashlib

import numpy as np
import pytest

from invfold.autodiff import Tensor
from invfold.errors import CheckpointMismatch, InvalidParameter
from invfold.geometry import FeatureConfig
from invfold.nn import (LayerNorm, Linear, MlpBlock, Module, load_checkpoint, restore_parameters,
                        save_checkpoint, xavier_uniform)
from invfold.recycling import InverseFoldModel, ModelConfig
from invfold.rng import RandomStream


def test_xavier_bounds():
    w = xavier_uniform((50, 30), RandomStream(1, "init"))
    bound = np.sqrt(6.0 / 80)
    assert np.max(np.abs(w)) <= bound
    assert np.std(w) > bound / 4  # actually spread out, not collapsed


def test_linear_shapes():
    layer = Linear(5, 3, RandomStream(2, "lin"))
    out = layer(Tensor(np.ones((4, 5))))
    assert out.shape == (4, 3)
    out3 = layer(Tensor(np.ones((4, 2, 5))))
    assert out3.shape == (4, 2, 3)


def test_mlp_widths_validation():
    with pytest.raises(InvalidParameter):
        MlpBlock((8,), RandomStream(3, "m"))
    with pytest.raises(InvalidParameter):
        MlpBlock((8, 8), RandomStream(3, "m"), dropout=1.0)


class _Holder(Module):
    names = {"proj": "p", "blocks": "block"}

    def __init__(self, stream):
        self.width = 3
        self.proj = Linear(3, 2, stream.child("p"), bias=False)
        self.frozen = Tensor(np.ones(2))
        self.blocks = [LayerNorm(2), "not a module", LayerNorm(2)]
        self.scale = Tensor(np.ones(1), requires_grad=True)
        self.absent = None


def test_parameters_walk_the_attributes_in_the_order_they_were_set():
    holder = _Holder(RandomStream(4, "tree"))
    names = list(holder.parameters())
    assert names == ["p.w", "block0.gain", "block0.bias", "block2.gain", "block2.bias", "scale"]
    assert holder.parameters()["p.w"] is holder.proj.w
    assert list(holder.parameters("top"))[:2] == ["top.p.w", "top.block0.gain"]


def test_default_model_parameter_names_are_pinned():
    """Checkpoint names and the order clip_gradients sums in."""
    features = FeatureConfig()
    model = InverseFoldModel(ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim))
    names = list(model.parameters())
    assert len(names) == 129
    assert names[6] == "stage0.stack.layer0.attn.q.w"
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
        "82508a6966440a82d19c6d9732b18c42855c6da5798ce4910d063b1604757616")


def test_checkpoint_round_trip(tmp_path):
    params = {
        "a.w": Tensor(RandomStream(5, "c").gaussian((3, 4)), requires_grad=True),
        "b.bias": Tensor(np.arange(7, dtype=np.float64), requires_grad=True),
    }
    path = tmp_path / "model.ifc"
    save_checkpoint(params, path, meta={"seed": 11, "note": "test"})
    arrays, meta = load_checkpoint(path)
    assert meta == {"seed": 11, "note": "test"}
    for name, p in params.items():
        assert np.array_equal(arrays[name], p.data)


def test_restore_rejects_shape_mismatch(tmp_path):
    params = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    path = tmp_path / "model.ifc"
    save_checkpoint(params, path)
    arrays, _ = load_checkpoint(path)
    target = {"w": Tensor(np.zeros((3, 3)), requires_grad=True)}
    with pytest.raises(CheckpointMismatch):
        restore_parameters(target, arrays)


def test_restore_rejects_name_mismatch(tmp_path):
    params = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    path = tmp_path / "model.ifc"
    save_checkpoint(params, path)
    arrays, _ = load_checkpoint(path)
    target = {"other": Tensor(np.zeros((2, 2)), requires_grad=True)}
    with pytest.raises(CheckpointMismatch):
        restore_parameters(target, arrays)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ifc"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(path)
