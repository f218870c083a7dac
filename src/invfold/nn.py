"""Parameterized building blocks on top of the autodiff tape.

Weights initialize uniformly in +-sqrt(6 / (fan_in + fan_out)) from a
named stream; biases start at zero. Checkpoints are a JSON manifest
(parameter names, shapes, dtype, seed metadata) followed by the raw
little-endian float blocks in manifest order (docs/formats.md).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .containers import checked, pack, unpack
from .errors import CheckpointMismatch, InvalidParameter
from .rng import RandomStream

_CKPT_MAGIC = b"IFC1"


def xavier_uniform(shape, stream: RandomStream) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return (stream.uniform(shape) * 2.0 - 1.0) * bound


class Module:
    """A holder of parameters, named by their attribute paths.

    `parameters(prefix)` walks the attributes in the order they were set:
    a Tensor with requires_grad is a parameter, a Module is walked, and
    each Module in a list is walked under the list's name plus its index
    (`layer0`, `layer1`, ...). `names` gives the name of an attribute
    where it differs from the attribute's own name.
    """

    names: dict = {}

    def parameters(self, prefix="") -> dict:
        params = {}
        for attr, value in vars(self).items():
            name = self.names.get(attr, attr)
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor) and value.requires_grad:
                params[path] = value
            elif isinstance(value, Module):
                params.update(value.parameters(path))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        params.update(item.parameters(f"{path}{i}"))
        return params


class Linear(Module):
    """y = x @ W + b, with W of shape (d_in, d_out)."""

    def __init__(self, d_in, d_out, stream, bias=True):
        self.w = Tensor(xavier_uniform((d_in, d_out), stream.child("w")), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class MlpBlock(Module):
    """Stack of Linear layers with GELU between them.

    `widths` lists every layer width including input and output, e.g.
    (384, 128, 128) is two Linear layers with one hidden GELU.
    Dropout, when enabled, applies to hidden activations only.
    """

    names = {"layers": "layer"}

    def __init__(self, widths, stream, dropout=0.0):
        if len(widths) < 2:
            raise InvalidParameter("MlpBlock needs at least two widths")
        if not 0.0 <= dropout < 1.0:
            raise InvalidParameter(f"dropout must be in [0, 1), got {dropout}")
        self.widths = tuple(widths)
        self.dropout = dropout
        self.layers = [
            Linear(widths[i], widths[i + 1], stream.child(f"layer{i}"))
            for i in range(len(widths) - 1)
        ]

    def __call__(self, x: Tensor, training=False, stream=None) -> Tensor:
        x = self.layers[0](x)
        for i, layer in enumerate(self.layers[1:], start=1):
            x = ad.gelu(x)
            if self.dropout > 0.0 and training:
                x = ad.dropout(x, self.dropout, stream.child(f"drop{i - 1}"), training)
            x = layer(x)
        return x


def save_checkpoint(params: dict, path, meta=None) -> None:
    """Write parameters (manifest order = sorted names) plus metadata."""
    names = sorted(params)
    manifest = {
        "format": "checkpoint/1",
        "dtype": "<f8",
        "params": [{"name": n, "shape": list(params[n].data.shape)} for n in names],
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(pack(_CKPT_MAGIC, manifest, [("<f8", params[n].data) for n in names]))


def load_checkpoint(path):
    """Read a checkpoint; returns ({name: ndarray}, meta). CheckpointMismatch
    on a malformed file."""
    with open(path, "rb") as fh:
        data = fh.read()
    manifest, blocks = unpack(data, _CKPT_MAGIC,
                              lambda h: [(h["dtype"], e["shape"]) for e in h["params"]],
                              CheckpointMismatch, "checkpoint file")
    with checked(CheckpointMismatch, "checkpoint manifest"):
        arrays = {e["name"]: b.astype(np.float64) for e, b in zip(manifest["params"], blocks)}
        return arrays, dict(manifest.get("meta", {}))


def restore_parameters(params: dict, arrays: dict) -> None:
    """Copy checkpoint arrays into live parameter tensors, strictly."""
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise CheckpointMismatch(f"parameter mismatch: missing={missing[:3]} extra={extra[:3]}")
    for name, tensor in params.items():
        if arrays[name].shape != tensor.data.shape:
            raise CheckpointMismatch(
                f"{name}: checkpoint shape {arrays[name].shape} != model shape {tensor.data.shape}"
            )
        tensor.data = arrays[name].copy()
