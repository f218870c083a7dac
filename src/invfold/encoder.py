"""Message-passing encoder with edge-keyed attention and a global gate.

One layer does three things, in order:

  1. attention over each node's neighbors in which the directed-edge
     feature vector supplies the key (queries come from the receiving
     node, values from receiver/edge/sender concatenated);
  2. a residual per-directed-edge MLP update that reads the layer-input
     node states, so within a layer the update of channel j->i is
     exactly independent of channel i->j;
  3. a gated global-context block: feature-wise attention pooling over
     all nodes, then two sigmoid gates inject the pooled vector back
     into each node.

Node states use pre-layer-norm residual wiring; edge states are residual
without normalization. Edge tensors are laid out (receiver, slot, dim)
with `neighbors[i, m]` naming the sender, so the two orientations of an
adjacency are always distinct entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .containers import pack, unpack
from .errors import InvalidParameter, IsolatedNode, ParseError
from .nn import Linear, LayerNorm, MlpBlock, Module

_ALPHA_MAGIC = b"IFA1"


@dataclass
class LayerState:
    """Node and directed-edge tensors flowing through the stack."""

    h: Tensor
    e: Tensor
    neighbors: np.ndarray
    layer_index: int = 0

    @property
    def n(self):
        return self.h.shape[0]


class AttentionParams(Module):
    """Projections for edge-keyed attention; d_k * heads = d."""

    names = {"w_q": "q", "w_k": "k", "w_v": "v"}

    def __init__(self, d, d_e, heads, stream):
        if d % heads != 0:
            raise InvalidParameter(f"hidden dim {d} not divisible by {heads} heads")
        self.d = d
        self.d_e = d_e
        self.heads = heads
        self.d_k = d // heads
        self.w_q = Linear(d, d, stream.child("q"), bias=False)
        self.w_k = Linear(d_e, d, stream.child("k"), bias=False)
        self.w_v = Linear(2 * d + d_e, d, stream.child("v"), bias=False)


class BridgeParams(Module):
    """Weights of the global-context block."""

    names = {"w_att": "att", "w_val": "val", "mlp_up": "up", "mlp_in": "in", "mlp_out": "out"}

    def __init__(self, d, stream, dropout=0.0):
        self.d = d
        self.w_att = Linear(d, d, stream.child("att"), bias=False)
        self.w_val = Linear(d, d, stream.child("val"), bias=False)
        self.mlp_up = MlpBlock((2 * d, d, d), stream.child("up"), dropout)
        self.mlp_in = MlpBlock((d, d, d), stream.child("in"), dropout)
        self.mlp_out = MlpBlock((d, d, d), stream.child("out"), dropout)


class LayerParams(Module):
    names = {"attention": "attn", "edge_mlp": "edge"}

    def __init__(self, d, d_e, heads, stream, dropout=0.0):
        self.attention = AttentionParams(d, d_e, heads, stream.child("attn"))
        self.edge_mlp = MlpBlock((2 * d + d_e, d_e, d_e), stream.child("edge"), dropout)
        self.bridge = BridgeParams(d, stream.child("bridge"), dropout)
        self.norm = LayerNorm(d)
        self.dropout = dropout


class StackParams(Module):
    names = {"layers": "layer"}

    def __init__(self, d, d_e, heads, depth, stream, dropout=0.0):
        self.depth = depth
        self.layers = [LayerParams(d, d_e, heads, stream.child(f"layer{i}"), dropout)
                       for i in range(depth)]
        self.final_norm = LayerNorm(d) if depth > 0 else None


def gau_attention(h: Tensor, e: Tensor, neighbors: np.ndarray, params: AttentionParams):
    """Edge-keyed attention.

    q_i = W_Q h_i, k_{ji} = W_K e_{ji}, v_{ji} = W_V [h_i || e_{ji} || h_j],
    alpha_{ji} = softmax_j(q_i . k_{ji} / sqrt(d_k)),
    h_local_i = sum_j alpha_{ji} v_{ji}.

    Returns (h_local, alpha) with alpha of shape (n, k', heads).
    """
    n, k = neighbors.shape
    if k < 1:
        raise IsolatedNode("attention requires at least one neighbor per node")
    heads, d_k = params.heads, params.d_k

    q = params.w_q(h)                                   # (n, d)
    # keys and values never materialize per edge: the score is linear in
    # the key and the attention sum in the value (ad.edge_scores, ad.attn_combine)
    logits = ad.mul(ad.edge_scores(q, e, params.w_k.w, heads), 1.0 / math.sqrt(d_k))
    alpha = ad.softmax(logits, axis=1)                  # (n, k, heads)
    h_local = ad.attn_combine(alpha, h, e, neighbors, params.w_v.w, heads)
    return h_local, alpha


def edge_update(h: Tensor, e: Tensor, neighbors: np.ndarray, mlp: MlpBlock,
                training=False, stream=None) -> Tensor:
    """Residual directed-edge refresh: e_{ji} + MLP([h_i || h_j || e_{ji}]).

    Each oriented channel reads only its own entry and the node states,
    so the same-layer cross-channel derivative is exactly zero. The MLP
    runs as one fused op (`ad.edge_mlp`); its dropout mask is the one the
    block's hidden layer draws from `stream.child("drop0")`.
    """
    first, second = mlp.layers
    keep, scale = None, 1.0
    if training and mlp.dropout > 0.0:
        keep = stream.child("drop0").keep_mask(e.shape[:2] + first.w.shape[1:], mlp.dropout)
        scale = 1.0 / (1.0 - mlp.dropout)
    return ad.edge_mlp(h, e, neighbors, first.w, first.b, second.w, second.b, keep, scale)


def global_context_bridge(h_local: Tensor, params: BridgeParams,
                          training=False, stream=None) -> Tensor:
    """Attention-pooled global vector injected through two sigmoid gates.

    s_i = W_att h_i; alpha normalizes exp(s) over nodes per feature
    channel; g = sum_i alpha_i * (W_val h_i); u_i = MLP_up(h_i || g);
    z_i = u_i * sigmoid(MLP_in(h_i)); out_i = h_i * sigmoid(MLP_out(z_i)).
    """
    n = h_local.shape[0]
    s = params.w_att(h_local)                           # (n, d)
    alpha = ad.softmax(s, axis=0)                       # per channel over nodes
    vals = params.w_val(h_local)
    g_pool = ad.tsum(ad.mul(alpha, vals), axis=0, keepdims=True)        # (1, d)
    g_rows = ad.tile_row(g_pool, n)                                     # (n, d)
    # each MLP draws its dropout masks from its own child stream
    s_up, s_in, s_out = (stream.child(name) if stream is not None else None
                         for name in ("up", "in", "out"))
    u = params.mlp_up(ad.concat([h_local, g_rows], axis=1), training=training, stream=s_up)
    z = ad.mul(u, ad.sigmoid(params.mlp_in(h_local, training=training, stream=s_in)))
    gate = ad.sigmoid(params.mlp_out(z, training=training, stream=s_out))
    return ad.mul(h_local, gate)


def symmetrize_edges(e: Tensor, neighbors: np.ndarray) -> Tensor:
    """Average the two orientations of every mutual adjacency (ablation).

    Non-mutual directed edges are left unchanged.
    """
    n, k, d = e.shape
    # slot (i, m) holds the edge j -> i, j = neighbors[i, m]; key it i*n + j and
    # find j*n + i among the sorted keys (the last slot wins on a repeated key)
    receivers = np.arange(n, dtype=np.int64)[:, None]
    senders = neighbors.astype(np.int64)
    keys = (receivers * n + senders).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    mirror = (senders * n + receivers).ravel()
    pos = np.maximum(np.searchsorted(ranked, mirror, side="right") - 1, 0)
    partner = np.where(ranked[pos] == mirror, order[pos], np.arange(n * k))
    flat = ad.reshape(e, (n * k, d))
    mirrored = ad.take_rows(flat, partner)
    return ad.reshape(ad.mul(ad.add(flat, mirrored), 0.5), (n, k, d))


def encoder_layer(state: LayerState, params: LayerParams, training=False, stream=None,
                  use_bridge=True, symmetric_edges=False, update_edges=True):
    """One block: attention -> edge refresh -> global gate, residual on h.

    Returns (new_state, alpha) where alpha is the head-averaged
    pre-dropout attention matrix, shape (n, k'). With update_edges False
    the edge refresh is skipped and the new state carries the input e.
    """
    child = stream.child(f"l{state.layer_index}") if stream is not None else None
    x = params.norm(state.h)
    h_local, alpha = gau_attention(x, state.e, state.neighbors, params.attention)
    alpha_out = alpha.data.mean(axis=2)
    if training and params.dropout > 0.0:
        h_local = ad.dropout(h_local, params.dropout, child.child("attn_drop"), training)

    e_new = state.e
    if update_edges:
        e_new = edge_update(x, e_new, state.neighbors, params.edge_mlp,
                            training=training, stream=child.child("edge") if child else None)
        if symmetric_edges:
            e_new = symmetrize_edges(e_new, state.neighbors)

    h_out = h_local
    if use_bridge:
        h_out = global_context_bridge(h_local, params.bridge, training=training,
                                      stream=child.child("bridge") if child else None)
    if training and params.dropout > 0.0:
        h_out = ad.dropout(h_out, params.dropout, child.child("out_drop"), training)
    h_new = ad.add(state.h, h_out)

    return LayerState(h_new, e_new, state.neighbors, state.layer_index + 1), alpha_out


def write_attention_dump(path, alphas, neighbors: np.ndarray) -> None:
    """Per-layer attention weights: JSON index + float32 blocks.

    Entry (layer, receiver, slot) is the head-averaged weight of the
    edge neighbors[receiver, slot] -> receiver at that layer.
    """
    n, k = neighbors.shape
    header = {
        "format": "attention/1",
        "layers": len(alphas),
        "n": n,
        "k": k,
        "keying": "block l: row i, column m = weight of neighbors[i, m] -> i",
    }
    blocks = [("<i4", neighbors), ("<f4", np.reshape(alphas, (len(alphas), n, k)))]
    with open(path, "wb") as fh:
        fh.write(pack(_ALPHA_MAGIC, header, blocks))


def read_attention_dump(path):
    """Returns (list of (n, k) float arrays, neighbors); ParseError on a
    malformed dump."""
    with open(path, "rb") as fh:
        data = fh.read()
    _, (neighbors, alphas) = unpack(data, _ALPHA_MAGIC, lambda h: [
        ("<i4", (h["n"], h["k"])), ("<f4", (h["layers"], h["n"], h["k"]))],
        ParseError, "attention dump")
    return list(alphas.astype(np.float64)), neighbors.astype(np.int32)


def encoder_stack(state: LayerState, params: StackParams, training=False, stream=None,
                  use_bridge=True, symmetric_edges=False, collect_states=False):
    """Run every layer; returns (state, alphas) or (state, alphas, h_trace).

    Nothing downstream reads the edge states the stack ends with, so the
    last layer skips its edge refresh: the returned state's e is the last
    layer's input.
    """
    alphas = []
    trace = [state.h.data.copy()] if collect_states else None
    if symmetric_edges and params.depth > 0:
        state = LayerState(state.h, symmetrize_edges(state.e, state.neighbors),
                           state.neighbors, state.layer_index)
    for i, layer in enumerate(params.layers):
        state, alpha = encoder_layer(state, layer, training=training, stream=stream,
                                     use_bridge=use_bridge, symmetric_edges=symmetric_edges,
                                     update_edges=i < params.depth - 1)
        alphas.append(alpha)
        if collect_states:
            trace.append(state.h.data.copy())
    if params.final_norm is not None:
        state = LayerState(params.final_norm(state.h), state.e, state.neighbors,
                           state.layer_index)
    if collect_states:
        return state, alphas, trace
    return state, alphas
