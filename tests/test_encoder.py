"""Layer behavior against independent straight-line evaluations.

The oracles below re-derive each block from its defining arithmetic
with explicit per-node/per-edge python loops, sharing only the
parameter arrays with the implementation under test.
"""

import math

import numpy as np
import pytest

from invfold import autodiff as ad, encoder
from invfold.autodiff import Tensor, backward, check_gradient
from invfold.encoder import (
    AttentionParams,
    BridgeParams,
    LayerParams,
    LayerState,
    StackParams,
    edge_update,
    encoder_layer,
    encoder_stack,
    gau_attention,
    global_context_bridge,
    symmetrize_edges,
)
from invfold.errors import IsolatedNode
from invfold.geometry import FeatureConfig, build_knn_graph
from invfold.nn import MlpBlock
from invfold.rng import RandomStream
from invfold.synthetic import random_backbone


def rand(shape, seed, scale=1.0):
    return RandomStream(seed, f"enc{shape}").gaussian(shape) * scale


def softmax_1d(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def gelu_ref(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-x))


def mlp_ref(block, x):
    """Straight-line evaluation of an MlpBlock on one vector or matrix."""
    out = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(block.layers):
        out = out @ layer.w.data + (layer.b.data if layer.b is not None else 0.0)
        if i < len(block.layers) - 1:
            out = gelu_ref(out)
    return out


@pytest.fixture
def tiny_setup():
    stream = RandomStream(21, "tiny")
    n, k, d, d_e = 5, 3, 8, 8
    neighbors = np.array([[1, 2, 3], [0, 2, 4], [3, 1, 0], [4, 0, 2], [3, 1, 0]],
                         dtype=np.int32)
    h = rand((n, d), seed=100, scale=0.7)
    e = rand((n, k, d_e), seed=101, scale=0.7)
    return stream, neighbors, h, e, d, d_e


class TestAttentionOracle:
    def test_matches_equations(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = AttentionParams(d, d_e, heads=1, stream=stream.child("attn"))
        h_local, alpha = gau_attention(Tensor(h), Tensor(e), neighbors, params)

        wq, wk, wv = params.w_q.w.data, params.w_k.w.data, params.w_v.w.data
        n, k = neighbors.shape
        for i in range(n):
            q_i = h[i] @ wq
            logits = np.empty(k)
            values = np.empty((k, d))
            for m, j in enumerate(neighbors[i]):
                k_ji = e[i, m] @ wk
                logits[m] = q_i @ k_ji / math.sqrt(d)
                values[m] = np.concatenate([h[i], e[i, m], h[j]]) @ wv
            a_ref = softmax_1d(logits)
            assert np.max(np.abs(alpha.data[i, :, 0] - a_ref)) < 1e-7
            h_ref = (a_ref[:, None] * values).sum(axis=0)
            assert np.max(np.abs(h_local.data[i] - h_ref)) < 1e-7

    def test_rows_sum_to_one(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = AttentionParams(d, d_e, heads=2, stream=stream.child("attn2"))
        _, alpha = gau_attention(Tensor(h), Tensor(e), neighbors, params)
        assert np.max(np.abs(alpha.data.sum(axis=1) - 1.0)) < 1e-6

    def test_single_neighbor_alpha_is_one(self, tiny_setup):
        stream, _, h, e, d, d_e = tiny_setup
        neighbors = np.array([[1], [0], [0], [0], [0]], dtype=np.int32)
        params = AttentionParams(d, d_e, heads=1, stream=stream.child("attn3"))
        h_local, alpha = gau_attention(Tensor(h), Tensor(e[:, :1]), neighbors, params)
        assert np.allclose(alpha.data, 1.0)
        v0 = np.concatenate([h[0], e[0, 0], h[1]]) @ params.w_v.w.data
        assert np.max(np.abs(h_local.data[0] - v0)) < 1e-12

    def test_identical_keys_uniform(self, tiny_setup):
        stream, _, h, e, d, d_e = tiny_setup
        neighbors = np.array([[1, 2], [0, 2], [0, 1], [0, 1], [0, 1]], dtype=np.int32)
        e_same = np.tile(e[:, :1], (1, 2, 1))
        params = AttentionParams(d, d_e, heads=1, stream=stream.child("attn4"))
        _, alpha = gau_attention(Tensor(h), Tensor(e_same), neighbors, params)
        assert np.allclose(alpha.data, 0.5, atol=1e-12)

    def test_isolated_node(self, tiny_setup):
        stream, _, h, e, d, d_e = tiny_setup
        params = AttentionParams(d, d_e, heads=1, stream=stream.child("attn5"))
        with pytest.raises(IsolatedNode):
            gau_attention(Tensor(h), Tensor(e[:, :0]), np.zeros((5, 0), dtype=np.int32),
                          params)


class TestEdgeUpdateOracle:
    def test_matches_equation(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        mlp = MlpBlock((2 * d + d_e, d_e, d_e), stream.child("edge"))
        out = edge_update(Tensor(h), Tensor(e), neighbors, mlp)
        for i in range(neighbors.shape[0]):
            for m, j in enumerate(neighbors[i]):
                ref = e[i, m] + mlp_ref(mlp, np.concatenate([h[i], h[j], e[i, m]]))
                assert np.max(np.abs(out.data[i, m] - ref)) < 1e-7

    def test_zero_weights_identity(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        mlp = MlpBlock((2 * d + d_e, d_e, d_e), stream.child("edge0"))
        for layer in mlp.layers:
            layer.w.data[:] = 0.0
        out = edge_update(Tensor(h), Tensor(e), neighbors, mlp)
        assert np.array_equal(out.data, e)

    def test_directional_independence_bitwise(self, tiny_setup):
        """Perturbing channel i->j must leave channel j->i bit-identical."""
        stream, neighbors, h, e, d, d_e = tiny_setup
        mlp = MlpBlock((2 * d + d_e, d_e, d_e), stream.child("edge1"))
        base = edge_update(Tensor(h), Tensor(e), neighbors, mlp).data
        n, k = neighbors.shape
        checked = 0
        for i in range(n):
            for m, j in enumerate(neighbors[i]):
                back = np.nonzero(neighbors[j] == i)[0]
                if back.size == 0:
                    continue
                e_pert = e.copy()
                e_pert[j, back[0]] += 0.37  # perturb e_{i->j}
                new = edge_update(Tensor(h), Tensor(e_pert), neighbors, mlp).data
                assert np.array_equal(new[i, m], base[i, m])
                checked += 1
        assert checked > 0

    def test_numeric_cross_derivative_zero(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        mlp = MlpBlock((2 * d + d_e, d_e, d_e), stream.child("edge2"))
        i, m = 0, 0
        j = int(neighbors[i, m])
        back = int(np.nonzero(neighbors[j] == i)[0][0])
        et = Tensor(e, requires_grad=True)
        out = edge_update(Tensor(h), et, neighbors, mlp)
        probe = np.zeros_like(out.data)
        probe[i, m, 2] = 1.0
        backward(ad.tsum(ad.mul(out, probe)))
        assert np.all(et.grad[j, back] == 0.0)


class TestBridgeOracle:
    def test_matches_equations(self, tiny_setup):
        stream, _, h, _, d, _ = tiny_setup
        params = BridgeParams(d, stream.child("bridge"))
        out = global_context_bridge(Tensor(h), params)

        watt, wval = params.w_att.w.data, params.w_val.w.data
        s = h @ watt
        exps = np.exp(s)
        alpha = exps / exps.sum(axis=0, keepdims=True)   # per feature channel
        g_pool = (alpha * (h @ wval)).sum(axis=0)
        for i in range(h.shape[0]):
            u_i = mlp_ref(params.mlp_up, np.concatenate([h[i], g_pool]))
            z_i = u_i * sigmoid_ref(mlp_ref(params.mlp_in, h[i]))
            ref = h[i] * sigmoid_ref(mlp_ref(params.mlp_out, z_i))
            assert np.max(np.abs(out.data[i] - ref)) < 1e-7

    def test_single_node_pool(self, tiny_setup):
        stream, _, h, _, d, _ = tiny_setup
        params = BridgeParams(d, stream.child("bridge1"))
        h1 = h[:1]
        out = global_context_bridge(Tensor(h1), params)
        g_pool = h1[0] @ params.w_val.w.data  # alpha is all-ones for n = 1
        u = mlp_ref(params.mlp_up, np.concatenate([h1[0], g_pool]))
        z = u * sigmoid_ref(mlp_ref(params.mlp_in, h1[0]))
        ref = h1[0] * sigmoid_ref(mlp_ref(params.mlp_out, z))
        assert np.max(np.abs(out.data[0] - ref)) < 1e-9

    def test_saturated_output_gate(self, tiny_setup):
        stream, _, h, _, d, _ = tiny_setup
        params = BridgeParams(d, stream.child("bridge2"))
        params.mlp_out.layers[-1].w.data[:] = 0.0
        params.mlp_out.layers[-1].b.data[:] = -1000.0
        out = global_context_bridge(Tensor(h), params)
        assert np.max(np.abs(out.data)) < 1e-8

    def test_permutation_equivariance(self, tiny_setup):
        stream, _, h, _, d, _ = tiny_setup
        params = BridgeParams(d, stream.child("bridge3"))
        perm = np.array([3, 0, 4, 1, 2])
        out = global_context_bridge(Tensor(h), params).data
        out_p = global_context_bridge(Tensor(h[perm]), params).data
        assert np.max(np.abs(out_p - out[perm])) < 1e-12

    def test_gradcheck_bridge_alone(self, tiny_setup):
        stream, _, h, _, d, _ = tiny_setup
        params = BridgeParams(d, stream.child("bridge5"))
        weights = params.parameters("bridge")
        probe = rand((5, d), seed=201)

        def f():
            return ad.tsum(ad.mul(global_context_bridge(Tensor(h), params), probe))

        assert check_gradient(f, weights, eps=1e-5, samples_per_param=6, seed=3) < 1e-4

    def test_each_mlp_draws_its_own_dropout_mask(self, tiny_setup, monkeypatch):
        stream, _, h, _, d, _ = tiny_setup
        params = BridgeParams(d, stream.child("bridge6"), dropout=0.5)
        names = []
        real_dropout = ad.dropout

        def recording_dropout(x, rate, stream, training):
            names.append(stream.name)
            return real_dropout(x, rate, stream, training)

        monkeypatch.setattr(ad, "dropout", recording_dropout)
        global_context_bridge(Tensor(h), params, training=True, stream=RandomStream(4, "run"))
        assert len(names) == 3 and len(set(names)) == 3


class TestEncoderLayer:
    def _layer(self, stream, d, d_e, dropout=0.0):
        return LayerParams(d, d_e, heads=2, stream=stream, dropout=dropout)

    def test_zeroed_weights_pass_through(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = self._layer(stream.child("layer0"), d, d_e)
        params.attention.w_v.w.data[:] = 0.0
        for layer in params.edge_mlp.layers:
            layer.w.data[:] = 0.0
            layer.b.data[:] = 0.0
        for block in (params.bridge.mlp_up,):
            for layer in block.layers:
                layer.w.data[:] = 0.0
                layer.b.data[:] = 0.0
        state = LayerState(Tensor(h), Tensor(e), neighbors)
        out, _ = encoder_layer(state, params)
        assert np.array_equal(out.h.data, h)
        assert np.array_equal(out.e.data, e)

    def test_deterministic(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = self._layer(stream.child("layer1"), d, d_e, dropout=0.1)
        outs = []
        for _ in range(2):
            state = LayerState(Tensor(h), Tensor(e), neighbors)
            out, _ = encoder_layer(state, params, training=True,
                                   stream=RandomStream(5, "drop"))
            outs.append(out.h.data)
        assert np.array_equal(outs[0], outs[1])

    def test_global_reach_single_layer(self, tiny_setup):
        """The pooled-context path makes every node sensitive to any
        other node's input after one layer."""
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = self._layer(stream.child("layer2"), d, d_e)
        base, _ = encoder_layer(LayerState(Tensor(h), Tensor(e), neighbors), params)
        for j in range(h.shape[0]):
            h_pert = h.copy()
            h_pert[j] += 1e-4 * rand((d,), seed=300 + j)  # generic direction
            new, _ = encoder_layer(LayerState(Tensor(h_pert), Tensor(e), neighbors), params)
            delta = np.abs(new.h.data - base.h.data).max(axis=1)
            assert np.all(delta > 1e-12)

    def test_gradcheck_full_layer(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = self._layer(stream.child("layer3"), d, d_e)
        weights = params.parameters("layer")
        probe = rand((5, d), seed=200)

        def f():
            state = LayerState(Tensor(h), Tensor(e), neighbors)
            out, _ = encoder_layer(state, params)
            return ad.tsum(ad.mul(out.h, probe))

        assert check_gradient(f, weights, eps=1e-5, samples_per_param=4, seed=2) < 1e-4


class TestEncoderStack:
    def test_depth_zero_identity(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = StackParams(d, d_e, heads=2, depth=0, stream=stream.child("s0"))
        state = LayerState(Tensor(h), Tensor(e), neighbors)
        out, alphas = encoder_stack(state, params)
        assert np.array_equal(out.h.data, h)
        assert alphas == []

    def test_depth_and_alpha_count(self, tiny_setup):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = StackParams(d, d_e, heads=2, depth=4, stream=stream.child("s1"))
        state = LayerState(Tensor(h), Tensor(e), neighbors)
        out, alphas = encoder_stack(state, params)
        assert len(alphas) == 4
        assert all(a.shape == neighbors.shape for a in alphas)
        assert out.layer_index == 4

    def test_last_layer_skips_its_edge_refresh(self, tiny_setup, monkeypatch):
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = StackParams(d, d_e, heads=2, depth=3, stream=stream.child("skip"), dropout=0.1)
        ref = LayerState(Tensor(h), Tensor(e), neighbors)
        ref_alphas = []
        for layer in params.layers:  # every layer refreshes its edges
            ref, alpha = encoder_layer(ref, layer, training=True, stream=RandomStream(6, "drop"))
            ref_alphas.append(alpha)
        calls = []
        real = encoder.edge_update
        monkeypatch.setattr(encoder, "edge_update",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        out, alphas = encoder_stack(LayerState(Tensor(h), Tensor(e), neighbors), params,
                                    training=True, stream=RandomStream(6, "drop"))
        assert len(calls) == 2
        assert np.array_equal(out.h.data, params.final_norm(ref.h).data)
        assert all(np.array_equal(a, b) for a, b in zip(alphas, ref_alphas))

    def test_attention_dump_round_trip(self, tmp_path, tiny_setup):
        from invfold.encoder import read_attention_dump, write_attention_dump
        stream, neighbors, h, e, d, d_e = tiny_setup
        params = StackParams(d, d_e, heads=2, depth=3, stream=stream.child("dump"))
        state = LayerState(Tensor(h), Tensor(e), neighbors)
        _, alphas = encoder_stack(state, params)
        path = tmp_path / "alpha.ifa"
        write_attention_dump(path, alphas, neighbors)
        back, nb = read_attention_dump(path)
        assert np.array_equal(nb, neighbors)
        assert len(back) == 3
        for a, b in zip(alphas, back):
            assert np.max(np.abs(a - b)) < 1e-6

    def test_symmetrize_edges_averages_mutual_pairs(self, tiny_setup):
        _, tiny_neighbors, _, tiny_e, _, _ = tiny_setup
        knn = build_knn_graph(random_backbone(8, 300), FeatureConfig(k=48, rbf_count=4)).neighbors
        for neighbors, e in ((tiny_neighbors, tiny_e), (knn, rand((300, 48, 3), seed=102))):
            out = symmetrize_edges(Tensor(e), neighbors).data
            n, k = neighbors.shape
            for i in range(n):
                for m, j in enumerate(neighbors[i]):
                    back = np.nonzero(neighbors[j] == i)[0]
                    if back.size:
                        expect = 0.5 * (e[i, m] + e[j, back[0]])
                        assert np.max(np.abs(out[i, m] - expect)) < 1e-12
                        assert np.max(np.abs(out[j, back[0]] - expect)) < 1e-12
                    else:
                        assert np.array_equal(out[i, m], e[i, m])
