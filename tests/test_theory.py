"""Graph-theory checks: resistance monotonicity, return mass, softmax
sensitivity, and the measured diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invfold.errors import InfiniteResistance, InvalidAttention, InvalidParameter
from invfold.rng import RandomStream
from invfold.theory import (
    ReturnMassReport,
    SensitivityFixture,
    WeightedGraph,
    attention_to_dense,
    contraction_profile,
    effective_resistance,
    oversmoothing_profile,
    pseudoinverse,
    random_connected_graph,
    random_sensitivity_fixtures,
    rank_one_resistance_check,
    recycling_monotonicity_report,
    return_mass,
    softmax_sensitivity_check,
    star_attention,
    two_cycle_attention,
)


def path_graph(weights):
    n = len(weights) + 1
    w = np.zeros((n, n))
    for i, val in enumerate(weights):
        w[i, i + 1] = w[i + 1, i] = val
    return WeightedGraph(w)


class TestWeightedGraph:
    def test_laplacian_rows_sum_zero(self):
        g = random_connected_graph(RandomStream(1, "g"), 8)
        lap = g.laplacian
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-10
        assert np.max(np.abs(lap - lap.T)) < 1e-12
        assert np.linalg.eigvalsh(lap)[0] > -1e-9

    def test_rejects_asymmetric(self):
        w = np.array([[0, 1.0], [0.5, 0]])
        with pytest.raises(InvalidParameter):
            WeightedGraph(w)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            WeightedGraph(np.array([[0, -1.0], [-1.0, 0]]))

    def test_pseudoinverse_property(self):
        g = random_connected_graph(RandomStream(2, "g"), 10)
        lap = g.laplacian
        lp = pseudoinverse(lap)
        assert np.max(np.abs(lap @ lp @ lap - lap)) < 1e-9


class TestEffectiveResistance:
    def test_single_unit_edge(self):
        assert effective_resistance(path_graph([1.0]), 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_series_law(self):
        assert effective_resistance(path_graph([1.0, 1.0]), 0, 2) == pytest.approx(2.0, abs=1e-10)

    def test_unit_triangle(self):
        w = np.ones((3, 3)) - np.eye(3)
        g = WeightedGraph(w)
        for u, v in [(0, 1), (0, 2), (1, 2)]:
            assert effective_resistance(g, u, v) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_disconnected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(InfiniteResistance):
            effective_resistance(WeightedGraph(w), 0, 3)

    def test_same_node(self):
        with pytest.raises(InvalidParameter):
            effective_resistance(path_graph([1.0]), 0, 0)

    def test_triangle_inequality_random_graphs(self):
        for seed in range(10):
            g = random_connected_graph(RandomStream(seed, "tri"), 7)
            lp = pseudoinverse(g.laplacian)

            def res(u, v):
                b = np.zeros(g.n)
                b[u], b[v] = 1.0, -1.0
                return b @ lp @ b

            for u in range(g.n):
                for v in range(u + 1, g.n):
                    for w_ in range(g.n):
                        if w_ in (u, v):
                            continue
                        assert res(u, v) <= res(u, w_) + res(w_, v) + 1e-9


class TestReturnMass:
    def test_two_cycle(self):
        rep = return_mass(two_cycle_attention())
        assert np.allclose(rep.per_node, [1.0, 1.0])
        assert rep.mean == pytest.approx(1.0)

    def test_star_three_leaves(self):
        rep = return_mass(star_attention(3))
        assert rep.per_node[0] == pytest.approx(1.0)
        assert np.allclose(rep.per_node[1:], 1.0 / 3.0)
        assert rep.mean == pytest.approx(0.5, abs=1e-12)

    def test_one_directional_edge_contributes_zero(self):
        a = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
        ])
        rep = return_mass(a)
        assert rep.per_node[0] == 0.0  # 0 -> 1 has no reverse mass
        assert rep.per_node[1] == pytest.approx(1.0)  # mutual with 2

    def test_rejects_non_stochastic(self):
        with pytest.raises(InvalidAttention):
            return_mass(np.array([[0.0, 0.5], [1.0, 0.0]]))

    def test_bound_for_stochastic_rows(self):
        stream = RandomStream(5, "rm")
        for trial in range(20):
            logits = stream.child(f"t{trial}").gaussian((6, 6)) * 3
            np.fill_diagonal(logits, -np.inf)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            rep = return_mass(a)
            assert isinstance(rep, ReturnMassReport)
            assert np.all(rep.per_node <= 1.0 + 1e-12)
            assert np.all(rep.per_node >= 0.0)

    def test_attention_to_dense(self):
        neighbors = np.array([[1, 2], [0, 2], [0, 1]])
        alpha = np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1]])
        dense = attention_to_dense(neighbors, alpha)
        assert dense[0, 1] == 0.25 and dense[0, 2] == 0.75
        assert np.max(np.abs(dense.sum(axis=1) - 1.0)) < 1e-12


class TestRankOneResistance:
    def test_zero_update_identity(self):
        g = path_graph([1.0, 1.0])
        rep = rank_one_resistance_check(g, np.zeros(3))
        assert rep["max_violation"] == pytest.approx(0.0, abs=1e-12)
        assert rep["sherman_morrison_residual"] < 1e-12
        assert rep["ok"]

    def test_path_end_to_end_parallel_law(self):
        # adding a unit edge between the ends of a 2-edge path: 2 || 1 = 2/3
        g = path_graph([1.0, 1.0])
        alpha = np.array([1.0, 0.0, -1.0])
        lap2 = g.laplacian + np.outer(alpha, alpha)
        lp2 = pseudoinverse(lap2)
        b = np.array([1.0, 0.0, -1.0])
        assert b @ lp2 @ b == pytest.approx(2.0 / 3.0, abs=1e-10)
        rep = rank_one_resistance_check(g, alpha, pairs=[(0, 2)])
        assert rep["violations"] == 0 and rep["ok"]

    def test_randomized_sweep(self):
        stream = RandomStream(7, "sweep")
        total_violations = 0
        worst_sm = 0.0
        for i in range(50):
            child = stream.child(f"g{i}")
            n = int(child.child("n").integers(4, 13))
            g = random_connected_graph(child, n)
            alpha = child.child("alpha").gaussian((n,))
            rep = rank_one_resistance_check(g, alpha)
            total_violations += rep["violations"]
            worst_sm = max(worst_sm, rep["sherman_morrison_residual"])
        assert total_violations == 0
        assert worst_sm < 1e-8

    def test_disconnected_rejected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(InfiniteResistance):
            rank_one_resistance_check(WeightedGraph(w), np.ones(4))


class TestSensitivity:
    def test_zero_perturbation(self):
        fx = SensitivityFixture(np.array([0.5, -0.2]), np.array([0.1, 0.3]),
                                0, 1, 0.0, 0.0)
        rep = softmax_sensitivity_check([fx], eps=1e-4)
        assert rep["violations"] == 0
        assert rep["worst_margin"] <= 0.0

    def test_single_neighbor_pinned(self):
        fx = SensitivityFixture(np.array([0.7]), np.array([1.2]), 0, 0, 2.0, -1.5)
        rep = softmax_sensitivity_check([fx], eps=1e-4)
        # a = 1 exactly on both sides; slope and measured change both zero
        assert rep["violations"] == 0
        assert rep["worst_fitted_curvature"] == pytest.approx(0.0, abs=1e-9)

    def test_random_fixtures_hold(self):
        fixtures = random_sensitivity_fixtures(RandomStream(11, "sens"), 300)
        rep = softmax_sensitivity_check(fixtures, eps=1e-4)
        assert rep["violations"] == 0
        assert rep["ok"]

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_bound_property(self, seed):
        fixtures = random_sensitivity_fixtures(RandomStream(seed, "h"), 5)
        rep = softmax_sensitivity_check(fixtures, eps=1e-4)
        assert rep["violations"] == 0

    def test_bad_eps(self):
        with pytest.raises(InvalidParameter):
            softmax_sensitivity_check([], eps=0.0)


class TestModelDiagnostics:
    def test_contraction_profile_shapes(self, small_model, small_graph, small_providers):
        rep = contraction_profile(small_model, [small_graph], *small_providers)
        assert len(rep["directional"]) == small_model.cfg.layers
        assert len(rep["symmetric"]) == small_model.cfg.layers
        assert rep["max_ratio"] > 0
        assert all(0.0 <= r <= 1.0 + 1e-9 for r in rep["directional"])

    def test_uniform_attention_constant_series(self, small_graph, small_feature_config):
        from invfold.recycling import InverseFoldModel, ModelConfig
        from invfold.recycling import StubSequenceProvider, StubStructureProvider
        cfg = ModelConfig(node_dim=small_feature_config.node_dim,
                          edge_dim=small_feature_config.edge_dim,
                          hidden_dim=16, layers=3, heads=2, struct_dim=12, seq_dim=10,
                          dropout=0.0)
        model = InverseFoldModel(cfg, seed=6)
        # zero every key projection: identical logits -> uniform attention
        for layer in model.stage.stack.layers:
            layer.attention.w_k.w.data[:] = 0.0
        rep = contraction_profile(model, [small_graph],
                                  StubStructureProvider(dim=12, seed=1),
                                  StubSequenceProvider(dim=10, seed=1))
        series = rep["directional"]
        assert max(series) - min(series) < 1e-12
        assert rep["max_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_recycling_report(self):
        rep = recycling_monotonicity_report([2.0, 1.5, 1.2])
        assert rep["last_not_worse_than_first"] and rep["nonincreasing"]
        rep2 = recycling_monotonicity_report([1.0, 2.0])
        assert not rep2["last_not_worse_than_first"]
        rep3 = recycling_monotonicity_report([1.0])
        assert rep3["last_not_worse_than_first"]

    def test_oversmoothing_profile(self, small_model, small_graph, small_providers):
        rep = oversmoothing_profile(small_model, small_graph, *small_providers)
        assert len(rep["bridge_on"]) == small_model.cfg.layers + 1
        assert len(rep["bridge_off"]) == small_model.cfg.layers + 1
        assert all(v > 0 for v in rep["bridge_on"])

    def test_oversmoothing_zero_for_identical_inputs(self, small_graph, small_feature_config):
        from invfold.recycling import InverseFoldModel, ModelConfig
        from invfold.recycling import StubSequenceProvider, StubStructureProvider

        class ConstantStructure(StubStructureProvider):
            def embed_structure(self, graph):
                return np.zeros((graph.n, self.dim))

        class ConstantSequence(StubSequenceProvider):
            def embed_sequence(self, tokens):
                return np.zeros((len(tokens), self.dim))

        cfg = ModelConfig(node_dim=small_feature_config.node_dim,
                          edge_dim=small_feature_config.edge_dim,
                          hidden_dim=16, layers=2, heads=2, struct_dim=12, seq_dim=10,
                          dropout=0.0)
        model = InverseFoldModel(cfg, seed=8)
        graph = small_graph
        uniform_nodes = graph.node_feats.copy()
        uniform_nodes[:] = uniform_nodes[0]
        uniform_edges = graph.edge_feats.copy()
        uniform_edges[:] = uniform_edges[0, 0]
        from dataclasses import replace
        same = replace(graph, node_feats=uniform_nodes, edge_feats=uniform_edges)
        rep = oversmoothing_profile(model, same, ConstantStructure(dim=12),
                                    ConstantSequence(dim=10))
        assert rep["bridge_on"][0] == pytest.approx(0.0, abs=1e-12)
        assert all(v < 1e-9 for v in rep["bridge_on"])
