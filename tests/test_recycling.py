"""Prior fusion, decoding, providers, and the recycling loop."""

import numpy as np
import pytest

from invfold import autodiff as ad
from invfold.autodiff import Tensor
from invfold.errors import InvalidParameter, ShapeError
from invfold.recycling import (
    MASK_TOKEN,
    FileSequenceProvider,
    FileStructureProvider,
    InverseFoldModel,
    ModelConfig,
    OracleSequenceProvider,
    PredictedSequence,
    SequenceDistribution,
    StubSequenceProvider,
    StubStructureProvider,
    fuse,
    read_embeddings,
    recycle_infer,
    write_embeddings,
)
from invfold.rng import RandomStream
from invfold.structure_io import AMINO_ACIDS


def rand(shape, seed):
    return RandomStream(seed, f"rc{shape}").gaussian(shape)


class TestFuse:
    def test_width_arithmetic(self):
        out = fuse(rand((4, 128), 1), rand((4, 512), 2), rand((4, 320), 3))
        assert out.shape == (4, 960)

    def test_zero_priors_pad(self):
        h = rand((4, 6), 4)
        out = fuse(h, np.zeros((4, 3)), np.zeros((4, 2)))
        assert np.array_equal(out[:, :6], h)
        assert np.all(out[:, 6:] == 0.0)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(rand((4, 6), 5), rand((5, 3), 6), rand((4, 2), 7))

    def test_tensor_path(self):
        h = Tensor(rand((3, 4), 8), requires_grad=True)
        out = fuse(h, np.zeros((3, 2)), np.zeros((3, 2)))
        assert isinstance(out, Tensor)
        ad.backward(ad.tsum(out))
        assert np.allclose(h.grad, 1.0)


class TestDistributions:
    def test_row_sum_validation(self):
        with pytest.raises(ShapeError):
            SequenceDistribution(np.full((3, 20), 0.06), stage=1)

    def test_argmax_tie_breaks_low_index(self):
        probs = np.full((1, 20), 0.0)
        probs[0, 4] = 0.5
        probs[0, 9] = 0.5
        d = SequenceDistribution(probs, stage=1)
        assert d.argmax_tokens() == [AMINO_ACIDS[4]]


class TestDecode:
    def test_zero_logits_uniform(self, small_model):
        sp = small_model.stage
        sp.tuning.layers[-1].w.data[:] = 0.0
        sp.tuning.layers[-1].b.data[:] = 0.0
        sp.head.w.data[:] = 0.0
        sp.head.b.data[:] = 0.0
        probs = small_model.decode(Tensor(rand((5, 16), 9)), sp)
        assert np.allclose(probs.data, 1.0 / 20)

    def test_rows_sum_to_one(self, small_model):
        probs = small_model.decode(Tensor(rand((7, 16), 10)), small_model.stage)
        assert np.max(np.abs(probs.data.sum(axis=1) - 1.0)) < 1e-6

    def test_hot_logit_dominates(self):
        # closed form: e^10 / (e^10 + 19) for one +10 logit over 19 zeros
        logits = np.zeros((1, 20))
        logits[0, 7] = 10.0
        probs = ad.softmax(Tensor(logits), axis=1)
        expect = np.exp(10.0) / (np.exp(10.0) + 19.0)
        assert probs.data[0, 7] == pytest.approx(expect, rel=1e-12)
        assert probs.data[0, 7] > 0.999


class TestProviders:
    def test_stub_structure_deterministic_and_invariant(self, small_graph, small_model):
        p = StubStructureProvider(dim=12, seed=5)
        a = p.embed_structure(small_graph)
        b = p.embed_structure(small_graph)
        assert np.array_equal(a, b)
        assert a.shape == (small_graph.n, 12)

    def test_stub_sequence_token_position_keyed(self):
        p = StubSequenceProvider(dim=8, seed=5)
        e1 = p.embed_sequence(["A", "C", "A"])
        e2 = p.embed_sequence(["A", "A", "A"])
        assert np.array_equal(e1[0], e2[0])
        assert not np.array_equal(e1[1], e2[1])
        # same token at different positions embeds differently
        assert not np.array_equal(e1[0], e1[2])

    def test_stub_accepts_all_mask(self):
        p = StubSequenceProvider(dim=8, seed=5)
        out = p.embed_sequence([MASK_TOKEN] * 4)
        assert out.shape == (4, 8)

    def test_embedding_file_round_trip(self, tmp_path):
        rows = rand((6, 10), 12)
        path = tmp_path / "emb.ife"
        write_embeddings(path, rows, "test-provider", source_sequence="ACDEFG")
        back, header = read_embeddings(path)
        assert header["n"] == 6 and header["dim"] == 10
        assert header["provider"] == "test-provider"
        assert np.max(np.abs(back - rows)) < 1e-6

    def test_file_providers_swap_with_stubs(self, tmp_path, small_graph, small_model,
                                            small_providers):
        struct_stub, seq_stub = small_providers
        spath = tmp_path / "s.ife"
        qpath = tmp_path / "q.ife"
        write_embeddings(spath, struct_stub.embed_structure(small_graph), "stub-structure")
        write_embeddings(qpath, seq_stub.embed_sequence([MASK_TOKEN] * small_graph.n),
                         "stub-sequence")
        fsp = FileStructureProvider(spath)
        fqp = FileSequenceProvider(qpath)
        # identical stage-1 behavior through the full model
        r_stub = recycle_infer(small_model, small_graph, struct_stub, seq_stub, 1)
        r_file = recycle_infer(small_model, small_graph, fsp, fqp, 1)
        assert np.max(np.abs(r_stub.distributions[0].probs
                             - r_file.distributions[0].probs)) < 1e-6

    def test_file_provider_row_mismatch(self, tmp_path, small_graph):
        path = tmp_path / "bad.ife"
        write_embeddings(path, rand((3, 12), 13), "stub-structure")
        with pytest.raises(ShapeError):
            FileStructureProvider(path).embed_structure(small_graph)

    def test_oracle_provider_substitutes_reference(self):
        ref = list("ACDEF")
        p = OracleSequenceProvider(ref, dim=8, seed=2)
        stub = StubSequenceProvider(dim=8, seed=2)
        assert np.array_equal(p.embed_sequence(list("GGGGG")), stub.embed_sequence(ref))
        masks = [MASK_TOKEN] * 5
        assert np.array_equal(p.embed_sequence(masks), stub.embed_sequence(masks))


class TestRecycleInfer:
    def test_t1_equals_plain_forward(self, small_model, small_graph, small_providers):
        sp, qp = small_providers
        r1 = recycle_infer(small_model, small_graph, sp, qp, 1)
        h_geom, e_geom = small_model.embed_graph(small_graph)
        probs, _, _ = small_model.forward_stage(
            small_graph, h_geom, e_geom, sp.embed_structure(small_graph),
            qp.embed_sequence([MASK_TOKEN] * small_graph.n), 0)
        assert np.array_equal(r1.distributions[0].probs, probs.data)

    def test_matches_taped_run_stages(self, small_model, small_graph, small_providers):
        sp, qp = small_providers
        taped, _, _ = small_model.run_stages(small_graph, sp, qp, 3)
        assert all(p.requires_grad and p._node is not None for p in taped)
        r = recycle_infer(small_model, small_graph, sp, qp, 3)
        for d, p in zip(r.distributions, taped):
            assert np.array_equal(d.probs, p.data)
        assert ad.grad_enabled()

    def test_memory_linear_in_edges(self):
        import tracemalloc
        from invfold.geometry import FeatureConfig, build_knn_graph
        from invfold.synthetic import random_backbone
        features = FeatureConfig()
        cfg = ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim,
                          hidden_dim=32, layers=2, heads=2, struct_dim=16, seq_dim=16,
                          dropout=0.0, recycles=2)
        model = InverseFoldModel(cfg, seed=0)
        sp, qp = StubStructureProvider(dim=16, seed=0), StubSequenceProvider(dim=16, seed=0)
        peaks, edges = {}, {}
        for n in (250, 1000):
            graph = build_knn_graph(random_backbone(5, n), features)
            edges[n] = graph.neighbors.size
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                recycle_infer(model, graph, sp, qp, 2)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert edges[1000] == 4 * edges[250]
        assert peaks[1000] / peaks[250] <= 4.5
        # about 1.9 KiB per edge without a tape; keeping the tape costs about 8.7 KiB
        assert peaks[1000] / edges[1000] <= 3072

    def test_stage_causality_prefix_equal(self, small_model, small_graph, small_providers):
        sp, qp = small_providers
        r1 = recycle_infer(small_model, small_graph, sp, qp, 1)
        r3 = recycle_infer(small_model, small_graph, sp, qp, 3)
        assert np.array_equal(r1.distributions[0].probs, r3.distributions[0].probs)
        assert len(r3.distributions) == 3
        assert [d.stage for d in r3.distributions] == [1, 2, 3]

    def test_determinism(self, small_model, small_graph, small_providers):
        sp, qp = small_providers
        a = recycle_infer(small_model, small_graph, sp, qp, 3)
        b = recycle_infer(small_model, small_graph, sp, qp, 3)
        for da, db in zip(a.distributions, b.distributions):
            assert np.array_equal(da.probs, db.probs)
        assert str(a.predicted) == str(b.predicted)

    def test_predicted_matches_final_argmax(self, small_model, small_graph, small_providers):
        sp, qp = small_providers
        r = recycle_infer(small_model, small_graph, sp, qp, 2)
        assert r.predicted.tokens == r.distributions[-1].argmax_tokens()
        assert r.predicted.stage == 2
        assert isinstance(r.predicted, PredictedSequence)

    def test_invalid_recycles(self, small_model, small_graph, small_providers):
        sp, qp = small_providers
        with pytest.raises(InvalidParameter):
            recycle_infer(small_model, small_graph, sp, qp, 0)

    def test_provider_dim_mismatch(self, small_model, small_graph):
        sp = StubStructureProvider(dim=5, seed=1)
        qp = StubSequenceProvider(dim=10, seed=1)
        with pytest.raises(ShapeError):
            recycle_infer(small_model, small_graph, sp, qp, 1)

    def test_se3_invariant_logits(self, small_model, small_feature_config, small_providers):
        from invfold.geometry import build_knn_graph
        from invfold.structure_io import apply_rigid_transform
        from invfold.synthetic import random_backbone, random_rotation
        sp, qp = small_providers
        b = random_backbone(31, 10)
        g0 = build_knn_graph(b, small_feature_config)
        r = random_rotation(RandomStream(41, "r"))
        moved = apply_rigid_transform(b, r, np.array([4.0, -7.0, 2.0]))
        g1 = build_knn_graph(moved, small_feature_config)
        p0 = recycle_infer(small_model, g0, sp, qp, 2).distributions[-1].probs
        p1 = recycle_infer(small_model, g1, sp, qp, 2).distributions[-1].probs
        assert np.max(np.abs(p0 - p1)) < 1e-8
