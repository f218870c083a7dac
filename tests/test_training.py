"""Objective arithmetic, metrics, optimizer, schedule, and a tiny run."""

import math

import numpy as np
import pytest

from invfold import autodiff as ad
from invfold.autodiff import Tensor
from invfold.errors import EmptyLoss, InvalidParameter, TrainingDiverged
from invfold.recycling import ModelConfig, SequenceDistribution
from invfold.rng import RandomStream
from invfold.structure_io import AA_INDEX
from invfold.synthetic import random_backbone, toy_corpus
from invfold.training import (
    AdamW,
    Metrics,
    TrainConfig,
    clip_gradients,
    cosine_warmup_lr,
    metrics,
    pool_metrics,
    staged_loss,
    staged_loss_tensor,
    train_toy,
)
from invfold.geometry import FeatureConfig, build_knn_graph


def random_dist(n, seed, stage=1):
    logits = RandomStream(seed, "dist").gaussian((n, 20))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return SequenceDistribution(e / e.sum(axis=1, keepdims=True), stage=stage)


def onehot_dist(tokens, stage=1):
    probs = np.full((len(tokens), 20), 1e-12)
    for i, t in enumerate(tokens):
        probs[i, AA_INDEX[t]] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    return SequenceDistribution(probs, stage=stage)


def loss_oracle(dists, truth):
    """Triple-loop re-implementation of the summed-stage objective."""
    tokens = list(truth)
    scored = [i for i, t in enumerate(tokens) if t in AA_INDEX]
    total = 0.0
    for d in dists:
        for i in scored:
            for c in range(20):
                y = 1.0 if c == AA_INDEX[tokens[i]] else 0.0
                if y:
                    total -= y * math.log(d.probs[i, c])
    return total / len(scored)


class TestStagedLoss:
    def test_perfect_predictions_zero(self):
        truth = "ACDE"
        dists = [onehot_dist(truth, stage=t + 1) for t in range(3)]
        assert staged_loss(dists, truth) < 1e-9
        assert metrics(dists[-1], truth).perplexity == pytest.approx(1.0)

    def test_uniform_three_stages(self):
        n = 6
        uniform = SequenceDistribution(np.full((n, 20), 1 / 20), stage=1)
        val = staged_loss([uniform] * 3, "ACDEFG")
        assert val == pytest.approx(3 * math.log(20), abs=1e-9)

    def test_matches_independent_oracle(self):
        truth = "ACDXFGHIK"  # one unknown residue masked out
        dists = [random_dist(9, seed=s, stage=s + 1) for s in range(3)]
        assert staged_loss(dists, truth) == pytest.approx(loss_oracle(dists, truth), abs=1e-9)

    def test_masking_wrong_residue_lowers_loss(self):
        truth = "AC"
        probs = np.full((2, 20), 1e-9)
        probs[0, AA_INDEX["A"]] = 1.0
        probs[1, AA_INDEX["W"]] = 1.0  # wrong at position 1
        probs /= probs.sum(axis=1, keepdims=True)
        d = SequenceDistribution(probs, stage=1)
        full = staged_loss([d], truth)
        masked = staged_loss([d], truth, mask=[True, False])
        assert masked < full

    def test_all_masked_raises(self):
        d = random_dist(3, seed=1)
        with pytest.raises(EmptyLoss):
            staged_loss([d], "XXX")

    def test_tensor_path_matches_scalar_path(self):
        truth = "ACDEFGHIK"
        dists = [random_dist(9, seed=s + 10, stage=s + 1) for s in range(2)]
        tensors = [Tensor(d.probs) for d in dists]
        val = staged_loss_tensor(tensors, truth).item()
        assert val == pytest.approx(staged_loss(dists, truth), abs=1e-12)


class TestMetrics:
    def test_exact_match(self):
        truth = "ACDEF"
        m = metrics(onehot_dist(truth), truth)
        assert m.recovery == 100.0
        assert m.perplexity == pytest.approx(1.0)

    def test_uniform_ppl_twenty(self):
        d = SequenceDistribution(np.full((8, 20), 1 / 20), stage=1)
        m = metrics(d, "ACDEFGHI")
        assert m.perplexity == pytest.approx(20.0, abs=1e-9)

    def test_half_recovery(self):
        truth = "AAAA"
        pred = "AAWW"
        m = metrics(onehot_dist(pred), truth)
        assert m.recovery == pytest.approx(50.0)

    def test_ppl_equals_exp_ce(self):
        truth = "ACDEFGHIKL"
        d = random_dist(10, seed=3)
        idx = np.array([AA_INDEX[t] for t in truth])
        ce = -np.mean(np.log(d.probs[np.arange(10), idx]))
        assert metrics(d, truth).perplexity == pytest.approx(math.exp(ce), rel=1e-12)


class TestPoolMetrics:
    def test_weights_by_scored_residues(self):
        pooled = pool_metrics([(Metrics(perplexity=2.0, recovery=50.0), 1),
                               (Metrics(perplexity=8.0, recovery=80.0), 2)])
        assert pooled.recovery == pytest.approx(70.0, rel=1e-15)
        assert pooled.perplexity == pytest.approx(2.0 ** (7 / 3), rel=1e-15)

    def test_skips_a_protein_with_no_scored_residue(self):
        nan = Metrics(perplexity=float("nan"), recovery=float("nan"))
        one = Metrics(perplexity=7.5, recovery=95.0)
        assert pool_metrics([(nan, 0), (one, 20)]) == pool_metrics([(one, 20)])
        assert pool_metrics([(nan, 0)]) is None and pool_metrics([]) is None


class TestSchedule:
    def test_warmup_endpoint(self):
        cfg = TrainConfig(lr=1e-3, warmup_steps=1000)
        assert cosine_warmup_lr(1000, cfg, 2000) == pytest.approx(1e-3)
        assert cosine_warmup_lr(500, cfg, 2000) == pytest.approx(5e-4)

    def test_final_step_tiny(self):
        cfg = TrainConfig(lr=1e-3, warmup_steps=1000)
        assert cosine_warmup_lr(2000, cfg, 2000) <= 1e-6 * 1e-3

    def test_monotone_decay_after_warmup(self):
        cfg = TrainConfig(lr=1e-3, warmup_steps=100)
        vals = [cosine_warmup_lr(s, cfg, 1000) for s in range(100, 1001, 50)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestClip:
    def test_norm_preserved_below_threshold(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.array([0.3, 0.0, 0.4, 0.0])
        norm = clip_gradients({"p": p}, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(p.grad, [0.3, 0.0, 0.4, 0.0])

    def test_clipped_to_max_norm(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 0.0])
        q.grad = np.array([0.0, 4.0])
        clip_gradients({"p": p, "q": q}, 1.0)
        total = math.sqrt(np.sum(p.grad**2) + np.sum(q.grad**2))
        assert total <= 1.0 + 1e-6
        # direction preserved
        assert p.grad[0] / q.grad[1] == pytest.approx(0.75)


    def test_non_finite_norm_leaves_gradients(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([np.inf, 3.0])
        assert clip_gradients({"p": p}, 1.0) == math.inf
        assert p.grad[1] == 3.0


class TestAdamW:
    def test_single_step_against_reference(self):
        w0 = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        p = Tensor(w0.copy(), requires_grad=True)
        p.grad = g.copy()
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.1)
        opt.step()
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expect = w0 - 0.01 * (g / (np.abs(g) + 1e-8)) - 0.01 * 0.1 * w0
        assert np.allclose(p.data, expect, atol=1e-10)

    def test_decoupled_decay_without_gradient_direction(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        p.grad = np.array([0.0])
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step()
        assert p.data[0] == pytest.approx(10.0 * (1 - 0.1 * 0.5))


def test_training_tape_stays_small(small_graph, small_feature_config, small_providers):
    """A T = 3 training forward at n = 12 holds 0.56 MB of tape. Nodes
    that kept their outputs, or gelu's temporaries, would put it near
    1.2 MB."""
    from invfold.recycling import InverseFoldModel
    cfg = ModelConfig(node_dim=small_feature_config.node_dim,
                      edge_dim=small_feature_config.edge_dim, hidden_dim=16, layers=2,
                      heads=2, struct_dim=12, seq_dim=10, dropout=0.1)
    model = InverseFoldModel(cfg, seed=3)
    probs, _, _ = model.run_stages(small_graph, *small_providers, 3, training=True,
                                   stream=RandomStream(0, "tape"))
    nodes, held = ad.tape_stats(staged_loss_tensor(probs, small_graph.labels))
    assert nodes == 283
    assert held < 700_000


def test_training_tape_holds_no_gathered_senders():
    """A T = 3 training forward at n = 60, k = 30, width 32 holds about
    14.0 MB of tape. One gathered (60, 30, 32) copy of the senders kept per
    layer and stage, as an unfused attention sum keeps them, adds 4.1 MB."""
    from invfold.recycling import InverseFoldModel, StubSequenceProvider, StubStructureProvider
    fc = FeatureConfig(k=30, rbf_count=8)
    graph = build_knn_graph(random_backbone(7, 60), fc)
    cfg = ModelConfig(node_dim=fc.node_dim, edge_dim=fc.edge_dim, hidden_dim=32, layers=3,
                      heads=2, struct_dim=12, seq_dim=10, dropout=0.1)
    providers = (StubStructureProvider(dim=12, seed=1), StubSequenceProvider(dim=10, seed=1))
    probs, _, _ = InverseFoldModel(cfg, seed=3).run_stages(graph, *providers, 3, training=True,
                                                           stream=RandomStream(0, "tape"))
    _, held = ad.tape_stats(staged_loss_tensor(probs, graph.labels))
    assert held < 16_000_000


def test_training_tape_holds_no_edge_pre_activation():
    """The training forward of the test above (T = 3, n = 60, k = 30,
    width 32) holds about 11.4 MB of tape. An edge MLP whose tape kept its
    pre-activation, one (60, 30, 32) float64 array per edge update and
    stage (six here), would put it near 14.0 MB."""
    from invfold.recycling import InverseFoldModel, StubSequenceProvider, StubStructureProvider
    fc = FeatureConfig(k=30, rbf_count=8)
    graph = build_knn_graph(random_backbone(7, 60), fc)
    cfg = ModelConfig(node_dim=fc.node_dim, edge_dim=fc.edge_dim, hidden_dim=32, layers=3,
                      heads=2, struct_dim=12, seq_dim=10, dropout=0.1)
    providers = (StubStructureProvider(dim=12, seed=1), StubSequenceProvider(dim=10, seed=1))
    probs, _, _ = InverseFoldModel(cfg, seed=3).run_stages(graph, *providers, 3, training=True,
                                                           stream=RandomStream(0, "tape"))
    _, held = ad.tape_stats(staged_loss_tensor(probs, graph.labels))
    assert held < 12_500_000


def tape_arrays(root):
    """Every array the VJP closures behind root reach, with each array's
    chain of bases, walked as `ad.tape_stats` walks them."""
    order = ad._topo_order(ad._start(root))
    stack = [vjp for item in order if not isinstance(item, Tensor) for _, vjp in item.parents]
    seen, found = set(), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj, np.ndarray):
                found.append(obj)
                obj = obj.base
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def test_training_tape_keeps_no_rebuildable_edge_scratch():
    """A default-config training forward (T = 3) at toy size keeps no
    attention pool (n, heads, 2d + d_e), no pulled-back queries (heads, n,
    d_e) and no unpacked (n, k, d_h) edge-MLP dropout mask: backward
    rebuilds the first two and unpacks the mask's bits."""
    from invfold.recycling import InverseFoldModel, StubSequenceProvider, StubStructureProvider
    fc = FeatureConfig()
    graph = build_knn_graph(random_backbone(7, 33), fc)
    cfg = ModelConfig(node_dim=fc.node_dim, edge_dim=fc.edge_dim)
    providers = (StubStructureProvider(dim=cfg.struct_dim, seed=1),
                 StubSequenceProvider(dim=cfg.seq_dim, seed=1))
    probs, _, _ = InverseFoldModel(cfg, seed=3).run_stages(graph, *providers, cfg.recycles,
                                                           training=True,
                                                           stream=RandomStream(0, "tape"))
    arrays = tape_arrays(staged_loss_tensor(probs, graph.labels))
    n, k = graph.neighbors.shape
    d = d_e = d_h = cfg.hidden_dim
    assert cfg.dropout > 0 and any(a.dtype == np.uint8 for a in arrays)  # the packed masks
    assert not [a for a in arrays if a.shape in ((n, cfg.heads, 2 * d + d_e), (cfg.heads, n, d_e))]
    assert not [a for a in arrays if a.dtype == bool and a.size == n * k * d_h]


def test_train_toy_does_not_depend_on_block_workers_or_size(monkeypatch):
    """Two steps of train_toy (default model, dropout on) end with the same
    bits on 1 and 3 block workers, with blocks of 64 edges and of the
    default EDGE_ROWS. Across block sizes the dropout masks are the same,
    so the parameters agree to rounding (the edge MLP's weight gradients
    are sums over blocks); a mask drawn at a wrong offset moves them by
    about the learning rate, 1e-6 here."""
    corpus = toy_corpus(0, lengths=(30, 33))

    def run(rows, workers):
        monkeypatch.setattr(ad, "EDGE_ROWS", rows)
        monkeypatch.setattr(ad, "block_workers", lambda: workers)
        result = train_toy(corpus, TrainConfig(max_steps=2))
        params = result.model.parameters()
        return [params[name].data for name in sorted(params)], result.log_rows

    runs = {}
    for rows in (64, ad.EDGE_ROWS):
        runs[rows] = sequential = run(rows, 1)
        parallel = run(rows, 3)
        assert all(np.array_equal(a, b) for a, b in zip(sequential[0], parallel[0]))
        assert sequential[1] == parallel[1]
    (small, small_log), (default, default_log) = runs.values()
    assert all(np.max(np.abs(a - b)) < 1e-12 for a, b in zip(small, default))
    for row, ref in zip(small_log, default_log):
        assert row == pytest.approx(ref, rel=1e-9)


class TestTrainToy:
    @pytest.fixture
    def tiny_cfg(self):
        return TrainConfig(seed=0, max_steps=6, eval_every=3, batch_size=2,
                           warmup_steps=4, noise_sigma=0.02, dropout=0.1)

    @pytest.fixture
    def tiny_model_cfg(self):
        fc = FeatureConfig(k=6, rbf_count=4)
        return fc, ModelConfig(node_dim=fc.node_dim, edge_dim=fc.edge_dim,
                               hidden_dim=16, layers=1, heads=2,
                               struct_dim=8, seq_dim=8, recycles=2)

    def test_deterministic_repeat(self, tiny_cfg, tiny_model_cfg):
        fc, mc = tiny_model_cfg
        corpus = toy_corpus(0, lengths=(12, 13, 14, 15, 16))
        r1 = train_toy(corpus, tiny_cfg, model_cfg=mc, feature_cfg=fc)
        r2 = train_toy(corpus, tiny_cfg, model_cfg=mc, feature_cfg=fc)
        assert r1.log_rows == r2.log_rows
        assert r1.val_history == r2.val_history
        for (n1, p1), (n2, p2) in zip(sorted(r1.model.parameters().items()),
                                      sorted(r2.model.parameters().items())):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)

    def test_lr_zero_freezes_parameters(self, tiny_model_cfg):
        fc, mc = tiny_model_cfg
        corpus = toy_corpus(1, lengths=(12, 13))
        cfg = TrainConfig(seed=1, max_steps=3, eval_every=3, warmup_steps=0,
                          schedule="constant", lr=1e-30, weight_decay=0.0)
        from invfold.recycling import InverseFoldModel
        before = InverseFoldModel(mc, seed=1).parameters()
        result = train_toy(corpus, cfg, model_cfg=mc, feature_cfg=fc)
        after = result.model.parameters()
        for name in before:
            assert np.allclose(before[name].data, after[name].data, atol=1e-20)

    def test_loss_decreases(self, tiny_model_cfg):
        fc, mc = tiny_model_cfg
        corpus = toy_corpus(2, lengths=(12, 13, 14))
        cfg = TrainConfig(seed=2, max_steps=40, eval_every=10, warmup_steps=5,
                          batch_size=1, noise_sigma=0.0, dropout=0.0)
        result = train_toy(corpus, cfg, model_cfg=mc, feature_cfg=fc)
        first = [r["loss"] for r in result.log_rows if r["step"] == 10]
        last = [r["loss"] for r in result.log_rows if r["step"] == 40]
        assert sum(last) < sum(first)

    def test_metrics_csv_schema(self, tmp_path, tiny_cfg, tiny_model_cfg):
        from invfold.training import write_metrics_csv
        fc, mc = tiny_model_cfg
        corpus = toy_corpus(3, lengths=(12, 13))
        result = train_toy(corpus, tiny_cfg, model_cfg=mc, feature_cfg=fc)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.log_rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,step,stage,loss,ppl,recovery,lr"
        assert len(lines) > 1

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch, tiny_cfg, tiny_model_cfg):
        from invfold import training
        fc, mc = tiny_model_cfg
        corpus = toy_corpus(5, lengths=(12, 13))
        seen = {}
        real_clip = training.clip_gradients

        def clip_with_nan(params, max_norm):
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == 2:
                names = [k for k, p in params.items() if p.grad is not None]
                seen["first"], seen["later"] = names[2], names[5]
                seen["params"], seen["before"] = params, {k: p.data.copy() for k, p in params.items()}
                params[names[5]].grad.flat[0] = np.inf
                params[names[2]].grad.flat[-1] = np.nan
            return real_clip(params, max_norm)

        monkeypatch.setattr(training, "clip_gradients", clip_with_nan)
        with pytest.raises(TrainingDiverged) as err:
            train_toy(corpus, tiny_cfg, model_cfg=mc, feature_cfg=fc)
        assert err.value.step == 2
        assert repr(seen["first"]) in str(err.value) and repr(seen["later"]) not in str(err.value)
        for name, data in seen["before"].items():
            assert np.array_equal(seen["params"][name].data, data)

    def test_empty_corpus(self, tiny_cfg):
        with pytest.raises(InvalidParameter):
            train_toy([], tiny_cfg)

    def test_split_without_a_training_protein(self, tiny_model_cfg):
        fc, mc = tiny_model_cfg
        corpus = toy_corpus(0, lengths=(12, 13, 14, 15, 16))
        with pytest.raises(InvalidParameter, match="none is left to train on"):
            train_toy(corpus, TrainConfig(val_fraction=0.95), model_cfg=mc, feature_cfg=fc)

    def test_checkpoint_round_trip(self, tmp_path, tiny_cfg, tiny_model_cfg):
        from invfold.nn import load_checkpoint, restore_parameters, save_checkpoint
        from invfold.recycling import InverseFoldModel
        fc, mc = tiny_model_cfg
        corpus = toy_corpus(4, lengths=(12, 13))
        result = train_toy(corpus, tiny_cfg, model_cfg=mc, feature_cfg=fc)
        path = tmp_path / "ckpt.ifc"
        save_checkpoint(result.model.parameters(), path, meta={"seed": 0})
        fresh = InverseFoldModel(mc, seed=99)
        arrays, meta = load_checkpoint(path)
        restore_parameters(fresh.parameters(), arrays)
        assert meta["seed"] == 0
        for name, p in result.model.parameters().items():
            assert np.array_equal(p.data, fresh.parameters()[name].data)
