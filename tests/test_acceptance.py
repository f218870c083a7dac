"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The memorization run
(criterion 8) takes the longest (several minutes of real training); its
trained model is shared with criterion 9 through a session fixture.
"""

import math
import time

import numpy as np
import pytest

from invfold import autodiff as ad
from invfold.autodiff import Tensor, check_gradient
from invfold.encoder import AttentionParams, BridgeParams, edge_update, gau_attention, global_context_bridge
from invfold.geometry import FeatureConfig, build_knn_graph, deserialize_graph, serialize_graph
from invfold.nn import MlpBlock
from invfold.recycling import (
    InverseFoldModel,
    ModelConfig,
    OracleSequenceProvider,
    SequenceDistribution,
    StubSequenceProvider,
    StubStructureProvider,
    recycle_infer,
)
from invfold.rng import RandomStream
from invfold.structure_io import apply_rigid_transform, backbones_equal, deserialize_backbone, parse_pdb, serialize_backbone
from invfold.synthetic import random_backbone, random_rotation, toy_corpus
from invfold.theory import (
    random_connected_graph,
    random_sensitivity_fixtures,
    rank_one_resistance_check,
    return_mass,
    softmax_sensitivity_check,
    star_attention,
    two_cycle_attention,
)
from invfold.training import TrainConfig, metrics, staged_loss, staged_loss_tensor, train_toy

from conftest import residue_lines
from test_encoder import mlp_ref, sigmoid_ref, softmax_1d
from test_training import loss_oracle, onehot_dist


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="session")
def default_features():
    return FeatureConfig()


@pytest.fixture(scope="session")
def trained(default_features):
    """Criterion 8's training run; reused by criterion 9."""
    corpus = toy_corpus(0)
    cfg = TrainConfig(seed=0)
    start = time.monotonic()
    result = train_toy(corpus, cfg, feature_cfg=default_features)
    elapsed = time.monotonic() - start
    return corpus, cfg, result, elapsed


def test_criterion_1_se3_invariance(default_features):
    start = time.monotonic()
    cfg = FeatureConfig()
    model_cfg = ModelConfig(node_dim=cfg.node_dim, edge_dim=cfg.edge_dim, dropout=0.0)
    model = InverseFoldModel(model_cfg, seed=5)
    struct_p = StubStructureProvider(dim=model_cfg.struct_dim, seed=2)
    seq_p = StubSequenceProvider(dim=model_cfg.seq_dim, seed=2)
    stream = RandomStream(1000, "se3-sweep")

    worst_feat = 0.0
    worst_logit = 0.0
    for b_idx in range(100):
        n_res = 10 + b_idx % 7
        backbone = random_backbone(b_idx, n_res, name=f"acc1-{b_idx}")
        g0 = build_knn_graph(backbone, cfg)
        p0 = recycle_infer(model, g0, struct_p, seq_p, 1).distributions[0].probs
        logits0 = np.log(p0)
        for t_idx in range(10):
            child = stream.child(f"{b_idx}/{t_idx}")
            rot = random_rotation(child.child("r"))
            shift = child.child("t").gaussian((3,)) * 20.0
            moved = apply_rigid_transform(backbone, rot, shift)
            g1 = build_knn_graph(moved, cfg)
            assert np.array_equal(g0.neighbors, g1.neighbors)
            worst_feat = max(worst_feat,
                             float(np.max(np.abs(g0.node_feats - g1.node_feats))),
                             float(np.max(np.abs(g0.edge_feats - g1.edge_feats))))
            p1 = recycle_infer(model, g1, struct_p, seq_p, 1).distributions[0].probs
            worst_logit = max(worst_logit, float(np.max(np.abs(np.log(p1) - logits0))))

    # 32-bit leg: float32 weights, features, and priors end to end
    model32 = InverseFoldModel(model_cfg, seed=5)
    for p in model32.parameters().values():
        p.data = p.data.astype(np.float32)

    class F32Struct(StubStructureProvider):
        def embed_structure(self, graph):
            return super().embed_structure(graph).astype(np.float32)

    class F32Seq(StubSequenceProvider):
        def embed_sequence(self, tokens):
            return super().embed_sequence(tokens).astype(np.float32)

    struct32 = F32Struct(dim=model_cfg.struct_dim, seed=2)
    seq32 = F32Seq(dim=model_cfg.seq_dim, seed=2)
    worst32 = 0.0
    for b_idx in range(10):
        backbone = random_backbone(b_idx, 12, name=f"acc1f32-{b_idx}")
        g0 = deserialize_graph(serialize_graph(build_knn_graph(backbone, cfg)))
        g0.node_feats = g0.node_feats.astype(np.float32)
        g0.edge_feats = g0.edge_feats.astype(np.float32)
        p0 = recycle_infer(model32, g0, struct32, seq32, 1).distributions[0].probs
        for t_idx in range(10):
            child = stream.child(f"f32/{b_idx}/{t_idx}")
            rot = random_rotation(child.child("r"))
            shift = child.child("t").gaussian((3,)) * 20.0
            g1 = deserialize_graph(serialize_graph(
                build_knn_graph(apply_rigid_transform(backbone, rot, shift), cfg)))
            g1.node_feats = g1.node_feats.astype(np.float32)
            g1.edge_feats = g1.edge_feats.astype(np.float32)
            p1 = recycle_infer(model32, g1, struct32, seq32, 1).distributions[0].probs
            worst32 = max(worst32, float(np.max(np.abs(np.log(p1) - np.log(p0)))))

    elapsed = time.monotonic() - start
    ok = worst_feat < 1e-8 and worst_logit < 1e-8 and worst32 < 1e-5 and elapsed < 120
    report(1, "SE(3) invariance of features and logits", ok,
           f"feat={worst_feat:.2e} logit64={worst_logit:.2e} logit32={worst32:.2e} "
           f"t={elapsed:.0f}s")


def test_criterion_2_formula_oracles():
    stream = RandomStream(77, "oracles")
    n, k, d, d_e = 6, 3, 16, 16
    neighbors = np.array([[1, 2, 3], [0, 2, 4], [3, 1, 5], [4, 0, 2], [3, 5, 0],
                          [2, 4, 1]], dtype=np.int32)
    h = stream.child("h").gaussian((n, d)) * 0.8
    e = stream.child("e").gaussian((n, k, d_e)) * 0.8
    worst = 0.0

    attn = AttentionParams(d, d_e, heads=1, stream=stream.child("attn"))
    h_local, alpha = gau_attention(Tensor(h), Tensor(e), neighbors, attn)
    wq, wk, wv = attn.w_q.w.data, attn.w_k.w.data, attn.w_v.w.data
    for i in range(n):
        q_i = h[i] @ wq
        logits = np.array([q_i @ (e[i, m] @ wk) / math.sqrt(d)
                           for m in range(k)])
        a_ref = softmax_1d(logits)
        v = np.stack([np.concatenate([h[i], e[i, m], h[neighbors[i, m]]]) @ wv
                      for m in range(k)])
        worst = max(worst, float(np.max(np.abs(alpha.data[i, :, 0] - a_ref))),
                    float(np.max(np.abs(h_local.data[i] - (a_ref[:, None] * v).sum(0)))))

    mlp = MlpBlock((2 * d + d_e, d_e, d_e), stream.child("edge"))
    out = edge_update(Tensor(h), Tensor(e), neighbors, mlp)
    for i in range(n):
        for m in range(k):
            ref = e[i, m] + mlp_ref(mlp, np.concatenate([h[i], h[neighbors[i, m]], e[i, m]]))
            worst = max(worst, float(np.max(np.abs(out.data[i, m] - ref))))

    bridge = BridgeParams(d, stream.child("bridge"))
    bout = global_context_bridge(Tensor(h), bridge)
    s = h @ bridge.w_att.w.data
    a_ch = np.exp(s) / np.exp(s).sum(axis=0, keepdims=True)
    g_pool = (a_ch * (h @ bridge.w_val.w.data)).sum(axis=0)
    for i in range(n):
        u = mlp_ref(bridge.mlp_up, np.concatenate([h[i], g_pool]))
        z = u * sigmoid_ref(mlp_ref(bridge.mlp_in, h[i]))
        ref = h[i] * sigmoid_ref(mlp_ref(bridge.mlp_out, z))
        worst = max(worst, float(np.max(np.abs(bout.data[i] - ref))))

    truth = "ACDXFGHIKL"
    dists = []
    for t in range(3):
        logits = stream.child(f"dist{t}").gaussian((10, 20))
        exps = np.exp(logits - logits.max(axis=1, keepdims=True))
        dists.append(SequenceDistribution(exps / exps.sum(axis=1, keepdims=True),
                                          stage=t + 1))
    worst = max(worst, abs(staged_loss(dists, truth) - loss_oracle(dists, truth)))

    report(2, "formula oracles (attention, edge refresh, global gate, loss)",
           worst < 1e-7, f"max dev={worst:.2e}")


def test_criterion_3_gradient_fidelity(default_features):
    start = time.monotonic()
    backbone = random_backbone(30, 30, name="acc3")
    graph = build_knn_graph(backbone, default_features)
    cfg = ModelConfig(node_dim=default_features.node_dim,
                      edge_dim=default_features.edge_dim, dropout=0.0)
    model = InverseFoldModel(cfg, seed=9)
    struct_p = StubStructureProvider(dim=cfg.struct_dim, seed=3)
    seq_p = StubSequenceProvider(dim=cfg.seq_dim, seed=3)

    def f():
        probs, _, _ = model.run_stages(graph, struct_p, seq_p, 2, training=False)
        return staged_loss_tensor(probs, graph.labels)

    err = check_gradient(f, model.parameters(), eps=1e-5, samples_per_param=2, seed=4)
    elapsed = time.monotonic() - start
    report(3, "gradient fidelity of the full stacked model", err <= 1e-4 and elapsed < 300,
           f"max rel err={err:.2e} t={elapsed:.0f}s")


def test_criterion_4_resistance_monotonicity():
    start = time.monotonic()
    stream = RandomStream(0, "acc4")
    violations = 0
    worst = -math.inf
    worst_sm = 0.0
    for i in range(200):
        child = stream.child(f"g{i}")
        n = int(child.child("n").integers(4, 13))
        g = random_connected_graph(child, n)
        alpha = child.child("alpha").gaussian((n,))
        rep = rank_one_resistance_check(g, alpha, tol=1e-9)
        violations += rep["violations"]
        worst = max(worst, rep["max_violation"])
        worst_sm = max(worst_sm, rep["sherman_morrison_residual"])
    elapsed = time.monotonic() - start
    ok = violations == 0 and worst_sm <= 1e-8 and elapsed < 60
    report(4, "rank-one resistance monotonicity + Sherman-Morrison", ok,
           f"violations={violations} max={worst:.2e} sm={worst_sm:.2e} t={elapsed:.0f}s")


def test_criterion_5_softmax_sensitivity():
    fixtures = random_sensitivity_fixtures(RandomStream(0, "acc5"), 1000)
    rep = softmax_sensitivity_check(fixtures, eps=1e-4)
    report(5, "softmax product sensitivity bound", rep["violations"] == 0,
           f"fixtures=1000 worst margin={rep['worst_margin']:.2e}")


def test_criterion_6_directional_independence():
    stream = RandomStream(0, "acc6")
    checked = 0
    for trial in range(4):
        n, k, d, d_e = 7, 4, 12, 12
        backbone = random_backbone(trial + 60, n, name=f"acc6-{trial}")
        graph = build_knn_graph(backbone, FeatureConfig(k=k, rbf_count=4))
        neighbors = graph.neighbors
        h = stream.child(f"h{trial}").gaussian((n, d))
        e = stream.child(f"e{trial}").gaussian((n, neighbors.shape[1], d_e))
        mlp = MlpBlock((2 * d + d_e, d_e, d_e), stream.child(f"m{trial}"))
        base = edge_update(Tensor(h), Tensor(e), neighbors, mlp).data

        et = Tensor(e, requires_grad=True)
        out = edge_update(Tensor(h), et, neighbors, mlp)
        for i in range(n):
            for m, j in enumerate(neighbors[i]):
                back = np.nonzero(neighbors[j] == i)[0]
                if back.size == 0:
                    continue
                # bit-level forward probe
                e_pert = e.copy()
                e_pert[j, back[0]] += 0.25
                new = edge_update(Tensor(h), Tensor(e_pert), neighbors, mlp).data
                assert np.array_equal(new[i, m], base[i, m])
                checked += 1
        # analytic cross-derivative of one reverse channel is exactly zero
        probe = np.zeros_like(out.data)
        i0, m0 = 0, 0
        j0 = int(neighbors[i0, m0])
        probe[i0, m0, :] = 1.0
        ad.backward(ad.tsum(ad.mul(out, probe)))
        back = np.nonzero(neighbors[j0] == i0)[0]
        if back.size:
            assert np.all(et.grad[j0, back[0]] == 0.0)
    report(6, "within-layer directional independence (bit level)", checked > 0,
           f"{checked} mutual channels probed")


def test_criterion_7_return_mass(small_series_graphs=3):
    star = return_mass(star_attention(3))
    cyc = return_mass(two_cycle_attention())
    # the star mean involves 1/3, which is not float-representable, so
    # "exact" here means to within one ulp; the 2-cycle is bit-exact
    exact = abs(star.mean - 0.5) < 1e-15 and cyc.mean == 1.0

    cfg = FeatureConfig(k=6, rbf_count=4)
    model_cfg = ModelConfig(node_dim=cfg.node_dim, edge_dim=cfg.edge_dim,
                            hidden_dim=32, heads=4, dropout=0.0)
    model = InverseFoldModel(model_cfg, seed=12)
    struct_p = StubStructureProvider(dim=model_cfg.struct_dim, seed=4)
    seq_p = StubSequenceProvider(dim=model_cfg.seq_dim, seed=4)
    from invfold.theory import contraction_profile
    graphs = [build_knn_graph(random_backbone(90 + i, 16, name=f"acc7-{i}"), cfg)
              for i in range(small_series_graphs)]
    rep = contraction_profile(model, graphs, struct_p, seq_p)
    series_ok = (len(rep["directional"]) == model_cfg.layers
                 and len(rep["symmetric"]) == model_cfg.layers
                 and all(0 <= v <= 1 + 1e-9 for v in rep["directional"] + rep["symmetric"]))
    print(f"\n  return-mass series directional={['%.4f' % v for v in rep['directional']]}")
    print(f"  return-mass series symmetric  ={['%.4f' % v for v in rep['symmetric']]}")
    report(7, "return-mass oracle + directional vs symmetric series", exact and series_ok,
           f"star={star.mean} cycle={cyc.mean}")


def test_criterion_8_toy_memorization(trained):
    corpus, cfg, result, elapsed = trained
    m = result.final_metrics
    # deterministic repeat: a fresh run of the same prefix reproduces the
    # step-200 evaluation row bit for bit
    prefix_cfg = TrainConfig(seed=0, max_steps=200)
    prefix = train_toy(corpus, prefix_cfg, feature_cfg=FeatureConfig())
    row_full = [r for r in result.log_rows if r["step"] == 200]
    row_prefix = [r for r in prefix.log_rows if r["step"] == 200]
    deterministic = row_full == row_prefix and len(row_full) == 3
    ok = (m.recovery >= 90.0 and m.perplexity < 1.5 and deterministic
          and elapsed < 1200)
    report(8, "toy memorization (2000 steps, default config)", ok,
           f"recovery={m.recovery:.1f}% ppl={m.perplexity:.3f} "
           f"deterministic={deterministic} t={elapsed / 60:.1f}min")


def test_criterion_9_recycling_causality_and_monotonicity(trained, default_features):
    corpus, cfg, result, _ = trained
    model = result.model
    struct_p = StubStructureProvider(dim=model.cfg.struct_dim, seed=0)
    seq_p = StubSequenceProvider(dim=model.cfg.seq_dim, seed=0)

    graph = build_knn_graph(corpus[0], default_features)
    r1 = recycle_infer(model, graph, struct_p, seq_p, 1)
    r3 = recycle_infer(model, graph, struct_p, seq_p, 3)
    causal = np.array_equal(r1.distributions[0].probs, r3.distributions[0].probs)

    # constructed boundary-monotone provider: true-sequence embeddings
    # from stage 2 onward
    series = []
    for backbone in corpus:
        g = build_knn_graph(backbone, default_features)
        oracle = OracleSequenceProvider(list(backbone.sequence),
                                        dim=model.cfg.seq_dim, seed=0)
        r = recycle_infer(model, g, struct_p, oracle, 3)
        series.append([staged_loss([d], backbone.sequence) for d in r.distributions])
    first_losses = [losses[0] for losses in series]
    last_losses = [losses[-1] for losses in series]
    monotone = float(np.mean(last_losses)) <= float(np.mean(first_losses))
    per_protein = " ".join("/".join(f"{v:.4g}" for v in losses) for losses in series)
    report(9, "recycling causality + monotone improvement with oracle prior",
           causal and monotone,
           f"causal={causal} L1={np.mean(first_losses):.4f} LT={np.mean(last_losses):.4f} "
           f"L_1..L_T per protein: {per_protein}")


def test_criterion_10_loss_arithmetic():
    n = 8
    truth = "ACDEFGHI"
    uniform = SequenceDistribution(np.full((n, 20), 1 / 20), stage=1)
    val = staged_loss([uniform] * 3, truth)
    uniform_ok = abs(val - 3 * math.log(20)) < 1e-9

    perfect = [onehot_dist(truth, stage=t + 1) for t in range(3)]
    perfect_ok = staged_loss(perfect, truth) < 1e-9

    dist = SequenceDistribution(
        np.exp(RandomStream(5, "acc10").gaussian((n, 20)))
        / np.exp(RandomStream(5, "acc10").gaussian((n, 20))).sum(axis=1, keepdims=True),
        stage=1)
    idx = [ "ACDEFGHIKLMNPQRSTVWY".index(t) for t in truth]
    ce = -np.mean(np.log(dist.probs[np.arange(n), idx]))
    ppl_ok = metrics(dist, truth).perplexity == math.exp(ce)

    report(10, "loss arithmetic (uniform, perfect, PPL identity)",
           uniform_ok and perfect_ok and ppl_ok,
           f"uniform dev={abs(val - 3 * math.log(20)):.1e}")


def test_criterion_11_parser_conformance(ala_gly_pdb, missing_ca_pdb):
    from invfold.errors import ChainNotFound, EmptyBackbone, ParseError

    ok = True
    b = parse_pdb(ala_gly_pdb, "A")
    ok &= len(b) == 2 and b.sequence == "AG"
    ok &= len(parse_pdb(missing_ca_pdb, "A")) == 1
    lines = residue_lines("MSE", "A", 1, (0, 0, 0))
    ok &= parse_pdb("\n".join(lines), "A").sequence == "X"
    for text, chain, err in [("", "A", ParseError),
                             ("JUNK\n", "A", ParseError),
                             (ala_gly_pdb, "Q", ChainNotFound)]:
        try:
            parse_pdb(text, chain)
            ok = False
        except err:
            pass
    try:
        parse_pdb("\n".join(residue_lines("ALA", "A", 1, (0, 0, 0), skip=("CA",))), "A")
        ok = False
    except EmptyBackbone:
        pass

    round_trip = deserialize_backbone(serialize_backbone(b))
    ok &= backbones_equal(b, round_trip)
    report(11, "parser conformance + lossless container round-trip", bool(ok))
