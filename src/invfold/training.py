"""Staged objective, metrics, optimizer, and the toy training driver.

The loss sums per-stage cross-entropies over every recycling stage and
divides by the number of unmasked residues once (no per-stage
normalization); a per-stage diagnostic is logged alongside. Perplexity
is exp of the mean per-residue cross-entropy of the final stage;
recovery is the percentage of exact argmax matches on unmasked
residues. Unknown residues stay in the graph but never enter the loss
or the metrics.

Training runs in 64-bit with backbone-noise augmentation and dropout,
AdamW with decoupled weight decay, linear warmup into cosine decay, and
global-norm gradient clipping. Every random draw comes off named
streams derived from the config seed, so reruns reproduce metric logs
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (EmptyLoss, InvalidParameter, ShapeError, TrainingDiverged, check_count,
                     check_number)
from .geometry import FeatureConfig, build_knn_graph
from .recycling import (
    InverseFoldModel,
    ModelConfig,
    SequenceDistribution,
    StubSequenceProvider,
    StubStructureProvider,
)
from .rng import RandomStream
from .structure_io import AA_INDEX, AMINO_ACIDS, inject_backbone_noise


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    warmup_steps: int = 1000
    schedule: str = "cosine"
    grad_clip_norm: float = 1.0
    batch_size: int = 1
    max_steps: int = 2000
    early_stop_patience: int = 10  # 0 never stops early
    eval_every: int = 200
    noise_sigma: float = 0.02
    dropout: float = ModelConfig.dropout  # train_toy's default model; runs pass model.dropout
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name, low in (("warmup_steps", 0), ("batch_size", 1), ("max_steps", 1),
                          ("early_stop_patience", 0), ("eval_every", 1)):
            check_count(self, name, low)
        check_number(self, "lr", 0, math.inf, "()")
        for name in ("weight_decay", "grad_clip_norm", "noise_sigma"):  # a 0 clip norm never clips
            check_number(self, name, 0, math.inf, "[)")
        for name in ("dropout", "val_fraction"):
            check_number(self, name, 0, 1, "[)")
        if self.schedule not in ("cosine", "constant"):
            raise InvalidParameter(f"unknown schedule {self.schedule!r}")


@dataclass
class Metrics:
    perplexity: float
    recovery: float


def _truth_indices(truth, n: int):
    """Class indices plus the unmasked-residue mask from a sequence."""
    tokens = list(truth)
    if len(tokens) != n:
        raise ShapeError(f"truth length {len(tokens)} != {n} residues")
    idx = np.zeros(n, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    for i, tok in enumerate(tokens):
        if tok in AA_INDEX:
            idx[i] = AA_INDEX[tok]
            mask[i] = True
    return idx, mask


def staged_loss(dists, truth, mask=None) -> float:
    """Summed-stage cross-entropy over unmasked residues, divided by
    the unmasked count (not by the stage count)."""
    if not dists:
        raise InvalidParameter("need at least one stage distribution")
    n = dists[0].probs.shape[0]
    for d in dists:
        if d.probs.shape[0] != n:
            raise ShapeError("stage distributions disagree on residue count")
    idx, auto_mask = _truth_indices(truth, n)
    mask = auto_mask if mask is None else (np.asarray(mask, dtype=bool) & auto_mask)
    count = int(mask.sum())
    if count == 0:
        raise EmptyLoss("no unmasked residues")
    total = 0.0
    for d in dists:
        total += -np.sum(np.log(d.probs[mask, idx[mask]]))
    return float(total / count)


def staged_loss_tensor(prob_tensors, truth, mask=None) -> Tensor:
    """Differentiable version of staged_loss over stage prob tensors."""
    n = prob_tensors[0].shape[0]
    idx, auto_mask = _truth_indices(truth, n)
    mask = auto_mask if mask is None else (np.asarray(mask, dtype=bool) & auto_mask)
    rows = np.nonzero(mask)[0]
    if rows.size == 0:
        raise EmptyLoss("no unmasked residues")
    onehot = np.zeros((rows.size, len(AMINO_ACIDS)))
    onehot[np.arange(rows.size), idx[rows]] = 1.0
    total = None
    for probs in prob_tensors:
        p_rows = ad.take_rows(probs, rows)
        p_true = ad.tsum(ad.mul(p_rows, onehot), axis=1)
        stage = ad.neg(ad.tsum(ad.log(p_true)))
        total = stage if total is None else ad.add(total, stage)
    return ad.mul(total, 1.0 / rows.size)


def metrics(dist: SequenceDistribution, truth, mask=None) -> Metrics:
    """Final-stage perplexity (exp of mean cross-entropy) and recovery %."""
    n = dist.probs.shape[0]
    idx, auto_mask = _truth_indices(truth, n)
    mask = auto_mask if mask is None else (np.asarray(mask, dtype=bool) & auto_mask)
    count = int(mask.sum())
    if count == 0:
        return Metrics(perplexity=float("nan"), recovery=float("nan"))
    ce = -np.mean(np.log(dist.probs[mask, idx[mask]]))
    pred = np.argmax(dist.probs, axis=1)
    recovery = 100.0 * float(np.mean(pred[mask] == idx[mask]))
    return Metrics(perplexity=float(np.exp(ce)), recovery=recovery)


def pool_metrics(scored) -> Metrics | None:
    """Residue-weighted metrics over proteins, from (Metrics, scored
    residue count) pairs: recovery pools as a weighted mean, perplexity
    as exp of the weighted mean log-perplexity. Proteins with no scored
    residue are left out; None when no protein is scored."""
    count, log_ppl, recovery = 0, 0.0, 0.0
    for m, n in scored:
        if n > 0:
            count += n
            log_ppl += math.log(m.perplexity) * n
            recovery += m.recovery * n
    if count == 0:
        return None
    return Metrics(perplexity=math.exp(log_ppl / count), recovery=recovery / count)


def cosine_warmup_lr(step: int, cfg: TrainConfig, total_steps: int) -> float:
    """Linear warmup to the base rate, then cosine decay to zero.

    `step` is 1-based; lr(warmup_steps) == cfg.lr and lr(total_steps) == 0.
    """
    if cfg.schedule == "constant":
        return cfg.lr
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    span = max(1, total_steps - cfg.warmup_steps)
    progress = min(1.0, (step - cfg.warmup_steps) / span)
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Adam with decoupled weight decay."""

    def __init__(self, params: dict, lr=1e-3, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.t += 1
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data  # decoupled, pre-update
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p.data -= lr * update


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm.

    Returns the pre-clip global norm. A norm that is not finite leaves
    the gradients as they are.
    """
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(sq)
    if max_norm > 0 and max_norm < norm < math.inf:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def _non_finite_gradient(params: dict, step: int) -> str:
    name = next((k for k, p in params.items()
                 if p.grad is not None and not np.all(np.isfinite(p.grad))), None)
    if name is None:
        return f"training diverged at step {step}: the gradient norm overflowed"
    return f"training diverged at step {step}: gradient of {name!r} is not finite"


@dataclass
class TrainResult:
    model: InverseFoldModel
    log_rows: list
    val_history: list
    final_metrics: Metrics
    stopped_step: int
    stopped_early: bool
    stage_losses: list = field(default_factory=list)


@ad.no_grad()
def _evaluate(model, graphs, providers, recycles):
    """Noise-free, dropout-free pass; per-stage mean losses and final metrics."""
    struct_p, seq_p = providers
    per_stage = None
    scored = []
    for graph in graphs:
        probs, _, _ = model.run_stages(graph, struct_p, seq_p, recycles, training=False)
        dists = [SequenceDistribution(p.data, stage=t + 1) for t, p in enumerate(probs)]
        truth = graph.labels
        stage_vals = []
        for d in dists:
            stage_vals.append(staged_loss([d], truth))
        if per_stage is None:
            per_stage = np.zeros(len(stage_vals))
        per_stage += np.asarray(stage_vals)
        scored.append((metrics(dists[-1], truth), int(graph.mask.sum())))
    per_stage /= len(graphs)
    return per_stage, pool_metrics(scored)


def train_toy(corpus, cfg: TrainConfig, model_cfg: ModelConfig | None = None,
              feature_cfg: FeatureConfig | None = None, recycles: int | None = None) -> TrainResult:
    """Memorization-scale training on a small backbone corpus.

    `corpus` is a list of ProteinBackbone whose residue labels are the
    target sequences. Runs max_steps optimizer steps; early-stops on
    held-out perplexity.
    """
    if not corpus:
        raise InvalidParameter("corpus is empty")
    feature_cfg = feature_cfg or FeatureConfig()
    if model_cfg is None:
        model_cfg = ModelConfig(node_dim=feature_cfg.node_dim, edge_dim=feature_cfg.edge_dim,
                                dropout=cfg.dropout)
    recycles = model_cfg.recycles if recycles is None else recycles

    root = RandomStream(cfg.seed, "train")
    perm = root.child("split").permutation(len(corpus))
    n_val = int(round(cfg.val_fraction * len(corpus))) if len(corpus) >= 2 else 0
    val_ids = sorted(perm[:n_val].tolist())
    train_ids = sorted(perm[n_val:].tolist())
    if not train_ids:
        raise InvalidParameter(f"val_fraction {cfg.val_fraction} holds out all {len(corpus)} "
                               "proteins; none is left to train on")

    model = InverseFoldModel(model_cfg, seed=cfg.seed)
    params = model.parameters()
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    providers = (StubStructureProvider(dim=model_cfg.struct_dim, seed=cfg.seed),
                 StubSequenceProvider(dim=model_cfg.seq_dim, seed=cfg.seed))

    clean_graphs = {i: build_knn_graph(corpus[i], feature_cfg) for i in range(len(corpus))}
    train_graphs = [clean_graphs[i] for i in train_ids]
    val_graphs = [clean_graphs[i] for i in val_ids]

    log_rows = []
    val_history = []
    best_val = float("inf")
    stale = 0
    stopped_early = False
    step = 0
    epoch = 0

    def record(step_now):
        stage_losses, train_m = _evaluate(model, train_graphs, providers, recycles)
        lr_now = cosine_warmup_lr(max(step_now, 1), cfg, cfg.max_steps)
        for t, val in enumerate(stage_losses):
            log_rows.append({
                "epoch": epoch, "step": step_now, "stage": t + 1,
                "loss": float(val), "ppl": train_m.perplexity,
                "recovery": train_m.recovery, "lr": lr_now,
            })
        return stage_losses, train_m

    while step < cfg.max_steps and not stopped_early:
        epoch += 1
        order = [train_ids[i] for i in root.child(f"epoch{epoch}").permutation(len(train_ids))]
        for start in range(0, len(order), cfg.batch_size):
            if step >= cfg.max_steps or stopped_early:
                break
            step += 1
            batch = order[start:start + cfg.batch_size]
            ad.zero_grads(params)
            for pid in batch:
                backbone = corpus[pid]
                if cfg.noise_sigma > 0:
                    noise_seed = cfg.seed * 1000003 + step * 131 + pid
                    backbone = inject_backbone_noise(backbone, cfg.noise_sigma, noise_seed)
                graph = build_knn_graph(backbone, feature_cfg)
                stream = root.child(f"step{step}/p{pid}")
                probs, _, _ = model.run_stages(graph, providers[0], providers[1], recycles,
                                               training=True, stream=stream)
                loss = ad.mul(staged_loss_tensor(probs, graph.labels), 1.0 / len(batch))
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(step)
                ad.backward(loss)  # grads accumulate across the batch
            if not math.isfinite(clip_gradients(params, cfg.grad_clip_norm)):
                raise TrainingDiverged(step, _non_finite_gradient(params, step))
            opt.step(lr=cosine_warmup_lr(step, cfg, cfg.max_steps))

            if step % cfg.eval_every == 0 or step == cfg.max_steps:
                stage_losses, final_m = record(step)
                if val_graphs and cfg.early_stop_patience > 0:
                    _, val_m = _evaluate(model, val_graphs, providers, recycles)
                    val_history.append({"step": step, "ppl": val_m.perplexity,
                                        "recovery": val_m.recovery})
                    if val_m.perplexity < best_val - 1e-9:
                        best_val = val_m.perplexity
                        stale = 0
                    else:
                        stale += 1
                        if stale >= cfg.early_stop_patience:
                            stopped_early = True

    # the last step is always recorded: at max_steps, or where early stopping set in
    return TrainResult(model=model, log_rows=log_rows, val_history=val_history,
                       final_metrics=final_m, stopped_step=step, stopped_early=stopped_early,
                       stage_losses=list(np.atleast_1d(stage_losses)))


def write_metrics_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,step,stage,loss,ppl,recovery,lr\n")
        for r in rows:
            fh.write(f"{r['epoch']},{r['step']},{r['stage']},{r['loss']:.10g},"
                     f"{r['ppl']:.10g},{r['recovery']:.10g},{r['lr']:.10g}\n")
