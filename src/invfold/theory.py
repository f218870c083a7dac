"""Executable checks of the architecture's graph-theoretic claims.

Hard assertions (violations fail the suite):
  * adding a rank-one term a a^T to a connected graph's Laplacian never
    increases any pairwise effective resistance, and the Sherman-Morrison
    expansion of the updated pseudoinverse matches direct inversion;
  * the first-order bound on |Delta(a_ij a_ji)| under logit
    perturbations holds up to an explicit second-order slack.

Measured diagnostics (reported, not asserted): layerwise mean return
mass (with a shared-edge ablation for comparison), loss across
recycling stages, and per-layer feature-spread profiles with the global
gate on and off. Their governing assumptions are not checkable from
first principles, so the suites emit series instead of verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InfiniteResistance, InvalidAttention, InvalidParameter
from .recycling import MASK_TOKEN
from .rng import RandomStream

_EIG_CUTOFF = 1e-10


@dataclass
class WeightedGraph:
    """Undirected nonnegative weights; Laplacian L = D - A."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidParameter(f"weights must be square, got {w.shape}")
        if np.max(np.abs(w - w.T)) > 1e-10:
            raise InvalidParameter("weights must be symmetric")
        if np.any(w < 0):
            raise InvalidParameter("weights must be nonnegative")
        w = w.copy()
        np.fill_diagonal(w, 0.0)
        self.weights = w

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def laplacian(self) -> np.ndarray:
        return np.diag(self.weights.sum(axis=1)) - self.weights

    def is_connected(self) -> bool:
        vals = np.linalg.eigvalsh(self.laplacian)
        return bool(vals[1] > _EIG_CUTOFF) if self.n > 1 else True


def pseudoinverse(matrix: np.ndarray, cutoff: float = _EIG_CUTOFF) -> np.ndarray:
    """Symmetric pseudoinverse by eigendecomposition with a hard cutoff."""
    vals, vecs = np.linalg.eigh(matrix)
    inv = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv) @ vecs.T


def effective_resistance(graph: WeightedGraph, u: int, v: int) -> float:
    """(e_u - e_v)^T L^+ (e_u - e_v)."""
    if u == v:
        raise InvalidParameter("u and v must differ")
    if not graph.is_connected():
        raise InfiniteResistance("graph is disconnected")
    lp = pseudoinverse(graph.laplacian)
    b = np.zeros(graph.n)
    b[u], b[v] = 1.0, -1.0
    return float(b @ lp @ b)


@dataclass
class ReturnMassReport:
    per_node: np.ndarray
    mean: float


def return_mass(alpha: np.ndarray) -> ReturnMassReport:
    """r_i = sum_j a_ij a_ji for a dense row-stochastic attention matrix.

    Rows must sum to 1 within 1e-6 (use attention_to_dense for model
    output); entries for non-adjacent pairs are zero and contribute 0.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidAttention(f"attention must be square, got {a.shape}")
    if np.any(a < -1e-12):
        raise InvalidAttention("negative attention weight")
    if np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-6:
        raise InvalidAttention("attention rows must sum to 1 within 1e-6")
    per_node = np.sum(a * a.T, axis=1)
    return ReturnMassReport(per_node=per_node, mean=float(per_node.mean()))


def attention_to_dense(neighbors: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Scatter (n, k') slot attention into a dense (n, n) matrix."""
    n, k = neighbors.shape
    dense = np.zeros((n, n))
    rows = np.repeat(np.arange(n), k)
    dense[rows, neighbors.reshape(-1)] = alpha.reshape(-1)
    return dense


def star_attention(leaves: int) -> np.ndarray:
    """Star fixture: center (node 0) attends uniformly to the leaves,
    each leaf attends only to the center."""
    n = leaves + 1
    a = np.zeros((n, n))
    a[0, 1:] = 1.0 / leaves
    a[1:, 0] = 1.0
    return a


def two_cycle_attention() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def rank_one_resistance_check(graph: WeightedGraph, alpha: np.ndarray, pairs=None,
                              tol: float = 1e-9) -> dict:
    """Compare all requested resistances before and after L + a a^T.

    `alpha` is first orthogonalized against the all-ones vector
    (resistance lives on that subspace). Also verifies the
    Sherman-Morrison expansion of the updated pseudoinverse against
    direct eigendecomposition.
    """
    if not graph.is_connected():
        raise InfiniteResistance("graph is disconnected")
    a = np.asarray(alpha, dtype=np.float64).reshape(graph.n)
    a = a - a.mean()
    lap = graph.laplacian
    lp = pseudoinverse(lap)
    updated = lap + np.outer(a, a)
    lp_updated = pseudoinverse(updated)

    quad = float(a @ lp @ a)
    sherman = lp - np.outer(lp @ a, a @ lp) / (1.0 + quad)
    sm_residual = float(np.max(np.abs(lp_updated - sherman)))

    if pairs is None:
        pairs = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n)]
    worst = -math.inf
    violations = 0
    for u, v in pairs:
        b = np.zeros(graph.n)
        b[u], b[v] = 1.0, -1.0
        before = float(b @ lp @ b)
        after = float(b @ lp_updated @ b)
        worst = max(worst, after - before)
        if after > before + tol:
            violations += 1
    return {
        "pairs": len(pairs),
        "violations": violations,
        "max_violation": worst,
        "sherman_morrison_residual": sm_residual,
        "tolerance": tol,
        "ok": violations == 0 and sm_residual <= 1e-8,
    }


def random_connected_graph(stream: RandomStream, n: int, k: int = 3) -> WeightedGraph:
    """Geometric k-NN point cloud with a patch that guarantees connectivity."""
    pts = stream.child("points").uniform((n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    w = np.zeros((n, n))
    wdraw = stream.child("weights")
    order = np.argsort(d, axis=1, kind="stable")
    for i in range(n):
        for j in order[i, :min(k, n - 1)]:
            if w[i, j] == 0.0:
                val = 0.5 + wdraw.uniform(())
                w[i, j] = w[j, i] = val
    # union-find patch: bridge the closest cross-component pair until connected
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if w[i, j] > 0:
                parent[find(i)] = find(j)
    while len({find(i) for i in range(n)}) > 1:
        best, pair = np.inf, None
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) != find(j) and d[i, j] < best:
                    best, pair = d[i, j], (i, j)
        i, j = pair
        val = 0.5 + wdraw.uniform(())
        w[i, j] = w[j, i] = val
        parent[find(i)] = find(j)
    return WeightedGraph(w)


@dataclass
class SensitivityFixture:
    """Two receivers with a mutual adjacency and logit perturbations."""

    logits_i: np.ndarray  # receiver i's row, neighbor j at slot_j
    logits_j: np.ndarray  # receiver j's row, neighbor i at slot_i
    slot_j: int
    slot_i: int
    delta_ij: float  # perturbation direction of s_ij (receiver i -> neighbor j)
    delta_ji: float  # perturbation direction of s_ji


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def random_sensitivity_fixtures(stream: RandomStream, count: int) -> list:
    fixtures = []
    for idx in range(count):
        child = stream.child(f"fix{idx}")
        m_i = int(child.child("mi").integers(1, 7))
        m_j = int(child.child("mj").integers(1, 7))
        fixtures.append(SensitivityFixture(
            logits_i=child.child("si").gaussian((m_i,)) * 2.0,
            logits_j=child.child("sj").gaussian((m_j,)) * 2.0,
            slot_j=int(child.child("slotj").integers(0, m_i)),
            slot_i=int(child.child("sloti").integers(0, m_j)),
            delta_ij=float(child.child("dij").gaussian()),
            delta_ji=float(child.child("dji").gaussian()),
        ))
    return fixtures


def softmax_sensitivity_check(fixtures, eps: float = 1e-4) -> dict:
    """Measure |Delta(a_ij a_ji)| against the first-order bound.

    Bound: a_ij * a_ji(1-a_ji) * |Delta s_ji| + a_ji * a_ij(1-a_ij) * |Delta s_ij|.
    The allowed slack is an analytic curvature bound,
    0.5 * (|delta_ij| + |delta_ji|)^2 * eps^2, several times the true
    second-order supremum; the report also carries the worst fitted
    curvature |measured - bound| / eps^2 actually observed.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidParameter(f"eps must be finite and > 0, got {eps}")
    violations = 0
    worst_margin = -math.inf
    worst_curvature = 0.0
    for fx in fixtures:
        a_i = _softmax(fx.logits_i)
        a_j = _softmax(fx.logits_j)
        a_ij = a_i[fx.slot_j]
        a_ji = a_j[fx.slot_i]

        li = fx.logits_i.copy()
        lj = fx.logits_j.copy()
        li[fx.slot_j] += eps * fx.delta_ij
        lj[fx.slot_i] += eps * fx.delta_ji
        a_ij_new = _softmax(li)[fx.slot_j]
        a_ji_new = _softmax(lj)[fx.slot_i]

        measured = abs(a_ij_new * a_ji_new - a_ij * a_ji)
        bound = (a_ij * a_ji * (1.0 - a_ji) * abs(eps * fx.delta_ji)
                 + a_ji * a_ij * (1.0 - a_ij) * abs(eps * fx.delta_ij))
        slack = 0.5 * (abs(fx.delta_ij) + abs(fx.delta_ji)) ** 2 * eps * eps
        margin = measured - bound - slack
        worst_margin = max(worst_margin, margin)
        worst_curvature = max(worst_curvature, (measured - bound) / (eps * eps))
        if margin > 0:
            violations += 1
    return {
        "fixtures": len(fixtures),
        "eps": eps,
        "violations": violations,
        "worst_margin": worst_margin,
        "worst_fitted_curvature": worst_curvature,
        "ok": violations == 0,
    }


@ad.no_grad()
def contraction_profile(model, graphs, structure_provider, sequence_provider) -> dict:
    """Per-layer mean return mass for directional and shared-edge runs.

    Purely a measurement: the layerwise-contraction statement holds
    under Lipschitz assumptions whose constants are not observable, so
    the series and the worst consecutive ratio are reported as-is.
    """
    def series(symmetric):
        layer_sums = None
        for graph in graphs:
            _, alphas, _ = model.run_stages(graph, structure_provider, sequence_provider,
                                            recycles=1, training=False,
                                            symmetric_edges=symmetric)
            per_layer = [return_mass(attention_to_dense(graph.neighbors, a)).mean
                         for a in alphas[0]]
            vals = np.asarray(per_layer)
            layer_sums = vals if layer_sums is None else layer_sums + vals
        return (layer_sums / len(graphs)).tolist()

    directional = series(symmetric=False)
    symmetric = series(symmetric=True)
    ratios = [directional[i + 1] / directional[i]
              for i in range(len(directional) - 1) if directional[i] > 0]
    return {
        "directional": directional,
        "symmetric": symmetric,
        "max_ratio": max(ratios) if ratios else 1.0,
        "layers": len(directional),
        "graphs": len(graphs),
    }


def recycling_monotonicity_report(staged_losses) -> dict:
    """Diagnostic series of per-stage losses L_1..L_T."""
    losses = [float(x) for x in staged_losses]
    return {
        "losses": losses,
        "stages": len(losses),
        "last_not_worse_than_first": losses[-1] <= losses[0] if losses else True,
        "nonincreasing": all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])),
    }


@ad.no_grad()
def oversmoothing_profile(model, graph, structure_provider, sequence_provider) -> dict:
    """Mean pairwise node-state distance per layer, sqrt(d)-normalized,
    with the global-context block enabled and disabled."""
    def spread(states):
        out = []
        for h in states:
            n, d = h.shape
            if n < 2:
                out.append(0.0)
                continue
            diff = h[:, None, :] - h[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            out.append(float(dist[np.triu_indices(n, 1)].mean() / math.sqrt(d)))
        return out

    def run(use_bridge):
        h_geom, e_geom = model.embed_graph(graph)
        e_struct = structure_provider.embed_structure(graph)
        e_seq = sequence_provider.embed_sequence([MASK_TOKEN] * graph.n)
        _, _, trace = model.forward_stage(graph, h_geom, e_geom, e_struct, e_seq, 0,
                                          training=False, use_bridge=use_bridge,
                                          collect_states=True)
        return spread(trace)

    return {"bridge_on": run(True), "bridge_off": run(False)}
