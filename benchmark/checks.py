"""Output checks, computed apart from the program or from properties the
method must have. Each returns a list of failure messages; empty means pass.
Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

from inputs import AMINO_ACIDS, render_pdb

RBF_COUNT, RBF_MIN, RBF_MAX = 16, 0.0, 20.0  # FeatureConfig defaults
REL_CLAMP = 32
SE3_TOL = 1e-8
FD_TOL = 1e-4


def _family(layout, name):
    entry = next(e for e in layout if e["family"] == name)
    return entry["offset"], entry["width"]


# ---------------------------------------------------------------- design

def distributions(result, n) -> list:
    errors = []
    for d in result.distributions:
        p = d.probs
        if p.shape != (n, 20):
            errors.append(f"stage {d.stage}: shape {p.shape} != ({n}, 20)")
            continue
        if np.any(p < 0):
            errors.append(f"stage {d.stage}: negative probability")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-6:
            errors.append(f"stage {d.stage}: rows do not sum to 1 within 1e-6")
    last = np.argmax(result.distributions[-1].probs, axis=1)
    if str(result.predicted) != "".join(AMINO_ACIDS[c] for c in last):
        errors.append("sequence is not the argmax of the last stage")
    return errors


def causality(stage1_of_t3, result_t1) -> list:
    if not np.array_equal(stage1_of_t3, result_t1.distributions[0].probs):
        return ["stage-1 distribution of the T=3 run differs from the T=1 run"]
    return []


def rigid_copy(protein, rotation):
    """PDB text of the protein rotated by x -> R x, exact for cube rotations."""
    return render_pdb(protein.sequence, protein.coords @ rotation.T)


def se3(reference, moved) -> list:
    diff = np.max(np.abs(np.log(reference.distributions[-1].probs)
                         - np.log(moved.distributions[-1].probs)))
    if not diff <= SE3_TOL:
        return [f"rigidly moved copy: last-stage log-probabilities differ by {diff:.3e}"]
    return []


# ------------------------------------------------------------- featurize

def parsed(protein, backbone) -> list:
    errors = []
    if backbone.sequence != protein.sequence:
        errors.append("parsed sequence differs from the generated chain")
    if not np.array_equal(backbone.coords(), as_parsed(protein.coords)):
        errors.append("parsed coordinates differ from the generated chain")
    return errors


def as_parsed(coords):
    """The parser stores coordinates as float32."""
    return coords.astype(np.float32).astype(np.float64)


def graph(protein, g, data, deserialize, rng) -> list:
    errors = []
    xyz = as_parsed(protein.coords)
    n = protein.n
    k = min(48, n - 1)
    ca = xyz[:, 1]
    dist = np.sqrt(((ca[:, None, :] - ca[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
    if g.neighbors.shape != (n, k) or not np.array_equal(g.neighbors, expected):
        errors.append("neighbors differ from a brute-force stable argsort of CA distances")
        return errors

    off, width = _family(g.edge_layout, "inter_rbf")
    centers = np.linspace(RBF_MIN, RBF_MAX, RBF_COUNT)
    sigma = (RBF_MAX - RBF_MIN) / (RBF_COUNT - 1)
    rows = rng.integers(0, n, 64)
    slots = rng.integers(0, k, 64)
    senders = g.neighbors[rows, slots]
    d = np.sqrt(((xyz[rows][:, :, None, :] - xyz[senders][:, None, :, :]) ** 2).sum(axis=-1))
    rbf = np.exp(-((d[..., None] - centers) ** 2) / (2.0 * sigma**2)).reshape(len(rows), -1)
    if width != rbf.shape[1] or np.max(np.abs(g.edge_feats[rows, slots, off:off + width] - rbf)) > 1e-12:
        errors.append("inter_rbf block differs from exp(-(d-c)^2/2s^2) of the 4x4 atom distances")

    off, width = _family(g.edge_layout, "relative_position")
    rel = np.clip(g.neighbors - np.arange(n)[:, None], -REL_CLAMP, REL_CLAMP) + REL_CLAMP
    onehot = np.zeros((n, k, 2 * REL_CLAMP + 1))
    np.put_along_axis(onehot, rel[..., None], 1.0, axis=2)
    if not np.array_equal(g.edge_feats[:, :, off:off + width], onehot):
        errors.append("relative_position is not one-hot at clip(j - i, +-32)")

    off, width = _family(g.edge_layout, "orientation")
    if not _unit_and_w_nonnegative(g.edge_feats[:, :, off:off + width]):
        errors.append("orientation quaternions are not unit with w >= 0")

    node_dim, edge_dim = g.node_feats.shape[1], g.edge_feats.shape[2]
    header = int.from_bytes(data[4:8], "little")
    if len(data) != 8 + header + 4 * (n * k + n * node_dim + n * k * edge_dim):
        errors.append(f"container length {len(data)} does not match its header and shapes")
        return errors
    # the blocks after the header (docs/formats.md), as views into the bytes
    nbr = np.frombuffer(data, "<i4", n * k, 8 + header).reshape(n, k)
    node = np.frombuffer(data, "<f4", n * node_dim, 8 + header + nbr.nbytes).reshape(n, node_dim)
    edge = np.frombuffer(data, "<f4", n * k * edge_dim,
                         8 + header + nbr.nbytes + node.nbytes).reshape(n, k, edge_dim)
    if not (np.array_equal(nbr, g.neighbors) and np.array_equal(node, g.node_feats.astype(np.float32))
            and _equal_by_rows(edge, g.edge_feats)):
        errors.append("container blocks are not the float32-cast arrays")
    # released before deserializing, so the check stays under the operation's memory peak
    g.edge_feats = None
    back = deserialize(data)
    if not (np.array_equal(back.neighbors, nbr) and np.array_equal(back.node_feats, node)
            and _equal_by_rows(edge, back.edge_feats)):
        errors.append("deserialize_graph does not return the float32-cast arrays")
    return errors


def _unit_and_w_nonnegative(q):
    return np.max(np.abs(np.linalg.norm(q, axis=-1) - 1.0)) <= 1e-12 and not np.any(q[..., 0] < 0)


def _equal_by_rows(block32, array, rows=64):
    """block32 == float32(array), compared a few rows at a time."""
    return all(np.array_equal(block32[i:i + rows], array[i:i + rows].astype(np.float32))
               for i in range(0, len(array), rows))


# ----------------------------------------------------------------- train

def stage_losses(model, graphs, providers, recycles=3):
    """Mean per-stage cross-entropy of the true labels, dropout off."""
    total = np.zeros(recycles)
    for g in graphs:
        probs, _, _ = model.run_stages(g, providers[0], providers[1], recycles, training=False)
        idx = np.array([AMINO_ACIDS.index(a) for a in g.labels])
        total += [-np.mean(np.log(p.data[np.arange(g.n), idx])) for p in probs]
    return total / len(graphs)


def loss_decreased(initial, final) -> list:
    if not np.sum(final) < np.sum(initial):
        return [f"summed stage loss did not fall: {np.sum(initial):.6f} -> {np.sum(final):.6f}"]
    return []


def same_run(first, result) -> list:
    errors = []
    if result.log_rows != first.log_rows:
        errors.append("a repeated run with the same seed gave different log_rows")
    p0, p1 = first.model.parameters(), result.model.parameters()
    if any(not np.array_equal(p0[name].data, p1[name].data) for name in p0):
        errors.append("a repeated run with the same seed gave different parameters")
    return errors


def directional_derivative(invfold, model, graph, providers, seed) -> list:
    """Central difference of staged_loss_tensor along a seeded unit direction
    against the tape's gradient dotted with it."""
    ad, training = invfold.autodiff, invfold.training
    params = model.parameters()
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(p.data.shape) for k, p in params.items()}
    scale = np.sqrt(sum(np.sum(v * v) for v in direction.values()))
    saved = {k: p.data.copy() for k, p in params.items()}

    def loss():
        probs, _, _ = model.run_stages(graph, providers[0], providers[1], 3, training=False)
        return training.staged_loss_tensor(probs, graph.labels)

    ad.zero_grads(params)
    root = loss()
    ad.backward(root)
    # parameters the loss does not reach (the last layer's edge MLP) have no gradient
    analytic = sum(np.sum(p.grad * direction[k]) for k, p in params.items()
                   if p.grad is not None) / scale
    ad.zero_grads(params)
    eps = 1e-5
    values = []
    for sign in (1.0, -1.0):
        for k, p in params.items():
            p.data = saved[k] + sign * eps * direction[k] / scale
        values.append(loss().item())
    for k, p in params.items():
        p.data = saved[k]
    numeric = (values[0] - values[1]) / (2 * eps)
    err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
    if not err <= FD_TOL:
        return [f"directional derivative: finite difference {numeric:.6e} vs tape {analytic:.6e}"
                f" (relative error {err:.2e})"]
    return []
