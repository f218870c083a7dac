"""Rigid-motion-invariant featurization of backbone graphs.

Builds the k-nearest-neighbor residue graph (CA Euclidean distances,
ties broken by ascending residue index) and assembles per-node and
per-directed-edge features that are unchanged under any rotation plus
translation of the input coordinates:

  node:  Gaussian RBF encodings of intra-residue atom distances,
         sin/cos of backbone dihedrals with defined-masks, and a
         secondary-structure one-hot (10 annotation classes plus an
         "unknown" slot used when no annotation is supplied).
  edge:  RBF encodings of the 4x4 inter-residue heavy-atom distances,
         the relative orientation quaternion between the two residues'
         local frames (Shepperd's matrix form), and a clamped one-hot
         of sequence separation.

Edge features are stored independently per orientation: the entry for
j->i lives in receiver i's slot for neighbor j and never aliases i->j.

The graph is built in one pass over blocks of receivers
(`autodiff.receiver_blocks`), which `autodiff.run_blocks` spreads over
its worker threads. Each block finds its own receivers' neighbours from
the block's CA distances to all n residues: the residues closer than
the k-th distance, then the lowest-indexed of those at it, so ties go to
the lower index exactly as in a stable sort of the whole row. It then
computes their edge features and writes both into its rows of the
neighbour and edge arrays. No other array grows with the edge count,
none grows with n^2, and the result does not depend on the worker count.

Anything derived from an atom that the backbone's `present` mask marks
imputed is zeroed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .autodiff import receiver_blocks, run_blocks
from .containers import checked, pack, unpack
from .errors import (DegenerateFrame, GraphTooSmall, InvalidParameter, ParseError, check_count,
                     check_number)
from .structure_io import ProteinBackbone

_GRAPH_MAGIC = b"IFG1"
_EYE = np.eye(3)


@dataclass
class FeatureConfig:
    """Featurization knobs; defaults match the shipped config."""

    k: int = 48
    rbf_count: int = 16
    rbf_min: float = 0.0
    rbf_max: float = 20.0
    relative_position_clamp: int = 32
    ss_classes: int = 10

    def __post_init__(self):
        for name, low in (("k", 1), ("rbf_count", 2), ("relative_position_clamp", 0),
                          ("ss_classes", 1)):
            check_count(self, name, low)
        for name in ("rbf_min", "rbf_max"):  # Å; the bound keeps (d - c)^2 / sigma^2 finite
            check_number(self, name, -10**6, 10**6)
        if not self.rbf_min < self.rbf_max:
            raise InvalidParameter("rbf_min must be < rbf_max")

    @property
    def node_dim(self) -> int:
        """Intra-residue RBFs, dihedral sin/cos and masks, secondary structure."""
        return 6 * self.rbf_count + 9 + self.ss_classes + 1

    @property
    def edge_widths(self) -> dict:
        """The edge feature families in layout order, with their widths."""
        return {"inter_rbf": 16 * self.rbf_count, "orientation": 4,
                "relative_position": 2 * self.relative_position_clamp + 1}

    @property
    def edge_dim(self) -> int:
        """Inter-residue RBFs, orientation quaternion, relative position."""
        return sum(self.edge_widths.values())


@dataclass
class ResidueGraph:
    """k-NN graph with invariant node and directed-edge features."""

    n: int
    k: int
    neighbors: np.ndarray  # (n, k') int32, ordered by ascending CA distance
    node_feats: np.ndarray  # (n, node_dim) float64
    edge_feats: np.ndarray  # (n, k', edge_dim) float64; row i slot m holds e_{neighbors[i,m] -> i}
    node_layout: list
    edge_layout: list
    labels: list
    seq_index: np.ndarray
    chain_id: str
    backbone: ProteinBackbone | None = None
    mask: np.ndarray = field(default=None)  # True where the residue counts toward the loss

    def __post_init__(self):
        """InvalidParameter unless n >= 2, 1 <= k <= n - 1, and the arrays and
        header fields agree with n, k and the layouts."""
        check_count(self, "n", 2)
        check_count(self, "k", 1)
        n, k = self.n, self.k
        if k > n - 1:
            raise InvalidParameter(f"k = {k} needs at least {k + 1} residues, got n = {n}")
        if not (isinstance(self.labels, list)
                and all(isinstance(aa, str) and len(aa) == 1 for aa in self.labels)):
            raise InvalidParameter("labels must be a list of one-character strings")
        seq_index = np.asarray(self.seq_index)
        if seq_index.shape != (n,) or seq_index.dtype.kind not in "iu":
            raise InvalidParameter(f"seq_index must be ({n},) int, got {seq_index.shape} "
                                   f"{seq_index.dtype}")
        if not isinstance(self.chain_id, str):
            raise InvalidParameter(f"chain_id must be a str, got {self.chain_id!r}")
        if self.mask is None:
            self.mask = np.array([aa != "X" for aa in self.labels], dtype=bool)
        nbr = np.asarray(self.neighbors)
        if nbr.shape != (n, k) or nbr.dtype.kind not in "iu":
            raise InvalidParameter(f"neighbors must be ({n}, {k}) int, got {nbr.shape} {nbr.dtype}")
        if not 0 <= nbr.min() <= nbr.max() < n:
            raise InvalidParameter(f"neighbor index outside [0, {n})")
        for name in ("labels", "mask"):
            if len(getattr(self, name)) != n:
                raise InvalidParameter(f"{name} has {len(getattr(self, name))} entries, not n = {n}")
        for name, feats, layout, lead in (("node", self.node_feats, self.node_layout, (n,)),
                                          ("edge", self.edge_feats, self.edge_layout, (n, k))):
            ends = list(itertools.accumulate((block["width"] for block in layout), initial=0))
            if ([block["offset"] for block in layout] != ends[:-1]
                    or np.shape(feats) != lead + (ends[-1],)):
                raise InvalidParameter(f"{name} features {np.shape(feats)} do not match "
                                       f"their layout of widths summing to {ends[-1]}")


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, 3) arrays, as a batched matmul (the
    same rounding as a 1-D `a[i] @ b[i]` and `np.linalg.norm(a[i])`)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def local_frames(backbone: ProteinBackbone):
    """Gram-Schmidt frames from (CA->C, CA->N), z = x cross y.

    Returns (basis, valid): basis is (n, 3, 3) with the local axes as
    rows. Residues whose N or C atom is imputed get the identity basis
    and valid False; genuinely collinear real atoms raise
    DegenerateFrame for the first such residue.
    """
    if len(backbone) == 0:
        raise InvalidParameter("empty backbone")
    atoms = backbone.atoms
    valid = backbone.present[:, 0] & backbone.present[:, 2]
    # an imputed N or C sits on CA; its frame is built from the unit axes
    # instead, so it comes out as the identity without dividing by zero
    u = np.where(valid[:, None], atoms[:, 2] - atoms[:, 1], _EYE[0])
    w = np.where(valid[:, None], atoms[:, 0] - atoms[:, 1], _EYE[1])
    nu = np.sqrt(_rowdot(u, u))
    bad = nu < 1e-9
    x = u / np.where(bad, 1.0, nu)[:, None]
    y_raw = w - _rowdot(w, x)[:, None] * x
    ny = np.sqrt(_rowdot(y_raw, y_raw))
    bad |= ny < 1e-9
    if bad.any():
        raise DegenerateFrame(int(np.argmax(bad)))
    y = y_raw / ny[:, None]
    return np.stack([x, y, np.cross(x, y)], axis=1), valid


def torsion(p0, p1, p2, p3) -> np.ndarray:
    """Signed dihedral of four points (IUPAC sign), vectorized over rows."""
    p0, p1, p2, p3 = (np.atleast_2d(np.asarray(p, dtype=np.float64)) for p in (p0, p1, p2, p3))
    b1 = p1 - p0
    b2 = p2 - p1
    b3 = p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    # degenerate spans (coincident imputed atoms) are masked by callers
    norm = np.linalg.norm(b2, axis=-1)
    x = np.sum(n1 * n2, axis=-1)
    y = np.sum(b1 * n2, axis=-1) * norm
    return np.arctan2(y, x)


def dihedral_angles(backbone: ProteinBackbone):
    """Backbone (phi, psi, omega) per residue, radians, with defined-mask.

    phi_i   : C_{i-1}, N_i, CA_i, C_i
    psi_i   : N_i, CA_i, C_i, N_{i+1}
    omega_i : CA_{i-1}, C_{i-1}, N_i, CA_i

    Mask is False at chain termini and wherever an involved atom was
    imputed; masked angles are reported as 0.
    """
    n = len(backbone)
    angles = np.zeros((n, 3))
    mask = np.zeros((n, 3), dtype=bool)
    if n < 2:
        return angles, mask
    coords = backbone.coords()
    N, CA, C = coords[:, 0], coords[:, 1], coords[:, 2]
    real_n, real_c = backbone.present[:, 0], backbone.present[:, 2]

    angles[1:, 0] = torsion(C[:-1], N[1:], CA[1:], C[1:])
    mask[1:, 0] = real_c[:-1] & real_n[1:] & real_c[1:]
    angles[:-1, 1] = torsion(N[:-1], CA[:-1], C[:-1], N[1:])
    mask[:-1, 1] = real_n[:-1] & real_c[:-1] & real_n[1:]
    angles[1:, 2] = torsion(CA[:-1], C[:-1], N[1:], CA[1:])
    mask[1:, 2] = real_c[:-1] & real_n[1:]

    angles[~mask] = 0.0
    return angles, mask


def rbf_encode(d, cfg: FeatureConfig) -> np.ndarray:
    """Gaussian RBF encoding exp(-(d - c_m)^2 / (2 sigma^2)) of a distance
    or an array of distances; the m centers run along a new last axis."""
    d = np.asarray(d)
    if np.any(d < 0):
        raise InvalidParameter(f"distance must be >= 0, got {d.min()}")
    centers = np.linspace(cfg.rbf_min, cfg.rbf_max, cfg.rbf_count)
    sigma = (cfg.rbf_max - cfg.rbf_min) / (cfg.rbf_count - 1)
    return np.exp(-((d[..., None] - centers) ** 2) / (2.0 * sigma**2))


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of rotation matrices (..., 3, 3).

    Shepperd's method: row c of the symmetric matrix K is 4 q_c q; the row
    with the largest diagonal entry 4 q_c^2 is divided by 4 |q_c|. The
    result is normalized, with w >= 0 (ties: first nonzero vector
    component made positive).
    """
    r = np.asarray(r, dtype=np.float64)
    shape = r.shape[:-2]
    r = r.reshape(-1, 3, 3)
    rows = np.arange(len(r))
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.transpose(1, 2, 0)
    a, b, c = r21 - r12, r02 - r20, r10 - r01
    u, v, w = r01 + r10, r02 + r20, r12 + r21
    K = np.moveaxis(np.array([[1.0 + r00 + r11 + r22, a, b, c],
                              [a, 1.0 + r00 - r11 - r22, u, v],
                              [b, u, 1.0 - r00 + r11 - r22, w],
                              [c, v, w, 1.0 - r00 - r11 + r22]]), -1, 0)  # (m, 4, 4)
    case = np.argmax(K.diagonal(axis1=1, axis2=2), axis=1)
    big = 0.5 * np.sqrt(np.maximum(K[rows, case, case], 1e-30))
    q = K[rows, case] / (4.0 * big)[:, None]
    q[rows, case] = big
    q /= np.linalg.norm(q, axis=1, keepdims=True)

    # Canonical sign: scalar part >= 0; exact zeros fall through to the
    # first nonzero vector component.
    lead = q[rows, 1 + np.argmax(q[:, 1:] != 0, axis=1)]
    q[(q[:, 0] < 0) | ((q[:, 0] == 0) & (lead < 0))] *= -1.0
    return q.reshape(*shape, 4)


def _layout(widths: dict) -> list:
    """One (family, offset, width) entry per feature family, in order."""
    offsets = itertools.accumulate(widths.values(), initial=0)
    return [{"family": family, "offset": offset, "width": width}
            for (family, width), offset in zip(widths.items(), offsets)]


def _assemble(blocks: dict):
    """Concatenate named feature blocks along the last axis; returns the
    features and their layout."""
    return (np.concatenate(list(blocks.values()), axis=-1),
            _layout({family: block.shape[-1] for family, block in blocks.items()}))


def _nearest(ca: np.ndarray, r0: int, r1: int, k: int) -> np.ndarray:
    """(r1 - r0, k): the k nearest other residues of receivers r0..r1-1 by
    CA distance, nearest first, equidistant ones in ascending index order.
    The temporaries are (r1 - r0, n) arrays and one (r1 - r0, n, 3)."""
    sq = ca[r0:r1, None, :] - ca[None, :, :]
    sq *= sq
    dist = np.sum(sq, axis=-1)
    del sq  # freed before the selection's temporaries
    np.sqrt(dist, out=dist)
    rows = np.arange(r1 - r0)
    dist[rows, r0 + rows] = np.inf
    # Every residue closer than the k-th distance is taken, and of those
    # at it the lowest-indexed fill the row up to k: the first k of a
    # stable sort of the whole row.
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    below = dist < kth
    tied = dist == kth
    tied &= np.cumsum(tied, axis=1) <= k - np.count_nonzero(below, axis=1)[:, None]
    cols = np.nonzero(below | tied)[1].reshape(r1 - r0, k)  # ascending index per row
    order = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def build_knn_graph(backbone: ProteinBackbone, cfg: FeatureConfig, ss=None) -> ResidueGraph:
    """Assemble the featurized k-NN residue graph.

    `ss` is an optional per-residue secondary-structure annotation
    (ints in [0, ss_classes)); without it every residue gets the
    dedicated unknown class.
    """
    n = len(backbone)
    if n < 2:
        raise GraphTooSmall(f"need at least 2 residues, got {n}")
    k_eff = min(cfg.k, n - 1)

    coords = backbone.coords()  # (n, 4, 3)
    atom_valid = backbone.present

    a_idx, b_idx = np.triu_indices(4, 1)  # the 6 atom pairs (0, 1), (0, 2), ..., (2, 3)
    d = np.linalg.norm(coords[:, a_idx] - coords[:, b_idx], axis=-1)  # (n, 6)
    intra = rbf_encode(d, cfg)  # (n, 6, rbf)
    intra *= (atom_valid[:, a_idx] & atom_valid[:, b_idx])[..., None]

    angles, mask = dihedral_angles(backbone)
    trig = np.zeros((n, 6))
    trig[:, 0::2] = np.sin(angles) * mask
    trig[:, 1::2] = np.cos(angles) * mask

    if ss is None:
        ss = np.full(n, cfg.ss_classes)
    else:
        ss = np.asarray(ss, dtype=np.int64)
        if ss.shape != (n,):
            raise InvalidParameter(f"secondary-structure annotation must have shape ({n},)")
        if np.any(ss < 0) or np.any(ss >= cfg.ss_classes):
            raise InvalidParameter(f"secondary-structure classes must lie in [0, {cfg.ss_classes})")
    ss_onehot = np.eye(cfg.ss_classes + 1)[ss]

    node_feats, node_layout = _assemble({
        "intra_rbf": intra.reshape(n, -1),
        "dihedral": np.concatenate([trig, mask.astype(np.float64)], axis=1),
        "secondary_structure": ss_onehot,
    })

    # The neighbour and edge arrays are the only per-edge allocations:
    # each block of receivers finds its neighbours, computes their edge
    # features and writes both into its own rows. The edge array starts
    # zeroed, so the relative-position one-hot only sets its ones.
    basis, valid = local_frames(backbone)
    edge_layout = _layout(cfg.edge_widths)
    inter_cols, quat_cols, relpos_cols = (slice(b["offset"], b["offset"] + b["width"])
                                          for b in edge_layout)
    clamp = cfg.relative_position_clamp
    ca = coords[:, 1]
    neighbors = np.empty((n, k_eff), dtype=np.int32)
    edge_feats = np.zeros((n, k_eff, cfg.edge_dim))

    def block(r0, r1, _):
        nbr, out = neighbors[r0:r1], edge_feats[r0:r1]
        nbr[:] = _nearest(ca, r0, r1, k_eff)
        # 4x4 heavy-atom distances, receiver atom first.
        recv = coords[r0:r1, None, :, None, :]        # (b, 1, 4, 1, 3)
        send = coords[nbr][:, :, None, :, :]          # (b, k', 1, 4, 3)
        inter = rbf_encode(np.linalg.norm(recv - send, axis=-1), cfg)  # (b, k', 4, 4, rbf)
        inter *= (atom_valid[r0:r1, None, :, None] & atom_valid[nbr][:, :, None, :])[..., None]
        out[:, :, inter_cols] = inter.reshape(r1 - r0, k_eff, -1)

        quat = rotation_to_quaternion(                # (b, k', 4)
            np.einsum("nab,nmcb->nmac", basis[r0:r1], basis[nbr]))
        quat *= (valid[r0:r1, None] & valid[nbr])[..., None]
        out[:, :, quat_cols] = quat

        sep = np.clip(nbr - np.arange(r0, r1)[:, None], -clamp, clamp) + clamp
        np.put_along_axis(out[:, :, relpos_cols], sep[..., None], 1.0, axis=-1)

    run_blocks(block, receiver_blocks(n, k_eff))

    return ResidueGraph(
        n=n,
        k=k_eff,
        neighbors=neighbors,
        node_feats=node_feats,
        edge_feats=edge_feats,
        node_layout=node_layout,
        edge_layout=edge_layout,
        labels=list(backbone.sequence),
        seq_index=backbone.seq_index.astype(np.int32),
        chain_id=backbone.chain_id,
        backbone=backbone,
    )


def serialize_graph(graph: ResidueGraph) -> bytearray:
    """Featurized-graph container: JSON header + int32/float32 blocks,
    each cast straight into the one buffer `pack` returns."""
    header = {
        "format": "graph/1",
        "n": graph.n,
        "k": graph.k,
        "node_dim": int(graph.node_feats.shape[1]),
        "edge_dim": int(graph.edge_feats.shape[2]),
        "node_layout": graph.node_layout,
        "edge_layout": graph.edge_layout,
        "labels": graph.labels,
        "seq_index": [int(s) for s in graph.seq_index],
        "chain_id": graph.chain_id,
    }
    return pack(_GRAPH_MAGIC, header, [("<i4", graph.neighbors), ("<f4", graph.node_feats),
                                       ("<f4", graph.edge_feats)])


def deserialize_graph(data: bytes) -> ResidueGraph:
    """Inverse of serialize_graph (features come back as float32 values in
    float64 arrays); ParseError on a malformed container."""
    header, (nbr, node, edge) = unpack(data, _GRAPH_MAGIC, lambda h: [
        ("<i4", (h["n"], h["k"])), ("<f4", (h["n"], h["node_dim"])),
        ("<f4", (h["n"], h["k"], h["edge_dim"]))], ParseError, "graph container")
    with checked(ParseError, "graph container header"):
        return ResidueGraph(
            n=header["n"], k=header["k"], neighbors=nbr.astype(np.int32),
            node_feats=node.astype(np.float64), edge_feats=edge.astype(np.float64),
            node_layout=header["node_layout"], edge_layout=header["edge_layout"],
            labels=header["labels"], seq_index=np.array(header["seq_index"]),
            chain_id=header["chain_id"])


def write_graph(graph: ResidueGraph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_graph(graph))


def read_graph(path) -> ResidueGraph:
    with open(path, "rb") as fh:
        return deserialize_graph(fh.read())
