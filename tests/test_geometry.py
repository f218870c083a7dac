"""Frames, dihedrals, RBFs, orientations, and the k-NN graph.

Oracles here are independent of the package implementation: a
projection-based torsion formula, scipy's rotation-matrix-to-quaternion
conversion, and a brute-force neighbor sort.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from invfold import autodiff as ad
from invfold.errors import DegenerateFrame, GraphTooSmall, InvalidParameter
from invfold.geometry import (
    FeatureConfig,
    build_knn_graph,
    deserialize_graph,
    dihedral_angles,
    local_frames,
    rbf_encode,
    rotation_to_quaternion,
    serialize_graph,
)
from invfold.rng import RandomStream
from invfold.structure_io import ProteinBackbone, parse_pdb
from invfold.synthetic import build_chain, ideal_helix, random_backbone, random_rotation

from conftest import residue_lines


def torsion_oracle(p0, p1, p2, p3):
    """Projection-based signed dihedral (independent formulation)."""
    b0 = -(p1 - p0)
    b1 = p2 - p1
    b1 = b1 / np.linalg.norm(b1)
    b2 = p3 - p2
    v = b0 - np.dot(b0, b1) * b1
    w = b2 - np.dot(b2, b1) * b1
    return math.atan2(np.dot(np.cross(b1, v), w), np.dot(v, w))


def backbone_of(atoms, present=None):
    """An all-alanine chain A backbone from (n, 4, 3) N, CA, C, O coordinates."""
    atoms = np.asarray(atoms, dtype=np.float64)
    n = len(atoms)
    present = np.ones((n, 4), dtype=bool) if present is None else present
    return ProteinBackbone(atoms, present, "A" * n, np.arange(1, n + 1), "A")


class TestLocalFrames:
    def test_orthonormal_right_handed(self, small_backbone):
        basis, valid = local_frames(small_backbone)
        assert basis.shape == (len(small_backbone), 3, 3) and valid.all()
        for b in basis:
            assert np.max(np.abs(b @ b.T - np.eye(3))) < 1e-8
            assert abs(np.linalg.det(b) - 1.0) < 1e-8

    def test_equivariance_of_relative_rotation(self, small_backbone):
        from invfold.structure_io import apply_rigid_transform
        r = random_rotation(RandomStream(11, "r"))
        moved = apply_rigid_transform(small_backbone, r, np.array([1.0, 2.0, 3.0]))
        f0, _ = local_frames(small_backbone)
        f1, _ = local_frames(moved)
        for i, j in [(0, 1), (2, 5), (7, 3)]:
            rel0 = f0[i] @ f0[j].T
            rel1 = f1[i] @ f1[j].T
            assert np.max(np.abs(rel0 - rel1)) < 1e-10

    def test_collinear_raises(self):
        atoms = [[[2.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0]]]
        with pytest.raises(DegenerateFrame) as err:
            local_frames(backbone_of(atoms))
        assert err.value.residue_index == 0

    def test_first_degenerate_residue_is_reported(self):
        atoms = random_backbone(4, 4).coords().copy()
        atoms[2, 0] = 2 * atoms[2, 1] - atoms[2, 2]   # N on the CA->C line
        atoms[3, 2] = atoms[3, 1]                      # C on CA
        with pytest.raises(DegenerateFrame) as err:
            local_frames(backbone_of(atoms))
        assert err.value.residue_index == 2

    def test_imputed_atoms_give_invalid_frame(self):
        lines = residue_lines("ALA", "A", 1, (0, 0, 0), skip=("N",))
        b = parse_pdb("\n".join(lines), "A")
        basis, valid = local_frames(b)
        assert not valid[0]
        assert np.array_equal(basis[0], np.eye(3))

    def test_imputed_n_mid_chain_featurizes_cleanly(self):
        b = random_backbone(6, 9)
        atoms, present = b.coords().copy(), b.present.copy()
        atoms[4, 0], present[4, 0] = atoms[4, 1], False   # N imputed at CA, as the parser does
        cfg = FeatureConfig(k=8, rbf_count=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = build_knn_graph(backbone_of(atoms, present), cfg)
        assert np.all(np.isfinite(g.node_feats)) and np.all(np.isfinite(g.edge_feats))
        fam = next(f for f in g.edge_layout if f["family"] == "orientation")
        orient = g.edge_feats[..., fam["offset"]:fam["offset"] + fam["width"]]
        touches = (np.arange(9)[:, None] == 4) | (g.neighbors == 4)
        assert np.all(orient[touches] == 0.0)
        assert np.all(np.linalg.norm(orient[~touches], axis=-1) > 0.5)


class TestDihedrals:
    def test_trans_peptide_omega(self):
        b = build_chain([math.radians(-60)] * 4, [math.radians(-40)] * 4, [math.pi] * 4)
        angles, mask = dihedral_angles(b)
        for i in range(1, 4):
            assert mask[i, 2]
            assert abs(abs(angles[i, 2]) - math.pi) < 1e-6

    def test_ideal_helix_angles(self):
        b = ideal_helix(8)
        angles, mask = dihedral_angles(b)
        coords = b.coords()
        for i in range(1, 7):
            assert abs(math.degrees(angles[i, 0]) - (-57.0)) < 2.0
            assert abs(math.degrees(angles[i, 1]) - (-47.0)) < 2.0
            # independent four-atom torsion formula
            phi_ref = torsion_oracle(coords[i - 1, 2], coords[i, 0], coords[i, 1], coords[i, 2])
            assert abs(angles[i, 0] - phi_ref) < 1e-9

    def test_terminal_masks(self, small_backbone):
        _, mask = dihedral_angles(small_backbone)
        assert not mask[0, 0] and not mask[0, 2]   # phi, omega undefined first
        assert not mask[-1, 1]                     # psi undefined last
        assert mask[1:, 0].all() and mask[:-1, 1].all()

    def test_imputed_atom_masks_dihedral(self):
        lines = []
        lines += residue_lines("ALA", "A", 1, (0, 0, 0), start_serial=1)
        lines += residue_lines("GLY", "A", 2, (3.8, 0, 0), start_serial=5, skip=("N",))
        lines += residue_lines("ALA", "A", 3, (7.6, 0, 0), start_serial=9)
        b = parse_pdb("\n".join(lines), "A")
        _, mask = dihedral_angles(b)
        assert not mask[1, 0] and not mask[1, 2]   # phi_2, omega_2 need real N_2


class TestRbf:
    def test_center_hit(self):
        cfg = FeatureConfig(rbf_count=16, rbf_min=0.0, rbf_max=20.0)
        centers = np.linspace(0, 20, 16)
        enc = rbf_encode(centers[3], cfg)
        assert enc[3] == pytest.approx(1.0)

    def test_one_sigma_value(self):
        cfg = FeatureConfig(rbf_count=16, rbf_min=0.0, rbf_max=20.0)
        sigma = 20.0 / 15
        enc = rbf_encode(0.0 + 2 * (20.0 / 15) + sigma, cfg)
        # component for center index 2, one spacing away
        assert enc[2] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_tail_decay(self):
        cfg = FeatureConfig(rbf_count=16, rbf_min=0.0, rbf_max=20.0)
        sigma = 20.0 / 15
        enc = rbf_encode(20.0 + 10 * sigma, cfg)
        assert np.all(enc[:-1] < 1e-8)
        assert enc[-1] == pytest.approx(math.exp(-50.0), rel=1e-9)

    def test_negative_distance(self):
        with pytest.raises(InvalidParameter):
            rbf_encode(-1.0, FeatureConfig())

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_components_bounded(self, d):
        enc = rbf_encode(d, FeatureConfig(rbf_count=8, rbf_min=0.0, rbf_max=20.0))
        assert np.all(enc > 0.0) and np.all(enc <= 1.0)

    def test_array_equals_stacked_scalars(self):
        cfg = FeatureConfig(rbf_count=16, rbf_min=0.0, rbf_max=20.0)
        d = np.array([[0.0, 0.5, 3.7], [12.25, 20.0, 31.0]])
        stacked = np.stack([rbf_encode(x, cfg) for x in d.ravel()]).reshape(2, 3, 16)
        assert rbf_encode(d, cfg).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("index", [(0, 0), (0, 2), (1, 1)])
    def test_negative_entry_in_array(self, index):
        d = np.full((2, 3), 4.0)
        d[index] = -1e-9
        with pytest.raises(InvalidParameter):
            rbf_encode(d, FeatureConfig())


def half_turn(axis):
    """The 180-degree rotation about `axis`, exactly symmetric."""
    u = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    return 2.0 * np.outer(u, u) - np.eye(3)


# One rotation per pivot row of the quaternion construction (w, x, y, z
# largest), plus half turns about generic axes, where w is exactly 0 and the
# sign falls to the first nonzero vector component.
BRANCH_ROTATIONS = {
    "near_identity": Rotation.from_rotvec([1e-3, -2e-3, 5e-4]).as_matrix(),
    "half_turn_x": np.diag([1.0, -1.0, -1.0]),
    "half_turn_y": np.diag([-1.0, 1.0, -1.0]),
    "half_turn_z": np.diag([-1.0, -1.0, 1.0]),
    "half_turn_u": half_turn([1.0, -2.0, 3.0]),
    "half_turn_minus_u": half_turn([-1.0, 2.0, -3.0]),
    "half_turn_flipped_lead": half_turn([1.0, 2.0, -3.0]),
}


def relative_quaternion(basis_i, basis_j):
    """The orientation feature of the edge j -> i, from the two bases."""
    return rotation_to_quaternion(basis_i @ basis_j.T)


class TestRelativeOrientation:
    def test_identity(self, small_backbone):
        basis, _ = local_frames(small_backbone)
        q = relative_quaternion(basis[0], basis[0])
        assert np.allclose(q, [1.0, 0, 0, 0], atol=1e-12)

    def test_ninety_about_z(self, small_backbone):
        basis_i = local_frames(small_backbone)[0][0]
        axis_z = basis_i[2]
        # rotate frame i's axes by 90 degrees about its own z axis
        rot = Rotation.from_rotvec(axis_z * (math.pi / 2)).as_matrix()
        q = relative_quaternion(basis_i, basis_i @ rot.T)
        assert np.allclose(q, [math.sqrt(2) / 2, 0, 0, math.sqrt(2) / 2], atol=1e-9)

    def test_swap_conjugates(self, small_backbone):
        basis, _ = local_frames(small_backbone)
        q = relative_quaternion(basis[0], basis[1])
        qc = relative_quaternion(basis[1], basis[0])
        assert abs(q[0] - qc[0]) < 1e-12
        assert np.allclose(q[1:], -qc[1:], atol=1e-12)

    def test_matches_scipy_conversion(self):
        stream = RandomStream(13, "rots")
        mats = np.stack([random_rotation(stream.child(str(i))) for i in range(64)])
        ours = rotation_to_quaternion(mats)
        ref = Rotation.from_matrix(mats).as_quat()  # (x, y, z, w)
        ref = np.concatenate([ref[:, 3:4], ref[:, :3]], axis=1)
        ref[ref[:, 0] < 0] *= -1.0
        assert np.max(np.abs(ours - ref)) < 1e-9

    @pytest.mark.parametrize("name", BRANCH_ROTATIONS)
    def test_branch_rotation(self, name):
        r = BRANCH_ROTATIONS[name]
        q = rotation_to_quaternion(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert q[0] >= 0
        if q[0] == 0:
            assert q[1:][np.nonzero(q[1:])[0][0]] > 0
        rebuilt = Rotation.from_quat(np.concatenate([q[1:], q[:1]])).as_matrix()
        assert np.max(np.abs(rebuilt - r)) < 1e-12

    def test_half_turn_values(self):
        u = np.array([1.0, 2.0, -3.0]) / math.sqrt(14.0)
        expected = {"half_turn_x": [0, 1, 0, 0], "half_turn_y": [0, 0, 1, 0],
                    "half_turn_z": [0, 0, 0, 1], "half_turn_u": [0, 1, -2, 3] / np.sqrt(14.0),
                    "half_turn_minus_u": [0, 1, -2, 3] / np.sqrt(14.0),
                    "half_turn_flipped_lead": np.concatenate([[0.0], u])}
        for name, q in expected.items():
            assert np.allclose(rotation_to_quaternion(BRANCH_ROTATIONS[name]), q, atol=1e-12), name

    def test_single_equals_batched(self):
        mats = np.stack(list(BRANCH_ROTATIONS.values()))
        batched = rotation_to_quaternion(mats)
        assert batched.shape == (len(mats), 4)
        single = np.stack([rotation_to_quaternion(r) for r in mats])
        assert single.tobytes() == batched.tobytes()

    def test_unit_norm(self):
        stream = RandomStream(17, "rots")
        mats = np.stack([random_rotation(stream.child(str(i))) for i in range(128)])
        q = rotation_to_quaternion(mats)
        assert np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)) < 1e-9


class TestKnnGraph:
    def test_three_residues_complete(self):
        b = random_backbone(1, 3)
        g = build_knn_graph(b, FeatureConfig(k=2, rbf_count=4))
        for i in range(3):
            assert sorted(g.neighbors[i].tolist()) == sorted(set(range(3)) - {i})

    def test_k_larger_than_n(self):
        b = random_backbone(2, 5)
        g = build_knn_graph(b, FeatureConfig(k=48, rbf_count=4))
        assert g.k == 4
        assert g.neighbors.shape == (5, 4)

    def test_too_small(self):
        b = random_backbone(3, 1)
        with pytest.raises(GraphTooSmall):
            build_knn_graph(b, FeatureConfig(k=2))

    def test_matches_bruteforce_sort(self):
        b = random_backbone(5, 20)
        g = build_knn_graph(b, FeatureConfig(k=6, rbf_count=4))
        ca = b.coords()[:, 1]
        for i in range(20):
            d = np.linalg.norm(ca - ca[i], axis=1)
            ranked = sorted((dist, j) for j, dist in enumerate(d) if j != i)
            expect = [j for _, j in ranked[:6]]
            assert g.neighbors[i].tolist() == expect

    def test_tie_break_lower_index(self):
        # residues 1 and 2 equidistant from residue 0
        offsets = np.array([[0.0, 0, 0], [0.3, 0, 0], [0.5, 0.4, 0], [0.2, 0.8, 0]])  # N, CA, C, O
        bases = np.array([[0.0, 0, 0], [4, 0, 0], [-4, 0, 0], [11, 0, 0]])
        b = backbone_of(bases[:, None, :] + offsets)
        g = build_knn_graph(b, FeatureConfig(k=2, rbf_count=4))
        assert g.neighbors[0].tolist() == [1, 2]

    def test_directed_edge_features_differ(self, small_graph):
        i, j = 0, int(small_graph.neighbors[0, 0])
        if i in small_graph.neighbors[j]:
            e_ij = small_graph.edge_feats[j, np.nonzero(small_graph.neighbors[j] == i)[0][0]]
            e_ji = small_graph.edge_feats[i, np.nonzero(small_graph.neighbors[i] == j)[0][0]]
            assert not np.array_equal(e_ij, e_ji)

    def test_mask_marks_unk(self):
        lines = residue_lines("MSE", "A", 1, (0, 0, 0))
        lines += residue_lines("ALA", "A", 2, (3.8, 0, 0), start_serial=5)
        b = parse_pdb("\n".join(lines), "A")
        g = build_knn_graph(b, FeatureConfig(k=1, rbf_count=4))
        assert g.mask.tolist() == [False, True]

    def test_ss_annotation_channels(self, small_backbone):
        cfg = FeatureConfig(k=3, rbf_count=4)
        ss = np.arange(len(small_backbone)) % 10
        g = build_knn_graph(small_backbone, cfg, ss=ss)
        fam = next(f for f in g.node_layout if f["family"] == "secondary_structure")
        block = g.node_feats[:, fam["offset"]:fam["offset"] + fam["width"]]
        assert np.array_equal(np.argmax(block, axis=1), ss)
        g2 = build_knn_graph(small_backbone, cfg)
        block2 = g2.node_feats[:, fam["offset"]:fam["offset"] + fam["width"]]
        assert np.all(block2[:, -1] == 1.0)

    def test_ss_out_of_range(self, small_backbone):
        with pytest.raises(InvalidParameter):
            build_knn_graph(small_backbone, FeatureConfig(k=3, rbf_count=4),
                            ss=[99] * len(small_backbone))


def whole_graph_nearest(ca, k):
    """The neighbour search before it ran over receiver blocks: (n, k)
    int32 from the whole (n, n) distance matrix and a stable argsort, so
    equidistant candidates resolve to the lower index."""
    sq = ca[:, None, :] - ca[None, :, :]
    sq *= sq
    dist = np.sqrt(np.sum(sq, axis=-1))
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k].astype(np.int32)


def cubic_lattice(side, spacing=3.8):
    """A backbone whose CA atoms sit on a side^3 cubic lattice, so CA
    distances tie exactly; the other atoms keep one offset from CA."""
    ca = np.stack(np.meshgrid(*[np.arange(side) * spacing] * 3, indexing="ij"), -1).reshape(-1, 3)
    offsets = np.array([[-1.0, 0.3, 0.0], [0.0, 0.0, 0.0], [1.2, 0.4, 0.1], [1.5, 1.0, 0.3]])
    return backbone_of(ca[:, None, :] + offsets)


def whole_array_graph(backbone, cfg, ss=None):
    """The featurizer before it ran over receiver blocks: each feature
    family built as one array over all n residues (all n k' edges), then
    concatenated. Returns (neighbors, node features, edge features)."""
    n = len(backbone)
    k = min(cfg.k, n - 1)
    coords, atom_valid = backbone.coords(), backbone.present
    nbr = whole_graph_nearest(coords[:, 1], k)

    a_idx, b_idx = np.triu_indices(4, 1)
    intra = rbf_encode(np.linalg.norm(coords[:, a_idx] - coords[:, b_idx], axis=-1), cfg)
    intra *= (atom_valid[:, a_idx] & atom_valid[:, b_idx])[..., None]
    angles, mask = dihedral_angles(backbone)
    trig = np.zeros((n, 6))
    trig[:, 0::2] = np.sin(angles) * mask
    trig[:, 1::2] = np.cos(angles) * mask
    ss = np.full(n, cfg.ss_classes) if ss is None else np.asarray(ss, dtype=np.int64)
    node = np.concatenate([intra.reshape(n, -1), trig, mask.astype(np.float64),
                           np.eye(cfg.ss_classes + 1)[ss]], axis=1)

    d = np.linalg.norm(coords[:, None, :, None, :] - coords[nbr][:, :, None, :, :], axis=-1)
    inter = rbf_encode(d, cfg)
    inter *= (atom_valid[:, None, :, None] & atom_valid[nbr][:, :, None, :])[..., None]
    basis, valid = local_frames(backbone)
    quat = rotation_to_quaternion(np.einsum("nab,nmcb->nmac", basis, basis[nbr]))
    quat *= (valid[:, None] & valid[nbr])[..., None]
    clamp = cfg.relative_position_clamp
    sep = np.clip(nbr - np.arange(n)[:, None], -clamp, clamp) + clamp
    edge = np.concatenate([inter.reshape(n, k, -1), quat, np.eye(2 * clamp + 1)[sep]], axis=-1)
    return nbr, node, edge


def with_imputed_atoms(backbone, cells):
    """The backbone with the (residue, atom) cells marked imputed and moved onto CA."""
    present = backbone.present.copy()
    present[tuple(np.transpose(cells))] = False
    atoms = np.where(present[..., None], backbone.atoms, backbone.atoms[:, 1:2])
    return dataclasses.replace(backbone, atoms=atoms, present=present)


class TestBlockedFeaturizer:
    # (n, FeatureConfig overrides, EDGE_ROWS, imputed atoms, ss given)
    CASES = {
        # 45 receivers in blocks of EDGE_ROWS // 44 = 11 leave one of 1
        "short-last-block": (45, {}, ad.EDGE_ROWS, False, False),
        "complete-graph": (6, {}, ad.EDGE_ROWS, False, False),
        # k' = 12 >= EDGE_ROWS: one receiver per block
        "one-receiver-per-block": (30, {"k": 12}, 8, False, False),
        # invalid frames and masked atom pairs, in more than one block
        "imputed-n-c-o": (50, {}, ad.EDGE_ROWS, True, False),
        "narrow-config": (25, {"k": 7, "rbf_count": 2, "relative_position_clamp": 0},
                          ad.EDGE_ROWS, False, False),
        "ss-given": (35, {}, ad.EDGE_ROWS, False, True),
        "everything-in-blocks-of-2": (60, {"k": 9, "rbf_count": 3}, 20, True, True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_whole_array_featurizer_bitwise(self, monkeypatch, case):
        n, overrides, edge_rows, imputed, with_ss = self.CASES[case]
        monkeypatch.setattr(ad, "EDGE_ROWS", edge_rows)
        cfg = FeatureConfig(**overrides)
        backbone = random_backbone(n, n)
        if imputed:
            backbone = with_imputed_atoms(backbone, [(3, 0), (10, 2), (20, 0), (20, 2), (25, 3)])
        ss = np.arange(n) * 7 % cfg.ss_classes if with_ss else None
        g = build_knn_graph(backbone, cfg, ss)
        neighbors, node, edge = whole_array_graph(backbone, cfg, ss)
        assert np.array_equal(g.neighbors, neighbors)
        assert np.array_equal(g.node_feats, node)
        assert g.edge_feats.shape == edge.shape == (n, g.k, cfg.edge_dim)
        assert np.array_equal(g.edge_feats, edge)
        assert [(b["family"], b["width"]) for b in g.edge_layout] == list(cfg.edge_widths.items())
        if imputed:
            assert not local_frames(backbone)[1].all()


class TestBlockedNeighbourSearch:
    """Each receiver block finds its own neighbours; the result is the
    whole-matrix stable sort's, bit for bit, dtype included."""

    @staticmethod
    def check(backbone, cfg):
        g = build_knn_graph(backbone, cfg)
        expect = whole_graph_nearest(backbone.coords()[:, 1], min(cfg.k, len(backbone) - 1))
        assert g.neighbors.dtype == expect.dtype == np.int32
        assert np.array_equal(g.neighbors, expect)

    @pytest.mark.parametrize("n", [2, 3, 49, 1000])
    def test_seeded_chain(self, n):
        self.check(random_backbone(n, n), FeatureConfig(rbf_count=2))

    # k' = n - 1: every row holds every other residue
    @pytest.mark.parametrize("n, k", [(20, 19), (20, 48), (60, 59)])
    def test_k_at_least_n_minus_one(self, monkeypatch, n, k):
        monkeypatch.setattr(ad, "EDGE_ROWS", 64)  # more than one block
        self.check(random_backbone(7, n), FeatureConfig(k=k, rbf_count=2))

    # 216 residues on a lattice, where many CA distances tie exactly
    @pytest.mark.parametrize("k", [1, 6, 26, 48, 214, 215])
    def test_exact_tie_lattice(self, k):
        self.check(cubic_lattice(6), FeatureConfig(k=k, rbf_count=2))

    def test_container_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        backbone = random_backbone(4, 300)
        written = []
        for workers in (1, 3):
            monkeypatch.setattr(ad, "block_workers", lambda: workers)
            written.append(bytes(serialize_graph(build_knn_graph(backbone, FeatureConfig()))))
        assert written[0] == written[1]


class TestFeaturizerMemory:
    """At n = 1000 the edge array is the featurizer's one per-edge
    allocation, and serializing writes the container once."""

    @staticmethod
    def traced_peak(fn):
        """fn()'s result and its tracemalloc peak above what was live before."""
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    def test_featurizer_peak_is_its_output(self):
        backbone = random_backbone(0, 1000)
        g, peak = self.traced_peak(lambda: build_knn_graph(backbone, FeatureConfig()))
        out = g.neighbors.nbytes + g.node_feats.nbytes + g.edge_feats.nbytes
        # 1.03 here; 2.35 when each feature family was a whole array
        assert peak <= 1.1 * out

    def test_featurizer_peak_is_linear_in_edges(self):
        # a narrow config at n = 4000: no (n, n) search array may set the peak
        backbone = random_backbone(0, 4000)
        g, peak = self.traced_peak(
            lambda: build_knn_graph(backbone, FeatureConfig(k=8, rbf_count=2)))
        out = g.neighbors.nbytes + g.node_feats.nbytes + g.edge_feats.nbytes
        # about 1.7 with two block workers; 23.7 with the whole-matrix search
        assert peak < 4 * out

    def test_serializer_peak_is_its_container(self):
        g = build_knn_graph(random_backbone(0, 1000), FeatureConfig())
        data, peak = self.traced_peak(lambda: serialize_graph(g))
        # 1.0 here; 2.0 when each block was copied and then joined
        assert peak <= 1.05 * len(data)


class TestInvariance:
    def test_se3_invariance_of_all_features(self):
        stream = RandomStream(23, "se3")
        cfg = FeatureConfig(k=8, rbf_count=8)
        for trial in range(5):
            b = random_backbone(trial, 14)
            g0 = build_knn_graph(b, cfg)
            r = random_rotation(stream.child(f"r{trial}"))
            t = stream.child(f"t{trial}").gaussian((3,)) * 10.0
            from invfold.structure_io import apply_rigid_transform
            g1 = build_knn_graph(apply_rigid_transform(b, r, t), cfg)
            assert np.array_equal(g0.neighbors, g1.neighbors)
            assert np.max(np.abs(g0.node_feats - g1.node_feats)) < 1e-8
            assert np.max(np.abs(g0.edge_feats - g1.edge_feats)) < 1e-8

    def test_translation_only_tight(self):
        cfg = FeatureConfig(k=6, rbf_count=8)
        b = random_backbone(9, 12)
        from invfold.structure_io import apply_rigid_transform
        g0 = build_knn_graph(b, cfg)
        g1 = build_knn_graph(apply_rigid_transform(b, np.eye(3), np.array([5.0, -3.0, 2.0])), cfg)
        assert np.max(np.abs(g0.node_feats - g1.node_feats)) < 1e-9
        assert np.max(np.abs(g0.edge_feats - g1.edge_feats)) < 1e-9


class TestGraphContainer:
    def test_round_trip(self, small_graph):
        data = serialize_graph(small_graph)
        g = deserialize_graph(data)
        assert g.n == small_graph.n and g.k == small_graph.k
        assert np.array_equal(g.neighbors, small_graph.neighbors)
        assert np.max(np.abs(g.node_feats - small_graph.node_feats)) < 1e-6
        assert np.max(np.abs(g.edge_feats - small_graph.edge_feats)) < 1e-6
        assert g.labels == small_graph.labels
        assert g.node_layout == small_graph.node_layout
