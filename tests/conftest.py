"""Shared fixtures: hand-built PDB text and small model setups."""

import numpy as np
import pytest

from invfold.geometry import FeatureConfig, build_knn_graph
from invfold.recycling import (
    InverseFoldModel,
    ModelConfig,
    StubSequenceProvider,
    StubStructureProvider,
)
from invfold.synthetic import random_backbone


def atom_line(serial, name, resname, chain, resseq, x, y, z, altloc=" ", icode=" ",
              record="ATOM"):
    """One fixed-width PDB v3.3 ATOM record."""
    name_field = f" {name:<3s}" if len(name) < 4 else name
    return (f"{record:<6s}{serial:5d} {name_field}{altloc}{resname:>3s} {chain}"
            f"{resseq:4d}{icode}   {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00"
            f"          {name[0]:>2s}")


def residue_lines(resname, chain, resseq, base, start_serial=1, skip=()):
    """Four backbone ATOM records around a base coordinate."""
    offsets = {"N": (0.0, 0.0, 0.0), "CA": (1.46, 0.0, 0.0),
               "C": (2.0, 1.42, 0.0), "O": (1.4, 2.44, 0.0)}
    lines = []
    serial = start_serial
    for name, off in offsets.items():
        if name in skip:
            continue
        lines.append(atom_line(serial, name, resname, chain, resseq,
                               base[0] + off[0], base[1] + off[1], base[2] + off[2]))
        serial += 1
    return lines


@pytest.fixture
def ala_gly_pdb():
    """Two complete residues (ALA, GLY) on chain A plus a chain-B decoy."""
    lines = []
    lines += residue_lines("ALA", "A", 1, (0.0, 0.0, 0.0), start_serial=1)
    lines += residue_lines("GLY", "A", 2, (3.8, 0.0, 0.0), start_serial=5)
    lines += residue_lines("LEU", "B", 1, (0.0, 8.0, 0.0), start_serial=9)
    return "\n".join(lines) + "\nEND\n"


@pytest.fixture
def missing_ca_pdb():
    """The second residue lacks a CA record and must be dropped."""
    lines = []
    lines += residue_lines("ALA", "A", 1, (0.0, 0.0, 0.0), start_serial=1)
    lines += residue_lines("GLY", "A", 2, (3.8, 0.0, 0.0), start_serial=5, skip=("CA",))
    return "\n".join(lines) + "\n"


@pytest.fixture
def small_backbone():
    return random_backbone(7, 12)


@pytest.fixture
def small_feature_config():
    return FeatureConfig(k=6, rbf_count=8)


@pytest.fixture
def small_graph(small_backbone, small_feature_config):
    return build_knn_graph(small_backbone, small_feature_config)


@pytest.fixture
def small_model(small_feature_config):
    cfg = ModelConfig(node_dim=small_feature_config.node_dim,
                      edge_dim=small_feature_config.edge_dim,
                      hidden_dim=16, layers=2, heads=2,
                      struct_dim=12, seq_dim=10, dropout=0.0)
    return InverseFoldModel(cfg, seed=3)


@pytest.fixture
def small_providers(small_model):
    return (StubStructureProvider(dim=small_model.cfg.struct_dim, seed=1),
            StubSequenceProvider(dim=small_model.cfg.seq_dim, seed=1))


def rotation_zyx(a, b, c):
    """Rotation from three Euler angles; helper for invariance tests."""
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rx = np.array([[1, 0, 0], [0, cc, -sc], [0, sc, cc]])
    return rz @ ry @ rx
