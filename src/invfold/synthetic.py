"""Synthetic backbones built from internal coordinates.

Chains grow atom by atom from bond lengths, bond angles, and the
supplied (phi, psi, omega) torsions, using the standard three-point
extension construction. Used for test fixtures (ideal helices, random
helix and strand mixes) and for the toy training corpus; no PDB input
required.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RandomStream
from .structure_io import AMINO_ACIDS, ProteinBackbone

# Idealized backbone geometry (angstroms, degrees).
BOND_N_CA = 1.458
BOND_CA_C = 1.525
BOND_C_N = 1.329
BOND_C_O = 1.231
ANGLE_N_CA_C = 111.2
ANGLE_CA_C_N = 116.2
ANGLE_C_N_CA = 121.7
ANGLE_CA_C_O = 120.8

HELIX_PHI = math.radians(-57.0)
HELIX_PSI = math.radians(-47.0)
STRAND_PHI = math.radians(-139.0)
STRAND_PSI = math.radians(135.0)


def place_atom(a, b, c, bond_length, bond_angle, torsion_angle) -> np.ndarray:
    """Position d so that |cd| = bond_length, angle(b,c,d) = bond_angle,
    and torsion(a,b,c,d) = torsion_angle."""
    bc = c - b
    bc /= np.linalg.norm(bc)
    n = np.cross(b - a, bc)
    n /= np.linalg.norm(n)
    m = np.cross(n, bc)
    # signs chosen so the standard signed-torsion measurement of
    # (a, b, c, d) returns exactly torsion_angle
    d2 = np.array([
        -bond_length * math.cos(bond_angle),
        bond_length * math.sin(bond_angle) * math.cos(torsion_angle),
        bond_length * math.sin(bond_angle) * math.sin(torsion_angle),
    ])
    return c + d2[0] * bc + d2[1] * m + d2[2] * n


def build_chain(phis, psis, omegas, sequence=None, chain_id="A") -> ProteinBackbone:
    """Backbone from per-residue torsions.

    phi[0] and omega[0] are ignored (undefined at the N terminus); the
    final psi only orients the terminal O. All angles in radians.
    """
    n_res = len(psis)
    assert len(phis) == n_res and len(omegas) == n_res
    if sequence is None:
        sequence = "A" * n_res
    ang_n_ca_c = math.radians(ANGLE_N_CA_C)
    ang_ca_c_n = math.radians(ANGLE_CA_C_N)
    ang_c_n_ca = math.radians(ANGLE_C_N_CA)
    ang_ca_c_o = math.radians(ANGLE_CA_C_O)

    xyz = np.zeros((n_res, 4, 3))
    xyz[:1, 1] = (BOND_N_CA, 0.0, 0.0)  # slices, so an empty chain stays empty
    xyz[:1, 2] = xyz[:1, 1] + BOND_CA_C * np.array([math.cos(math.pi - ang_n_ca_c),
                                                   math.sin(math.pi - ang_n_ca_c), 0.0])
    for i in range(1, n_res):
        xyz[i, 0] = place_atom(xyz[i - 1, 0], xyz[i - 1, 1], xyz[i - 1, 2],
                               BOND_C_N, ang_ca_c_n, psis[i - 1])
        xyz[i, 1] = place_atom(xyz[i - 1, 1], xyz[i - 1, 2], xyz[i, 0],
                               BOND_N_CA, ang_c_n_ca, omegas[i])
        xyz[i, 2] = place_atom(xyz[i - 1, 2], xyz[i, 0], xyz[i, 1],
                               BOND_CA_C, ang_n_ca_c, phis[i])
    for i in range(n_res):
        xyz[i, 3] = place_atom(xyz[i, 0], xyz[i, 1], xyz[i, 2], BOND_C_O, ang_ca_c_o, psis[i] + math.pi)
    return ProteinBackbone(xyz, np.ones((n_res, 4), dtype=bool), sequence,
                           np.arange(1, n_res + 1), chain_id)


def ideal_helix(n_res, sequence=None) -> ProteinBackbone:
    return build_chain([HELIX_PHI] * n_res, [HELIX_PSI] * n_res, [math.pi] * n_res, sequence)


def random_backbone(seed, n_res, chain_id="A", name="backbone") -> ProteinBackbone:
    """Random but physically plausible chain: torsions jitter around a
    mix of helix and strand values, random sequence over the 20 codes."""
    stream = RandomStream(seed, f"synthetic/{name}")
    picks = stream.child("basin").uniform((n_res,))
    jitter = stream.child("jitter").gaussian((n_res, 2)) * math.radians(10.0)
    phis = np.where(picks < 0.6, HELIX_PHI, STRAND_PHI) + jitter[:, 0]
    psis = np.where(picks < 0.6, HELIX_PSI, STRAND_PSI) + jitter[:, 1]
    omegas = math.pi + stream.child("omega").gaussian((n_res,)) * math.radians(3.0)
    seq_ids = stream.child("seq").integers(0, len(AMINO_ACIDS), (n_res,))
    sequence = "".join(AMINO_ACIDS[int(i)] for i in seq_ids)
    return build_chain(phis.tolist(), psis.tolist(), omegas.tolist(), sequence, chain_id)


def toy_corpus(seed, lengths=(30, 31, 33, 35, 37)) -> list:
    """Small memorization corpus of random backbones."""
    return [random_backbone(seed, n, chain_id="A", name=f"toy{i}")
            for i, n in enumerate(lengths)]


def random_rotation(stream: RandomStream) -> np.ndarray:
    """Uniform random rotation via quaternion normalization."""
    q = stream.gaussian((4,))
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
