"""Seeded benchmark inputs, made without calling into invfold.

Chains are grown from internal coordinates (ideal bond lengths and
angles, helix/strand torsions with Gaussian jitter) by the standard
three-point placement, centred, and rounded to the three decimals a PDB
file holds. `Protein.coords` are exactly the values the PDB text spells.
Lengths are fixed per workload; the seed only changes torsions, sequences
and rigid motions, so every seed costs the same.

The rigid motions are the 23 non-identity rotations of the cube: axis
permutations with sign flips only negate and reorder the printed
decimals, so the moved copy parses to exactly the moved coordinates.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
ONE_TO_THREE = {
    "A": "ALA", "R": "ARG", "N": "ASN", "D": "ASP", "C": "CYS",
    "Q": "GLN", "E": "GLU", "G": "GLY", "H": "HIS", "I": "ILE",
    "L": "LEU", "K": "LYS", "M": "MET", "F": "PHE", "P": "PRO",
    "S": "SER", "T": "THR", "W": "TRP", "Y": "TYR", "V": "VAL",
}
ATOM_NAMES = ("N", "CA", "C", "O")

# Bond lengths (Å) and angles (degrees) of an ideal backbone.
_N_CA, _CA_C, _C_N, _C_O = 1.458, 1.525, 1.329, 1.231
_N_CA_C, _CA_C_N, _C_N_CA, _CA_C_O = 111.2, 116.2, 121.7, 120.8
_HELIX = (-57.0, -47.0)
_STRAND = (-139.0, 135.0)


def _place(a, b, c, bond, angle, torsion):
    """Atom d with |cd| = bond, angle(b, c, d) = angle, torsion(a, b, c, d) = torsion."""
    bc = (c - b) / np.linalg.norm(c - b)
    n = np.cross(b - a, bc)
    n /= np.linalg.norm(n)
    m = np.cross(n, bc)
    return c + bond * (-math.cos(angle) * bc
                       + math.sin(angle) * math.cos(torsion) * m
                       + math.sin(angle) * math.sin(torsion) * n)


def make_chain(rng: np.random.Generator, n: int):
    """(sequence, coords) of one chain; coords is (n, 4, 3) in N, CA, C, O order."""
    helix = rng.random(n) < 0.6
    phi = np.radians(np.where(helix, _HELIX[0], _STRAND[0]) + rng.normal(0.0, 10.0, n))
    psi = np.radians(np.where(helix, _HELIX[1], _STRAND[1]) + rng.normal(0.0, 10.0, n))
    omega = np.radians(180.0 + rng.normal(0.0, 3.0, n))
    sequence = "".join(AMINO_ACIDS[i] for i in rng.integers(0, len(AMINO_ACIDS), n))

    a_n_ca_c, a_ca_c_n = math.radians(_N_CA_C), math.radians(_CA_C_N)
    a_c_n_ca, a_ca_c_o = math.radians(_C_N_CA), math.radians(_CA_C_O)
    xyz = np.zeros((n, 4, 3))
    xyz[0, 1] = (_N_CA, 0.0, 0.0)
    xyz[0, 2] = xyz[0, 1] + _CA_C * np.array([math.cos(math.pi - a_n_ca_c),
                                             math.sin(math.pi - a_n_ca_c), 0.0])
    for i in range(1, n):
        xyz[i, 0] = _place(xyz[i - 1, 0], xyz[i - 1, 1], xyz[i - 1, 2], _C_N, a_ca_c_n, psi[i - 1])
        xyz[i, 1] = _place(xyz[i - 1, 1], xyz[i - 1, 2], xyz[i, 0], _N_CA, a_c_n_ca, omega[i])
        xyz[i, 2] = _place(xyz[i - 1, 2], xyz[i, 0], xyz[i, 1], _CA_C, a_n_ca_c, phi[i])
    for i in range(n):
        xyz[i, 3] = _place(xyz[i, 0], xyz[i, 1], xyz[i, 2], _C_O, a_ca_c_o, psi[i] + math.pi)
    xyz -= xyz.reshape(-1, 3).mean(axis=0)
    return sequence, np.char.mod("%.3f", xyz).astype(np.float64)


def _cube_rotations():
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            r = np.zeros((3, 3))
            r[range(3), perm] = signs
            if round(np.linalg.det(r)) == 1 and not np.array_equal(r, np.eye(3)):
                mats.append(r)
    return mats


ROTATIONS = _cube_rotations()


def rigid_motion(rng: np.random.Generator) -> np.ndarray:
    """A seeded non-identity rotation of the cube."""
    return ROTATIONS[int(rng.integers(0, len(ROTATIONS)))]


def render_pdb(sequence: str, coords: np.ndarray, chain: str = "A") -> str:
    """Fixed-width PDB v3.3 ATOM records, one model, one chain."""
    if coords.min() <= -1000.0 or coords.max() >= 10000.0:
        raise ValueError("coordinates do not fit the PDB %8.3f columns")
    lines = []
    serial = 1
    for i, aa in enumerate(sequence):
        for a, name in enumerate(ATOM_NAMES):
            x, y, z = coords[i, a]
            lines.append(f"ATOM  {serial:5d}  {name:<3s} {ONE_TO_THREE[aa]} {chain}{i + 1:4d}    "
                         f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           {name[0]}")
            serial += 1
    lines.append("END")
    return "\n".join(lines) + "\n"


class Protein:
    """One generated chain and its PDB text."""

    def __init__(self, name: str, sequence: str, coords: np.ndarray):
        self.name = name
        self.sequence = sequence
        self.coords = coords
        self.text = render_pdb(sequence, coords)

    @property
    def n(self) -> int:
        return len(self.sequence)


def proteins(seed: int, tag: str, lengths) -> list:
    """One chain per length, from a stream keyed by (seed, tag)."""
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    out = []
    for i, n in enumerate(lengths):
        sequence, coords = make_chain(rng, n)
        out.append(Protein(f"{tag}{i}_n{n}", sequence, coords))
    return out
