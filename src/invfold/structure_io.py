"""Backbone ingestion and serialization.

Parses the ATOM records of single-model PDB text into an in-memory
backbone (N, CA, C, O per residue), applies preprocessing transforms
(rigid motion, Gaussian coordinate noise), and round-trips backbones
through a compact binary container (JSON metadata + little-endian
float32 coordinate block; see docs/formats.md).

Residues without a CA record are dropped at parse time. Residues with a
CA but missing N/C/O are kept: the absent atoms are imputed by copying
CA and flagged, and downstream featurization zeroes anything derived
from a flagged atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .containers import checked, pack, unpack
from .errors import (
    ChainNotFound,
    EmptyBackbone,
    InvalidParameter,
    InvalidRotation,
    ParseError,
)
from .rng import RandomStream

# Canonical one-letter codes, alphabetical; index = class id in all
# sequence distributions. 'X' marks non-standard residues (kept in the
# graph, masked from the loss).
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
UNKNOWN_AA = "X"
AA_INDEX = {aa: i for i, aa in enumerate(AMINO_ACIDS)}

THREE_TO_ONE = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}

BACKBONE_ATOMS = ("N", "CA", "C", "O")

_CONTAINER_MAGIC = b"IFB1"
_FLOAT32_MAX = float(np.finfo(np.float32).max)  # `abs(nan) <= _FLOAT32_MAX` is false too


@dataclass
class Residue:
    """One residue's backbone atoms, in angstroms."""

    aa: str
    n: np.ndarray
    ca: np.ndarray
    c: np.ndarray
    o: np.ndarray
    seq_index: int
    imputed: frozenset = field(default_factory=frozenset)

    def coords(self) -> np.ndarray:
        """(4, 3) array in N, CA, C, O order."""
        return np.stack([self.n, self.ca, self.c, self.o])


@dataclass
class ProteinBackbone:
    """Ordered residues of one chain."""

    residues: list
    chain_id: str

    def __len__(self):
        return len(self.residues)

    @property
    def sequence(self) -> str:
        return "".join(r.aa for r in self.residues)

    def coords(self) -> np.ndarray:
        """(n, 4, 3) float64 array in N, CA, C, O order."""
        if not self.residues:
            return np.zeros((0, 4, 3))
        return np.stack([r.coords() for r in self.residues])

    def ca_coords(self) -> np.ndarray:
        return np.stack([r.ca for r in self.residues])

    def with_coords(self, coords: np.ndarray) -> "ProteinBackbone":
        """Copy with coordinates replaced from an (n, 4, 3) array."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (len(self), 4, 3):
            raise InvalidParameter(f"expected coords of shape {(len(self), 4, 3)}, got {coords.shape}")
        residues = [
            replace(r, n=coords[i, 0].copy(), ca=coords[i, 1].copy(),
                    c=coords[i, 2].copy(), o=coords[i, 3].copy())
            for i, r in enumerate(self.residues)
        ]
        return ProteinBackbone(residues, self.chain_id)


def _vec(x: float, y: float, z: float) -> np.ndarray:
    # Quantize through float32 so the container round-trip is lossless.
    return np.array([x, y, z], dtype=np.float32).astype(np.float64)


def parse_pdb(text: str, chain: str) -> ProteinBackbone:
    """Extract one chain's backbone from PDB text.

    Fixed-width ATOM records only (PDB v3.3 columns). HETATM records,
    altlocs other than blank/'A', and insertion codes are skipped.
    Residues lacking a CA record are dropped; non-standard residue
    names map to the unknown code.

    Raises ParseError for unusable text (including a coordinate that is
    not finite once stored as float32), ChainNotFound when the chain
    has no ATOM records, EmptyBackbone when filtering removes all
    residues.
    """
    if not text or not text.strip():
        raise ParseError("empty PDB text")

    saw_atom = False
    chains_seen = set()
    # residue key -> {atom name -> xyz}; file order preserved
    atoms: dict = {}
    order: list = []
    names: dict = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        saw_atom = True
        if len(line) < 54:
            raise ParseError(f"line {lineno}: truncated ATOM record")
        altloc = line[16]
        if altloc not in (" ", "A"):
            continue
        if line[26] != " ":  # insertion code
            continue
        chain_id = line[21]
        chains_seen.add(chain_id)
        if chain_id != chain:
            continue
        atom_name = line[12:16].strip()
        if atom_name not in BACKBONE_ATOMS:
            continue
        resname = line[17:20].strip()
        try:
            resseq = int(line[22:26])
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed ATOM record ({exc})") from exc
        if not (abs(x) <= _FLOAT32_MAX and abs(y) <= _FLOAT32_MAX and abs(z) <= _FLOAT32_MAX):
            raise ParseError(f"line {lineno}: coordinate not finite in float32 ({x}, {y}, {z})")
        if resseq not in atoms:
            atoms[resseq] = {}
            order.append(resseq)
            names[resseq] = resname
        atoms[resseq].setdefault(atom_name, _vec(x, y, z))

    if not saw_atom:
        raise ParseError("no ATOM records found")
    if chain not in chains_seen:
        raise ChainNotFound(f"chain {chain!r} not present (found {sorted(chains_seen)})")

    residues = []
    for resseq in order:
        rec = atoms[resseq]
        if "CA" not in rec:
            continue
        ca = rec["CA"]
        imputed = frozenset(a for a in ("N", "C", "O") if a not in rec)
        residues.append(Residue(
            aa=THREE_TO_ONE.get(names[resseq], UNKNOWN_AA),
            n=rec.get("N", ca).copy(),
            ca=ca.copy(),
            c=rec.get("C", ca).copy(),
            o=rec.get("O", ca).copy(),
            seq_index=resseq,
            imputed=imputed,
        ))

    if not residues:
        raise EmptyBackbone(f"chain {chain!r} has no residues with a CA atom")
    return ProteinBackbone(residues, chain)


def apply_rigid_transform(backbone: ProteinBackbone, rotation, translation) -> ProteinBackbone:
    """Map every atom x to R x + t. Labels and flags are unchanged."""
    r = np.asarray(rotation, dtype=np.float64)
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    if r.shape != (3, 3):
        raise InvalidRotation(f"rotation must be 3x3, got {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-10:
        raise InvalidRotation("rotation is not orthonormal within 1e-10")
    if abs(np.linalg.det(r) - 1.0) > 1e-10:
        raise InvalidRotation("rotation determinant is not +1")
    coords = backbone.coords() @ r.T + t
    return backbone.with_coords(coords)


def inject_backbone_noise(backbone: ProteinBackbone, sigma: float, seed: int) -> ProteinBackbone:
    """Perturb each coordinate component by independent N(0, sigma^2).

    Deterministic for a given (backbone length, sigma, seed); draws are
    consumed in residue order from a dedicated stream.
    """
    if sigma < 0:
        raise InvalidParameter(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return backbone.with_coords(backbone.coords())
    stream = RandomStream(seed, "backbone-noise")
    noise = stream.gaussian((len(backbone), 4, 3))
    return backbone.with_coords(backbone.coords() + sigma * noise)


def serialize_backbone(backbone: ProteinBackbone) -> bytes:
    """Pack a backbone into the binary container (see docs/formats.md).

    Coordinates are stored as little-endian float32; backbones produced
    by parse_pdb round-trip exactly because the parser quantizes to
    float32 on ingest.
    """
    header = {
        "format": "backbone/1",
        "chain_id": backbone.chain_id,
        "residues": [
            {"aa": r.aa, "seq_index": r.seq_index, "imputed": sorted(r.imputed)}
            for r in backbone.residues
        ],
    }
    count = len(backbone) * 4 * 3
    return pack(_CONTAINER_MAGIC, header, [("<u8", [count]), ("<f4", backbone.coords())])


def deserialize_backbone(data: bytes) -> ProteinBackbone:
    """Inverse of serialize_backbone; ParseError on a malformed container."""
    header, (count, coords) = unpack(
        data, _CONTAINER_MAGIC, lambda h: [("<u8", (1,)), ("<f4", (len(h["residues"]), 4, 3))],
        ParseError, "backbone container")
    if count[0] != coords.size:
        raise ParseError(f"backbone container: count {count[0]} != {coords.size} coordinates")
    with checked(ParseError, "backbone container header"):
        residues = [
            Residue(meta["aa"], *coords[i].astype(np.float64), seq_index=meta["seq_index"],
                    imputed=frozenset(meta["imputed"]))
            for i, meta in enumerate(header["residues"])
        ]
        return ProteinBackbone(residues, header["chain_id"])


def write_backbone(backbone: ProteinBackbone, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_backbone(backbone))


def read_backbone(path) -> ProteinBackbone:
    with open(path, "rb") as fh:
        return deserialize_backbone(fh.read())


def write_fasta(path, header: str, sequence: str) -> None:
    with open(path, "w") as fh:
        fh.write(f">{header}\n")
        for start in range(0, len(sequence), 60):
            fh.write(sequence[start:start + 60] + "\n")


def read_fasta_file(path) -> list:
    """[(header, sequence)] pairs; raises ParseError on non-FASTA text."""
    with open(path) as fh:
        text = fh.read()
    entries = []
    header = None
    chunks: list = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                entries.append((header, "".join(chunks)))
            header = line[1:]
            chunks = []
        else:
            if header is None:
                raise ParseError("FASTA content before any header line")
            chunks.append(line)
    if header is not None:
        entries.append((header, "".join(chunks)))
    if not entries:
        raise ParseError("no FASTA entries found")
    return entries


def backbones_equal(a: ProteinBackbone, b: ProteinBackbone, tol: float = 0.0) -> bool:
    """Structural equality; tol=0 means bit-identical coordinates."""
    if a.chain_id != b.chain_id or len(a) != len(b):
        return False
    for ra, rb in zip(a.residues, b.residues):
        if (ra.aa, ra.seq_index, ra.imputed) != (rb.aa, rb.seq_index, rb.imputed):
            return False
    if tol == 0.0:
        return bool(np.array_equal(a.coords(), b.coords()))
    return bool(np.allclose(a.coords(), b.coords(), atol=tol, rtol=0.0))
