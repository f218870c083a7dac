"""Backbone ingestion and serialization.

Parses the ATOM records of single-model PDB text into an in-memory
backbone (one (n, 4, 3) N, CA, C, O coordinate array plus an (n, 4)
atom-present mask), applies preprocessing transforms
(rigid motion, Gaussian coordinate noise), and round-trips backbones
through a compact binary container (JSON metadata + little-endian
float32 coordinate block; see docs/formats.md).

Residues without a CA record are dropped at parse time. Residues with a
CA but missing N/C/O are kept: the absent atoms are imputed by copying
CA and marked False in the mask, and downstream featurization zeroes
anything derived from an atom the mask marks absent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .containers import checked, pack, unpack
from .errors import (
    ChainNotFound,
    EmptyBackbone,
    InvalidParameter,
    InvalidRotation,
    ParseError,
    read_text,
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
_ATOM_COLUMN = {name: i for i, name in enumerate(BACKBONE_ATOMS)}
# The backbone container lists a residue's imputed atoms by sorted name.
_SORTED_NAMES = sorted(BACKBONE_ATOMS)
_NAME_ORDER = [_ATOM_COLUMN[name] for name in _SORTED_NAMES]

_CONTAINER_MAGIC = b"IFB1"
_FLOAT32_MAX = float(np.finfo(np.float32).max)  # `abs(nan) <= _FLOAT32_MAX` is false too


@dataclass(frozen=True, eq=False)
class ProteinBackbone:
    """One chain's backbone as arrays.

    `atoms` is (n, 4, 3) float64 in N, CA, C, O order and `present` is
    (n, 4) bool, False where an atom was imputed from CA; every
    coordinate must be finite (InvalidParameter). `seq_index`
    holds the (n,) residue numbers of the source file. The arrays are
    stored read-only: a transform returns a new backbone.
    """

    atoms: np.ndarray
    present: np.ndarray
    sequence: str
    seq_index: np.ndarray
    chain_id: str

    def __post_init__(self):
        atoms, present, seq_index = (np.array(a) for a in (self.atoms, self.present, self.seq_index))
        n = atoms.shape[0] if atoms.ndim else -1
        if atoms.shape != (n, 4, 3) or atoms.dtype != np.float64:
            raise InvalidParameter(f"atoms must be (n, 4, 3) float64, got {atoms.shape} {atoms.dtype}")
        if not np.isfinite(atoms).all():
            raise InvalidParameter("atoms must be finite")
        if present.shape != (n, 4) or present.dtype != np.bool_:
            raise InvalidParameter(f"present must be ({n}, 4) bool, got {present.shape} {present.dtype}")
        if not present[:, 1].all():
            raise InvalidParameter("every residue needs a CA atom")
        if seq_index.shape != (n,) or seq_index.dtype.kind not in "iu":
            raise InvalidParameter(f"seq_index must be ({n},) int, got {seq_index.shape} {seq_index.dtype}")
        if not isinstance(self.sequence, str) or len(self.sequence) != n:
            raise InvalidParameter(f"sequence must be a str of {n} residue codes")
        if not isinstance(self.chain_id, str):
            raise InvalidParameter("chain_id must be a str")
        for name, array in (("atoms", atoms), ("present", present), ("seq_index", seq_index)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self):
        return self.atoms.shape[0]

    def coords(self) -> np.ndarray:
        """(n, 4, 3) float64 array in N, CA, C, O order (read-only)."""
        return self.atoms

    def with_coords(self, coords: np.ndarray) -> "ProteinBackbone":
        """Copy with coordinates replaced from an (n, 4, 3) array."""
        return replace(self, atoms=np.asarray(coords, dtype=np.float64))


def parse_pdb(text: str, chain: str) -> ProteinBackbone:
    """Extract one chain's backbone from PDB text.

    Fixed-width ATOM records only (PDB v3.3 columns). HETATM records,
    altlocs other than blank/'A', and insertion codes are skipped.
    The first record of an atom wins. Residues lacking a CA record are
    dropped; non-standard residue names map to the unknown code.
    Coordinates are quantized through float32, so the container
    round-trip is lossless.

    Raises ParseError for unusable text (including a coordinate that is
    not finite once stored as float32), ChainNotFound when the chain
    has no ATOM records, EmptyBackbone when filtering removes all
    residues.
    """
    if not text or not text.strip():
        raise ParseError("empty PDB text")

    saw_atom = False
    chains_seen = set()
    slot_of: dict = {}  # residue number -> slot, in file order
    codes: list = []  # one-letter code per slot
    slots, columns, xyz = [], [], []  # one entry per kept atom record

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
        column = _ATOM_COLUMN.get(line[12:16].strip())
        if column is None:
            continue
        try:
            resseq = int(line[22:26])
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed ATOM record ({exc})") from exc
        if not (abs(x) <= _FLOAT32_MAX and abs(y) <= _FLOAT32_MAX and abs(z) <= _FLOAT32_MAX):
            raise ParseError(f"line {lineno}: coordinate not finite in float32 ({x}, {y}, {z})")
        slot = slot_of.setdefault(resseq, len(slot_of))
        if slot == len(codes):
            codes.append(THREE_TO_ONE.get(line[17:20].strip(), UNKNOWN_AA))
        slots.append(slot)
        columns.append(column)
        xyz.append((x, y, z))

    if not saw_atom:
        raise ParseError("no ATOM records found")
    if chain not in chains_seen:
        raise ChainNotFound(f"chain {chain!r} not present (found {sorted(chains_seen)})")

    m = len(codes)
    cells, first = np.unique(np.array(slots, dtype=np.int64) * 4 + np.array(columns, dtype=np.int64),
                             return_index=True)
    atoms = np.zeros((m * 4, 3))
    atoms[cells] = np.array(xyz, dtype=np.float32).reshape(-1, 3)[first]
    present = np.zeros(m * 4, dtype=bool)
    present[cells] = True
    atoms, present = atoms.reshape(m, 4, 3), present.reshape(m, 4)
    keep = present[:, 1]
    if not keep.any():
        raise EmptyBackbone(f"chain {chain!r} has no residues with a CA atom")
    atoms, present = atoms[keep], present[keep]
    atoms = np.where(present[..., None], atoms, atoms[:, 1:2])  # impute absent atoms at CA
    return ProteinBackbone(atoms, present, "".join(itertools.compress(codes, keep)),
                           np.array(list(slot_of), dtype=np.int64)[keep], chain)


def apply_rigid_transform(backbone: ProteinBackbone, rotation, translation) -> ProteinBackbone:
    """Map every atom x to R x + t. Labels and the atom mask are unchanged."""
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
    if not 0 <= sigma < np.inf:
        raise InvalidParameter(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return backbone.with_coords(backbone.coords())
    stream = RandomStream(seed, "backbone-noise")
    noise = stream.gaussian((len(backbone), 4, 3))
    return backbone.with_coords(backbone.coords() + sigma * noise)


def serialize_backbone(backbone: ProteinBackbone) -> bytearray:
    """Pack a backbone into the binary container (see docs/formats.md), a
    bytearray.

    Coordinates are stored as little-endian float32; backbones produced
    by parse_pdb round-trip exactly because the parser quantizes to
    float32 on ingest.
    """
    absent = ~backbone.present[:, _NAME_ORDER]
    residues = [{"aa": aa, "seq_index": index, "imputed": list(itertools.compress(_SORTED_NAMES, row))}
                for aa, index, row in zip(backbone.sequence, backbone.seq_index.tolist(), absent.tolist())]
    header = {"format": "backbone/1", "chain_id": backbone.chain_id, "residues": residues}
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
        residues = header["residues"]
        imputed = list(map(itemgetter("imputed"), residues))
        present = np.ones((len(residues), 4), dtype=bool)
        rows = np.repeat(np.arange(len(residues)), list(map(len, imputed)))
        present[rows, np.array([_ATOM_COLUMN[a] for a in itertools.chain.from_iterable(imputed)],
                               dtype=np.intp)] = False
        seq_index = list(map(itemgetter("seq_index"), residues))
        if not set(map(type, seq_index)) <= {int}:
            raise TypeError("a seq_index is not an integer")
        return ProteinBackbone(coords.astype(np.float64), present,
                               "".join(map(itemgetter("aa"), residues)),
                               np.array(seq_index, dtype=np.int64), header["chain_id"])


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
    text = read_text(path, ParseError)
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
    if (a.chain_id != b.chain_id or a.sequence != b.sequence
            or not np.array_equal(a.seq_index, b.seq_index) or not np.array_equal(a.present, b.present)):
        return False
    if tol == 0.0:
        return bool(np.array_equal(a.coords(), b.coords()))
    return bool(np.allclose(a.coords(), b.coords(), atol=tol, rtol=0.0))
