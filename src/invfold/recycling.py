"""Prior fusion, decoding, and cascaded-recycling inference.

The model consumes three per-residue streams: trainable geometric
embeddings, a frozen structure prior, and a frozen sequence prior.
Priors come from pluggable providers; the built-in stub providers
derive deterministic pseudo-embeddings from seeded hash rows (the
sequence stub sums a token row and a position row, so a residue type
looks alike wherever it occurs), which keeps the whole pipeline
runnable without any pretrained model, and the file providers read
embeddings exported out-of-band (docs/formats.md). A provider is any
object with a `dim` and `embed_structure(graph)` or
`embed_sequence(tokens)`, which returns (n, dim) rows.

Inference recycles: stage 1 runs with an all-mask sequence prior; each
later stage re-embeds the previous stage's predicted sequence and runs
the same network again on the re-fused input. Geometry features and the
structure prior are computed once. Stage outputs depend only on earlier
stages, so the stage-t distribution is identical for any total T >= t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import functools
import hashlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .containers import pack, unpack
from .encoder import LayerState, StackParams, encoder_stack
from .errors import InvalidParameter, ShapeError, check_count, check_number
from .geometry import ResidueGraph
from .nn import Linear, MlpBlock, Module
from .rng import RandomStream
from .structure_io import AMINO_ACIDS

MASK_TOKEN = "?"


@dataclass
class SequenceDistribution:
    """Per-residue probabilities over the 20 canonical classes."""

    probs: np.ndarray  # (n, 20)
    stage: int

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] != len(AMINO_ACIDS):
            raise ShapeError(f"expected (n, {len(AMINO_ACIDS)}) probabilities, got {self.probs.shape}")
        if np.any(self.probs < 0):
            raise ShapeError("negative probability entry")
        if np.max(np.abs(self.probs.sum(axis=1) - 1.0)) > 1e-6:
            raise ShapeError("probability rows must sum to 1 within 1e-6")

    def argmax_tokens(self) -> list:
        # np.argmax resolves ties to the lowest class index.
        return [AMINO_ACIDS[c] for c in np.argmax(self.probs, axis=1)]


@dataclass
class PredictedSequence:
    tokens: list
    stage: int

    def __str__(self):
        return "".join(self.tokens)


@functools.lru_cache(maxsize=65536)
def _hash_row(tag: str, seed: int, dim: int, key: str) -> bytes:
    digest = hashlib.blake2b(f"{tag}:{seed}:{key}".encode(), digest_size=16).digest()
    bits = np.random.Philox(key=np.frombuffer(digest, dtype=np.uint64))
    raw = np.asarray(bits.random_raw(dim), dtype=np.uint64)
    row = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0
    return row.tobytes()


def _hash_rows(tag: str, seed: int, dim: int, keys) -> np.ndarray:
    """Deterministic pseudo-embedding rows in [-1, 1); row identity
    depends only on (tag, seed, key), never on neighbors in the batch."""
    rows = np.empty((len(keys), dim))
    for i, key in enumerate(keys):
        rows[i] = np.frombuffer(_hash_row(tag, seed, dim, str(key)), dtype=np.float64)
    return rows


class StubStructureProvider:
    """Position-keyed pseudo-embeddings; invariant to rigid motion by
    construction and independent of the native sequence."""

    def __init__(self, dim=512, seed=0):
        self.dim = dim
        self.seed = seed

    def embed_structure(self, graph: ResidueGraph) -> np.ndarray:
        return _hash_rows("stub-structure", self.seed, self.dim, range(graph.n))


class StubSequenceProvider:
    """(token row + position row) / sqrt(2): a residue type looks alike
    wherever it occurs, as in a real sequence model; accepts mask tokens."""

    def __init__(self, dim=320, seed=0):
        self.dim = dim
        self.seed = seed

    def embed_sequence(self, tokens) -> np.ndarray:
        token_rows = _hash_rows("stub-sequence", self.seed, self.dim,
                                [f"token/{tok}" for tok in tokens])
        pos_rows = _hash_rows("stub-sequence", self.seed, self.dim,
                              [f"pos/{i}" for i in range(len(tokens))])
        return (token_rows + pos_rows) / np.sqrt(2.0)


class OracleSequenceProvider:
    """Boundary-monotone construction for recycling diagnostics.

    Mask queries embed as masks; any candidate-sequence query returns
    the embedding of the reference sequence, so from stage 2 onward the
    model sees the best possible sequence prior.
    """

    def __init__(self, reference_tokens, dim=320, seed=0):
        self.reference = list(reference_tokens)
        self.inner = StubSequenceProvider(dim=dim, seed=seed)
        self.dim = dim

    def embed_sequence(self, tokens) -> np.ndarray:
        if all(t == MASK_TOKEN for t in tokens):
            return self.inner.embed_sequence(tokens)
        if len(tokens) != len(self.reference):
            raise ShapeError("query length does not match the reference sequence")
        return self.inner.embed_sequence(self.reference)


_EMB_MAGIC = b"IFE1"


def write_embeddings(path, rows: np.ndarray, tag: str, source_sequence: str = "") -> None:
    """Embedding file: JSON header (n, dim, tag, sequence hash) + float32 block."""
    rows = np.asarray(rows, dtype=np.float64)
    header = {
        "format": "embeddings/1",
        "n": int(rows.shape[0]),
        "dim": int(rows.shape[1]),
        "provider": tag,
        "source_sequence_sha256": hashlib.sha256(source_sequence.encode()).hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(pack(_EMB_MAGIC, header, [("<f4", rows)]))


def read_embeddings(path):
    """Returns ((n, dim) float64 rows, header); ShapeError on a malformed file."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, (rows,) = unpack(data, _EMB_MAGIC, lambda h: [("<f4", (h["n"], h["dim"]))],
                             ShapeError, "embedding file")
    return rows.astype(np.float64), header


class FileStructureProvider:
    def __init__(self, path):
        self.rows, self.header = read_embeddings(path)
        self.dim = self.rows.shape[1]

    def embed_structure(self, graph: ResidueGraph) -> np.ndarray:
        if self.rows.shape[0] != graph.n:
            raise ShapeError(f"embedding rows {self.rows.shape[0]} != residues {graph.n}")
        return self.rows.copy()


class FileSequenceProvider:
    """A static sequence-prior export; returns its stored rows for any
    query of the right length (the file records which sequence produced
    them)."""

    def __init__(self, path):
        self.rows, self.header = read_embeddings(path)
        self.dim = self.rows.shape[1]

    def embed_sequence(self, tokens) -> np.ndarray:
        if self.rows.shape[0] != len(tokens):
            raise ShapeError(f"embedding rows {self.rows.shape[0]} != query length {len(tokens)}")
        return self.rows.copy()


def fuse(h_geom, e_struct, e_seq):
    """Row-wise concatenation (geometry, structure prior, sequence prior)."""
    parts = [h_geom, e_struct, e_seq]
    lengths = {p.shape[0] for p in parts}
    if len(lengths) != 1:
        raise ShapeError(f"row counts differ: {[p.shape[0] for p in parts]}")
    if any(isinstance(p, Tensor) for p in parts):
        return ad.concat([ad.as_tensor(p) for p in parts], axis=1)
    return np.concatenate(parts, axis=1)


@dataclass
class ModelConfig:
    """Architecture knobs; defaults follow the shipped config."""

    node_dim: int
    edge_dim: int
    hidden_dim: int = 128
    layers: int = 5
    heads: int = 4
    dropout: float = 0.1
    struct_dim: int = 512
    seq_dim: int = 320
    recycles: int = 3

    def __post_init__(self):
        for name, low in (("node_dim", 0), ("edge_dim", 1), ("hidden_dim", 1), ("layers", 0),
                          ("heads", 1), ("struct_dim", 0), ("seq_dim", 0), ("recycles", 1)):
            check_count(self, name, low)
        check_number(self, "dropout", 0, 1, "[)")
        if self.hidden_dim % self.heads != 0:
            raise InvalidParameter("hidden_dim must be divisible by heads")


class _StageParams(Module):
    """The weights every stage shares: fusion projection, encoder stack,
    decoder."""

    names = {"fuse_proj": "fuse"}

    def __init__(self, cfg: ModelConfig, stream: RandomStream):
        d = cfg.hidden_dim
        self.fuse_proj = Linear(d + cfg.struct_dim + cfg.seq_dim, d, stream.child("fuse"))
        self.stack = StackParams(d, d, cfg.heads, cfg.layers, stream.child("stack"), cfg.dropout)
        self.tuning = MlpBlock((d, d, d), stream.child("tuning"), cfg.dropout)
        self.head = Linear(d, len(AMINO_ACIDS), stream.child("head"))


class InverseFoldModel(Module):
    """Geometric encoder + prior fusion + recycling decoder."""

    names = {"stage": "stage0"}

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        stream = RandomStream(seed, "model-init")
        d = cfg.hidden_dim
        self.node_embed = Linear(cfg.node_dim, d, stream.child("node_embed"))
        self.edge_embed = Linear(cfg.edge_dim, d, stream.child("edge_embed"))
        # one network for every recycling stage
        self.stage = _StageParams(cfg, stream.child("stage0"))

    def embed_graph(self, graph: ResidueGraph):
        """Project raw invariant features into the hidden width (once)."""
        h_geom = self.node_embed(Tensor(graph.node_feats))
        e_geom = self.edge_embed(Tensor(graph.edge_feats))
        return h_geom, e_geom

    def decode(self, h: Tensor, stage_params: _StageParams, training=False, stream=None) -> Tensor:
        """Tuning MLP + linear head + softmax over the 20 classes."""
        hidden = stage_params.tuning(h, training=training, stream=stream)
        return ad.softmax(stage_params.head(hidden), axis=1)

    def forward_stage(self, graph, h_geom, e_geom, e_struct, e_seq, t,
                      training=False, stream=None, use_bridge=True, symmetric_edges=False,
                      collect_states=False):
        """One full pass: fuse priors, run the stack, decode probabilities."""
        sp = self.stage
        child = stream.child(f"stage{t}") if stream is not None else None
        fused = fuse(h_geom, Tensor(e_struct), Tensor(e_seq))
        h0 = sp.fuse_proj(fused)
        state = LayerState(h0, e_geom, graph.neighbors, layer_index=0)
        result = encoder_stack(state, sp.stack, training=training, stream=child,
                               use_bridge=use_bridge, symmetric_edges=symmetric_edges,
                               collect_states=collect_states)
        if collect_states:
            state, alphas, trace = result
        else:
            state, alphas = result
            trace = None
        probs = self.decode(state.h, sp, training=training,
                            stream=child.child("decode") if child else None)
        return probs, alphas, trace

    def run_stages(self, graph, structure_provider, sequence_provider, recycles,
                   training=False, stream=None, use_bridge=True, symmetric_edges=False):
        """Run the recycling loop; returns per-stage prob tensors and alphas.

        Stage 1 embeds an all-mask sequence; stage t > 1 embeds the
        argmax decode of stage t-1. The geometric embedding and the
        structure prior are computed once and reused.
        """
        if recycles < 1:
            raise InvalidParameter(f"recycles must be >= 1, got {recycles}")
        h_geom, e_geom = self.embed_graph(graph)
        e_struct = structure_provider.embed_structure(graph)
        if e_struct.shape != (graph.n, self.cfg.struct_dim):
            raise ShapeError(f"structure prior shape {e_struct.shape} != {(graph.n, self.cfg.struct_dim)}")
        tokens = [MASK_TOKEN] * graph.n
        prob_tensors, all_alphas, stage_tokens = [], [], []
        for t in range(recycles):
            e_seq = sequence_provider.embed_sequence(tokens)
            if e_seq.shape != (graph.n, self.cfg.seq_dim):
                raise ShapeError(f"sequence prior shape {e_seq.shape} != {(graph.n, self.cfg.seq_dim)}")
            probs, alphas, _ = self.forward_stage(
                graph, h_geom, e_geom, e_struct, e_seq, t,
                training=training, stream=stream,
                use_bridge=use_bridge, symmetric_edges=symmetric_edges)
            prob_tensors.append(probs)
            all_alphas.append(alphas)
            tokens = SequenceDistribution(probs.data, stage=t + 1).argmax_tokens()
            stage_tokens.append(tokens)
        return prob_tensors, all_alphas, stage_tokens


@dataclass
class RecycleResult:
    distributions: list
    predicted: PredictedSequence
    stage_tokens: list = field(default_factory=list)
    stage_alphas: list = field(default_factory=list)


@ad.no_grad()
def recycle_infer(model: InverseFoldModel, graph: ResidueGraph, structure_provider,
                  sequence_provider, recycles: int) -> RecycleResult:
    """Deterministic cascaded inference; returns every stage's distribution.

    Runs under `no_grad`, so no stage keeps a tape and memory stays
    linear in the number of edges."""
    prob_tensors, alphas, stage_tokens = model.run_stages(
        graph, structure_provider, sequence_provider, recycles, training=False)
    dists = [SequenceDistribution(p.data.copy(), stage=t + 1) for t, p in enumerate(prob_tensors)]
    predicted = PredictedSequence(stage_tokens[-1], stage=recycles)
    return RecycleResult(dists, predicted, stage_tokens, alphas)
