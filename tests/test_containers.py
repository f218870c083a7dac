"""The shared container codec: golden bytes, exact-length checks and fuzzing.

All five binary formats (docs/formats.md) go through `containers.pack`
and `containers.unpack`. The golden hashes were taken from containers
written by the per-module writers that preceded the shared codec, from
the same seeded inputs, so they pin the on-disk bytes.
"""

import dataclasses
import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invfold import containers
from invfold.encoder import read_attention_dump, write_attention_dump
from invfold.errors import CheckpointMismatch, InvalidParameter, InvfoldError, ParseError, ShapeError
from invfold.geometry import FeatureConfig, build_knn_graph, deserialize_graph, serialize_graph
from invfold.nn import load_checkpoint, save_checkpoint
from invfold.recycling import InverseFoldModel, ModelConfig, read_embeddings, write_embeddings
from invfold.rng import RandomStream
from invfold.structure_io import deserialize_backbone, serialize_backbone
from invfold.synthetic import random_backbone

FEATURES = FeatureConfig(k=6, rbf_count=4)


def _backbone():
    backbone = random_backbone(7, 11)
    present = backbone.present.copy()
    present[3, [0, 3]] = False  # N and O marked imputed, coordinates left as they are
    return dataclasses.replace(backbone, present=present)


def _via_file(write):
    """Run a path-based writer and return the bytes it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "container"
        write(path)
        return path.read_bytes()


def golden_containers() -> dict:
    """One container per format, from seeded inputs that use no prior."""
    graph = build_knn_graph(_backbone(), FEATURES)
    model = InverseFoldModel(ModelConfig(node_dim=FEATURES.node_dim, edge_dim=FEATURES.edge_dim,
                                         hidden_dim=8, layers=1, heads=2, struct_dim=4,
                                         seq_dim=4, recycles=2), seed=3)
    rows = RandomStream(5, "golden-embeddings").gaussian((6, 5))
    alphas = [RandomStream(6, f"golden-alpha{i}").uniform((11, 6)) for i in range(2)]
    neighbors = RandomStream(6, "golden-neighbors").integers(0, 11, (11, 6)).astype(np.int32)
    return {
        "IFB1": serialize_backbone(_backbone()),
        "IFG1": serialize_graph(graph),
        "IFE1": _via_file(lambda p: write_embeddings(p, rows, "golden", "ACDEFG")),
        "IFC1": _via_file(lambda p: save_checkpoint(model.parameters(), p,
                                                    meta={"seed": 3, "note": "golden"})),
        "IFA1": _via_file(lambda p: write_attention_dump(p, alphas, neighbors)),
    }


GOLDEN_SHA256 = {
    "IFB1": "f681dfb8cb0698da1624ddde6ba3c91e4168d879bd94e024db25bd5a450bf23a",
    "IFG1": "2f648c39e4c8e8a3cd1d6cc4d59a5dfd64e3c7ab268f093b929e7e986916a367",
    "IFE1": "45183af7fd7d69da4150b1e3faebfed5e30668707158d32b88cdc4ebe0e16a0a",
    "IFC1": "2089e953b79a27f9661a5f2c8c108d18eff718dd5abaf99872d7adbd464f61cd",
    "IFA1": "44b41474e6958032a88f9d2a960743e2b1ac24c8347e86ab7997674955471075",
}

GOLDEN = golden_containers()


def _read_via_file(reader):
    """A path-based reader as a function of the file's bytes."""
    def read(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "container"
            path.write_bytes(data)
            return reader(path)
    return read


# magic -> (the format's error class, a reader taking bytes)
READERS = {
    "IFB1": (ParseError, deserialize_backbone),
    "IFG1": (ParseError, deserialize_graph),
    "IFE1": (ShapeError, _read_via_file(read_embeddings)),
    "IFC1": (CheckpointMismatch, _read_via_file(load_checkpoint)),
    "IFA1": (ParseError, _read_via_file(read_attention_dump)),
}
MAGICS = sorted(READERS)
FUZZ = settings(max_examples=60, deadline=None)


def _split(data):
    """(header dict, body bytes) of a container."""
    (hlen,) = struct.unpack_from("<I", data, 4)
    return json.loads(data[8:8 + hlen]), data[8 + hlen:]


def _repack(magic, header, body):
    head = json.dumps(header, separators=(",", ":")).encode()
    return magic.encode() + struct.pack("<I", len(head)) + head + body


@pytest.mark.parametrize("magic", MAGICS)
def test_golden_bytes(magic):
    assert hashlib.sha256(GOLDEN[magic]).hexdigest() == GOLDEN_SHA256[magic]


@pytest.mark.parametrize("magic", MAGICS)
def test_golden_containers_read_back(magic):
    out = READERS[magic][1](GOLDEN[magic])
    if magic == "IFB1":
        assert serialize_backbone(out) == GOLDEN[magic]
    elif magic == "IFG1":
        assert serialize_graph(out) == GOLDEN[magic]
        graph = build_knn_graph(_backbone(), FEATURES)
        assert out.node_feats.dtype == np.float64
        assert np.array_equal(out.node_feats, graph.node_feats.astype(np.float32))
        assert np.array_equal(out.edge_feats, graph.edge_feats.astype(np.float32))


@pytest.mark.parametrize("magic", MAGICS)
@FUZZ
@given(data=st.data())
def test_truncated_container_raises_format_error(magic, data):
    error, read = READERS[magic]
    blob = GOLDEN[magic]
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(error):
        read(blob[:cut])


@pytest.mark.parametrize("magic", MAGICS)
@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_trailing_bytes_raise_format_error(magic, extra):
    error, read = READERS[magic]
    with pytest.raises(error):
        read(GOLDEN[magic] + extra)


@pytest.mark.parametrize("magic", MAGICS)
@FUZZ
@given(data=st.data())
def test_corrupt_header_byte_raises_only_format_error(magic, data):
    # a flipped byte may leave a readable header (a changed label, say);
    # anything that is not readable must fail with the format's error
    error, read = READERS[magic]
    blob = bytearray(GOLDEN[magic])
    (hlen,) = struct.unpack_from("<I", blob, 4)
    pos = data.draw(st.integers(4, 8 + hlen - 1))
    blob[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
    try:
        read(bytes(blob))
    except error:
        pass


# header paths of each format's dimensions
DIMENSIONS = {
    "IFG1": [("n",), ("k",), ("node_dim",), ("edge_dim",)],
    "IFE1": [("n",), ("dim",)],
    "IFC1": [("params", i, "shape", j)
             for i, entry in enumerate(_split(GOLDEN["IFC1"])[0]["params"][:4])
             for j in range(len(entry["shape"]))],
    "IFA1": [("n",), ("k",), ("layers",)],
}
BAD_DIMENSION = st.one_of(
    st.integers(max_value=-1), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 10**30), st.sampled_from([None, True, "3", [2], {"n": 2}]))


@pytest.mark.parametrize("magic,path", [(m, p) for m, paths in DIMENSIONS.items() for p in paths])
@FUZZ
@given(value=BAD_DIMENSION)
def test_bad_dimension_raises_format_error(magic, path, value):
    error, read = READERS[magic]
    header, body = _split(GOLDEN[magic])
    node = header
    for key in path[:-1]:
        node = node[key]
    if value == node[path[-1]] and type(value) is type(node[path[-1]]):
        return
    node[path[-1]] = value
    with pytest.raises(error):
        read(_repack(magic, header, body))


@FUZZ
@given(value=st.integers(0, 2**64 - 1))
def test_bad_backbone_count_raises_parse_error(value):
    header, body = _split(GOLDEN["IFB1"])
    if value == len(header["residues"]) * 12:
        return
    with pytest.raises(ParseError):
        deserialize_backbone(_repack("IFB1", header, struct.pack("<Q", value) + body[8:]))


def _cut(field, size):
    def edit(header):
        header[field] = header[field][:size]
    return edit


def _widen(field, by):
    def edit(header):
        header[field][-1]["width"] += by
    return edit


def _shift(field):
    def edit(header):
        header[field][-1]["offset"] += 1
    return edit


@pytest.mark.parametrize("edit", [
    _cut("labels", 3), _cut("seq_index", 5), _widen("node_layout", 1),
    _widen("edge_layout", -1), _shift("edge_layout"), _cut("node_layout", 1)])
def test_graph_header_disagreeing_with_its_blocks_raises_parse_error(edit):
    header, body = _split(GOLDEN["IFG1"])
    edit(header)
    with pytest.raises(ParseError):
        deserialize_graph(_repack("IFG1", header, body))


def test_graph_record_checks_its_arrays():
    good = deserialize_graph(GOLDEN["IFG1"])
    for change in ({"neighbors": good.neighbors[:, :-1]},
                   {"neighbors": np.full_like(good.neighbors, good.n)},
                   {"mask": good.mask[:-1]},
                   {"edge_feats": good.edge_feats[:, :, :-1]}):
        with pytest.raises(InvalidParameter):
            dataclasses.replace(good, **change)


@FUZZ
@given(dtype=st.one_of(st.text(max_size=6), st.sampled_from(
    ["<f4", "<u8", "<i8", ">f8", "f8", "float64", "|u1"]), st.integers(), st.none()))
def test_bad_checkpoint_dtype_raises_checkpoint_mismatch(dtype):
    header, body = _split(GOLDEN["IFC1"])
    if dtype == "<f8":
        return
    header["dtype"] = dtype
    with pytest.raises(CheckpointMismatch):
        READERS["IFC1"][1](_repack("IFC1", header, body))


@pytest.mark.parametrize("magic", MAGICS)
@pytest.mark.parametrize("header", [[1, 2], "text", 7, None])
def test_non_object_header_raises_format_error(magic, header):
    error, read = READERS[magic]
    with pytest.raises(error):
        read(_repack(magic, header, b""))


@pytest.mark.parametrize("magic", MAGICS)
def test_invalid_utf8_header_raises_format_error(magic):
    error, read = READERS[magic]
    with pytest.raises(error):
        read(magic.encode() + struct.pack("<I", 2) + b"\xff\xfe")


def test_pack_unpack_scalar_and_empty_blocks():
    blob = containers.pack(b"IFC1", {"shapes": [[], [0, 3]]},
                           [("<f8", np.float64(2.5)), ("<f8", np.zeros((0, 3)))])
    header, (scalar, empty) = containers.unpack(
        blob, b"IFC1", lambda h: [("<f8", s) for s in h["shapes"]], CheckpointMismatch, "test")
    assert header == {"shapes": [[], [0, 3]]}
    assert scalar.shape == () and scalar == 2.5
    assert empty.shape == (0, 3)
    assert not scalar.flags.writeable  # a view into the bytes, not a copy


def _joined_pack(magic, header, blocks):
    """The earlier codec: one `tobytes()` copy per block, then a join."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([magic, struct.pack("<I", len(head)), head,
                     *(np.asarray(a, dtype=dtype).tobytes() for dtype, a in blocks)])


@pytest.mark.parametrize("magic", MAGICS)
def test_pack_matches_joined_blocks(magic):
    rng = np.random.default_rng(list(magic.encode()))
    blocks = []
    for dtype in containers.DTYPES[magic.encode()]:
        if dtype[1] == "f":  # float64 sources, cast on write, some past float32's precision
            source = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-40, 30, (7, 5))
        else:
            source = rng.integers(0, 2**31 - 1, (7, 5))
        blocks += [(dtype, source), (dtype, source.T), (dtype, source[0, 0]),
                   (dtype, source[:2].tolist()), (dtype, source[:0])]
    header = _split(GOLDEN[magic])[0]
    packed = containers.pack(magic.encode(), header, blocks)
    assert packed == _joined_pack(magic.encode(), header, blocks)
    assert containers.pack(magic.encode(), header, []) == _joined_pack(magic.encode(), header, [])


@pytest.mark.parametrize("wrap", [bytes, bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytes", "bytearray", "memoryview"])
def test_unpack_views_are_read_only_for_any_buffer(wrap):
    values = np.arange(6.0).reshape(2, 3)
    blob = wrap(containers.pack(b"IFC1", {}, [("<f8", values)]))
    _, (view,) = containers.unpack(blob, b"IFC1", lambda h: [("<f8", (2, 3))],
                                   CheckpointMismatch, "test")
    assert np.array_equal(view, values) and not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 1.0


def test_errors_are_invfold_errors():
    for error, _ in READERS.values():
        assert issubclass(error, InvfoldError)
