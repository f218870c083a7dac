"""Parser conformance, preprocessing transforms, and container round-trips."""

import numpy as np
import pytest

from invfold.errors import (
    ChainNotFound,
    EmptyBackbone,
    InvalidParameter,
    InvalidRotation,
    ParseError,
)
from invfold.rng import RandomStream
from invfold.structure_io import (
    ProteinBackbone,
    apply_rigid_transform,
    backbones_equal,
    deserialize_backbone,
    inject_backbone_noise,
    parse_pdb,
    read_fasta_file,
    serialize_backbone,
    write_fasta,
)
from invfold.synthetic import random_backbone, random_rotation

from conftest import atom_line, residue_lines


class TestParse:
    def test_two_residue_fixture(self, ala_gly_pdb):
        b = parse_pdb(ala_gly_pdb, "A")
        assert len(b) == 2
        assert b.sequence == "AG"
        # expected values are the literal coordinates written into the fixture
        assert np.allclose(b.coords()[0, 0], [0.0, 0.0, 0.0])
        assert np.allclose(b.coords()[0, 1], [1.46, 0.0, 0.0], atol=1e-6)
        assert np.allclose(b.coords()[1, 1], [3.8 + 1.46, 0.0, 0.0], atol=1e-6)
        assert b.seq_index[0] == 1
        assert b.present[0].all()

    def test_other_chain(self, ala_gly_pdb):
        b = parse_pdb(ala_gly_pdb, "B")
        assert b.sequence == "L"

    def test_missing_ca_dropped(self, missing_ca_pdb):
        b = parse_pdb(missing_ca_pdb, "A")
        assert len(b) == 1
        assert b.sequence == "A"

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_pdb("", "A")

    def test_no_atom_records(self):
        with pytest.raises(ParseError):
            parse_pdb("HEADER    TEST\nEND\n", "A")

    def test_chain_absent(self, ala_gly_pdb):
        with pytest.raises(ChainNotFound):
            parse_pdb(ala_gly_pdb, "Z")

    def test_all_residues_filtered(self):
        lines = residue_lines("ALA", "A", 1, (0, 0, 0), skip=("CA",))
        with pytest.raises(EmptyBackbone):
            parse_pdb("\n".join(lines), "A")

    def test_malformed_coordinates(self):
        good = residue_lines("ALA", "A", 1, (0, 0, 0))
        bad = good[0][:30] + "  xx.xxx" + good[0][38:]
        with pytest.raises(ParseError):
            parse_pdb("\n".join([bad] + good[1:]), "A")

    def test_truncated_record(self):
        with pytest.raises(ParseError):
            parse_pdb("ATOM      1  N   ALA A   1", "A")

    def test_nonstandard_residue_maps_to_unk(self):
        lines = residue_lines("MSE", "A", 1, (0, 0, 0))
        b = parse_pdb("\n".join(lines), "A")
        assert b.sequence == "X"

    def test_hetatm_skipped(self, ala_gly_pdb):
        het = atom_line(99, "CA", "HOH", "A", 50, 9.0, 9.0, 9.0, record="HETATM")
        b = parse_pdb(ala_gly_pdb + het + "\n", "A")
        assert len(b) == 2

    def test_altloc_b_skipped(self):
        lines = residue_lines("ALA", "A", 1, (0, 0, 0))
        shifted = atom_line(9, "CA", "ALA", "A", 1, 5.0, 5.0, 5.0, altloc="B")
        b = parse_pdb("\n".join([shifted] + lines), "A")
        assert np.allclose(b.coords()[0, 1], [1.46, 0.0, 0.0], atol=1e-6)

    def test_insertion_code_skipped(self):
        lines = residue_lines("ALA", "A", 1, (0, 0, 0))
        inserted = residue_lines("GLY", "A", 1, (3.8, 0, 0), start_serial=5)
        inserted = [ln[:26] + "A" + ln[27:] for ln in inserted]
        b = parse_pdb("\n".join(lines + inserted), "A")
        assert b.sequence == "A"

    def test_missing_n_imputed(self):
        lines = residue_lines("ALA", "A", 1, (0, 0, 0), skip=("N",))
        b = parse_pdb("\n".join(lines), "A")
        assert b.present[0].tolist() == [False, True, True, True]
        assert np.array_equal(b.coords()[0, 0], b.coords()[0, 1])

    def test_atom_order_within_residue_is_irrelevant(self, ala_gly_pdb):
        lines = [ln for ln in ala_gly_pdb.splitlines() if ln.startswith("ATOM")]
        shuffled = lines[:4][::-1] + lines[4:8][::-1] + lines[8:]
        b1 = parse_pdb(ala_gly_pdb, "A")
        b2 = parse_pdb("\n".join(shuffled), "A")
        assert backbones_equal(b1, b2)


class TestBackboneArrays:
    def test_arrays_are_read_only(self, small_backbone):
        for array in (small_backbone.atoms, small_backbone.present, small_backbone.seq_index):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_caller_arrays_are_copied(self):
        atoms = np.zeros((2, 4, 3))
        b = ProteinBackbone(atoms, np.ones((2, 4), dtype=bool), "AG", np.array([1, 2]), "A")
        atoms[0, 0, 0] = 5.0
        assert b.coords()[0, 0, 0] == 0.0 and atoms.flags.writeable

    @pytest.mark.parametrize("field,value", [
        ("atoms", np.zeros((2, 3, 3))),
        ("atoms", np.zeros((2, 4, 3), dtype=np.float32)),
        ("present", np.ones((3, 4), dtype=bool)),
        ("present", np.ones((2, 4), dtype=np.int64)),
        ("present", np.array([[True, False, True, True]] * 2)),   # CA is never imputed
        ("sequence", "A"),
        ("seq_index", np.array([1.0, 2.0])),
        ("seq_index", np.array([1, 2, 3])),
        ("chain_id", 7),
    ])
    def test_mismatch_raises(self, field, value):
        fields = {"atoms": np.zeros((2, 4, 3)), "present": np.ones((2, 4), dtype=bool),
                  "sequence": "AG", "seq_index": np.array([1, 2]), "chain_id": "A"}
        fields[field] = value
        with pytest.raises(InvalidParameter):
            ProteinBackbone(**fields)

    def test_with_coords_shape_checked(self, small_backbone):
        with pytest.raises(InvalidParameter):
            small_backbone.with_coords(np.zeros((3, 4, 3)))

    # a non-finite atom would featurize into NaN node and edge features
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("atom", [1, 3])
    def test_non_finite_atom_raises(self, value, atom):
        backbone = random_backbone(0, 30)
        coords = backbone.coords().copy()
        coords[12, atom, 1] = value
        with pytest.raises(InvalidParameter):
            backbone.with_coords(coords)

    def test_non_finite_container_coordinate_raises_parse_error(self):
        data = bytearray(serialize_backbone(random_backbone(0, 5)))
        data[-4:] = np.float32(np.nan).tobytes()
        with pytest.raises(ParseError):
            deserialize_backbone(data)


class TestRigidTransform:
    def test_identity(self, small_backbone):
        out = apply_rigid_transform(small_backbone, np.eye(3), np.zeros(3))
        assert backbones_equal(out, small_backbone)

    def test_translation(self, small_backbone):
        out = apply_rigid_transform(small_backbone, np.eye(3), np.array([1.0, 0, 0]))
        assert np.allclose(out.coords()[..., 0], small_backbone.coords()[..., 0] + 1.0)
        assert np.array_equal(out.coords()[..., 1:], small_backbone.coords()[..., 1:])

    def test_inverse_composition(self, small_backbone):
        r = random_rotation(RandomStream(5, "rot"))
        t = np.array([3.0, -2.0, 1.0])
        fwd = apply_rigid_transform(small_backbone, r, t)
        back = apply_rigid_transform(fwd, r.T, -r.T @ t)
        assert np.max(np.abs(back.coords() - small_backbone.coords())) < 1e-9

    def test_rejects_non_orthonormal(self, small_backbone):
        with pytest.raises(InvalidRotation):
            apply_rigid_transform(small_backbone, np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self, small_backbone):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotation):
            apply_rigid_transform(small_backbone, r, np.zeros(3))

    def test_labels_preserved(self, small_backbone):
        out = apply_rigid_transform(small_backbone, np.eye(3), np.ones(3))
        assert out.sequence == small_backbone.sequence
        assert out.chain_id == small_backbone.chain_id


class TestNoise:
    def test_zero_sigma_identity(self, small_backbone):
        out = inject_backbone_noise(small_backbone, 0.0, seed=1)
        assert backbones_equal(out, small_backbone)

    def test_negative_sigma(self, small_backbone):
        with pytest.raises(InvalidParameter):
            inject_backbone_noise(small_backbone, -0.1, seed=1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 1e308])
    def test_non_finite_sigma_or_coordinates_raise(self, small_backbone, sigma):
        # 1e308 is finite, but the noisy coordinates it makes are not
        with np.errstate(over="ignore"), pytest.raises(InvalidParameter):
            inject_backbone_noise(small_backbone, sigma, seed=0)

    def test_determinism(self, small_backbone):
        a = inject_backbone_noise(small_backbone, 0.02, seed=9)
        b = inject_backbone_noise(small_backbone, 0.02, seed=9)
        assert backbones_equal(a, b)
        c = inject_backbone_noise(small_backbone, 0.02, seed=10)
        assert not backbones_equal(a, c)

    def test_sample_standard_deviation(self):
        # 10^5 draws of one coordinate component across regenerated noise
        backbone = random_backbone(0, 42)
        n_samples = 100_000 // (42 * 4 * 3) + 1
        deltas = []
        for s in range(n_samples):
            noisy = inject_backbone_noise(backbone, 0.02, seed=s)
            deltas.append((noisy.coords() - backbone.coords()).ravel())
        flat = np.concatenate(deltas)[:100_000]
        assert 0.0195 <= flat.std() <= 0.0205


class TestContainer:
    def test_round_trip_parsed(self, ala_gly_pdb):
        b = parse_pdb(ala_gly_pdb, "A")
        again = deserialize_backbone(serialize_backbone(b))
        assert backbones_equal(b, again)

    def test_round_trip_preserves_flags(self, missing_ca_pdb):
        lines = residue_lines("ALA", "A", 1, (0, 0, 0), skip=("O",))
        b = parse_pdb("\n".join(lines), "A")
        again = deserialize_backbone(serialize_backbone(b))
        assert again.present[0].tolist() == [True, True, True, False]

    def test_serialize_is_idempotent_after_one_quantization(self):
        b = random_backbone(3, 9)  # arbitrary float64 coordinates
        once = deserialize_backbone(serialize_backbone(b))
        twice = deserialize_backbone(serialize_backbone(once))
        assert backbones_equal(once, twice)

    def test_file_round_trip(self, tmp_path, ala_gly_pdb):
        from invfold.structure_io import read_backbone, write_backbone
        b = parse_pdb(ala_gly_pdb, "A")
        path = tmp_path / "bb.ifb"
        write_backbone(b, path)
        assert backbones_equal(read_backbone(path), b)

    @pytest.mark.parametrize("field,value", [
        ("aa", "AG"), ("aa", 5), ("imputed", ["CA"]), ("imputed", ["Q"]), ("imputed", 3),
        ("seq_index", "1"), ("seq_index", 1.5), ("seq_index", 2**70),
    ])
    def test_malformed_residue_fields_raise_parse_error(self, ala_gly_pdb, field, value):
        import json
        import struct
        data = serialize_backbone(parse_pdb(ala_gly_pdb, "A"))
        (hlen,) = struct.unpack_from("<I", data, 4)
        header = json.loads(data[8:8 + hlen])
        header["residues"][1][field] = value
        head = json.dumps(header).encode()
        with pytest.raises(ParseError):
            deserialize_backbone(data[:4] + struct.pack("<I", len(head)) + head + data[8 + hlen:])

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            deserialize_backbone(b"XXXX" + b"\x00" * 16)


class TestFasta:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, "seq1", "ACDEFGHIKLMNPQRSTVWY" * 4)
        entries = read_fasta_file(path)
        assert entries == [("seq1", "ACDEFGHIKLMNPQRSTVWY" * 4)]

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("not fasta at all\n")
        with pytest.raises(ParseError):
            read_fasta_file(path)
