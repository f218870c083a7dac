"""End-to-end command-line behavior and the exit-code contract."""

import copy
import csv
import io
import json
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invfold
from invfold import containers
from invfold.cli import main
from invfold.config import RunConfig, config_to_dict
from invfold.geometry import read_graph
from invfold.structure_io import read_fasta_file

TINY_CONFIG = {
    "seed": 0,
    "features": {"k": 6, "rbf_count": 4},
    "model": {"hidden_dim": 16, "layers": 1, "heads": 2, "recycles": 2, "dropout": 0.1},
    "priors": {"struct_dim": 8, "seq_dim": 8},
    "train": {"max_steps": 4, "eval_every": 2, "batch_size": 2, "warmup_steps": 2},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture
def pdb_file(tmp_path):
    from invfold.synthetic import random_backbone
    backbone = random_backbone(51, 14)
    text = []
    serial = 1
    for i, atoms in enumerate(backbone.coords(), start=1):
        from conftest import atom_line
        for name, xyz in zip(("N", "CA", "C", "O"), atoms):
            text.append(atom_line(serial, name, "ALA", "A", i, *xyz))
            serial += 1
    path = tmp_path / "toy.pdb"
    path.write_text("\n".join(text) + "\n")
    return str(path)


def write_chain_pdb(path, n, seed=51, resname="ALA"):
    from conftest import atom_line
    from invfold.synthetic import random_backbone
    path.write_text("".join(
        atom_line(4 * i + a + 1, name, resname, "A", i + 1, *xyz) + "\n"
        for i, atoms in enumerate(random_backbone(seed, n).coords())
        for a, (name, xyz) in enumerate(zip(("N", "CA", "C", "O"), atoms))))
    return str(path)


class TestFeaturize:
    def test_writes_container(self, tmp_path, tiny_config, pdb_file):
        out = tmp_path / "graph.ifg"
        code = main(["featurize", pdb_file, "--chain", "A", "--out", str(out),
                     "--config", tiny_config])
        assert code == 0
        g = read_graph(out)
        assert g.n == 14 and g.k == 6

    def test_missing_file_exit_1(self, tmp_path, tiny_config):
        code = main(["featurize", str(tmp_path / "none.pdb"), "--chain", "A",
                     "--out", str(tmp_path / "x"), "--config", tiny_config])
        assert code == 1

    def test_bad_chain_exit_2(self, tmp_path, tiny_config, pdb_file):
        code = main(["featurize", pdb_file, "--chain", "Z",
                     "--out", str(tmp_path / "x"), "--config", tiny_config])
        assert code == 2

    def test_garbled_pdb_exit_2(self, tmp_path, tiny_config):
        bad = tmp_path / "bad.pdb"
        bad.write_text("not a pdb at all\n")
        code = main(["featurize", str(bad), "--chain", "A",
                     "--out", str(tmp_path / "x"), "--config", tiny_config])
        assert code == 2

    def test_rotation_invariance_smoke(self, tmp_path, tiny_config, pdb_file):
        # a cyclic axis permutation is an exact rotation even at the PDB
        # format's 3-decimal precision, so features must match to 1e-5
        from pathlib import Path
        from invfold.structure_io import apply_rigid_transform, parse_pdb
        from conftest import atom_line
        backbone = parse_pdb(Path(pdb_file).read_text(), "A")
        rot = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        moved = apply_rigid_transform(backbone, rot, np.array([2.0, 1.0, -4.0]))
        lines = []
        serial = 1
        for i, atoms in enumerate(moved.coords(), start=1):
            for name, xyz in zip(("N", "CA", "C", "O"), atoms):
                lines.append(atom_line(serial, name, "ALA", "A", i, *xyz))
                serial += 1
        rot_pdb = tmp_path / "rot.pdb"
        rot_pdb.write_text("\n".join(lines) + "\n")

        out0, out1 = tmp_path / "g0.ifg", tmp_path / "g1.ifg"
        assert main(["featurize", pdb_file, "--chain", "A", "--out", str(out0),
                     "--config", tiny_config]) == 0
        assert main(["featurize", str(rot_pdb), "--chain", "A", "--out", str(out1),
                     "--config", tiny_config]) == 0
        g0, g1 = read_graph(out0), read_graph(out1)
        assert np.array_equal(g0.neighbors, g1.neighbors)
        assert np.max(np.abs(g0.node_feats - g1.node_feats)) < 1e-5
        assert np.max(np.abs(g0.edge_feats - g1.edge_feats)) < 1e-5


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"nonsense_key": 1}}))
        code = main(["theory", "--suite", "return-mass", "--config", str(path)])
        assert code == 1

    def test_unknown_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wrong_section": {}}))
        code = main(["theory", "--suite", "return-mass", "--config", str(path)])
        assert code == 1
        assert "wrong_section" in capsys.readouterr().err

    @pytest.mark.parametrize("features", [
        {"k": 2.5}, {"k": True}, {"relative_position_clamp": -1}, {"ss_classes": -1},
        {"rbf_count": "16"}, {"rbf_max": float("inf")}, {"rbf_min": float("nan")}])
    def test_ill_typed_feature_is_a_config_error(self, tmp_path, capsys, features):
        pdb = write_chain_pdb(tmp_path / "chain30.pdb", 30)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"features": features}))
        code = main(["infer", "--config", str(path), "--pdb", pdb, "--chain", "A"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("config error: invalid features section")

    def test_out_of_memory_is_one_line(self, monkeypatch, capsys, tiny_config, pdb_file):
        # a size under the config's bounds can still be more than memory holds
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.01 TiB for an array")

        monkeypatch.setattr("invfold.cli._model_and_priors", too_big)
        code = main(["infer", "--pdb", pdb_file, "--chain", "A", "--config", tiny_config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().splitlines() == ["error: Unable to allocate 8.01 TiB for an array"]

    @pytest.mark.parametrize("section,key,value", [
        ("train", "dropout", 0.5), ("train", "seed", 3), ("data", "corpus_dir", None),
        ("priors", "provider_seed", 0), ("data", "chain", "A"),
        ("features", "use_intra_rbf", True), ("features", "use_dihedrals", True),
        ("features", "use_secondary_structure", True), ("features", "use_orientations", True),
        ("features", "use_relative_position", True), ("model", "activation", "gelu"),
        ("model", "pool_mode", "channel"), ("model", "share_stage_params", True),
        ("train", "epochs", 100)])
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**TINY_CONFIG,
                                    section: {**TINY_CONFIG.get(section, {}), key: value}}))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"config error: unknown key {section}.{key!r}"]

    @pytest.mark.parametrize("train", [
        {"val_fraction": 1.0}, {"val_fraction": -0.2}, {"eval_every": 0}, {"batch_size": 1.5},
        {"grad_clip_norm": "x"}, {"max_steps": -3}, {"max_steps": None}])
    def test_ill_typed_train_setting_is_a_config_error(self, tmp_path, capsys, train):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], **train}}))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: invalid train section")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_prior_path_that_is_a_directory_exits_1(self, tmp_path, capsys, pdb_file, via):
        path = tmp_path / "c.json"
        priors = {**TINY_CONFIG["priors"], "structure_provider": str(tmp_path)}
        path.write_text(json.dumps({**TINY_CONFIG, "priors": priors} if via == "config"
                                   else TINY_CONFIG))
        extra = ["--struct-prior", str(tmp_path)] if via == "flag" else []
        assert main(["infer", "--pdb", pdb_file, "--config", str(path)] + extra) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")

    def test_riga_seed_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("RIGA_SEED", "77")
        code = main(["theory", "--suite", "return-mass", "--graph", "star3"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 77


class TestInfer:
    def test_fasta_and_distributions(self, tmp_path, tiny_config, pdb_file):
        fasta = tmp_path / "pred.fasta"
        dist = tmp_path / "dist.json"
        code = main(["infer", "--pdb", pdb_file, "--chain", "A",
                     "--config", tiny_config, "--out-fasta", str(fasta),
                     "--out-dist", str(dist)])
        assert code == 0
        entries = read_fasta_file(fasta)
        assert len(entries[0][1]) == 14
        payload = json.loads(dist.read_text())
        assert payload["stages"] == 2 and payload["n"] == 14
        assert len(payload["probs"]) == 2

    def test_recycles_one_matches_stage_one(self, tmp_path, tiny_config, pdb_file):
        d1, d3 = tmp_path / "d1.json", tmp_path / "d3.json"
        for recycles, path in ((1, d1), (3, d3)):
            assert main(["infer", "--pdb", pdb_file, "--chain", "A",
                         "--config", tiny_config, "--recycles", str(recycles),
                         "--out-dist", str(path)]) == 0
        p1 = json.loads(d1.read_text())["probs"][0]
        p3 = json.loads(d3.read_text())["probs"][0]
        assert np.array_equal(np.array(p1), np.array(p3))

    def test_same_seed_same_fasta(self, tmp_path, tiny_config, pdb_file):
        seqs = []
        for name in ("a.fasta", "b.fasta"):
            path = tmp_path / name
            assert main(["infer", "--pdb", pdb_file, "--chain", "A",
                         "--config", tiny_config, "--out-fasta", str(path)]) == 0
            seqs.append(read_fasta_file(path)[0][1])
        assert seqs[0] == seqs[1]

    def test_ref_seq_metrics(self, tmp_path, tiny_config, pdb_file, capsys):
        code = main(["infer", "--pdb", pdb_file, "--chain", "A",
                     "--config", tiny_config, "--ref-seq", "A" * 14])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        report = json.loads(lines[-1])
        assert {"staged_loss", "perplexity", "recovery"} <= set(report)

    def test_checkpoint_dim_mismatch_exit_3(self, tmp_path, tiny_config, pdb_file):
        from invfold.nn import save_checkpoint
        from invfold.autodiff import Tensor
        ckpt = tmp_path / "bad.ifc"
        save_checkpoint({"node_embed.w": Tensor(np.zeros((3, 3)))}, ckpt)
        code = main(["infer", "--pdb", pdb_file, "--chain", "A",
                     "--config", tiny_config, "--checkpoint", str(ckpt)])
        assert code == 3

    def test_features_or_pdb_required(self, tiny_config):
        assert main(["infer", "--config", tiny_config]) == 1

    def test_bad_recycles_exit_1(self, tiny_config, pdb_file):
        assert main(["infer", "--pdb", pdb_file, "--chain", "A",
                     "--config", tiny_config, "--recycles", "0"]) == 1

    def test_file_sequence_prior_needs_one_stage(self, tmp_path, capsys, monkeypatch):
        """A file sequence prior returns the same rows at every stage, so
        stages after the first would repeat stage 1."""
        from invfold.config import RunConfig
        from invfold.recycling import write_embeddings
        monkeypatch.delenv("RIGA_SEED", raising=False)
        pdb = write_chain_pdb(tmp_path / "chain.pdb", 40)
        seq = tmp_path / "seq.ife"
        write_embeddings(seq, np.ones((40, RunConfig().priors.seq_dim)), "test")
        dist = tmp_path / "d.json"
        argv = ["infer", "--pdb", pdb, "--seq-prior", str(seq), "--out-dist", str(dist)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--recycles 1" in err[0]
        assert not dist.exists()
        assert main(argv + ["--recycles", "1"]) == 0
        assert len(json.loads(dist.read_text())["probs"]) == 1

    def test_single_residue_chain_exit_2(self, tmp_path, tiny_config):
        from conftest import residue_lines
        single = tmp_path / "one.pdb"
        single.write_text("\n".join(residue_lines("ALA", "A", 1, (0, 0, 0))) + "\n")
        assert main(["infer", "--pdb", str(single), "--chain", "A",
                     "--config", tiny_config]) == 2


class TestTrainEval:
    def test_train_then_eval_and_recovery_100_against_own_prediction(
            self, tmp_path, tiny_config, pdb_file):
        out_dir = tmp_path / "run"
        code = main(["train", "--config", tiny_config, "--out-dir", str(out_dir)])
        assert code == 0
        ckpt = out_dir / "checkpoint.ifc"
        assert ckpt.is_file()
        metrics_lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert metrics_lines[0] == "epoch,step,stage,loss,ppl,recovery,lr"

        dataset = tmp_path / "data"
        dataset.mkdir()
        import shutil
        shutil.copy(pdb_file, dataset / "toy.pdb")
        fasta = dataset / "toy.fasta"
        assert main(["infer", "--pdb", str(dataset / "toy.pdb"), "--chain", "A",
                     "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--out-fasta", str(fasta)]) == 0

        out_csv = tmp_path / "metrics_eval.csv"
        code = main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--checkpoint", str(ckpt), "--chain", "A", "--out", str(out_csv)])
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        agg = [r for r in rows if r.startswith("AGGREGATE")]
        assert len(agg) == 1
        data_row = rows[1].split(",")
        assert float(data_row[2]) == 100.0  # reference is the model's own output

    def test_train_with_a_file_prior_exits_1(self, tmp_path, capsys):
        from invfold.recycling import write_embeddings
        rows = tmp_path / "prior.ife"
        write_embeddings(rows, np.zeros((30, 8)), "test")
        path = tmp_path / "c.json"
        for key in ("structure_provider", "sequence_provider"):
            priors = {**TINY_CONFIG["priors"], key: str(rows)}
            path.write_text(json.dumps({**TINY_CONFIG, "priors": priors}))
            assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 1
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1 and err.startswith("error: train uses stub")
        assert not (tmp_path / "run").exists()

    def test_train_warns_once_when_warmup_outlasts_the_run(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"],
                                                             "warmup_steps": 4}}))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 0
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "warning: train.warmup_steps (4) >= train.max_steps (4): "
            "the learning rate never decays"]

    def _eval_rows(self, dataset, tmp_path, tiny_config, capsys):
        out_csv = tmp_path / "m.csv"
        code = main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--out", str(out_csv)])
        err = capsys.readouterr().err
        assert code == 0 and err == ""
        return [row.split(",") for row in out_csv.read_text().strip().splitlines()[1:]]

    def test_eval_of_a_protein_with_no_scored_residue(self, tmp_path, tiny_config, capsys):
        dataset = tmp_path / "data"
        dataset.mkdir()
        write_chain_pdb(dataset / "unk.pdb", 20, resname="UNK")
        rows = self._eval_rows(dataset, tmp_path, tiny_config, capsys)
        assert rows == [["unk", "20", "nan", "nan", ""]]  # no AGGREGATE row

    def test_eval_aggregate_skips_a_protein_with_no_scored_residue(self, tmp_path, tiny_config,
                                                                   capsys):
        dataset = tmp_path / "data"
        dataset.mkdir()
        write_chain_pdb(dataset / "a.pdb", 16)
        write_chain_pdb(dataset / "unk.pdb", 20, resname="UNK")
        ordinary, unk, aggregate = self._eval_rows(dataset, tmp_path, tiny_config, capsys)
        assert unk[0] == "unk" and ordinary[0] == "a"
        assert aggregate == ["AGGREGATE"] + ordinary[1:]

    def test_eval_empty_dataset_exit_1(self, tmp_path, tiny_config):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["eval", "--dataset", str(empty), "--config", tiny_config]) == 1

    def test_eval_jobs_leaves_the_calling_thread_taping(self, tmp_path, tiny_config, pdb_file):
        from invfold import autodiff as ad
        dataset = tmp_path / "data"
        dataset.mkdir()
        import shutil
        for name in ("a", "b", "c"):
            shutil.copy(pdb_file, dataset / f"{name}.pdb")
        assert main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--out", str(tmp_path / "m.csv"), "--jobs", "2"]) == 0
        out = ad.mul(ad.Tensor(np.ones(2), requires_grad=True), 2.0)
        assert out.requires_grad and out._node is not None

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_eval_jobs_below_one_exit_1(self, tmp_path, tiny_config, pdb_file, capsys, jobs):
        dataset = tmp_path / "data"
        dataset.mkdir()
        import shutil
        shutil.copy(pdb_file, dataset / "toy.pdb")
        out = tmp_path / "m.csv"
        assert main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: argument --jobs: must be at least 1, got {jobs}"]
        assert not out.exists()

    def test_eval_malformed_fasta_nonfatal(self, tmp_path, tiny_config, pdb_file):
        dataset = tmp_path / "data"
        dataset.mkdir()
        import shutil
        shutil.copy(pdb_file, dataset / "toy.pdb")
        (dataset / "toy.fasta").write_text("garbage, not fasta\n")
        out_csv = tmp_path / "m.csv"
        code = main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--out", str(out_csv)])
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert any("error" in r.lower() for r in rows[1:])


class TestHelp:
    @pytest.mark.parametrize("sub", ["featurize", "train", "infer", "eval", "theory"])
    def test_help_every_subcommand(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(invfold.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "invfold", "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0
        assert "usage: invfold" in run.stdout


# 0, negatives, huge ints, floats, strings, lists, null and bools
ODD_VALUES = st.one_of(
    st.just(0), st.integers(max_value=-1), st.integers(min_value=2**31), st.floats(),
    st.text(max_size=6), st.lists(st.integers(), max_size=3), st.none(), st.booleans())
# every key of every section, and the top-level seed
CONFIG_KEYS = [("seed",)] + [(section, key)
                             for section, values in config_to_dict(RunConfig()).items()
                             if isinstance(values, dict) for key in values]


@settings(max_examples=160, deadline=None)
@given(where=st.sampled_from(CONFIG_KEYS), value=ODD_VALUES)
@example(where=("priors", "structure_provider"), value="\x00")
def test_odd_config_values_exit_cleanly(tmp_path_factory, where, value):
    """Any JSON value in any config key: featurize and infer on a tiny
    chain exit 0, or 1 with one line on stderr; nothing escapes. A train
    or data key only has to load (a valid max_steps can make a run
    arbitrarily long), so featurize alone checks those."""
    tmp = tmp_path_factory.mktemp("odd")
    pdb = write_chain_pdb(tmp / "chain.pdb", 14)
    raw = copy.deepcopy(TINY_CONFIG)
    section = raw if len(where) == 1 else raw.setdefault(where[0], {})
    section[where[-1]] = value
    config = tmp / "c.json"
    config.write_text(json.dumps(raw))
    runs = [["featurize", pdb, "--chain", "A", "--out", str(tmp / "g.ifg")]]
    if where[0] not in ("train", "data"):
        runs.append(["infer", "--pdb", pdb, "--chain", "A"])
    for argv in runs:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv + ["--config", str(config)])
        assert code in (0, 1), (argv[0], where, value, err.getvalue())
        assert len(err.getvalue().strip().splitlines()) == code, (argv[0], where, value)
        assert "Traceback" not in err.getvalue()


def _tiny_graph():
    """A featurized 14-residue chain under TINY_CONFIG, and its container header."""
    from invfold.config import config_from_dict
    from invfold.geometry import build_knn_graph, serialize_graph
    from invfold.synthetic import random_backbone
    graph = build_knn_graph(random_backbone(51, 14), config_from_dict(TINY_CONFIG).features)
    data = serialize_graph(graph)
    (hlen,) = struct.unpack_from("<I", data, 4)
    return graph, json.loads(data[8:8 + hlen])


GRAPH, GRAPH_HEADER = _tiny_graph()
GRAPH_FIELDS = (None, "labels", "seq_index", "chain_id", "node_layout", "edge_layout")
# an odd JSON value, or the field's own value cut or repeated to another length
GRAPH_EDITS = st.one_of(st.tuples(st.just("odd"), ODD_VALUES),
                        st.tuples(st.just("resize"), st.integers(0, 20)))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(0, 14), k=st.integers(0, 6), field=st.sampled_from(GRAPH_FIELDS),
       edit=GRAPH_EDITS)
@example(n=0, k=0, field=None, edit=("odd", None))
@example(n=14, k=0, field=None, edit=("odd", None))
def test_odd_graph_headers_exit_cleanly(tmp_path_factory, n, k, field, edit):
    """A graph container cut to n residues and k neighbours (blocks, labels
    and seq_index resized to match), with any JSON value or a list of
    another length in one header field: infer exits 0, or 2 with one line
    on stderr; nothing escapes."""
    header = copy.deepcopy(GRAPH_HEADER)
    header.update(n=n, k=k, labels=header["labels"][:n], seq_index=header["seq_index"][:n])
    if field is not None:
        kind, value = edit
        if kind == "resize":
            own = header[field]
            value = (own * (value // max(len(own), 1) + 1))[:value]
        header[field] = value
    blocks = [("<i4", GRAPH.neighbors[:n, :k] % max(n, 1)), ("<f4", GRAPH.node_feats[:n]),
              ("<f4", GRAPH.edge_feats[:n, :k])]
    tmp = tmp_path_factory.mktemp("graph")
    (tmp / "g.ifg").write_bytes(containers.pack(b"IFG1", header, blocks))
    (tmp / "c.json").write_text(json.dumps(TINY_CONFIG))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["infer", "--features", str(tmp / "g.ifg"), "--config", str(tmp / "c.json")])
    assert code in (0, 2), (n, k, field, edit, err.getvalue())
    assert len(err.getvalue().strip().splitlines()) == (code == 2), (n, k, field, edit)
    assert "Traceback" not in err.getvalue()


class TestSeedGuard:
    """Stub priors take the run seed, so a checkpoint meets the priors it
    was trained with only under the seed it records."""

    @pytest.fixture
    def trained(self, tmp_path, tiny_config):
        dataset = tmp_path / "data"
        dataset.mkdir()
        for i, n in enumerate((12, 14)):
            write_chain_pdb(dataset / f"p{i}.pdb", n, seed=60 + i)
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_config, "--seed", "3", "--corpus", str(dataset),
                     "--out-dir", str(out)]) == 0
        return dataset, out / "checkpoint.ifc"

    def test_infer_under_the_training_seed_matches_the_api(self, tmp_path, tiny_config, trained):
        from invfold.config import load_config
        from invfold.geometry import build_knn_graph
        from invfold.nn import load_checkpoint, restore_parameters
        from invfold.recycling import (
            InverseFoldModel, StubSequenceProvider, StubStructureProvider, recycle_infer)
        from invfold.structure_io import parse_pdb
        dataset, ckpt = trained
        pdb, dist = dataset / "p1.pdb", tmp_path / "dist.json"
        assert main(["infer", "--pdb", str(pdb), "--config", tiny_config, "--seed", "3",
                     "--checkpoint", str(ckpt), "--out-dist", str(dist)]) == 0
        cfg = load_config(tiny_config)
        model = InverseFoldModel(cfg.model, seed=3)
        restore_parameters(model.parameters(), load_checkpoint(ckpt)[0])
        graph = build_knn_graph(parse_pdb(pdb.read_text(), "A"), cfg.features)
        result = recycle_infer(model, graph, StubStructureProvider(dim=8, seed=3),
                               StubSequenceProvider(dim=8, seed=3), cfg.model.recycles)
        probs = json.loads(dist.read_text())["probs"]
        assert len(probs) == len(result.distributions) == 2
        for stage, d in zip(probs, result.distributions):
            assert np.array_equal(np.array(stage), d.probs)

    @pytest.mark.parametrize("command", ["infer", "eval", "theory"])
    def test_another_seed_exits_3(self, tmp_path, tiny_config, trained, monkeypatch, capsys,
                                  command):
        monkeypatch.delenv("RIGA_SEED", raising=False)
        dataset, ckpt = trained
        argv = {"infer": ["infer", "--pdb", str(dataset / "p0.pdb")],
                "eval": ["eval", "--dataset", str(dataset), "--out", str(tmp_path / "m.csv")],
                "theory": ["theory", "--suite", "recycling"]}[command]
        capsys.readouterr()
        assert main(argv + ["--config", tiny_config, "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "seed 3" in err[0] and "seed 0" in err[0]

    def test_file_priors_or_an_unrecorded_seed_pass(self, tmp_path, tiny_config, trained,
                                                    monkeypatch):
        from invfold.config import load_config
        from invfold.nn import save_checkpoint
        from invfold.recycling import InverseFoldModel, write_embeddings
        monkeypatch.delenv("RIGA_SEED", raising=False)
        dataset, ckpt = trained
        pdb = str(dataset / "p0.pdb")
        priors = []
        for name in ("s.ife", "q.ife"):
            write_embeddings(tmp_path / name, np.ones((12, 8)), "test")
            priors.append(str(tmp_path / name))
        assert main(["infer", "--pdb", pdb, "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--struct-prior", priors[0], "--seq-prior", priors[1],
                     "--recycles", "1"]) == 0
        assert main(["infer", "--pdb", pdb, "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--struct-prior", priors[0]]) == 3
        bare = tmp_path / "bare.ifc"
        save_checkpoint(InverseFoldModel(load_config(tiny_config).model).parameters(), bare)
        assert main(["infer", "--pdb", pdb, "--config", tiny_config, "--checkpoint", str(bare),
                     "--seed", "5"]) == 0
        # a checkpoint that records no settings is not held to them
        other = tmp_path / "k10.json"
        other.write_text(json.dumps({**TINY_CONFIG, "features": {"k": 10, "rbf_count": 4}}))
        assert main(["infer", "--pdb", pdb, "--config", str(other), "--checkpoint", str(bare)]) == 0

    @pytest.mark.parametrize("section,key,value,code", [
        ("features", "k", 10, 3), ("features", "rbf_max", 8.0, 3), ("model", "heads", 4, 3),
        ("model", "dropout", 0.3, 0), ("model", "recycles", 1, 0)])
    def test_checkpoint_holds_the_run_to_its_settings(self, tmp_path, trained, monkeypatch,
                                                     capsys, section, key, value, code):
        """Features and the model's shape settings must match the training
        run's; dropout and the stage count may differ."""
        monkeypatch.delenv("RIGA_SEED", raising=False)
        dataset, ckpt = trained
        path = tmp_path / "other.json"
        path.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG[section], key: value}}))
        capsys.readouterr()
        assert main(["infer", "--pdb", str(dataset / "p0.pdb"), "--config", str(path),
                     "--seed", "3", "--checkpoint", str(ckpt)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        if code:
            assert len(err) == 1 and f"{section}.{key} = " in err[0]
        else:
            assert err == []


class TestAggregate:
    def test_aggregate_ppl_matches_hand_computation(self, tmp_path, tiny_config):
        import math
        from invfold.config import load_config
        from invfold.geometry import build_knn_graph
        from invfold.recycling import (
            InverseFoldModel, StubSequenceProvider, StubStructureProvider, recycle_infer)
        from invfold.structure_io import AA_INDEX
        from invfold.synthetic import random_backbone
        from conftest import atom_line

        dataset = tmp_path / "data"
        dataset.mkdir()
        backbones = [random_backbone(70 + i, 10 + i) for i in range(2)]
        for idx, backbone in enumerate(backbones):
            lines, serial = [], 1
            for i, atoms in enumerate(backbone.coords(), start=1):
                for name, xyz in zip(("N", "CA", "C", "O"), atoms):
                    lines.append(atom_line(serial, name, "ALA", "A", i, *xyz))
                    serial += 1
            (dataset / f"p{idx}.pdb").write_text("\n".join(lines) + "\n")

        out_csv = tmp_path / "m.csv"
        assert main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--chain", "A", "--jobs", "2", "--out", str(out_csv)]) == 0

        # hand aggregation: residue-weighted mean cross-entropy over both proteins
        cfg = load_config(tiny_config)
        model = InverseFoldModel(cfg.model, seed=cfg.seed)
        sp = StubStructureProvider(dim=cfg.priors.struct_dim, seed=cfg.seed)
        qp = StubSequenceProvider(dim=cfg.priors.seq_dim, seed=cfg.seed)
        total_ce, total_n = 0.0, 0
        for idx in range(2):
            from invfold.structure_io import parse_pdb
            backbone = parse_pdb((dataset / f"p{idx}.pdb").read_text(), "A")
            graph = build_knn_graph(backbone, cfg.features)
            result = recycle_infer(model, graph, sp, qp, cfg.model.recycles)
            probs = result.distributions[-1].probs
            for i, tok in enumerate(backbone.sequence):
                total_ce += -math.log(probs[i, AA_INDEX[tok]])
                total_n += 1
        expected = math.exp(total_ce / total_n)
        agg = [r for r in out_csv.read_text().splitlines() if r.startswith("AGGREGATE")][0]
        assert float(agg.split(",")[3]) == pytest.approx(expected, rel=1e-4)


class TestTheoryCli:
    def test_resistance_suite(self, tmp_path, capsys):
        out = tmp_path / "resistance.json"
        code = main(["theory", "--suite", "resistance", "--count", "20",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["violations"] == 0
        assert report["sherman_morrison_residual"] <= 1e-8

    def test_return_mass_star3(self, capsys):
        assert main(["theory", "--suite", "return-mass", "--graph", "star3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == pytest.approx(0.5)

    def test_return_mass_cycle2(self, capsys):
        assert main(["theory", "--suite", "return-mass", "--graph", "cycle2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == pytest.approx(1.0)

    def test_unknown_graph_exit_1(self):
        assert main(["theory", "--suite", "return-mass", "--graph", "mystery"]) == 1

    @pytest.mark.parametrize("argv", [
        ["theory", "--suite", "contraction", "--graphs", "0"],
        ["theory", "--suite", "contraction", "--graphs", "-1"],
        ["theory", "--suite", "return-mass", "--graph", "star0"],
        ["theory", "--suite", "return-mass", "--graph", "starx"],
        ["theory", "--suite", "resistance", "--count", "0"],
        ["theory", "--suite", "resistance", "--count", "-3"],
        ["theory", "--suite", "sensitivity", "--eps", "nan"],
        ["theory", "--suite", "sensitivity", "--eps", "inf"],
        ["eval", "--dataset", "{dataset}", "--recycles", "0"],
    ])
    def test_out_of_range_flag_exit_1(self, argv, pdb_file, capsys):
        argv = [a.format(dataset=Path(pdb_file).parent) for a in argv]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "Traceback" not in captured.err + captured.out

    def test_unknown_suite_exit_1(self):
        assert main(["theory", "--suite", "nonsense"]) == 1

    def test_sensitivity_suite(self, capsys):
        assert main(["theory", "--suite", "sensitivity", "--count", "100"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == 0

    def test_contraction_suite_csv(self, tmp_path, tiny_config, capsys):
        csv = tmp_path / "series.csv"
        code = main(["theory", "--suite", "contraction", "--graphs", "1",
                     "--config", tiny_config, "--csv", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "layer,directional,symmetric"
        assert len(lines) == 2  # one layer in the tiny config

    def test_recycling_suite(self, tiny_config, capsys):
        code = main(["theory", "--suite", "recycling", "--config", tiny_config])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["losses"]) == 2

    def test_oversmoothing_suite(self, tiny_config, capsys):
        code = main(["theory", "--suite", "oversmoothing", "--config", tiny_config])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["bridge_on"]) == 2


def _corrupt(data: bytes, how: str) -> bytes:
    """Cut a container inside its header or body, or pad it."""
    hlen = int.from_bytes(data[4:8], "little")
    if how == "cut-header":
        return data[:8 + hlen // 2]
    if how == "cut-body":
        return data[:-3]
    return data + b"\x00junk"


class TestMalformedInput:
    """Every malformed input exits with its documented code and a one-line
    message; nothing escapes `main`."""

    @staticmethod
    def _infer_args(tmp_path, tiny_config, pdb_file, suffix):
        from invfold.config import load_config
        from invfold.nn import save_checkpoint
        from invfold.recycling import InverseFoldModel, write_embeddings
        path = tmp_path / f"input{suffix}"
        if suffix == ".ifg":
            assert main(["featurize", pdb_file, "--chain", "A", "--out", str(path),
                         "--config", tiny_config]) == 0
            return path, ["infer", "--features", str(path)]
        cfg = load_config(tiny_config)
        if suffix == ".ifc":
            model = InverseFoldModel(cfg.model, seed=cfg.seed)
            save_checkpoint(model.parameters(), path)
            return path, ["infer", "--pdb", pdb_file, "--checkpoint", str(path)]
        rows = np.ones((14, cfg.priors.struct_dim))
        write_embeddings(path, rows, "test")
        return path, ["infer", "--pdb", pdb_file, "--struct-prior", str(path)]

    @pytest.mark.parametrize("how", ["cut-header", "cut-body", "trailing-bytes"])
    @pytest.mark.parametrize("suffix,code", [(".ifg", 2), (".ifc", 3), (".ife", 3)])
    def test_corrupt_container(self, tmp_path, tiny_config, pdb_file, capsys,
                               suffix, code, how):
        path, args = self._infer_args(tmp_path, tiny_config, pdb_file, suffix)
        args += ["--chain", "A", "--config", tiny_config]
        assert main(args) == 0  # the intact file is accepted
        path.write_bytes(_corrupt(path.read_bytes(), how))
        capsys.readouterr()
        assert main(args) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_features_from_another_config_exit_3(self, tmp_path, tiny_config, pdb_file, capsys):
        graph = tmp_path / "g.ifg"
        assert main(["featurize", pdb_file, "--chain", "A", "--out", str(graph),
                     "--config", tiny_config]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**TINY_CONFIG, "features": {"k": 6, "rbf_count": 5}}))
        assert main(["infer", "--features", str(graph), "--config", str(other)]) == 3
        assert "feature dims" in capsys.readouterr().err

    @pytest.mark.parametrize("field,size", [("labels", 3), ("seq_index", 5)])
    def test_graph_with_short_lists_exit_2(self, tmp_path, tiny_config, capsys, field, size):
        pdb = write_chain_pdb(tmp_path / "chain60.pdb", 60, seed=52)
        graph = tmp_path / "g.ifg"
        args = ["infer", "--features", str(graph), "--config", tiny_config]
        assert main(["featurize", pdb, "--chain", "A", "--out", str(graph),
                     "--config", tiny_config]) == 0
        assert main(args) == 0
        data = graph.read_bytes()
        (hlen,) = struct.unpack_from("<I", data, 4)
        header = json.loads(data[8:8 + hlen])
        header[field] = header[field][:size]
        head = json.dumps(header).encode()
        graph.write_bytes(data[:4] + struct.pack("<I", len(head)) + head + data[8 + hlen:])
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert field in err

    def test_nan_coordinate_exit_2(self, tmp_path, tiny_config, pdb_file, capsys):
        lines = open(pdb_file).read().splitlines()
        lines[5] = lines[5][:38] + f"{float('nan'):8.3f}" + lines[5][46:]
        bad = tmp_path / "nan.pdb"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "g.ifg"
        assert main(["featurize", str(bad), "--chain", "A", "--out", str(out),
                     "--config", tiny_config]) == 2
        assert "line 6" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_seed_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": "abc"}))
        assert main(["theory", "--suite", "return-mass", "--config", str(path)]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [{"heads": 0}, {"hidden_dim": -8}, {"layers": -1}])
    def test_model_setting_out_of_range_exit_1(self, tmp_path, pdb_file, capsys, model):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY_CONFIG, "model": {**TINY_CONFIG["model"], **model}}))
        assert main(["infer", "--pdb", pdb_file, "--chain", "A", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert next(iter(model)) in err

    @pytest.mark.parametrize("text", ["[1, 2", "{\"a\": 1}", "[\"H\"]", json.dumps([99] * 14),
                                      json.dumps([-1] + [0] * 13), json.dumps([0] * 13)])
    def test_bad_ss_json_exit_2(self, tmp_path, tiny_config, pdb_file, capsys, text):
        ss = tmp_path / "ss.json"
        ss.write_text(text)
        assert main(["featurize", pdb_file, "--chain", "A", "--out", str(tmp_path / "g.ifg"),
                     "--ss", str(ss), "--config", tiny_config]) == 2
        assert "--ss" in capsys.readouterr().err

    # a Latin-1 byte in an author remark or a FASTA header: not UTF-8
    LATIN1 = b"REMARK   1 AUTHOR J. M\xe9ndez\n"

    @pytest.mark.parametrize("entry", ["featurize", "infer-pdb", "featurize-ss", "infer-ref-seq",
                                       "train-corpus", "config"])
    def test_non_utf8_text_input_is_one_typed_line(self, tmp_path, tiny_config, capsys, entry):
        good = write_chain_pdb(tmp_path / "good.pdb", 20)
        bad = tmp_path / "data" / "bad.pdb"
        bad.parent.mkdir()
        bad.write_bytes(self.LATIN1 + Path(good).read_bytes())
        other = tmp_path / "other.txt"
        other.write_bytes(b"[0, 1] \xe9" if entry == "featurize-ss" else b">ref M\xe9ndez\nACD\n")
        config = tmp_path / "latin1.json"
        config.write_bytes(b" \xe9" + json.dumps(TINY_CONFIG).encode())
        out = str(tmp_path / "g.ifg")
        argv, code, prefix, name, offset = {
            "featurize": (["featurize", str(bad), "--chain", "A", "--out", out],
                          2, "parse error:", bad, 22),
            "infer-pdb": (["infer", "--pdb", str(bad)], 2, "parse error:", bad, 22),
            "featurize-ss": (["featurize", good, "--chain", "A", "--out", out, "--ss", str(other)],
                             2, "parse error:", other, 7),
            "infer-ref-seq": (["infer", "--pdb", good, "--ref-seq", str(other)],
                              2, "parse error:", other, 6),
            "train-corpus": (["train", "--corpus", str(bad.parent), "--out-dir", str(tmp_path / "r")],
                             2, "parse error:", bad, 22),
            "config": (["infer", "--pdb", good], 1, "config error:", config, 1),
        }[entry]
        argv += ["--config", str(config) if entry == "config" else tiny_config]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"{prefix} {name}: not UTF-8 text (byte 0xe9 at offset {offset})"]

    def test_non_utf8_pdb_in_eval_is_that_proteins_error_row(self, tmp_path, tiny_config, capsys):
        dataset = tmp_path / "data"
        dataset.mkdir()
        write_chain_pdb(dataset / "a.pdb", 16)
        good = write_chain_pdb(tmp_path / "good.pdb", 20)
        (dataset / "bad.pdb").write_bytes(self.LATIN1 + Path(good).read_bytes())
        out = tmp_path / "m.csv"
        assert main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.reader(out.open(newline="")))
        assert rows[1][0] == "a" and rows[2][:4] == ["bad", "", "", ""]
        assert rows[2][4] == f"{dataset / 'bad.pdb'}: not UTF-8 text (byte 0xe9 at offset 22)"
        assert rows[3][0] == "AGGREGATE"


class TestEvalCsv:
    """`eval` rows read back through csv.reader as five fields, whatever
    the file names and error messages hold."""

    @staticmethod
    def _read(dataset, tmp_path, tiny_config):
        out = tmp_path / "m.csv"
        assert main(["eval", "--dataset", str(dataset), "--config", tiny_config,
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.open(newline="")))
        assert rows[0] == ["protein", "n", "recovery", "ppl", "error"]
        assert all(len(r) == 5 for r in rows)
        return out.read_text().splitlines(), rows[1:]

    def test_comma_in_a_file_name(self, tmp_path, tiny_config):
        dataset = tmp_path / "data"
        dataset.mkdir()
        write_chain_pdb(dataset / "a,b.pdb", 20)
        lines, rows = self._read(dataset, tmp_path, tiny_config)
        assert rows[0][:2] == ["a,b", "20"] and rows[0][4] == ""
        # the metric fields and the AGGREGATE row stay unquoted
        assert lines[1].startswith('"a,b",20,') and lines[1].endswith(",")
        assert lines[2] == ",".join(["AGGREGATE"] + rows[0][1:])

    def test_double_quote_in_an_error_message(self, tmp_path, tiny_config):
        dataset = tmp_path / "data"
        dataset.mkdir()
        lines = Path(write_chain_pdb(dataset / "q.pdb", 20)).read_text().splitlines()
        lines[5] = lines[5][:38] + '  1"5.08' + lines[5][46:]
        (dataset / "q.pdb").write_text("\n".join(lines) + "\n")
        _, rows = self._read(dataset, tmp_path, tiny_config)
        assert rows == [["q", "", "", "", "line 6: malformed ATOM record (could not convert "
                         "string to float: '  1\"5.08')"]]
