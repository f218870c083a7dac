"""Command-line entry point.

Subcommands: featurize, train, infer, eval, theory. Every run is
deterministic under --seed (fallback order: flag, config file, the
RIGA_SEED environment variable, 0), which also seeds the stub priors;
a checkpoint trained under another seed exits 3 when a prior is a
stub, and one trained under other feature or model-shape settings
exits 3. Exit codes: 0 success, 1 usage, missing input or invalid config,
2 parse failure, 3 numeric/dimension failure. A corrupt binary
container exits 2 (backbone, graph, attention dump) or 3 (checkpoint,
embedding file); docs/formats.md lists which.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import theory as theory_mod
from .autodiff import no_grad
from .config import RunConfig, config_to_dict, load_config
from .errors import (
    ChainNotFound,
    CheckpointMismatch,
    ConfigError,
    DegenerateFrame,
    EmptyBackbone,
    GraphTooSmall,
    InvalidParameter,
    InvfoldError,
    ParseError,
    ShapeError,
    read_text,
)
from .geometry import build_knn_graph, read_graph, write_graph
from .nn import load_checkpoint, restore_parameters, save_checkpoint
from .recycling import (
    FileSequenceProvider,
    FileStructureProvider,
    InverseFoldModel,
    StubSequenceProvider,
    StubStructureProvider,
    recycle_infer,
)
from .structure_io import AA_INDEX, parse_pdb, read_fasta_file, write_fasta
from .synthetic import toy_corpus
from .training import metrics as compute_metrics
from .training import pool_metrics, staged_loss, train_toy, write_metrics_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3

# input-data failures exit 2; anything numeric or dimensional exits 3
_PARSE_ERRORS = (ParseError, ChainNotFound, EmptyBackbone, GraphTooSmall, DegenerateFrame)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type of a count flag: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _graph_fixture(text: str) -> str:
    """argparse type of `theory --graph`: star<N> with N >= 1, cycle2 or 2cycle."""
    if re.fullmatch(r"star[1-9][0-9]*|cycle2|2cycle", text):
        return text
    raise argparse.ArgumentTypeError(f"unknown graph fixture {text!r} (star<N> with N >= 1, "
                                     f"or cycle2)")


def _resolve_seed(args, cfg: RunConfig) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if args.config is not None:
        return cfg.seed
    env = os.environ.get("RIGA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"RIGA_SEED must be an integer, got {env!r}") from exc
    return cfg.seed


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config)
    cfg.seed = _resolve_seed(args, cfg)
    cfg.train.seed = cfg.seed
    return cfg


def _defining_settings(cfg: RunConfig) -> dict:
    """The config sections that fix what a trained model computes: every
    feature setting, and the model settings but the dropout rate and the
    stage count."""
    sections = config_to_dict(cfg)
    model = {k: v for k, v in sections["model"].items() if k not in ("dropout", "recycles")}
    return {"features": sections["features"], "model": model}


def _check_defining_settings(checkpoint, meta: dict, cfg: RunConfig) -> None:
    """CheckpointMismatch naming the first setting that the checkpoint
    records with another value than the run's config. A checkpoint that
    records none of them is not checked."""
    current = _defining_settings(cfg)
    for section in current:
        recorded = meta.get(section, {})
        if not isinstance(recorded, dict):
            raise CheckpointMismatch(f"{checkpoint}: meta.{section} is not an object")
        for key, value in recorded.items():
            if current[section].get(key) != value:
                raise CheckpointMismatch(
                    f"{checkpoint} was trained with {section}.{key} = {value!r} but this run's "
                    f"config has {current[section].get(key)!r}")


def _model_and_priors(cfg: RunConfig, checkpoint=None, struct_arg=None, seq_arg=None):
    """The model (restored from `checkpoint` if given) and its two priors.
    A stub prior takes the run seed, so a checkpoint trained under another
    seed would meet other priors than it learned from."""
    struct_sel = struct_arg or cfg.priors.structure_provider
    seq_sel = seq_arg or cfg.priors.sequence_provider
    model = InverseFoldModel(cfg.model, seed=cfg.seed)
    if checkpoint is not None:
        arrays, meta = load_checkpoint(checkpoint)
        _check_defining_settings(checkpoint, meta, cfg)
        trained_seed = meta.get("seed")
        if "stub" in (struct_sel, seq_sel) and trained_seed not in (None, cfg.seed):
            raise CheckpointMismatch(
                f"{checkpoint} was trained with seed {trained_seed} but this run uses seed "
                f"{cfg.seed}; stub priors differ between seeds (pass --seed {trained_seed})")
        restore_parameters(model.parameters(), arrays)
    if struct_sel == "stub":
        struct_p = StubStructureProvider(dim=cfg.priors.struct_dim, seed=cfg.seed)
    else:
        struct_p = FileStructureProvider(struct_sel)
    if seq_sel == "stub":
        seq_p = StubSequenceProvider(dim=cfg.priors.seq_dim, seed=cfg.seed)
    else:
        seq_p = FileSequenceProvider(seq_sel)
    if struct_p.dim != cfg.priors.struct_dim or seq_p.dim != cfg.priors.seq_dim:
        raise CheckpointMismatch(
            f"provider dims ({struct_p.dim}, {seq_p.dim}) do not match config "
            f"({cfg.priors.struct_dim}, {cfg.priors.seq_dim})")
    return model, struct_p, seq_p


def _stage_count(cfg: RunConfig, seq_p, recycles=None) -> int:
    """The run's stage count: `recycles` (the --recycles flag) or else the
    config's. A file sequence prior returns its stored rows for every
    query, so each stage after the first would repeat stage 1."""
    stages = cfg.model.recycles if recycles is None else recycles
    if isinstance(seq_p, FileSequenceProvider) and stages > 1:
        raise _UsageError(f"a file sequence prior gives every stage the same input, so "
                          f"{stages} stages would repeat stage 1; use --recycles 1 "
                          f"(or model.recycles 1)")
    return stages


def _read_text(path) -> str:
    """A PDB, FASTA or --ss input as text: a missing file is a usage error,
    a byte that is not UTF-8 a ParseError naming the file and the offset."""
    if not Path(path).is_file():
        raise _UsageError(f"no such file: {path}")
    return read_text(path, ParseError)


def cmd_featurize(args) -> int:
    cfg = _load_cfg(args)
    text = _read_text(args.pdb)
    backbone = parse_pdb(text, args.chain)
    ss = None
    if args.ss:
        try:
            ss = json.loads(_read_text(args.ss))
        except json.JSONDecodeError as exc:
            raise ParseError(f"--ss {args.ss}: not valid JSON ({exc})") from exc
        if not isinstance(ss, list) or not all(type(c) is int for c in ss):
            raise ParseError(f"--ss {args.ss}: expected a JSON list of integers")
        if len(ss) != len(backbone):
            raise ParseError(f"--ss {args.ss}: {len(ss)} classes for {len(backbone)} residues")
        if not all(0 <= c < cfg.features.ss_classes for c in ss):
            raise ParseError(f"--ss {args.ss}: classes must lie in "
                             f"[0, {cfg.features.ss_classes})")
    graph = build_knn_graph(backbone, cfg.features, ss=ss)
    write_graph(graph, args.out)
    print(f"featurized {graph.n} residues (k={graph.k}, "
          f"node_dim={graph.node_feats.shape[1]}, edge_dim={graph.edge_feats.shape[2]}) "
          f"-> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    # a file prior holds one protein's rows, so it cannot serve a corpus
    if (cfg.priors.structure_provider, cfg.priors.sequence_provider) != ("stub", "stub"):
        raise _UsageError("train uses stub priors; set priors.structure_provider and "
                          "priors.sequence_provider to \"stub\"")
    if cfg.train.schedule == "cosine" and cfg.train.warmup_steps >= cfg.train.max_steps:
        print(f"warning: train.warmup_steps ({cfg.train.warmup_steps}) >= train.max_steps "
              f"({cfg.train.max_steps}): the learning rate never decays", file=sys.stderr)
    out_dir = Path(args.out_dir or cfg.data.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.corpus:
        corpus = []
        pdbs = sorted(Path(args.corpus).glob("*.pdb"))
        if not pdbs:
            raise _UsageError(f"no .pdb files in {args.corpus}")
        for p in pdbs:
            corpus.append(parse_pdb(_read_text(p), args.chain))
    else:
        corpus = toy_corpus(cfg.seed)

    result = train_toy(corpus, cfg.train, model_cfg=cfg.model, feature_cfg=cfg.features)
    ckpt = out_dir / "checkpoint.ifc"
    save_checkpoint(result.model.parameters(), ckpt,
                    meta={"seed": cfg.seed, "rng": cfg.rng,
                          "recycles": cfg.model.recycles,
                          **_defining_settings(cfg),
                          "stopped_step": result.stopped_step,
                          "stopped_early": result.stopped_early})
    write_metrics_csv(result.log_rows, out_dir / "metrics.csv")
    m = result.final_metrics
    print(f"trained {result.stopped_step} steps "
          f"(early_stop={result.stopped_early}); final train "
          f"recovery={m.recovery:.2f}% ppl={m.perplexity:.4f}")
    print(f"checkpoint -> {ckpt}")
    return EXIT_OK


def _load_graph_for_infer(args, cfg: RunConfig):
    if args.features:
        if args.pdb:
            raise _UsageError("give either --features or --pdb, not both")
        graph = read_graph(args.features)
        dims = (graph.node_feats.shape[1], graph.edge_feats.shape[2])
        if dims != (cfg.features.node_dim, cfg.features.edge_dim):
            raise ShapeError(f"{args.features}: node/edge feature dims {dims} do not match the "
                             f"config's {(cfg.features.node_dim, cfg.features.edge_dim)}")
        return graph
    if not args.pdb:
        raise _UsageError("one of --features or --pdb is required")
    backbone = parse_pdb(_read_text(args.pdb), args.chain)
    return build_knn_graph(backbone, cfg.features)


def cmd_infer(args) -> int:
    cfg = _load_cfg(args)
    graph = _load_graph_for_infer(args, cfg)
    model, struct_p, seq_p = _model_and_priors(cfg, args.checkpoint, args.struct_prior,
                                               args.seq_prior)
    recycles = _stage_count(cfg, seq_p, args.recycles)

    result = recycle_infer(model, graph, struct_p, seq_p, recycles)
    sequence = str(result.predicted)
    header = f"{Path(args.pdb or args.features).stem}|stage={recycles}"
    if args.out_fasta:
        write_fasta(args.out_fasta, header, sequence)
        print(f"fasta -> {args.out_fasta}")
    else:
        print(f">{header}")
        print(sequence)

    if args.out_dist:
        payload = {
            "n": graph.n,
            "stages": recycles,
            "classes": "ACDEFGHIKLMNPQRSTVWY",
            "probs": [d.probs.tolist() for d in result.distributions],
        }
        Path(args.out_dist).write_text(json.dumps(payload))
        print(f"distributions -> {args.out_dist}")

    if args.ref_seq:
        ref = args.ref_seq
        if Path(ref).is_file():
            ref = read_fasta_file(ref)[0][1]
        loss = staged_loss(result.distributions, ref)
        m = compute_metrics(result.distributions[-1], ref)
        report = {"staged_loss": loss, "perplexity": m.perplexity, "recovery": m.recovery}
        print(json.dumps(report))
        if args.out_metrics:
            Path(args.out_metrics).write_text(json.dumps(report))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    pdbs = sorted(Path(args.dataset).glob("*.pdb"))
    if not pdbs:
        raise _UsageError(f"no .pdb files in {args.dataset}")
    model, struct_p, seq_p = _model_and_priors(cfg, args.checkpoint)
    recycles = _stage_count(cfg, seq_p, args.recycles)

    def one(path):
        backbone = parse_pdb(_read_text(path), args.chain)
        graph = build_knn_graph(backbone, cfg.features)
        result = recycle_infer(model, graph, struct_p, seq_p, recycles)
        ref = backbone.sequence
        fasta = path.with_suffix(".fasta")
        if fasta.is_file():
            try:
                entries = read_fasta_file(fasta)
            except ParseError as exc:
                raise ParseError(f"reference error: {fasta.name}: {exc}") from exc
            if not entries or len(entries[0][1]) != graph.n:
                raise ParseError(f"reference error: {fasta.name} has the wrong length")
            ref = entries[0][1]
        return {"protein": path.stem, "n": graph.n,
                "scored": sum(t in AA_INDEX for t in ref),
                "metrics": compute_metrics(result.distributions[-1], ref)}

    def row(path):
        # a protein that fails becomes an error row; the others still run
        try:
            return one(path)
        except InvfoldError as exc:
            return {"protein": path.stem, "error": str(exc)}

    with ThreadPoolExecutor(max_workers=min(args.jobs, len(pdbs))) as pool:
        rows = list(pool.map(row, pdbs))

    table = [("protein", "n", "recovery", "ppl", "error")]
    for r in rows:
        if "error" in r:
            table.append((r["protein"], "", "", "", r["error"]))
        else:
            m = r["metrics"]
            table.append((r["protein"], r["n"], f"{m.recovery:.6g}", f"{m.perplexity:.6g}", ""))
    # a protein with no scored residue has no figures to pool
    scored = [r for r in rows if r.get("scored")]
    pooled = pool_metrics([(r["metrics"], r["scored"]) for r in scored])
    if pooled is not None:
        table.append(("AGGREGATE", sum(r["n"] for r in scored), f"{pooled.recovery:.6g}",
                      f"{pooled.perplexity:.6g}", ""))
    # csv quotes a field that holds a comma, a quote or a newline
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(table)
    out = args.out or "metrics.csv"
    Path(out).write_text(text.getvalue())
    print(text.getvalue(), end="")
    print(f"metrics -> {out}")
    return EXIT_OK


_SUITES = ("resistance", "return-mass", "sensitivity", "contraction", "recycling",
           "oversmoothing")


def cmd_theory(args) -> int:
    cfg = _load_cfg(args)
    from .rng import RandomStream
    stream = RandomStream(cfg.seed, "theory-cli")
    report = {"suite": args.suite, "seed": cfg.seed}
    failed = False
    csv_rows = None

    if args.suite == "resistance":
        worst = {"violations": 0, "max_violation": -math.inf,
                 "sherman_morrison_residual": 0.0, "graphs": args.count}
        for i in range(args.count):
            child = stream.child(f"g{i}")
            n = int(child.child("n").integers(4, 13))
            g = theory_mod.random_connected_graph(child, n)
            alpha = child.child("alpha").gaussian((n,))
            rep = theory_mod.rank_one_resistance_check(g, alpha)
            worst["violations"] += rep["violations"]
            worst["max_violation"] = max(worst["max_violation"], rep["max_violation"])
            worst["sherman_morrison_residual"] = max(
                worst["sherman_morrison_residual"], rep["sherman_morrison_residual"])
        worst["ok"] = worst["violations"] == 0 and worst["sherman_morrison_residual"] <= 1e-8
        report.update(worst)
        failed = not worst["ok"]

    elif args.suite == "return-mass":
        if args.graph.startswith("star"):
            rep = theory_mod.return_mass(theory_mod.star_attention(int(args.graph[4:])))
        else:
            rep = theory_mod.return_mass(theory_mod.two_cycle_attention())
        report.update({"graph": args.graph, "per_node": rep.per_node.tolist(),
                       "mean": rep.mean})

    elif args.suite == "sensitivity":
        fixtures = theory_mod.random_sensitivity_fixtures(stream, args.count)
        rep = theory_mod.softmax_sensitivity_check(fixtures, eps=args.eps)
        report.update(rep)
        failed = not rep["ok"]

    elif args.suite in ("contraction", "oversmoothing", "recycling"):
        from .synthetic import random_backbone
        model, struct_p, seq_p = _model_and_priors(cfg, args.checkpoint)
        if args.suite == "contraction":
            graphs = [build_knn_graph(random_backbone(cfg.seed, 24, name=f"theory{i}"),
                                      cfg.features) for i in range(args.graphs)]
            rep = theory_mod.contraction_profile(model, graphs, struct_p, seq_p)
            report.update(rep)
            csv_rows = [("layer", "directional", "symmetric")] + [
                (i + 1, d, s) for i, (d, s) in enumerate(zip(rep["directional"],
                                                             rep["symmetric"]))]
            if args.alpha_dump:
                from .encoder import write_attention_dump
                with no_grad():
                    _, alphas, _ = model.run_stages(graphs[0], struct_p, seq_p, 1,
                                                    training=False)
                write_attention_dump(args.alpha_dump, alphas[0], graphs[0].neighbors)
                print(f"attention dump -> {args.alpha_dump}")
        elif args.suite == "oversmoothing":
            graph = build_knn_graph(random_backbone(cfg.seed, 24, name="theory0"),
                                    cfg.features)
            rep = theory_mod.oversmoothing_profile(model, graph, struct_p, seq_p)
            report.update(rep)
            csv_rows = [("layer", "bridge_on", "bridge_off")] + [
                (i, a, b) for i, (a, b) in enumerate(zip(rep["bridge_on"],
                                                         rep["bridge_off"]))]
        else:
            graph = build_knn_graph(random_backbone(cfg.seed, 24, name="theory0"),
                                    cfg.features)
            result = recycle_infer(model, graph, struct_p, seq_p, _stage_count(cfg, seq_p))
            losses = [staged_loss([d], graph.labels) for d in result.distributions]
            rep = theory_mod.recycling_monotonicity_report(losses)
            report.update(rep)
            csv_rows = [("stage", "loss")] + [(t + 1, v) for t, v in enumerate(losses)]

    print(json.dumps(report, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    if args.csv and csv_rows:
        with open(args.csv, "w") as fh:
            for row in csv_rows:
                fh.write(",".join(str(x) for x in row) + "\n")
    return EXIT_NUMERIC if failed else EXIT_OK


def _add_common(p):
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--seed", type=int, default=None,
                   help="seed override (fallback: config, then RIGA_SEED)")


def build_parser() -> _Parser:
    parser = _Parser(prog="invfold", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="PDB chain -> featurized-graph container")
    p.add_argument("pdb")
    p.add_argument("--chain", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ss", default=None, help="JSON list of secondary-structure classes")
    _add_common(p)
    p.set_defaults(fn=cmd_featurize)

    p = sub.add_parser("train", help="train on a PDB directory or the synthetic corpus")
    p.add_argument("--corpus", default=None, help="directory of .pdb files (default: synthetic)")
    p.add_argument("--chain", default="A")
    p.add_argument("--out-dir", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="predict a sequence with cascaded recycling")
    p.add_argument("--pdb", default=None)
    p.add_argument("--chain", default="A")
    p.add_argument("--features", default=None, help="featurized-graph container")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--recycles", type=_positive_int, default=None,
                   help="stages (default: model.recycles); 1 with a file --seq-prior")
    p.add_argument("--struct-prior", default=None, help="'stub' or embedding file")
    p.add_argument("--seq-prior", default=None, help="'stub' or embedding file")
    p.add_argument("--out-fasta", default=None)
    p.add_argument("--out-dist", default=None, help="JSON per-stage distributions")
    p.add_argument("--ref-seq", default=None, help="reference sequence or FASTA path")
    p.add_argument("--out-metrics", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="batch inference + metrics CSV")
    p.add_argument("--dataset", required=True, help="directory of .pdb (+ optional .fasta)")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--chain", default="A")
    p.add_argument("--recycles", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker threads, at least 1")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("theory", help="graph-theory diagnostic suites")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--graph", type=_graph_fixture, default="star3",
                   help="fixture for return-mass: star<N> (N >= 1) or cycle2")
    p.add_argument("--count", type=_positive_int, default=200,
                   help="graphs/fixtures to sweep, at least 1")
    p.add_argument("--graphs", type=_positive_int, default=3,
                   help="graphs for contraction, at least 1")
    p.add_argument("--eps", type=float, default=1e-4, help="finite step > 0 for sensitivity")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--csv", default=None, help="CSV series path")
    p.add_argument("--alpha-dump", default=None,
                   help="write per-layer attention weights (contraction suite)")
    _add_common(p)
    p.set_defaults(fn=cmd_theory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, OSError, InvalidParameter, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PARSE_ERRORS as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvfoldError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
