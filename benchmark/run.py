"""invfold benchmark: one workload per run, one JSON result on the last line.

    python3 benchmark/run.py --workload {design,train,featurize} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from the repository root; the package is imported from ./src. The run
generates its inputs from --seed, sets the program up, then repeats whole
rounds of the workload's operations until S seconds have passed, timing
each operation and checking its output outside the timed region.

--trace 0 prints the end-to-end metrics (setup_s, residues_per_s,
peak_rss_mb). --trace 1 alternates untraced and traced rounds, prints the
per-layer metrics with the tracing overhead, and writes every span to
.bench_out/spans-<workload>-seed<N>.jsonl. --tiny shrinks every input,
for the smoke test.

See benchmark/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so the figures do not depend on the caller's shell.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import startup  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_BEFORE = 2  # cold set-ups before the first round; one more follows every round
MIN_ROUNDS = 3  # untraced; each operation's time is its median over the rounds
MB = 2.0**20

LENGTHS = {
    # CATH-like spread; 300 is where the retained tape still fits in memory
    "design": {"full": (40, 90, 160, 300), "tiny": (20, 30)},
    # toy scale (complete graph at k = 48) plus a sparse k-NN chain
    "train": {"full": (33, 128), "tiny": (14, 20)},
    "featurize": {"full": (100, 200, 350, 500, 700, 1000), "tiny": (20, 40)},
}

END_TO_END = {"setup_s": "s", "residues_per_s": "residues/s", "peak_rss_mb": "MB"}

# (metric, unit, span name, field of the per-op summary)
PER_OP = [
    ("structure_io.parse_s", "s/op", "structure_io.parse", "total"),
    ("structure_io.noise_s", "s/op", "structure_io.noise", "total"),
    ("geometry.featurize_s", "s/op", "geometry.featurize", "total"),
    ("geometry.frames_s", "s/op", "geometry.frames", "total"),
    ("geometry.dihedrals_s", "s/op", "geometry.dihedrals", "total"),
    ("geometry.quaternions_s", "s/op", "geometry.quaternions", "total"),
    ("geometry.serialize_s", "s/op", "geometry.serialize", "total"),
    ("geometry.graph_bytes", "bytes/op", "geometry.serialize", "value"),
    ("geometry.edges", "edges/op", "geometry.featurize", "value"),
    ("recycling.priors_s", "s/op", "recycling.priors", "total"),
    ("recycling.embed_s", "s/op", "recycling.embed", "total"),
    ("recycling.stage_s", "s/op", "recycling.stage", "total"),
    ("recycling.decode_s", "s/op", "recycling.decode", "total"),
    ("recycling.stages", "count/op", "recycling.stage", "calls"),
    ("encoder.attention_s", "s/op", "encoder.attention", "total"),
    ("encoder.edge_mlp_s", "s/op", "encoder.edge_mlp", "total"),
    ("encoder.bridge_s", "s/op", "encoder.bridge", "total"),
    ("encoder.stack_self_s", "s/op", "encoder.stack", "self"),
    ("autodiff.backward_s", "s/op", "autodiff.backward", "total"),
    ("autodiff.backward_calls", "count/op", "autodiff.backward", "calls"),
    ("training.forward_s", "s/op", "training.forward", "total"),
    ("training.loss_s", "s/op", "training.loss", "total"),
    ("training.clip_s", "s/op", "training.clip", "total"),
    ("training.optimizer_s", "s/op", "training.optimizer", "total"),
    ("training.eval_s", "s/op", "training.eval", "total"),
    ("training.steps", "count/op", "training.optimizer", "calls"),
]
PER_SETUP = [
    ("nn.model_init_s", "s", "nn.model_init"),
    ("nn.checkpoint_load_s", "s", "nn.checkpoint_load"),
]


def load_invfold():
    """Import the package from ./src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    invfold = importlib.import_module("invfold")
    for name in ("autodiff", "encoder", "geometry", "nn", "recycling", "structure_io", "training"):
        importlib.import_module(f"invfold.{name}")
    if Path(invfold.__file__).resolve().parent != SRC / "invfold":
        raise SystemExit(f"invfold was imported from {invfold.__file__}, not from {SRC}")
    return invfold


# ---------------------------------------------------------------- workloads

class Workload:
    """`items` are one round's inputs; `op` times one, `check` judges its output."""

    checkpoint = None

    def run_checks(self, env):
        """Checks made once per run, outside the timed region."""
        return []


class Design(Workload):
    """PDB text -> parse_pdb -> build_knn_graph -> recycle_infer(T=3) -> sequence."""

    def __init__(self, invfold, seed, lengths):
        self.inv = invfold
        self.seed = seed
        self.items = inputs.proteins(seed, "design", lengths)
        features = invfold.geometry.FeatureConfig()
        cfg = invfold.recycling.ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim)
        self.checkpoint = OUT / "design.ifc"
        invfold.nn.save_checkpoint(invfold.recycling.InverseFoldModel(cfg, seed=seed).parameters(),
                                   self.checkpoint)

    def op(self, env, protein):
        inv = self.inv
        backbone = inv.structure_io.parse_pdb(protein.text, "A")
        graph = inv.geometry.build_knn_graph(backbone, env["features"])
        result = inv.recycling.recycle_infer(env["model"], graph, *env["providers"], startup.RECYCLES)
        str(result.predicted)
        return protein.n, (graph, result)

    def check(self, env, round_no, index, protein, out):
        graph, result = out
        errors = checks.distributions(result, protein.n)
        if index != round_no % len(self.items):
            return errors
        # one protein per round: recycling causality and a rigidly moved copy
        inv, model, providers = self.inv, env["model"], env["providers"]
        single = inv.recycling.recycle_infer(model, graph, *providers, 1)
        errors += checks.causality(result.distributions[0].probs, single)
        rotation = inputs.rigid_motion(np.random.default_rng([self.seed, round_no]))
        text = checks.rigid_copy(protein, rotation)
        moved = inv.geometry.build_knn_graph(inv.structure_io.parse_pdb(text, "A"), env["features"])
        errors += checks.se3(result, inv.recycling.recycle_infer(model, moved, *providers,
                                                                 startup.RECYCLES))
        return errors


class Featurize(Workload):
    """PDB text -> parse_pdb -> build_knn_graph -> serialize_graph -> container bytes."""

    def __init__(self, invfold, seed, lengths):
        self.inv = invfold
        self.seed = seed
        self.items = inputs.proteins(seed, "featurize", lengths)

    def op(self, env, protein):
        inv = self.inv
        backbone = inv.structure_io.parse_pdb(protein.text, "A")
        graph = inv.geometry.build_knn_graph(backbone, env["features"])
        data = inv.geometry.serialize_graph(graph)
        return protein.n, (backbone, graph, data)

    def check(self, env, round_no, index, protein, out):
        backbone, graph, data = out
        rng = np.random.default_rng([self.seed, round_no, index])
        return (checks.parsed(protein, backbone)
                + checks.graph(protein, graph, data, self.inv.geometry.deserialize_graph, rng))


class Train(Workload):
    """train_toy on a two-chain corpus, default TrainConfig, fixed step count."""

    def __init__(self, invfold, seed, lengths):
        self.inv = invfold
        self.seed = seed
        self.proteins = inputs.proteins(seed, "train", lengths)
        self.corpus = [invfold.structure_io.parse_pdb(p.text, "A") for p in self.proteins]
        # with two chains train_toy holds none out, so every step trains on
        # one of them and each epoch visits both
        if startup.TRAIN_STEPS % len(self.corpus):
            raise ValueError("the step count must cover whole epochs")
        self.residues = startup.TRAIN_STEPS // len(self.corpus) * sum(p.n for p in self.proteins)
        self.items = [self.corpus]
        self.first = None

    def op(self, env, corpus):
        result = self.inv.training.train_toy(corpus, env["train"])
        return self.residues, result

    def _graphs(self, env):
        return [self.inv.geometry.build_knn_graph(b, env["features"]) for b in self.corpus]

    def check(self, env, round_no, index, corpus, result):
        if self.first is not None:
            return checks.same_run(self.first, result)
        self.first = result
        graphs = self._graphs(env)
        initial = checks.stage_losses(env["model"], graphs, env["providers"])
        final = checks.stage_losses(result.model, graphs, env["providers"])
        return checks.loss_decreased(initial, final)

    def run_checks(self, env):
        toy = self._graphs(env)[0]
        return checks.directional_derivative(self.inv, env["model"], toy, env["providers"], self.seed)


WORKLOADS = {"design": Design, "train": Train, "featurize": Featurize}


# ---------------------------------------------------------------- measuring

def cold_setup_seconds(workload, checkpoint):
    """Seconds of one set-up in a fresh interpreter, import included."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "startup.py"), workload, str(SRC), str(checkpoint)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(bench, env, seconds, tracer=None, after_round=None):
    """Whole rounds until `seconds` have passed; returns per-op records.

    Untraced runs make at least MIN_ROUNDS rounds. With a tracer the first
    round warms up untraced; each later round runs every operation
    untraced, then traced, and one such round may do. `after_round` runs
    between rounds, outside the timed region.
    """
    records = []
    start = time.perf_counter()
    round_no = 0
    while True:
        for traced in ((False, True) if tracer and round_no else (False,)):
            for index, item in enumerate(bench.items):
                if tracer:
                    tracer.op = f"{round_no}/{index}" if traced else None
                wrap = tracer.installed() if traced else contextlib.nullcontext()
                record = {"traced": traced, "round": round_no, "index": index,
                          "residues": 0, "seconds": 0.0, "ok": False}
                try:
                    with wrap:
                        t0 = time.perf_counter()
                        residues, out = bench.op(env, item)
                        record["seconds"] = time.perf_counter() - t0
                    errors = bench.check(env, round_no, index, item, out)
                except Exception as exc:  # a raising operation counts as failed
                    errors = [f"{type(exc).__name__}: {exc}"]
                    residues = 0
                out = None  # the next operation should not share the memory peak
                for err in errors:
                    print(f"FAILED round {round_no} op {index}: {err}", file=sys.stderr)
                record.update(residues=residues, ok=not errors)
                records.append(record)
                print(f"op round={round_no} index={index} traced={int(traced)} residues={residues}"
                      f" seconds={record['seconds']:.4f} ok={int(record['ok'])}", file=sys.stderr)
        round_no += 1
        if after_round:
            after_round()
        if time.perf_counter() - start >= seconds and round_no >= (2 if tracer else MIN_ROUNDS):
            return records


def residues_per_second(records):
    """A round's residues over the sum of each operation's median time."""
    times, residues = {}, {}
    for r in records:
        if r["ok"] and not r["traced"]:
            times.setdefault(r["index"], []).append(r["seconds"])
            residues[r["index"]] = r["residues"]
    total = sum(statistics.median(t) for t in times.values())
    return sum(residues.values()) / total if total else 0.0


def layer_metrics(tracer, records, checkpoint):
    summary = tracer.summary()
    ops = [op for op in summary if op not in (None, "setup")]
    count = max(1, len([r for r in records if r["traced"]]))
    metrics = {}
    for name, unit, span, field in PER_OP:
        total = sum(summary[op][span][field] for op in ops if span in summary[op])
        metrics[name] = {"value": total / count, "unit": unit}
    peaks = [summary[op]["recycling.infer"]["peak"] for op in ops if "recycling.infer" in summary[op]]
    metrics["recycling.heap_peak_mb"] = {"value": max(peaks, default=0) / MB, "unit": "MB"}
    for name, unit, span in PER_SETUP:
        entry = summary["setup"].get(span)
        metrics[name] = {"value": entry["total"] if entry else 0.0, "unit": unit}
    size = checkpoint.stat().st_size if checkpoint else 0
    metrics["nn.checkpoint_bytes"] = {"value": size, "unit": "bytes"}
    plain = sum(r["seconds"] for r in records if r["round"] and not r["traced"])
    traced = sum(r["seconds"] for r in records if r["traced"])
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0), "unit": "%"}
    return metrics


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    invfold = load_invfold()
    OUT.mkdir(exist_ok=True)
    bench = WORKLOADS[args.workload](invfold, args.seed,
                                     LENGTHS[args.workload]["tiny" if args.tiny else "full"])

    tracer = Tracer(invfold) if args.trace else None
    setups = []

    def cold_setup():
        setups.append(cold_setup_seconds(args.workload, bench.checkpoint))

    if tracer:
        tracer.op = "setup"
        with tracer.installed():
            env = startup.set_up(args.workload, bench.checkpoint)
    else:
        for _ in range(SETUP_BEFORE):
            cold_setup()
        env = startup.set_up(args.workload, bench.checkpoint)

    records = measure(bench, env, args.seconds, tracer, None if tracer else cold_setup)
    run_errors = bench.run_checks(env)
    for err in run_errors:
        print(f"FAILED run check: {err}", file=sys.stderr)

    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    if tracer:
        metrics = layer_metrics(tracer, records, bench.checkpoint)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans -> {spans.relative_to(ROOT)}")
    else:
        rate = residues_per_second(records)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        values = {"setup_s": statistics.median(setups), "residues_per_s": rate, "peak_rss_mb": peak}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print("environment " + json.dumps(environment()))
    print(json.dumps({"correct": failed == 0 and not run_errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
