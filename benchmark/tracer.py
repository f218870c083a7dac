"""Spans around invfold's public functions, recorded from outside the package.

`Tracer.installed()` swaps each function that `targets` lists for a wrapper that
records a span (name, start, end, parent span, operation id) and restores
the originals on exit; nothing is wrapped outside that block, so the
untraced run pays nothing. Spans stay in memory until `write` dumps them
as JSON lines. A span's self time is its duration minus the durations of
its direct children; the program is single-threaded, so children nest
strictly inside their parent.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


def _run_stages_name(tracer, args, kwargs):
    training = kwargs.get("training", args[5] if len(args) > 5 else False)
    if training:
        return "training.forward"
    if tracer.inside("training.train_toy"):
        return "training.eval"
    return "recycling.run_stages"


def targets(invfold):
    """(owner, attribute, span name or naming function, hook) for every traced call.

    Functions imported by name into another module are patched there too,
    because the caller looks them up in its own namespace.
    """
    geometry, recycling, encoder = invfold.geometry, invfold.recycling, invfold.encoder
    training, nn, ad, sio = invfold.training, invfold.nn, invfold.autodiff, invfold.structure_io
    model = recycling.InverseFoldModel
    return [
        (sio, "parse_pdb", "structure_io.parse", None),
        (training, "inject_backbone_noise", "structure_io.noise", None),
        (geometry, "build_knn_graph", "geometry.featurize", "edges"),
        (training, "build_knn_graph", "geometry.featurize", "edges"),
        (geometry, "local_frames", "geometry.frames", None),
        (geometry, "dihedral_angles", "geometry.dihedrals", None),
        (geometry, "rotation_to_quaternion", "geometry.quaternions", None),
        (geometry, "serialize_graph", "geometry.serialize", "bytes"),
        (recycling, "recycle_infer", "recycling.infer", "heap"),
        (recycling.StubStructureProvider, "embed_structure", "recycling.priors", None),
        (recycling.StubSequenceProvider, "embed_sequence", "recycling.priors", None),
        (model, "__init__", "nn.model_init", None),
        (model, "embed_graph", "recycling.embed", None),
        (model, "run_stages", _run_stages_name, None),
        (model, "forward_stage", "recycling.stage", None),
        (model, "decode", "recycling.decode", None),
        (recycling, "encoder_stack", "encoder.stack", None),
        (encoder, "gau_attention", "encoder.attention", None),
        (encoder, "edge_update", "encoder.edge_mlp", None),
        (encoder, "global_context_bridge", "encoder.bridge", None),
        (ad, "backward", "autodiff.backward", None),
        (nn, "load_checkpoint", "nn.checkpoint_load", None),
        (nn, "restore_parameters", "nn.checkpoint_load", None),
        (training, "train_toy", "training.train_toy", None),
        (training, "staged_loss_tensor", "training.loss", None),
        (training, "clip_gradients", "training.clip", None),
        (training.AdamW, "step", "training.optimizer", None),
    ]


class Tracer:
    def __init__(self, invfold):
        self.invfold = invfold
        self.spans = []
        self.op = None
        self._stack = []

    def inside(self, name) -> bool:
        return any(self.spans[i]["name"] == name for i in self._stack)

    @contextmanager
    def span(self, name, hook=None):
        record = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                  "op": self.op, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._stack.append(record["id"])
        heap = hook == "heap"
        if heap:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if heap:
                record["value"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def _wrapper(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(tracer, args, kwargs) if callable(name) else name
            with tracer.span(span_name, hook) as record:
                result = fn(*args, **kwargs)
                if hook == "edges":
                    record["value"] = result.n * result.k
                elif hook == "bytes":
                    record["value"] = len(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in targets(self.invfold):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self):
        """{op: {span name: {"self", "total", "calls", "value", "peak"}}}.

        "total" sums durations, "self" subtracts direct children, "value"
        sums the hook values and "peak" keeps their largest.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(lambda: defaultdict(lambda: dict(self=0.0, total=0.0, calls=0, value=0, peak=0)))
        for s in self.spans:
            entry = out[s["op"]][s["name"]]
            duration = s["end"] - s["start"]
            entry["total"] += duration
            entry["self"] += duration - child_time[s["id"]]
            entry["calls"] += 1
            entry["value"] += s.get("value", 0)
            entry["peak"] = max(entry["peak"], s.get("value", 0))
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
