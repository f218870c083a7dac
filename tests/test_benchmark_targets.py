"""The benchmark still finds what it builds on in the package.

`benchmark/tracer.py` swaps each (owner, attribute) that `targets` lists
for a timing wrapper, looked up in the owner's own namespace, and
`benchmark/startup.py` sets each workload up through the public API. A
refactor that renames a traced function, moves a method to a base class,
stops calling it, or changes that API would otherwise only fail a
benchmark run, or leave a metric reading 0.
"""

import importlib.util
from pathlib import Path

import invfold
from invfold.geometry import FeatureConfig
from invfold.nn import save_checkpoint
from invfold.recycling import InverseFoldModel, ModelConfig
from invfold.synthetic import random_backbone

from conftest import atom_line

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_in_its_owners_namespace():
    targets = _load("tracer").targets(invfold)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert missing == []


def test_every_workload_sets_up(tmp_path):
    features = FeatureConfig()
    model = InverseFoldModel(ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim))
    checkpoint = tmp_path / "model.ifc"
    save_checkpoint(model.parameters(), checkpoint)
    startup = _load("startup")
    assert set(startup.set_up("featurize", checkpoint)) == {"features"}
    for workload in ("design", "train"):
        env = startup.set_up(workload, checkpoint)
        assert {"features", "model", "providers"} <= set(env)
        assert len(env["model"].parameters()) == 129


def test_every_traced_span_fires(tmp_path):
    """A tiny pipeline under the tracer records every span the benchmark reads."""
    tracer_module = _load("tracer")
    tracer = tracer_module.Tracer(invfold)
    geometry, nn, recycling, training = (invfold.geometry, invfold.nn, invfold.recycling,
                                         invfold.training)
    features = FeatureConfig(k=6, rbf_count=4)
    pdb = "".join(atom_line(4 * i + a + 1, name, "ALA", "A", i + 1, *xyz) + "\n"
                  for i, atoms in enumerate(random_backbone(7, 12).coords())
                  for a, (name, xyz) in enumerate(zip(("N", "CA", "C", "O"), atoms)))
    cfg = ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim, hidden_dim=16,
                      layers=2, heads=2, struct_dim=8, seq_dim=8, recycles=2)
    checkpoint = tmp_path / "model.ifc"
    with tracer.installed():
        graph = geometry.build_knn_graph(invfold.structure_io.parse_pdb(pdb, "A"), features)
        geometry.serialize_graph(graph)
        model = recycling.InverseFoldModel(cfg, seed=0)
        nn.save_checkpoint(model.parameters(), checkpoint)
        nn.restore_parameters(model.parameters(), nn.load_checkpoint(checkpoint)[0])
        recycling.recycle_infer(model, graph, recycling.StubStructureProvider(dim=8, seed=0),
                                recycling.StubSequenceProvider(dim=8, seed=0), 2)
        training.train_toy([random_backbone(1, 12), random_backbone(2, 12)],
                           training.TrainConfig(max_steps=2, warmup_steps=1), model_cfg=cfg,
                           feature_cfg=features)
    expected = {name for _, _, name, _ in tracer_module.targets(invfold) if isinstance(name, str)}
    expected |= {"training.forward", "training.eval", "recycling.run_stages"}
    assert expected - {span["name"] for span in tracer.spans} == set()
