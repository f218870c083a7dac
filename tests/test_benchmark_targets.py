"""The benchmark still finds what it builds on in the package.

`benchmark/tracer.py` swaps each (owner, attribute) that `targets` lists
for a timing wrapper, looked up in the owner's own namespace, and
`benchmark/startup.py` sets each workload up through the public API. A
refactor that renames a traced function, moves a method to a base class,
or changes that API would otherwise only fail a benchmark run.
"""

import importlib.util
from pathlib import Path

import invfold
from invfold.geometry import FeatureConfig
from invfold.nn import save_checkpoint
from invfold.recycling import InverseFoldModel, ModelConfig

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
