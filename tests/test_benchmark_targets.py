"""The benchmark's traced names still exist where it patches them.

`benchmark/tracer.py` swaps each (owner, attribute) that `targets` lists
for a timing wrapper, looked up in the owner's own namespace. A refactor
that renames a traced function, or moves a method to a base class, would
otherwise only fail a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import invfold

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_in_its_owners_namespace():
    targets = _tracer_module().targets(invfold)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert missing == []
