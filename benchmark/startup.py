"""The program's own set-up for each workload, timed in a fresh interpreter.

`set_up` imports invfold and builds what a workload's operations need:

  featurize  FeatureConfig
  design     FeatureConfig, InverseFoldModel, load_checkpoint +
             restore_parameters, stub structure and sequence providers
  train      FeatureConfig, TrainConfig, InverseFoldModel (the seeded
             initial model train_toy starts from), stub providers

Run as a script (`python3 startup.py WORKLOAD SRC_DIR CHECKPOINT`) it
times one cold set-up, import included, and prints the seconds as JSON.
"""

from __future__ import annotations

import json
import sys
import time

RECYCLES = 3
TRAIN_STEPS = 4


def set_up(workload: str, checkpoint=None) -> dict:
    from invfold import geometry, nn, recycling, training

    features = geometry.FeatureConfig()
    env = {"features": features}
    if workload == "featurize":
        return env
    if workload == "design":
        cfg = recycling.ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim)
        model = recycling.InverseFoldModel(cfg, seed=0)
        arrays, _ = nn.load_checkpoint(checkpoint)
        nn.restore_parameters(model.parameters(), arrays)
        seed = 0
    elif workload == "train":
        env["train"] = training.TrainConfig(max_steps=TRAIN_STEPS)
        seed = env["train"].seed
        cfg = recycling.ModelConfig(node_dim=features.node_dim, edge_dim=features.edge_dim,
                                    dropout=env["train"].dropout)
        model = recycling.InverseFoldModel(cfg, seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    env["model"] = model
    env["providers"] = (recycling.StubStructureProvider(dim=cfg.struct_dim, seed=seed),
                        recycling.StubSequenceProvider(dim=cfg.seq_dim, seed=seed))
    return env


if __name__ == "__main__":
    workload, src, checkpoint = sys.argv[1], sys.argv[2], sys.argv[3]
    sys.path.insert(0, src)
    start = time.perf_counter()
    set_up(workload, checkpoint)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
