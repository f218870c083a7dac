"""invfold: desk-scale inverse folding.

Invariant backbone featurization, an edge-keyed graph-attention encoder
with a gated global-context block and cascaded recycling, a small
reverse-mode tensor core, a toy training driver, and executable
graph-theory diagnostics. See README.md for the CLI.
"""

from .errors import InvfoldError
from .geometry import FeatureConfig, ResidueGraph, build_knn_graph
from .recycling import (
    InverseFoldModel,
    ModelConfig,
    PredictedSequence,
    SequenceDistribution,
    recycle_infer,
)
from .structure_io import ProteinBackbone, parse_pdb
from .training import Metrics, TrainConfig, metrics, staged_loss, train_toy

__version__ = "0.1.0"

__all__ = [
    "FeatureConfig",
    "InverseFoldModel",
    "InvfoldError",
    "Metrics",
    "ModelConfig",
    "PredictedSequence",
    "ProteinBackbone",
    "ResidueGraph",
    "SequenceDistribution",
    "TrainConfig",
    "build_knn_graph",
    "metrics",
    "parse_pdb",
    "recycle_infer",
    "staged_loss",
    "train_toy",
    "__version__",
]
