"""Exception hierarchy shared across the package, and the size and
number checks that the config records share."""

import numbers


class InvfoldError(Exception):
    """Base class for all package errors."""


class ParseError(InvfoldError):
    """Input text could not be parsed as PDB content."""


class ChainNotFound(InvfoldError):
    """Requested chain identifier has no ATOM records in the file."""


class EmptyBackbone(InvfoldError):
    """No residues survived filtering."""


class InvalidRotation(InvfoldError):
    """Matrix is not a proper rotation (orthonormal, det +1)."""


class InvalidParameter(InvfoldError):
    """Parameter outside its documented range."""


def check_count(record, name: str, low: int) -> None:
    """InvalidParameter unless record.<name> is an int (not a bool) in
    [low, 2**31); larger sizes would only fail deep inside numpy."""
    value = getattr(record, name)
    if isinstance(value, bool) or not hasattr(value, "__index__") or not low <= value < 2**31:
        raise InvalidParameter(f"{name} must be an integer in [{low}, 2**31), got {value!r}")


def check_number(record, name: str, low: float, high: float, bounds: str = "[]") -> None:
    """InvalidParameter unless record.<name> is a real number (not a bool)
    between low and high; `bounds` gives the brackets, "[)" for a
    half-open interval. NaN is never inside."""
    value = getattr(record, name)
    inside = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and (low <= value if bounds[0] == "[" else low < value)
              and (value <= high if bounds[1] == "]" else value < high))
    if not inside:
        raise InvalidParameter(f"{name} must be a number in {bounds[0]}{low}, {high}{bounds[1]}, "
                               f"got {value!r}")


class DegenerateFrame(InvfoldError):
    """A residue's atoms are collinear; no local frame exists."""

    def __init__(self, residue_index, message=None):
        self.residue_index = residue_index
        super().__init__(message or f"degenerate local frame at residue {residue_index}")


class GraphTooSmall(InvfoldError):
    """Fewer than two residues; no neighbor graph can be built."""


class NumericError(InvfoldError):
    """Non-finite value encountered in a numeric operation."""


class InvalidBackward(InvfoldError):
    """backward() called on a non-scalar or already-consumed graph."""


class ShapeError(InvfoldError):
    """Tensor or embedding dimensions are incompatible."""


class IsolatedNode(InvfoldError):
    """A node with no neighbors reached the attention layer."""


class TrainingDiverged(InvfoldError):
    """Loss or gradient became non-finite during training."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"training diverged at step {step}")


class EmptyLoss(InvfoldError):
    """Every residue is masked; the loss is undefined."""


class InvalidAttention(InvfoldError):
    """Attention rows are not stochastic."""


class InfiniteResistance(InvfoldError):
    """Effective resistance requested on a disconnected graph."""


class ConfigError(InvfoldError):
    """Configuration file violates the schema."""


class CheckpointMismatch(InvfoldError):
    """Checkpoint parameters do not match the model configuration."""
