"""Exception hierarchy shared across the package."""


class CommTopoError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CommTopoError):
    """Matrix / vector sizes do not agree."""


class InvalidMembers(CommTopoError):
    """Member id list is not strictly ascending or contains out-of-range ids."""


class DegenerateTopology(CommTopoError):
    """Fewer than two active nodes; nothing to communicate over."""


class ValidationError(CommTopoError):
    """A value violates one of its structural invariants."""


class AnchoringError(CommTopoError):
    """Agent ids are not exactly 0..n_max-1."""


class FormatError(CommTopoError):
    """Input bytes could not be parsed."""


class EmbeddingUnavailable(CommTopoError):
    """The embedding backend failed to produce a vector."""


class InvalidOrder(CommTopoError):
    """Requested subgraph order is outside [2, n_max]."""


class ScoreUnavailable(CommTopoError):
    """The evaluator failed for a sampled graph; the graph is skipped."""


class MineUnderflow(CommTopoError):
    """Fewer scored graphs than the requested top-k for some task."""


class TrainingDiverged(CommTopoError):
    """Loss or parameters became non-finite during training."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"training diverged at step {step}: non-finite loss")


class CheckpointError(CommTopoError):
    """Checkpoint file is malformed or its shapes do not match the config."""


class BackendError(CommTopoError):
    """A chat backend failed after exhausting retries."""


class RunAborted(CommTopoError):
    """Execution stopped mid-run; carries the partial transcript."""

    def __init__(self, message: str, transcript=None):
        self.transcript = transcript or []
        super().__init__(message)


class ConfigError(CommTopoError):
    """Invalid configuration value."""


class FitDegenerate(CommTopoError):
    """Histogram has too little spread for a Gaussian fit."""
