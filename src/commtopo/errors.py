"""Exception hierarchy shared across the package, and the check of declared option values."""
from dataclasses import field, fields


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


def within(default, allowed):
    """A dataclass field with its allowed values: a tuple of choices, or an interval like "[0, inf)"."""
    return field(default=default, metadata={"within": allowed})


def check_within(obj) -> None:
    """Raise ``ConfigError`` for the first field of ``obj`` outside its declared values."""
    for f in fields(obj):
        allowed, value = f.metadata.get("within"), getattr(obj, f.name)
        if allowed is None or (value is None and f.default is None):  # None: left unset
            continue
        if isinstance(allowed, tuple):
            if value not in allowed:
                raise ConfigError(f"{f.name} must be one of {list(allowed)}, got {value!r}")
            continue
        lo, hi = (float(end) for end in allowed[1:-1].split(","))
        above = lo <= value if allowed[0] == "[" else lo < value
        below = value <= hi if allowed[-1] == "]" else value < hi
        if not (above and below):  # NaN fails every comparison, inf its open end
            raise ConfigError(f"{f.name} must be finite and lie in {allowed}, got {value!r}")


_KINDS = {str: "a string", int: "an integer", float: "a number", list: "a list"}


def check_types(obj: dict, **kinds) -> None:
    """Raise ``TypeError`` for the first key of ``kinds`` that the parsed JSON ``obj``
    maps to a value of another kind.  A kind is ``str``, ``int``, ``float`` (which
    takes an int too) or ``[kind]``, a list of that kind; a bool is no number."""
    for key, kind in kinds.items():
        if key in obj:
            _check_kind(obj[key], kind, key)


def check_numbers(value, name: str) -> None:
    """Raise ``TypeError`` unless the parsed JSON ``value`` is a number or a list,
    nested to any depth, of numbers; a bool, a string or null is no number."""
    if not isinstance(value, list):
        _check_kind(value, float, name)
        return
    for i, item in enumerate(value):
        if type(item) is not float and type(item) is not int:  # a bool is not of type int
            check_numbers(item, f"{name}[{i}]")


def _check_kind(value, kind, name: str) -> None:
    if isinstance(kind, list):
        _check_kind(value, list, name)
        for i, item in enumerate(value):
            _check_kind(item, kind[0], f"{name}[{i}]")
    elif isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"{name} must be {_KINDS[kind]}, got {type(value).__name__}")


class FitDegenerate(CommTopoError):
    """Histogram has too little spread for a Gaussian fit."""
