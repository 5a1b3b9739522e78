"""Exception types shared across the package."""


class Graph2TextError(Exception):
    """Base class for every error raised by this package."""


class GraphHasNoTriples(Graph2TextError):
    """A knowledge graph without any relation cannot be linearized."""


class CorpusParseError(Graph2TextError):
    """A corpus line failed to parse; the message names the line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class EmptyCorpus(Graph2TextError):
    """An operation that needs at least one pair received none."""


class ShapeError(Graph2TextError):
    """Tensor shapes are incompatible for the requested operation."""


class EmptyPoolError(Graph2TextError):
    """Mean pooling was asked to average over an empty position set."""


class UsageError(Graph2TextError):
    """An API contract was violated (e.g. backward without fresh grads)."""


class LengthError(Graph2TextError):
    """Input or output sequence exceeds the configured maximum length."""


class MarginalError(Graph2TextError):
    """Transport marginals are not strictly positive unit-sum vectors."""


class NumericError(Graph2TextError):
    """Non-finite values reached a numerical routine."""


class CheckpointError(Graph2TextError):
    """Checkpoint files are missing, truncated, or inconsistent."""


class EvalError(Graph2TextError):
    """Metric inputs are malformed (length mismatch, empty corpus, empty
    reference); an empty hypothesis is not, and scores 0."""
