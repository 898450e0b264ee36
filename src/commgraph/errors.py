"""Exception types shared across the package."""


class CommGraphError(Exception):
    """Base class for all commgraph errors."""


class GraphBuildError(CommGraphError):
    """Raised when parallel edge weights sum to inf while a graph is assembled.

    Attributes:
        edge: 1-based position of the edge whose weight overflowed its
            collapsed sum.
    """

    def __init__(self, message: str, edge: int):
        super().__init__(message)
        self.edge = edge


class IngestError(CommGraphError):
    """Raised on unrecoverable input-file problems (bad header, duplicate labels)."""


class EmptyGraphError(CommGraphError):
    """Raised when an operation requires at least one node."""


class DegenerateGraphError(CommGraphError):
    """Raised when a normalization is undefined for the graph size."""


class UndefinedModularityError(CommGraphError):
    """Raised when modularity is requested on a graph with zero total edge weight."""


class PartitionMismatchError(CommGraphError):
    """Raised when two partitions do not cover the same node set."""


class ConvergenceError(CommGraphError):
    """Raised when an iterative solver exhausts its iteration budget.

    Attributes:
        residual: last observed L1 change between sweeps.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
