"""Exception types shared across the package.

Each input is checked once, before any stage runs: ingest raises
IngestError for the files, and `report.run_pipeline` raises
DegenerateGraphError or UndefinedModularityError for a graph too small
for the stages asked of it. The stage functions do not check again.
Warnings that do not stop a run go to stderr through `warn`.

A stage run in a forked worker (`graph.block_pool`) may raise its error
there: the pool pickles it through a pipe and raises it again in the
calling process, with its own type and text, so every error here pickles.
"""

import sys


def warn(message: str) -> None:
    """Write `message` and a newline to `sys.stderr`, looked up at each call.

    Every warning line goes through here, so a caller that swaps
    `sys.stderr` (a test's capture, say) receives them. The package does
    not import `logging`, whose import every CLI call would pay for.
    """
    sys.stderr.write(message + "\n")


class CommGraphError(Exception):
    """Base class for all commgraph errors."""


class IngestError(CommGraphError):
    """Raised on unrecoverable input-file problems (bad header, duplicate labels)."""


class DegenerateGraphError(CommGraphError):
    """Raised when a graph has too few nodes for a stage: metrics need 1, normalized centralities 2."""


class UndefinedModularityError(CommGraphError):
    """Raised by `report.run_pipeline` when community detection is asked of a graph with no edge."""


class ConvergenceError(CommGraphError):
    """Raised when an iterative solver exhausts its iteration budget.

    Attributes:
        residual: last observed L1 change between sweeps.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which lack `residual`
        return type(self), (self.args[0], self.residual)
