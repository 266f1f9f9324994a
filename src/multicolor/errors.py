"""Exception types and the default search guard shared across the package.

The CLI maps these onto exit codes: infeasible answers exit 1, bad input
exits 2, blown resource guards exit 3.
"""

# default cap on a search: the oracle's estimated branches, or the states
# the chromatic walk and search expand
DEFAULT_MAX_BRANCHES = 10_000_000


class InstanceFormatError(ValueError):
    """Raised when an instance document is malformed or inconsistent."""


class NotPermissibleError(Exception):
    """Raised when a coloring is requested for a weight that admits none."""

    def __init__(self, weight):
        super().__init__(f"weight {tuple(weight)} is not permissible")
        self.weight = tuple(weight)


class ResourceLimitExceeded(Exception):
    """Raised when a computation would exceed a configured size guard."""
