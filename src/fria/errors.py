"""The errors the array modules raise and the CLI maps to exit codes.

They live here, apart from ``mesh`` and ``fem``, so that the CLI can catch
them without importing numpy.
"""


class MeshError(ValueError):
    """Invalid mesh construction request."""


class SolverError(RuntimeError):
    """Iterative solve failed (non-convergence or indefinite system)."""
