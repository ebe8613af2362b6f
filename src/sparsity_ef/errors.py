"""The exception types that ``cli.main`` maps to exit codes.

Kept apart from the modules that raise them, so that ``cli`` can catch
them without importing those modules up front.  Each module that raises
one of them imports it from here, so
``from sparsity_ef.lifted import InfeasibleLiftedPointError`` keeps
working.
"""

from __future__ import annotations


class GraphError(ValueError):
    """Malformed graph input (self-loop, duplicate edge, bad index, bad JSON)."""


class InstanceError(ValueError):
    """Instance outside the supported parameter window."""


class EnumerationGuardError(RuntimeError):
    """An enumeration would exceed its configured guard."""


class EmptyPolytopeError(ValueError):
    """The instance has no basis at all, so there is nothing to lift."""


class InfeasibleOrientationError(ValueError):
    """No orientation attains the requested in-degree vector.

    ``witness`` is a vertex set X with |F(X)| > sum_{v in X} m(v) when the
    failure is a subset violation, None when only the total count fails.
    """

    def __init__(self, message: str, witness: frozenset[int] | None = None):
        super().__init__(message)
        self.witness = witness


class InfeasibleLiftedPointError(ValueError):
    """A point claimed to lie in the lifted polytope violates one of its constraints."""
