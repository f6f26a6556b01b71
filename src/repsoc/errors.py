"""Exception hierarchy shared across the toolkit."""

__all__ = [
    "RepsocError",
    "InvalidArgumentError",
    "CapacityError",
    "UnsupportedError",
    "PreconditionError",
    "VacuityError",
    "CyclicityError",
]


class RepsocError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(RepsocError, ValueError):
    """An argument violates a documented precondition or invariant."""


class CapacityError(RepsocError):
    """A brute-force operation exceeds its configured scope cap; the message names the cap."""


class UnsupportedError(RepsocError):
    """The operation is not defined for these inputs (e.g. VC dimension with N > 2)."""


class PreconditionError(RepsocError):
    """A scenario-level premise fails (e.g. a non-privileged pair in an S-axiom)."""


class VacuityError(PreconditionError):
    """The premise of an axiom is unmet, making the scenario vacuous (e.g. an exact 0.5 tie)."""


class CyclicityError(RepsocError):
    """A privilege graph contains an SCC of size >= 3 where an acyclic one is required."""
