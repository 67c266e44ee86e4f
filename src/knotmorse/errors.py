"""Exception types raised by the package.

Bad input data (a PD code, a forest pair, a spanning tree), a matching that
fails an operation's precondition and an exceeded size cap raise subclasses
of KnotmorseError, so callers can catch that family at once.  Checks on
plain arguments raise ValueError instead: an edge tuple that is not a
matching (states._checked), an unknown filter, population or move kind, an
id that is no region, root or arc, rows that are not square (counting.det),
or a size out of range (the corpus generators, fibonacci_family_count).  A failed
internal cross-check, which valid input should never reach, raises
InvariantViolation; the CLI maps it to the invariant-violation exit code 4.
"""

from __future__ import annotations

__all__ = [
    "KnotmorseError",
    "MalformedSyntax",
    "ArcMultiplicityError",
    "EmptyDiagram",
    "NonPlanarCode",
    "ColouringConflict",
    "NotAcyclic",
    "NotAdmissible",
    "InvalidForest",
    "NotSpanning",
    "NotPerfectAdmissible",
    "ResourceLimit",
    "InvariantViolation",
]


class KnotmorseError(Exception):
    """Base class for all package errors."""


class MalformedSyntax(KnotmorseError):
    """PD text does not consist of well-formed X(a,b,c,d) crossings."""


class ArcMultiplicityError(KnotmorseError):
    """Some arc label does not occur exactly twice in the code."""


class EmptyDiagram(KnotmorseError):
    """The code contains no crossings."""


class NonPlanarCode(KnotmorseError):
    """Face tracing does not close up into a sphere (Euler check fails)."""


class ColouringConflict(KnotmorseError):
    """Chequerboard 2-colouring of the faces is inconsistent."""


class NotAcyclic(KnotmorseError):
    """The matching supports a monochromatic loop."""


class NotAdmissible(KnotmorseError):
    """The state leaves no unmatched region of some colour."""


class InvalidForest(KnotmorseError):
    """Edge/root data does not describe an orthogonal rooted forest pair."""


class NotSpanning(KnotmorseError):
    """The given edge set is not a spanning tree of its colour graph."""


class NotPerfectAdmissible(KnotmorseError):
    """The operation needs a perfect admissible state and was given less."""


class ResourceLimit(KnotmorseError):
    """A configured size cap was exceeded before the computation started;
    stage names the step that stopped and size the count it had reached."""

    def __init__(self, message: str, stage: str | None = None, size: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.size = size


class InvariantViolation(KnotmorseError):
    """An internal cross-check failed: two computations that must agree did not."""
