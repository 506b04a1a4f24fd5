"""Exception types shared across the package."""

from __future__ import annotations


class EilabError(Exception):
    """Base class for every error raised by this package."""


class InvalidVertex(EilabError):
    """A vertex index is outside the graph's vertex range."""


class SelfLoopRejected(EilabError):
    """An edge with identical endpoints was supplied."""


class InvalidSurgery(EilabError):
    """An edge named for deletion (``SubgraphRegularity.edge_deleted``) is not in the graph."""


class TooLarge(EilabError):
    """Input exceeds a hard size limit of the requested operation."""


class MalformedGraph6(EilabError):
    """A graph6 line violates the wire format."""


class MalformedDocument(EilabError):
    """An edge-list document does not match the expected schema."""


class CapExceeded(EilabError):
    """An exact search refused to run (or finish) past its configured cap.

    ``best_bound``, when set, is an upper bound established before giving
    up.  It is a bound, never the exact value.
    """

    def __init__(self, message: str, best_bound: int | None = None):
        super().__init__(message)
        self.best_bound = best_bound


class WorkBoundExceeded(CapExceeded):
    """An exact search used up its work bound before it could answer."""


class NotApplicable(EilabError):
    """The operation is undefined for this input (e.g. edgeless graph)."""


class NotConnected(EilabError):
    """The operation requires a connected graph."""


class UnknownProperty(EilabError):
    """An unrecognized lemma/property tag was requested."""
