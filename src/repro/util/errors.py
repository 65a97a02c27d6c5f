"""Exception hierarchy shared by every sub-package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong type, range, or format)."""


class TopologyError(ReproError):
    """The topology is malformed or an element is missing.

    Raised for example when adding a link between unknown routers, when a
    prefix is attached to a non-existent router, or when a lookup references
    an element that was removed.
    """


class RoutingError(ReproError):
    """A routing computation failed.

    Raised when SPF cannot reach a destination that a caller requires, when a
    FIB resolution encounters a dangling fake node, or when a forwarding graph
    contains a loop.
    """


class ControllerError(ReproError):
    """The Fibbing controller could not satisfy a request.

    Raised for example when a requested forwarding DAG is not enforceable
    (cyclic requirements), when the optimizer fails to find a feasible
    solution, or when lies reference unknown topology elements.
    """


class SimulationError(ReproError):
    """The data-plane or control-plane simulation reached an invalid state."""


class MonitoringError(ReproError):
    """A monitoring component (counter, poller, collector) misbehaved."""
