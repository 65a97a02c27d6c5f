"""Shared utilities used throughout the reproduction.

The sub-modules are intentionally small and dependency-free so that every
other package (IGP substrate, data plane, controller, ...) can rely on them
without creating import cycles:

``repro.util.prefixes``
    Minimal IPv4 prefixes (parsing, formatting, ordering) used to model
    announced destination prefixes.
``repro.util.units``
    ``mbps``: megabits per second in the library's bit/s.
``repro.util.timeline``
    A sorted event timeline used by the data-plane engine and the monitors.
``repro.util.validation``
    Argument-checking helpers that raise consistent error types.
``repro.util.stats``
    Small statistics helpers (EWMA, count-weighted mean and percentile).
``repro.util.errors``
    The exception hierarchy shared by every sub-package.
"""

from repro.util.errors import (
    ReproError,
    TopologyError,
    RoutingError,
    ControllerError,
    SimulationError,
    ValidationError,
)
from repro.util.prefixes import Prefix
from repro.util.units import mbps

__all__ = [
    "ReproError",
    "TopologyError",
    "RoutingError",
    "ControllerError",
    "SimulationError",
    "ValidationError",
    "Prefix",
    "mbps",
]
