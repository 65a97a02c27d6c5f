"""Rate and size unit helpers.

All internal rates in the library are expressed in **bits per second** and all
counters in **bytes**, matching what SNMP interface counters expose and what
the paper's Fig. 2 plots (bytes/s).  These helpers keep conversions explicit
and readable at call sites.
"""

from __future__ import annotations

__all__ = ["mbps"]

_MEGA = 1_000_000


def mbps(value: float) -> float:
    """Megabits per second expressed in bits per second."""
    return float(value) * _MEGA
