"""The counter spine: every counter is declared once, on its dataclass field.

A counter family (``spf_*``, ``rib_*``, ``dp_*``, ``ctl_*``, ``fault_*``,
flooding) is a ``@dataclass`` deriving from :class:`Counters`
whose fields are declared with :func:`counter`, naming the key the value is
exported under.  ``snapshot()``, ``merge()`` and ``total()`` are derived from
those declarations, so adding a counter is one line plus its increment site.
Increments stay plain attribute adds on the instance.
"""

from __future__ import annotations

import functools
from dataclasses import field, fields
from typing import Dict, Iterable, Mapping, Tuple, Union

__all__ = ["Counters", "Number", "counter", "merge_snapshots"]

Number = Union[int, float]


def counter(key: str, default: Number = 0):
    """A dataclass field holding one counter, exported as ``key``."""
    return field(default=default, metadata={"key": key})


@functools.cache
def _exported(cls: type) -> Tuple[Tuple[str, str], ...]:
    """``(field name, exported key)`` of every counter ``cls`` declares."""
    return tuple(
        (spec.name, spec.metadata["key"])
        for spec in fields(cls)
        if "key" in spec.metadata
    )


class Counters:
    """Base of the counter dataclasses; see the module docstring."""

    def snapshot(self) -> Dict[str, Number]:
        """Plain-dict copy for reporting, keyed by the exported names."""
        return {key: getattr(self, name) for name, key in _exported(type(self))}

    def merge(self, other: "Counters") -> None:
        """Add ``other``'s counts into this instance (for fleet aggregation)."""
        for name, _key in _exported(type(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @classmethod
    def total(cls, parts: Iterable["Counters"]):
        """A fresh instance holding the sum of ``parts`` (zeros when empty)."""
        merged = cls()
        for part in parts:
            merged.merge(part)
        return merged


def merge_snapshots(snapshots: Iterable[Mapping[str, Number]]) -> Dict[str, Number]:
    """Key-wise sum of counter snapshots, keys in first-seen order.

    Values keep their type: integer counters stay ``int``, a float counter
    such as ``ctl_converge_seconds`` stays ``float``.  Snapshots with
    disjoint keys (one per family) simply concatenate.
    """
    merged: Dict[str, Number] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            merged[key] = merged.get(key, 0) + value
    return merged
