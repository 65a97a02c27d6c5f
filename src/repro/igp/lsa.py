"""Link-state advertisements (LSAs).

Three LSA kinds are modelled, mirroring what the demo's OSPF deployment
actually floods:

* :class:`RouterLsa` — a router describing its adjacencies and their costs
  (OSPF type-1).
* :class:`PrefixLsa` — a router announcing reachability to a destination
  prefix at a given metric (OSPF type-5 external, which is how the video
  clients' "blue prefix" is injected in the demo).
* :class:`FakeNodeLsa` — the Fibbing *lie*: a fake node attached to a real
  router through a fake link, announcing a target prefix at a chosen metric,
  together with the forwarding address that the anchor router must use when
  the fake node is selected as next hop.  In the real system this is encoded
  as a combination of type-5 LSAs with forwarding addresses; here it is one
  self-contained object, which keeps the flooding and LSDB logic readable
  without changing the semantics the controller relies on.  Like a type-5
  change, installing one recomputes only the routes to its prefix, from the
  shortest-path tree the router already has: the fake node is a leaf of its
  anchor, never a vertex SPF runs over (:mod:`repro.igp.graph`).

Every LSA carries an origin, a sequence number and a ``withdrawn`` flag.  A
higher sequence number replaces an older instance of the same LSA (same
:class:`LsaKey`); a withdrawn instance removes it, like OSPF MaxAge flushing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Tuple

from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix
from repro.util.validation import check_non_negative, check_positive

__all__ = ["LsaKey", "Lsa", "RouterLsa", "PrefixLsa", "FakeNodeLsa", "ESTIMATED_LSA_BYTES"]

#: Rough on-the-wire size of one LSA, used only for overhead accounting in the
#: control-plane overhead benchmark (an OSPF type-5 LSA is 36 bytes plus
#: header; 64 bytes is a conservative, round figure).
ESTIMATED_LSA_BYTES = 64


@dataclass(frozen=True, order=True)
class LsaKey:
    """Identity of an LSA inside the LSDB: (kind, origin, discriminator)."""

    kind: str
    origin: str
    discriminator: str = ""

    def __str__(self) -> str:
        if self.discriminator:
            return f"{self.kind}:{self.origin}:{self.discriminator}"
        return f"{self.kind}:{self.origin}"


@dataclass(frozen=True)
class Lsa:
    """Base class for all LSAs."""

    origin: str
    sequence: int = 1
    withdrawn: bool = False

    def __post_init__(self) -> None:
        if self.sequence < 1:
            raise ValidationError(f"LSA sequence number must be >= 1, got {self.sequence}")

    @property
    def key(self) -> LsaKey:
        """Identity of this LSA in the LSDB.

        Subclasses override it with a ``cached_property``: the key is built
        once per instance (``withdraw``/``refresh`` make fresh objects, so it
        cannot go stale) and takes no part in equality, hashing or ordering.
        """
        raise NotImplementedError

    def newer_than(self, other: "Lsa") -> bool:
        """Whether this instance supersedes ``other`` (same key, higher sequence)."""
        if self.key != other.key:
            raise ValidationError(
                f"cannot compare sequence numbers of different LSAs ({self.key} vs {other.key})"
            )
        return self.sequence > other.sequence

    def withdraw(self) -> "Lsa":
        """A copy of this LSA marked withdrawn, with a bumped sequence number."""
        return replace(self, sequence=self.sequence + 1, withdrawn=True)

    def refresh(self) -> "Lsa":
        """A copy of this LSA with a bumped sequence number (re-origination)."""
        return replace(self, sequence=self.sequence + 1, withdrawn=False)

    @property
    def size_bytes(self) -> int:
        """Estimated wire size, for control-plane overhead accounting."""
        return ESTIMATED_LSA_BYTES


@dataclass(frozen=True)
class RouterLsa(Lsa):
    """A router's description of its directed adjacencies.

    ``links`` is a tuple of ``(neighbor_name, cost)`` pairs describing the
    cost of the directed edge ``origin -> neighbor``.
    """

    links: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        for neighbor, cost in self.links:
            if not neighbor:
                raise ValidationError("router LSA link has an empty neighbor name")
            check_positive(cost, f"cost of link {self.origin}->{neighbor}")

    @cached_property
    def key(self) -> LsaKey:
        return LsaKey(kind="router", origin=self.origin)

    @property
    def size_bytes(self) -> int:
        # 12 bytes per described link on top of a common header.
        return 24 + 12 * len(self.links)


@dataclass(frozen=True)
class PrefixLsa(Lsa):
    """A router announcing reachability to ``prefix`` at metric ``metric``."""

    prefix: Prefix = Prefix.parse("0.0.0.0/0")
    metric: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_non_negative(self.metric, "metric")

    @cached_property
    def key(self) -> LsaKey:
        return LsaKey(kind="prefix", origin=self.origin, discriminator=str(self.prefix))


@dataclass(frozen=True)
class FakeNodeLsa(Lsa):
    """A Fibbing lie: fake node + fake link + fake prefix announcement.

    Attributes
    ----------
    origin:
        The controller identifier originating the lie (used as LSDB origin).
    fake_node:
        Globally unique name of the fake node, the announcer of ``prefix``
        in the computation graph.
    anchor:
        Real router the fake node is attached to.  Only this router can ever
        select the fake node as a direct next hop.
    link_cost:
        Cost of the fake link ``anchor -> fake_node``.
    prefix / prefix_cost:
        Destination prefix announced by the fake node and its metric.  The
        cost of the fake path as seen from ``anchor`` is
        ``link_cost + prefix_cost``.
    forwarding_address:
        Name of the *physical* neighbor of ``anchor`` that traffic must be
        sent to when the fake node is chosen (the "mapping to interface" of
        Fig. 1c).  Resolution happens in :mod:`repro.igp.fib`.
    """

    fake_node: str = ""
    anchor: str = ""
    link_cost: float = 1.0
    prefix: Prefix = Prefix.parse("0.0.0.0/0")
    prefix_cost: float = 0.0
    forwarding_address: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.fake_node:
            raise ValidationError("fake node LSA needs a fake node name")
        if not self.anchor:
            raise ValidationError("fake node LSA needs an anchor router")
        if not self.forwarding_address:
            raise ValidationError("fake node LSA needs a forwarding address")
        if self.forwarding_address == self.fake_node:
            raise ValidationError("forwarding address cannot be the fake node itself")
        check_positive(self.link_cost, "link_cost")
        check_non_negative(self.prefix_cost, "prefix_cost")

    @cached_property
    def key(self) -> LsaKey:
        return LsaKey(kind="fake", origin=self.origin, discriminator=self.fake_node)

    @property
    def total_cost(self) -> float:
        """Cost of the fake path as seen from the anchor router."""
        return self.link_cost + self.prefix_cost

    @property
    def size_bytes(self) -> int:
        # A lie is implemented with a handful of type-5 LSAs in the real
        # system; 96 bytes is a conservative per-lie figure.
        return 96
