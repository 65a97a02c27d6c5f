"""Outside-in span tracer for the traced benchmark pass.

Nothing under ``src/`` is edited: for the duration of one traced rep this
module swaps wrappers in around the public callables at each layer boundary
and around every action handed to ``Timeline.schedule``, records one span
per call, and puts the originals back afterwards.

A span is ``[id, parent, cause, chain, name, layer, start, end]``:

* ``parent`` — the span that was running when this one started (it encloses
  this one in wall-clock time); ``-1`` at top level.
* ``cause`` — for timeline events only: the span that *scheduled* the event,
  which has usually long returned.  ``-1`` otherwise.
* ``chain`` — the id of the span the work is causally descended from.
  Deferred control-plane work (LSA deliveries, SPF runs, FIB installs and
  whatever they call) inherits the chain of the span that scheduled it, so
  everything one reaction or one link failure set in motion shares one id.
  Periodic events (polls, samples), arrivals, faults and each
  ``core.react`` start a chain of their own.
* ``layer`` — the top-level package under ``src/repro`` the wrapped callable
  lives in (``bench`` for the harness's own spans).

Spans stay in memory; :meth:`Tracer.write_jsonl` dumps them when the rep is
over.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "SPAN_FIELDS", "EVENT_KINDS", "TARGETS",
           "ID", "PARENT", "CAUSE", "CHAIN", "NAME", "LAYER", "START", "END"]

SPAN_FIELDS = ("id", "parent", "cause", "chain", "name", "layer", "start", "end")
ID, PARENT, CAUSE, CHAIN, NAME, LAYER, START, END = range(8)

#: Timeline label prefix -> (layer, inherits the chain of its cause).
EVENT_KINDS: Dict[str, Tuple[str, bool]] = {
    "spf": ("igp", True),
    "fib-install": ("igp", True),
    "lsa-delivery": ("igp", True),
    "lsa-injection": ("igp", True),
    "snmp-poll": ("monitoring", False),
    "snmp-poll-retry": ("monitoring", True),
    "dataplane-sample": ("dataplane", False),
    "arrivals": ("video", False),
    "ctl-reaction": ("core", True),
    "ctl-shard-wave": ("core", True),
    "fault": ("core", False),
}

#: (module, class or None for a module-level function, attribute, span name,
#: layer).  Methods are patched on the class that defines them.
TARGETS: Tuple[Tuple[str, str | None, str, str, str], ...] = (
    ("repro.util.timeline", "Timeline", "run_until", "timeline.run", "util"),
    ("repro.util.timeline", "Timeline", "run_all", "timeline.run", "util"),
    ("repro.monitoring.alarms", "UtilizationAlarm", "check", "monitoring.alarm_check", "monitoring"),
    ("repro.core.loadbalancer", "OnDemandLoadBalancer", "react", "core.react", "core"),
    ("repro.core.loadbalancer", "OnDemandLoadBalancer", "build_requirements", "core.requirements", "core"),
    ("repro.core.optimizer", "MinMaxLoadOptimizer", "optimize", "core.lp", "core"),
    ("repro.core.merger", "LieMerger", "optimize", "core.merge", "core"),
    ("repro.core.merger", "LieMerger", "optimize_requirement", "core.merge_one", "core"),
    ("repro.core.controller", "FibbingController", "enforce", "core.enforce", "core"),
    ("repro.core.controller", "FibbingController", "resync", "core.resync", "core"),
    ("repro.igp.network", "IgpNetwork", "start", "igp.boot", "igp"),
    ("repro.igp.network", "IgpNetwork", "converge", "igp.boot", "igp"),
    ("repro.igp.network", "IgpNetwork", "inject", "igp.inject", "igp"),
    ("repro.igp.network", None, "compute_static_fibs", "igp.static_fibs", "igp"),
    ("repro.igp.graph", "ComputationGraph", "from_lsdb", "igp.graph_build", "igp"),
    ("repro.igp.graph", "ComputationGraph", "from_topology", "igp.graph_build", "igp"),
    ("repro.igp.spf_cache", "SpfCache", "spf", "igp.spf", "igp"),
    ("repro.igp.rib_cache", "RibCache", "resolve", "igp.ribfib", "igp"),
    ("repro.dataplane.engine", "DataPlaneEngine", "add_flows", "dataplane.arrivals", "dataplane"),
    ("repro.dataplane.engine", "AggregateDemandEngine", "add_classes", "dataplane.arrivals", "dataplane"),
    ("repro.dataplane.engine", "DataPlaneEngineBase", "notify_routing_change", "dataplane.reroute", "dataplane"),
    ("repro.dataplane.engine", "DataPlaneEngine", "routing_flaws", "dataplane.flaws", "dataplane"),
    ("repro.dataplane.engine", "AggregateDemandEngine", "routing_flaws", "dataplane.flaws", "dataplane"),
    ("repro.dataplane.forwarding", None, "route_flows_hashed", "dataplane.pathwalk", "dataplane"),
    ("repro.dataplane.forwarding", None, "route_class_sessions", "dataplane.pathwalk", "dataplane"),
    ("repro.dataplane.path_cache", "WarmStartAllocator", "update", "dataplane.waterfill", "dataplane"),
    ("repro.dataplane.fairness", None, "fill_component", "dataplane.waterfill", "dataplane"),
    ("repro.dataplane.fairness", None, "max_min_fair_allocation", "dataplane.waterfill", "dataplane"),
    ("repro.video.qoe", None, "aggregate_qoe", "video.qoe", "video"),
)

#: Span names that start a causal chain of their own.
CHAIN_ROOTS = frozenset({"core.react"})


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str, layer: str, inherit: bool, cause: int | None = None) -> list:
        """Start a span; a call inherits its parent's chain, an event its cause's."""
        spans, stack = self.spans, self._stack
        span_id = len(spans)
        parent = stack[-1] if stack else -1
        source = parent if cause is None else cause
        chain = spans[source][CHAIN] if inherit and source >= 0 else span_id
        span = [span_id, parent, -1 if cause is None else cause, chain, name, layer,
                time.perf_counter(), 0.0]
        spans.append(span)
        stack.append(span_id)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func: Callable, name: str, layer: str) -> Callable:
        inherit = name not in CHAIN_ROOTS

        def traced(*args, **kwargs):
            span = self._open(name, layer, inherit)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = func
        return traced

    def _wrap_schedule(self, schedule: Callable) -> Callable:
        stack = self._stack

        def traced_schedule(timeline, time, action, label=""):
            prefix = label.partition(":")[0]
            layer, inherit = EVENT_KINDS.get(prefix, ("bench", False))
            name = "event:" + (label if prefix == "fault" else prefix)
            cause = stack[-1] if stack else -1

            def traced_action():
                span = self._open(name, layer, inherit, cause)
                try:
                    return action()
                finally:
                    self._close(span)

            return schedule(timeline, time, traced_action, label)

        traced_schedule.__wrapped__ = schedule
        return traced_schedule

    @contextmanager
    def span(self, name: str, layer: str = "bench") -> Iterator[None]:
        """A harness-level span around a block of the benchmark's own code."""
        span = self._open(name, layer, inherit=True)
        try:
            yield
        finally:
            self._close(span)

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Swap every wrapper in (idempotent until :meth:`uninstall`)."""
        if self._undo:
            return
        for module_name, owner_name, attr, name, layer in TARGETS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                self._patch_function(getattr(module, attr), attr, name, layer)
            else:
                self._patch_method(getattr(module, owner_name), attr, name, layer)
        timeline_cls = importlib.import_module("repro.util.timeline").Timeline
        original = vars(timeline_cls)["schedule"]
        self._set(timeline_cls, "schedule", self._wrap_schedule(original), original)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: object, attr: str, wrapper: object, original: object) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_method(self, cls: type, attr: str, name: str, layer: str) -> None:
        raw = vars(cls)[attr]  # KeyError if the method moved to a base class
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self._wrap(raw.__func__, name, layer))
        else:
            wrapper = self._wrap(raw, name, layer)
        self._set(cls, attr, wrapper, raw)

    def _patch_function(self, func: Callable, attr: str, name: str, layer: str) -> None:
        # ``from m import f`` copies the reference into the importer's
        # namespace, so every module of the program or the benchmark holding it is patched.
        wrapper = self._wrap(func, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(("repro", "perf")):
                continue
            if vars(module).get(attr) is func:
                self._set(module, attr, wrapper, func)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def write_jsonl(self, path) -> None:
        """One JSON object per span, keys as :data:`SPAN_FIELDS`."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))))
                handle.write("\n")
