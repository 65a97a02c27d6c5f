"""The closed-loop benchmark: four workloads, end-to-end metrics, a layer trace.

See ``perf/README.md``.  Everything here drives ``src/repro`` through its
public constructors; nothing under ``src/`` knows this package exists.
"""
