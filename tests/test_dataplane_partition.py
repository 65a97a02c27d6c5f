"""The ECMP branch partition of class walks and the byte-cohort id algebra.

``route_class_sessions`` partitions a session population at every ECMP
branch with :func:`repro.dataplane.forwarding._partition_sessions` and the
aggregate engine refines its byte cohorts with
:func:`repro.dataplane.engine._ids_intersect`.  Both are pinned here against
the straightforward per-id loops they replaced, which are kept below as the
reference implementations, plus guards on the work (one sha256 per session
per branch) and the memory (bounded chunks) of a partition.  The partition
takes its scalar loop for small populations and its numpy form above
``_SCALAR_PARTITION_MAX``; the two are pinned bitwise against each other
on both sides of that size.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import forwarding
from repro.dataplane.engine import _INTERSECT_CHUNK, _ids_equal, _ids_intersect
from repro.dataplane.forwarding import (
    _PARTITION_CHUNK as CHUNK,
    _SCALAR_PARTITION_MAX as SCALAR_MAX,
    _bucket_indices,
    _hash_fraction,
    _hash_fractions,
    _partition_numpy,
    _partition_scalar,
    _partition_sessions,
    _pick_next_hop,
    _split_thresholds,
    route_class_sessions,
)
from repro.igp.fib import Fib, FibEntry, PrefixFib, _truncate
from repro.util.prefixes import Prefix

PREFIX = Prefix.parse("10.9.0.0/24")


# --------------------------------------------------------------------------- #
# Reference implementations: the per-id loops the numpy paths replaced
# --------------------------------------------------------------------------- #
def reference_partition(ids, split, router, salt):
    buckets = {}
    for session_id in ids:
        choice = _pick_next_hop(split, _hash_fraction(session_id, router, salt))
        bucket = buckets.get(choice)
        if bucket is None:
            bucket = array("q")
            buckets[choice] = bucket
        bucket.append(session_id)
    return {next_hop: buckets[next_hop] for next_hop in sorted(buckets)}


def reference_intersect(left, right):
    out = array("q")
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            out.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return out if len(out) else None


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def prefix_fib(*weights, max_ecmp=None):
    entries = [FibEntry(next_hop=f"N{index}", weight=weight) for index, weight in enumerate(weights)]
    truncated = False
    if max_ecmp is not None:
        entries, truncated = _truncate(entries, max_ecmp)
    return PrefixFib(prefix=PREFIX, cost=1.0, entries=tuple(entries), truncated=truncated)


SPLITS = {
    "1:1": prefix_fib(1, 1).split_ratios(),
    "1:2": prefix_fib(1, 2).split_ratios(),
    "1:1:1": prefix_fib(1, 1, 1).split_ratios(),
    "3:5": prefix_fib(3, 5).split_ratios(),
    "1:1:1:1": prefix_fib(1, 1, 1, 1).split_ratios(),
    # 3:2:2:1 cut down to a total weight of 6: 3:2:1 over three hops.
    "truncated": prefix_fib(3, 2, 2, 1, max_ecmp=6).split_ratios(),
}
SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]
SALTS = [0, 1, 2**31 - 1]
# "%" and braces would be format directives if the digest input were
# templated carelessly.
ROUTERS = ["R1", "edge-7", "R%d{}%%"]


def population(kind, size, start=1_000):
    if kind == "range":
        return range(start, start + size)
    # Ascending with a gap after every third id.
    ids = [start + index + index // 3 for index in range(size)]
    return array("q", ids) if kind == "array" else ids


def test_truncated_split_is_a_real_truncation():
    fib = prefix_fib(3, 2, 2, 1, max_ecmp=6)
    assert fib.truncated
    assert [entry.weight for entry in fib.entries] == [3, 2, 1]


# --------------------------------------------------------------------------- #
# Partition == per-session loop
# --------------------------------------------------------------------------- #
def assert_same_partition(ids, split, router, salt):
    got = _partition_sessions(ids, split, router, salt)
    want = reference_partition(ids, split, router, salt)
    assert list(got.items()) == list(want.items())
    assert all(type(bucket) is array and bucket.typecode == "q" for bucket in got.values())


@pytest.mark.parametrize("kind", ["range", "array", "list"])
@pytest.mark.parametrize("size", SIZES)
def test_partition_matches_reference_at_chunk_boundaries(kind, size):
    assert_same_partition(population(kind, size), SPLITS["1:2"], "R1", 0)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["range", "array", "list"]),
    size=st.sampled_from(SIZES),
    start=st.integers(min_value=1, max_value=2**40),
    split=st.sampled_from(sorted(SPLITS)),
    router=st.sampled_from(ROUTERS),
    salt=st.sampled_from(SALTS),
)
def test_partition_matches_reference(kind, size, start, split, router, salt):
    assert_same_partition(population(kind, size, start), SPLITS[split], router, salt)


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(st.integers(min_value=0, max_value=2**62), max_size=40),
    router=st.sampled_from(ROUTERS),
    salt=st.integers(min_value=-(2**40), max_value=2**40),
)
def test_hash_fractions_equal_the_scalar_hash(ids, router, salt):
    got = _hash_fractions(ids, router, salt)
    assert got.dtype == np.float64
    assert got.tolist() == [_hash_fraction(session_id, router, salt) for session_id in ids]


# 2-, 3-, 4- and 16-way splits, even and skewed.
WAY_SPLITS = {
    "2-way": SPLITS["1:2"],
    "3-way": SPLITS["1:1:1"],
    "3-way-truncated": SPLITS["truncated"],
    "4-way": SPLITS["1:1:1:1"],
    "16-way": prefix_fib(*[1 + index % 3 for index in range(16)]).split_ratios(),
}


def assert_bitwise_same(got, want):
    assert list(got) == list(want)  # the same next hops, in the same order
    for next_hop, bucket in got.items():
        other = want[next_hop]
        assert type(bucket) is type(other) is array
        assert bucket.typecode == other.typecode == "q"
        assert bucket.tobytes() == other.tobytes()


@pytest.mark.parametrize("split", sorted(WAY_SPLITS))
@pytest.mark.parametrize("kind", ["range", "array"])
def test_scalar_partition_is_bitwise_the_numpy_one(split, kind):
    for size in range(1, SCALAR_MAX + 2):
        for salt in SALTS:
            for router in ROUTERS:
                ids = population(kind, size, start=7 + 31 * size)
                args = (ids, WAY_SPLITS[split], router, salt)
                assert_bitwise_same(_partition_scalar(*args), _partition_numpy(*args))


def test_partition_switches_to_numpy_just_past_the_size_constant(monkeypatch):
    calls = []
    monkeypatch.setattr(forwarding, "_partition_numpy", lambda *args: calls.append(len(args[0])))
    for size in (1, SCALAR_MAX, SCALAR_MAX + 1):
        _partition_sessions(range(size), SPLITS["1:1"], "R1", 0)
    assert calls == [SCALAR_MAX + 1]


def test_partition_of_an_empty_population_is_empty():
    assert _partition_sessions(range(5, 5), SPLITS["1:1"], "R1", 0) == {}


# --------------------------------------------------------------------------- #
# Bucket choice == _pick_next_hop on hand-made fractions
# --------------------------------------------------------------------------- #
ROUNDING_TAIL = {"a": 0.7, "b": 0.2, "c": 0.1}


def edge_fractions(split):
    _, thresholds = _split_thresholds(split)
    fractions = [0.0, 1.0, math.nextafter(1.0, 0.0)]
    for cumulative in thresholds.tolist():
        fractions += [cumulative, math.nextafter(cumulative, 0.0), math.nextafter(cumulative, 2.0)]
    return fractions


@pytest.mark.parametrize("name", sorted(SPLITS) + ["rounding-tail"])
def test_bucket_choice_matches_pick_next_hop(name):
    split = ROUNDING_TAIL if name == "rounding-tail" else SPLITS[name]
    next_hops, thresholds = _split_thresholds(split)
    fractions = edge_fractions(split)
    chosen = _bucket_indices(thresholds, np.array(fractions, dtype=np.float64))
    assert [next_hops[index] for index in chosen] == [
        _pick_next_hop(split, fraction) for fraction in fractions
    ]


def test_rounding_tail_goes_to_the_last_hop():
    _, thresholds = _split_thresholds(ROUNDING_TAIL)
    assert thresholds[-1] == math.nextafter(1.0, 0.0)  # one ulp short of 1
    tail = np.array([thresholds[-1], math.nextafter(1.0, 0.0), 1.0])
    assert _bucket_indices(thresholds, tail).tolist() == [2, 2, 2]
    assert _pick_next_hop(ROUNDING_TAIL, float(thresholds[-1])) == "c"


# --------------------------------------------------------------------------- #
# _ids_intersect == linear merge
# --------------------------------------------------------------------------- #
def as_kind(ids, kind):
    return ids if kind == "range" else array("q", ids)


def assert_same_intersection(left, right):
    got = _ids_intersect(left, right)
    want = reference_intersect(left, right)
    if want is None:
        assert got is None
        return
    assert got is not None and list(got) == list(want)
    assert list(got) == sorted(set(got))
    if isinstance(left, range) and isinstance(right, range):
        assert isinstance(got, range)


BIG = 3 * _INTERSECT_CHUNK + 7
NAMED_CASES = {
    "disjoint": (range(0, 100), range(100, 200)),
    "disjoint-interleaved": (range(0, 400, 2), range(1, 400, 2)),
    "identical": (range(50, 150), range(50, 150)),
    "nested": (range(0, 1_000), range(250, 300)),
    "interleaved": (range(0, 600, 2), range(0, 600, 3)),
    "single-element": (range(42, 43), range(0, 100)),
    "single-element-miss": (range(0, 100, 2), range(41, 42)),
    "crossing-chunks": (range(0, 2 * BIG, 2), range(_INTERSECT_CHUNK // 2, _INTERSECT_CHUNK // 2 + BIG)),
    "crossing-chunks-sparse": (range(7, 3 * BIG, 3), range(0, 2 * BIG, 2)),
}


@pytest.mark.parametrize("name", sorted(NAMED_CASES))
@pytest.mark.parametrize("kinds", ["range-range", "range-array", "array-range", "array-array"])
def test_intersect_named_cases(name, kinds):
    left, right = NAMED_CASES[name]
    left_kind, right_kind = kinds.split("-")
    # A stepped population is only ever an array.
    if left.step != 1:
        left_kind = "array"
    if right.step != 1:
        right_kind = "array"
    assert_same_intersection(as_kind(left, left_kind), as_kind(right, right_kind))
    assert_same_intersection(as_kind(right, right_kind), as_kind(left, left_kind))


@st.composite
def id_populations(draw):
    kind = draw(st.sampled_from(["range", "array"]))
    start = draw(st.integers(min_value=0, max_value=3 * _INTERSECT_CHUNK))
    size = draw(st.sampled_from([1, 2, 17, _INTERSECT_CHUNK - 1, _INTERSECT_CHUNK + 1, BIG]))
    if kind == "range":
        return range(start, start + size)
    step = draw(st.integers(min_value=1, max_value=4))
    phase = draw(st.integers(min_value=0, max_value=5))
    ids = range(start, start + size * step, step)
    # Drop a periodic pattern of ids so the array has irregular gaps.
    return array("q", [i for index, i in enumerate(ids) if (index + phase) % 7 != 0 or size == 1])


@settings(max_examples=150, deadline=None)
@given(left=id_populations(), right=id_populations())
def test_intersect_matches_linear_merge(left, right):
    assert_same_intersection(left, right)


def test_intersect_empty_inputs_are_none():
    assert _ids_intersect(range(0), array("q", [1])) is None
    assert _ids_intersect(array("q"), array("q", [1])) is None


# --------------------------------------------------------------------------- #
# _ids_equal: O(1) for a step-1 range against an array
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    ("left", "right", "equal"),
    [
        (range(10, 20), array("q", range(10, 20)), True),
        (range(10, 20), array("q", range(11, 21)), False),  # same length, shifted
        (range(10, 20), array("q", [10, 11, 12, 13, 15, 16, 17, 18, 19, 20]), False),
        (range(10, 20), array("q", [9, 11, 12, 13, 14, 15, 16, 17, 18, 19]), False),
        (range(10, 20), array("q", range(10, 19)), False),  # shorter
        (range(5, 5), array("q"), True),
        (range(0, 20, 2), array("q", [0, 2, 4, 6, 8, 10, 12, 14, 15, 18]), False),
        (range(0, 20, 2), array("q", range(0, 20, 2)), True),
        (array("q", [1, 3]), [1, 3], True),
        (array("q", [1, 3]), array("q", [1, 4]), False),
    ],
)
def test_ids_equal(left, right, equal):
    assert _ids_equal(left, right) is equal
    assert _ids_equal(right, left) is equal


def test_ids_equal_range_against_array_reads_two_elements():
    class CountingArray(array):
        reads = 0

        def __getitem__(self, index):
            CountingArray.reads += 1
            return super().__getitem__(index)

    ids = CountingArray("q", range(100_000))
    assert _ids_equal(range(100_000), ids)
    assert CountingArray.reads == 2


# --------------------------------------------------------------------------- #
# Work and memory guards
# --------------------------------------------------------------------------- #
def fib_table(routes):
    """``{router: {next_hop: weight}}`` (empty dict: local delivery) as FIBs."""
    fibs = {}
    for router, next_hops in routes.items():
        entries = tuple(FibEntry(next_hop=hop, weight=weight) for hop, weight in sorted(next_hops.items()))
        fibs[router] = Fib(
            router, {PREFIX: PrefixFib(prefix=PREFIX, cost=1.0, entries=entries, local=not next_hops)}
        )
    return fibs


@pytest.fixture
def sha256_calls(monkeypatch):
    calls = []

    def counting_sha256(data=b""):
        calls.append(1)
        return hashlib.sha256(data)

    monkeypatch.setattr(forwarding, "hashlib", SimpleNamespace(sha256=counting_sha256))
    return calls


def test_one_sha256_per_session_per_branch(sha256_calls):
    # A splits 1:1 to B and C, both forward to D, D splits 1:2 to E and F.
    fibs = fib_table(
        {"A": {"B": 1, "C": 1}, "B": {"D": 1}, "C": {"D": 1}, "D": {"E": 1, "F": 2}, "E": {}, "F": {}}
    )
    sessions = range(3_000, 3_000 + 5_000)
    groups, splits = route_class_sessions(fibs, "A", PREFIX, sessions)
    # Every session is hashed at A and again at D (as two partitions, one
    # per upstream bucket), never at the single-next-hop routers.
    assert splits == 3
    assert len(sha256_calls) == 2 * len(sessions)
    assert sum(group.count for group in groups) == len(sessions)


def test_single_next_hop_walk_hashes_nothing(sha256_calls):
    fibs = fib_table({"A": {"B": 1}, "B": {"C": 1}, "C": {}})
    groups, splits = route_class_sessions(fibs, "A", PREFIX, range(0, 100_000))
    assert splits == 0
    assert sha256_calls == []
    assert [(group.hops, group.ids) for group in groups] == [(("A", "B", "C"), range(0, 100_000))]


GUARD_IDS = 400_000


def partition_peak_bytes():
    ids = range(10**6, 10**6 + GUARD_IDS)
    tracemalloc.start()
    try:
        buckets = _partition_sessions(ids, SPLITS["1:1"], "R1", 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(bucket) for bucket in buckets.values()) == GUARD_IDS
    return peak


def memory_bound():
    return 8 * GUARD_IDS + 2 * 1024 * 1024


def test_partition_memory_is_output_plus_bounded_scratch():
    assert partition_peak_bytes() <= memory_bound()


def test_memory_guard_catches_an_unchunked_partition(monkeypatch):
    monkeypatch.setattr(forwarding, "_PARTITION_CHUNK", 10 * GUARD_IDS)
    assert partition_peak_bytes() > memory_bound()
