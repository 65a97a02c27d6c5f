"""Tests for repro.dataplane.flows and repro.dataplane.demand."""

import pytest

from repro.dataplane.demand import DemandEntry, TrafficMatrix
from repro.dataplane.flows import Flow, FlowSet
from repro.util.errors import SimulationError, ValidationError
from repro.util.prefixes import Prefix

PREFIX = Prefix.parse("10.0.0.0/24")
OTHER = Prefix.parse("10.1.0.0/24")


class TestFlow:
    def test_flow_fields(self):
        flow = Flow(flow_id=1, ingress="A", prefix=PREFIX, demand=1e6, label="video")
        assert flow.demand == 1e6
        assert "video" in str(flow)

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError):
            Flow(flow_id=-1, ingress="A", prefix=PREFIX, demand=1.0)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValidationError):
            Flow(flow_id=0, ingress="A", prefix=PREFIX, demand=0.0)

    def test_empty_ingress_rejected(self):
        with pytest.raises(ValidationError):
            Flow(flow_id=0, ingress="", prefix=PREFIX, demand=1.0)


class TestFlowSet:
    def test_create_assigns_increasing_ids(self):
        flows = FlowSet()
        first = flows.create("A", PREFIX, 1.0)
        second = flows.create("B", PREFIX, 1.0)
        assert second.flow_id == first.flow_id + 1
        assert len(flows) == 2

    def test_remove_and_get(self):
        flows = FlowSet()
        flow = flows.create("A", PREFIX, 1.0)
        assert flows.get(flow.flow_id) is flow
        removed = flows.remove(flow.flow_id)
        assert removed is flow
        assert flow.flow_id not in flows
        with pytest.raises(SimulationError):
            flows.get(flow.flow_id)

    def test_remove_missing_raises(self):
        with pytest.raises(SimulationError):
            FlowSet().remove(3)

    def test_iteration_is_sorted_by_id(self):
        flows = FlowSet()
        for ingress in "ABC":
            flows.create(ingress, PREFIX, 1.0)
        flows.remove(1)
        assert [flow.flow_id for flow in flows] == [0, 2]


class TestTrafficMatrix:
    def test_add_accumulates(self):
        matrix = TrafficMatrix()
        matrix.add("A", PREFIX, 10.0)
        matrix.add("A", PREFIX, 5.0)
        assert matrix.rate("A", PREFIX) == 15.0

    def test_missing_entry_is_zero(self):
        assert TrafficMatrix().rate("A", PREFIX) == 0.0

    def test_from_dict_accepts_string_prefixes(self):
        matrix = TrafficMatrix.from_dict({("A", "10.0.0.0/24"): 5.0})
        assert matrix.rate("A", PREFIX) == 5.0

    def test_prefixes_listed(self):
        matrix = TrafficMatrix.from_dict({("A", PREFIX): 1.0, ("B", OTHER): 2.0})
        assert matrix.prefixes == sorted([PREFIX, OTHER])

    def test_entries_skip_zero_rates(self):
        matrix = TrafficMatrix()
        matrix.add("A", PREFIX, 0.0)
        assert matrix.entries() == []
        assert len(matrix) == 0

    def test_demands_for_prefix(self):
        matrix = TrafficMatrix.from_dict({("A", PREFIX): 1.0, ("B", PREFIX): 2.0, ("B", OTHER): 4.0})
        assert matrix.demands_for(PREFIX) == {"A": 1.0, "B": 2.0}

    def test_total(self):
        matrix = TrafficMatrix.from_dict({("A", PREFIX): 1.5, ("B", OTHER): 2.5})
        assert matrix.total() == 4.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            TrafficMatrix().add("A", PREFIX, -1.0)

    def test_demand_entry_validation(self):
        with pytest.raises(ValidationError):
            DemandEntry(ingress="A", prefix=PREFIX, rate=-1.0)

    def test_empty_ingress_rejected(self):
        with pytest.raises(ValidationError):
            TrafficMatrix().add("", PREFIX, 1.0)


class TestTrafficMatrixOrderIndependence:
    """Aggregation regression: at flash-crowd scale, per-key sums built by
    naive left-to-right accumulation depend on arrival order — two matrices
    holding the same demands could disagree on rates and entries.  The
    contributions are now summed with ``math.fsum`` (correctly rounded), so
    any permutation of the same adds is indistinguishable, bit for bit."""

    CONTRIBUTIONS = [1e9, 0.1, 3.7e-4, 2.5e8, 1.0, 7.77e6, 0.003, 5e9, 12.0]

    def _matrix(self, order):
        matrix = TrafficMatrix()
        for index in order:
            matrix.add("A", PREFIX, self.CONTRIBUTIONS[index])
            matrix.add("B", OTHER, self.CONTRIBUTIONS[index] * 0.5)
        return matrix

    def test_shuffled_inputs_share_rate_and_digest(self):
        import random

        base_order = list(range(len(self.CONTRIBUTIONS)))
        reference = self._matrix(base_order)
        rng = random.Random(1234)
        for _ in range(10):
            order = base_order[:]
            rng.shuffle(order)
            shuffled = self._matrix(order)
            assert shuffled.rate("A", PREFIX) == reference.rate("A", PREFIX)
            assert shuffled.rate("B", OTHER) == reference.rate("B", OTHER)
            assert shuffled.entries() == reference.entries()
            assert shuffled.total() == reference.total()
