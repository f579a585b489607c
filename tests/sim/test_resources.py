"""Bandwidth-server semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthServer, ThroughputServer


@pytest.fixture
def engine():
    return Engine()


class TestBandwidthServer:
    def test_idle_service(self, engine):
        server = BandwidthServer(engine, rate=10.0)
        assert server.reserve(100) == pytest.approx(10.0)

    def test_fcfs_queueing(self, engine):
        server = BandwidthServer(engine, rate=10.0)
        first = server.reserve(100)
        second = server.reserve(50)
        assert first == pytest.approx(10.0)
        assert second == pytest.approx(15.0)  # queued behind the first

    def test_earliest_bounds_start(self, engine):
        server = BandwidthServer(engine, rate=10.0)
        finish = server.reserve(100, earliest=50.0)
        assert finish == pytest.approx(60.0)

    def test_earliest_does_not_precede_queue(self, engine):
        server = BandwidthServer(engine, rate=10.0)
        server.reserve(1000)  # busy until t=100
        finish = server.reserve(10, earliest=5.0)
        assert finish == pytest.approx(101.0)

    def test_queue_delay(self, engine):
        server = BandwidthServer(engine, rate=1.0)
        assert server.queue_delay() == 0.0
        server.reserve(42)
        assert server.queue_delay() == pytest.approx(42.0)

    def test_accounting(self, engine):
        server = BandwidthServer(engine, rate=4.0)
        server.reserve(100)
        server.reserve(60)
        assert server.units_served == pytest.approx(160)
        assert server.requests == 2
        assert server.busy_time == pytest.approx(40.0)

    def test_utilization(self, engine):
        server = BandwidthServer(engine, rate=2.0)
        server.reserve(100)  # 50 cycles busy
        assert server.utilization(elapsed=100.0) == pytest.approx(0.5)
        assert server.utilization(elapsed=0.0) == 0.0
        # clamped at 1 even if elapsed shorter than busy
        assert server.utilization(elapsed=25.0) == 1.0

    def test_zero_size_reservation(self, engine):
        server = BandwidthServer(engine, rate=5.0)
        assert server.reserve(0) == pytest.approx(0.0)

    def test_negative_reservation_rejected(self, engine):
        server = BandwidthServer(engine, rate=5.0)
        with pytest.raises(SimulationError):
            server.reserve(-1)

    def test_nonpositive_rate_rejected(self, engine):
        with pytest.raises(SimulationError):
            BandwidthServer(engine, rate=0.0)

    def test_work_conserving_order(self, engine):
        """A far-future reservation must not block earlier arrivals...
        unless they arrive after it in call order — FCFS is by call order."""
        server = BandwidthServer(engine, rate=1.0)
        late = server.reserve(10, earliest=100.0)
        # The next call queues behind the horizon; this is why remote paths
        # reserve at actual arrival time via processes (see hierarchy docs).
        after = server.reserve(10)
        assert late == pytest.approx(110.0)
        assert after == pytest.approx(120.0)


class TestThroughputServer:
    def test_instruction_units(self, engine):
        issue = ThroughputServer(engine, rate=4.0)
        assert issue.reserve(8) == pytest.approx(2.0)

    def test_repr_mentions_instructions(self, engine):
        assert "instr" in repr(ThroughputServer(engine, rate=4.0))

