"""End-to-end instrumentation coverage.

One traced multi-GPM simulation must produce events from all four
instrumented subsystems (engine, SM scheduler, memory hierarchy,
interconnect/DRAM) and populate the component metrics with the counts the
workload structure implies.
"""

import pytest

from repro.gpu.simulator import simulate
from repro.memory.hierarchy import REQUEST_HEADER_BYTES
from repro.tools.regen_goldens import GOLDEN_CONFIGS, GOLDEN_SPECS
from repro.tools.validate_trace import validate_trace
from repro.trace import ChromeTracer, MetricsRegistry
from repro.units import CACHE_LINE_BYTES
from repro.workloads.generator import build_workload

SPEC = GOLDEN_SPECS["shared-micro"]
CONFIG = GOLDEN_CONFIGS["4gpm-ring"]


@pytest.fixture(scope="module")
def traced_run():
    tracer = ChromeTracer()
    metrics = MetricsRegistry()
    result = simulate(
        build_workload(SPEC), CONFIG, tracer=tracer, metrics=metrics
    )
    return tracer, metrics, result


def _track_names(tracer: ChromeTracer) -> set[str]:
    return set(tracer._tids)


class TestTraceCoverage:
    def test_all_four_subsystems_emit_events(self, traced_run):
        tracer, _, _ = traced_run
        tracks = _track_names(tracer)
        assert "gpu" in tracks, "workload driver emitted no kernel spans"
        assert any(t.startswith("sm") and ".slot" in t for t in tracks), (
            "SM scheduler emitted no CTA spans"
        )
        assert any(t.endswith(".mem") for t in tracks), (
            "memory hierarchy emitted no events"
        )
        assert "interconnect" in tracks, "interconnect emitted no transfers"
        assert any(t.endswith(".dram") for t in tracks), (
            "DRAM channels emitted no service events"
        )
        assert "engine" in tracks, "engine emitted no process-lifetime spans"

    def test_trace_is_balanced_and_valid(self, traced_run):
        tracer, _, _ = traced_run
        assert tracer.open_spans() == {}
        assert validate_trace(tracer.export()) == []

    def test_kernel_spans_match_launch_structure(self, traced_run):
        tracer, _, _ = traced_run
        gpu_tid = tracer._tids["gpu"]
        kernel_begins = [
            e for e in tracer.events()
            if e["ph"] == "B" and e["tid"] == gpu_tid
        ]
        assert len(kernel_begins) == SPEC.kernels

    def test_event_timestamps_bounded_by_run_length(self, traced_run):
        tracer, _, result = traced_run
        for event in tracer.events():
            assert 0.0 <= event["ts"] <= result.cycles + 1e-9


class TestRemoteLegSpans:
    """Remote legs run as engine callbacks, not processes; their memory-track
    spans must survive the change one-for-one."""

    @staticmethod
    def _complete_spans(tracer, predicate):
        track_of = {tid: track for track, tid in tracer._tids.items()}
        return [
            (track_of[e["tid"]], e) for e in tracer.events()
            if e["ph"] == "X" and predicate(track_of[e["tid"]])
        ]

    def test_one_memory_span_per_remote_leg(self, traced_run):
        tracer, metrics, _ = traced_run
        legs = {"remote_load": [], "remote_store": []}
        for track, event in self._complete_spans(
            tracer, lambda track: track.endswith(".mem")
        ):
            kind, _, home = event["name"].partition("->g")
            legs[kind].append(event)
            # Spans live on the requester's track and name a remote home.
            assert track != f"gpm{home}.mem"
        wire = self._complete_spans(tracer, lambda track: track == "interconnect")
        headers = sum(1 for _, e in wire if e["args"]["bytes"] == REQUEST_HEADER_BYTES)
        lines = sum(1 for _, e in wire if e["args"]["bytes"] == CACHE_LINE_BYTES)
        # A load sends one header and gets one line back; a store sends a line.
        assert len(legs["remote_load"]) == headers > 0
        assert len(legs["remote_store"]) == lines - headers > 0
        assert len(legs["remote_load"]) == metrics.accumulator(
            "memory.remote_load_cycles"
        ).count
        assert len(legs["remote_store"]) == metrics.accumulator(
            "memory.remote_store_cycles"
        ).count

    def test_remote_legs_leave_no_engine_process_spans(self, traced_run):
        tracer, _, _ = traced_run
        names = {
            event["name"] for _, event in self._complete_spans(
                tracer, lambda track: track == "engine"
            )
        }
        assert not any(name.endswith((".rload", ".rstore")) for name in names)
        assert validate_trace(tracer.export()) == []


class TestMetricsCoverage:
    def test_cta_cycles_counts_every_cta(self, traced_run):
        _, metrics, _ = traced_run
        cta_cycles = metrics.accumulator("sm.cta_cycles")
        assert cta_cycles.count == SPEC.total_ctas * SPEC.kernels
        assert cta_cycles.mean > 0

    def test_remote_access_metrics_populated(self, traced_run):
        _, metrics, result = traced_run
        remote = metrics.accumulator("memory.remote_load_cycles")
        assert remote.count > 0
        assert remote.minimum >= CONFIG.interconnect.link_latency_cycles

    def test_interconnect_metrics_match_counters(self, traced_run):
        _, metrics, result = traced_run
        transfer_bytes = metrics.histogram("interconnect.transfer_bytes", 32.0)
        assert transfer_bytes.total > 0
        assert metrics.accumulator("interconnect.transfer_cycles").count > 0
        assert result.counters.inter_gpm_bytes > 0

    def test_dram_queue_metric_populated(self, traced_run):
        _, metrics, _ = traced_run
        assert metrics.accumulator("dram.queue_cycles").count > 0


class TestDefaultRunHasNoObservability:
    def test_untraced_run_keeps_null_tracer_and_empty_metrics(self):
        from repro.trace import NULL_TRACER

        result = simulate(build_workload(SPEC), CONFIG)
        assert result.metrics is not None
        assert len(result.metrics) > 0  # engine-owned registry still records
        # But no tracer was installed anywhere:
        assert NULL_TRACER.enabled is False
