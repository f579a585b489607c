"""Governor policies and the governed simulation path."""

import pytest

from repro.dvfs.governor import (
    GpmObservation,
    StaticGovernor,
    UtilizationGovernor,
)
from repro.dvfs.operating_point import K40_OPERATING_POINT, K40_VF_CURVE
from repro.errors import ConfigError


class TestStaticGovernor:
    def test_pins_one_point(self):
        point = K40_VF_CURVE.point_at(562.0e6)
        governor = StaticGovernor(point=point)
        assert governor.initial_point(0) is point
        assert governor.decide(0, 0.1, K40_OPERATING_POINT) is point
        assert governor.decide(0, 0.9, K40_OPERATING_POINT) is point

    def test_point_must_lie_on_curve(self):
        from repro.dvfs.operating_point import OperatingPoint

        with pytest.raises(ConfigError):
            StaticGovernor(point=OperatingPoint(100e6, 0.7))


class TestUtilizationGovernor:
    def test_starts_at_anchor_by_default(self):
        governor = UtilizationGovernor()
        assert governor.initial_point(0) is K40_VF_CURVE.anchor

    def test_high_utilization_steps_up(self):
        governor = UtilizationGovernor()
        chosen = governor.decide(0, 0.9, K40_OPERATING_POINT)
        assert chosen.frequency_hz > K40_OPERATING_POINT.frequency_hz

    def test_low_utilization_steps_down(self):
        governor = UtilizationGovernor()
        chosen = governor.decide(0, 0.1, K40_OPERATING_POINT)
        assert chosen.frequency_hz < K40_OPERATING_POINT.frequency_hz

    def test_middle_utilization_holds(self):
        governor = UtilizationGovernor()
        assert governor.decide(0, 0.5, K40_OPERATING_POINT) is K40_OPERATING_POINT

    def test_watermarks_validated(self):
        with pytest.raises(ConfigError):
            UtilizationGovernor(high_watermark=0.3, low_watermark=0.5)

    def test_on_chip_interval_records_trace(self):
        governor = UtilizationGovernor()
        governor.on_chip_interval(
            [
                GpmObservation(
                    gpm_id=0, utilization=0.1, current=K40_OPERATING_POINT
                ),
                GpmObservation(
                    gpm_id=1, utilization=0.9, current=K40_OPERATING_POINT
                ),
            ],
            now=100.0,
            window_cycles=100.0,
        )
        assert len(governor.trace) == 2
        assert len(governor.decisions_for(0)) == 1
        decision = governor.decisions_for(0)[0]
        assert decision.utilization == 0.1
        assert decision.point.frequency_hz < K40_OPERATING_POINT.frequency_hz


class TestGovernedSimulation:
    @pytest.fixture(scope="class")
    def governed(self):
        from repro.gpu.config import table_iii_config
        from repro.gpu.simulator import simulate
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec("Stream", total_ctas=16, kernels=2)
        workload = build_workload(spec)
        config = table_iii_config(2)
        governor = UtilizationGovernor()
        result = simulate(workload, config, governor=governor)
        return governor, result

    def test_one_decision_per_kernel_per_gpm(self, governed):
        governor, _ = governed
        assert len(governor.trace) == 2 * 2  # kernels x GPMs
        assert len(governor.decisions_for(0)) == 2
        assert len(governor.decisions_for(1)) == 2

    def test_memory_bound_workload_steps_down(self, governed):
        governor, _ = governed
        # Stream idles its SMs on DRAM; the ondemand rule must not step up.
        final = governor.decisions_for(0)[-1].point
        assert final.frequency_hz <= K40_OPERATING_POINT.frequency_hz

    def test_static_governor_matches_ungoverned_run(self):
        from repro.gpu.config import table_iii_config
        from repro.gpu.simulator import simulate
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec("BPROP", total_ctas=16, kernels=1)
        workload = build_workload(spec)
        config = table_iii_config(2)
        plain = simulate(workload, config)
        pinned = simulate(workload, config, governor=StaticGovernor())
        assert pinned.cycles == plain.cycles
        assert pinned.counters.sm_busy_cycles == plain.counters.sm_busy_cycles

    def test_residency_covers_the_run(self):
        from repro.gpu.config import table_iii_config
        from repro.gpu.multigpu import MultiGpu
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec("Stream", total_ctas=16, kernels=2)
        workload = build_workload(spec)
        gpu = MultiGpu(table_iii_config(2), governor=UtilizationGovernor())
        counters = gpu.run(workload)
        for gpm_id in (0, 1):
            residency = gpu.dvfs_residency[gpm_id]
            assert sum(residency.values()) == pytest.approx(
                counters.elapsed_cycles
            )
