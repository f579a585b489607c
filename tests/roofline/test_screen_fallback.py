"""Screen fallback: runs the roofline model cannot score must not prune.

Two configurations make the analytical screen idle-blind or mix-blind:
sleep-state configs (the closed-form model prices no gating) and
phase-scheduled workloads (per-kernel instruction mixes break the
expectation-counter algebra).  Pruning on garbage scores there would be a
silent correctness bug, so :func:`screen_operating_points` degrades to
exhaustive — every point simulated — and records *why* in the
disposition.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dvfs.idle import IdleConfig
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.errors import ExperimentError
from repro.gpu.config import table_iii_config
from repro.roofline import RooflinePredictor
from repro.roofline.screen import (
    screen_fallback_reason,
    screen_operating_points,
)
from repro.workloads.llm import serving_spec
from repro.workloads.suite import shrunken_spec

POINTS = tuple(K40_VF_CURVE.point_at(mhz * 1e6) for mhz in (324, 562, 875))


@pytest.fixture(scope="module")
def flat_spec():
    return shrunken_spec("Stream", total_ctas=16, kernels=1)


@pytest.fixture(scope="module")
def phased_spec():
    return shrunken_spec("LLMServe", total_ctas=16, kernels=1)


class TestFallbackReason:
    def test_plain_run_has_no_reason(self, flat_spec):
        assert screen_fallback_reason(flat_spec, table_iii_config(2)) is None

    def test_idle_config_reason(self, flat_spec):
        config = replace(
            table_iii_config(2), idle=IdleConfig(governor="race-to-idle")
        )
        assert screen_fallback_reason(flat_spec, config) == "idle"

    def test_phase_schedule_reason(self, phased_spec):
        assert (
            screen_fallback_reason(phased_spec, table_iii_config(2))
            == "phase-schedule"
        )

    def test_idle_outranks_phase_schedule(self, phased_spec):
        config = replace(table_iii_config(2), idle=IdleConfig())
        assert screen_fallback_reason(phased_spec, config) == "idle"


class TestExhaustiveFallback:
    def _screen(self, spec, config):
        return screen_operating_points(
            RooflinePredictor(), spec, config, POINTS, top_k=1, guard=0
        )

    def test_idle_config_selects_every_point(self, flat_spec):
        config = replace(
            table_iii_config(2), idle=IdleConfig(governor="race-to-idle")
        )
        selected, disposition = self._screen(flat_spec, config)
        assert selected == POINTS
        assert disposition.fallback == "idle"
        assert disposition.simulated_points == len(POINTS)
        assert all(entry.simulated for entry in disposition.entries)

    def test_phased_spec_selects_every_point(self, phased_spec):
        selected, disposition = self._screen(
            phased_spec, table_iii_config(2)
        )
        assert selected == POINTS
        assert disposition.fallback == "phase-schedule"
        assert disposition.simulated_points == len(POINTS)


class TestPredictorRefusal:
    def test_predict_rejects_phase_schedules(self, phased_spec):
        with pytest.raises(ExperimentError, match="phase-scheduled"):
            RooflinePredictor().predict(phased_spec, table_iii_config(2))

    def test_calibration_reference_skips_unscoreable_goldens(self):
        # The committed error bound is fit over cases the predictor can
        # score; idle and phase-scheduled goldens must stay out of it.
        from repro.roofline.calibration import golden_pairs

        pairs = golden_pairs()
        assert pairs, "golden suite is empty"
        assert all(config.idle is None for _, _, config in pairs)
        assert all(spec.phases is None for _, spec, _ in pairs)
        names = {case for case, _, _ in pairs}
        assert not any("llm" in name for name in names)
