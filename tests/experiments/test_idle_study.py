"""Idle study: the governor-comparison outcome the issue pins.

The headline claim is workload-shaped and asserted here end-to-end against
real simulation: race-to-idle **beats** the plain utilization governor on
EDPSE for a bursty (straggler-wave) workload and **loses** on a steady
(balanced-wave) one.  Both directions matter — a sleep ladder that always
won would mean the pricing ignores the sprint's V² premium, and one that
always lost would mean the gated cycles are not actually being priced out.
"""

from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments import idle_study
from repro.experiments.runner import SweepRunner, SweepSettings


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    runner = SweepRunner(
        SweepSettings(
            cache_dir=tmp_path_factory.mktemp("idle_cache"), processes=2
        )
    )
    return idle_study.run(runner)


class TestHeadlineOrdering:
    def test_race_beats_utilization_on_a_bursty_workload(self, study):
        assert (
            study.edpse["race-to-idle"]["BPROP"]
            > study.edpse["utilization"]["BPROP"]
        )
        # The bursty mean agrees: racing pays off where stragglers gate.
        assert study.mean_edpse("race-to-idle", "bursty") > study.mean_edpse(
            "utilization", "bursty"
        )

    def test_race_loses_to_utilization_on_a_steady_workload(self, study):
        assert (
            study.edpse["race-to-idle"]["Stream"]
            < study.edpse["utilization"]["Stream"]
        )

    def test_sleep_fractions_follow_the_shape(self, study):
        # Gating engages on the straggler grid and barely on the balanced
        # one; governors without states never gate at all.
        for governor in ("gate-only", "race-to-idle", "deadline-paced"):
            assert study.slept[governor]["BPROP"] > 0.1
            assert study.slept[governor]["Stream"] < 0.1
        for governor in ("static", "utilization"):
            for workload in study.baseline:
                assert study.slept[governor][workload] == 0.0


class TestDeadlinePhase:
    def test_deadlines_derive_from_race_and_are_met(self, study):
        for workload, deadline in study.deadlines.items():
            race = study.record("race-to-idle", workload)
            paced = study.record("deadline-paced", workload)
            assert deadline == pytest.approx(
                race.counters.elapsed_cycles * idle_study.DEADLINE_SLACK
            )
            assert paced.counters.elapsed_cycles <= deadline

    def test_deadline_paced_requires_race(self, tmp_path):
        runner = SweepRunner(SweepSettings(cache_dir=tmp_path))
        with pytest.raises(ExperimentError, match="race-to-idle"):
            idle_study.run(
                runner, governors=("static", "deadline-paced")
            )


class TestResultSurface:
    def test_full_tier_matches_the_committed_log(self, study):
        committed = Path(__file__).parents[2] / "results" / "idle_study.txt"
        assert study.render() + "\n" == committed.read_text()

    def test_render_contains_headline_tables(self, study):
        text = study.render()
        assert "Idle study: EDPSE (%)" in text
        assert "bursty" in text and "steady" in text
        assert "race-to-idle" in text and "deadline-paced" in text
        assert "sleep fraction" in text.lower()
        assert "Deadline-paced budget" in text

    def test_unknown_lookups_raise(self, study):
        with pytest.raises(ExperimentError):
            study.record("static", "NotAWorkload")
        with pytest.raises(ExperimentError):
            study.mean_edpse("not-a-governor")

    def test_unknown_governor_rejected(self, tmp_path):
        runner = SweepRunner(SweepSettings(cache_dir=tmp_path))
        with pytest.raises(ExperimentError, match="unknown"):
            idle_study.run(runner, governors=("sprint-and-pray",))

    def test_quick_mode_keeps_both_shapes(self, tmp_path):
        runner = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=2))
        quick = idle_study.run(runner, quick=True)
        shapes = set(quick.shape.values())
        assert shapes == {"bursty", "steady"}
        assert set(quick.records) == {
            "static", "utilization", "race-to-idle"
        }
        # The quick grid still demonstrates the headline win.
        bursty = [w for w, s in quick.shape.items() if s == "bursty"][0]
        assert (
            quick.edpse["race-to-idle"][bursty]
            > quick.edpse["utilization"][bursty]
        )


class TestStudyConfigs:
    def test_governed_config_labels_are_distinct(self):
        labels = {
            idle_study.governed_config(g).label()
            for g in ("static", "utilization", "gate-only", "race-to-idle")
        }
        assert len(labels) == 4

    def test_deadline_paced_config_needs_a_deadline(self):
        with pytest.raises(ExperimentError, match="deadline_cycles"):
            idle_study.governed_config("deadline-paced")

    def test_unknown_governor_config_rejected(self):
        with pytest.raises(ExperimentError, match="unknown"):
            idle_study.governed_config("overclock")
