"""CLI surface: argument handling and experiment registry."""

import pytest

from repro import cli
from repro.cli import _EXPERIMENTS, _SUBCOMMANDS, main
from repro.experiments import idle_study
from repro.experiments.runner import SweepRunner, SweepSettings


class TestRegistry:
    def test_every_design_md_experiment_is_registered(self):
        expected = {
            "table1b", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9",
            "fig10", "interconnect-energy", "amortization", "headline",
        }
        assert expected <= set(_EXPERIMENTS)

    def test_extensions_registered(self):
        assert {
            "compression", "locality", "powergate", "edip", "sweetspot",
            "idle",
        } <= set(_EXPERIMENTS)


class TestArguments:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-an-experiment"])
        assert excinfo.value.code != 0

    def test_bench_is_not_a_command(self, capsys):
        # Simulator throughput is perfbench's job (make perf-gate).
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_help_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "experiment" in out
        assert "--no-cache" in out

    def test_all_runs_in_registry_order(self, capsys, monkeypatch):
        calls = []

        class _Rendered:
            def render(self):
                return ""

        def fake(name):
            def run(runner):
                calls.append(name)
                return _Rendered()

            return cli._Experiment(run)

        monkeypatch.setattr(
            cli, "_EXPERIMENTS", {name: fake(name) for name in _EXPERIMENTS}
        )
        assert main(["all"]) == 0
        # DESIGN.md's experiment index first, then the extensions.
        assert calls[:11] == [
            "table1b", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9",
            "fig10", "interconnect-energy", "amortization", "headline",
        ]
        assert calls == list(_EXPERIMENTS)

    def test_multiple_experiments_accepted(self, capsys):
        # 'tables' needs no simulation, so running it twice (deduplicated)
        # exercises the multi-experiment path cheaply.
        assert main(["tables", "tables"]) == 0
        out = capsys.readouterr().out
        assert out.count("Table III: simulated multi-module GPU") == 1


class TestExperimentOut:
    def test_idle_quick_out_writes_the_rendered_tables(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "idle.txt"
        assert main(["idle", "--quick", "--out", str(out)]) == 0
        runner = SweepRunner(SweepSettings(cache_dir=tmp_path / "cache"))
        expected = idle_study.run(runner, quick=True).render() + "\n"
        assert out.read_text() == expected
        assert f"wrote {out}" in capsys.readouterr().out


class TestDvfsSubcommand:
    def test_sweeps_the_ladder_and_reports_the_spot(self, capsys):
        assert main(["dvfs", "Stream", "--gpms", "2", "--ctas", "16"]) == 0
        out = capsys.readouterr().out
        assert "V/f sweep (edp)" in out
        assert "k40-boost" in out and "(anchor)" in out
        assert "<- sweet spot" in out
        assert "sweet spot:" in out

    def test_governed_flag_prints_decisions(self, capsys):
        assert main(
            ["dvfs", "Stream", "--gpms", "2", "--ctas", "16",
             "--kernels", "2", "--governed"]
        ) == 0
        out = capsys.readouterr().out
        assert "governed run:" in out
        assert "gpm0" in out and "gpm1" in out

    def test_ed2p_metric_accepted(self, capsys):
        assert main(
            ["dvfs", "BPROP", "--gpms", "1", "--ctas", "16",
             "--metric", "ed2p"]
        ) == 0
        assert "V/f sweep (ed2p)" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dvfs", "NotAWorkload"])
        assert excinfo.value.code != 0

    def test_governor_flag_prints_idle_run(self, capsys):
        assert main(
            ["dvfs", "Stream", "--gpms", "2", "--ctas", "16",
             "--kernels", "2", "--governor", "race-to-idle"]
        ) == 0
        out = capsys.readouterr().out
        assert "idle run (idle[race-to-idle]):" in out
        assert "gated cycles" in out

    def test_infeasible_cap_exits_with_one_line_error(self, capsys):
        # 4 GPMs draw far more than 1 W even at the ladder floor: the CLI
        # must reject the budget up front with a single stderr line and a
        # nonzero exit code, not a traceback after the ladder sweep.
        assert main(
            ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
             "--cap-watts", "1"]
        ) == 2
        captured = capsys.readouterr()
        assert "infeasible" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.strip().count("\n") == 0
        assert "V/f sweep" not in captured.out


class TestUnifiedErrorHandling:
    """Every subcommand maps ConfigError to one stderr line + exit 2."""

    @pytest.mark.parametrize(
        ("name", "argv"),
        [
            # A non-positive kernel count dies in workload validation.
            ("profile", ["profile", "Stream", "--kernels", "0"]),
            ("trace", ["trace", "Stream", "--ctas", "0"]),
            ("profile", ["profile", "Stream", "--ctas", "0"]),
            ("dvfs", ["dvfs", "Stream", "--ctas", "0"]),
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--cap-watts", "1"],
            ),
            # Malformed idle knobs: each must die in IdleConfig/SleepState
            # validation (or the upfront deadline-feasibility check) before
            # any simulation, through the same one-line guard.
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--entry-latency-cycles", "-5"],
            ),
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--governor", "gate-only", "--residual", "1.5"],
            ),
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--governor", "gate-only",
                 "--exit-latency-cycles", "99999999"],
            ),
            (
                "dvfs",
                # A deadline without the paced governor owns nothing.
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--deadline-us", "5"],
            ),
            (
                "dvfs",
                # Shorter than the roofline bound at f_max: rejected before
                # the ladder sweep, like an infeasible --cap-watts.
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--governor", "deadline-paced", "--deadline-us", "0.001"],
            ),
            (
                "dvfs",
                # A cap and a deadline cannot both own the point policy.
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--cap-watts", "200", "--governor", "deadline-paced",
                 "--deadline-us", "100"],
            ),
            (
                "profile",
                ["profile", "Stream", "--gpms", "4", "--ctas", "16",
                 "--residual", "-0.1"],
            ),
            ("capping", ["capping", "--quick", "--processes", "0"]),
            ("figures", ["figures", "--quick", "--processes", "0"]),
            ("sweetspot", ["sweetspot", "--processes", "0"]),
            # Shared experiment flags on an experiment that does not take
            # them, and --out with more than one experiment.
            ("tables", ["tables", "--quick"]),
            ("sweetspot", ["sweetspot", "--governor", "race-to-idle"]),
            ("tables", ["tables", "table1b", "--out", "tables.txt"]),
            # Screen knobs die in the one shared check, before any
            # simulation.
            (
                "capping",
                ["capping", "--quick", "--screen", "roofline", "--top-k", "0"],
            ),
            (
                "sweetspot",
                ["sweetspot", "--screen", "roofline", "--guard", "-1"],
            ),
        ],
    )
    def test_config_errors_are_one_line_exit_2(self, capsys, name, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {name}: ")
        assert "Traceback" not in captured.err
        assert captured.err.strip().count("\n") == 0

    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_every_subcommand_is_dispatched(self, capsys, name):
        # --help exits 0 through argparse, proving the subcommand exists.
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        assert f"repro {name}" in capsys.readouterr().out


class TestProfileSubcommand:
    def test_profile_reports_per_gpm_energy(self, capsys):
        assert main(["profile", "Stream", "--gpms", "2", "--ctas", "16"]) == 0
        out = capsys.readouterr().out
        assert "energy" in out
        assert "core scale" in out
        # One attribution row per GPM.
        assert len([
            line for line in out.splitlines()
            if line.strip().startswith(("0 ", "1 "))
        ]) >= 2
