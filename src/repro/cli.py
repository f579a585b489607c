"""Command-line entry point: ``python -m repro <experiment>``.

Runs any of the paper's experiments from the shell and prints the same
rows/series the paper's table or figure reports.  ``all`` runs everything in
DESIGN.md's experiment-index order, then the extensions.  ``--quick``,
``--screen``/``--top-k``/``--guard`` and ``--governor`` apply only to the
experiments whose ``_EXPERIMENTS`` row accepts them; ``--out PATH`` also
writes one experiment's rendered tables to a file.

Subcommands sit beside the experiments (see ``docs/OBSERVABILITY.md``):

* ``repro trace <workload>`` — simulate a scaled-down copy of a Table II
  workload with the Chrome tracer attached and write a ``trace_event`` JSON
  file viewable at https://ui.perfetto.dev.
* ``repro profile <workload>`` — simulate the same scaled-down copy and print
  the component metrics (CTA runtimes, DRAM queueing, remote-access
  latencies, interconnect transfers) plus a counter summary.
* ``repro dvfs <workload>`` — sweep the same scaled-down copy over the K40
  V/f ladder, print delay/energy/EDP per operating point, and report the
  energy sweet spot (see ``docs/POWER.md``); ``--governed`` additionally runs
  the utilization governor and prints its per-GPM decisions;
  ``--cap-watts`` runs the chip under a power budget and prints the
  power-capping governor's decisions with residency-priced energy;
  ``--governor`` adds per-GPM sleep states (race-to-idle, deadline-paced,
  gate-only, or utilization) and prints the gated residency.
* ``repro roofline`` — score a workload's V/f ladder with the closed-form
  roofline predictor and compare against simulation (see docs/MODELING.md).
* ``repro figures`` — regenerate every ``fig*`` log in ``results/``
  (see EXPERIMENTS.md).

Every subcommand maps configuration errors (bad DVFS grids, infeasible
power caps, non-positive CTA or kernel counts) to a single
``repro <cmd>: <message>`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from repro.experiments import (
    amortization_study,
    capping_study,
    config_tables,
    compression_study,
    edip_study,
    headline,
    idle_study,
    interconnect_energy_study,
    locality_ablation,
    powergate_study,
    sweetspot_study,
    table1b_epi_ept,
    topology_study,
)
from repro.experiments.figures import FIGURES, run_figures
from repro.experiments.runner import SweepRunner, SweepSettings


class _Experiment(NamedTuple):
    """One ``repro <experiment>`` row: its runner and the flags it takes."""

    #: ``f(runner, **options)``: ``quick`` if accepted, screen/governor
    #: options only when given.
    run: Callable
    #: Accepted shared flags, out of ``quick``, ``screen``, ``governor``.
    flags: tuple[str, ...] = ()


#: Every experiment in run order: DESIGN.md's index, then the extensions.
#: The fig* rows run the ``repro figures`` jobs, quick tier included.
_EXPERIMENTS = {
    "table1b": _Experiment(lambda runner: table1b_epi_ept.run()),
    "fig2": _Experiment(FIGURES["fig2_energy_scaling"].run, ("quick",)),
    "fig4": _Experiment(FIGURES["fig4_validation"].run, ("quick",)),
    "fig6": _Experiment(FIGURES["fig6_edpse_onpackage"].run, ("quick",)),
    "fig7": _Experiment(FIGURES["fig7_incremental"].run, ("quick",)),
    "fig8": _Experiment(FIGURES["fig8_bandwidth"].run, ("quick",)),
    "fig9": _Experiment(FIGURES["fig9_switch"].run, ("quick",)),
    "fig10": _Experiment(FIGURES["fig10_speedup_energy"].run, ("quick",)),
    "interconnect-energy": _Experiment(interconnect_energy_study.run),
    "amortization": _Experiment(amortization_study.run),
    "headline": _Experiment(headline.run),
    # Extensions beyond the paper's evaluation (Section V-E directions).
    "tables": _Experiment(config_tables.run),
    "compression": _Experiment(compression_study.run),
    "locality": _Experiment(locality_ablation.run),
    "powergate": _Experiment(powergate_study.run),
    "idle": _Experiment(idle_study.run, ("quick",)),
    "edip": _Experiment(edip_study.run),
    "topology": _Experiment(topology_study.run),
    "sweetspot": _Experiment(sweetspot_study.run, ("screen",)),
    "capping": _Experiment(
        capping_study.run, ("quick", "screen", "governor")
    ),
}


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """``--processes``/``--no-cache``, read back by :func:`_sweep_runner`."""
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="simulation worker processes (default: auto)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the sweep result cache",
    )


def _sweep_runner(args: argparse.Namespace) -> SweepRunner:
    """The sweep runner ``--processes``/``--no-cache`` describe."""
    settings = {}
    if args.processes is not None:
        settings["processes"] = args.processes
    if args.no_cache:
        settings["use_cache"] = False
    return SweepRunner(SweepSettings(**settings))


def _observed_pair(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """(workload, config) for one trace/profile invocation.

    Invalid combinations raise :class:`~repro.errors.ConfigError`, which the
    subcommand guard in :func:`main` maps to a one-line stderr message and
    exit code 2 — uniformly across every subcommand.
    """
    from repro.gpu.config import TopologyKind, table_iii_config
    from repro.workloads.generator import build_workload
    from repro.workloads.suite import shrunken_spec

    spec = shrunken_spec(
        args.workload, total_ctas=args.ctas, kernels=args.kernels
    )
    config = table_iii_config(
        args.gpms, topology=TopologyKind(args.topology)
    )
    return spec, build_workload(spec), config


def _add_observe_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.gpu.config import TABLE_III_GPM_COUNTS
    from repro.workloads.suite import all_specs

    choices = sorted(all_specs())
    parser.add_argument(
        "workload",
        choices=choices,
        metavar="workload",
        help=(
            "Table II or LLM-serving workload abbreviation"
            f" ({', '.join(choices)})"
        ),
    )
    parser.add_argument(
        "--gpms",
        type=int,
        choices=TABLE_III_GPM_COUNTS,
        default=4,
        help="GPU module count (default: 4)",
    )
    parser.add_argument(
        "--topology",
        choices=["ring", "switch", "mesh"],
        default="ring",
        help="inter-GPM network for multi-module configs (default: ring)",
    )
    parser.add_argument(
        "--ctas",
        type=int,
        default=64,
        help="shrink the workload grid to this many CTAs (default: 64)",
    )
    parser.add_argument(
        "--kernels",
        type=int,
        default=1,
        help="number of kernel launches to keep (default: 1)",
    )


def _add_idle_arguments(parser: argparse.ArgumentParser) -> None:
    """The per-GPM sleep-state knobs shared by dvfs/profile (docs/POWER.md)."""
    parser.add_argument(
        "--governor",
        choices=["utilization", "gate-only", "race-to-idle", "deadline-paced"],
        default=None,
        help=(
            "also run with per-GPM sleep states under this governor and"
            " print the gated residency (see docs/POWER.md)"
        ),
    )
    parser.add_argument(
        "--deadline-us",
        type=float,
        default=None,
        help=(
            "simulated-time deadline for --governor deadline-paced"
            " (microseconds; rejected up front if the roofline bound at"
            " f_max cannot meet it)"
        ),
    )
    parser.add_argument(
        "--entry-latency-cycles",
        type=float,
        default=None,
        help="override the clock-gated state's entry latency",
    )
    parser.add_argument(
        "--exit-latency-cycles",
        type=float,
        default=None,
        help="override the clock-gated state's exit latency",
    )
    parser.add_argument(
        "--residual",
        type=float,
        default=None,
        help=(
            "override the clock-gated state's residual power fraction"
            " (relative to the active idle floor)"
        ),
    )


def _idle_config_from_args(args, config):
    """Build the :class:`~repro.dvfs.idle.IdleConfig` the flags describe.

    Returns ``None`` when no idle flag was given.  All validation —
    negative latencies, residual above the active floor, exit latency
    beyond the wake budget, a deadline without the paced governor — happens
    inside :mod:`repro.dvfs.idle` and surfaces through the subcommand
    guard as one ``ConfigError`` line.
    """
    import dataclasses

    from repro.dvfs.idle import CLOCK_GATED, IdleConfig

    overrides = {
        "entry_latency_cycles": args.entry_latency_cycles,
        "exit_latency_cycles": args.exit_latency_cycles,
        "residual_fraction": args.residual,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.governor is None and args.deadline_us is None and not overrides:
        return None
    clock_gated = (
        dataclasses.replace(CLOCK_GATED, **overrides)
        if overrides
        else CLOCK_GATED
    )
    deadline_cycles = (
        None
        if args.deadline_us is None
        else args.deadline_us * 1e-6 * config.gpm.clock_hz
    )
    return IdleConfig(
        clock_gated=clock_gated,
        governor=(
            None if args.governor in (None, "gate-only") else args.governor
        ),
        deadline_cycles=deadline_cycles,
    )


def _check_deadline_feasible(args, spec, config) -> None:
    """Reject a deadline the chip cannot meet even at f_max, up front.

    Mirrors the ``--cap-watts`` precedent: an unsatisfiable knob is one
    stderr line before any simulation, not a surprise after the sweep.
    The bound is the roofline prediction at the top of the ladder — the
    fastest the race governor itself could possibly finish.
    """
    if args.governor != "deadline-paced" or args.deadline_us is None:
        return
    if spec.phases is not None:
        # The roofline bound does not cover phase schedules; the governor
        # itself still enforces the deadline conservatively at runtime.
        return
    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.dvfs.sweetspot import with_operating_point
    from repro.errors import ConfigError
    from repro.roofline.model import RooflinePredictor

    curve = config.dvfs.curve if config.dvfs is not None else K40_VF_CURVE
    top = curve.points[-1]
    predicted = RooflinePredictor().predict(
        spec, with_operating_point(config, top)
    )
    if args.deadline_us * 1e-6 < predicted.delay_s:
        raise ConfigError(
            f"deadline {args.deadline_us:g} us is infeasible: the roofline"
            f" bound at {top.label()} needs at least"
            f" {predicted.delay_s * 1e6:.2f} us"
        )


def _print_sleep_residency(residency) -> None:
    """Per-GPM gated-cycle lines for a run that actually slept."""
    if residency is None or residency.total_sleep_cycles <= 0.0:
        return
    print("  per-GPM sleep residency:")
    for gpm_id, hist in enumerate(residency.core):
        for state, cycles in sorted(
            hist.sleep_cycles.items(), key=lambda kv: kv[0].name
        ):
            print(
                f"    gpm{gpm_id}: {state.name:<12} {cycles:>10.0f} cycles"
                f" ({cycles / hist.total_cycles:.1%})"
            )


def _trace_main(argv: list[str]) -> int:
    """``repro trace``: capture a Chrome trace of one scaled-down workload."""
    from repro.gpu.simulator import simulate
    from repro.trace import ChromeTracer

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Simulate a scaled-down workload with event tracing enabled and"
            " write Chrome trace_event JSON (open it at"
            " https://ui.perfetto.dev)."
        ),
    )
    _add_observe_arguments(parser)
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: <workload>_<gpms>gpm.trace.json)",
    )
    args = parser.parse_args(argv)

    spec, workload, config = _observed_pair(parser, args)
    tracer = ChromeTracer(process_name=f"{spec.abbr} on {config.label()}")
    result = simulate(workload, config, tracer=tracer)
    out = args.out or f"{spec.abbr.lower()}_{args.gpms}gpm.trace.json"
    path = tracer.write(out)
    print(f"{spec.abbr} on {config.label()}: {result.cycles:.0f} cycles,")
    print(f"  {len(tracer)} trace events on {len(tracer._tids)} tracks -> {path}")
    print("  open in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def _profile_main(argv: list[str]) -> int:
    """``repro profile``: print component metrics for one workload."""
    from repro.core.energy_model import EnergyParams
    from repro.gpu.simulator import simulate
    from repro.trace import MetricsRegistry

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Simulate a scaled-down workload and print its component metrics"
            " and counter summary."
        ),
    )
    _add_observe_arguments(parser)
    _add_idle_arguments(parser)
    args = parser.parse_args(argv)

    spec, workload, config = _observed_pair(parser, args)
    idle = _idle_config_from_args(args, config)
    if idle is not None:
        import dataclasses

        _check_deadline_feasible(args, spec, config)
        config = dataclasses.replace(config, idle=idle)
    metrics = MetricsRegistry()
    result = simulate(workload, config, metrics=metrics)
    counters = result.counters

    print(f"{spec.abbr} on {config.label()}")
    print(f"  cycles            {counters.elapsed_cycles:14.0f}")
    print(f"  instructions      {counters.total_instructions:14d}")
    print(f"  sm utilization    {result.sm_utilization:14.3f}")
    print(f"  l1 hit rate       {counters.l1_hit_rate:14.3f}")
    print(f"  l2 hit rate       {counters.l2_hit_rate:14.3f}")
    print(f"  remote fraction   {counters.remote_fraction:14.3f}")
    print(f"  inter-GPM bytes   {counters.inter_gpm_bytes:14d}")
    print(f"  events processed  {result.events_processed:14d}")
    print(f"  sim wall time     {result.wall_time_s:14.3f}s")
    print(f"  events/sec        {result.events_per_sec:14.0f}")

    breakdown = result.energy_breakdown(
        EnergyParams.for_operating_point(config, residency=result.residency)
    )
    print(f"  energy            {breakdown.total * 1e6:14.2f}uJ")
    _print_sleep_residency(result.residency)
    if breakdown.per_gpm:
        print()
        print(
            f"  {'gpm':<4} {'core scale':>10} {'busy uJ':>10}"
            f" {'stall uJ':>10} {'cache uJ':>10} {'total uJ':>10}"
        )
        for gpm in breakdown.per_gpm:
            cache_j = gpm.shared_to_rf + gpm.l1_to_rf + gpm.l2_to_l1
            print(
                f"  {gpm.gpm_id:<4d} {gpm.core_scale:>10.3f}"
                f" {gpm.sm_busy * 1e6:>10.2f} {gpm.sm_idle * 1e6:>10.2f}"
                f" {cache_j * 1e6:>10.2f} {gpm.total * 1e6:>10.2f}"
            )
    print()
    print(f"  {'metric':<32} {'count':>10} {'mean':>12} {'min':>12} {'max':>12}")
    for name, row in metrics.snapshot().items():
        if "mean" in row:
            print(
                f"  {name:<32} {row['count']:>10d} {row['mean']:>12.2f}"
                f" {row['min']:>12.2f} {row['max']:>12.2f}"
            )
        else:
            print(
                f"  {name:<32} {row['count']:>10d}"
                f" {'p50=' + format(row['p50'], '.0f'):>12}"
                f" {'p99=' + format(row['p99'], '.0f'):>12} {'':>12}"
            )
    return 0


def _ladder_sweep(spec, config, metric: str):
    """The K40-ladder sweet spot of ``spec``: in process, never cached."""
    from repro.dvfs.sweetspot import SweetSpotSearch

    runner = SweepRunner(SweepSettings(use_cache=False, processes=1))
    return SweetSpotSearch(runner, metric=metric).search_one(spec, config)


def _dvfs_main(argv: list[str]) -> int:
    """``repro dvfs``: sweep one workload over the V/f ladder."""
    from repro.core.energy_model import EnergyModel, EnergyParams
    from repro.dvfs.governor import UtilizationGovernor
    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.dvfs.sweetspot import METRICS
    from repro.gpu.simulator import simulate

    parser = argparse.ArgumentParser(
        prog="repro dvfs",
        description=(
            "Simulate a scaled-down workload at every operating point of the"
            " K40 V/f ladder and report the energy sweet spot"
            " (see docs/POWER.md)."
        ),
    )
    _add_observe_arguments(parser)
    parser.add_argument(
        "--metric",
        choices=list(METRICS),
        default="edp",
        help="optimization metric for the sweet spot (default: edp)",
    )
    parser.add_argument(
        "--governed",
        action="store_true",
        help="also run the utilization governor and print its decisions",
    )
    parser.add_argument(
        "--cap-watts",
        type=float,
        default=None,
        help=(
            "also run under a chip power budget (PowerCapGovernor) and print"
            " its decisions and residency-priced energy"
        ),
    )
    _add_idle_arguments(parser)
    args = parser.parse_args(argv)

    spec, workload, config = _observed_pair(parser, args)
    # Reject malformed or infeasible idle knobs before the ladder sweep,
    # same as the cap-feasibility check below.  Building the governed
    # configuration here also validates the cap/governor mix (a budget and
    # a deadline cannot both own the operating-point policy).
    idle = _idle_config_from_args(args, config)
    idle_config = None
    if idle is not None:
        import dataclasses

        _check_deadline_feasible(args, spec, config)
        idle_config = dataclasses.replace(
            config, idle=idle, power_cap_watts=args.cap_watts
        )
    if args.cap_watts is not None:
        # Reject an unsatisfiable budget up front (one-line error via the
        # subcommand guard) instead of tracebacking after the (expensive)
        # ladder sweep.
        from repro.dvfs.governor import PowerCapGovernor

        curve = config.dvfs.curve if config.dvfs is not None else K40_VF_CURVE
        PowerCapGovernor(
            curve=curve, cap_watts=args.cap_watts
        ).initial_points(config.num_gpms)
    anchor_hz = K40_VF_CURVE.anchor.frequency_hz
    spot = _ladder_sweep(spec, config, args.metric)
    samples = spot.samples

    print(f"{spec.abbr} on {config.label()}: V/f sweep ({args.metric})")
    header = (
        f"  {'point':<10} {'MHz':>5} {'V':>6} {'delay us':>10}"
        f" {'energy uJ':>10} {'EDP':>11} {'ED2P':>11}"
    )
    print(header)
    best = spot.best
    for sample in samples:
        point = sample.point
        marker = " <- sweet spot" if sample is best else (
            "  (anchor)" if point.frequency_hz == anchor_hz else ""
        )
        print(
            f"  {point.label():<10} {point.frequency_hz / 1e6:>5.0f}"
            f" {point.voltage_v:>6.2f} {sample.delay_s * 1e6:>10.2f}"
            f" {sample.energy_j * 1e6:>10.2f} {sample.edp:>11.3e}"
            f" {sample.ed2p:>11.3e}{marker}"
        )
    anchor_score = spot.sample_at(anchor_hz).score(args.metric)
    print(
        f"  sweet spot: {best.point.label()}"
        f" ({best.point.frequency_hz / 1e6:.0f} MHz,"
        f" {args.metric} {best.score(args.metric) / anchor_score:.3f}x"
        f" the anchor's)"
    )

    if args.governed:
        governor = UtilizationGovernor()
        result = simulate(workload, config, governor=governor)
        print()
        print(
            f"  governed run: {result.cycles:.0f} cycles,"
            f" {len(governor.trace)} interval decisions"
        )
        for decision in governor.trace:
            print(
                f"    cycle {decision.at_cycle:>10.0f}  gpm{decision.gpm_id}"
                f"  util={decision.utilization:.2f}"
                f"  -> {decision.point.label()}"
            )

    if args.cap_watts is not None:
        import dataclasses

        capped_config = dataclasses.replace(
            config, power_cap_watts=args.cap_watts
        )
        result = simulate(workload, capped_config)
        params = EnergyParams.for_operating_point(
            capped_config, residency=result.residency
        )
        energy = EnergyModel(params).evaluate(result.counters, result.seconds)
        trace = result.governor.trace
        print()
        print(
            f"  capped run ({args.cap_watts:g} W): {result.cycles:.0f} cycles,"
            f" {energy.total * 1e6:.2f} uJ residency-priced,"
            f" {len(trace)} interval decisions"
        )
        for decision in trace:
            print(
                f"    cycle {decision.at_cycle:>10.0f}  gpm{decision.gpm_id}"
                f"  util={decision.utilization:.2f}"
                f"  -> {decision.point.label()}"
                f"  (est {decision.estimated_chip_watts:.1f} W)"
            )
        if energy.per_gpm:
            print("    per-GPM core-domain energy (residency-priced):")
            for gpm in energy.per_gpm:
                print(
                    f"    gpm{gpm.gpm_id}: scale={gpm.core_scale:.3f}"
                    f" busy={gpm.sm_busy * 1e6:.2f}uJ"
                    f" stall={gpm.sm_idle * 1e6:.2f}uJ"
                    f" total={gpm.total * 1e6:.2f}uJ"
                )

    if idle_config is not None:
        result = simulate(workload, idle_config)
        params = EnergyParams.for_operating_point(
            idle_config, residency=result.residency
        )
        energy = EnergyModel(params).evaluate(result.counters, result.seconds)
        slept = result.residency.total_sleep_cycles
        print()
        print(
            f"  idle run ({idle_config.idle.label()}):"
            f" {result.cycles:.0f} cycles,"
            f" {energy.total * 1e6:.2f} uJ residency-priced,"
            f" {slept:.0f} gated cycles"
        )
        _print_sleep_residency(result.residency)
        if result.governor is not None and result.governor.trace:
            print(f"  {len(result.governor.trace)} interval decisions")
    return 0


def _roofline_main(argv: list[str]) -> int:
    """``repro roofline``: predicted-vs-simulated table for one workload."""
    parser = argparse.ArgumentParser(
        prog="repro roofline",
        description=(
            "Score a workload's V/f ladder with the closed-form roofline"
            " predictor and (unless --predict-only) compare every point"
            " against simulation (see docs/MODELING.md)."
        ),
    )
    _add_observe_arguments(parser)
    parser.add_argument(
        "--metric",
        choices=["edp", "ed2p"],
        default="edp",
        help="ranking metric (default: edp)",
    )
    parser.add_argument(
        "--predict-only",
        action="store_true",
        help="skip the simulations; print the analytic ranking only",
    )
    args = parser.parse_args(argv)

    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.dvfs.selection import best_candidate
    from repro.dvfs.sweetspot import with_operating_point
    from repro.roofline.model import RooflinePredictor

    spec, _workload, config = _observed_pair(parser, args)
    predictor = RooflinePredictor()
    points = K40_VF_CURVE.points
    predictions = {
        point: predictor.predict(spec, with_operating_point(config, point))
        for point in points
    }
    predicted_best = best_candidate(
        points,
        score=lambda p: predictions[p].score(args.metric),
        tie_key=lambda p: (p.frequency_hz, p.label()),
    )

    print(f"{spec.abbr} on {config.label()}: roofline ({args.metric})")
    if args.predict_only:
        print(
            f"  {'point':<10} {'MHz':>5} {'pred delay us':>13}"
            f" {'pred uJ':>9} {'pred EDP':>11} {'bound':>8}"
        )
        for point in points:
            pred = predictions[point]
            marker = " <- predicted best" if point is predicted_best else ""
            print(
                f"  {point.label():<10} {point.frequency_hz / 1e6:>5.0f}"
                f" {pred.delay_s * 1e6:>13.2f} {pred.energy_j * 1e6:>9.2f}"
                f" {pred.score(args.metric):>11.3e} {pred.bound:>8}{marker}"
            )
        return 0

    spot = _ladder_sweep(spec, config, args.metric)
    simulated_best = spot.point
    print(
        f"  {'point':<10} {'MHz':>5} {'pred us':>9} {'sim us':>9}"
        f" {'derr%':>6} {'pred uJ':>9} {'sim uJ':>9} {'eerr%':>6}"
        f" {'bound':>8}"
    )
    for sample in spot.samples:
        point = sample.point
        pred = predictions[point]
        delay_s, energy_j = sample.delay_s, sample.energy_j
        markers = []
        if point is predicted_best:
            markers.append("predicted best")
        if point is simulated_best:
            markers.append("simulated best")
        marker = f" <- {', '.join(markers)}" if markers else ""
        print(
            f"  {point.label():<10} {point.frequency_hz / 1e6:>5.0f}"
            f" {pred.delay_s * 1e6:>9.2f} {delay_s * 1e6:>9.2f}"
            f" {abs(pred.delay_s - delay_s) / delay_s * 100:>6.1f}"
            f" {pred.energy_j * 1e6:>9.2f} {energy_j * 1e6:>9.2f}"
            f" {abs(pred.energy_j - energy_j) / energy_j * 100:>6.1f}"
            f" {pred.bound:>8}{marker}"
        )
    agree = "agrees with" if predicted_best is simulated_best else "differs from"
    print(
        f"  predicted best {predicted_best.label()} {agree} simulated best"
        f" {simulated_best.label()}"
    )
    return 0


def _figures_main(argv: list[str]) -> int:
    """``repro figures``: regenerate every fig* study into results/."""
    parser = argparse.ArgumentParser(
        prog="repro figures",
        description=(
            "Regenerate the paper-figure logs end-to-end: every"
            " experiments/fig* study runs and writes its rendered tables"
            " (log.txt) plus headline numbers (summary.txt) into"
            " results/<figure>/ (see EXPERIMENTS.md)."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "smoke tier: shrunken workloads on a reduced grid, written to"
            " quick.txt/quick_summary.txt (gitignored) instead of the"
            " committed full-tier logs"
        ),
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(FIGURES),
        metavar="FIGURE",
        help=(
            "regenerate just this figure (repeatable; default: all of"
            f" {', '.join(FIGURES)})"
        ),
    )
    parser.add_argument(
        "--out",
        default="results",
        help="results root directory (default: results)",
    )
    _add_runner_arguments(parser)
    args = parser.parse_args(argv)

    start = time.time()
    written = run_figures(
        names=tuple(args.only) if args.only else None,
        out_dir=args.out,
        runner=_sweep_runner(args),
        quick=args.quick,
        echo=print,
    )
    for name, fig_dir in written.items():
        print(f"wrote {fig_dir}/")
    print(f"[figures: {len(written)} figure(s), {time.time() - start:.1f}s]")
    return 0


#: Subcommand dispatch: every entry runs under the same ConfigError guard,
#: so invalid configuration anywhere in the CLI is one stderr line + exit 2.
_SUBCOMMANDS = {
    "trace": _trace_main,
    "profile": _profile_main,
    "dvfs": _dvfs_main,
    "roofline": _roofline_main,
    "figures": _figures_main,
}


def _guarded(name: str, command, argv: list[str]) -> int:
    """Uniform error surface for every subcommand.

    ``ConfigError`` (bad grids, infeasible caps, non-positive counts) and
    ``ExperimentError`` (bad study knobs like an unknown screen mode) both
    map to one ``repro <name>: <message>`` line on stderr and exit code 2 —
    never a traceback, never argparse's multi-line usage dump.
    """
    from repro.errors import ConfigError, ExperimentError

    try:
        return command(argv)
    except (ConfigError, ExperimentError) as error:
        print(f"repro {name}: {error}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, run experiments, print their rows."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _guarded(argv[0], _SUBCOMMANDS[argv[0]], argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'Understanding the Future of"
            " Energy Efficiency in Multi-Module GPUs' (HPCA 2019)."
        ),
        epilog=(
            "Subcommands: 'repro trace <workload>' captures a"
            " Perfetto-viewable Chrome trace; 'repro profile <workload>'"
            " prints component metrics; 'repro dvfs <workload>' sweeps the"
            " V/f ladder and reports the energy sweet spot; 'repro roofline"
            " <workload>' compares the roofline predictor with simulation;"
            " 'repro figures' regenerates every fig* log in results/.  See"
            " docs/OBSERVABILITY.md, docs/POWER.md, and docs/MODELING.md."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(_EXPERIMENTS) + ["all"],
        metavar="experiment",
        help="which tables/figures to regenerate ('all' for everything)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke tier: shrunken workloads on a reduced grid",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the rendered tables to this path (one experiment)",
    )
    _add_runner_arguments(parser)
    parser.add_argument(
        "--screen",
        choices=["roofline"],
        default=None,
        help=(
            "analytically rank the sweep grid and simulate only the top-k"
            " points (exact mode when omitted; see docs/MODELING.md)"
        ),
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="screened points simulated per curve (default: 3)",
    )
    parser.add_argument(
        "--guard",
        type=int,
        default=1,
        help="extra guard points simulated beyond top-k (default: 1)",
    )
    parser.add_argument(
        "--governor",
        choices=["utilization", "gate-only", "race-to-idle"],
        default=None,
        help=(
            "attach per-GPM sleep states under this governor to every"
            " configuration in the sweep (composes with the cap: a"
            " race-to-idle ceiling rides inside the waterfill)"
        ),
    )
    args = parser.parse_args(argv)

    def _experiments_main(_argv: list[str]) -> int:
        from repro.errors import ConfigError

        if "all" in args.experiments:
            names = list(_EXPERIMENTS)
        else:
            names = list(dict.fromkeys(args.experiments))
        for flag, given in (
            ("quick", args.quick),
            ("screen", args.screen is not None),
            ("governor", args.governor is not None),
        ):
            unsupported = [
                n for n in names if flag not in _EXPERIMENTS[n].flags
            ]
            if given and unsupported:
                accepting = sorted(
                    n for n, e in _EXPERIMENTS.items() if flag in e.flags
                )
                raise ConfigError(
                    f"--{flag} applies to {accepting} only,"
                    f" got {unsupported}"
                )
        if args.out is not None and len(names) != 1:
            raise ConfigError(
                f"--out takes exactly one experiment, got {names}"
            )
        options = {}
        if args.screen is not None:
            options.update(
                screen=args.screen, top_k=args.top_k, guard=args.guard
            )
        if args.governor is not None:
            options["governor"] = args.governor
        runner = _sweep_runner(args)
        for name in names:
            experiment = _EXPERIMENTS[name]
            quick = (
                {"quick": args.quick} if "quick" in experiment.flags else {}
            )
            start = time.time()
            rendered = experiment.run(runner, **quick, **options).render()
            print(rendered)
            print(f"[{name}: {time.time() - start:.1f}s]")
            print()
            if args.out is not None:
                Path(args.out).write_text(rendered + "\n")
                print(f"wrote {args.out}")
        return 0

    # Experiments run under the same guard as the subcommands, so e.g.
    # `repro sweetspot --processes 0` fails with one line and exit 2 too.
    return _guarded(args.experiments[0], _experiments_main, [])


if __name__ == "__main__":
    sys.exit(main())
