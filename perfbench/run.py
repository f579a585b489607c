"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload multigpm-mem --seed 0 --seconds 35 --trace 0

Run from the repository root.  Every metric is printed by name and unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once under a profiler
and reports the per-layer metrics.  The exit code is non-zero when any
operation raised or produced an output whose digest differs from the one
recorded in ``digests.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from layers import LAYERS, cumulative, self_seconds
from operations import WORKLOADS, build_inputs, digest, make_workload, seed_offset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch stores, figure outputs and trace files (gitignored).
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Warm passes after the untraced cold pass of a ``--trace 1`` run;
#: ``experiments.warm_wall_s`` is their median.
WARM_REPEATS = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_winst_per_s": "winst/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sim.events": "count",
    "sim.events_per_winst": "events/winst",
    "memory.l1_hit_ratio": "ratio",
    "memory.l2_hit_ratio": "ratio",
    "memory.dram_txns": "count",
    "memory.remote_frac": "ratio",
    "interconnect.bytes": "B",
    "interconnect.byte_hops": "B.hops",
    "sm.winst": "count",
    "sm.busy_frac": "ratio",
    "workloads.build_s": "s",
    "gpu.simulate_s": "s",
    "gpu.simulate_calls": "count",
    "dvfs.sleep_frac": "ratio",
    "core.price_s": "s",
    "core.price_calls": "count",
    "roofline.screen_s": "s",
    "roofline.skip_ratio": "ratio",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "experiments.hit_ratio": "ratio",
    "experiments.dedup_skips": "count",
    "experiments.warm_wall_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Runs in a fresh interpreter: import the CLI, then build the workload's
#: specs and configurations.  argv: src dir, this dir, workload, offset.
_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro.cli
imported = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from operations import build_inputs
build_inputs(sys.argv[3], int(sys.argv[4]))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
"""


class Spans:
    """Spans around the benchmark's calls into the program, in memory."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


@dataclass
class Rep:
    """One cold pass from empty state, then its warm passes."""

    cold: PassResult
    warm: list[PassResult]
    tally: object

    @property
    def passes(self) -> list[PassResult]:
        return [self.cold, *self.warm]


def run_pass(label, ops, expected, spans, profiler=None) -> PassResult:
    """Run ``ops`` in order; a failure never skips the remaining ones.

    ``expected`` maps operation names to digests; ``None`` records without
    checking.  Only ``op.run`` is timed (and profiled).
    """
    result = PassResult()
    gc.collect()
    for op in ops:
        result.attempted += 1
        start = time.perf_counter()
        try:
            with spans.span(f"{label}:{op.name}"):
                if profiler is not None:
                    profiler.enable()
                try:
                    value = op.run()
                finally:
                    if profiler is not None:
                        profiler.disable()
                    result.wall += time.perf_counter() - start
            output = op.finish(value)
        except Exception:  # counted as a failed operation; the pass goes on
            result.failed += 1
            print(f"FAILED {label}:{op.name}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        result.outputs[op.name] = output
        result.digests[op.name] = got = digest(output)
        if expected is not None and got != expected.get(op.name):
            result.failed += 1
            print(f"FAILED {label}:{op.name}: digest {got}"
                  f" != expected {expected.get(op.name)}", file=sys.stderr)
    return result


def run_rep(workload, offset, expected, spans, warm_repeats, profiler=None) -> Rep:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="rep-", dir=OUT_DIR))
    try:
        bench = make_workload(workload, offset, spans, scratch)
        cold = run_pass("cold", bench.cold_ops(), expected, spans, profiler)
        # The warm pass must reproduce this cold pass exactly.
        warm_expected = {
            name: digest(bench.warm_output(output))
            for name, output in cold.outputs.items()
        }
        warm = [
            run_pass("warm", bench.warm_ops(), warm_expected, spans, profiler)
            for _ in range(warm_repeats)
        ]
        return Rep(cold, warm, bench.tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload: str, offset: int) -> list[dict]:
    """Set-up timings from ``SETUP_REPEATS`` fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE),
             workload, str(offset)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr}")
        runs.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return runs


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end_metrics(reps: list[Rep], setups: list[dict]) -> dict:
    walls = [rep.cold.wall for rep in reps]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(walls),
        "sim_winst_per_s": statistics.median(
            rep.tally.winst / rep.cold.wall for rep in reps
        ),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(base: Rep, traced: Rep, stats, setups) -> dict:
    tally = base.tally
    metrics = {
        f"{layer}.self_s": seconds
        for layer, seconds in self_seconds(stats).items()
    }
    build_s, _ = cumulative(stats, "workloads/generator.py", "build_workload")
    simulate_s, simulate_calls = cumulative(stats, "gpu/simulator.py", "run")
    price_s, price_calls = cumulative(stats, "core/energy_model.py", "evaluate")
    screen_s, _ = cumulative(
        stats, "roofline/screen.py", "screen_operating_points"
    )
    # The cold pass's runner and the first warm pass's.
    runners = tally.runners[:2]
    hits = sum(runner.cache_hits for runner in runners)
    misses = sum(runner.cache_misses for runner in runners)
    traced_wall = traced.cold.wall + traced.warm[0].wall
    metrics.update({
        "sim.events": tally.events,
        "sim.events_per_winst": _ratio(tally.events, tally.winst),
        "memory.l1_hit_ratio": _ratio(
            tally.l1_hits, tally.l1_hits + tally.l1_misses
        ),
        "memory.l2_hit_ratio": _ratio(
            tally.l2_hits, tally.l2_hits + tally.l2_misses
        ),
        "memory.dram_txns": tally.dram_txns,
        "memory.remote_frac": _ratio(
            tally.remote_accesses, tally.local_accesses + tally.remote_accesses
        ),
        "interconnect.bytes": tally.ic_bytes,
        "interconnect.byte_hops": tally.ic_byte_hops,
        "sm.winst": tally.winst,
        "sm.busy_frac": _ratio(tally.sm_busy, tally.sm_busy + tally.sm_idle),
        "workloads.build_s": build_s,
        "gpu.simulate_s": simulate_s,
        "gpu.simulate_calls": simulate_calls,
        "dvfs.sleep_frac": _ratio(tally.sleep_cycles, tally.core_cycles),
        "core.price_s": price_s,
        "core.price_calls": price_calls,
        "roofline.screen_s": screen_s,
        "roofline.skip_ratio": (
            1.0 - _ratio(tally.simulated_points, tally.scored_points)
            if tally.scored_points else 0.0
        ),
        "experiments.cache_hits": hits,
        "experiments.cache_misses": misses,
        "experiments.hit_ratio": _ratio(hits, hits + misses),
        "experiments.dedup_skips": sum(r.dedup_skips for r in runners),
        "experiments.warm_wall_s": statistics.median(p.wall for p in base.warm),
        "cli.import_s": statistics.median(s["import_s"] for s in setups),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": _ratio(
            traced_wall, base.cold.wall + base.warm[0].wall
        ),
    })
    return metrics


def load_digests(workload: str, offset: int) -> dict:
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload, {}).get(str(offset), {})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, expected: dict | None = None) -> int:
    """Run the benchmark; ``expected`` overrides the recorded digests."""
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    offset = seed_offset(args.seed)
    if expected is None:
        expected = load_digests(args.workload, offset)
    setups = measure_setup(args.workload, offset)
    # Pay the imports and set-up the timed passes would otherwise include.
    import repro.cli  # noqa: F401

    build_inputs(args.workload, offset)
    spans = Spans()
    if args.trace:
        base = run_rep(args.workload, offset, expected, spans, WARM_REPEATS)
        profiler = cProfile.Profile()
        traced = run_rep(args.workload, offset, expected, spans, 1, profiler)
        reps = [base, traced]
        metrics = per_layer_metrics(
            base, traced, pstats.Stats(profiler), setups
        )
        units = PER_LAYER
    else:
        reps = []
        start = time.perf_counter()
        while True:
            reps.append(run_rep(args.workload, offset, expected, spans, 1))
            print(f"rep {len(reps)}: cold pass {reps[-1].cold.wall:.3f}s",
                  file=sys.stderr)
            elapsed = time.perf_counter() - start
            # Stop when one more rep would overrun the measuring time.
            if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        metrics = end_to_end_metrics(reps, setups)
        units = END_TO_END
    attempted = sum(p.attempted for rep in reps for p in rep.passes)
    failed = sum(p.failed for rep in reps for p in rep.passes)
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps({"spans": spans.records, "metrics": metrics}, indent=1)
        )
    print(
        f"{args.workload}: seed {args.seed} (input variant {offset}),"
        f" {len(reps)} reps, {attempted} operations, {failed} failed"
    )
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':28s} {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
