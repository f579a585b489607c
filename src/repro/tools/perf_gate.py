"""Throughput gate: no perfbench run may fail, and this tree's median
``sim_winst_per_s`` must stay within the base's ``BENCHMARK.json`` bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path
from subprocess import PIPE, run

METRIC, WORKLOADS = "sim_winst_per_s", ("onegpm-compute", "multigpm-mem")


def bound_of(benchmark_json: Path) -> float:
    declared = json.loads(Path(benchmark_json).read_text())["end_to_end"]
    return next(m["bound"] for m in declared if m["name"] == METRIC)


def verdict(workload, head_runs, base_runs, bound) -> tuple[bool, str]:
    """(passed, one line); each run is ``(returncode, stdout)``."""
    medians = []
    for side, runs in (("change", head_runs), ("base", base_runs)):
        values = []
        for code, stdout in runs:
            last = (stdout.strip().splitlines() or ["{}"])[-1]
            result = json.loads(last) if last.startswith("{") else {}
            if code or result.get("failed", 1):
                return False, f"perf-gate: FAIL {workload}: a {side} run" \
                    f" exited {code} with failed={result.get('failed')}"
            values.append(result["metrics"][METRIC]["value"])
        medians.append(statistics.median(values))
    head, base = medians
    passed = head >= base * (1.0 - bound)
    return passed, f"perf-gate: {'ok' if passed else 'FAIL'} {METRIC} on" \
        f" {workload}: {base:.4g} -> {head:.4g} ({head / base - 1:+.1%}," \
        f" bound {bound:.0%})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="base tree")
    args = parser.parse_args(argv)
    bound, passed = bound_of(args.base / "BENCHMARK.json"), True
    for workload in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "15", "--seconds", "1", "--trace", "0"]
        trees, runs = (args.base, Path(".")), ([], [])
        for pair in range(3):  # three runs per tree, alternating the first
            for i in (pair % 2, 1 - pair % 2):
                done = run(cmd, cwd=trees[i], stdout=PIPE, text=True)
                runs[i].append((done.returncode, done.stdout))
        ok, line = verdict(workload, runs[1], runs[0], bound)
        print(line, flush=True)
        passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
