"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Runs every workload's cold pass once per input variant (0 to
``SEED_PERIOD - 1``) plus one warm pass, and rewrites ``digests.json``.
Re-record only when a change is meant to alter the program's outputs, and
say so in the change.  Recording fails if a warm pass disagrees with its
cold pass.
"""

from __future__ import annotations

import json
import sys

import run
from operations import SEED_PERIOD, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    recorded: dict = {}
    for workload in WORKLOADS:
        for offset in range(SEED_PERIOD):
            rep = run.run_rep(workload, offset, None, run.Spans(), 1)
            cold = rep.cold
            if cold.failed or rep.warm[0].failed:
                print(f"{workload} variant {offset}: failed", file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(offset)] = cold.digests
            print(f"{workload} variant {offset}: {cold.wall:.1f}s", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
