"""Maintain and enforce the roofline predictor's committed error bound.

``ROOFLINE_bounds.json`` (repo root) records, for every golden
(workload, configuration) case, the relative delay/energy/EDP error the
committed :data:`~repro.roofline.calibration_params.DEFAULT_CALIBRATION`
achieves against simulation — plus per-metric ceilings with margin.  CI runs
the default ``--check`` mode, which re-simulates the goldens and fails when

* the committed calibration no longer matches the manifest's (someone
  refit without regenerating the manifest), or
* any error ceiling is exceeded (the predictor or the engine drifted).

Modes::

    python -m repro.tools.roofline_bounds            # check (CI)
    python -m repro.tools.roofline_bounds --write    # regenerate manifest
    python -m repro.tools.roofline_bounds --fit      # grid-refit, print values

``--fit`` only *prints* the fitted calibration: baking it into
``DEFAULT_CALIBRATION`` is a source edit, kept manual on purpose so a refit
is always a reviewed diff, never a silent side effect.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.experiments.keys import RESULTS_VERSION
from repro.roofline.calibration import (
    DEFAULT_CALIBRATION,
    ValidationReport,
    fit_calibration,
    simulate_reference,
    validate_calibration,
)

#: The committed manifest CI enforces.
BOUNDS_PATH = Path(__file__).resolve().parents[3] / "ROOFLINE_bounds.json"

#: Headroom multiplier between the observed maxima and the committed
#: ceilings: wide enough to absorb float jitter and innocuous engine tweaks,
#: tight enough that a real model regression trips CI.
BOUND_MARGIN = 1.25


def bounds_payload(report: ValidationReport) -> dict:
    payload = report.to_json()
    payload["results_version"] = RESULTS_VERSION
    payload["bound"] = {
        "delay": round(report.max_delay_rel_err * BOUND_MARGIN, 4),
        "energy": round(report.max_energy_rel_err * BOUND_MARGIN, 4),
        "edp": round(report.max_edp_rel_err * BOUND_MARGIN, 4),
    }
    return payload


def write_bounds(report: ValidationReport, path: Path = BOUNDS_PATH) -> None:
    with path.open("w") as handle:
        json.dump(bounds_payload(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_bounds(
    report: ValidationReport, path: Path = BOUNDS_PATH
) -> list[str]:
    """Problems (empty = pass) of ``report`` against the committed manifest."""
    if not path.exists():
        return [f"missing bounds manifest {path}"]
    with path.open() as handle:
        committed = json.load(handle)
    problems: list[str] = []
    if committed.get("calibration") != report.calibration.to_json():
        problems.append(
            "committed calibration does not match DEFAULT_CALIBRATION —"
            " regenerate with --write (and review the diff)"
        )
    observed = {
        "delay": report.max_delay_rel_err,
        "energy": report.max_energy_rel_err,
        "edp": report.max_edp_rel_err,
    }
    for metric, ceiling in committed.get("bound", {}).items():
        if observed.get(metric, float("inf")) > ceiling:
            problems.append(
                f"max {metric} relative error {observed[metric]:.2%} exceeds"
                f" the committed bound {ceiling:.2%}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.roofline_bounds",
        description=__doc__.splitlines()[0],
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write",
        action="store_true",
        help="regenerate the manifest from DEFAULT_CALIBRATION",
    )
    mode.add_argument(
        "--fit",
        action="store_true",
        help="grid-refit the calibration against the goldens and print it",
    )
    parser.add_argument(
        "--bounds-path",
        type=Path,
        default=BOUNDS_PATH,
        help=f"manifest location (default: {BOUNDS_PATH})",
    )
    args = parser.parse_args(argv)

    reference = simulate_reference()
    if args.fit:
        best = fit_calibration(reference=reference)
        print(json.dumps(best.to_json(), indent=2, sort_keys=True))
        print(
            "\nTo adopt: edit DEFAULT_CALIBRATION in"
            " src/repro/roofline/calibration_params.py, then rerun --write."
        )
        return 0

    report = validate_calibration(DEFAULT_CALIBRATION, reference)
    if args.write:
        write_bounds(report, args.bounds_path)
        print(f"wrote {args.bounds_path}")
        print(
            f"max rel err: delay {report.max_delay_rel_err:.2%},"
            f" energy {report.max_energy_rel_err:.2%},"
            f" edp {report.max_edp_rel_err:.2%}"
        )
        return 0

    problems = check_bounds(report, args.bounds_path)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print(
            f"ok: max rel err delay {report.max_delay_rel_err:.2%},"
            f" energy {report.max_energy_rel_err:.2%},"
            f" edp {report.max_edp_rel_err:.2%} within committed bounds"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
