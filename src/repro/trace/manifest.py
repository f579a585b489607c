"""Per-run provenance manifests written next to cached sweep results.

A cached :class:`~repro.experiments.results.RunRecord` answers *what* a
simulation produced; the manifest answers *where it came from*: the exact
config fingerprint and workload-spec hash that keyed the cache entry, the
``RESULTS_VERSION`` the record was produced under, how long the simulation
took, and on which host.  When a figure looks wrong months later, the
manifest is the difference between re-deriving provenance and reading it.

Manifests are advisory: the sweep cache never *reads* them for correctness
(the content-hash key does that), so a missing or stale manifest can only
cost debugging convenience, never poison a result.
"""

from __future__ import annotations

import json
import os
import platform
import socket
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1


def host_info() -> dict:
    """Stable facts about the machine producing a result."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class RunManifest:
    """Provenance for one cached (workload, configuration) simulation."""

    cache_key: str
    workload: str
    config_label: str
    results_version: int
    spec_hash: str
    config_fingerprint: dict
    wall_time_s: float
    #: Engine callbacks dispatched by the producing simulation (0 when the
    #: manifest predates throughput accounting).
    events_processed: int = 0
    #: Simulator throughput (events_processed over the simulation's own wall
    #: clock, excluding workload build time) — makes per-run throughput
    #: regressions visible without the bench harness.
    events_per_sec: float = 0.0
    #: Per-domain operating-point residency of the producing run
    #: (``DvfsResidency.to_json()``); ``None`` when the manifest predates
    #: residency accounting.
    dvfs_residency: dict | None = None
    #: Per-GPM core-domain energy attribution of the producing run
    #: (list of ``GpmEnergy.as_dict()``); ``None`` when the run had no
    #: DVFS/residency pricing or predates per-GPM attribution.
    per_gpm_energy: list | None = None
    host: dict = field(default_factory=host_info)
    created_at: str = ""
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat()

    # ----------------------------------------------------------- serialization

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunManifest":
        return cls(
            cache_key=data["cache_key"],
            workload=data["workload"],
            config_label=data["config_label"],
            results_version=data["results_version"],
            spec_hash=data["spec_hash"],
            config_fingerprint=data["config_fingerprint"],
            wall_time_s=data["wall_time_s"],
            events_processed=data.get("events_processed", 0),
            events_per_sec=data.get("events_per_sec", 0.0),
            dvfs_residency=data.get("dvfs_residency"),
            per_gpm_energy=data.get("per_gpm_energy"),
            host=data.get("host", {}),
            created_at=data.get("created_at", ""),
            schema_version=data.get("schema_version", MANIFEST_SCHEMA_VERSION),
        )

    # ---------------------------------------------------------------------- io

    @staticmethod
    def path_for(record_path: Path) -> Path:
        """Manifest path corresponding to a cached record path."""
        return record_path.with_suffix(".manifest.json")

    def write(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(".tmp")
        with tmp.open("w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
        tmp.replace(target)
        return target

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        with Path(path).open() as handle:
            return cls.from_json(json.load(handle))
