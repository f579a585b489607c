"""Content-address identity: the cache keys of the sweep result store.

One (workload spec, GPU configuration) pair has exactly one key, derived
from a canonical JSON fingerprint of both plus ``RESULTS_VERSION``.  The
batch sweep cache (:mod:`repro.experiments.runner`) files every record
under this key, and the roofline bounds manifest and the golden counters
record ``RESULTS_VERSION`` beside their numbers.

The emitted bytes are pinned by golden tests
(``tests/experiments/test_keys.py`` and the pre-DVFS pins in
``tests/experiments/test_runner.py``).  Changing any fingerprint here
without a deliberate ``RESULTS_VERSION`` bump orphans every cache entry on
every machine — treat such a test failure as a bug in the fingerprint, not
as a fixture to refresh.

Fingerprint conventions (the precedent set when DVFS and power capping were
added): optional subsystems only join the fingerprint when configured, so
plain configurations keep their cache identity across library versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.gpu.config import GpuConfig
from repro.workloads.spec import WorkloadSpec

#: Bump when simulator semantics change, invalidating every cached record.
RESULTS_VERSION = 4


def config_fingerprint(config: GpuConfig) -> dict:
    """Deterministic cache-key content for one GPU configuration."""
    return {
        "num_gpms": config.num_gpms,
        "gpm": asdict(config.gpm),
        "interconnect": (
            None if config.interconnect is None
            else {
                "kind": config.interconnect.kind.value,
                "bw": config.interconnect.per_gpm_bandwidth_gbps,
                "lat": config.interconnect.link_latency_cycles,
            }
        ),
        "domain": config.integration_domain.value,
        "placement": config.placement_policy.value,
        # Only fingerprint compression when configured, so plain configs
        # keep their cache identity across library versions.
        **(
            {}
            if config.compression is None
            else {
                "compression": {
                    "ratio": config.compression.data_ratio,
                    "lat": config.compression.codec_latency_cycles,
                    "min": config.compression.min_payload_bytes,
                }
            }
        ),
        # Same precedent for DVFS: only off-anchor configurations carry the
        # operating points in their key.
        **(
            {}
            if config.dvfs is None
            else {"dvfs": config.dvfs.fingerprint()}
        ),
        # And for power capping: the cap changes runtime behaviour (a
        # PowerCapGovernor is attached), so capped configs must never share
        # a cache entry with uncapped ones — or with a different budget.
        **(
            {}
            if config.power_cap_watts is None
            else {"power_cap_watts": config.power_cap_watts}
        ),
        # And for idle states: sleep latencies, residual power, and the
        # governor all change runtime behaviour, so idle-enabled configs get
        # their own identity while idle-off keys stay byte-stable.
        **(
            {}
            if config.idle is None
            else {"idle": config.idle.fingerprint()}
        ),
    }


def _canonical_mixes(mapping: dict) -> dict:
    """Re-key any opcode-mix dict values by opcode name (JSON-safe)."""
    return {
        key: (value if not isinstance(value, dict) else
              {opcode.value: weight for opcode, weight in value.items()})
        for key, value in mapping.items()
    }


def spec_fingerprint(spec: WorkloadSpec) -> dict:
    """Deterministic cache-key content for one workload specification."""
    fields = asdict(spec)
    phases = fields.pop("phases", None)
    return _canonical_mixes(
        {key: value for key, value in fields.items() if key != "compute_mix"}
    ) | {"mix": {op.value: w for op, w in spec.compute_mix.items()}} | (
        # The phase schedule follows the optional-subsystem precedent:
        # flat specs keep their (byte-pinned) pre-phase cache identity.
        {} if phases is None
        else {"phases": [_canonical_mixes(phase) for phase in phases]}
    )


def spec_hash(spec: WorkloadSpec) -> str:
    """Short content hash of one workload specification (manifests)."""
    blob = json.dumps(spec_fingerprint(spec), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def key_blob(spec: WorkloadSpec, config: GpuConfig) -> str:
    """The canonical JSON string a cache key hashes (golden-test surface)."""
    return json.dumps(
        {
            "version": RESULTS_VERSION,
            "spec": spec_fingerprint(spec),
            "config": config_fingerprint(config),
        },
        sort_keys=True,
        default=str,
    )


def cache_key(spec: WorkloadSpec, config: GpuConfig) -> str:
    """The content address of one (workload, configuration) result."""
    return hashlib.sha256(key_blob(spec, config).encode()).hexdigest()[:24]
