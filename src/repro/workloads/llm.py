"""LLM-inference-shaped workloads: prefill/decode phases and tenant mixes.

The 18 Table II applications run one homogeneous kernel schedule; LLM
serving does not.  A request alternates between two regimes with opposite
resource shapes:

* **prefill** — the prompt is processed in large batched GEMMs:
  compute-dense, high CTA parallelism, streaming weight reads.  Maps to a
  phase with many CTAs, a deep FFMA/tensor-style mix, and stream-dominant
  accesses.
* **decode** — one token at a time against a growing KV cache:
  memory-latency bound, very few CTAs (batch≈1 per user), and most traffic
  is re-reads of a region *every* GPM touches.  Maps to a phase with few
  CTAs, a load-heavy segment, and shared-region-dominant accesses — the
  interleaved shared region plays the KV cache, so under first touch its
  pages scatter across GPMs exactly like the paper's ``frac_shared``
  traffic class.

The multi-tenant composer interleaves phase schedules from independent
"users" (one power cap — ``GpuConfig.power_cap_watts`` — over all of them),
with per-tenant seed offsets so no two tenants replay the same address
stream.  These shapes stress the capping governor and the idle governors
(decode waves straggle; prefill bursts sprint) in ways uniform kernels
cannot — see ``docs/WORKLOADS.md``.

The registry here is deliberately separate from ``WORKLOAD_SPECS``: the
Table II suite feeds the paper's scaling/validation figures and must not
change membership, while these specs feed the ``llmstudy`` figure and the
observability subcommands.  ``suite.get_spec`` consults both.
"""

from __future__ import annotations

import zlib

from repro.errors import ConfigError
from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.workloads.spec import PhaseSpec, WorkloadSpec

#: Phase names the generators understand.
PHASE_NAMES = ("prefill", "decode")

#: Compute-dense prefill mix: batched GEMM inner loops.
PREFILL_MIX = {Opcode.FFMA32: 0.8, Opcode.FADD32: 0.1, Opcode.IMAD32: 0.1}

#: Decode mix: address math dominates the little compute there is.
DECODE_MIX = {Opcode.IMAD32: 0.6, Opcode.FFMA32: 0.4}


def prefill_phase(
    ctas: int = 1024,
    kernels: int = 2,
    name: str = "prefill",
    seed_offset: int = 0,
) -> PhaseSpec:
    """A compute-dense, high-parallelism prompt-processing phase."""
    return PhaseSpec(
        name=name,
        kernels=kernels,
        total_ctas=ctas,
        compute_per_segment=16,
        compute_mix=dict(PREFILL_MIX),
        accesses_per_segment=2,
        frac_stream=0.8,
        frac_reuse=0.1,
        frac_halo=0.0,
        frac_shared=0.1,
        store_fraction=0.15,
        seed_offset=seed_offset,
    )


def decode_phase(
    ctas: int = 32,
    kernels: int = 4,
    name: str = "decode",
    seed_offset: int = 0,
) -> PhaseSpec:
    """A memory-latency-bound, KV-cache-streaming token-generation phase."""
    return PhaseSpec(
        name=name,
        kernels=kernels,
        total_ctas=ctas,
        compute_per_segment=2,
        compute_mix=dict(DECODE_MIX),
        accesses_per_segment=8,
        frac_stream=0.15,
        frac_reuse=0.1,
        frac_halo=0.0,
        frac_shared=0.75,
        store_fraction=0.05,
        seed_offset=seed_offset,
    )


def make_phase(
    phase: str, ctas: int, kernels: int, name: str | None = None,
    seed_offset: int = 0,
) -> PhaseSpec:
    """Build one named phase; rejects unknown phase names up front."""
    if phase not in PHASE_NAMES:
        raise ConfigError(
            f"unknown phase name {phase!r}; known: {list(PHASE_NAMES)}"
        )
    builder = prefill_phase if phase == "prefill" else decode_phase
    return builder(
        ctas=ctas, kernels=kernels, name=name or phase,
        seed_offset=seed_offset,
    )


def _llm_base(
    name: str,
    abbr: str,
    description: str,
    phases: tuple[PhaseSpec, ...],
    category: WorkloadCategory = WorkloadCategory.MEMORY,
    total_ctas: int = 1024,
    seed: int = 17,
) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        abbr=abbr,
        category=category,
        description=description,
        input_label="synthetic serving trace",
        total_ctas=total_ctas,
        warps_per_cta=4,
        segments_per_warp=12,
        footprint_bytes=64 * 1024 * 1024,   # model weights + activations
        shared_footprint_bytes=16 * 1024 * 1024,  # the KV cache
        hot_block_bytes=8 * 1024,
        phases=phases,
        seed=seed,
    )


def serving_spec(
    rounds: int = 2,
    prefill_ctas: int = 1024,
    prefill_kernels: int = 2,
    decode_ctas: int = 32,
    decode_kernels: int = 4,
    abbr: str = "LLMServe",
) -> WorkloadSpec:
    """Phase-alternating serving: prefill burst, then a decode tail, × rounds."""
    if rounds <= 0:
        raise ConfigError(f"serving rounds must be positive, got {rounds}")
    phases = []
    for round_index in range(rounds):
        phases.append(prefill_phase(
            ctas=prefill_ctas, kernels=prefill_kernels,
            name=f"prefill{round_index}", seed_offset=2 * round_index,
        ))
        phases.append(decode_phase(
            ctas=decode_ctas, kernels=decode_kernels,
            name=f"decode{round_index}", seed_offset=2 * round_index + 1,
        ))
    return _llm_base(
        name="LLM serving (prefill/decode alternation)",
        abbr=abbr,
        description=(
            "Phase-alternating LLM inference: compute-dense prefill bursts"
            " followed by memory-latency-bound decode tails over a shared"
            " KV-cache region."
        ),
        phases=tuple(phases),
        total_ctas=prefill_ctas,
    )


def tenant_seed_offset(client: str, index: int) -> int:
    """Deterministic per-tenant seed decorrelation (stable across runs)."""
    return (zlib.crc32(client.encode("utf-8")) & 0x3FF) + 7 * index


def validate_clients(clients: tuple[str, ...]) -> tuple[str, ...]:
    """Check a tenant list: non-empty, string ids, no duplicates."""
    clients = tuple(clients)
    if not clients:
        raise ConfigError("tenant list must name at least one client")
    for client in clients:
        if not isinstance(client, str) or not client:
            raise ConfigError("tenant client ids must be non-empty strings")
    duplicates = sorted({c for c in clients if clients.count(c) > 1})
    if duplicates:
        raise ConfigError(
            f"duplicate tenant client id(s): {', '.join(duplicates)}"
        )
    return clients


def schedule_spec(
    entries: tuple[tuple[str, int, int], ...] | list,
    clients: tuple[str, ...] | list[str] | None = None,
    abbr: str = "LLMCustom",
) -> WorkloadSpec:
    """Build a phased spec from explicit (phase, ctas, kernels) entries.

    This is the composer behind the ``llmstudy`` figure's schedules: each
    entry names a known phase shape with its CTA count and kernel count.
    With ``clients``, the whole schedule is replicated per tenant with
    seed-decorrelated streams (every validation error — unknown phase name,
    zero-CTA phase, duplicate client id — raises ``ConfigError`` here, at
    composition time, never later inside the engine).
    """
    entries = tuple(tuple(entry) for entry in entries)
    if not entries:
        raise ConfigError("phase schedule must name at least one phase")
    phases = []
    if clients is None:
        for index, (phase, ctas, kernels) in enumerate(entries):
            phases.append(make_phase(
                phase, ctas=ctas, kernels=kernels,
                name=f"{phase}{index}", seed_offset=index,
            ))
    else:
        clients = validate_clients(clients)
        for tenant_index, client in enumerate(clients):
            base_offset = tenant_seed_offset(client, tenant_index)
            for index, (phase, ctas, kernels) in enumerate(entries):
                phases.append(make_phase(
                    phase, ctas=ctas, kernels=kernels,
                    name=f"{client}.{phase}{index}",
                    seed_offset=base_offset + index,
                ))
    label = "custom phase schedule" if clients is None else (
        f"custom phase schedule x {len(clients)} tenants"
    )
    return _llm_base(
        name=f"LLM serving ({label})",
        abbr=abbr,
        description="Recipe-composed LLM phase schedule.",
        phases=tuple(phases),
        total_ctas=max(ctas for _phase, ctas, _kernels in entries),
    )


def multi_tenant_spec(
    clients: tuple[str, ...] | list[str],
    prefill_ctas: int = 256,
    prefill_kernels: int = 1,
    decode_ctas: int = 16,
    decode_kernels: int = 2,
    abbr: str = "LLMTenants",
) -> WorkloadSpec:
    """Interleave prefill/decode schedules from independent users.

    Kernels alternate tenant-by-tenant (round-robin over clients, prefill
    round first, then the decode rounds), modeling concurrent requests
    multiplexed onto one chip under one ``power_cap_watts``.  Duplicate
    client ids are rejected: each tenant must contribute an independent
    (seed-decorrelated) stream.
    """
    clients = validate_clients(tuple(clients))
    phases = []
    for index, client in enumerate(clients):
        phases.append(prefill_phase(
            ctas=prefill_ctas, kernels=prefill_kernels,
            name=f"{client}.prefill",
            seed_offset=tenant_seed_offset(client, index),
        ))
    for index, client in enumerate(clients):
        phases.append(decode_phase(
            ctas=decode_ctas, kernels=decode_kernels,
            name=f"{client}.decode",
            seed_offset=tenant_seed_offset(client, index) + 1,
        ))
    return _llm_base(
        name=f"LLM multi-tenant mix ({len(clients)} users)",
        abbr=abbr,
        description=(
            "Concurrent LLM users sharing one chip: per-tenant prefill"
            " bursts followed by interleaved decode tails, all under the"
            " configured power cap."
        ),
        phases=tuple(phases),
        total_ctas=max(prefill_ctas, decode_ctas),
    )


#: The registry the suite's lookup helpers merge with ``WORKLOAD_SPECS``.
LLM_WORKLOAD_SPECS: dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> None:
    LLM_WORKLOAD_SPECS[spec.abbr] = spec


_register(_llm_base(
    name="LLM prefill (prompt processing)",
    abbr="LLMPrefill",
    description=(
        "Pure prompt-processing: batched-GEMM-shaped compute-dense kernels"
        " at high CTA parallelism."
    ),
    category=WorkloadCategory.COMPUTE,
    phases=(prefill_phase(kernels=4),),
))

_register(_llm_base(
    name="LLM decode (token generation)",
    abbr="LLMDecode",
    description=(
        "Pure token generation: few-CTA, memory-latency-bound kernels"
        " streaming a KV-cache-like shared region."
    ),
    phases=(decode_phase(kernels=8),),
    total_ctas=32,
))

_register(serving_spec())

_register(multi_tenant_spec(("tenant0", "tenant1", "tenant2")))
