"""Performance counters bridging the simulator and the GPUJoule energy model.

The GPUJoule equation (Eq. 4) needs exactly four families of inputs:

1. per-opcode instruction counts (``instructions``),
2. memory transaction counts at each hierarchy level, at the transaction
   granularities implied by Table Ib (128 B for shared->RF and L1->RF, 32 B
   sectors for L2->L1 and DRAM->L2),
3. compute-lane stall counts (we use aggregate SM issue-slot idle cycles),
4. execution time (for the constant-power term).

The interconnect counters (bytes, byte-hops, switch traversals) extend the
model for the multi-module study exactly as Section V-A2 extends it with link
signaling energy.  Everything else in the struct is diagnostic.

A chip-level :class:`CounterSet` may additionally carry one *shard* per GPM
(``per_gpm``): the same struct, restricted to events that physically happened
on that module's hardware.  Shards are what let the energy model price each
GPM's core-domain events at that GPM's own V²f scale when modules run at
different operating points (see ``docs/POWER.md``); the chip-global integer
totals are always the exact sums of the shard values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.isa.opcodes import Opcode


@dataclass
class CounterSet:
    """All event counts produced by one simulation run."""

    # -- instruction execution ------------------------------------------------
    instructions: dict[Opcode, int] = field(default_factory=dict)

    # -- memory transactions (at Table Ib granularities) ----------------------
    shared_rf_txns: int = 0   # 128 B shared-memory <-> register-file moves
    l1_rf_txns: int = 0       # 128 B L1 <-> register-file moves
    l2_l1_txns: int = 0       # 32 B  L2 <-> L1 sector moves
    dram_l2_txns: int = 0     # 32 B  DRAM <-> L2 sector moves

    # -- inter-GPM interconnect ------------------------------------------------
    inter_gpm_bytes: int = 0            # payload bytes injected into the network
    inter_gpm_byte_hops: int = 0        # bytes x link traversals (energy basis)
    switch_byte_traversals: int = 0     # bytes through a switch fabric
    compression_codec_bytes: int = 0    # uncompressed bytes through link codecs

    # -- pipeline utilization ---------------------------------------------------
    sm_busy_cycles: float = 0.0   # summed over SMs
    sm_idle_cycles: float = 0.0   # summed over SMs ("stalls" in Eq. 4)

    # -- time -------------------------------------------------------------------
    elapsed_cycles: float = 0.0

    # -- diagnostics --------------------------------------------------------------
    local_accesses: int = 0
    remote_accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dirty_writebacks: int = 0

    # -- per-GPM shards -----------------------------------------------------------
    #: One shard per GPM, in GPM-id order, each holding the events that
    #: happened on that module's hardware.  Empty on shard structs themselves
    #: and on counters from sources without module attribution.
    per_gpm: tuple["CounterSet", ...] = ()

    def count_instruction(self, opcode: Opcode, count: int = 1) -> None:
        """Record ``count`` dynamic executions of ``opcode``."""
        self.instructions[opcode] = self.instructions.get(opcode, 0) + count

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions.values())

    @property
    def total_memory_accesses(self) -> int:
        return self.local_accesses + self.remote_accesses

    @property
    def remote_fraction(self) -> float:
        total = self.total_memory_accesses
        return 0.0 if total == 0 else self.remote_accesses / total

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return 0.0 if total == 0 else self.l1_hits / total

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return 0.0 if total == 0 else self.l2_hits / total

    def merge(self, other: "CounterSet") -> None:
        """Accumulate another run's counters (used per-kernel -> per-workload).

        ``elapsed_cycles`` adds, since kernels execute back-to-back.
        """
        for opcode, count in other.instructions.items():
            self.count_instruction(opcode, count)
        self.shared_rf_txns += other.shared_rf_txns
        self.l1_rf_txns += other.l1_rf_txns
        self.l2_l1_txns += other.l2_l1_txns
        self.dram_l2_txns += other.dram_l2_txns
        self.inter_gpm_bytes += other.inter_gpm_bytes
        self.inter_gpm_byte_hops += other.inter_gpm_byte_hops
        self.switch_byte_traversals += other.switch_byte_traversals
        self.compression_codec_bytes += other.compression_codec_bytes
        self.sm_busy_cycles += other.sm_busy_cycles
        self.sm_idle_cycles += other.sm_idle_cycles
        self.elapsed_cycles += other.elapsed_cycles
        self.local_accesses += other.local_accesses
        self.remote_accesses += other.remote_accesses
        self.l1_hits += other.l1_hits
        self.l1_misses += other.l1_misses
        self.l2_hits += other.l2_hits
        self.l2_misses += other.l2_misses
        self.dirty_writebacks += other.dirty_writebacks
        if other.per_gpm:
            if not self.per_gpm:
                self.per_gpm = tuple(CounterSet() for _ in other.per_gpm)
            if len(self.per_gpm) != len(other.per_gpm):
                raise ConfigError(
                    f"cannot merge counters with {len(other.per_gpm)} per-GPM"
                    f" shards into counters with {len(self.per_gpm)}"
                )
            for mine, theirs in zip(self.per_gpm, other.per_gpm):
                mine.merge(theirs)

    def scaled(self, factor: float) -> "CounterSet":
        """Return a copy with every count multiplied by ``factor``.

        Used by the microbenchmark harness to extrapolate a measured loop body
        to the full iteration count without replaying it.
        """
        result = CounterSet(
            instructions={
                opcode: int(round(count * factor))
                for opcode, count in self.instructions.items()
            }
        )
        result.shared_rf_txns = int(round(self.shared_rf_txns * factor))
        result.l1_rf_txns = int(round(self.l1_rf_txns * factor))
        result.l2_l1_txns = int(round(self.l2_l1_txns * factor))
        result.dram_l2_txns = int(round(self.dram_l2_txns * factor))
        result.inter_gpm_bytes = int(round(self.inter_gpm_bytes * factor))
        result.inter_gpm_byte_hops = int(round(self.inter_gpm_byte_hops * factor))
        result.switch_byte_traversals = int(
            round(self.switch_byte_traversals * factor)
        )
        result.compression_codec_bytes = int(
            round(self.compression_codec_bytes * factor)
        )
        result.sm_busy_cycles = self.sm_busy_cycles * factor
        result.sm_idle_cycles = self.sm_idle_cycles * factor
        result.elapsed_cycles = self.elapsed_cycles * factor
        result.local_accesses = int(round(self.local_accesses * factor))
        result.remote_accesses = int(round(self.remote_accesses * factor))
        result.l1_hits = int(round(self.l1_hits * factor))
        result.l1_misses = int(round(self.l1_misses * factor))
        result.l2_hits = int(round(self.l2_hits * factor))
        result.l2_misses = int(round(self.l2_misses * factor))
        result.dirty_writebacks = int(round(self.dirty_writebacks * factor))
        result.per_gpm = tuple(shard.scaled(factor) for shard in self.per_gpm)
        return result


class ComputeTally:
    """Segments executed per compute map, folded into instructions at the end.

    A warp executing a segment records the segment's ``{opcode: count}`` map
    by identity — one dict update per segment instead of one per opcode, and
    no opcode hashing on the hot path (the generators share one map across a
    kernel's segments).  :meth:`fold_into` then adds ``count * segments`` per
    opcode, visiting maps in first-seen order and each map in its own order,
    so ``instructions`` gains its keys in exactly the order per-segment
    counting would have added them (the energy sums iterate that dict).
    Each entry holds its map, so a live id is never reused by another map.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: ``id(compute) -> [compute, segments]``, in first-seen order.
        self.entries: dict[int, list] = {}

    def add(self, compute: dict[Opcode, int]) -> None:
        """Record one executed segment with compute counts ``compute``."""
        entry = self.entries.get(id(compute))
        if entry is None:
            self.entries[id(compute)] = [compute, 1]
        else:
            entry[1] += 1

    def fold_into(self, counters: CounterSet) -> None:
        """Add every tallied segment to ``counters.instructions``; reset."""
        instructions = counters.instructions
        for compute, segments in self.entries.values():
            for opcode, count in compute.items():
                instructions[opcode] = instructions.get(opcode, 0) + count * segments
        self.entries.clear()
