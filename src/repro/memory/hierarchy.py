"""Per-GPM memory path: L1s, module L2, local DRAM, and remote access routing.

This module implements the complete access flow for one GPM:

* **Shared memory** accesses hit the on-SM scratchpad: one 128 B shared->RF
  transaction, fixed latency, never leave the SM.
* **Global loads** probe the per-SM L1 (write-through, no-write-allocate),
  then the module-side L2 (write-back, write-allocate), then the home DRAM —
  local directly, remote through the inter-GPM network (request header out,
  home-L2 probe, home-DRAM read on miss, data payload back).  Fetched remote
  lines are cached in the *requester's* L2 with their home recorded, so the
  software-coherence flush can drop them at the next kernel boundary.
* **Global stores** are write-through at L1.  Local stores write-allocate in
  the module L2 (dirty lines write back to local DRAM on eviction).  Remote
  stores bypass the L2 and stream to the home DRAM over the network — this is
  what makes the kernel-boundary flash-invalidate correct without writeback
  traffic: no remote-homed line is ever dirty.

Local paths are priced *analytically*: every stage carries the same constant
pipeline offset, so reserving at ``earliest = issue + latency`` preserves FCFS
order and the warp sleeps once, on the final completion time.  Remote paths
must NOT be priced that way: reserving a home-DRAM channel or a return link at
a far-future ``earliest`` would push the server's horizon past idle time it
could have served others in (a non-work-conserving queue that melts down under
NUMA traffic).  Remote accesses therefore run as short callback chains on
:meth:`~repro.sim.engine.Engine.call_at` — one slotted object per remote leg
(:class:`_RemoteLoad`, :class:`_RemoteStore`), one callback per stage — that
reserve each resource when the payload actually arrives at it.  Each stage
is queued exactly where a generator process yielding ``wait_until`` would
resume, so events dispatch in the same order as such a process would, at
the cost of neither a generator nor a process object per leg.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.gpu.counters import CounterSet
from repro.interconnect.topology import Topology
from repro.isa.opcodes import MemSpace
from repro.isa.program import MemAccess
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import DramChannel
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine, Event
from repro.units import CACHE_LINE_BYTES, SECTORS_PER_LINE

#: Size of a request header message on the inter-GPM network (bytes).
REQUEST_HEADER_BYTES: int = 32

#: Shared empty pending-event container for accesses with no remote legs —
#: the overwhelmingly common case, not worth a fresh list per access.
_NO_EVENTS: tuple = ()


@dataclass(frozen=True)
class HierarchyLatencies:
    """Fixed pipeline latencies for the hierarchy stages (cycles)."""

    shared: float = 25.0
    l1: float = 30.0
    l2: float = 120.0

    def __post_init__(self) -> None:
        for name in ("shared", "l1", "l2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"latency {name!r} must be non-negative")


class GpmMemory:
    """The memory system of one GPM, plus its window onto remote GPMs."""

    def __init__(
        self,
        engine: Engine,
        gpm_id: int,
        num_sms: int,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        dram: DramChannel,
        placement: PagePlacement,
        counters: CounterSet,
        latencies: HierarchyLatencies | None = None,
    ):
        self.engine = engine
        self.gpm_id = gpm_id
        self.latencies = latencies or HierarchyLatencies()
        self.l1s = [
            Cache(
                CacheConfig(
                    capacity_bytes=l1_config.capacity_bytes,
                    line_bytes=l1_config.line_bytes,
                    associativity=l1_config.associativity,
                    write_allocate=False,
                    write_back=False,
                    name=f"gpm{gpm_id}.l1.{sm}",
                )
            )
            for sm in range(num_sms)
        ]
        self.l2 = Cache(
            CacheConfig(
                capacity_bytes=l2_config.capacity_bytes,
                line_bytes=l2_config.line_bytes,
                associativity=l2_config.associativity,
                write_allocate=True,
                write_back=True,
                name=f"gpm{gpm_id}.l2",
            )
        )
        self.dram = dram
        self.placement = placement
        self.counters = counters
        self._track = f"gpm{gpm_id}.mem"
        # The tracer is fixed at engine construction and `enabled` is a class
        # attribute, so both are safe to snapshot out of the hot path.
        self._tracer = engine.tracer
        self._trace = engine.tracer.enabled
        self._remote_load_cycles = engine.metrics.accumulator(
            "memory.remote_load_cycles"
        )
        self._remote_store_cycles = engine.metrics.accumulator(
            "memory.remote_store_cycles"
        )
        # Wired by MultiGpu after all GPMs exist:
        self.topology: Topology | None = None
        self.peers: list["GpmMemory"] = []

    # ------------------------------------------------------------------ helpers

    def _lines_touched(self, access: MemAccess) -> range:
        first = access.address // CACHE_LINE_BYTES
        last = (access.address + access.size - 1) // CACHE_LINE_BYTES
        return range(first, last + 1)

    # ------------------------------------------------------------------ access

    def access(
        self, sm_index: int, access: MemAccess, earliest: float
    ) -> "tuple[float, tuple[Event, ...] | list[Event]]":
        """Perform one warp-level access.

        Returns ``(completion_time, pending_events)``: the analytic completion
        bound for local stages plus done-events of any remote loads the
        access started (an immutable, possibly shared, empty container
        when there are none — callers must not mutate it).  Stores complete
        when their data leaves the SM (the warp does not wait for downstream
        drain); loads complete on data arrival.
        """
        if access.space is MemSpace.SHARED:
            self.counters.shared_rf_txns += 1
            return earliest + self.latencies.shared, _NO_EVENTS

        if access.size <= CACHE_LINE_BYTES and access.address % CACHE_LINE_BYTES == 0:
            # Fast path: one aligned line (how the generators emit accesses).
            done = self._access_line(
                sm_index, access.address, access.is_store, earliest
            )
            if done.__class__ is Event:
                return earliest, (done,)
            return done, _NO_EVENTS

        completion = earliest
        events: list[Event] = []
        for line_index in self._lines_touched(access):
            line_address = line_index * CACHE_LINE_BYTES
            done = self._access_line(
                sm_index, line_address, access.is_store, earliest
            )
            if isinstance(done, Event):
                events.append(done)
            elif done > completion:
                completion = done
        return completion, events

    def _access_line(
        self, sm_index: int, line_address: int, is_store: bool, earliest: float
    ) -> "float | Event":
        counters = self.counters
        counters.l1_rf_txns += 1
        gpm_id = self.gpm_id
        home = self.placement.home(line_address, gpm_id)
        if home == gpm_id:
            counters.local_accesses += 1
        else:
            counters.remote_accesses += 1

        if is_store:
            # Write-through, no-write-allocate at L1: stores bypass the L1
            # tag store entirely and head downstream.
            return self._store_line(line_address, home, earliest)
        hit, _ = self.l1s[sm_index].access(line_address, False, home)
        if hit:
            counters.l1_hits += 1
            return earliest + self.latencies.l1
        counters.l1_misses += 1
        if self._trace:
            self._tracer.instant(self._track, "l1.miss", earliest)
        return self._load_miss(line_address, home, earliest)

    # ------------------------------------------------------------------ loads

    def _load_miss(
        self, line_address: int, home: int, earliest: float
    ) -> "float | Event":
        counters = self.counters
        at_l2 = earliest + self.latencies.l1
        counters.l2_l1_txns += SECTORS_PER_LINE
        hit, dirty_evicted = self.l2.access(line_address, False, home)
        if dirty_evicted:
            self._writeback_local(at_l2)
        if hit:
            counters.l2_hits += 1
            return at_l2 + self.latencies.l2
        counters.l2_misses += 1
        if self._trace:
            self._tracer.instant(
                self._track, "l2.miss", at_l2, args={"home": home}
            )
        after_l2 = at_l2 + self.latencies.l2

        if home == self.gpm_id:
            counters.dram_l2_txns += SECTORS_PER_LINE
            return self.dram.read(CACHE_LINE_BYTES, after_l2)

        return _RemoteLoad(self, line_address, home, after_l2).done

    # ------------------------------------------------------------------ stores

    def _store_line(self, line_address: int, home: int, earliest: float) -> float:
        counters = self.counters
        left_sm = earliest + self.latencies.l1
        if home == self.gpm_id:
            counters.l2_l1_txns += SECTORS_PER_LINE
            _, dirty_evicted = self.l2.access(line_address, True, home)
            if dirty_evicted:
                self._writeback_local(left_sm)
            return left_sm
        # Remote store: bypass local L2, stream payload to the home DRAM.
        # (Guarantees remote-homed lines are never dirty in any module L2.)
        # Fire-and-forget: the warp does not wait, but the drain reserves
        # each resource at actual arrival time.
        _RemoteStore(self, home, left_sm)
        return left_sm

    def _writeback_local(self, earliest: float) -> None:
        """Drain one dirty local line to local DRAM (fire-and-forget)."""
        self.counters.dram_l2_txns += SECTORS_PER_LINE
        self.counters.dirty_writebacks += 1
        self.dram.write(CACHE_LINE_BYTES, earliest)

    # ------------------------------------------------------------------ wiring

    def _require_topology(self) -> Topology:
        if self.topology is None:
            raise ConfigError(
                f"GPM {self.gpm_id} has remote traffic but no interconnect;"
                " single-GPM configs must keep all pages local"
            )
        return self.topology

    def connect(self, topology: Topology | None, peers: list["GpmMemory"]) -> None:
        """Late wiring of the interconnect and peer GPM memories."""
        self.topology = topology
        self.peers = peers


class _RemoteLoad:
    """One remote load leg: request out, home L2 or DRAM, data back.

    Each stage is one engine callback; :attr:`done` succeeds when the data
    reaches the requester.  Resources are reserved as the message reaches
    them, so links and the home DRAM stay work-conserving under NUMA load.
    """

    __slots__ = ("memory", "line_address", "home", "start", "done")

    def __init__(
        self, memory: GpmMemory, line_address: int, home: int, start: float
    ):
        self.memory = memory
        self.line_address = line_address
        self.home = home
        self.start = start
        engine = memory.engine
        self.done = Event(engine)
        engine.schedule(0.0, self._spawn)

    def _spawn(self, _value: None) -> None:
        memory = self.memory
        memory._require_topology()
        memory.engine.call_at(self.start, self._request)

    def _request(self, _value: None) -> None:
        memory = self.memory
        request = memory.topology.transfer(
            memory.gpm_id, self.home, REQUEST_HEADER_BYTES
        )
        counters = memory.counters
        counters.inter_gpm_bytes += REQUEST_HEADER_BYTES
        counters.inter_gpm_byte_hops += REQUEST_HEADER_BYTES * request.hops
        counters.switch_byte_traversals += (
            REQUEST_HEADER_BYTES * request.switch_traversals
        )
        memory.engine.call_at(request.completion_time, self._serve)

    def _serve(self, _value: None) -> None:
        engine = self.memory.engine
        peer = self.memory.peers[self.home]
        if peer.l2.probe(self.line_address):
            # Served out of the home GPM's module L2 (probe only: no fill,
            # no LRU churn from remote readers).  The transaction happens on
            # the home module's hardware, so it lands in the home shard.
            peer.counters.l2_l1_txns += SECTORS_PER_LINE
            data_ready = engine.now + peer.latencies.l2
        else:
            peer.counters.dram_l2_txns += SECTORS_PER_LINE
            data_ready = peer.dram.read(CACHE_LINE_BYTES)
        engine.call_at(data_ready, self._respond)

    def _respond(self, _value: None) -> None:
        memory = self.memory
        response = memory.topology.transfer(
            self.home, memory.gpm_id, CACHE_LINE_BYTES
        )
        counters = memory.counters
        counters.inter_gpm_bytes += CACHE_LINE_BYTES
        counters.inter_gpm_byte_hops += CACHE_LINE_BYTES * response.hops
        counters.switch_byte_traversals += (
            CACHE_LINE_BYTES * response.switch_traversals
        )
        memory.engine.call_at(response.completion_time, self._finish)

    def _finish(self, _value: None) -> None:
        memory = self.memory
        start = self.start
        elapsed = memory.engine.now - start
        memory._remote_load_cycles.add(elapsed)
        if memory._trace:
            memory._tracer.complete(
                memory._track, f"remote_load->g{self.home}", start, elapsed
            )
        self.done.succeed(None)


class _RemoteStore:
    """One remote store drain: payload out, home DRAM write.

    Nothing waits on a store drain, so it carries no done-event.
    """

    __slots__ = ("memory", "home", "start")

    def __init__(self, memory: GpmMemory, home: int, start: float):
        self.memory = memory
        self.home = home
        self.start = start
        memory.engine.schedule(0.0, self._spawn)

    def _spawn(self, _value: None) -> None:
        memory = self.memory
        memory._require_topology()
        memory.engine.call_at(self.start, self._send)

    def _send(self, _value: None) -> None:
        memory = self.memory
        transfer = memory.topology.transfer(
            memory.gpm_id, self.home, CACHE_LINE_BYTES
        )
        counters = memory.counters
        counters.inter_gpm_bytes += CACHE_LINE_BYTES
        counters.inter_gpm_byte_hops += CACHE_LINE_BYTES * transfer.hops
        counters.switch_byte_traversals += (
            CACHE_LINE_BYTES * transfer.switch_traversals
        )
        memory.engine.call_at(transfer.completion_time, self._write)

    def _write(self, _value: None) -> None:
        memory = self.memory
        # The drain writes the home module's DRAM: home shard.
        peer = memory.peers[self.home]
        peer.counters.dram_l2_txns += SECTORS_PER_LINE
        peer.dram.write(CACHE_LINE_BYTES)
        start = self.start
        elapsed = memory.engine.now - start
        memory._remote_store_cycles.add(elapsed)
        if memory._trace:
            memory._tracer.complete(
                memory._track, f"remote_store->g{self.home}", start, elapsed
            )
