"""Intra-SM CTA slot scheduling.

Each SM exposes a fixed number of *CTA slots* (occupancy).  A slot runs one
CTA at a time: it starts all of the CTA's warps concurrently, waits for every
warp to retire, then pulls the next CTA from the GPM's work queue.  With
``slots`` concurrent CTAs of ``warps_per_cta`` warps each, the SM holds
``slots * warps_per_cta`` resident warps — the latency-tolerance pool that
lets issue bandwidth stay busy while individual warps wait on memory.

Slots and warps run as engine callback chains, not generator processes:
a slot (:class:`_CtaSlot`) counts its CTA's warps down as each finished
warp hops into it through the now queue, exactly the queue entries a slot
process waiting on its warps' done-events would see.  Only
:meth:`CtaSlotScheduler.run_kernel` stays a generator, run inside the GPM's
kernel-share process.

The GPM work queue is shared by the GPM's SMs, giving dynamic load balancing
within a module; *across* modules, CTAs are partitioned statically by the
distributed scheduler in :mod:`repro.gpu.cta_scheduler` so that first-touch
placement localizes each partition's pages.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.isa.kernel import Kernel
from repro.sim.engine import AllOf, Event
from repro.sm.warp import WarpContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sm.smcore import SmCore


class CtaSlotScheduler:
    """Runs a GPM's CTA queue across that GPM's SMs for one kernel."""

    def __init__(self, sms: list["SmCore"], slots_per_sm: int):
        if not sms:
            raise ConfigError("scheduler needs at least one SM")
        if slots_per_sm <= 0:
            raise ConfigError(f"slots_per_sm must be positive, got {slots_per_sm}")
        self.sms = sms
        self.slots_per_sm = slots_per_sm
        self.ctas_started = 0
        self.ctas_finished = 0

    def run_kernel(self, kernel: Kernel, cta_ids: list[int]) -> Generator:
        """Process generator: execute ``cta_ids`` of ``kernel``; returns when done.

        Runs inside the GPM's process; it starts one slot chain per
        (SM, slot) pair and waits for all of them.
        """
        queue: deque[int] = deque(cta_ids)
        slots = [
            _CtaSlot(self, sm, slot, kernel, queue)
            for sm in self.sms
            for slot in range(self.slots_per_sm)
        ]
        yield AllOf([slot.done for slot in slots])


class _CtaSlot:
    """One (SM, slot) pair draining the shared CTA queue, one CTA at a time.

    Every step is an engine callback: the start is one now-queue entry (a
    process spawn's), each finished warp one now-queue hop into
    :meth:`_warp_done`, and :attr:`done` succeeds when the queue is empty.
    """

    __slots__ = (
        "scheduler", "sm", "kernel", "queue", "track", "pool", "done",
        "_cta_cycles", "_started", "_waiting",
    )

    def __init__(
        self,
        scheduler: CtaSlotScheduler,
        sm: "SmCore",
        slot: int,
        kernel: Kernel,
        queue: deque[int],
    ):
        engine = sm.engine
        self.scheduler = scheduler
        self.sm = sm
        self.kernel = kernel
        self.queue = queue
        self.track = f"sm{sm.sm_id}.slot{slot}"
        # Warp-context pool: this slot runs CTAs serially, so every CTA's
        # warp i can recycle the same context (and its scratch buffers)
        # instead of allocating ctas x warps_per_cta contexts per kernel.
        self.pool: list[WarpContext] = []
        self.done = Event(engine)
        self._cta_cycles = engine.metrics.accumulator("sm.cta_cycles")
        self._started = 0.0
        self._waiting = 0
        engine.schedule(0.0, self._next_cta)

    def _next_cta(self, _value: Any) -> None:
        """Start the next queued CTA's warps, or finish the slot."""
        queue = self.queue
        if not queue:
            self.done.succeed(None)
            return
        cta_id = queue.popleft()
        self.scheduler.ctas_started += 1
        sm = self.sm
        engine = sm.engine
        kernel = self.kernel
        self._started = engine.now
        tracer = engine.tracer
        if tracer.enabled:
            tracer.begin(
                self.track,
                f"{kernel.name}/cta{cta_id}",
                self._started,
                args={"warps": kernel.warps_per_cta},
            )
        pool = self.pool
        warp_done = self._warp_done
        started = 0
        for warp_id, program in enumerate(kernel.cta_programs(cta_id)):
            if warp_id < len(pool):
                warp = pool[warp_id]
                warp.reset(cta_id, warp_id, program)
            else:
                warp = WarpContext(cta_id, warp_id, program)
                pool.append(warp)
            warp.start(sm, warp_done)
            started += 1
        if started == 0:
            engine.schedule(0.0, self._cta_done)
        else:
            self._waiting = started

    def _warp_done(self, _value: Any) -> None:
        self._waiting -= 1
        if self._waiting == 0:
            self._cta_done(None)

    def _cta_done(self, _value: Any) -> None:
        sm = self.sm
        engine = sm.engine
        self.scheduler.ctas_finished += 1
        sm.ctas_retired += 1
        self._cta_cycles.add(engine.now - self._started)
        if engine.tracer.enabled:
            engine.tracer.end(self.track, engine.now)
        self._next_cta(None)
