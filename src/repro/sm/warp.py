"""Warp execution contexts.

A warp advances segment by segment (see :mod:`repro.isa.program`): it reserves
issue slots on its SM, walks the segment's access tokens through the GPM
memory path in one call, then sleeps until the slowest dependency resolves.
Each segment costs exactly one simulation event.

A warp is not a generator process but a slotted state machine on the engine:
each resumption is a plain callback (:meth:`WarpContext._step` and the two
drain continuations), queued exactly where the equivalent generator process
would have been resumed, so events dispatch in the same order at the cost of
neither a generator, a :class:`~repro.sim.engine.Process` nor a done-event
per warp.

The warp records its own issue/stall split for diagnostics; the authoritative
idle accounting that feeds the EPStall energy term is done at the SM level
(issue-server busy time vs. elapsed time), because warp-private wait time
overlaps across warps and must not be double counted.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.isa.program import WarpProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sm.smcore import SmCore


class WarpState(enum.Enum):
    """Lifecycle of a warp context."""

    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


class WarpContext:
    """One resident warp: identity, program, progress statistics, and the
    state of its run on the engine.

    Contexts are poolable: a CTA slot runs its CTAs serially, so the
    scheduler keeps one context per resident-warp slot and :meth:`reset`\\ s
    it for each new CTA instead of allocating ``ctas x warps_per_cta``
    contexts (plus their scratch buffers) over a kernel's lifetime.

    Execution is software-pipelined one segment deep, mirroring how GPU
    compilers hoist the next iteration's loads above the current
    iteration's consumers: segment ``k+1`` issues while segment ``k``'s
    memory is still in flight, so a warp tolerates one full memory round
    trip beyond its per-segment MLP.  Each step issues segment ``k+1`` and
    then drains segment ``k``: first a timeout to its analytic completion,
    then a wait on its remote-load events (one event directly, several
    through a counting barrier).
    """

    __slots__ = (
        "cta_id",
        "warp_id",
        "program",
        "state",
        "instructions_executed",
        "segments_executed",
        "wait_cycles",
        "_sm",
        "_on_finish",
        "_next",
        "_issue_done",
        "_completion",
        "_prev_completion",
        "_prev_waiting",
        "_pending",
        "_prev_events",
        "_barrier",
    )

    def __init__(self, cta_id: int, warp_id: int, program: WarpProgram):
        # Ping-pong pending buffers reused across every run this context
        # ever makes: the drain consumes one while the next segment fills
        # the other, so neither a segment nor (pooled) a CTA allocates one.
        self._pending: list = []
        self._prev_events: list = []
        self._sm: "SmCore | None" = None
        self._on_finish: Callable[[Any], None] | None = None
        self.reset(cta_id, warp_id, program)

    def reset(self, cta_id: int, warp_id: int, program: WarpProgram) -> None:
        """Rebind this context to a new (CTA, warp) and clear its stats."""
        self.cta_id = cta_id
        self.warp_id = warp_id
        self.program = program
        self.state = WarpState.READY
        self.instructions_executed = 0
        self.segments_executed = 0
        self.wait_cycles = 0.0

    def start(
        self, sm: "SmCore", on_finish: Callable[[Any], None] | None = None
    ) -> None:
        """Run this warp on ``sm``, starting on the next engine step.

        The start is one now-queue entry, as a process spawn is.  When the
        last segment drains, ``on_finish(None)`` is queued on the now queue
        — the hop a finished process's done-event makes into its waiter.
        """
        self._sm = sm
        self._on_finish = on_finish
        self._next = 0
        self._prev_completion = 0.0
        self._prev_waiting = False
        self._pending.clear()
        self._prev_events.clear()
        self.state = WarpState.RUNNING
        sm.engine.schedule(0.0, self._step)

    def _step(self, _value: Any) -> None:
        """Issue the next segment (if any), then drain the previous one.

        Loops while a drain completes without waiting, so a run of
        non-blocking segments costs one callback, as in a generator.
        """
        sm = self._sm
        engine = sm.engine
        segments = self.program.segments
        while True:
            index = self._next
            if index < len(segments):
                segment = segments[index]
                self._next = index + 1
                issue_done = sm.issue.reserve(segment.issue_slots)
                sm.compute_tally.add(segment.compute)
                pending = self._pending
                pending.clear()
                self._completion = sm.memory.access(
                    sm.local_index, segment.accesses, issue_done, pending
                )
                self.instructions_executed += segment.total_instructions
                self.segments_executed += 1
                self._issue_done = issue_done
            else:
                self._issue_done = None
            now = engine.now
            prev_completion = self._prev_completion
            if prev_completion > now:
                engine.call_at(prev_completion, self._after_timeout)
                return
            if self._prev_waiting:
                self._wait_events()
                return
            if not self._retire_previous():
                return

    def _after_timeout(self, _value: Any) -> None:
        if self._prev_waiting:
            self._wait_events()
        elif self._retire_previous():
            self._step(None)

    def _wait_events(self) -> None:
        """Wait on the previous segment's remote-load events."""
        events = self._prev_events
        if len(events) == 1:
            events[0].add_callback(self._after_events)
            return
        hit = self._barrier_hit
        waiting = 0
        for event in events:
            if not event.triggered:
                event.add_callback(hit)
                waiting += 1
        if waiting == 0:
            self._sm.engine.schedule(0.0, self._after_events)
        else:
            self._barrier = waiting

    def _barrier_hit(self, _value: Any) -> None:
        self._barrier -= 1
        if self._barrier == 0:
            self._after_events(None)

    def _after_events(self, _value: Any) -> None:
        if self._retire_previous():
            self._step(None)

    def _retire_previous(self) -> bool:
        """Close the drained segment; False once the warp has finished."""
        issue_done = self._issue_done
        if issue_done is None:
            self._finish()
            return False
        self.wait_cycles += max(0.0, self._sm.engine.now - issue_done)
        self._prev_completion = self._completion
        pending = self._pending
        self._prev_waiting = bool(pending)
        self._pending = self._prev_events
        self._prev_events = pending
        return True

    def _finish(self) -> None:
        self.state = WarpState.FINISHED
        on_finish = self._on_finish
        engine = self._sm.engine
        # Drop the back-references: a pooled context holding its slot's
        # bound method would tie the slot, the pool and the SM into a cycle
        # that outlives the run until a full garbage collection.
        self._sm = None
        self._on_finish = None
        if on_finish is not None:
            engine.schedule(0.0, on_finish)

    def __repr__(self) -> str:
        return (
            f"WarpContext(cta={self.cta_id}, warp={self.warp_id},"
            f" state={self.state.value})"
        )
