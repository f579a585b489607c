"""Differential harness: warp and CTA-slot callback chains vs generator processes.

Warps (:class:`repro.sm.warp.WarpContext`) and CTA slots
(:class:`repro.sm.scheduler.CtaSlotScheduler`) run as engine callback
chains.  This module keeps the generator-process control flow they replaced
— one :class:`~repro.sim.engine.Process` per warp and per slot, yielding
timeouts, events and ``AllOf`` barriers — as an executable reference, in
the way :class:`~repro.memory.cache.ReferenceCache` serves the tag store.
The reference calls the same memory and tally API as production, so only
the control flow differs.

Hypothesis programs run through both on a 4-GPM ring with every page
interleaved, so most lines are remote: several segments per warp, remote
loads (multi-event barriers), local and remote stores, shared-memory
accesses and unaligned multi-line accesses.  The two runs must agree
exactly on the engine's event count and final clock, on every counter
(including the key order of ``instructions``), and on each warp's
statistics in finishing order.  Paper workloads have one segment per warp,
so this is the only check of the pipelined drain across segments.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.multigpu import MultiGpu
from repro.isa.kernel import Kernel, Workload, WorkloadCategory
from repro.isa.opcodes import MemSpace, Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram
from repro.sim.engine import AllOf, Timeout
from repro.sm.scheduler import CtaSlotScheduler
from repro.sm.warp import WarpContext, WarpState

from tests.conftest import small_config

NUM_GPMS = 4


# ---------------------------------------------------------------- reference


def reference_body(warp: WarpContext, sm, finished: list):
    """The generator warp body: segment k+1 issues while k drains."""
    engine = sm.engine
    pending: list = []
    prev_events: list = []
    warp.state = WarpState.RUNNING
    prev_completion = 0.0
    prev_waiting = False
    for segment in warp.program:
        issue_done = sm.issue.reserve(segment.issue_slots)
        sm.compute_tally.add(segment.compute)
        pending.clear()
        completion = sm.memory.access(
            sm.local_index, segment.accesses, issue_done, pending
        )
        warp.instructions_executed += segment.total_instructions
        warp.segments_executed += 1
        if prev_completion > engine.now:
            yield Timeout(prev_completion - engine.now)
        if prev_waiting:
            if len(prev_events) == 1:
                yield prev_events[0]
            else:
                yield AllOf(prev_events)
        warp.wait_cycles += max(0.0, engine.now - issue_done)
        prev_completion = completion
        prev_waiting = bool(pending)
        pending, prev_events = prev_events, pending
    if prev_completion > engine.now:
        yield Timeout(prev_completion - engine.now)
    if prev_waiting:
        if len(prev_events) == 1:
            yield prev_events[0]
        else:
            yield AllOf(prev_events)
    warp.state = WarpState.FINISHED
    finished.append(warp_stats(warp, engine.now))


class ReferenceScheduler(CtaSlotScheduler):
    """One generator process per (SM, slot) and per warp."""

    def __init__(self, sms, slots_per_sm: int, finished: list):
        super().__init__(sms, slots_per_sm)
        self.finished = finished

    def run_kernel(self, kernel, cta_ids):
        queue = deque(cta_ids)
        engine = self.sms[0].engine
        processes = [
            engine.process(self._slot_body(sm, slot, kernel, queue))
            for sm in self.sms
            for slot in range(self.slots_per_sm)
        ]
        yield AllOf([process.done for process in processes])

    def _slot_body(self, sm, slot, kernel, queue):
        engine = sm.engine
        tracer = engine.tracer
        cta_cycles = engine.metrics.accumulator("sm.cta_cycles")
        track = f"sm{sm.sm_id}.slot{slot}"
        while queue:
            cta_id = queue.popleft()
            self.ctas_started += 1
            started = engine.now
            if tracer.enabled:
                tracer.begin(track, f"{kernel.name}/cta{cta_id}", started)
            processes = [
                engine.process(
                    reference_body(
                        WarpContext(cta_id, warp_id, program), sm, self.finished
                    )
                )
                for warp_id, program in enumerate(kernel.cta_programs(cta_id))
            ]
            yield AllOf([process.done for process in processes])
            self.ctas_finished += 1
            sm.ctas_retired += 1
            cta_cycles.add(engine.now - started)
            if tracer.enabled:
                tracer.end(track, engine.now)


# ---------------------------------------------------------------- harness


def warp_stats(warp: WarpContext, now: float) -> tuple:
    return (
        warp.cta_id,
        warp.warp_id,
        warp.instructions_executed,
        warp.segments_executed,
        warp.wait_cycles,
        now,
    )


def run(workload: Workload, reference: bool) -> dict:
    """Simulate ``workload``; everything the two control flows must share."""
    finished: list = []
    gpu = MultiGpu(small_config(num_gpms=NUM_GPMS))
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            for gpm in gpu.gpms:
                gpm.scheduler = ReferenceScheduler(
                    gpm.sms, gpm.config.slots_per_sm, finished
                )
        else:
            finish = WarpContext._finish

            def recording_finish(warp):
                finished.append(warp_stats(warp, warp._sm.engine.now))
                finish(warp)

            patch.setattr(WarpContext, "_finish", recording_finish)
        counters = gpu.run(workload)
    return {
        "events": gpu.engine.events_processed,
        "now": gpu.engine.now,
        "counters": dataclasses.asdict(counters),
        "instruction_order": [
            list(shard.instructions) for shard in (counters, *counters.per_gpm)
        ],
        "ctas": [
            (gpm.scheduler.ctas_started, gpm.scheduler.ctas_finished)
            for gpm in gpu.gpms
        ],
        "warps": finished,
    }


def make_workload(programs: list[WarpProgram], kernels, warps_per_cta) -> Workload:
    def factory(cta_id: int, warp_id: int) -> WarpProgram:
        return programs[(cta_id * warps_per_cta + warp_id) % len(programs)]

    return Workload(
        "chain",
        [
            Kernel(f"chain.k{index}", num_ctas, warps_per_cta, factory)
            for index, num_ctas in enumerate(kernels)
        ],
        WorkloadCategory.MEMORY,
        # Every page interleaved: ~3/4 of all lines are homed remotely.
        interleaved_base=0,
    )


# A few shared compute maps, so the tally sees the same map many times and
# the fold's first-seen key order is exercised; the empty map gives
# memory-only segments.
_COMPUTE_MAPS = (
    {},
    {Opcode.FFMA32: 6, Opcode.IADD32: 2},
    {Opcode.FADD64: 3},
    {Opcode.SIN32: 1, Opcode.FFMA32: 2},
)
# Addresses span a few pages so lines are revisited across warps and GPMs:
# L1 and L2 hits, home-L2 service of remote loads, and L2 write-backs.
_accesses = st.builds(
    MemAccess,
    address=st.integers(min_value=0, max_value=6 * 64 * 1024),
    size=st.sampled_from([4, 32, 128, 128, 256]),
    is_store=st.booleans(),
    space=st.sampled_from([MemSpace.GLOBAL] * 4 + [MemSpace.SHARED]),
)
_segments = st.builds(
    Segment,
    compute=st.sampled_from(_COMPUTE_MAPS),
    accesses=st.lists(_accesses, max_size=4).map(tuple),
)
_programs = st.lists(_segments, min_size=1, max_size=5).map(WarpProgram)


@settings(max_examples=150, deadline=None)
@given(
    programs=st.lists(_programs, min_size=1, max_size=6),
    kernels=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=2),
    warps_per_cta=st.integers(min_value=1, max_value=3),
)
def test_chains_match_generator_processes(programs, kernels, warps_per_cta):
    workload = make_workload(programs, kernels, warps_per_cta)
    assert run(workload, reference=False) == run(workload, reference=True)


def test_fixed_program_covers_every_wait(monkeypatch):
    """A deterministic case that provably takes every drain path: timeouts,
    single-event waits and multi-event barriers."""
    remote_pair = Segment(
        compute={Opcode.FFMA32: 4},
        accesses=(
            MemAccess(0x10000 + 128, 128),
            MemAccess(0x20000 + 64, 128),  # unaligned: two lines
            MemAccess(0x30000, 128, is_store=True),
            MemAccess(0x40, 128, space=MemSpace.SHARED),
        ),
    )
    single = Segment(compute={Opcode.FADD64: 2}, accesses=(MemAccess(0x50000, 128),))
    programs = [WarpProgram([remote_pair, single, remote_pair, single])]
    workload = make_workload(programs, [8, 4], warps_per_cta=2)

    waits: list[int] = []
    wait_events = WarpContext._wait_events

    def counting_wait(warp):
        waits.append(len(warp._prev_events))
        wait_events(warp)

    monkeypatch.setattr(WarpContext, "_wait_events", counting_wait)
    chained = run(workload, reference=False)
    reference = run(workload, reference=True)
    assert chained == reference
    assert any(count == 1 for count in waits)
    assert any(count > 1 for count in waits)
    assert chained["counters"]["remote_accesses"] > 0
    assert chained["counters"]["shared_rf_txns"] > 0
