"""Discrete-event simulation substrate.

The performance simulator is built on a small, dependency-free discrete-event
kernel:

* :class:`~repro.sim.engine.Engine` — the event heap and simulation clock.
* :class:`~repro.sim.engine.Process` — generator-based coroutines that model
  warps, CTA dispatchers, and other active agents.
* :mod:`~repro.sim.resources` — analytic FCFS bandwidth servers used for SM
  issue slots, DRAM channels, and interconnect links.
* :mod:`~repro.sim.stats` — lightweight online statistics used by counters.
"""

from repro.sim.engine import AllOf, Engine, Event, Process, Timeout
from repro.sim.resources import BandwidthServer, ThroughputServer
from repro.sim.stats import Accumulator, Histogram

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "BandwidthServer",
    "ThroughputServer",
    "Accumulator",
    "Histogram",
]
