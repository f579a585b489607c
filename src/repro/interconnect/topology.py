"""Topology interface shared by the ring and switch networks.

A topology turns a (src GPM, dst GPM, size) transfer into reservations on the
links along the route.  Transfers use *virtual cut-through* accounting: the
payload is serialized once on every hop link (each link's FCFS queue applies),
and the completion time is the latest link-completion plus the accumulated
per-hop propagation latency.  This costs one event per transfer regardless of
hop count, which is what keeps 32-GPM ring simulations cheap, while still
letting congestion emerge from per-link queueing.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

from repro.errors import ConfigError, SimulationError
from repro.interconnect.link import Link
from repro.interconnect.traffic import TrafficCounters


class TransferResult(NamedTuple):
    """Outcome of one inter-GPM transfer reservation."""

    completion_time: float
    hops: int
    switch_traversals: int


class Topology(abc.ABC):
    """Common behaviour for inter-GPM networks."""

    def __init__(self, num_gpms: int):
        if num_gpms < 2:
            raise ConfigError(
                f"an interconnect needs at least 2 GPMs, got {num_gpms}"
            )
        self.num_gpms = num_gpms
        self.traffic = TrafficCounters()
        #: ``(src, dst) -> (links, switch_traversals, latency_sum)``, filled
        #: on first use: routes are static, so each pair is routed once.
        self._routes: dict[tuple[int, int], tuple[tuple[Link, ...], int, float]] = {}
        # Engine and metric handles, bound lazily on first transfer (links
        # carry the engine; the topology itself is constructed before it has
        # one).
        self._engine = None
        self._transfer_bytes = None
        self._transfer_cycles = None

    @abc.abstractmethod
    def route(self, src: int, dst: int) -> tuple[list[Link], int]:
        """Return ``(links, switch_traversals)`` for a src->dst transfer."""

    @abc.abstractmethod
    def links(self) -> list[Link]:
        """Every link in the network (diagnostics and tests)."""

    def _memoize_route(
        self, src: int, dst: int
    ) -> tuple[tuple[Link, ...], int, float]:
        self._check_endpoints(src, dst)
        links, switch_traversals = self.route(src, dst)
        if not links:
            raise ConfigError(f"route {src}->{dst} has no links")
        latency = 0.0
        for link in links:
            latency += link.config.latency_cycles
        if self._engine is None:
            engine = self._engine = links[0].server.engine
            self._transfer_bytes = engine.metrics.histogram(
                "interconnect.transfer_bytes", 32.0
            )
            self._transfer_cycles = engine.metrics.accumulator(
                "interconnect.transfer_cycles"
            )
        route = self._routes[(src, dst)] = (tuple(links), switch_traversals, latency)
        return route

    def transfer(
        self, src: int, dst: int, nbytes: int, earliest: float | None = None
    ) -> TransferResult:
        """Reserve a transfer of ``nbytes`` from GPM ``src`` to GPM ``dst``.

        ``earliest`` bounds when injection may begin (payload availability).
        Returns the :class:`TransferResult`: the completion time the caller
        sleeps until, plus the route's hop and switch-traversal counts.
        """
        route = self._routes.get((src, dst))
        if route is None:
            route = self._memoize_route(src, dst)
        links, switch_traversals, latency = route
        if nbytes < 0:
            raise SimulationError(
                f"negative reservation on {links[0].server.name!r}: {nbytes!r}"
            )
        engine = self._engine
        injected = engine.now if earliest is None else earliest
        # Per-hop FCFS serialization, inlined from Link.reserve and
        # BandwidthServer.reserve (same operations, same order).
        finish = 0.0
        for link in links:
            link.bytes_transferred += nbytes
            link.transfers += 1
            server = link.server
            start = server.free_at
            if injected > start:
                start = injected
            service = nbytes / server.rate
            done = start + service
            server.free_at = done
            server.busy_time += service
            server.units_served += nbytes
            server.requests += 1
            if done > finish:
                finish = done
        hops = len(links)
        self.traffic.record(nbytes, hops, switch_traversals)
        completion = finish + latency

        self._transfer_bytes.add(nbytes)
        self._transfer_cycles.add(max(0.0, completion - injected))
        tracer = engine.tracer
        if tracer.enabled:
            tracer.complete(
                "interconnect",
                f"g{src}->g{dst}",
                injected,
                max(0.0, completion - injected),
                args={
                    "bytes": nbytes,
                    "hops": hops,
                    "switch_traversals": switch_traversals,
                },
            )
        return TransferResult(completion, hops, switch_traversals)

    def _check_endpoints(self, src: int, dst: int) -> None:
        if not 0 <= src < self.num_gpms or not 0 <= dst < self.num_gpms:
            raise ConfigError(
                f"transfer endpoints ({src}, {dst}) out of range"
                f" [0, {self.num_gpms})"
            )
        if src == dst:
            raise ConfigError("local transfers must not enter the interconnect")

    def max_utilization(self, elapsed: float) -> float:
        """Highest per-link utilization (identifies the bottleneck link)."""
        return max((link.utilization(elapsed) for link in self.links()), default=0.0)
