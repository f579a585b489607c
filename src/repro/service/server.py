"""The sweep service: asyncio orchestration plus a local HTTP-JSON front.

:class:`SweepService` wires the subsystem together on one event loop:

* :meth:`SweepService.submit` runs admission (validation, rate limit,
  capacity-with-eviction), then serves the request from the
  content-addressed store (O(1) hit), an in-flight leader (single-flight
  coalesce), or a freshly enqueued job.
* A fixed pool of worker coroutines pops jobs in aged-priority order and
  executes them on a thread executor through the existing
  :func:`~repro.gpu.simulator.simulate` path; thread count is clamped
  ``SweepSettings``-style so ``workers`` never oversubscribes the machine.
* Every decision increments a :class:`~repro.service.metrics.ServiceMetrics`
  counter, so the end-to-end tests (and ``GET /v1/metrics``) can assert
  scheduling behaviour without reaching into internals.

The HTTP layer is deliberately tiny — a hand-rolled HTTP/1.1 JSON protocol
over ``asyncio.start_server`` on the loopback interface (no third-party
dependencies), with ``POST /v1/jobs`` carrying the recipe format of
:func:`repro.service.job.request_from_recipe` and ``GET /v1/metrics`` /
``/v1/stats`` / ``/v1/healthz`` for observability.  :class:`ServiceThread`
runs the whole stack on a daemon thread for tests, benchmarks, the smoke
tool, and the in-process adapter.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError, ReproError, ServiceError
from repro.service import admission
from repro.service.evict import EvictionPolicy
from repro.service.job import (
    Job,
    JobOutcome,
    JobRequest,
    JobState,
    request_from_recipe,
)
from repro.service.keys import RESULTS_VERSION, spec_hash
from repro.service.limiter import RateLimiter
from repro.service.metrics import (
    ADMISSION_ACCEPTED,
    ADMISSION_QUEUE_FULL,
    ADMISSION_RATE_LIMITED,
    ADMISSION_REJECTED,
    CACHE_HITS,
    CACHE_MISSES,
    EXEC_MS,
    JOBS_COMPLETED,
    JOBS_EVICTED,
    JOBS_FAILED,
    QUEUE_WAIT_MS,
    SIM_RUNS,
    SINGLEFLIGHT_COALESCED,
    TOTAL_MS,
    ServiceMetrics,
)
from repro.service.priority import AgingPolicy
from repro.service.queue import JobQueue
from repro.service.store import ResultStore, SingleFlight
from repro.trace.manifest import ServiceManifest
from repro.trace.metrics import MetricsRegistry


def execute_request(request: JobRequest) -> tuple[dict, float]:
    """Simulate one request (thread-side); returns (record JSON, exec secs).

    This is the same build-and-simulate path the batch sweep workers run,
    so a record produced here is byte-identical to what a direct
    ``simulate()`` + ``RunRecord`` round would produce for the same pair.
    """
    from repro.experiments.runner import _record_from_result
    from repro.workloads.generator import build_workload

    start = time.perf_counter()
    workload = build_workload(request.spec)
    metrics = MetricsRegistry()
    from repro.gpu.simulator import simulate

    result = simulate(workload, request.config, metrics=metrics)
    record = _record_from_result(request.spec, request.config, result, metrics)
    return record.to_json(), time.perf_counter() - start


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs for one :class:`SweepService`."""

    #: Concurrent job executions (0 = accept/queue but never execute —
    #: useful for scheduling tests).
    workers: int = 2
    #: Queue bounds (see :class:`~repro.service.evict.EvictionPolicy`).
    max_pending: int = 256
    max_age_s: float = 300.0
    #: Per-client token-bucket rate (``None`` = unlimited).
    rate_per_s: float | None = None
    burst: float = 32.0
    #: Lane aging interval (see :class:`~repro.service.priority.AgingPolicy`).
    aging_seconds: float = 30.0
    #: Result store placement; defaults to the shared sweep cache.
    cache_dir: Path | None = None
    use_disk_cache: bool = True
    memory_capacity: int = 1024
    #: Background stale-sweep period (``None`` = sweep only on admission).
    evict_interval_s: float | None = None
    #: HTTP bind address (port 0 = ephemeral).
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers!r}")
        if self.evict_interval_s is not None and self.evict_interval_s <= 0:
            raise ConfigError(
                f"evict_interval_s must be positive, got"
                f" {self.evict_interval_s!r}"
            )

    def executor_workers(self) -> int:
        """Executor threads: never more than the core count.

        Mirrors ``SweepRunner._worker_count``.
        """
        return max(1, min(self.workers, os.cpu_count() or 1))


#: ServiceError kind -> HTTP status.
_STATUS_FOR_KIND = {
    "invalid-config": 400,
    "rate-limited": 429,
    "queue-full": 503,
    "evicted": 503,
    "execution-failed": 500,
    "unavailable": 503,
}

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class SweepService:
    """One service instance: queue, store, limiter, workers, HTTP front."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        execute=execute_request,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics(registry)
        self.queue = JobQueue(
            AgingPolicy(self.config.aging_seconds), clock=clock
        )
        self.limiter = RateLimiter(
            self.config.rate_per_s, self.config.burst, clock=clock
        )
        self.policy = EvictionPolicy(
            self.config.max_pending, self.config.max_age_s
        )
        self.store = ResultStore(
            self.config.cache_dir,
            use_disk=self.config.use_disk_cache,
            memory_capacity=self.config.memory_capacity,
        )
        self.singleflight = SingleFlight()
        self._execute = execute
        self._clock = clock
        self._ids = itertools.count(1)
        self._state_counts: dict[str, int] = {}
        self._cond: asyncio.Condition | None = None
        self._workers: list[asyncio.Task] = []
        self._sweeper: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = False

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start the worker pool (idempotent)."""
        if self._cond is not None:
            return
        self._cond = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers(),
            thread_name_prefix="repro-service",
        )
        self._workers = [
            asyncio.create_task(self._worker(index), name=f"service-worker-{index}")
            for index in range(self.config.workers)
        ]
        if self.config.evict_interval_s is not None:
            self._sweeper = asyncio.create_task(
                self._evict_loop(), name="service-evict-sweeper"
            )

    async def stop(self) -> None:
        """Stop workers; pending jobs are evicted with an ``unavailable`` error."""
        if self._cond is None:
            return
        self._stopping = True
        async with self._cond:
            for job in list(self.queue.pending()):
                self._evict(job, "service stopping", kind="unavailable")
            self._cond.notify_all()
        if self._sweeper is not None:
            self._sweeper.cancel()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(
            *self._workers,
            *( [self._sweeper] if self._sweeper else [] ),
            return_exceptions=True,
        )
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._workers = []
        self._sweeper = None
        self._cond = None
        self._stopping = False

    # ------------------------------------------------------------- submission

    async def submit(
        self, request: JobRequest, client: str = "anonymous"
    ) -> JobOutcome:
        """Serve one request; raises :class:`ServiceError` when turned away."""
        t0 = self._clock()
        try:
            admission.validate_request(request)
        except ConfigError as error:
            self.metrics.inc(ADMISSION_REJECTED)
            raise admission.invalid(error) from error
        now = self._clock()
        if not self.limiter.allow(client, now):
            self.metrics.inc(ADMISSION_RATE_LIMITED)
            raise admission.rate_limited(client)
        key = request.key()

        # O(1) hot path: the content-addressed store answers repeats.
        record = self.store.get(key)
        if record is not None:
            self.metrics.inc(ADMISSION_ACCEPTED)
            self.metrics.inc(CACHE_HITS)
            total_s = self._clock() - t0
            self.metrics.observe_ms(TOTAL_MS, total_s)
            return JobOutcome(
                record=record,
                manifest=self._manifest(
                    job_id=f"hit-{next(self._ids):06d}", request=request,
                    client=client, key=key, cache="hit",
                    state=JobState.COMPLETED.value,
                    queue_wait_s=0.0, exec_s=0.0, total_s=total_s,
                ),
                cache="hit",
            )

        # Single flight: identical in-flight work is joined, not repeated.
        leader = self.singleflight.leader_job(key)
        if leader is not None:
            self.metrics.inc(ADMISSION_ACCEPTED)
            self.metrics.inc(SINGLEFLIGHT_COALESCED)
            record = await asyncio.shield(leader.future)
            total_s = self._clock() - t0
            self.metrics.observe_ms(TOTAL_MS, total_s)
            return JobOutcome(
                record=record,
                manifest=self._manifest(
                    job_id=leader.id, request=request, client=client,
                    key=key, cache="coalesced", state=leader.state.value,
                    queue_wait_s=leader.queue_wait_s, exec_s=leader.exec_s,
                    total_s=total_s,
                ),
                cache="coalesced",
            )

        # Leader path: capacity (after a stale sweep), then enqueue.
        if self._cond is None:
            raise ServiceError("service is not started", kind="unavailable")
        async with self._cond:
            self._evict_stale(now)
            if not self.policy.admits(self.queue):
                self.metrics.inc(ADMISSION_QUEUE_FULL)
                raise admission.queue_full(len(self.queue))
            self.metrics.inc(ADMISSION_ACCEPTED)
            self.metrics.inc(CACHE_MISSES)
            job = Job(
                id=f"job-{next(self._ids):06d}",
                request=request,
                client=client,
                key=key,
                lane=request.lane(),
                submitted_at=now,
                future=asyncio.get_running_loop().create_future(),
            )
            self.singleflight.start(key, job)
            self.queue.push(job)
            self.metrics.sample_queue(len(self.queue), self.queue.lane_depths())
            self._cond.notify()
        record = await job.future
        total_s = self._clock() - t0
        self.metrics.observe_ms(TOTAL_MS, total_s)
        return JobOutcome(
            record=record,
            manifest=self._manifest(
                job_id=job.id, request=request, client=client, key=key,
                cache="miss", state=job.state.value,
                queue_wait_s=job.queue_wait_s, exec_s=job.exec_s,
                total_s=total_s,
            ),
            cache="miss",
        )

    def _manifest(
        self, *, job_id: str, request: JobRequest, client: str, key: str,
        cache: str, state: str, queue_wait_s: float, exec_s: float,
        total_s: float,
    ) -> ServiceManifest:
        return ServiceManifest(
            job_id=job_id,
            cache_key=key,
            workload=request.spec.abbr,
            config_label=request.config.label(),
            client=client,
            lane=request.lane().value,
            cache=cache,
            state=state,
            queue_wait_s=queue_wait_s,
            exec_s=exec_s,
            total_s=total_s,
            results_version=RESULTS_VERSION,
            spec_hash=spec_hash(request.spec),
            screen=self._screen_note(request),
        )

    def _screen_note(self, request: JobRequest) -> dict | None:
        """Roofline prediction for a ``screen=``-annotated request.

        Purely advisory manifest content — computed analytically (no engine
        time), never stored with the record, never part of the cache key.
        A predictor failure degrades to an error note rather than failing
        the submission.
        """
        if request.screen is None:
            return None
        try:
            from repro.roofline.model import RooflinePredictor

            prediction = RooflinePredictor().predict(
                request.spec, request.config
            )
        except ReproError as error:
            return {"mode": request.screen, "error": str(error)}
        return {
            "mode": request.screen,
            "predicted_delay_s": prediction.delay_s,
            "predicted_energy_j": prediction.energy_j,
            "predicted_edp": prediction.edp,
            "bound": prediction.bound,
        }

    # -------------------------------------------------------------- eviction

    def _evict(self, job: Job, reason: str, kind: str = "evicted") -> None:
        """Drop one pending job (caller holds the condition lock)."""
        if not self.queue.remove(job):
            return
        job.state = JobState.EVICTED
        job.finished_at = self._clock()
        self.singleflight.finish(job.key)
        self.metrics.inc(JOBS_EVICTED)
        self._count_state(JobState.EVICTED)
        if job.future is not None and not job.future.done():
            job.future.set_exception(
                ServiceError(f"job {job.id} evicted: {reason}", kind=kind)
            )

    def _evict_stale(self, now: float) -> None:
        for job in self.policy.stale(self.queue, now):
            self._evict(
                job, f"pending longer than {self.policy.max_age_s:g}s"
            )

    async def _evict_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.evict_interval_s)
            async with self._cond:
                self._evict_stale(self._clock())

    # --------------------------------------------------------------- workers

    async def _worker(self, index: int) -> None:
        while True:
            async with self._cond:
                while not self._stopping and not self.queue:
                    await self._cond.wait()
                if self._stopping:
                    return
                job = self.queue.pop_next()
                self.metrics.sample_queue(
                    len(self.queue), self.queue.lane_depths()
                )
            job.state = JobState.RUNNING
            job.started_at = self._clock()
            self.metrics.inc(SIM_RUNS)
            loop = asyncio.get_running_loop()
            try:
                record, exec_s = await loop.run_in_executor(
                    self._executor, self._execute, job.request
                )
            except asyncio.CancelledError:
                # Service stopping mid-execution: fail the waiters cleanly.
                if not job.future.done():
                    job.future.set_exception(
                        ServiceError(
                            f"job {job.id} interrupted by shutdown",
                            kind="unavailable",
                        )
                    )
                self.singleflight.finish(job.key)
                raise
            except (ReproError, Exception) as error:  # noqa: BLE001
                job.state = JobState.FAILED
                job.finished_at = self._clock()
                self.metrics.inc(JOBS_FAILED)
                self._count_state(JobState.FAILED)
                self.singleflight.finish(job.key)
                if not job.future.done():
                    job.future.set_exception(
                        ServiceError(
                            f"job {job.id} failed: {error}",
                            kind="execution-failed",
                        )
                    )
            else:
                job.exec_s = exec_s
                job.state = JobState.COMPLETED
                job.finished_at = self._clock()
                # Store before resolving: a submission arriving after the
                # flight retires must find the record in the store.
                self.store.put(job.key, record)
                self.singleflight.finish(job.key)
                self.metrics.inc(JOBS_COMPLETED)
                self._count_state(JobState.COMPLETED)
                self.metrics.observe_ms(QUEUE_WAIT_MS, job.queue_wait_s)
                self.metrics.observe_ms(EXEC_MS, exec_s)
                if not job.future.done():
                    job.future.set_result(record)

    def _count_state(self, state: JobState) -> None:
        self._state_counts[state.value] = (
            self._state_counts.get(state.value, 0) + 1
        )

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        return {
            "queue_depth": len(self.queue),
            "lanes": {
                lane.value: depth
                for lane, depth in self.queue.lane_depths().items()
            },
            "inflight": len(self.singleflight),
            "workers": self.config.workers,
            "executor_workers": self.config.executor_workers(),
            "jobs": dict(sorted(self._state_counts.items())),
            "store_memory_entries": len(self.store),
        }

    # ------------------------------------------------------------------- http

    async def serve(self) -> asyncio.base_events.Server:
        """Start workers and the HTTP listener; returns the asyncio server."""
        await self.start()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return server

    async def _handle_connection(self, reader, writer) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as error:  # noqa: BLE001 — a bad request, not a crash
            status, payload = 400, {"error": str(error), "kind": "bad-request"}
        body = json.dumps(payload).encode()
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass

    async def _handle_request(self, reader) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": f"malformed request line: {request_line!r}"}
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return await self._route(method, path, headers, body)

    async def _route(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict]:
        if path == "/v1/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, {"status": "ok", "results_version": RESULTS_VERSION}
        if path == "/v1/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self.metrics.to_json()
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "GET only"}
            return 200, self.stats()
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "POST only"}
            client = headers.get("x-repro-client", "http")
            try:
                recipe = json.loads(body.decode() or "{}")
            except json.JSONDecodeError as error:
                return 400, {"error": f"body is not JSON: {error}",
                             "kind": "bad-request"}
            try:
                request = request_from_recipe(recipe)
            except ConfigError as error:
                # Malformed recipes are admission rejections too: they are
                # turned away before any engine time is spent.
                self.metrics.inc(ADMISSION_REJECTED)
                return 400, {"error": str(error), "kind": "invalid-config"}
            try:
                outcome = await self.submit(request, client=client)
            except ServiceError as error:
                return (
                    _STATUS_FOR_KIND.get(error.kind, 503),
                    {"error": str(error), "kind": error.kind},
                )
            return 200, outcome.to_json()
        return 404, {"error": f"no route for {path!r}"}


async def _serve_forever(config: ServiceConfig) -> None:
    service = SweepService(config)
    server = await service.serve()
    print(
        f"repro service listening on http://{service.host}:{service.port}"
        f" ({config.workers} workers,"
        f" cache={'disk+memory' if config.use_disk_cache else 'memory'})",
        flush=True,
    )
    async with server:
        await server.serve_forever()


def run_service(config: ServiceConfig) -> int:
    """Foreground entry point for ``repro serve`` (Ctrl-C to stop)."""
    try:
        asyncio.run(_serve_forever(config))
    except KeyboardInterrupt:
        print("repro service stopped", flush=True)
    return 0


class ServiceThread:
    """A full service (workers + HTTP) on a private loop in a daemon thread.

    The building block for tests, benchmarks, the smoke tool, and the
    in-process :class:`~repro.service.adapter.ServiceSweepRunner`: start,
    talk to it over HTTP or via :meth:`submit`, stop.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        execute=execute_request,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry
        self._execute = execute
        self.service: SweepService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise ServiceError("service thread failed to start in 30s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 — surface to starter
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.service = SweepService(
            self.config, registry=self.registry, execute=self._execute
        )
        server = await self.service.serve()
        self.host, self.port = self.service.host, self.service.port
        self._ready.set()
        await self._stop_event.wait()
        server.close()
        await server.wait_closed()
        await self.service.stop()

    def stop(self) -> None:
        if self.loop is not None and self._stop_event is not None:
            self.loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ submission

    def submit(
        self, request: JobRequest, client: str = "in-process", timeout: float = 600.0
    ) -> JobOutcome:
        """Blocking in-process submission (no HTTP round trip)."""
        return self.submit_async(request, client).result(timeout=timeout)

    def submit_async(self, request: JobRequest, client: str = "in-process"):
        """Submit from any thread; returns a ``concurrent.futures.Future``."""
        if self.loop is None or self.service is None:
            raise ServiceError("service thread is not running")
        return asyncio.run_coroutine_threadsafe(
            self.service.submit(request, client=client), self.loop
        )
