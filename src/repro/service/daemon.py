"""The ``repro serve`` asyncio HTTP daemon.

A deliberately small, stdlib-only HTTP/1.1 server (asyncio streams; no
web framework, no new runtime dependency) that turns the in-process
:class:`repro.harness.runner.SimulationSession` contract into a shared
service:

* every wire request is normalized through the **same canonical-key
  machinery** the session uses (:func:`repro.harness.runner.canonical_key`
  under the daemon's :class:`repro.harness.runner.SessionConfig`), so a
  daemon answer is byte-identical to an in-process run with the same
  configuration;
* keys are deduplicated three ways: against the shared
  :class:`repro.service.store.ResultStore`, against **in-flight**
  computations (concurrent requests for one key coalesce onto one
  simulation), and within a ``/sweep`` batch;
* cache misses fan out over a persistent
  :class:`concurrent.futures.ProcessPoolExecutor` sized by
  ``config.jobs`` (a thread pool in ``use_processes=False`` test mode);
* every per-request answer carries ``hit|miss|pending`` provenance
  (see :mod:`repro.service.wire` for the envelope shapes).

Endpoints: ``POST /simulate``, ``POST /sweep``, ``GET /stats``,
``GET /healthz``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import queue
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.harness.cache import CACHE_VERSION
from repro.harness.runner import (
    SessionConfig,
    SessionStats,
    SimRequest,
    WIRE_SCHEMA_VERSION,
    canonical_key,
    execute_request,
)
from repro.service import wire
from repro.service.store import ResultStore

# Upper bound on accepted request bodies (16 MiB covers the largest
# realistic sweep envelope by orders of magnitude).
MAX_BODY_BYTES = 16 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServiceDaemon:
    """Shared-store simulation service over one asyncio event loop.

    Args:
        config: session configuration every simulation runs under --
            the daemon-side analogue of constructing one
            :class:`SimulationSession` for all clients.  ``jobs`` sizes
            the worker pool; ``cache_dir`` is ignored (the store
            replaces the per-file JSON cache).
        store: the shared result store to dedup against.
        use_processes: run cold simulations on a process pool (the
            production path).  False uses a thread pool -- identical
            results, cheaper startup -- for tests and single-shot use.
    """

    def __init__(
        self,
        config: SessionConfig,
        store: ResultStore,
        *,
        use_processes: bool = True,
    ) -> None:
        self.config = config
        self.store = store
        self.use_processes = use_processes
        self.stats = SessionStats()
        self._inflight: dict[str, asyncio.Future] = {}
        self._executor: Executor | None = None
        self._server: asyncio.AbstractServer | None = None

    # -- request resolution ------------------------------------------------

    def key_of(self, request: SimRequest) -> str:
        """Canonical key of a request under the daemon's configuration."""
        return canonical_key(
            request,
            self.config.sample_strips,
            self.config.sample_steps,
            self.config.sim_seed,
            self.config.memory_engine,
        )

    def _pool(self) -> Executor:
        """The lazily-created persistent worker pool."""
        if self._executor is None:
            if self.use_processes:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.config.jobs
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.jobs,
                    thread_name_prefix="repro-serve",
                )
        return self._executor

    async def _run(self, key: str, request: SimRequest):
        """Execute one cold simulation on the pool and persist it.

        A worker that dies breaks its process pool for good, so the
        broken pool is dropped and the next cold request builds a new
        one.
        """
        loop = asyncio.get_running_loop()
        try:
            pool = self._pool()
            result = await loop.run_in_executor(
                pool, execute_request, request, self.config
            )
            self.stats.simulations += 1
            self.store.store(key, result)
            return result
        except BrokenProcessPool:
            if self._executor is pool:
                pool.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            raise
        finally:
            self._inflight.pop(key, None)

    async def resolve(self, request: SimRequest, wait: bool = True) -> dict:
        """Answer one request with ``hit|miss|pending`` provenance.

        Args:
            request: the validated simulation request.
            wait: block until the result exists (False turns an
                unfinished computation into a ``pending`` answer).

        Returns:
            One response entry: ``status``/``key`` always, plus
            ``kind``/``result`` when the status is not ``pending``.
        """
        key = self.key_of(request)
        inflight = self._inflight.get(key)
        if inflight is not None:
            if not wait:
                return {"status": "pending", "key": key}
            result = await asyncio.shield(inflight)
            self.stats.hits += 1
            return {"status": "hit", "key": key, **wire.encode_result(result)}
        cached = self.store.load(key)
        if cached is not None:
            self.stats.disk_hits += 1
            return {"status": "hit", "key": key, **wire.encode_result(cached)}
        future = asyncio.ensure_future(self._run(key, request))
        self._inflight[key] = future
        if not wait:
            return {"status": "pending", "key": key}
        result = await asyncio.shield(future)
        return {"status": "miss", "key": key, **wire.encode_result(result)}

    async def resolve_sweep(
        self, requests: list[SimRequest], wait: bool = True
    ) -> dict:
        """Answer a batched sweep, deduplicating within the batch.

        Every unique canonical key resolves exactly once (concurrently);
        duplicate entries share the answer and report ``hit``.

        Args:
            requests: validated requests, envelope order preserved.
            wait: as in :meth:`resolve`.

        Returns:
            The ``/sweep`` response body: per-entry ``results`` plus a
            batch-level ``stats`` tally of hit/miss/pending counts.
        """
        unique: dict[str, SimRequest] = {}
        keys = []
        for request in requests:
            key = self.key_of(request)
            keys.append(key)
            unique.setdefault(key, request)
        answers = await asyncio.gather(
            *(
                self.resolve(request, wait=wait)
                for request in unique.values()
            )
        )
        by_key = dict(zip(unique.keys(), answers))
        entries = []
        tally = {"hit": 0, "miss": 0, "pending": 0}
        seen: set[str] = set()
        for key in keys:
            answer = by_key[key]
            if key in seen and answer["status"] == "miss":
                # A duplicate within the batch rode along on the first
                # occurrence's simulation: that's a hit, not a miss.
                answer = {**answer, "status": "hit"}
            seen.add(key)
            entries.append(answer)
            tally[answer["status"]] += 1
        return {
            "schema": wire.ENVELOPE_SCHEMA,
            "results": entries,
            "stats": tally,
        }

    def stats_body(self) -> dict:
        """The ``/stats`` response body."""
        return {
            "schema": wire.ENVELOPE_SCHEMA,
            "stats": {
                "hits": self.stats.hits,
                "disk_hits": self.stats.disk_hits,
                "simulations": self.stats.simulations,
            },
            "store": self.store.stats(),
            "inflight": len(self._inflight),
            "config": self.config.to_dict(),
            "versions": {
                "cache_version": CACHE_VERSION,
                "wire_schema": WIRE_SCHEMA_VERSION,
                "envelope_schema": wire.ENVELOPE_SCHEMA,
            },
        }

    # -- HTTP plumbing -----------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        """Route one HTTP request to its endpoint."""
        if path == "/healthz":
            if method != "GET":
                return 405, wire.error_body("use GET for /healthz")
            return 200, {"schema": wire.ENVELOPE_SCHEMA, "ok": True}
        if path == "/stats":
            if method != "GET":
                return 405, wire.error_body("use GET for /stats")
            return 200, self.stats_body()
        if path == "/simulate":
            if method != "POST":
                return 405, wire.error_body("use POST for /simulate")
            request, wait = wire.parse_simulate(wire.parse_body(body))
            answer = await self.resolve(request, wait=wait)
            return 200, {"schema": wire.ENVELOPE_SCHEMA, **answer}
        if path == "/sweep":
            if method != "POST":
                return 405, wire.error_body("use POST for /sweep")
            requests, wait = wire.parse_sweep(wire.parse_body(body))
            return 200, await self.resolve_sweep(requests, wait=wait)
        return 404, wire.error_body(
            f"unknown path {path!r}; endpoints: /simulate, /sweep, "
            "/stats, /healthz"
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP/1.1 request (Connection: close semantics)."""
        status, payload = 500, wire.error_body("internal error")
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return  # connection opened and dropped; nothing to answer
            method, raw_path = parts[0].upper(), parts[1]
            path = raw_path.split("?", 1)[0]
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        length = -1
            if length < 0 or length > MAX_BODY_BYTES:
                status, payload = 413, wire.error_body(
                    f"body must be 0..{MAX_BODY_BYTES} bytes"
                )
            else:
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload = await self._dispatch(method, path, body)
                except wire.WireFormatError as exc:
                    status, payload = 400, wire.error_body(str(exc))
                except Exception as exc:
                    status, payload = 500, wire.error_body(
                        f"internal error: {type(exc).__name__}: {exc}"
                    )
            await self._write_response(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to do
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        """Emit one JSON response and flush."""
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections.

        Args:
            host: interface to bind.
            port: TCP port (0 picks a free one; read :attr:`port` back).
        """
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        assert self._server is not None, "daemon not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (call after :meth:`start`)."""
        assert self._server is not None, "daemon not started"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, cancel in-flight work, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for future in list(self._inflight.values()):
            future.cancel()
        self._inflight.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


async def _serve(
    config: SessionConfig,
    store: ResultStore,
    host: str,
    port: int,
    use_processes: bool,
    ready: "queue.Queue[int] | None" = None,
) -> None:
    """Start a daemon and serve until cancelled."""
    daemon = ServiceDaemon(config, store, use_processes=use_processes)
    await daemon.start(host, port)
    print(
        f"repro serve: listening on http://{host}:{daemon.port} "
        f"(store: {store.path}, jobs: {config.jobs}, "
        f"memory_engine: {config.memory_engine})",
        flush=True,
    )
    if ready is not None:
        ready.put(daemon.port)
    try:
        await daemon.serve_forever()
    finally:
        await daemon.aclose()


def run_daemon(
    config: SessionConfig,
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = 8177,
    use_processes: bool = True,
) -> int:
    """Blocking entry point behind ``repro serve``.

    Args:
        config: daemon-wide session configuration.
        store: the shared result store.
        host: interface to bind.
        port: TCP port.
        use_processes: thread-pool test mode when False.

    Returns:
        Process exit code (0 on clean shutdown via Ctrl-C).
    """
    try:
        asyncio.run(_serve(config, store, host, port, use_processes))
    except KeyboardInterrupt:
        print("repro serve: shut down", flush=True)
    return 0


@contextlib.contextmanager
def background_daemon(
    config: SessionConfig,
    store: ResultStore,
    host: str = "127.0.0.1",
    *,
    use_processes: bool = False,
):
    """Run a daemon on a background thread (tests, notebooks, smoke).

    Yields:
        ``(daemon base URL, thread)`` once the server is accepting
        connections; the daemon is cancelled and joined on exit.
    """
    ready: "queue.Queue[int]" = queue.Queue()
    loop = asyncio.new_event_loop()

    def _target() -> None:
        asyncio.set_event_loop(loop)
        task = loop.create_task(
            _serve(config, store, host, 0, use_processes, ready)
        )
        try:
            loop.run_until_complete(task)
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=_target, daemon=True, name="repro-serve")
    thread.start()
    bound_port = ready.get(timeout=30)
    try:
        yield f"http://{host}:{bound_port}", thread
    finally:
        def _cancel() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        loop.call_soon_threadsafe(_cancel)
        thread.join(timeout=30)
