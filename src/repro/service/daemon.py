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
* keys are deduplicated four ways: against a bounded in-memory **memo**
  of the result bytes already answered (:data:`MEMO_BUDGET_BYTES`),
  against **in-flight** computations (concurrent requests for one key
  coalesce onto one simulation), against the shared
  :class:`repro.service.store.ResultStore` (the per-key JSON directory
  ``repro run --cache`` also reads and writes), and within a ``/sweep``
  batch;
* cache misses fan out over a persistent
  :class:`concurrent.futures.ProcessPoolExecutor` sized by
  ``config.jobs`` (a thread pool in ``use_processes=False`` test mode);
* every per-request answer carries ``hit|miss`` provenance (see
  :mod:`repro.service.wire` for the envelope shapes); a simulation that
  fails answers 500 to every request waiting on it;
* each connection must deliver its request within
  :data:`READ_TIMEOUT_S` and at most :data:`MAX_HEADER_LINES` header
  lines, each within the stream limit.

Endpoints: ``POST /simulate``, ``POST /sweep``, ``GET /stats``,
``GET /healthz``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import queue
import signal
import threading
from collections import OrderedDict
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

# Result bytes the daemon memoizes; past the budget the least recently
# used entry goes first.  A safety cap, not a tuned size: the largest
# working set measured, the 231 entries of a `run all` store, holds
# 4.1 MB of results (median 19 KB), and 64 MiB keeps about 3,500 such
# entries.  An entry needs no invalidation: the memo lives in one
# process and a key's result is a pure function of the key.
MEMO_BUDGET_BYTES = 64 * 1024 * 1024

# Seconds a client has to deliver its whole request (request line,
# headers and body); a connection still reading at the deadline is
# closed unanswered.
READ_TIMEOUT_S = 30.0

# Header lines accepted per request.  More lines, or one line longer
# than the stream limit (64 KiB), are answered 431.
MAX_HEADER_LINES = 100

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _Rejected(Exception):
    """A request refused before dispatch, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes] | None:
    """Read one request as ``(method, path, body)``.

    Returns:
        The request, or None when the client sent no usable request
        line (it connected and closed, or sent garbage).

    Raises:
        _Rejected: 431 for more than :data:`MAX_HEADER_LINES` header
            lines or a line over the stream limit; 413 for a
            ``Content-Length`` outside ``0..MAX_BODY_BYTES``.
    """
    lines: list[str] = []
    while True:
        try:
            line = await reader.readline()
        except ValueError:  # the line overran the stream limit
            raise _Rejected(431, "header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        if len(lines) > MAX_HEADER_LINES:  # request line + the cap
            raise _Rejected(
                431, f"more than {MAX_HEADER_LINES} header lines"
            )
        lines.append(line.decode("latin-1"))
    parts = lines[0].split() if lines else []
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1].split("?", 1)[0]
    length = 0
    for header in lines[1:]:
        name, _, value = header.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = -1
    if length < 0 or length > MAX_BODY_BYTES:
        raise _Rejected(413, f"body must be 0..{MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path, body


async def _outcome(future: asyncio.Future) -> tuple[str, bytes]:
    """What an in-flight simulation answers, for one of its waiters.

    The shield lets each waiter go without cancelling the simulation.
    When ``aclose`` cancels the simulation, its waiters get an error
    rather than a cancellation, so their handlers end normally.
    """
    try:
        return await asyncio.shield(future)
    except asyncio.CancelledError:
        if not future.cancelled():
            raise  # the waiter itself was cancelled
        raise RuntimeError("the daemon shut down before it finished") from None


def _answer(status: str, key: str, entry: tuple[str, bytes]) -> dict:
    """One response entry around a memoized ``(kind, result bytes)``."""
    kind, result = entry
    return {"status": status, "key": key, "kind": kind, "result": result}


class ServiceDaemon:
    """Shared-store simulation service over one asyncio event loop.

    The memo, the in-flight table and the counters are read and written
    only on the event loop's thread.

    Args:
        config: session configuration every simulation runs under --
            the daemon-side analogue of constructing one
            :class:`SimulationSession` for all clients.  ``jobs`` sizes
            the worker pool; ``cache_dir`` is ignored (results persist
            through ``store``).
        store: the shared result directory to dedup against.
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
        self.memo_hits = 0
        self._memo: OrderedDict[str, tuple[str, bytes]] = OrderedDict()
        self._memo_bytes = 0
        self._inflight: dict[str, asyncio.Future] = {}
        # Each open connection's handler task and writer, so that
        # aclose can end them.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closing = False
        self._executor: Executor | None = None
        self._server: asyncio.AbstractServer | None = None

    # -- request resolution ------------------------------------------------

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

    def _remember(self, key: str, result) -> tuple[str, bytes]:
        """Encode a result once and memoize it, evicting past the budget.

        Returns:
            The ``(kind, result JSON bytes)`` entry, also when the
            budget could not keep it.
        """
        encoded = wire.encode_result(result)
        entry = encoded["kind"], json.dumps(encoded["result"]).encode()
        self._memo[key] = entry
        self._memo_bytes += len(entry[1])
        while self._memo_bytes > MEMO_BUDGET_BYTES:
            _, (_, evicted) = self._memo.popitem(last=False)
            self._memo_bytes -= len(evicted)
        return entry

    async def _run(self, key: str, request: SimRequest) -> tuple[str, bytes]:
        """Execute one cold simulation on the pool, persist and memoize it.

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
            return self._remember(key, result)
        except BrokenProcessPool:
            if self._executor is pool:
                pool.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            raise
        finally:
            self._inflight.pop(key, None)

    async def resolve(self, request: SimRequest) -> dict:
        """Answer one request with ``hit|miss`` provenance.

        Args:
            request: the validated simulation request.

        Returns:
            One response entry: ``status``, ``key``, ``kind`` and
            ``result``, the result's JSON text as ``bytes`` (see
            :func:`repro.service.wire.encode_body`).

        Raises:
            Exception: the simulation's own error, to every request
                waiting on it.
        """
        key = canonical_key(request, self.config)
        return await self._resolve(key, request)

    async def _resolve(self, key: str, request: SimRequest) -> dict:
        """Answer a keyed request from the memo, an in-flight simulation,
        the store, or a new simulation, in that order.

        A store entry is memoized only after ``ResultStore.load``
        accepted it, so the memo never holds an entry the store rejects.
        """
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return _answer("hit", key, entry)
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.hits += 1
            return _answer("hit", key, await _outcome(inflight))
        cached = self.store.load(key)
        if cached is not None:
            self.stats.disk_hits += 1
            return _answer("hit", key, self._remember(key, cached))
        future = asyncio.ensure_future(self._run(key, request))
        self._inflight[key] = future
        return _answer("miss", key, await _outcome(future))

    async def resolve_sweep(self, requests: list[SimRequest]) -> dict:
        """Answer a batched sweep, deduplicating within the batch.

        Every unique canonical key resolves exactly once (concurrently);
        duplicate entries share the answer and report ``hit``.

        Args:
            requests: validated requests, envelope order preserved.

        Returns:
            The ``/sweep`` response body for
            :func:`repro.service.wire.encode_body`: per-entry
            ``results`` (each as :meth:`resolve` returns it) plus a
            batch-level ``stats`` tally of hit/miss counts.
        """
        unique: dict[str, SimRequest] = {}
        keys = []
        for request in requests:
            key = canonical_key(request, self.config)
            keys.append(key)
            unique.setdefault(key, request)
        answers = await asyncio.gather(
            *(self._resolve(key, request) for key, request in unique.items())
        )
        by_key = dict(zip(unique, answers))
        entries = []
        tally = {"hit": 0, "miss": 0}
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

    async def stats_body(self) -> dict:
        """The ``/stats`` response body.

        The store scan parses every entry, so it runs on a worker
        thread and never stalls the requests the loop is serving; the
        counters are read on the loop once it is done.
        """
        store = await asyncio.to_thread(self.store.stats)
        return {
            "schema": wire.ENVELOPE_SCHEMA,
            "stats": {
                "memo_hits": self.memo_hits,
                "hits": self.stats.hits,
                "disk_hits": self.stats.disk_hits,
                "simulations": self.stats.simulations,
            },
            "memo": {"entries": len(self._memo), "bytes": self._memo_bytes},
            "store": store,
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
            return 200, await self.stats_body()
        if path == "/simulate":
            if method != "POST":
                return 405, wire.error_body("use POST for /simulate")
            request = wire.parse_simulate(wire.parse_body(body))
            answer = await self.resolve(request)
            return 200, {"schema": wire.ENVELOPE_SCHEMA, **answer}
        if path == "/sweep":
            if method != "POST":
                return 405, wire.error_body("use POST for /sweep")
            requests = wire.parse_sweep(wire.parse_body(body))
            return 200, await self.resolve_sweep(requests)
        return 404, wire.error_body(
            f"unknown path {path!r}; endpoints: /simulate, /sweep, "
            "/stats, /healthz"
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP/1.1 request (Connection: close semantics).

        The request must arrive within :data:`READ_TIMEOUT_S`; an idle
        or stalled client is closed unanswered at the deadline.
        """
        if self._closing:  # accepted while aclose was closing the rest
            writer.transport.abort()
            return
        task = asyncio.current_task()
        assert task is not None  # a handler always runs as a task
        self._connections[task] = writer
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader), READ_TIMEOUT_S
                )
            except _Rejected as exc:
                status, payload = exc.status, wire.error_body(str(exc))
            else:
                if request is None:
                    return  # connection opened and dropped; nothing to answer
                try:
                    status, payload = await self._dispatch(*request)
                except wire.WireFormatError as exc:
                    status, payload = 400, wire.error_body(str(exc))
                except Exception as exc:
                    status, payload = 500, wire.error_body(
                        f"internal error: {type(exc).__name__}: {exc}"
                    )
            await self._write_response(writer, status, payload)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            pass  # client went away, or missed the read deadline
        finally:
            self._connections.pop(task, None)
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        """Emit one JSON response and flush."""
        body = wire.encode_body(payload)
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
        """Serve until cancelled (call after :meth:`start`).

        :meth:`start` already accepts connections, so this only waits.
        It leaves the server alone: from Python 3.12.1 on, cancelling
        ``Server.serve_forever`` or leaving ``async with server`` waits
        for every open connection to close by itself, before
        :meth:`aclose` could close them.
        """
        assert self._server is not None, "daemon not started"
        await asyncio.get_running_loop().create_future()

    async def aclose(self) -> None:
        """Stop accepting, cancel in-flight work, close the open
        connections and wait for their handlers, release the pool."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        for future in list(self._inflight.values()):
            future.cancel()
        self._inflight.clear()
        # A handler whose connection drops returns on its own; one
        # cancelled instead would be logged by asyncio's stream layer.
        for writer in self._connections.values():
            writer.transport.abort()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            # Only now: from 3.12.1 on this waits for the connections.
            await self._server.wait_closed()
            self._server = None
        pool, self._executor = self._executor, None
        if isinstance(pool, ProcessPoolExecutor):
            # A simulation still running has lost its client: end it
            # now, rather than have interpreter exit wait for it, and
            # join the pool, so that exit finds no pool thread to race.
            # SIGKILL, as a worker forked after asyncio took SIGTERM
            # inherits its no-op handler.  Before Python 3.14 the pool
            # reaches its workers only through ``_processes``.
            for worker in pool._processes.values():
                worker.kill()
            pool.shutdown(wait=True)
        elif pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


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
        f"(store: {store.root}, jobs: {config.jobs}, "
        f"memory_engine: {config.memory_engine})",
        flush=True,
    )
    if ready is not None:
        ready.put(daemon.port)
    try:
        await daemon.serve_forever()
    finally:
        await daemon.aclose()


async def _serve_until_terminated(
    config: SessionConfig, store: ResultStore, host: str, port: int
) -> None:
    """:func:`_serve` on a process pool, cancelled by SIGTERM as by
    Ctrl-C, so that the daemon closes and its pool workers exit."""
    task = asyncio.current_task()
    assert task is not None  # asyncio.run runs this as its main task
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, task.cancel)
    await _serve(config, store, host, port, use_processes=True)


def run_daemon(
    config: SessionConfig,
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = 8177,
) -> int:
    """Blocking entry point behind ``repro serve``.

    Args:
        config: daemon-wide session configuration.
        store: the shared result store.
        host: interface to bind.
        port: TCP port.

    Returns:
        Process exit code: 0 on a clean shutdown by Ctrl-C or SIGTERM,
        once the pool workers have exited.
    """
    try:
        asyncio.run(_serve_until_terminated(config, store, host, port))
    except (KeyboardInterrupt, asyncio.CancelledError):
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
    task = loop.create_task(
        _serve(config, store, host, 0, use_processes, ready)
    )

    def _target() -> None:
        asyncio.set_event_loop(loop)
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
        # The serve task's aclose ends every connection handler, so no
        # task is left pending when the loop closes.
        loop.call_soon_threadsafe(task.cancel)
        thread.join(timeout=30)
