"""End-to-end tests: daemon + store + client over real HTTP, plus
in-flight coalescing driven through ``ServiceDaemon.resolve``."""

import asyncio
import contextlib
import gc
import http.client
import json
import logging
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core.config import baseline_paper_config
from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    SimulationSession,
    canonical_key,
    execute_request,
)
from repro.service import daemon as daemon_module
from repro.service import wire
from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
    connect,
)
from repro.service.daemon import ServiceDaemon, background_daemon
from repro.service.store import ResultStore

# Reduced sampling keeps each cold simulation fast; the daemon and the
# in-process comparison session share this configuration.
QUICK = SessionConfig(sample_strips=2, sample_steps=8)


@pytest.fixture()
def service(tmp_path):
    """A live daemon (thread-pool mode) and its client."""
    store = ResultStore(tmp_path / "store")
    with background_daemon(QUICK, store) as (url, _thread):
        yield ServiceClient(url), store


def _http(url, method, path, body=None, timeout=30.0):
    """One raw exchange of a JSON (or raw bytes) body: (status, body bytes)."""
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body)
        conn.request(method, path, body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get(url, path):
    """One raw GET, returning (status, parsed body)."""
    status, raw = _http(url, "GET", path)
    return status, json.loads(raw)


def _post(url, path, body, timeout=30.0):
    """One raw POST of a JSON (or raw bytes) body: (status, parsed body)."""
    status, raw = _http(url, "POST", path, body, timeout)
    return status, json.loads(raw)


def _url(client):
    return f"http://{client.host}:{client.port}"


class TestSimulate:
    def test_cold_then_warm(self, service):
        client, store = service
        status, result = client.submit("NCF")
        assert status == "miss" and result is not None
        status, warm = client.submit("NCF")
        assert status == "hit"
        assert json.dumps(warm.to_dict()) == json.dumps(result.to_dict())
        assert store.stats()["entries"] == 1

    def test_run_cache_directory_is_served_warm(self, tmp_path):
        """`repro run --cache D` and `repro serve --store D` share D."""
        local = SimulationSession(
            config=replace(QUICK, cache_dir=tmp_path)
        ).simulate("NCF")
        with background_daemon(QUICK, ResultStore(tmp_path)) as (url, _t):
            client = ServiceClient(url)
            status, remote = client.submit("NCF")
            simulations = client.stats()["stats"]["simulations"]
            client.simulate("SNLI")  # a daemon miss, written to D
        assert status == "hit" and simulations == 0
        assert json.dumps(remote.to_dict()) == json.dumps(local.to_dict())
        reader = SimulationSession(config=replace(QUICK, cache_dir=tmp_path))
        reader.simulate("SNLI")
        assert reader.stats.disk_hits == 1 and reader.stats.simulations == 0

    def test_byte_identical_to_in_process_session(self, service):
        client, _store = service
        remote = client.simulate("NCF", baseline_paper_config(), 0.7, 3)
        local = SimulationSession(config=QUICK).simulate(
            "NCF", baseline_paper_config(), 0.7, 3
        )
        assert json.dumps(remote.to_dict()) == json.dumps(local.to_dict())

    def test_daemon_honours_every_result_field(self, tmp_path):
        """The FPRaker simulation (unlike the analytic baseline) reads
        every sampling and memory field: a daemon must answer exactly
        as an in-process session under its own config."""
        config = SessionConfig(
            sample_strips=2,
            sample_steps=8,
            sim_seed=7,
            memory_engine="hierarchy",
        )
        store = ResultStore(tmp_path / "store")
        with background_daemon(config, store) as (url, _thread):
            remote = json.dumps(ServiceClient(url).simulate("NCF").to_dict())
        local = SimulationSession(config=config).simulate("NCF")
        quick = SimulationSession(config=QUICK).simulate("NCF")
        assert remote == json.dumps(local.to_dict())
        assert remote != json.dumps(quick.to_dict())

    def test_scaleout_requests_round_trip(self, service):
        client, _store = service
        result = client.simulate("NCF", nodes=4, partition="data")
        assert result.nodes == 4


class TestSweep:
    def test_batch_dedup_and_warm_repeat(self, service):
        client, store = service
        batch = ["NCF", "SNLI", "NCF"]  # duplicate dedups in-batch
        outcome = client.sweep(batch)
        assert outcome.statuses.count("miss") == 2
        assert outcome.statuses.count("hit") == 1
        assert store.stats()["entries"] == 2
        # The duplicate rode along on one simulation and shares bytes.
        assert json.dumps(outcome.results[0].to_dict()) == json.dumps(
            outcome.results[2].to_dict()
        )
        warm = client.sweep(batch)
        assert warm.statuses == ["hit", "hit", "hit"]
        assert warm.hit_fraction == 1.0
        assert warm.stats == {"hit": 3, "miss": 0}
        assert store.stats()["entries"] == 2  # zero new simulations

    def test_mixed_request_forms(self, service):
        client, _store = service
        outcome = client.sweep(
            [
                "NCF",
                SimRequest.make("NCF", progress=0.7),
                SimRequest.make("NCF").to_dict(),
            ]
        )
        assert len(outcome.results) == 3
        assert all(r is not None for r in outcome.results)

    def test_sweep_matches_in_process_api_sweep(self, service):
        import repro.api as api

        client, _store = service
        batch = ["NCF", "SNLI"]
        remote = client.sweep(batch).results
        local = api.sweep(batch, session_config=QUICK)
        for ours, theirs in zip(remote, local):
            assert json.dumps(ours.to_dict()) == json.dumps(theirs.to_dict())

    def test_empty_sweep_returns_empty_outcome(self, service):
        # Regression: an empty batch used to 400 at the wire layer; it
        # must come back as a valid outcome with an all-zero tally.
        client, store = service
        outcome = client.sweep([])
        assert outcome.results == [] and outcome.statuses == []
        assert outcome.stats == {"hit": 0, "miss": 0}
        assert outcome.hit_fraction == 0.0
        assert store.stats()["entries"] == 0  # nothing was simulated

    def test_empty_sweep_via_in_process_api(self):
        import repro.api as api

        assert api.sweep([], session_config=QUICK) == []


class TestStatsAndHealth:
    def test_healthz(self, service):
        client, _store = service
        assert client.healthy()

    def test_stats_reflect_traffic(self, service):
        client, store = service
        client.simulate("NCF")
        client.simulate("NCF")
        body = client.stats()
        assert body["stats"]["simulations"] == 1
        # The second NCF is answered from the daemon's memo.
        assert body["stats"]["memo_hits"] == 1
        assert body["stats"]["disk_hits"] == 0
        assert body["memo"]["entries"] == 1
        assert body["store"] == store.stats()
        assert body["store"]["entries"] == 1
        assert body["store"]["stale_entries"] == 0
        assert body["config"]["sample_strips"] == 2
        assert body["versions"]["envelope_schema"] == 2
        # Entries from another CACHE_VERSION, or unreadable, are stale.
        (store.root / "old.json").write_text(json.dumps({"version": 0}))
        (store.root / "torn.json").write_text("{not json")
        assert client.stats()["store"]["stale_entries"] == 2
        assert client.stats()["store"]["entries"] == 1


class TestHttpErrors:
    @pytest.fixture()
    def url(self, service):
        client, _store = service
        return _url(client)

    def test_unknown_path_is_404(self, url):
        status, body = _get(url, "/teleport")
        assert status == 404 and "endpoints" in body["error"]

    def test_wrong_method_is_405(self, url):
        status, body = _post(url, "/stats", {})
        assert status == 405 and "GET" in body["error"]

    def test_malformed_body_is_400(self, url):
        status, body = _post(url, "/simulate", b"{nope")
        assert status == 400 and "JSON" in body["error"]

    def test_invalid_request_is_400_with_field_name(self, url):
        status, body = _post(
            url, "/simulate", {"request": {"model": "NCF", "progress": 2.0}}
        )
        assert status == 400 and "progress" in body["error"]

    def test_negative_seed_is_400_not_500(self, url):
        # numpy's RNG rejects a negative seed only inside the
        # simulation, as a 500 every retry would repeat; validation
        # must refuse it first.
        status, body = _post(
            url, "/simulate", {"request": {"model": "NCF", "seed": -1}}
        )
        assert status == 400 and "seed" in body["error"]

    def test_unknown_model_is_400_not_500(self, url):
        status, body = _post(
            url, "/simulate", {"request": {"model": "Nope"}}
        )
        assert status == 400 and "model" in body["error"]

    def test_client_surfaces_daemon_error(self, url):
        # A malformed sweep entry reaches the daemon over the raw
        # transport (the public sweep() validates client-side first);
        # the ServiceError carries the daemon's message and status.
        client = ServiceClient(url)
        body = {"schema": wire.ENVELOPE_SCHEMA, "requests": [{"model": 5}]}
        with pytest.raises(ServiceError, match=r"requests\[0\]") as err:
            client._call("POST", "/sweep", body)
        assert err.value.status == 400


def _worker_dies_on_snli(request, config):
    """``execute_request`` whose worker process exits on SNLI."""
    if request.model == "SNLI":
        os._exit(1)
    return execute_request(request, config)


class TestFaults:
    def test_dead_worker_pool_is_rebuilt(self, tmp_path, monkeypatch):
        # The daemon submits the patched function to its process pool;
        # the forked workers resolve it by its module path.
        monkeypatch.setattr(
            "repro.service.daemon.execute_request", _worker_dies_on_snli
        )
        store = ResultStore(tmp_path / "store")
        daemon = background_daemon(QUICK, store, use_processes=True)
        with daemon as (url, _thread):
            status, body = _post(
                url, "/simulate", {"request": {"model": "SNLI"}}
            )
            assert status == 500
            assert "BrokenProcessPool" in body["error"]
            status, body = _post(
                url, "/simulate", {"request": {"model": "NCF"}}
            )
        assert status == 200
        assert body["status"] == "miss" and body["result"]
        assert store.stats()["entries"] == 1


@pytest.fixture()
def daemon(tmp_path):
    """A thread-pool daemon that is driven without HTTP."""
    daemon = ServiceDaemon(QUICK, ResultStore(tmp_path), use_processes=False)
    yield daemon
    asyncio.run(daemon.aclose())


def _gather(daemon, *requests):
    """Resolve requests concurrently on one event loop; an answer is the
    exception where one raised."""

    async def drive():
        return await asyncio.gather(
            *(daemon.resolve(request) for request in requests),
            return_exceptions=True,
        )

    return asyncio.run(drive())


class TestCoalescing:
    """Concurrent requests for one key.  The first ``resolve`` registers
    its in-flight simulation before its first await, so the second
    always finds it: no timing is involved."""

    def test_concurrent_requests_share_one_simulation(self, daemon):
        request = SimRequest.make("NCF")
        first, second = _gather(daemon, request, request)
        assert (first["status"], second["status"]) == ("miss", "hit")
        assert daemon.stats.simulations == 1 and daemon.stats.hits == 1
        assert first["result"] == second["result"]

    def test_failure_reaches_every_waiter(self, daemon, monkeypatch):
        calls = []

        def boom(request, config):
            calls.append(request.model)
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.service.daemon.execute_request", boom)
        request = SimRequest.make("SNLI")
        for answer in _gather(daemon, request, request):
            assert isinstance(answer, RuntimeError) and str(answer) == "boom"
        assert len(calls) == 1  # both waited on one simulation
        # The failure is not kept: the next request simulates again.
        (again,) = _gather(daemon, request)
        assert isinstance(again, RuntimeError) and len(calls) == 2


@pytest.fixture(scope="module")
def local():
    """An in-process session under the daemons' configuration."""
    return SimulationSession(config=QUICK)


def _answer(local, status, request):
    """The answer entry a daemon owes ``request``, built from an
    in-process result with ``wire.encode_result``."""
    return {
        "status": status,
        "key": canonical_key(request, QUICK),
        **wire.encode_result(local.resolve(request)),
    }


def _simulate_body(local, status, request):
    """The ``/simulate`` body a daemon owes: ``json.dumps`` of it."""
    answer = _answer(local, status, request)
    return json.dumps({"schema": wire.ENVELOPE_SCHEMA, **answer}).encode()


class TestByteIdentity:
    """Every answer's body is ``json.dumps`` of the envelope built from
    an in-process result, whichever layer answered it."""

    @pytest.mark.parametrize(
        "request_",
        [SimRequest.make("NCF"), SimRequest.make("NCF", nodes=4)],
        ids=["workload", "scaleout"],
    )
    def test_miss_then_memo_hit(self, service, local, request_):
        client, _store = service
        for status in ("miss", "hit"):
            assert _http(
                _url(client), "POST", "/simulate",
                {"request": request_.to_dict()},
            ) == (200, _simulate_body(local, status, request_))
        stats = client.stats()["stats"]
        assert (stats["simulations"], stats["memo_hits"]) == (1, 1)
        assert stats["disk_hits"] == 0

    def test_store_hit_on_a_fresh_daemon(self, tmp_path, local):
        request = SimRequest.make("NCF", progress=0.7)
        store = ResultStore(tmp_path)
        store.store(canonical_key(request, QUICK), local.resolve(request))
        with background_daemon(QUICK, store) as (url, _thread):
            for _ in range(2):  # the store answers, then the memo
                assert _http(
                    url, "POST", "/simulate", {"request": request.to_dict()}
                ) == (200, _simulate_body(local, "hit", request))
            stats = ServiceClient(url).stats()["stats"]
        assert (stats["disk_hits"], stats["memo_hits"]) == (1, 1)
        assert stats["simulations"] == 0

    def test_sweep_with_an_in_batch_duplicate(self, service, local):
        client, _store = service
        requests = [SimRequest.make(model) for model in ("NCF", "SNLI", "NCF")]
        expected = {
            "schema": wire.ENVELOPE_SCHEMA,
            "results": [
                _answer(local, status, request)
                for status, request in zip(("miss", "miss", "hit"), requests)
            ],
            "stats": {"hit": 1, "miss": 2},
        }
        assert _http(
            _url(client), "POST", "/sweep",
            {"requests": [request.to_dict() for request in requests]},
        ) == (200, json.dumps(expected).encode())

    def test_bodies_without_results_equal_json_dumps(self, service):
        client, _store = service
        client.simulate("NCF")
        url = _url(client)
        healthy = {"schema": wire.ENVELOPE_SCHEMA, "ok": True}
        assert _http(url, "GET", "/healthz") == (
            200, json.dumps(healthy).encode()
        )
        for method, path, body, status in (
            ("GET", "/stats", None, 200),
            ("GET", "/teleport", None, 404),
            ("POST", "/simulate", {"request": {"model": "Nöpe"}}, 400),
        ):
            got_status, raw = _http(url, method, path, body)
            assert got_status == status
            assert raw == json.dumps(json.loads(raw)).encode()

    def test_encode_body_equals_json_dumps(self):
        payload = {"a": [1, 2.5, None, {"b": "\u00e9\""}], "c": {}, "d": []}
        spliced = {**payload, "e": json.dumps(payload).encode()}
        assert wire.encode_body(spliced) == json.dumps(
            {**payload, "e": payload}
        ).encode()


class TestMemo:
    def test_least_recently_used_entry_is_evicted(self, daemon, monkeypatch):
        a, b, c = (SimRequest.make("NCF", seed=seed) for seed in (0, 1, 2))
        (first_a,) = _gather(daemon, a)
        budget = len(first_a["result"]) * 5 // 2  # about two entries
        monkeypatch.setattr(daemon_module, "MEMO_BUDGET_BYTES", budget)
        (first_b,) = _gather(daemon, b)
        (hit_a,) = _gather(daemon, a)  # b is now the least recently used
        _gather(daemon, c)
        assert hit_a["result"] is first_a["result"]
        assert list(daemon._memo) == [
            canonical_key(request, QUICK) for request in (a, c)
        ]
        assert daemon._memo_bytes == sum(
            len(result) for _kind, result in daemon._memo.values()
        )
        assert daemon._memo_bytes <= budget
        (again,) = _gather(daemon, b)
        assert again["status"] == "hit"
        assert again["result"] == first_b["result"]
        assert daemon.stats.disk_hits == 1 and daemon.stats.simulations == 3
        assert daemon.memo_hits == 1

    def test_corrupt_store_entry_is_simulated_again(self, tmp_path, local):
        request = SimRequest.make("NCF")
        store = ResultStore(tmp_path)
        key = canonical_key(request, QUICK)
        path = store.store(key, local.resolve(request))
        entry = json.loads(path.read_text())
        # The corruptions ResultCache.load must read as misses.
        for text in (
            "{not json",
            '["not a cache entry"]',
            json.dumps({**entry, "result": {"cycles": 1}}),
            json.dumps({**entry, "kind": "nonsense"}),
        ):
            path.write_text(text)
            fresh = ServiceDaemon(QUICK, store, use_processes=False)
            try:
                (answer,) = _gather(fresh, request)
            finally:
                asyncio.run(fresh.aclose())
            assert answer["status"] == "miss"
            assert fresh.stats.simulations == 1
            assert answer["result"] == json.dumps(entry["result"]).encode()

    def test_stats_scan_runs_off_the_event_loop(self, service, monkeypatch):
        client, store = service
        client.simulate("NCF")
        scan = store.stats
        entered, release = threading.Event(), threading.Event()

        def blocked_scan():
            entered.set()
            release.wait(timeout=60)
            return scan()

        monkeypatch.setattr(store, "stats", blocked_scan)
        replies = []
        waiter = threading.Thread(
            target=lambda: replies.append(_get(_url(client), "/stats"))
        )
        waiter.start()
        try:
            assert entered.wait(timeout=10)
            # The loop answers a memo hit while the scan is blocked.
            status, body = _post(
                _url(client), "/simulate", {"request": {"model": "NCF"}},
                timeout=5.0,
            )
            assert status == 200 and body["status"] == "hit"
        finally:
            release.set()
            waiter.join(timeout=30)
        assert not waiter.is_alive()
        ((status, body),) = replies
        assert status == 200
        assert body["stats"]["memo_hits"] == 1
        assert body["memo"]["entries"] == 1 and body["store"]["entries"] == 1


def _exchange(url, data, timeout=10.0):
    """Send raw bytes on one connection; everything read until close."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as conn:
        conn.sendall(data)
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnectionBounds:
    @pytest.fixture()
    def url(self, service):
        client, _store = service
        return _url(client)

    def test_idle_and_stalled_clients_closed_at_deadline(
        self, url, monkeypatch
    ):
        monkeypatch.setattr(daemon_module, "READ_TIMEOUT_S", 0.3)
        idle = b""
        stalled = b"POST /simulate HTTP/1.1\r\nHost: x\r\n"
        for data in (idle, stalled):
            started = time.monotonic()
            # The daemon closes the connection unanswered; recv then
            # reads EOF instead of timing out.
            assert _exchange(url, data, timeout=3.0) == b""
            assert time.monotonic() - started < 3.0

    def test_too_many_header_lines_is_431(self, url):
        headers = b"".join(
            b"X-Filler-%d: x\r\n" % i for i in range(5000)
        )
        reply = _exchange(url, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert b"header lines" in reply

    def test_header_line_over_stream_limit_is_431(self, url):
        line = b"X-Long: " + b"x" * 70_000 + b"\r\n"
        reply = _exchange(url, b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 431 ")


class TestClientErrors:
    def test_connection_refused_is_typed_and_names_url(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceConnectionError, match="127.0.0.1:1"):
            client.stats()

    def test_connection_error_is_catchable_as_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceError):
            client.stats()

    def test_socket_timeout_is_typed_and_names_url(self):
        import socket
        import threading

        # A listener that accepts but never answers: the HTTP round
        # trip stalls on the response and must surface a typed timeout.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        accepted = []

        def _accept():
            try:
                accepted.append(listener.accept()[0])
            except OSError:
                pass

        thread = threading.Thread(target=_accept, daemon=True)
        thread.start()
        try:
            # stats() runs under poll_timeout, not the cold-run timeout.
            client = ServiceClient(
                f"http://127.0.0.1:{port}", timeout=30.0, poll_timeout=0.5
            )
            with pytest.raises(
                ServiceTimeoutError, match=rf"127.0.0.1:{port}.*within 0\.5s"
            ):
                client.stats()
        finally:
            listener.close()
            for conn in accepted:
                conn.close()
            thread.join(timeout=5)


class TestConnect:
    def test_connect_health_checks(self, service):
        client, _store = service
        connected = connect(f"http://{client.host}:{client.port}")
        assert connected.healthy()

    def test_connect_refuses_dead_daemon(self):
        with pytest.raises(ServiceError, match="repro serve"):
            connect("http://127.0.0.1:1", timeout=2.0)

    def test_malformed_url_rejected(self):
        with pytest.raises(ServiceError, match="http"):
            ServiceClient("ftp://example")


@contextlib.contextmanager
def _daemon_process(tmp_path, prelude=""):
    """``repro serve --jobs 1`` on a free port, with ``prelude`` run
    first, in its own session: its process group then holds the daemon
    and its pool workers only.

    Yields:
        ``(process, base URL, output)``, where ``output()`` waits for
        the process's output to end and returns it.
    """
    src = str(Path(repro.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    }
    script = (
        prelude + "import sys\nfrom repro.__main__ import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    command = [
        sys.executable, "-c", script, "serve",
        "--store", str(tmp_path / "store"), "--port", "0", "--jobs", "1",
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, start_new_session=True,
    )
    lines: list[str] = []
    urls: queue.Queue = queue.Queue()

    def read():
        for line in process.stdout:
            lines.append(line)
            found = re.search(r"http://[\d.]+:\d+", line)
            if found:
                urls.put(found.group(0))
        urls.put(None)  # the output ended

    reader = threading.Thread(target=read, daemon=True)
    reader.start()

    def output():
        reader.join(timeout=60)
        return "".join(lines)

    try:
        try:
            url = urls.get(timeout=60)
        except queue.Empty:
            url = None
        assert url, f"the daemon did not listen; its output: {lines!r}"
        yield process, url, output
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=60)
        reader.join(timeout=60)
        process.stdout.close()


def _assert_terminated_cleanly(process, url, output):
    """SIGTERM ends the daemon at once, exiting 0 with only its
    listening and shutdown lines, and its pool workers with it."""
    process.terminate()
    assert process.wait(timeout=20) == 0
    listening, *rest = output().splitlines()
    assert url in listening and rest == ["repro serve: shut down"]
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)


class TestShutdown:
    def test_sigterm_exits_cleanly_with_its_workers(self, tmp_path):
        with _daemon_process(tmp_path) as (process, url, output):
            status, body = _post(
                url, "/simulate",
                {"request": {"model": "NCF", "phases": ["AxW"]}},
                timeout=120,
            )
            assert (status, body["status"]) == (200, "miss")
            host, port = url.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=10):
                # An idle client must not hold the shutdown; the
                # health check makes sure its handler is running.
                assert _get(url, "/healthz")[0] == 200
                _assert_terminated_cleanly(process, url, output)

    def test_sigterm_ends_a_simulation_in_flight(self, tmp_path):
        # The forked pool worker runs the patched function.
        prelude = (
            "import time\nfrom repro.service import daemon\n"
            "def simulate(request, config):\n    time.sleep(600)\n"
            "daemon.execute_request = simulate\n"
        )

        def send(url):
            # The daemon closes the connection unanswered at exit.
            with contextlib.suppress(OSError, http.client.HTTPException):
                _post(url, "/simulate", {"request": {"model": "NCF"}})

        with _daemon_process(tmp_path, prelude) as (process, url, output):
            sender = threading.Thread(target=send, args=(url,))
            sender.start()
            deadline = time.monotonic() + 60
            while _get(url, "/stats")[1]["inflight"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            _assert_terminated_cleanly(process, url, output)
            sender.join(timeout=30)
            assert not sender.is_alive()

    def test_idle_connection_at_exit_logs_nothing(
        self, tmp_path, caplog, monkeypatch
    ):
        # Left to itself, the idle connection would outlast the joins.
        monkeypatch.setattr(daemon_module, "READ_TIMEOUT_S", 600.0)
        caplog.set_level(logging.WARNING, logger="asyncio")
        with background_daemon(QUICK, ResultStore(tmp_path)) as (url, thread):
            host, port = url.removeprefix("http://").split(":")
            idle = socket.create_connection((host, int(port)), timeout=10)
            # Connections are accepted in order: once this one is
            # answered, the idle one has its handler.
            assert _get(url, "/healthz")[0] == 200
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert idle.recv(1) == b""  # the daemon closed it
        idle.close()
        gc.collect()  # a task destroyed pending is logged when collected
        assert [r.getMessage() for r in caplog.records] == []

    def test_request_in_flight_at_exit_logs_nothing(
        self, tmp_path, caplog, monkeypatch
    ):
        caplog.set_level(logging.WARNING, logger="asyncio")
        release = threading.Event()

        def blocked(request, config):
            # Longer than the joins below, so only a daemon that stops
            # waiting for it passes.
            release.wait(timeout=600)
            raise RuntimeError("released after the daemon closed")

        def send(url):
            # The daemon closes the connection unanswered at exit.
            with contextlib.suppress(OSError, http.client.HTTPException):
                _post(url, "/simulate", {"request": {"model": "NCF"}})

        monkeypatch.setattr(daemon_module, "execute_request", blocked)
        try:
            store = ResultStore(tmp_path)
            with background_daemon(QUICK, store) as (url, thread):
                sender = threading.Thread(target=send, args=(url,))
                sender.start()
                deadline = time.monotonic() + 30
                while _get(url, "/stats")[1]["inflight"] != 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            thread.join(timeout=30)
            sender.join(timeout=30)
            assert not thread.is_alive() and not sender.is_alive()
            gc.collect()
            assert [r.getMessage() for r in caplog.records] == []
        finally:
            release.set()
