"""End-to-end tests: daemon + store + client over real HTTP, plus
in-flight coalescing driven through ``ServiceDaemon.resolve``."""

import asyncio
import http.client
import json
import os
import socket
import time
from dataclasses import replace

import pytest

from repro.core.config import baseline_paper_config
from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    SimulationSession,
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


def _get(url, path):
    """One raw GET, returning (status, parsed body)."""
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _post(url, path, body):
    """One raw POST of a JSON (or raw bytes) body."""
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        payload = body if isinstance(body, bytes) else json.dumps(body)
        conn.request("POST", path, payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


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
        assert body["stats"]["disk_hits"] + body["stats"]["hits"] >= 1
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
        return f"http://{client.host}:{client.port}"

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
        assert json.dumps(first["result"]) == json.dumps(second["result"])

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
        return f"http://{client.host}:{client.port}"

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
