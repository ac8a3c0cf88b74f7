"""Stdlib HTTP client for a ``repro serve`` daemon.

The client mirrors the in-process API one-for-one: the arguments of
:meth:`ServiceClient.simulate` are the arguments of
:func:`repro.api.simulate`, requests travel as the same
:class:`repro.harness.runner.SimRequest` wire form, and results come
back through the same ``from_dict`` deserialization the result caches
use -- so a service answer is byte-identical to a local run under the
daemon's :class:`repro.harness.runner.SessionConfig`.

Connect with :func:`repro.api.connect`::

    client = repro.api.connect("http://127.0.0.1:8177")
    result = client.simulate("NCF")
    batch = client.sweep([{"model": m} for m in ("NCF", "SNLI")])
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.parse
from dataclasses import dataclass, field

from repro.core.config import AcceleratorConfig
from repro.harness.runner import SimRequest, as_request
from repro.service import wire


class ServiceError(RuntimeError):
    """The daemon answered with an error (or could not be reached).

    Attributes:
        status: HTTP status code (0 when the connection itself failed).
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class ServiceConnectionError(ServiceError):
    """No daemon is listening at the client's URL.

    Raised instead of the raw :class:`OSError` so callers can catch
    "daemon is down" distinctly from a daemon-side error; the message
    names the URL and how to start a daemon there.
    """


class ServiceTimeoutError(ServiceError):
    """The daemon accepted the connection but did not answer in time.

    Distinct from :class:`ServiceConnectionError`: the daemon is *up*
    but slow (usually a cold simulation outrunning the client timeout).
    The message names the URL and the timeout that expired.
    """


@dataclass
class SweepOutcome:
    """One ``/sweep`` call's decoded answer.

    Attributes:
        results: per-entry results, envelope order.
        statuses: per-entry ``hit|miss`` provenance.
        stats: the daemon's batch tally (hit/miss counts).
    """

    results: list = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def hit_fraction(self) -> float:
        """Fraction of entries answered from the shared store."""
        if not self.statuses:
            return 0.0
        return self.statuses.count("hit") / len(self.statuses)


class ServiceClient:
    """Blocking HTTP client bound to one daemon.

    Args:
        base_url: the daemon's root URL (``http://host:port``).
        timeout: per-request socket timeout in seconds for calls that
            may block on a cold simulation (keep this generous).
        poll_timeout: socket timeout for calls that never block on a
            simulation -- health checks and stats -- so a dead daemon
            fails in seconds, not after the full cold-run ``timeout``.

    Raises:
        ServiceError: on a malformed or non-HTTP URL.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 600.0,
        poll_timeout: float = 10.0,
    ) -> None:
        try:
            parsed = urllib.parse.urlsplit(base_url)
            host, port = parsed.hostname, parsed.port
        except ValueError:  # a bad IPv6 literal or port
            host = port = None
        if not base_url.startswith("http://") or not host:
            raise ServiceError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self.host = host
        self.port = port or 80
        self.timeout = timeout
        self.poll_timeout = poll_timeout

    @property
    def url(self) -> str:
        """The daemon root URL this client is bound to."""
        return f"http://{self.host}:{self.port}"

    # -- transport ---------------------------------------------------------

    def _call(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        """One HTTP round trip; raises :class:`ServiceError` on failure.

        Args:
            method: HTTP method.
            path: endpoint path.
            body: JSON body (None for GET).
            timeout: socket timeout override; defaults to the client's
                cold-run ``timeout``.
        """
        connection = http.client.HTTPConnection(
            self.host,
            self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, payload, headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except socket.timeout as exc:
            raise ServiceTimeoutError(
                f"daemon at {self.url} did not answer {method} {path} "
                f"within {connection.timeout:g}s ({exc}); the daemon is "
                "reachable but slow -- raise the client timeout if a "
                "cold simulation is expected to run this long"
            )
        except ConnectionError as exc:
            raise ServiceConnectionError(
                f"cannot reach daemon at {self.url}: {exc}; is a "
                f"`repro serve` daemon running there? (see "
                "docs/SERVICE.md)"
            )
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceConnectionError(
                f"cannot reach daemon at {self.url}: {exc}"
            )
        finally:
            connection.close()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError:
            raise ServiceError(
                f"daemon sent a non-JSON response (HTTP {status})",
                status=status,
            )
        if status >= 400 or not isinstance(data, dict):
            message = (
                data.get("error", f"HTTP {status}")
                if isinstance(data, dict)
                else f"HTTP {status}"
            )
            raise ServiceError(message, status=status)
        return data

    # -- endpoints ---------------------------------------------------------

    def healthy(self) -> bool:
        """Whether the daemon answers ``/healthz``."""
        try:
            ok = self._call(
                "GET", "/healthz", timeout=self.poll_timeout
            ).get("ok")
            return bool(ok)
        except ServiceError:
            return False

    def stats(self) -> dict:
        """The daemon's ``/stats`` body (counters, memo, store, versions)."""
        return self._call("GET", "/stats", timeout=self.poll_timeout)

    def submit(self, request) -> tuple[str, object]:
        """Low-level ``/simulate``: provenance plus result.

        Args:
            request: a :class:`SimRequest`, its wire-form dict, or a
                bare model name.

        Returns:
            ``(status, result)`` where status is ``hit|miss``.
        """
        body = {
            "schema": wire.ENVELOPE_SCHEMA,
            "request": as_request(request).to_dict(),
        }
        answer = self._call("POST", "/simulate", body)
        return (
            answer.get("status", "hit"),
            wire.decode_result(answer.get("kind"), answer.get("result")),
        )

    def simulate(
        self,
        model: str,
        config: AcceleratorConfig | None = None,
        progress: float = 0.5,
        seed: int = 0,
        acc_profile: dict[str, int] | None = None,
        phases: tuple[str, ...] | None = None,
        nodes: int = 1,
        partition: str = "data",
    ):
        """Simulate (or fetch) one model -- the remote twin of
        :func:`repro.api.simulate`.

        Args:
            model: Table-I model name.
            config: accelerator config (None = paper FPRaker).
            progress: training progress in [0, 1].
            seed: workload RNG seed.
            acc_profile: optional per-layer accumulator widths.
            phases: training phases to include (None = all three).
            nodes: scale-out node count (1 = single node).
            partition: scale-out partition scheme.

        Returns:
            The deserialized result (blocks until available).
        """
        request = SimRequest.make(
            model, config, progress, seed, acc_profile, phases,
            nodes=nodes, partition=partition,
        )
        _, result = self.submit(request)
        return result

    def sweep(self, requests) -> SweepOutcome:
        """Batch many requests into one ``/sweep`` call.

        Args:
            requests: iterable of :class:`SimRequest`s, wire-form
                dicts, or bare model names (mixed freely).

        Returns:
            The decoded :class:`SweepOutcome` (envelope order).  An
            empty ``requests`` iterable is a valid empty sweep: the
            outcome carries zero results and an all-zero stats tally.
        """
        body = {
            "schema": wire.ENVELOPE_SCHEMA,
            "requests": [as_request(r).to_dict() for r in requests],
        }
        answer = self._call("POST", "/sweep", body)
        outcome = SweepOutcome(stats=answer.get("stats", {}))
        for entry in answer.get("results", []):
            outcome.statuses.append(entry.get("status", "hit"))
            outcome.results.append(
                wire.decode_result(entry.get("kind"), entry.get("result"))
            )
        return outcome


def connect(url: str, timeout: float = 600.0) -> ServiceClient:
    """Open a client against a running ``repro serve`` daemon.

    Args:
        url: daemon root URL (``http://host:port``).
        timeout: per-request socket timeout in seconds.

    Returns:
        A :class:`ServiceClient`.

    Raises:
        ServiceError: when the URL is malformed or the daemon does not
            answer its health check.
    """
    client = ServiceClient(url, timeout=timeout)
    if not client.healthy():
        raise ServiceError(
            f"no repro serve daemon answering at {url} -- start one with "
            "`repro serve` (see docs/SERVICE.md)"
        )
    return client
