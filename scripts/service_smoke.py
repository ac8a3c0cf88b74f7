"""End-to-end smoke of the `repro serve` daemon (the CI service job).

Starts a real daemon process, issues one `/simulate`, a cold `/sweep`
over the Fig 11 models, then repeats the sweep and asserts the second
pass is answered almost entirely (>= 90%) as hits with zero new
simulations, every key from the daemon's memo and none from the store,
and that two more identical sweeps answer identical bytes.  Then sends
one two-node scale-out `/simulate`:
a miss whose result must equal the in-process `api.scaleout` byte for
byte, then a hit.  An envelope that still sends `"wait": false` must
answer 400 naming `wait`, and two threads sending one cold `/simulate`
at once must cost exactly one simulation and get the same result.
Checks `/stats`, stops the daemon, then runs
`repro run fig13 --cache` on the daemon's store directory, which must
answer every simulation from it and add no entry.  Writes the whole
transcript as JSON for the CI artifact upload.

Usage::

    python scripts/service_smoke.py --out service-smoke.json
    python scripts/service_smoke.py --models NCF SNLI   # quicker run
"""

from __future__ import annotations

import argparse
import http.client
import json
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path


def _free_port() -> int:
    """A TCP port the daemon can bind."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _post(port: int, path: str, body: dict) -> tuple[int, bytes]:
    """One raw POST to the daemon: (HTTP status, body bytes)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    try:
        connection.request("POST", path, json.dumps(body))
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _start_daemon(store: Path, port: int, jobs: int) -> subprocess.Popen:
    """Launch `repro serve` and wait for its listening line."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store),
            "--port", str(port),
            "--jobs", str(jobs),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "listening on" in line:
            return process
        if process.poll() is not None:
            raise SystemExit(
                f"daemon exited with {process.returncode} before listening"
            )
    process.kill()
    raise SystemExit("daemon did not start listening within 60s")


def main(argv: list[str] | None = None) -> int:
    """Run the smoke; exit non-zero on any broken invariant."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--models",
        nargs="+",
        default=None,
        help="models to sweep (default: the full Fig 11 set)",
    )
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--out",
        default="service-smoke.json",
        help="JSON transcript path (default: service-smoke.json)",
    )
    args = parser.parse_args(argv)

    import repro.api as api
    from repro.models.zoo import STUDIED_MODELS

    models = list(args.models or STUDIED_MODELS)
    transcript: dict = {"models": models, "jobs": args.jobs, "checks": []}

    def check(name: str, ok: bool, detail) -> None:
        transcript["checks"].append(
            {"name": name, "ok": bool(ok), "detail": detail}
        )
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)
        if not ok:
            _finish(transcript, args.out)
            raise SystemExit(1)

    def _finish(transcript: dict, out: str) -> None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(transcript, indent=2) + "\n")

    port = _free_port()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        process = _start_daemon(Path(tmp) / "store", port, args.jobs)
        try:
            client = api.connect(f"http://127.0.0.1:{port}")
            check("healthz", client.healthy(), "daemon answers health check")

            status, result = client.submit(models[0])
            check(
                "simulate-cold",
                status == "miss" and result is not None,
                f"first /simulate of {models[0]} is a {status}",
            )
            status, _ = client.submit(models[0])
            check(
                "simulate-warm",
                status == "hit",
                f"second /simulate of {models[0]} is a {status}",
            )

            started = time.monotonic()
            cold = client.sweep(models)
            cold_seconds = round(time.monotonic() - started, 3)
            transcript["cold_sweep"] = {
                "stats": cold.stats, "seconds": cold_seconds,
            }
            check(
                "sweep-cold",
                all(r is not None for r in cold.results),
                f"{len(models)} models in {cold_seconds}s "
                f"(stats: {cold.stats})",
            )

            before = client.stats()["stats"]
            started = time.monotonic()
            warm = client.sweep(models)
            warm_seconds = round(time.monotonic() - started, 3)
            after = client.stats()["stats"]
            simulations_before = before["simulations"]
            simulations_after = after["simulations"]
            transcript["warm_sweep"] = {
                "stats": warm.stats,
                "seconds": warm_seconds,
                "hit_fraction": warm.hit_fraction,
                "new_simulations": simulations_after - simulations_before,
                "memo_hits": after["memo_hits"] - before["memo_hits"],
                "disk_hits": after["disk_hits"] - before["disk_hits"],
            }
            check(
                "sweep-warm-hits",
                warm.hit_fraction >= 0.9,
                f"hit fraction {warm.hit_fraction:.2f} (>= 0.90 required)",
            )
            check(
                "sweep-warm-no-new-simulations",
                simulations_after == simulations_before,
                f"{simulations_after - simulations_before} new simulations",
            )
            for index, model in enumerate(models):
                if json.dumps(warm.results[index].to_dict()) != json.dumps(
                    cold.results[index].to_dict()
                ):
                    check(
                        "sweep-warm-bytes",
                        False,
                        f"{model} warm result differs from cold",
                    )
            check(
                "sweep-warm-bytes",
                True,
                "warm results byte-identical to cold",
            )

            # Every key of the warm sweep was answered before, so the
            # daemon's memo answers it without reading the store, and
            # answers a repeat with the same bytes.
            keys = len(set(models))
            envelope = {
                "requests": [
                    api.SimRequest.make(model).to_dict() for model in models
                ]
            }
            first, repeat = (_post(port, "/sweep", envelope) for _ in range(2))
            check(
                "memo",
                transcript["warm_sweep"]["memo_hits"] == keys
                and transcript["warm_sweep"]["disk_hits"] == 0
                and first[0] == repeat[0] == 200
                and first[1] == repeat[1],
                f"warm /sweep of {keys} keys: "
                f"{transcript['warm_sweep']['memo_hits']} memo hits, "
                f"{transcript['warm_sweep']['disk_hits']} store hits; "
                f"a raw repeat answered {repeat[0]} with "
                f"{'identical' if first[1] == repeat[1] else 'different'} "
                "bytes",
            )

            # The worker processes build the scale-out request's node
            # simulator and wrap it; the answer must match in-process.
            scaleout = api.SimRequest.make(
                models[0], nodes=2, partition="model"
            )
            status, result = client.submit(scaleout)
            expected = api.scaleout(models[0], 2, "model")
            check(
                "scaleout-cold",
                status == "miss"
                and json.dumps(result.to_dict())
                == json.dumps(expected.to_dict()),
                f"2-node /simulate of {models[0]} is a {status}, "
                "equal to in-process api.scaleout",
            )
            status, _ = client.submit(scaleout)
            check(
                "scaleout-warm",
                status == "hit",
                f"second 2-node /simulate of {models[0]} is a {status}",
            )

            status, raw = _post(
                port,
                "/simulate",
                {"request": {"model": models[0]}, "wait": False},
            )
            check(
                "wait-rejected",
                status == 400 and "'wait'" in json.loads(raw).get("error", ""),
                f"a /simulate envelope with \"wait\": false answers {status}",
            )

            # A key no earlier check asked for: the second request
            # either coalesces onto the first or hits the store.
            fresh = {"request": {"model": models[0], "seed": 1}}
            before = client.stats()["stats"]["simulations"]
            answers: list = [None, None]

            def send(index: int) -> None:
                status, raw = _post(port, "/simulate", fresh)
                answers[index] = status, json.loads(raw)

            threads = [
                threading.Thread(target=send, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            grew = client.stats()["stats"]["simulations"] - before
            (status_a, body_a), (status_b, body_b) = answers
            check(
                "concurrent",
                status_a == status_b == 200
                and grew == 1
                and json.dumps(body_a["result"])
                == json.dumps(body_b["result"]),
                f"two concurrent cold /simulate answered {status_a} "
                f"({body_a.get('status')}) and {status_b} "
                f"({body_b.get('status')}) with {grew} new simulation(s)",
            )

            stats = client.stats()
            transcript["stats"] = stats
            check(
                "stats",
                stats["store"]["entries"] == len(models) + 2
                and stats["store"]["stale_entries"] == 0,
                f"store holds {stats['store']['entries']} entries",
            )
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()

        # fig13 asks for exactly the default-config keys the sweep
        # stored, so `run --cache` on the store must simulate nothing.
        store = Path(tmp) / "store"
        entries = sorted(store.glob("*.json"))
        cli = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "fig13",
                "--models", *models,
                "--cache", str(store),
                "--format", "json",
            ],
            capture_output=True,
            text=True,
        )
        after = sorted(store.glob("*.json"))
        check(
            "cli-reads-store",
            cli.returncode == 0 and after == entries,
            f"`repro run fig13 --cache` exited {cli.returncode}, "
            f"{len(after) - len(entries)} new entries",
        )
    _finish(transcript, args.out)
    print(f"transcript written to {args.out}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
