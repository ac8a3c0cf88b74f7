"""The repository benchmark: ``run-all``, ``sweep`` and ``serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-all --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload

Each workload runs its program as a separate process (through
``launch.py``) from this one process, with at most two worker
processes or client connections, checks the program's outputs, appends
a record to ``perfbench/history.jsonl`` and prints every named metric
with its unit.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the same programs run
again under span tracing and the per-layer metrics are reported, with a
trace-event JSON file written to ``perfbench/out/``.  The exit code is
1 when a correctness check failed, 2 when the repository is missing.

Workloads (the seed picks the request order and the serve miss seeds;
``--seconds`` is the least time each workload repeats its measured unit
for -- every unit already lasts longer than five seconds):

* ``run-all``: ``repro run all --format json --jobs 2``, cold then warm
  against a ``--cache`` directory made fresh for each pair.
* ``sweep``: one in-process ``repro.api.sweep`` over 63 requests (9
  models x 7 configs at progress 0.5), ``jobs=1``, hierarchy memory
  engine, no result store; then the same sweep 200 times on the warm
  session.
* ``serve``: ``repro serve --jobs 2``, twice on a fresh store: a cold
  ``/sweep`` of the Fig 11 keys (36), the same sweep 50 times warm; the
  second daemon then serves a closed loop of two client threads
  sending ``/simulate`` requests over those keys, one in ten a miss at a
  fresh seed on NCF or SNLI, until at least 1,000 hits have been
  answered.

End-to-end metrics, the same five on every workload (the workload's own
names for them are printed and kept in the history):

* ``setup_s``: median time from launch until the program is ready
  (``run-all``: imports done, ``main()`` about to run; ``sweep``:
  imports and session construction; ``serve``: the ``listening on``
  line), over every launch of the run plus set-up probes.
* ``peak_rss_mb``: the largest resident set of any program process.
* ``cold_s``: the workload's main operation on empty caches
  (``run_all_cold_s``; the sweep call; median ``serve_sweep_cold_s``).
* ``warm_s``: the same operation answered from warm caches
  (``run_all_warm_s``; the fastest of the warm sweeps and of the warm
  ``/sweep`` calls, ``serve_sweep_warm_ms``/1000).  The warm paths take
  milliseconds, and a shared machine has slow spells lasting seconds that
  move their median; their best of many repeats stays put.
* ``ops_per_s``: simulations or requests completed per second
  (unique simulations of the cold run per cold second;
  ``sweep_sims_per_s``; ``serve_rps`` of the closed loop).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import urlsplit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HISTORY = BENCH / "history.jsonl"
REFERENCE = json.loads((BENCH / "reference.json").read_text())

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402  (the benchmark's own tracer)

JOBS = 2
# The sweep's progress points: one keeps a run near fifteen seconds, and
# 9 models x 7 configs still take over ten, long enough to average out a
# shared machine's slow spells.
SWEEP_PROGRESS = (0.5,)
# Launches that stop once set up, added to a run's set-up samples.
SETUP_PROBES = {"run-all": 2, "sweep": 1}
# Fresh daemons per serve run (cold sweep each); the last runs the loop.
SERVE_DAEMONS = 2
SERVE_WARM_SWEEPS = 50
SERVE_MIN_HITS = 1000
PROGRAM_TIMEOUT = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
    "warm_s": "s",
    "ops_per_s": "1/s",
}

# The ids of `repro run all`, in run order.
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "fig1", "fig2", "fig6", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19-20", "fig21", "memory_profile", "scaleout", "pragmatic",
    "ext-precision", "ext-inference",
)

# Per-layer metrics: (metric, span, how, unit).  "calls" counts spans,
# "self" sums self time, "hits" is the share of calls that hit, "wait"
# sums the time a coroutine span spent suspended.
PER_LAYER = (
    ("core.tile.simulate_strips.calls", "core.tile.simulate_strips", "calls", "count"),
    ("core.tile.simulate_strips.self_s", "core.tile.simulate_strips", "self", "s"),
    ("core.schedule.schedule_from_weights_compact.calls", "core.schedule.schedule_from_weights_compact", "calls", "count"),
    ("core.schedule.schedule_from_weights_compact.self_s", "core.schedule.schedule_from_weights_compact", "self", "s"),
    ("core.accelerator.simulate_workload.calls", "core.accelerator.simulate_workload", "calls", "count"),
    ("core.accelerator.simulate_workload.self_s", "core.accelerator.simulate_workload", "self", "s"),
    ("core.baseline.simulate_workload.calls", "core.baseline.simulate_workload", "calls", "count"),
    ("core.baseline.simulate_workload.self_s", "core.baseline.simulate_workload", "self", "s"),
    ("backends.compact_cycle_loop.self_s", "backends.compact_cycle_loop", "self", "s"),
    ("backends.column_timeline.self_s", "backends.column_timeline", "self", "s"),
    ("backends.accumulate_chunks.calls", "backends.accumulate_chunks", "calls", "count"),
    ("backends.accumulate_chunks.self_s", "backends.accumulate_chunks", "self", "s"),
    ("nn.Trainer.fit.self_s", "nn.Trainer.fit", "self", "s"),
    ("nn.MatmulEngine.matmul.calls", "nn.MatmulEngine.matmul", "calls", "count"),
    ("nn.MatmulEngine.matmul.self_s", "nn.MatmulEngine.matmul", "self", "s"),
    ("traces.build_workloads.calls", "traces.build_workloads", "calls", "count"),
    ("traces.build_workloads.self_s", "traces.build_workloads", "self", "s"),
    ("traces.workload_cache.hit_ratio", "traces.workload_cache.get", "hits", "ratio"),
    ("traces.capture_training_traces.self_s", "traces.capture_training_traces", "self", "s"),
    ("compression.mean_compression_ratio.calls", "compression.mean_compression_ratio", "calls", "count"),
    ("compression.mean_compression_ratio.self_s", "compression.mean_compression_ratio", "self", "s"),
    ("memory.phase_traffic.calls", "memory.phase_traffic", "calls", "count"),
    ("memory.phase_traffic.self_s", "memory.phase_traffic", "self", "s"),
    ("scale.ScaleOutSimulator.simulate_workload.self_s", "scale.ScaleOutSimulator.simulate_workload", "self", "s"),
    ("harness.runner.execute_request.calls", "harness.runner.execute_request", "calls", "count"),
    ("harness.runner.execute_request.self_s", "harness.runner.execute_request", "self", "s"),
    ("harness.runner.memo_hit_ratio", "harness.runner.SimulationSession._get", "hits", "ratio"),
    ("harness.runner.pool_wait_s", spans.POOL_WAIT, "self", "s"),
    ("harness.cache.ResultCache.load.calls", "harness.cache.ResultCache.load", "calls", "count"),
    ("harness.cache.ResultCache.load.self_s", "harness.cache.ResultCache.load", "self", "s"),
    ("harness.cache.ResultCache.store.self_s", "harness.cache.ResultCache.store", "self", "s"),
    ("harness.cache.hit_ratio", "harness.cache.ResultCache.load", "hits", "ratio"),
    ("service.store.ResultStore.load.calls", "service.store.ResultStore.load", "calls", "count"),
    ("service.store.ResultStore.load.self_s", "service.store.ResultStore.load", "self", "s"),
    ("service.store.ResultStore.store.calls", "service.store.ResultStore.store", "calls", "count"),
    ("service.store.ResultStore.store.self_s", "service.store.ResultStore.store", "self", "s"),
    ("service.store.hit_ratio", "service.store.ResultStore.load", "hits", "ratio"),
    ("service.wire.encode_result.calls", "service.wire.encode_result", "calls", "count"),
    ("service.wire.encode_result.self_s", "service.wire.encode_result", "self", "s"),
    ("service.daemon.ServiceDaemon.resolve.calls", "service.daemon.ServiceDaemon.resolve", "calls", "count"),
    ("service.daemon.ServiceDaemon.resolve.self_s", "service.daemon.ServiceDaemon.resolve", "self", "s"),
    ("service.daemon.ServiceDaemon._handle_connection.self_s", "service.daemon.ServiceDaemon._handle_connection", "self", "s"),
    ("service.daemon.pool_wait_s", "service.daemon.ServiceDaemon._run", "wait", "s"),
)

# Per-layer metrics computed by the workloads themselves.
TRACE_META = (
    ("service.daemon.coalesced", "count"),
    ("trace.overhead", "ratio"),
    ("trace.reconcile_err", "ratio"),
    ("trace.spans", "count"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(metric, unit) for metric, _, _, unit in PER_LAYER]
    for experiment in EXPERIMENT_IDS:
        for run in ("cold", "warm"):
            names.append((f"{spans.EXPERIMENT_PREFIX}{experiment}.{run}_s", "s"))
    return names + list(TRACE_META)


# -- processes ----------------------------------------------------------------


class Program:
    """One launched program process (its own process group)."""

    def __init__(self, work: Path, args: list[str], *, trace_dir=None,
                 stdout=None, probe=False) -> None:
        self.ready_path = work / f"ready-{time.monotonic_ns()}"
        command = [sys.executable, str(BENCH / "launch.py"),
                   "--ready", str(self.ready_path)]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        if probe:
            command.append("--probe")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            command + args,
            cwd=ROOT,
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.exited: float | None = None

    def wait(self, timeout: float = PROGRAM_TIMEOUT) -> int:
        """Wait for the exit, stopping the whole group on timeout."""
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.stop(grace=0)
            code = -1
        self.exited = time.monotonic()
        self._reap_group()
        return code

    def stop(self, grace: float = 30.0) -> int:
        """Interrupt the program, then kill its group if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(grace) if grace else None
        except subprocess.TimeoutExpired:
            code = None
        if code is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            code = self.proc.wait()
        self.exited = time.monotonic()
        self._reap_group()
        return code

    def _reap_group(self) -> None:
        """Wait until no process of the program's group is left."""
        deadline = time.monotonic() + 30
        while True:
            try:
                os.killpg(self.proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                return
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(self.proc.pid, signal.SIGKILL)
            time.sleep(0.05)

    @property
    def ready(self) -> float:
        """Monotonic time at which the program finished its set-up."""
        return float(self.ready_path.read_text())

    @property
    def setup_s(self) -> float:
        return self.ready - self.launched

    @property
    def run_s(self) -> float:
        """Wall time from the end of set-up until the process exited."""
        return self.exited - self.ready


def probe_setups(ctx, args: list[str], count: int) -> list[float]:
    """Set-up times of ``count`` launches that stop once set up."""
    times = []
    for _ in range(count):
        program = Program(ctx.work, args, probe=True)
        if program.wait() == 0:
            times.append(program.setup_s)
    return times


# -- helpers ------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(result: dict) -> str:
    """Digest of a result's canonical JSON (as ``launch.result_digest``)."""
    return sha256(json.dumps(result, sort_keys=True).encode())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fig11_configs():
    """Fig 11's configs as wire dicts: FPRaker, zero, zero+bdc, baseline."""
    from dataclasses import asdict, replace

    from repro.core.config import baseline_paper_config, fpraker_paper_config

    paper = fpraker_paper_config()
    no_ob = replace(paper.tile, pe=replace(paper.tile.pe, ob_skip=False))
    return [
        None,
        asdict(replace(paper, tile=no_ob, base_delta_compression=False)),
        asdict(replace(paper, tile=no_ob, base_delta_compression=True)),
        asdict(baseline_paper_config()),
    ]


def sweep_configs():
    """The sweep's 7 configs as wire dicts."""
    from dataclasses import asdict, replace

    from repro.core.config import fpraker_paper_config, pragmatic_paper_config

    paper = fpraker_paper_config()

    def rows(count):
        tile = replace(paper.tile, rows=count)
        return asdict(replace(paper, tiles=paper.tiles * paper.tile.rows // count,
                              tile=tile))

    fpraker, zero, zero_bdc, baseline = fig11_configs()
    return [fpraker, zero, zero_bdc, rows(4), rows(16),
            asdict(pragmatic_paper_config()), baseline]


class Context:
    """Settings and scratch space of one workload run."""

    def __init__(self, args, workload: str) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.rng = random.Random(args.seed)
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)
        return ok


# -- run-all ------------------------------------------------------------------


def _run_all_pass(ctx, cache: Path, label: str, trace_dir=None):
    out = ctx.work / f"{label}.json"
    with open(out, "wb") as handle:
        program = Program(
            ctx.work,
            ["cli", "run", "all", "--format", "json", "--jobs", str(JOBS),
             "--cache", str(cache)],
            trace_dir=trace_dir, stdout=handle,
        )
        code = program.wait()
    return program, code, out.read_bytes()


def run_all(ctx) -> dict:
    """Cold then warm ``repro run all``; outputs must match the reference."""
    reference = REFERENCE["run-all"]["sha256"]
    colds, warms, setups, sims, pairs = [], [], [], [], 0
    traced = {}
    begin = time.monotonic()
    while pairs == 0 or time.monotonic() - begin < ctx.seconds:
        cache = ctx.work / f"cache-{pairs}"
        outputs = []
        for label in ("cold", "warm"):
            trace_dir = ctx.work / f"trace-{label}" if ctx.trace else None
            program, code, output = _run_all_pass(ctx, cache, label, trace_dir)
            outputs.append(output)
            ctx.check(code == 0 and sha256(output) == reference,
                      f"{label} run all: exit {code}, sha256 "
                      f"{sha256(output)} (reference {reference})")
            setups.append(program.setup_s)
            (colds if label == "cold" else warms).append(program.run_s)
            if label == "cold":
                sims.append(len(list(cache.glob("*.json"))))
            traced[label] = (trace_dir, program)
        ctx.check(outputs[0] == outputs[1], "cold and warm run all differ")
        pairs += 1
        if ctx.trace:
            break
        shutil.rmtree(cache, ignore_errors=True)
    named = {
        "run_all_cold_s": (statistics.median(colds), "s"),
        "run_all_warm_s": (statistics.median(warms), "s"),
        "run_all_simulations": (statistics.median(sims), "count"),
    }
    if ctx.trace:
        traced_warm = traced["warm"][1].run_s
        if time.monotonic() - begin + traced_warm < 150:
            # The same warm pass untraced, on the same cache.
            untraced_warm = _run_all_pass(ctx, cache, "warm-untraced")[0].run_s
        else:
            # No time left within a run's limit: compare with the latest
            # untraced runs of this tree instead.
            untraced_warm = _untraced_median("run-all", "run_all_warm_s")
            print("run-all: trace.overhead against the history's untraced "
                  f"warm runs ({untraced_warm})", file=sys.stderr)
        shutil.rmtree(cache, ignore_errors=True)
        layers, all_events = {}, []
        for label, (trace_dir, _) in traced.items():
            events = spans.load_events(trace_dir)
            all_events += events
            for experiment in EXPERIMENT_IDS:
                name = spans.EXPERIMENT_PREFIX + experiment
                layers[f"{name}.{label}_s"] = sum(
                    (e["end"] - e["start"]) / 1e9 for e in events
                    if e["name"] == name
                )
        return {"named": named, "layers": layers, "events": all_events,
                "programs": [p for _, p in traced.values()],
                "overhead": (traced_warm / untraced_warm - 1
                             if untraced_warm else 0.0),
                "coalesced": 0}
    setups += probe_setups(ctx, ["cli"], SETUP_PROBES["run-all"])
    return {
        "named": named,
        "e2e": {
            "setup_s": statistics.median(setups),
            "cold_s": named["run_all_cold_s"][0],
            "warm_s": named["run_all_warm_s"][0],
            "ops_per_s": named["run_all_simulations"][0]
            / named["run_all_cold_s"][0],
        },
    }


# -- sweep --------------------------------------------------------------------


def sweep_requests(rng: random.Random):
    """The sweep's requests in canonical order, and a seeded run order.

    Requests sharing a workload build (model, progress) stay together,
    so every order does the same work.
    """
    from repro.models.zoo import STUDIED_MODELS

    configs = sweep_configs()
    canonical = [
        {"model": model, "config": config, "progress": progress, "seed": 0}
        for model in STUDIED_MODELS
        for progress in SWEEP_PROGRESS
        for config in configs
    ]
    groups = [list(range(start, start + len(configs)))
              for start in range(0, len(canonical), len(configs))]
    rng.shuffle(groups)
    order = []
    for group in groups:
        rng.shuffle(group)
        order += group
    return canonical, order


def _sweep_once(ctx, requests_path: Path, label: str, trace_dir=None):
    out = ctx.work / f"{label}.json"
    program = Program(ctx.work, ["sweep", str(requests_path), str(out)],
                      trace_dir=trace_dir)
    code = program.wait()
    report = json.loads(out.read_text()) if code == 0 else None
    return program, code, report


def sweep(ctx) -> dict:
    """One ``repro.api.sweep`` of 63 requests, then the same sweep warm."""
    canonical, order = sweep_requests(ctx.rng)
    requests_path = ctx.work / "requests.json"
    requests_path.write_text(json.dumps([canonical[i] for i in order]))
    reference = REFERENCE["sweep"]["sha256"]
    colds, warms, setups = [], [], []
    trace_dir = ctx.work / "trace" if ctx.trace else None
    begin = time.monotonic()
    while not colds or time.monotonic() - begin < ctx.seconds:
        program, code, report = _sweep_once(ctx, requests_path, "sweep", trace_dir)
        setups.append(program.setup_s)
        if code != 0:
            raise RuntimeError(f"sweep program exited with {code}")
        digests = [None] * len(order)
        for position, index in enumerate(order):
            digests[index] = report["digests"][position]
        digest = sha256("\n".join(digests).encode())
        ctx.check(digest == reference,
                  f"sweep digest {digest} (reference {reference})", len(order))
        ctx.check(report["warm_matches"], "warm sweep answers differ",
                  len(order) * len(report["warm_s"]))
        colds.append(report["cold_s"])
        warms += report["warm_s"]
        if ctx.trace:
            break
    named = {
        "sweep_sims_per_s": (len(order) / statistics.median(colds), "1/s"),
        "sweep_cold_s": (statistics.median(colds), "s"),
        "sweep_warm_s": (min(warms), "s"),
    }
    if ctx.trace:
        _, _, report = _sweep_once(ctx, requests_path, "untraced")
        return {"named": named, "layers": {},
                "events": spans.load_events(trace_dir), "programs": [program],
                "overhead": colds[0] / report["cold_s"] - 1, "coalesced": 0}
    setups += probe_setups(ctx, ["sweep", str(requests_path), "-"],
                           SETUP_PROBES["sweep"])
    return {
        "named": named,
        "e2e": {
            "setup_s": statistics.median(setups),
            "cold_s": named["sweep_cold_s"][0],
            "warm_s": named["sweep_warm_s"][0],
            "ops_per_s": named["sweep_sims_per_s"][0],
        },
    }


# -- serve --------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` program on a fresh store, bound to a free port."""

    def __init__(self, ctx, label: str, trace_dir=None) -> None:
        store = ctx.work / f"store-{label}"
        self.program = Program(
            ctx.work,
            ["cli", "serve", "--jobs", str(JOBS), "--store", str(store),
             "--port", "0"],
            trace_dir=trace_dir, stdout=subprocess.PIPE,
        )
        self.url = None
        watchdog = threading.Timer(60, self.program.proc.kill)
        watchdog.start()
        for raw in self.program.proc.stdout:
            line = raw.decode(errors="replace")
            if "listening on " in line:
                self.listening = time.monotonic()
                self.url = urlsplit(line.split("listening on ", 1)[1].split()[0])
                break
        watchdog.cancel()
        if self.url is None:
            self.program.stop()
            raise RuntimeError("repro serve did not start listening")
        # Keep draining stdout so the daemon never blocks on a full pipe.
        self._drain = threading.Thread(
            target=lambda: self.program.proc.stdout.read(), daemon=True)
        self._drain.start()

    @property
    def setup_s(self) -> float:
        return self.listening - self.program.launched

    def request(self, method: str, path: str, payload=None):
        """One HTTP exchange: (status, body bytes, seconds)."""
        body = json.dumps(payload).encode() if payload is not None else None
        start = time.perf_counter()
        connection = http.client.HTTPConnection(
            self.url.hostname, self.url.port, timeout=120)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
            status = response.status
        finally:
            connection.close()
        return status, data, time.perf_counter() - start

    def stop(self) -> None:
        self.program.stop()
        self._drain.join(timeout=10)
        self.program.proc.stdout.close()


def _answer_digests(ctx, body: bytes, keys: int, label: str) -> list:
    """Per-entry result digests of a ``/sweep`` body (None when pending)."""
    entries = json.loads(body)["results"]
    ctx.check(len(entries) == keys, f"{label}: {len(entries)} answers for {keys} keys")
    return [result_digest(e["result"]) if e["status"] in ("hit", "miss") else None
            for e in entries]


def _closed_loop(ctx, daemon: Daemon, keys: list, misses: list):
    """Two client threads; every tenth request is a miss at a fresh seed."""
    lock = threading.Lock()
    schedule: list[tuple] = []
    state = {"next": 0, "hits": 0, "begin": time.monotonic()}
    records: list[tuple] = []

    def take():
        with lock:
            if state["next"] == len(schedule):
                done = (state["hits"] >= SERVE_MIN_HITS
                        and time.monotonic() - state["begin"] >= ctx.seconds)
                if done:
                    return None
                for _ in range(9):
                    schedule.append(("hit", ctx.rng.randrange(len(keys))))
                state["hits"] += 9
                model = ("NCF", "SNLI")[len(misses) % 2]
                seed = ctx.rng.randrange(1, 2**31)
                misses.append({"model": model, "progress": 0.5, "seed": seed})
                schedule.append(("miss", len(misses) - 1))
            item = schedule[state["next"]]
            state["next"] += 1
            return item

    def client():
        while True:
            item = take()
            if item is None:
                return
            kind, index = item
            request = keys[index] if kind == "hit" else misses[index]
            try:
                status, body, seconds = daemon.request(
                    "POST", "/simulate", {"request": request})
            except (OSError, http.client.HTTPException) as exc:
                status, body, seconds = None, repr(exc).encode(), None
            with lock:
                records.append((kind, index, status, body, seconds))

    threads = [threading.Thread(target=client) for _ in range(JOBS)]
    begin = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.monotonic() - begin


def _serve_pass(ctx, trace_dir=None) -> dict:
    """Fresh daemons: cold and warm sweeps; the last also the closed loop."""
    from repro.models.zoo import STUDIED_MODELS

    configs = fig11_configs()
    keys = [{"model": model, "config": config, "progress": 0.5, "seed": 0}
            for model in STUDIED_MODELS for config in configs]
    misses: list[dict] = []
    cold, colds, warm_times, programs = None, [], [], []
    for round_ in range(SERVE_DAEMONS):
        daemon = Daemon(ctx, f"{round_}-{trace_dir is not None}", trace_dir)
        programs.append(daemon.program)
        try:
            status, body, seconds = daemon.request(
                "POST", "/sweep", {"requests": keys})
            colds.append(seconds)
            ctx.check(status == 200, f"cold /sweep: HTTP {status}")
            answers = _answer_digests(ctx, body, len(keys), "cold /sweep")
            if cold is None:
                cold = answers
            ctx.check(None not in answers and answers == cold,
                      "cold /sweep pending or differing between daemons",
                      len(keys))
            warm_bodies = set()
            for repeat in range(SERVE_WARM_SWEEPS):
                status, body, seconds = daemon.request(
                    "POST", "/sweep", {"requests": keys})
                warm_times.append(seconds)
                if repeat == 0:
                    warm = _answer_digests(ctx, body, len(keys), "warm /sweep")
                    ctx.check(warm == cold, "warm /sweep answers differ from cold",
                              len(keys))
                else:
                    ctx.check(status == 200 and sha256(body) in warm_bodies,
                              f"warm /sweep {repeat}: HTTP {status} or new answers",
                              len(keys))
                warm_bodies.add(sha256(body))
            if round_ == SERVE_DAEMONS - 1:
                records, loop_s = _closed_loop(ctx, daemon, keys, misses)
                _, stats_body, _ = daemon.request("GET", "/stats")
                coalesced = json.loads(stats_body)["stats"]["hits"]
        finally:
            daemon.stop()
    verdicts: dict[tuple, bool] = {}  # (key index, body digest) -> correct
    sampled: dict[tuple, dict] = {}
    hits, miss_times = [], []
    for kind, index, status, body, seconds in records:
        if status != 200:
            ctx.check(False, f"/simulate {kind}: HTTP {status} {body[:200]!r}")
            continue
        if kind == "hit":
            hits.append(seconds)
            # Every hit on one key returns the same bytes: parse each
            # distinct body once.
            seen = (index, sha256(body))
            if seen not in verdicts:
                answer = json.loads(body)
                verdicts[seen] = (answer["status"] == "hit" and
                                  result_digest(answer["result"]) == cold[index])
                sampled[kind, index] = answer
            ctx.check(verdicts[seen], f"/simulate hit on key {index} differs from cold")
        else:
            miss_times.append(seconds)
            answer = json.loads(body)
            ctx.check(answer["status"] == "miss", f"miss answered {answer['status']}")
            sampled[kind, index] = answer
    return {
        "keys": keys, "misses": misses, "sampled": sampled,
        "setups": [program.setup_s for program in programs],
        "programs": programs,
        "cold_s": statistics.median(colds),
        "warm_s": min(warm_times),
        "hits": hits, "miss_times": miss_times,
        "rps": len(records) / loop_s, "loop_s": loop_s, "coalesced": coalesced,
        "measured_s": sum(colds) + sum(warm_times) + loop_s,
    }


def _verify_in_process(ctx, run: dict) -> None:
    """A seeded sample of answers must equal in-process ``api.simulate``."""
    import repro.api as api

    config = api.SessionConfig(jobs=JOBS)
    rng = random.Random(ctx.seed)
    hit_keys = sorted(k for k in run["sampled"] if k[0] == "hit")
    miss_keys = sorted(k for k in run["sampled"] if k[0] == "miss")
    sample = rng.sample(hit_keys, min(1, len(hit_keys)))
    sample += rng.sample(miss_keys, min(1, len(miss_keys)))
    for kind, index in sample:
        wire = (run["keys"] if kind == "hit" else run["misses"])[index]
        request = api.SimRequest.from_dict(wire)
        local = api.simulate(request.model, request.config, request.progress,
                             request.seed, session_config=config)
        remote = run["sampled"][kind, index]["result"]
        ctx.check(result_digest(local.to_dict()) == result_digest(remote),
                  f"{kind} {wire['model']} seed {wire['seed']}: daemon answer "
                  "differs from in-process api.simulate")


def serve(ctx) -> dict:
    """``repro serve``: cold and warm ``/sweep``, then a closed loop."""
    trace_dir = ctx.work / "trace" if ctx.trace else None
    run = _serve_pass(ctx, trace_dir)
    _verify_in_process(ctx, run)
    hits = run["hits"]
    named = {
        "serve_sweep_cold_s": (run["cold_s"], "s"),
        "serve_sweep_warm_ms": (run["warm_s"] * 1000, "ms"),
        "serve_hit_p50_ms": (statistics.median(hits) * 1000, "ms"),
        "serve_hit_p99_ms": (percentile(hits, 0.99) * 1000, "ms"),
        "serve_hit_samples": (len(hits), "count"),
        "serve_miss_p50_s": (statistics.median(run["miss_times"]), "s"),
        "serve_miss_samples": (len(run["miss_times"]), "count"),
        "serve_rps": (run["rps"], "1/s"),
    }
    if ctx.trace:
        untraced = _serve_pass(ctx)
        return {"named": named, "layers": {},
                "events": spans.load_events(trace_dir),
                "programs": run["programs"],
                "overhead": run["measured_s"] / untraced["measured_s"] - 1,
                "coalesced": run["coalesced"]}
    return {
        "named": named,
        "e2e": {
            "setup_s": statistics.median(run["setups"]),
            "cold_s": run["cold_s"],
            "warm_s": run["warm_s"],
            "ops_per_s": run["rps"],
        },
    }


WORKLOADS = {"run-all": run_all, "sweep": sweep, "serve": serve}


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(outcome: dict, trace_path: Path) -> dict:
    """Per-layer metrics of a traced run; writes its trace-event JSON."""
    events = outcome["events"]
    spans.write_trace_events(events, trace_path)
    by_name: dict[str, list] = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event)
    values = dict(outcome["layers"])
    for metric, span, how, _ in PER_LAYER:
        found = by_name.get(span, [])
        if how == "calls":
            values[metric] = len(found)
        elif how == "self":
            values[metric] = sum(e["self"] for e in found) / 1e9
        elif how == "wait":
            values[metric] = sum(e["end"] - e["start"] - e["busy"]
                                 for e in found) / 1e9
        else:
            values[metric] = (sum(bool(e["hit"]) for e in found) / len(found)
                              if found else 0.0)
    # Self times of the program's main thread against its measured wall.
    errors = []
    for program in outcome["programs"]:
        pid = program.proc.pid
        root = next(e for e in events
                    if e["pid"] == pid and e["name"] == "perfbench.program")
        own = sum(e["self"] for e in events
                  if e["pid"] == pid and e["tid"] == root["tid"]) / 1e9
        errors.append(abs(own - program.run_s) / program.run_s)
    values["service.daemon.coalesced"] = outcome["coalesced"]
    values["trace.overhead"] = outcome["overhead"]
    values["trace.reconcile_err"] = max(errors) if errors else 0.0
    values["trace.spans"] = len(events)
    return {name: (values.get(name, 0), unit) for name, unit in per_layer_names()}


# -- records ------------------------------------------------------------------


def src_sha256() -> str:
    """Digest of the program's source tree (checkouts need not be git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _untraced_median(workload: str, metric: str) -> float | None:
    """Median of a named metric over the latest three correct untraced
    runs of this source tree in the history, or None when there are none
    (the latest, because a shared machine's speed drifts)."""
    if not HISTORY.exists():
        return None
    source = src_sha256()
    values = []
    for line in HISTORY.read_text().splitlines():
        record = json.loads(line)
        if (record["workload"] == workload and not record["trace"]
                and record["correct"] and record["src_sha256"] == source):
            values.append(record["named"][metric]["value"])
    return statistics.median(values[-3:]) if values else None


def environment() -> dict:
    """Where and on what a run was measured."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": src_sha256(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def run_workload(name: str, args) -> dict:
    ctx = Context(args, name)
    try:
        outcome = WORKLOADS[name](ctx)
        if ctx.trace:
            OUT.mkdir(exist_ok=True)
            metrics = layer_metrics(
                outcome, OUT / f"trace-{name}-seed{args.seed}.json")
        else:
            e2e = dict(outcome["e2e"])
            e2e["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
            metrics = {k: (e2e[k], unit) for k, unit in E2E_UNITS.items()}
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), **environment(),
        "correct": ctx.failed == 0, "attempted": ctx.attempted,
        "failed": ctx.failed, "error_rate": ctx.failed / max(1, ctx.attempted),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome["named"].items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": ctx.notes[:20],
    }
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for note in ctx.notes[:20]:
        print(f"{name}: FAILED {note}", file=sys.stderr)
    shown = dict(metrics) if ctx.trace else {**outcome["named"], **metrics}
    for label, (value, unit) in shown.items():
        print(f"{name:8s} {label:55s} {value:14.6g} {unit}")
    print(f"{name:8s} {'error_rate':55s} {record['error_rate']:14.6g} ratio "
          f"({ctx.failed} of {ctx.attempted})")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so peak RSS stays per workload.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT,
            ).returncode
            for name in WORKLOADS
        ]
        return 0 if not any(codes) else 1
    sys.path.insert(0, str(ROOT / "src"))
    record = run_workload(args.workload, args)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
