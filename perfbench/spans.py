"""Span tracing for the benchmark's traced runs.

``install(out_dir)`` wraps the public functions of each layer of
``repro`` in spans, from outside the package: every function is
replaced at each binding its callers use (the defining module, every
``repro`` module that imported the name, the CLI's experiment table),
and methods are replaced on their class.  A span records its name,
start, end, parent and self time (its duration minus the time its
child spans cover).

Coroutine functions are timed step by step: an ``async`` span's busy
time is the time its coroutine actually ran, so spans of concurrent
tasks on one event loop never overlap and the self times of one thread
still add up to its wall time.  The suspended time of a coroutine is
kept as well (``wall - busy``); for the daemon's pool runs it is the
time spent waiting on the worker pool.

Every process keeps its spans in memory and appends them to
``out_dir/spans-<pid>.jsonl`` when its last open span closes (at most
once a second), at exit, and -- for pool workers forked from a traced
process -- from a ``multiprocessing`` finalizer.  :func:`load_events`
merges the files and :func:`write_trace_events` writes the standard
trace-event JSON.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import importlib.util
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path

# (span name, module, attribute path, hit rule).  A hit rule marks each
# call as a hit or a miss: "found" = the call returned a value (a cache
# lookup that answered), "memo" = the session's in-memory memo answered.
LAYER_FUNCTIONS = (
    ("core.tile.simulate_strips", "repro.core.tile",
     "TileSimulator.simulate_strips", None),
    ("core.schedule.schedule_from_weights_compact", "repro.core.schedule",
     "schedule_from_weights_compact", None),
    ("core.accelerator.simulate_workload", "repro.core.accelerator",
     "AcceleratorSimulator.simulate_workload", None),
    ("core.baseline.simulate_workload", "repro.core.baseline",
     "BaselineAccelerator.simulate_workload", None),
    ("nn.Trainer.fit", "repro.nn.training", "Trainer.fit", None),
    ("nn.MatmulEngine.matmul", "repro.nn.fpmath", "MatmulEngine.matmul", None),
    ("traces.build_workloads", "repro.traces.workloads",
     "build_workloads", None),
    ("traces.workload_cache.get", "repro.traces.workload_cache",
     "WorkloadCache.get", "found"),
    ("traces.capture_training_traces", "repro.traces.capture",
     "capture_training_traces", None),
    ("compression.mean_compression_ratio", "repro.compression.base_delta",
     "mean_compression_ratio", None),
    ("memory.phase_traffic", "repro.memory.traffic", "phase_traffic", None),
    ("scale.ScaleOutSimulator.simulate_workload", "repro.scale.scaleout",
     "ScaleOutSimulator.simulate_workload", None),
    ("harness.runner.execute_request", "repro.harness.runner",
     "execute_request", None),
    ("harness.runner.SimulationSession._get", "repro.harness.runner",
     "SimulationSession._get", "memo"),
    ("harness.cache.ResultCache.load", "repro.harness.cache",
     "ResultCache.load", "found"),
    ("harness.cache.ResultCache.store", "repro.harness.cache",
     "ResultCache.store", None),
    ("service.store.ResultStore.load", "repro.service.store",
     "ResultStore.load", "found"),
    ("service.store.ResultStore.store", "repro.service.store",
     "ResultStore.store", None),
    ("service.wire.encode_result", "repro.service.wire",
     "encode_result", None),
    ("service.daemon.ServiceDaemon.resolve", "repro.service.daemon",
     "ServiceDaemon.resolve", None),
    ("service.daemon.ServiceDaemon._run", "repro.service.daemon",
     "ServiceDaemon._run", None),
    ("service.daemon.ServiceDaemon._handle_connection", "repro.service.daemon",
     "ServiceDaemon._handle_connection", None),
)

# The kernel-backend methods, wrapped on every loaded backend class.
BACKEND_METHODS = ("compact_cycle_loop", "column_timeline", "accumulate_chunks")

# Span around each blocking wait for a pool result in SimulationSession.
POOL_WAIT = "harness.runner.pool_wait"

# Span around every CLI experiment; the experiment id is appended.
EXPERIMENT_PREFIX = "harness.experiments."

_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)
_recorder: "Recorder | None" = None


class _Span:
    """One open span; ``child`` accumulates the time of nested spans."""

    __slots__ = ("id", "name", "stack", "start", "child", "busy", "active")

    def __init__(self, name: str, stack: tuple, is_async: bool) -> None:
        self.id = _recorder.next_id()
        self.name = name
        self.stack = stack
        self.start = time.monotonic_ns()
        self.child = 0
        self.busy = 0
        # A sync span runs for as long as it is open; a coroutine span
        # only while one of its steps is executing.
        self.active = not is_async


def _charge(stack: tuple, nanos: int) -> None:
    """Add ``nanos`` of child time to the innermost running ancestor."""
    for span in reversed(stack):
        if span.active:
            span.child += nanos
            return


class Recorder:
    """In-memory span buffer of one process, appended to a JSON-lines file."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.events: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._last_flush = time.monotonic()

    def next_id(self) -> str:
        return f"{self.pid}:{next(self._ids)}"

    def finish(self, span: _Span, end: int, busy: int, hit) -> None:
        """Record a closed span (``busy`` = time it ran, child included)."""
        parent = span.stack[-1].id if span.stack else None
        self.events.append((
            span.name, span.start, end, busy, busy - span.child,
            threading.get_ident(), span.id, parent, hit,
        ))
        if not any(s.active for s in span.stack):
            if time.monotonic() - self._last_flush > 1.0:
                self.flush()

    def flush(self) -> None:
        """Append the buffered spans to this process's file."""
        with self._lock:
            events, self.events = self.events, []
            self._last_flush = time.monotonic()
            if not events:
                return
            self.out_dir.mkdir(parents=True, exist_ok=True)
            with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as handle:
                for event in events:
                    handle.write(json.dumps((self.pid, *event)) + "\n")

    def after_fork(self) -> None:
        """In a forked pool worker: drop the parent's spans, flush at exit."""
        self._reset()
        _STACK.set(())
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)


def _hit_probe(rule, args):
    """State needed before the call to classify it as hit or miss."""
    if rule == "memo":
        return args[0].stats.hits
    return None


def _hit_of(rule, args, before, result):
    if rule == "found":
        return result is not None
    if rule == "memo":
        return args[0].stats.hits > before
    return None


def _wrap_sync(fn, name: str, rule=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _STACK.get()
        span = _Span(name, stack, is_async=False)
        token = _STACK.set(stack + (span,))
        before = _hit_probe(rule, args)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _STACK.reset(token)
            end = time.monotonic_ns()
            _charge(stack, end - span.start)
            _recorder.finish(
                span, end, end - span.start, _hit_of(rule, args, before, result)
            )

    return traced


class _Steps:
    """Awaitable that drives a coroutine, timing each of its steps."""

    def __init__(self, coro, span: _Span) -> None:
        self.coro = coro
        self.span = span

    def __await__(self):
        coro, span = self.coro, self.span
        value, error = None, None
        while True:
            token = _STACK.set(span.stack + (span,))
            span.active = True
            begin = time.monotonic_ns()
            done, result, raised = False, None, None
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                done, result = True, stop.value
            except BaseException as exc:
                done, raised = True, exc
            end = time.monotonic_ns()
            span.active = False
            span.busy += end - begin
            _STACK.reset(token)
            _charge(span.stack, end - begin)
            if done:
                _recorder.finish(span, end, span.busy, None)
                if raised is not None:
                    raise raised
                return result
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, error = None, exc


def _wrap_async(fn, name: str):
    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        span = _Span(name, _STACK.get(), is_async=True)
        return await _Steps(fn(*args, **kwargs), span)

    return traced


def _wrap(fn, name: str, rule=None):
    if inspect.iscoroutinefunction(fn):
        return _wrap_async(fn, name)
    return _wrap_sync(fn, name, rule)


def _rebind(original, replacement) -> None:
    """Replace ``original`` at every ``repro`` module binding."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _traced_pool_class(base):
    """A process pool whose futures' ``result`` waits inside a span."""

    class TracedPool(base):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            future.result = _wrap_sync(future.result, POOL_WAIT)
            return future

    TracedPool.__name__ = base.__name__
    return TracedPool


def install(out_dir: str | os.PathLike) -> Recorder:
    """Wrap every layer function in spans recorded under ``out_dir``.

    Args:
        out_dir: directory receiving one ``spans-<pid>.jsonl`` per
            traced process.

    Returns:
        The process's recorder.
    """
    global _recorder
    _recorder = Recorder(out_dir)
    atexit.register(_recorder.flush)
    multiprocessing.util.register_after_fork(_recorder, Recorder.after_fork)
    for module_name in (
        "repro.__main__", "repro.api", "repro.service.daemon",
        "repro.scale.scaleout", "repro.backends.numpy_backend",
    ):
        importlib.import_module(module_name)
    for name, module_name, path, rule in LAYER_FUNCTIONS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        replacement = _wrap(original, name, rule)
        if classes:
            setattr(owner, attr, replacement)
        else:
            _rebind(original, replacement)
    backends = importlib.import_module("repro.backends")
    if importlib.util.find_spec("numba") is not None:
        importlib.import_module("repro.backends.numba_backend")
    for cls in backends.KernelBackend.__subclasses__():
        for method in BACKEND_METHODS:
            setattr(cls, method, _wrap(getattr(cls, method), f"backends.{method}"))
    runner = importlib.import_module("repro.harness.runner")
    runner.ProcessPoolExecutor = _traced_pool_class(runner.ProcessPoolExecutor)
    cli = importlib.import_module("repro.__main__")
    for experiment, func in list(cli.EXPERIMENTS.items()):
        cli.EXPERIMENTS[experiment] = _wrap(func, EXPERIMENT_PREFIX + experiment)
    return _recorder


def root_span(name: str, fn, *args):
    """Run ``fn(*args)`` inside a top-level span of this process."""
    return _wrap_sync(fn, name)(*args)


# -- reading traces -----------------------------------------------------------

FIELDS = ("pid", "name", "start", "end", "busy", "self", "tid", "id",
          "parent", "hit")


def load_events(trace_dir: str | os.PathLike) -> list[dict]:
    """Every span recorded under ``trace_dir``, as dicts of :data:`FIELDS`."""
    events = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            for line in handle:
                events.append(dict(zip(FIELDS, json.loads(line))))
    return events


def write_trace_events(events: list[dict], path: str | os.PathLike) -> None:
    """Write spans as trace-event JSON (complete ``X`` events, in us)."""
    origin = min((e["start"] for e in events), default=0)
    trace = [
        {
            "name": e["name"],
            "cat": e["name"].split(".", 1)[0],
            "ph": "X",
            "ts": (e["start"] - origin) / 1000,
            "dur": (e["end"] - e["start"]) / 1000,
            "pid": e["pid"],
            "tid": e["tid"],
            "args": {
                "id": e["id"],
                "parent": e["parent"],
                "busy_us": e["busy"] / 1000,
                "self_us": e["self"] / 1000,
                **({"hit": e["hit"]} if e["hit"] is not None else {}),
            },
        }
        for e in sorted(events, key=lambda e: e["start"])
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, handle)
