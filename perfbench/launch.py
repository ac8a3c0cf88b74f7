"""Start one benchmark program, optionally traced.

Usage::

    python3 perfbench/launch.py [--trace DIR] [--ready FILE] [--probe] cli ARG...
    python3 perfbench/launch.py [--trace DIR] [--ready FILE] [--probe] \\
        sweep REQUESTS.json OUT.json

``cli`` runs the ``repro`` command line (``python -m repro ARG...``);
``sweep`` opens one :func:`repro.api.session` (``jobs=1``, hierarchy
memory engine, no result store), times one :func:`repro.api.sweep` over
the wire-form requests in ``REQUESTS.json``, repeats the same sweep on
the now-warm session, and writes the timings and a digest of every
result to ``OUT.json``.

``--ready FILE`` receives the monotonic clock reading taken once the
program is imported and set up, right before its work starts;
``--probe`` stops there.  ``--trace DIR`` wraps every layer in spans
(see ``spans.py``) before the program is imported; the program itself
runs unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Warm repeats of the sweep (about a second in all).
WARM_SWEEPS = 200


def result_digest(result) -> str:
    """sha256 of one result's canonical JSON form."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(args: list[str]):
    from repro.__main__ import main

    return lambda: main(args)


def _sweep(requests_path: str, out_path: str):
    import repro.api as api

    session = api.session(api.SessionConfig(jobs=1, memory_engine="hierarchy"))

    def run() -> int:
        requests = json.loads(Path(requests_path).read_text())
        start = time.perf_counter()
        results = api.sweep(requests, session=session)
        cold = time.perf_counter() - start
        warm = []
        for _ in range(WARM_SWEEPS):
            start = time.perf_counter()
            again = api.sweep(requests, session=session)
            warm.append(time.perf_counter() - start)
        digests = [result_digest(result) for result in results]
        Path(out_path).write_text(json.dumps({
            "cold_s": cold,
            "warm_s": warm,
            "digests": digests,
            "warm_matches": [result_digest(r) for r in again] == digests,
        }))
        return 0

    return run


def main(argv: list[str]) -> int:
    trace_dir = ready = None
    probe = False
    while argv and argv[0].startswith("--"):
        flag = argv.pop(0)
        if flag == "--trace":
            trace_dir = argv.pop(0)
        elif flag == "--ready":
            ready = argv.pop(0)
        elif flag == "--probe":
            probe = True
        else:
            raise SystemExit(f"launch.py: unknown flag {flag}")
    if not argv or argv[0] not in ("cli", "sweep"):
        raise SystemExit("launch.py: expected 'cli ARG...' or 'sweep IN OUT'")
    if trace_dir is not None:
        import spans

        spans.install(trace_dir)
    program = _cli(argv[1:]) if argv[0] == "cli" else _sweep(*argv[1:3])
    if ready is not None:
        Path(ready).write_text(repr(time.monotonic()))
    if probe:
        return 0
    if trace_dir is not None:
        return spans.root_span("perfbench.program", program)
    return program()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
