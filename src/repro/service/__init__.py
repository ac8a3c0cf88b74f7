"""Simulation-as-a-service: daemon, shared result store, and client.

Every request after the first for a given canonical simulation key is
a store hit.  The service is one layer above the in-process API -- the
daemon normalizes wire requests through the exact canonical-key
machinery :class:`repro.harness.runner.SimulationSession` uses, so the HTTP
surface and the Python surface (:mod:`repro.api`) answer every request
from the same shared store with byte-identical results.

Modules:

* :mod:`repro.service.store` -- the shared result store: a
  :class:`repro.harness.cache.ResultCache` directory (one JSON file per
  key, the format of ``repro run --cache``) plus the ``/stats`` entry
  counts.
* :mod:`repro.service.wire` -- versioned JSON wire schema shared by the
  daemon and the client (envelopes, result encoding, error shapes).
* :mod:`repro.service.daemon` -- the asyncio HTTP daemon behind
  ``repro serve``: request dedup, in-flight coalescing, worker-pool
  fan-out, ``hit|miss`` provenance.
* :mod:`repro.service.client` -- stdlib HTTP client
  (:func:`repro.api.connect` returns one).
"""

from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
    connect,
)
from repro.service.store import ResultStore

__all__ = [
    "ResultStore",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceTimeoutError",
    "connect",
]
