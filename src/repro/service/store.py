"""The ``repro serve`` result store: a ``--cache`` directory plus stats.

The daemon persists results exactly as ``repro run --cache DIR`` does:
one JSON file per canonical key in a
:class:`repro.harness.cache.ResultCache` directory.  A directory warmed
by either front end is served warm by the other.  This subclass adds
only the entry accounting the ``/stats`` endpoint reports.
"""

from __future__ import annotations

import json

from repro.harness.cache import CACHE_VERSION, ResultCache


class ResultStore(ResultCache):
    """The daemon's result directory (a :class:`ResultCache`)."""

    def stats(self) -> dict:
        """Store accounting for ``/stats``, counted by scanning the directory.

        An entry is current when it parses and was written under this
        ``CACHE_VERSION``; any other ``*.json`` file reads as a miss and
        counts as stale.
        """
        entries = stale = 0
        for path in sorted(self.root.glob("*.json")):
            try:
                version = json.loads(path.read_text()).get("version")
            except (OSError, ValueError, AttributeError):
                version = None
            if version == CACHE_VERSION:
                entries += 1
            else:
                stale += 1
        return {
            "path": str(self.root),
            "entries": entries,
            "stale_entries": stale,
            "cache_version": CACHE_VERSION,
        }
