"""RPR002 fixture: canonical key covering its full input surface."""

import json


class SimRequest:
    """Miniature request; every field appears in the key."""

    model: str
    seed: int
    nodes: int


class SessionConfig:
    """Miniature session config; ``jobs`` is plumbing, the rest is keyed."""

    jobs: int
    sample_strips: int
    memory_engine: str


def canonical_key(request, sample_strips):
    """Key builder covering request fields and its own parameters."""
    spec = {
        "model": request.model,
        "seed": request.seed,
        "nodes": request.nodes,
        "sample_strips": sample_strips,
        "memory_engine": "roofline",
    }
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))
