"""RPR002 fixture: canonical key missing result-affecting inputs."""

import json


class SimRequest:
    """Miniature request with a field the key below forgets."""

    model: str
    seed: int
    nodes: int


class SessionConfig:
    """Miniature session config whose knobs the key below ignores."""

    jobs: int
    sample_strips: int
    memory_engine: str


def canonical_key(request, sample_strips):
    """Key builder that drops ``nodes`` and its own ``sample_strips``."""
    spec = {
        "model": request.model,
        "seed": request.seed,
    }
    return json.dumps(spec)
