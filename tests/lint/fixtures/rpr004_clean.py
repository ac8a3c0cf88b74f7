"""RPR004 fixture: exhaustive, validated dispatch patterns."""

SCHEMES = ("data", "model", "pipeline")


def simulate(strip_engine: str, memory_engine: str, partition: str):
    """Validated knobs, full chains, and one-value fallthroughs."""
    if strip_engine not in ("batched", "serial"):
        raise ValueError(strip_engine)
    if memory_engine not in ("roofline", "hierarchy"):
        raise ValueError(memory_engine)
    if strip_engine == "serial":  # single-branch gate: exempt
        return 0
    if partition == "data":
        result = 2
    elif partition == "model":
        result = 3
    elif partition == "pipeline":
        result = 4
    else:
        raise ValueError(partition)
    return result


def build_flags(parser):
    """Choices tuples matching the registered sets."""
    parser.add_argument("--memory-engine", choices=("roofline", "hierarchy"))
    parser.add_argument("--partition", choices=("data", "model", "pipeline"))
