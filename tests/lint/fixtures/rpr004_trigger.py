"""RPR004 fixture: stale literals and non-exhaustive dispatch."""

SCHEMES = ("data", "model")  # missing "pipeline"


def simulate(memory_engine: str, partition: str):
    """Every dispatch mistake the rule knows about."""
    if memory_engine == "hierarchi":  # typo'd literal
        return 1
    if memory_engine not in ("roofline",):  # stale validation tuple
        raise ValueError(memory_engine)
    if partition == "data":
        result = 2
    elif partition == "model":
        result = 3
    else:
        result = 4  # silently swallows unknown schemes (no raise)
    return result


def build_flags(parser):
    """Choices tuple missing a registered engine."""
    parser.add_argument("--memory-engine", choices=("roofline",))
