"""RPR001: no unseeded randomness or wall-clock input in simulation code.

Every simulation in this repo is a pure function of its canonical key
(that is what makes the result cache, the process-pool fan-out, and the
bit-exactness test contracts sound).  A single ``np.random.rand()`` or
``time.time()`` on a simulation path silently breaks all three.  The
blessed pattern is an explicitly seeded generator::

    rng = np.random.default_rng(seed)           # ok
    rng = np.random.default_rng((seed, crc))    # ok (seed sequence)
    values = np.random.normal(...)              # RPR001: legacy global RNG
    rng = np.random.default_rng()               # RPR001: OS-entropy seed
    t0 = time.time()                            # RPR001: wall clock

There is no suppression comment: an intentional exception (none
exists today) would be written into this rule, with a fixture case.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.astutil import ImportMap
from repro.lint.findings import Finding, Rule

# numpy.random callables that are fine to *construct* -- they are the
# seeded-generator machinery itself, not draws from a global stream.
SEEDED_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

# Exact call targets that read the wall clock or OS entropy.
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "uuid.uuid4",
    "uuid.uuid1",
    "os.urandom",
}


class DeterminismRule(Rule):
    """Flag unseeded RNG and wall-clock calls."""

    code = "RPR001"
    name = "determinism"
    rationale = (
        "simulations must be pure functions of their seed; unseeded "
        "numpy/stdlib randomness or wall-clock reads break cache keys, "
        "worker fan-out, and bit-exactness contracts"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield one finding per offending call."""
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            qual = imports.resolve(node.func)
            if qual is None:
                continue
            yield from self._check_call(node, qual)

    def _check_call(self, node: ast.Call, qual: str) -> Iterator[Finding]:
        """Findings for one resolved call target."""
        if qual in WALL_CLOCK or qual.startswith("secrets."):
            yield self.finding(
                f"nondeterministic call {qual}() -- simulation inputs "
                "must derive from the run's seed",
                node=node,
            )
            return
        if qual.startswith("numpy.random."):
            tail = qual[len("numpy.random."):]
            if tail not in SEEDED_CONSTRUCTORS:
                yield self.finding(
                    f"legacy global-RNG call {qual}() -- draw from an "
                    "explicitly seeded numpy.random.default_rng(seed)",
                    node=node,
                )
            elif tail == "default_rng" and not (node.args or node.keywords):
                yield self.finding(
                    "default_rng() without a seed draws OS entropy -- "
                    "pass the run's seed explicitly",
                    node=node,
                )
            return
        if qual == "random" or qual.startswith("random."):
            tail = qual.partition(".")[2]
            if tail == "Random" and (node.args or node.keywords):
                return  # random.Random(seed): explicitly seeded
            yield self.finding(
                f"stdlib random call {qual}() -- use a seeded "
                "numpy.random.default_rng(seed) (or random.Random(seed))",
                node=node,
            )
