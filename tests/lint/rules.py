"""The three RPR rules: static checks of the repo's reproducibility
contracts, on code paths that a test may never execute.

Each rule is a function from a parsed module to ``(line, col,
message)`` findings, and :data:`RULES` maps each rule code to its
function.  ``tests/lint`` runs them over ``src/repro`` and the rule
fixtures; ``docs/LINTING.md`` holds the catalog and each rule's
rationale.  There is no suppression comment: a deliberate exception is
written into the rule, with a fixture case, in the same change.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from repro.core.accelerator import MEMORY_ENGINES
from repro.scale.partition import SCHEMES

Findings = Iterator[tuple[int, int, str]]


# -- ast helpers ------------------------------------------------------------


def _dotted_name(node: ast.AST) -> str | None:
    """The ``a.b.c`` form of a Name/Attribute chain rooted at a plain
    name, or None (calls, subscripts, literals ...)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_table(tree: ast.AST) -> dict[str, str]:
    """Local name -> fully-qualified path, from the module's imports.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from numpy.random
    import default_rng`` maps ``default_rng`` to
    ``numpy.random.default_rng``.  Relative imports keep their leading
    dots, so they never collide with the absolute stdlib/numpy paths
    RPR001 matches against.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                table[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return table


def _resolve(table: dict[str, str], node: ast.AST) -> str | None:
    """Fully-qualified path of an attribute chain rooted at an imported
    name (``np.random.rand`` -> ``numpy.random.rand``), or None."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    if root not in table:
        return None
    return f"{table[root]}.{rest}" if rest else table[root]


def _at(node: ast.expr | ast.stmt, messages: Iterator[str]) -> Findings:
    """The messages as findings anchored at ``node``."""
    for message in messages:
        yield node.lineno, node.col_offset, message


def _str_const(node: ast.AST) -> str | None:
    """The value of a string-literal node, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _str_sequence(node: ast.AST) -> tuple[str, ...] | None:
    """The values of an all-string tuple/list/set literal, or None."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values = [_str_const(el) for el in node.elts]
    if any(v is None for v in values):
        return None
    return tuple(v for v in values if v is not None)


# -- RPR001: determinism ----------------------------------------------------

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


def _nondeterminism(node: ast.Call, qual: str) -> str | None:
    """Why a call to ``qual`` is nondeterministic, or None."""
    seeded = bool(node.args or node.keywords)
    if qual in WALL_CLOCK or qual.startswith("secrets."):
        return (
            f"nondeterministic call {qual}() -- simulation inputs "
            "must derive from the run's seed"
        )
    if qual.startswith("numpy.random."):
        tail = qual[len("numpy.random."):]
        if tail not in SEEDED_CONSTRUCTORS:
            return (
                f"legacy global-RNG call {qual}() -- draw from an "
                "explicitly seeded numpy.random.default_rng(seed)"
            )
        if tail == "default_rng" and not seeded:
            return (
                "default_rng() without a seed draws OS entropy -- "
                "pass the run's seed explicitly"
            )
        return None
    if qual == "random" or qual.startswith("random."):
        if qual == "random.Random" and seeded:
            return None  # random.Random(seed): explicitly seeded
        return (
            f"stdlib random call {qual}() -- use a seeded "
            "numpy.random.default_rng(seed) (or random.Random(seed))"
        )
    return None


def determinism(tree: ast.Module) -> Findings:
    """RPR001: no unseeded randomness or wall-clock input.

    Every simulation is a pure function of its canonical key, which is
    what makes the result cache, the worker fan-out and the
    bit-exactness contracts sound.  ``np.random.default_rng(seed)`` is
    the blessed pattern; a legacy global-RNG draw, an unseeded
    ``default_rng()``, stdlib ``random`` and wall-clock reads are
    flagged.
    """
    imports = _import_table(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        qual = _resolve(imports, node.func)
        message = _nondeterminism(node, qual) if qual else None
        if message:
            yield node.lineno, node.col_offset, message


# -- RPR004: engine/scheme dispatch exhaustiveness --------------------------

# Knob name -> the value set its simulator accepts, read from the
# constant the simulator itself validates against.
KNOBS: dict[str, tuple[str, ...]] = {
    "memory_engine": MEMORY_ENGINES,
    "partition": SCHEMES,
    "scheme": SCHEMES,
}

# Module constants pinned to a knob's set (a ``scheme not in SCHEMES``
# validation is checked through the constant's definition).
CONSTANT_ALIASES = {"SCHEMES": "scheme"}

# argparse flags mapped onto knobs (``--memory-engine`` et al).
_FLAG_KNOBS = {f"--{k.replace('_', '-')}": k for k in KNOBS}


def _knob_of(node: ast.AST) -> str | None:
    """The knob a Name/Attribute refers to (``x.y.knob`` -> ``knob``)."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name in KNOBS else None


def _compare(node: ast.Compare) -> Iterator[str]:
    """Literal validity of knob comparisons and membership tests."""
    if len(node.ops) != 1:
        return
    op = node.ops[0]
    left, right = node.left, node.comparators[0]
    if isinstance(op, (ast.Eq, ast.NotEq)):
        for knob_side, lit_side in ((left, right), (right, left)):
            knob = _knob_of(knob_side)
            value = _str_const(lit_side)
            if knob and value is not None and value not in KNOBS[knob]:
                yield (
                    f"comparison against {value!r} which is not a "
                    f"registered {knob} value {KNOBS[knob]}"
                )
    elif isinstance(op, (ast.In, ast.NotIn)):
        knob = _knob_of(left)
        values = _str_sequence(right)
        if knob and values is not None and set(values) != set(KNOBS[knob]):
            yield (
                f"membership test covers {sorted(values)} but the "
                f"registered {knob} set is {sorted(KNOBS[knob])}"
            )


def _constant(node: ast.Assign) -> Iterator[str]:
    """Module constants aliased to a knob must equal its set."""
    if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
        return
    name = node.targets[0].id
    knob = CONSTANT_ALIASES.get(name)
    if knob is None:
        return
    values = _str_sequence(node.value)
    if values is not None and set(values) != set(KNOBS[knob]):
        yield (
            f"constant {name} holds {sorted(values)} but the "
            f"registered {knob} set is {sorted(KNOBS[knob])}"
        )


def _add_argument(node: ast.Call) -> Iterator[str]:
    """``add_argument('--knob', choices=...)`` must match the set."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "add_argument"):
        return
    flag = _str_const(node.args[0]) if node.args else None
    knob = _FLAG_KNOBS.get(flag or "")
    if knob is None:
        return
    choices = next(
        (kw.value for kw in node.keywords if kw.arg == "choices"), None
    )
    if choices is None:
        yield (
            f"CLI flag {flag} has no choices= -- unknown {knob} "
            "values would pass argument parsing"
        )
        return
    values = _str_sequence(choices)
    if values is not None and set(values) != set(KNOBS[knob]):
        yield (
            f"CLI flag {flag} offers choices {sorted(values)} but "
            f"the registered {knob} set is {sorted(KNOBS[knob])}"
        )


def _chain_test(test: ast.AST) -> tuple[str, str] | None:
    """(knob, literal) of a ``knob == 'lit'`` chain test."""
    if not isinstance(test, ast.Compare):
        return None
    if len(test.ops) != 1 or not isinstance(test.ops[0], ast.Eq):
        return None
    left, right = test.left, test.comparators[0]
    for knob_side, lit_side in ((left, right), (right, left)):
        knob = _knob_of(knob_side)
        value = _str_const(lit_side)
        if knob and value is not None:
            return knob, value
    return None


def _chain(node: ast.If, chain_members: set[int]) -> Iterator[str]:
    """Exhaustiveness of a multi-branch knob dispatch chain; the elif
    links it walks are added to ``chain_members``."""
    head = _chain_test(node.test)
    if head is None:
        return
    knob, first = head
    covered = [first]
    current = node
    has_else = else_raises = False
    while current.orelse:
        if len(current.orelse) == 1 and isinstance(current.orelse[0], ast.If):
            nxt = current.orelse[0]
            step = _chain_test(nxt.test)
            if step is not None and step[0] == knob:
                chain_members.add(id(nxt))
                covered.append(step[1])
                current = nxt
                continue
        has_else = True
        else_raises = any(isinstance(s, ast.Raise) for s in current.orelse)
        break
    if len(covered) < 2:
        return  # single-branch feature gate, not a dispatch chain
    missing = set(KNOBS[knob]) - set(covered)
    if (has_else and else_raises) or not missing:
        return
    if not has_else and len(missing) == 1:
        return  # unambiguous fallthrough branch
    yield (
        f"dispatch chain on {knob} covers {sorted(set(covered))} "
        f"but not {sorted(missing)} and has no raising else branch"
    )


def dispatch_exhaustiveness(tree: ast.Module) -> Findings:
    """RPR004: engine/scheme dispatch covers the registered value set.

    * A comparison of a knob against a literal outside its set is a
      typo or a stale engine name.
    * A membership test or an argparse ``choices=`` written as a
      literal must equal the set exactly.
    * An ``if/elif`` chain of two or more branches on one knob must end
      in ``else: raise`` or cover every value; a single-value
      fallthrough is accepted, and single-branch gates are exempt.
    """
    chain_members: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield from _at(node, _compare(node))
        elif isinstance(node, ast.Assign):
            yield from _at(node, _constant(node))
        elif isinstance(node, ast.Call):
            yield from _at(node, _add_argument(node))
        elif isinstance(node, ast.If) and id(node) not in chain_members:
            yield from _at(node, _chain(node, chain_members))


# -- RPR005: artifact stability ---------------------------------------------

# Call wrappers that preserve (and therefore leak) iteration order.
ORDER_PRESERVING = {"list", "tuple", "enumerate", "iter"}

# Directory-listing callables with OS-dependent order.
LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
LISTING_METHODS = {"iterdir", "glob", "rglob"}


def _unstable(node: ast.AST) -> str | None:
    """Why iterating an expression is order-unstable, or None."""
    if isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return "set iteration order depends on PYTHONHASHSEED"
    if isinstance(node, ast.Call) and (
        _dotted_name(node.func) in LISTING_CALLS
        or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in LISTING_METHODS
        )
    ):
        return "directory listing order is OS-dependent"
    return None


def _sorted_args(tree: ast.Module) -> set[int]:
    """Ids of the nodes whose order a surrounding ``sorted()``
    neutralizes: ``sorted(set(...))``, and the iterables of a
    comprehension that ``sorted`` consumes whole."""
    sanctified: set[int] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and node.args
        ):
            continue
        arg = node.args[0]
        sanctified.add(id(arg))
        if isinstance(arg, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            sanctified.update(id(gen.iter) for gen in arg.generators)
    return sanctified


def artifact_stability(tree: ast.Module) -> Findings:
    """RPR005: artifact output does not depend on set or directory order.

    Artifacts are byte-compared across runs, and string hashing is
    randomized per process, so a loop, a comprehension or an
    order-preserving wrapper (``list``, ``tuple`` ...) over a set or a
    directory listing is flagged unless ``sorted()`` wraps it.
    Order-independent consumers (``len``, ``sum``, membership) are not.
    """
    sanctified = _sorted_args(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            reason = _unstable(node.iter)
            if reason and id(node.iter) not in sanctified:
                yield (
                    node.iter.lineno,
                    node.iter.col_offset,
                    f"loop over unstable order ({reason}) -- wrap the "
                    "iterable in sorted()",
                )
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                reason = _unstable(gen.iter)
                if reason and id(gen.iter) not in sanctified:
                    yield (
                        gen.iter.lineno,
                        gen.iter.col_offset,
                        f"comprehension over unstable order ({reason}) "
                        "-- wrap the iterable in sorted()",
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ORDER_PRESERVING
            and id(node) not in sanctified
            and node.args
        ):
            reason = _unstable(node.args[0])
            if reason:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{node.func.id}() over unstable order ({reason}) -- "
                    "use sorted() instead",
                )


RULES: dict[str, Callable[[ast.Module], Findings]] = {
    "RPR001": determinism,
    "RPR004": dispatch_exhaustiveness,
    "RPR005": artifact_stability,
}
