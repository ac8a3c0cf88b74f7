"""Static checks of the repo's reproducibility contracts.

Every perf layer of this codebase rests on invariants that were only
checked dynamically until now: fast paths must stay bit-exact against
their retained serial references, every result-affecting knob must be
part of a :class:`repro.harness.runner.SimulationSession` canonical
cache key, ``to_dict``/``from_dict`` pairs must round-trip byte-stably,
and emitted artifacts must be deterministic.  This package is the
static half of that contract: seven ``ast``-based rules that the
tier-1 tests in ``tests/lint/`` run over ``src/repro``.

Layout:

* :mod:`repro.lint.findings` -- the :class:`Finding` record and the
  :class:`Rule` base class.
* :mod:`repro.lint.astutil` -- shared ``ast`` helpers.
* :mod:`repro.lint.rules` -- the repo-specific rule set (RPR001..)
  and the :data:`repro.lint.rules.RULES` tuple listing it.

Adding a rule is one module: subclass :class:`Rule`, implement
``check(tree, path)``, and add the class to ``RULES``.
"""

from repro.lint.findings import Finding, Rule

__all__ = ["Finding", "Rule"]
