"""Static checks of the repo's reproducibility contracts.

Three ``ast``-based rules guard code paths that a test may never
execute: unseeded randomness or wall-clock input (RPR001), dispatch
literals that drift from the registered knob sets (RPR004), and set or
directory order leaking into artifacts (RPR005).  The tier-1 tests in
``tests/lint/`` run them over ``src/repro``.  The contracts a test can
check by running the code -- cache-key completeness, serialization
round trips, docstring coverage and the public facade -- are tests
(``tests/harness/test_contracts.py`` and ``tests/docs/``), not rules.

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
