"""The repo-specific rule set.

:data:`RULES` lists every rule class in code order; a new rule joins
the checks by being added to it.
"""

from repro.lint.rules.artifacts import ArtifactStabilityRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.dispatch import DispatchExhaustivenessRule

RULES = (
    DeterminismRule,
    DispatchExhaustivenessRule,
    ArtifactStabilityRule,
)
