"""The repo-specific rule set.

:data:`RULES` lists every rule class in code order; a new rule joins
the checks by being added to it.
"""

from repro.lint.rules.artifacts import ArtifactStabilityRule
from repro.lint.rules.cache_key import CacheKeyRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.dispatch import DispatchExhaustivenessRule
from repro.lint.rules.docstrings import DocstringCoverageRule
from repro.lint.rules.facade import FacadeSurfaceRule
from repro.lint.rules.serialization import SerializationParityRule

RULES = (
    DeterminismRule,
    CacheKeyRule,
    SerializationParityRule,
    DispatchExhaustivenessRule,
    ArtifactStabilityRule,
    DocstringCoverageRule,
    FacadeSurfaceRule,
)
