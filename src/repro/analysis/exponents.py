"""Exponent-distribution analysis (paper Fig 6).

Fig 6 shows that the exponents of all three tensors of a training layer
occupy a narrow band of the 8-bit exponent's [-127, 128] range -- the
observation that justifies both the limited per-cycle shift window of
the PE and the base-delta exponent compression.
"""

from __future__ import annotations

import numpy as np

from repro.fp.bfloat16 import bf16_fields


def exponent_range_covered(values: np.ndarray, mass: float = 0.99) -> int:
    """Width of the exponent band holding a probability mass.

    The paper's point: this is a couple dozen values, not the format's
    256 -- which is why small per-group exponent deltas suffice.

    Args:
        values: bfloat16-representable array.
        mass: probability mass the band must hold.

    Returns:
        The band width in exponent steps.
    """
    _, exp, _, is_zero = bf16_fields(np.asarray(values).ravel())
    exps = np.sort(exp[~is_zero])
    if exps.size == 0:
        return 0
    tail = (1.0 - mass) / 2.0
    lo = exps[int(tail * (exps.size - 1))]
    hi = exps[int((1.0 - tail) * (exps.size - 1))]
    return int(hi - lo + 1)
