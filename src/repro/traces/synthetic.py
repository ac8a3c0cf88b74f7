"""Calibrated synthetic tensor generation.

Tensors are built field by field: a zero mask at the target value
sparsity; significands drawn from a Gibbs-reweighted distribution over
the 128 possible bfloat16 significands so the mean CSD term count hits
its target exactly; exponents from a two-level (per-group + per-value)
normal so both the tensor-wide spread and the within-group-of-32 spread
-- which drives base-delta compression -- match their targets; random
signs.  Everything is exactly representable in bfloat16 by construction.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.encoding.booth import _LUT_COUNT
from repro.fp.softfloat import BFLOAT16
from repro.traces.calibration import TensorStats

# Significands with the hidden bit: integers 128..255.
_MAN_VALUES = np.arange(128, 256, dtype=np.int64)
_MAN_TERMS = _LUT_COUNT[128:256].astype(np.float64)

# Exponent clip range: keep well inside bfloat16 normals so products of
# two operands also stay normal.
_EXP_MIN = -96
_EXP_MAX = 16


def _gibbs_lambda_bisect(target: float) -> float:
    """Reference solver: 60-step bisection on the monotone curve.

    Args:
        target: clipped mean CSD term target.

    Returns:
        The lambda achieving the target.
    """

    def mean_at(lam: float) -> float:
        w = np.exp(-lam * _MAN_TERMS)
        w /= w.sum()
        return float((w * _MAN_TERMS).sum())

    lo, hi = -8.0, 8.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) > target:
            lo = mid  # need more penalty on many-term significands
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=4096)
def _gibbs_inverse(target: float) -> tuple[float, tuple[float, ...]]:
    """Cached inverse of the mean-vs-lambda curve, with its weights.

    The curve is a fixed monotone function, so its inverse at a given
    (clipped) target -- and the normalized Gibbs weight vector that goes
    with it -- never changes: each distinct target pays the bisection
    and the weight normalization exactly once per process, and every
    repeated tensor of a sweep reuses the entry.  Values are the
    reference bisection's, bit for bit.

    Args:
        target: clipped mean CSD term target.

    Returns:
        ``(lambda, weights)`` with weights as a hashable tuple.
    """
    lam = _gibbs_lambda_bisect(target)
    weights = np.exp(-lam * _MAN_TERMS)
    weights /= weights.sum()
    return lam, tuple(weights)


def mantissas_with_mean_terms(
    mean_terms: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample significand integers with a target mean CSD term count.

    Args:
        mean_terms: target mean terms (zeros excluded).
        size: number of significands.
        rng: random generator.

    Returns:
        int64 array of significands in ``[128, 255]``.
    """
    target = float(np.clip(mean_terms, 1.05, 4.4))
    _, weights = _gibbs_inverse(target)
    return rng.choice(_MAN_VALUES, size=size, p=np.array(weights))


def _correlated_exponents(
    stats: TensorStats, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Two-level exponent field: shared per-group drift + local jitter."""
    group = 32
    n_groups = -(-size // group)
    global_std = max(stats.exp_std, stats.exp_local_std)
    between = np.sqrt(max(global_std**2 - stats.exp_local_std**2, 0.0))
    group_centers = rng.normal(stats.exp_mean, between, n_groups)
    local = rng.normal(0.0, stats.exp_local_std, (n_groups, group))
    exponents = np.rint(group_centers[:, None] + local).astype(np.int64)
    return np.clip(exponents.reshape(-1)[:size], _EXP_MIN, _EXP_MAX)


def generate_tensor(
    stats: TensorStats,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a bfloat16-exact tensor sample matching the calibration.

    Args:
        stats: target distribution.
        size: number of values.
        rng: random generator.

    Returns:
        float64 array of ``size`` bfloat16-representable values, laid
        out in streaming (group-correlated) order.
    """
    zero_mask = rng.random(size) < stats.value_sparsity
    mantissas = mantissas_with_mean_terms(stats.mean_terms_nonzero, size, rng)
    exponents = _correlated_exponents(stats, size, rng)
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    magnitudes = np.ldexp(
        mantissas.astype(np.float64), exponents - BFLOAT16.man_bits
    )
    values = signs * magnitudes
    values[zero_mask] = 0.0
    return values
