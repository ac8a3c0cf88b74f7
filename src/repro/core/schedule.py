"""Vectorized cycle-schedule model of the FPRaker PE.

The functional model in :mod:`repro.core.pe` schedules one group at a
time with Python loops; this module simulates the *same* schedule for
many groups simultaneously using numpy, which is what makes
layer-scale performance simulation tractable.  The two implementations
are cross-checked against each other in the test suite.

A "group" is one set of up to 8 (A, B) operand pairs entering one PE:
the A significands expand into canonical signed-power-of-two terms, each
term's alignment offset ``k`` is its shift distance below the round's
maximum exponent, and the schedule fires terms MSB-first under the
shift-window constraint (paper Fig 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.numpy_backend import KERNELS
from repro.core.config import PEConfig
from repro.encoding.booth import term_positions
from repro.encoding.terms import MAX_TERMS, TERM_SLOTS
from repro.fp.accumulator import ZERO_EXP

_BF16_FRAC = 7
_ZERO_OPERAND_EXP = -127

# Round exponent of a group with no live (nonzero x nonzero) lane; the
# scalar PE returns the same sentinel, keeping the two models bit-equal.
_ZERO_ROUND_EXP = np.int64(ZERO_EXP)

# Sentinel offset for padded / skipped term slots: far beyond any real
# alignment offset, so it never wins a min().
_K_SENTINEL = np.int64(1 << 30)

# int16 stand-in used by the batched tile schedule: real offsets never
# exceed the saturation caps (tens), so anything at or beyond this acts
# as "no term" in every comparison, exactly like _K_SENTINEL does for
# the int64 reference path.
_K_SENTINEL16 = np.int16(1 << 12)

# Largest alignment walk any datapath realizes: beyond the widest
# accumulator every contribution is zero, and a real design clamps its
# shift-distance arithmetic there.
_MAX_ALIGNMENT = np.int64(48)


@dataclass
class ScheduleResult:
    """Vectorized schedule outcome for a batch of groups.

    All arrays are indexed ``[..., ]`` or ``[..., lane]``, where ``...``
    is whatever leading batch shape the operands carried -- a flat
    ``[group]`` axis for PE-level batches, ``[col, step]`` for one tile
    strip, ``[strip, col, step]`` for a batched strip stack.

    Attributes:
        cycles: schedule length per group (>= 1).
        useful: lane-cycles that fired a term.
        shift_stall: lane-cycles stalled on the shift window.
        no_term: lane-cycles idle with no terms left.
        terms_processed: terms fired per lane.
        terms_zero_skipped: bit-parallel slots never encoded per lane.
        terms_ob_skipped: terms skipped as out-of-bounds per lane.
    """

    cycles: np.ndarray
    useful: np.ndarray
    shift_stall: np.ndarray
    no_term: np.ndarray
    terms_processed: np.ndarray
    terms_zero_skipped: np.ndarray
    terms_ob_skipped: np.ndarray

    @property
    def groups(self) -> int:
        """Number of groups in the batch."""
        return int(self.cycles.size)

    def total_cycles(self) -> int:
        """Sum of schedule lengths (serial execution of the batch)."""
        return int(self.cycles.sum())


def operand_exponents_and_zero(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exponents as the adders read them (zeros -> -127), plus zero mask.

    Reads the biased exponent field straight out of the float32 bit
    pattern (bfloat16 is its upper half): for bfloat16-exact inputs --
    no denormals by construction -- the field minus the bias is exactly
    the unbiased exponent :func:`repro.fp.softfloat.decompose` computes,
    and a zero value's all-zero field lands on the adders' -127 without
    a select.  This is several times cheaper than the frexp-based
    decomposition, which matters because every simulated strip pays it.

    Args:
        values: bfloat16-representable array.

    Returns:
        ``(exponents, is_zero)``: int64 and bool arrays of the same
        shape as ``values``.
    """
    bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    field = (bits >> np.uint32(23)) & np.uint32(0xFF)
    exponents = field.astype(np.int64) + np.int64(_ZERO_OPERAND_EXP)
    return exponents, field == 0


def operand_exponents(values: np.ndarray) -> np.ndarray:
    """Unbiased exponents as the exponent adders read them (zeros -> -127).

    Args:
        values: bfloat16-representable array.

    Returns:
        int64 array of the same shape.
    """
    return operand_exponents_and_zero(values)[0]


def group_term_weights(
    a_values: np.ndarray,
    b_values: np.ndarray,
    eacc: np.ndarray | None,
    config: PEConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand a batch of groups into per-term alignment offsets.

    Args:
        a_values: serial-side operands, shape ``[..., lanes]`` with any
            leading batch shape, bfloat16-representable.
        b_values: parallel-side operands, same shape (only their
            exponents matter for timing).
        eacc: accumulator exponent per group (int64 of the leading
            batch shape), or None for zero accumulators.
        config: PE parameters (shift window, OB skipping, threshold).

    Returns:
        Tuple ``(k, kept, zero_slots, ob_skipped, emax)``:

        * ``k``: int64 ``[..., lanes, MAX_TERMS]`` ascending alignment
          offsets, ``_K_SENTINEL``-padded beyond ``kept``;
        * ``kept``: int64 ``[..., lanes]`` terms surviving OB skipping;
        * ``zero_slots``: int64 ``[..., lanes]`` never-encoded slots;
        * ``ob_skipped``: int64 ``[..., lanes]`` OB-discarded terms;
        * ``emax``: int64 ``[...]`` round maximum exponents.
    """
    a_exp, a_zero = operand_exponents_and_zero(a_values)
    b_exp, b_zero = operand_exponents_and_zero(b_values)
    abe = a_exp + b_exp
    # Zero pairs are masked out of the round MAX (the zero flag gates
    # the comparator), mirroring FPRakerPE._exponent_block: a zero
    # operand's -127 exponent field could otherwise outvote a genuinely
    # tiny product.  _ZERO_ROUND_EXP marks an all-zero round.
    live = ~(a_zero | b_zero)
    emax = np.where(live, abe, _ZERO_ROUND_EXP).max(axis=-1)
    if eacc is not None:
        emax = np.maximum(emax, np.asarray(eacc, dtype=np.int64))
    count, power, _ = term_positions(a_values)
    # k = (emax - ABe) + (7 - p); power is MSB-first so k ascends along
    # the term axis.  Clamped at 0: shift distances are unsigned, and a
    # zero-product lane (masked out of emax above) can sit above the
    # round base -- its terms clamp there, as in the scalar PE.
    k = (emax[..., None, None] - abe[..., None]) + (_BF16_FRAC - power)
    slot = np.arange(MAX_TERMS, dtype=np.int64)
    valid = slot < count[..., None]
    k = np.where(valid, np.maximum(k, 0), _K_SENTINEL)
    zero_slots = TERM_SLOTS - count
    threshold = config.accumulator.ob_threshold
    if config.ob_skip:
        out_of_bounds = valid & (k > threshold)
        ob_skipped = out_of_bounds.sum(axis=-1)
        kept = count - ob_skipped
        k = np.where(out_of_bounds, _K_SENTINEL, k)
    else:
        ob_skipped = np.zeros_like(count)
        kept = count
        if config.saturate_shifts:
            # Terms are still issued, but the offset arithmetic
            # saturates just past the accumulator's reach (the shift
            # distance is computed in narrow hardware): every farther
            # term's bits fall into the sticky position and the base
            # walk never exceeds threshold + window.
            k = np.where(
                valid, np.minimum(k, threshold + config.shift_window), k
            )
        else:
            # Wide-datapath designs (Pragmatic-FP) must realize the full
            # alignment; only the format's own range bounds the walk.
            k = np.where(valid, np.minimum(k, _MAX_ALIGNMENT), k)
    return k, kept, zero_slots, ob_skipped, emax


def schedule_groups(
    a_values: np.ndarray,
    b_values: np.ndarray,
    config: PEConfig | None = None,
    eacc: np.ndarray | None = None,
) -> ScheduleResult:
    """Simulate the PE schedule for a batch of independent groups.

    Args:
        a_values: serial-side operands ``[..., lanes]`` (any leading
            batch shape, e.g. ``[groups]`` or ``[strip, col, step]``).
        b_values: parallel-side operands, same shape.
        config: PE parameters (defaults to the paper's).
        eacc: optional accumulator exponent per group (leading batch
            shape).

    Returns:
        The per-group :class:`ScheduleResult`.
    """
    config = config if config is not None else PEConfig()
    k, kept, zero_slots, ob_skipped, _ = group_term_weights(
        a_values, b_values, eacc, config
    )
    return schedule_from_weights(k, kept, zero_slots, ob_skipped, config)


def schedule_from_weights(
    k: np.ndarray,
    kept: np.ndarray,
    zero_slots: np.ndarray,
    ob_skipped: np.ndarray,
    config: PEConfig,
) -> ScheduleResult:
    """Run the cycle loop over pre-expanded term offsets.

    Groups are scheduled independently, so any leading batch shape
    (``[groups]``, ``[col, step]``, ``[strip, col, step]``...) is
    accepted; the loop runs over the flattened batch and the result
    arrays come back in the leading shape.  Batching strips this way is
    what makes the tile-level engine fast: the cycle loop's iteration
    count is the *maximum* schedule length over the batch, not the sum.

    Args:
        k: ``[..., lanes, MAX_TERMS]`` ascending offsets, sentinel
            padded.
        kept: ``[..., lanes]`` surviving term counts.
        zero_slots: ``[..., lanes]`` never-encoded slots.
        ob_skipped: ``[..., lanes]`` OB-discarded terms.
        config: PE parameters (shift window).

    Returns:
        The per-group :class:`ScheduleResult` in the leading shape.
    """
    batch_shape = k.shape[:-2]
    lanes, n_terms = k.shape[-2], k.shape[-1]
    k = k.reshape(-1, lanes, n_terms)
    kept = kept.reshape(-1, lanes)
    groups = k.shape[0]
    index = np.zeros((groups, lanes), dtype=np.int64)
    useful = np.zeros((groups, lanes), dtype=np.int64)
    shift_stall = np.zeros((groups, lanes), dtype=np.int64)
    no_term = np.zeros((groups, lanes), dtype=np.int64)
    cycles = np.zeros(groups, dtype=np.int64)
    window = config.shift_window
    # Each iteration fires at least one term in every active group, so
    # the loop runs at most max total kept terms per group times.
    while True:
        pending = index < kept
        group_active = pending.any(axis=1)
        if not group_active.any():
            break
        current = np.take_along_axis(
            k, np.minimum(index, k.shape[2] - 1)[:, :, None], axis=2
        )[:, :, 0]
        current = np.where(pending, current, _K_SENTINEL)
        base = current.min(axis=1)
        fire = pending & (current - base[:, None] <= window)
        useful += fire
        index += fire
        active_col = group_active[:, None]
        shift_stall += (pending & ~fire) & active_col
        no_term += (~pending) & active_col
        cycles += group_active
    # A group with no terms at all still costs its one exponent cycle,
    # with every lane idle.
    empty = cycles == 0
    if empty.any():
        cycles = np.where(empty, 1, cycles)
        no_term += empty[:, None].astype(np.int64)
    lane_shape = batch_shape + (lanes,)
    return ScheduleResult(
        cycles=cycles.reshape(batch_shape),
        useful=useful.reshape(lane_shape),
        shift_stall=shift_stall.reshape(lane_shape),
        no_term=no_term.reshape(lane_shape),
        terms_processed=kept.reshape(lane_shape),
        terms_zero_skipped=zero_slots.reshape(lane_shape),
        terms_ob_skipped=ob_skipped.reshape(lane_shape),
    )


def schedule_from_weights_compact(
    k: np.ndarray,
    kept: np.ndarray,
    zero_slots: np.ndarray,
    ob_skipped: np.ndarray,
    config: PEConfig,
) -> ScheduleResult:
    """Compacting variant of :func:`schedule_from_weights`.

    Bit-identical per-group results (the cross-check suite enforces it),
    but groups are *evicted* from the working set the cycle after they
    retire their last term, so each iteration's numpy work shrinks with
    the surviving population: total work is the sum of per-group
    schedule lengths rather than (iterations x batch size).  This is the
    loop behind the batched strip engine, where a whole
    ``[strip, col, step]`` stack shares one working set.

    ``k`` may be int16 (sentinel :data:`_K_SENTINEL16`) or int64
    (sentinel :data:`_K_SENTINEL`): the loop's gathers and compares run
    in the given dtype, which halves the hot loop's memory traffic for
    the batched engine's int16 offsets.

    The residual cycle loop (the groups the closed-form fast path below
    cannot answer) is the shared
    :meth:`~repro.backends.numpy_backend.NumpyBackend.compact_cycle_loop`.

    Args:
        k: ``[..., lanes, MAX_TERMS]`` ascending offsets, sentinel
            padded.
        kept: ``[..., lanes]`` surviving term counts.
        zero_slots: ``[..., lanes]`` never-encoded slots.
        ob_skipped: ``[..., lanes]`` OB-discarded terms.
        config: PE parameters (shift window).

    Returns:
        The per-group :class:`ScheduleResult` in the leading shape.
    """
    batch_shape = k.shape[:-2]
    lanes, n_terms = k.shape[-2], k.shape[-1]
    sentinel = _K_SENTINEL16 if k.dtype == np.int16 else _K_SENTINEL
    k_all = np.ascontiguousarray(k.reshape(-1, lanes, n_terms))
    kept_all = np.ascontiguousarray(kept.reshape(-1, lanes))
    groups = k_all.shape[0]
    cycles = np.zeros(groups, dtype=np.int64)
    useful = np.zeros((groups, lanes), dtype=np.int64)
    shift_stall = np.zeros((groups, lanes), dtype=np.int64)
    no_term = np.zeros((groups, lanes), dtype=np.int64)
    window = config.shift_window
    # Closed-form fast path: when every surviving offset of a group
    # lies within one shift window (its live span), each cycle's base
    # is within ``window`` of every pending head, so every pending lane
    # fires every cycle -- the schedule is simply "each lane fires its
    # kept terms back to back", in whatever order the slots hold (the
    # column-merged offsets need not ascend).  Live slots are the
    # prefix below ``kept``; the span is a masked min/max over them.
    # Empty groups (no terms anywhere) fall into this bucket with zero
    # cycles and are patched by the common no-term fix below, exactly
    # like the loop leaves them.  Typically over half the groups of a
    # real strip stack take this path, and the cycle loop below runs
    # on the remainder only.
    slot_live = np.arange(n_terms) < kept_all[:, :, None]
    kmin = np.where(slot_live, k_all, sentinel).min(axis=(1, 2))
    kmax = np.where(slot_live, k_all, k_all.dtype.type(-1)).max(axis=(1, 2))
    fast = kmax - kmin <= window
    fast_cycles = np.where(fast, kept_all.max(axis=1), 0)
    cycles = np.where(fast, fast_cycles, cycles)
    useful = np.where(fast[:, None], kept_all, useful)
    no_term = np.where(fast[:, None], fast_cycles[:, None] - kept_all, no_term)
    slow = np.flatnonzero(~fast)
    if slow.size:
        s_cycles, s_useful, s_shift, s_no_term = KERNELS.compact_cycle_loop(
            k_all[slow], kept_all[slow], window, sentinel
        )
        cycles[slow] = s_cycles
        useful[slow] = s_useful
        shift_stall[slow] = s_shift
        no_term[slow] = s_no_term
    # A group with no terms at all still costs its one exponent cycle,
    # with every lane idle.
    empty = cycles == 0
    if empty.any():
        cycles = np.where(empty, 1, cycles)
        no_term += empty[:, None].astype(np.int64)
    lane_shape = batch_shape + (lanes,)
    return ScheduleResult(
        cycles=cycles.reshape(batch_shape),
        useful=useful.reshape(lane_shape),
        shift_stall=shift_stall.reshape(lane_shape),
        no_term=no_term.reshape(lane_shape),
        terms_processed=kept.reshape(lane_shape),
        terms_zero_skipped=zero_slots.reshape(lane_shape),
        terms_ob_skipped=ob_skipped.reshape(lane_shape),
    )
