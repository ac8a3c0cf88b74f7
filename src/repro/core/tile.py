"""FPRaker tile simulation: PEs under shared-operand synchronization.

A tile (paper Fig 8) is a grid of ``rows x cols`` PEs:

* each **column** streams one serial-side (A) operand set, expanded once
  by term encoders shared down the column -- every PE of the column must
  finish the current A group before the column advances;
* each **row** broadcasts one parallel-side (B) operand set to all
  columns -- per-PE B buffers of depth ``N`` allow a column to run ahead
  of the slowest column by at most ``N`` groups;
* each **pair of PEs in a column** shares one exponent block, making two
  cycles the minimum cost of a group;
* OB signals of a lane are synchronized down the column.

The simulator consumes one "strip" of work: ``steps`` consecutive
reduction groups for every PE, with the accumulator exponent evolving as
the reduction proceeds (which is what the out-of-bounds mechanism keys
off).  Results are expressed per column-step so the accelerator level
can scale them to full layers.

Two engines produce those results:

* :meth:`TileSimulator.simulate_strip` -- the original single-strip
  reference, operating on ``[col, step]`` arrays; only the test suite
  calls it;
* :meth:`TileSimulator.simulate_strips` -- the batched engine, operating
  on ``[strip, col, step]`` stacks so one numpy pass covers every
  sampled strip of a layer-phase.  It is required to be bit-identical to
  running the reference per strip (cross-checked in the test suite the
  same way the vectorized schedule is cross-checked against the scalar
  PE), which is why the reference is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.numpy_backend import KERNELS
from repro.core.config import TileConfig
from repro.core.schedule import (
    _K_SENTINEL,
    _K_SENTINEL16,
    _MAX_ALIGNMENT,
    ScheduleResult,
    group_term_weights,
    schedule_from_weights,
    schedule_from_weights_compact,
)
from repro.core.stats import LaneLedger, SimCounters, TermLedger
from repro.encoding.booth import bf16_exponents16, bf16_strip_fields
from repro.encoding.terms import MAX_TERMS, TERM_SLOTS

# Accumulator-exponent sentinel for an empty accumulator; far below any
# real bfloat16 product exponent but safe in int64 arithmetic.
_EACC_ZERO = -(1 << 40)

# The batched engine computes its offset arrays in int16 (4x less
# memory traffic than int64 over the [strip, row, col, step] stacks).
# Real alignment arithmetic fits easily: product exponents are in
# [-254, 256], accumulator exponents in [-1074, 1024], so offsets never
# exceed ~1400.  The huge sentinels of the reference path (+-1e9-scale)
# only ever act as "beyond every comparison"; the int16 stand-ins below
# sit beyond every *reachable* value, so each downstream clamp, compare
# and min/max resolves identically -- the property suite cross-checks
# this bit-for-bit against the serial reference.
_SENT16 = _K_SENTINEL16
# Stand-in for schedule._ZERO_ROUND_EXP: below the smallest live
# product exponent (-252), so it loses every max() a real product wins.
_EMAX_DEAD16 = np.int16(-300)
# Accumulator exponents clip here before the int16 cast.  Below -320 an
# exponent only produces offsets that clamp to zero (or lose the round
# max) exactly like the reference's -2^40 sentinel; above 1100 is
# unreachable for a float64 exponent.
_EACC_CLIP_LO = -320
_EACC_CLIP_HI = 1100
# "No surviving row" marker for the firing-offset scan: below every
# reachable alignment base (d >= _EMAX_DEAD16 - 256 > -600).
_DSTAR_NONE = np.int16(-1000)


@dataclass
class TileResult:
    """Outcome of simulating one strip on one tile.

    Attributes:
        makespan: cycles from first group issue to last group retire.
        steps: reduction groups simulated per PE.
        counters: aggregated work/stall ledger (lane-cycles sum to
            ``makespan * rows * cols * lanes``).
        cycles_per_step: makespan / steps -- the scaling quantity.
    """

    makespan: int
    steps: int
    counters: SimCounters

    @property
    def cycles_per_step(self) -> float:
        """Average cycles the tile needs per reduction group step."""
        return self.makespan / self.steps if self.steps else 0.0


@dataclass
class TileBatchResult:
    """Outcome of simulating a stack of strips in one batched pass.

    Attributes:
        makespans: int64 ``[strip]`` per-strip makespans.
        steps: reduction groups simulated per PE (same for all strips).
        counters: one :class:`SimCounters` per strip, bit-identical to
            what :meth:`TileSimulator.simulate_strip` produces for that
            strip alone.
    """

    makespans: np.ndarray
    steps: int
    counters: list[SimCounters]

    @property
    def strips(self) -> int:
        """Number of strips in the batch."""
        return int(self.makespans.size)

    @property
    def makespan(self) -> int:
        """Summed makespan over the batch (strips execute back to back)."""
        return int(self.makespans.sum())

    def strip_result(self, index: int) -> TileResult:
        """The single-strip view of one batch entry."""
        return TileResult(
            makespan=int(self.makespans[index]),
            steps=self.steps,
            counters=self.counters[index],
        )

    def counters_total(self) -> SimCounters:
        """Counters summed over the batch (strip order, like the serial
        accumulation loop)."""
        total = SimCounters()
        for item in self.counters:
            total.add(item)
        return total


def accumulator_exponents(
    a_chunks: np.ndarray,
    b_chunks: np.ndarray,
    initial_sum: np.ndarray | None = None,
) -> np.ndarray:
    """Evolve the per-PE accumulator exponent along the reduction.

    The OB mechanism compares term offsets against the *current*
    accumulator exponent.  The PE accumulates every product of an output
    into one higher-precision register (paper Section IV-A), so the
    register's exponent tracks the running partial sum of the *whole*
    reduction -- the chunk-based scheme of Sakr et al. governs which
    significand bits are retained, not the register's magnitude.  We
    emulate the running sum in float64 (exact at the exponent level) and
    read its exponent before every step.

    Args:
        a_chunks: serial operands ``[cols, steps, lanes]``, or a batched
            stack ``[strip, cols, steps, lanes]``.
        b_chunks: parallel operands ``[rows, steps, lanes]`` (or
            ``[strip, rows, steps, lanes]`` to match).
        initial_sum: optional warm-start partial sums ``[rows, cols]``
            (``[strip, rows, cols]`` when batched) for strips that sit
            in the middle of a long reduction.

    Returns:
        int64 ``[rows, cols, steps]`` accumulator exponents *entering*
        each step (``_EACC_ZERO`` where the running sum is still zero),
        with a leading strip axis when the inputs carried one.
    """
    batched = a_chunks.ndim == 4
    a = a_chunks if batched else a_chunks[None]
    b = b_chunks if batched else b_chunks[None]
    # partial[x, r, c, s] = sum_l a[x, c, s, l] * b[x, r, s, l]
    partial = np.einsum("xcsl,xrsl->xrcs", a, b)
    running = np.cumsum(partial, axis=3)
    if initial_sum is not None:
        init = initial_sum if batched else initial_sum[None]
        running = running + init[:, :, :, None]
        first = np.broadcast_to(
            init[:, :, :, None], running[:, :, :, :1].shape
        ).copy()
    else:
        first = np.zeros_like(running[:, :, :, :1])
    # Exponent entering step s is that of the sum over steps < s.  The
    # unbiased exponent is the float64 bit field minus its bias, which
    # matches frexp's (exp - 1) for every normal value; partial sums of
    # bfloat16 products (and normal-scale warm starts) are multiples of
    # ulps far above the denormal range, so the field is never zero for
    # a nonzero sum.
    entering = np.ascontiguousarray(
        np.concatenate([first, running[:, :, :, :-1]], axis=3)
    )
    field = (entering.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)
    eacc = np.where(
        entering != 0.0, field.astype(np.int64) - 1023, _EACC_ZERO
    )
    return eacc if batched else eacc[0]


class TileSimulator:
    """Cycle-level simulator of one FPRaker tile over a work strip.

    Args:
        config: tile geometry and PE parameters.
    """

    def __init__(self, config: TileConfig | None = None) -> None:
        self.config = config if config is not None else TileConfig()

    def simulate_strip(
        self,
        a_chunks: np.ndarray,
        b_chunks: np.ndarray,
        initial_sum: np.ndarray | None = None,
    ) -> TileResult:
        """Simulate ``steps`` reduction groups across the whole tile.

        Args:
            a_chunks: serial operands ``[cols, steps, lanes]``
                (bfloat16-representable; column ``c`` streams
                ``a_chunks[c]``).
            b_chunks: parallel operands ``[rows, steps, lanes]`` (row
                ``r`` broadcasts ``b_chunks[r]`` to every column).
            initial_sum: optional warm-start accumulator values
                ``[rows, cols]`` for strips sampled mid-reduction.

        Returns:
            The :class:`TileResult` for the strip.
        """
        cfg = self.config
        cols, steps, lanes = a_chunks.shape
        rows = b_chunks.shape[0]
        if cols != cfg.cols or rows != cfg.rows or lanes != cfg.pe.lanes:
            raise ValueError(
                f"strip shape ({rows}x{cols}, {lanes} lanes) does not match "
                f"tile config ({cfg.rows}x{cfg.cols}, {cfg.pe.lanes} lanes)"
            )
        eacc = accumulator_exponents(a_chunks, b_chunks, initial_sum)
        schedule = self._schedule_columns(a_chunks, b_chunks, eacc)
        column_sched = schedule.cycles.reshape(cols, steps)
        floor = cfg.pe.min_group_cycles
        col_cycles = np.maximum(column_sched, floor)
        exp_stall = np.maximum(floor - column_sched, 0)
        finish, cross_idle = self._column_timeline(col_cycles)
        makespan = int(finish[:, -1].max())
        counters = self._build_counters(
            schedule,
            col_cycles,
            exp_stall,
            cross_idle,
            finish,
            makespan,
            rows,
        )
        return TileResult(makespan=makespan, steps=steps, counters=counters)

    def simulate_strips(
        self,
        a_chunks: np.ndarray,
        b_chunks: np.ndarray,
        initial_sums: np.ndarray | None = None,
    ) -> TileBatchResult:
        """Simulate a stack of independent strips in one batched pass.

        Bit-identical to calling :meth:`simulate_strip` per strip (the
        serial reference), but every stage -- exponent evolution, term
        expansion, the schedule cycle loop, the column timeline -- runs
        once over ``[strip, col, step]`` arrays, so the numpy dispatch
        and the schedule loop's iteration count are paid once per batch
        instead of once per strip.

        Args:
            a_chunks: serial operands ``[strip, cols, steps, lanes]``.
            b_chunks: parallel operands ``[strip, rows, steps, lanes]``.
            initial_sums: optional warm-start accumulator values
                ``[strip, rows, cols]``.

        Returns:
            The :class:`TileBatchResult` with per-strip outcomes.
        """
        cfg = self.config
        if a_chunks.ndim != 4 or b_chunks.ndim != 4:
            raise ValueError("simulate_strips expects [strip, ...] stacks")
        strips, cols, steps, lanes = a_chunks.shape
        rows = b_chunks.shape[1]
        if strips == 0:
            raise ValueError("empty strip batch")
        if b_chunks.shape[0] != strips:
            raise ValueError(
                f"operand stacks disagree on strips "
                f"({strips} vs {b_chunks.shape[0]})"
            )
        if cols != cfg.cols or rows != cfg.rows or lanes != cfg.pe.lanes:
            raise ValueError(
                f"strip shape ({rows}x{cols}, {lanes} lanes) does not match "
                f"tile config ({cfg.rows}x{cfg.cols}, {cfg.pe.lanes} lanes)"
            )
        eacc = accumulator_exponents(a_chunks, b_chunks, initial_sums)
        schedule = self._schedule_strip_columns(a_chunks, b_chunks, eacc)
        column_sched = schedule.cycles  # [strip, cols, steps]
        floor = cfg.pe.min_group_cycles
        col_cycles = np.maximum(column_sched, floor)
        exp_stall = np.maximum(floor - column_sched, 0)
        finish, cross_idle = self._column_timeline_batch(col_cycles)
        makespans = finish[:, :, -1].max(axis=1)
        counters = self._build_counters_batch(
            schedule,
            col_cycles,
            exp_stall,
            cross_idle,
            finish,
            makespans,
            rows,
        )
        return TileBatchResult(
            makespans=makespans, steps=steps, counters=counters
        )

    def _schedule_columns(
        self,
        a_chunks: np.ndarray,
        b_chunks: np.ndarray,
        eacc: np.ndarray,
    ) -> ScheduleResult:
        """One schedule per (column, step): the column is the unit.

        The term encoders are shared down a column, so all of a column's
        PEs consume the same A-term stream in lockstep; per-row exponent
        differences shift each PE's alignment offsets, and the binding
        row (largest offset) gates when a term can fire within the shift
        window.  OB signals are synchronized down the column: a term is
        skipped only once *every* row agrees it is out of bounds, i.e.
        based on the smallest per-row offset.
        """
        rows = b_chunks.shape[0]
        cols, steps, lanes = a_chunks.shape
        a_groups = np.broadcast_to(
            a_chunks[None, :, :, :], (rows, cols, steps, lanes)
        ).reshape(-1, lanes)
        b_groups = np.broadcast_to(
            b_chunks[:, None, :, :], (rows, cols, steps, lanes)
        ).reshape(-1, lanes)
        cfg = self.config.pe
        k, kept, zero_slots, ob_skipped, _ = group_term_weights(
            a_groups, b_groups, eacc.reshape(-1), cfg
        )
        n_terms = k.shape[2]
        k = k.reshape(rows, cols * steps, lanes, n_terms)
        kept = kept.reshape(rows, cols * steps, lanes)
        zero_slots = zero_slots.reshape(rows, cols * steps, lanes)
        ob_skipped = ob_skipped.reshape(rows, cols * steps, lanes)
        # Firing is gated by the row needing the largest shift; skipping
        # by the row that still reaches the term (column-synchronized
        # OB).  A term already dropped in some row (sentinel offset) must
        # not block the others, so the firing offset ignores dropped rows
        # by construction: kept counts come from the per-column minimum
        # of dropped terms, and the offset stream keeps a term when any
        # row keeps it.
        col_ob = ob_skipped.min(axis=0)
        col_kept = kept.max(axis=0)
        k_live = np.where(k >= _K_SENTINEL, np.int64(-1), k)
        k_fire = k_live.max(axis=0)
        k_fire = np.where(k_fire < 0, _K_SENTINEL, k_fire)
        return schedule_from_weights(
            k_fire, col_kept, zero_slots[0], col_ob, cfg
        )

    def _schedule_strip_columns(
        self,
        a_chunks: np.ndarray,
        b_chunks: np.ndarray,
        eacc: np.ndarray,
    ) -> ScheduleResult:
        """Batched :meth:`_schedule_columns`: leading ``[strip]`` axis.

        Identical synchronization semantics -- firing gated by the row
        needing the largest shift, OB skipping by the row that still
        reaches the term (column-synchronized OB) -- computed without
        ever materializing the reference path's per-row term arrays.
        Every per-term quantity is a *monotone* function of the per-PE
        alignment base ``d = emax - ABe``: a term's clamped offset
        ``max(d + q, 0)`` grows with ``d``, so

        * the row keeping the most terms (the column's OB count) is
          exactly the row with the smallest ``d``;
        * the firing offset (largest offset among rows that still reach
          the term) is the clamp of the largest *surviving* ``d``.

        That turns the reference's per-row int64 term expansion into a
        ``[strip, row, col, step, lane]`` int16 base array plus term-axis
        work on the un-broadcast ``[strip, col, step, lane, term]``
        shape; the only row-by-term intermediate is the int16 masked
        operand of the ``dstar`` max-reduction, whose size callers bound
        by chunking oversized strip stacks
        (:data:`AcceleratorSimulator._MAX_STACK_ROWS`).  Everything is
        loop-free over rows.  The property suite cross-checks the result
        bit-for-bit against :meth:`_schedule_columns`.
        """
        strips, cols, steps, lanes = a_chunks.shape
        rows = b_chunks.shape[1]
        cfg = self.config.pe
        # One bit-pattern pass per operand side covers the exponent
        # adders' view and (for the serial side) the term expansion.
        a_exp, a_zero, count, q = bf16_strip_fields(a_chunks)
        b_exp, b_zero = bf16_exponents16(b_chunks)
        # [strip, row, col, step, lane]: product exponents per PE; dead
        # (zero x anything) pairs drop out of the round MAX.
        abe = a_exp[:, None, :, :, :] + b_exp[:, :, None, :, :]
        dead = a_zero[:, None, :, :, :] | b_zero[:, :, None, :, :]
        emax = np.where(dead, _EMAX_DEAD16, abe).max(axis=-1)
        eacc16 = np.clip(eacc, _EACC_CLIP_LO, _EACC_CLIP_HI).astype(np.int16)
        emax = np.maximum(emax, eacc16)
        # Alignment base of every PE lane; per-term offsets are
        # max(d + q, 0) with q the term's significand position.
        d = emax[..., None] - abe
        slot = np.arange(MAX_TERMS, dtype=np.int64)
        valid = slot < count[..., None]
        zero_slots = TERM_SLOTS - count
        threshold = cfg.accumulator.ob_threshold
        if cfg.ob_skip:
            # A term survives in row r iff max(d_r + q, 0) <= threshold,
            # i.e. (threshold >= 0) iff d_r <= threshold - q: the
            # smallest-d row keeps the most terms, and column-
            # synchronized OB skips exactly its out-of-bounds count.
            dmin = d.min(axis=1)
            col_ob = (valid & (dmin[..., None] > threshold - q)).sum(axis=-1)
            col_kept = count - col_ob
            # The firing offset is gated by the largest surviving base:
            # a masked max-reduction over the row axis (rows that exceed
            # the threshold drop to the "no survivor" sentinel, which
            # loses every max against a surviving base).
            limit = threshold - q
            surviving = np.where(
                d[:, :, :, :, :, None] <= limit[:, None], d[..., None], _DSTAR_NONE
            )
            dstar = surviving.max(axis=1)
            k_fire = np.where(
                valid & (dstar > _DSTAR_NONE),
                np.maximum(dstar + q, 0),
                _SENT16,
            )
        else:
            # No skipping: every row realizes every term, the binding
            # row is simply the largest base, saturated at the datapath
            # reach (max(d + q, 0) then min(.., cap) is monotone in d).
            col_ob = np.zeros((strips, cols, steps, lanes), dtype=np.int64)
            col_kept = count
            cap = (
                threshold + cfg.shift_window
                if cfg.saturate_shifts
                # int() keeps the minimum in int16 (the module constant
                # is an int64 scalar, which would promote the array).
                else int(_MAX_ALIGNMENT)
            )
            dmax = d.max(axis=1)
            k_fire = np.where(
                valid,
                np.minimum(np.maximum(dmax[..., None] + q, 0), cap),
                _SENT16,
            )
        # k_fire stays int16 end to end: the compact cycle loop treats
        # any >= _SENT16 entry as "no term", so no int64 widening pass
        # is needed between the schedule build and the loop.
        return schedule_from_weights_compact(
            k_fire, col_kept, zero_slots, col_ob, cfg
        )

    def _column_timeline(
        self, col_cycles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sequence column steps under the B-broadcast buffer constraint.

        Args:
            col_cycles: ``[cols, steps]`` per-column group durations.

        Returns:
            ``(finish, cross_idle)``: completion time of every column
            step, and the idle cycles each column spent waiting for B
            sets held back by slower columns.
        """
        cols, steps = col_cycles.shape
        depth = self.config.buffer_depth
        finish = np.zeros((cols, steps), dtype=np.int64)
        cross_idle = np.zeros((cols, steps), dtype=np.int64)
        prev_finish = np.zeros(cols, dtype=np.int64)
        for s in range(steps):
            # B set s is released once every column consumed set s-depth.
            gate = int(finish[:, s - depth].max()) if s >= depth else 0
            start = np.maximum(prev_finish, gate)
            cross_idle[:, s] = start - prev_finish
            prev_finish = start + col_cycles[:, s]
            finish[:, s] = prev_finish
        return finish, cross_idle

    def _column_timeline_batch(
        self, col_cycles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`_column_timeline` over ``[strip, col, step]``.

        The step loop (each step's release gate depends on earlier
        finishes) is the shared
        :meth:`~repro.backends.numpy_backend.NumpyBackend.column_timeline`:
        once over the whole batch, with every strip advancing in lockstep.
        """
        return KERNELS.column_timeline(col_cycles, self.config.buffer_depth)

    def _build_counters(
        self,
        schedule: ScheduleResult,
        col_cycles: np.ndarray,
        exp_stall: np.ndarray,
        cross_idle: np.ndarray,
        finish: np.ndarray,
        makespan: int,
        rows: int,
    ) -> SimCounters:
        """Aggregate lane-cycle and term ledgers for the strip.

        The schedule is per column-step; every one of the column's
        ``rows`` PEs mirrors it (shared term encoders), so its ledgers
        scale by ``rows``.  Lane-cycles conserve exactly:
        ``makespan * rows * cols * lanes``.
        """
        cfg = self.config
        cols, steps = col_cycles.shape
        lanes = cfg.pe.lanes
        ledger = LaneLedger(
            useful=float(schedule.useful.sum()) * rows,
            no_term=float(schedule.no_term.sum()) * rows,
            shift_range=float(schedule.shift_stall.sum()) * rows,
        )
        # Waiting on the shared exponent block (the 2-cycle group floor).
        ledger.exponent = float(exp_stall.sum()) * rows * lanes
        # Cross-column waits on broadcast B sets, plus columns idling
        # while the slowest column drains the strip.
        cross_wait = float(cross_idle.sum())
        drain = float((makespan - finish[:, -1]).sum())
        ledger.inter_pe = (cross_wait + drain) * rows * lanes
        terms = TermLedger(
            processed=float(schedule.terms_processed.sum()) * rows,
            zero_skipped=float(schedule.terms_zero_skipped.sum()) * rows,
            ob_skipped=float(schedule.terms_ob_skipped.sum()) * rows,
        )
        counters = SimCounters(
            cycles=float(makespan),
            groups=float(rows * cols * steps),
            macs=float(rows * cols * steps * lanes),
            lanes=ledger,
            terms=terms,
            exponent_invocations=float(rows * cols * steps),
            accumulator_updates=float(rows * cols * steps),
        )
        return counters

    def _build_counters_batch(
        self,
        schedule: ScheduleResult,
        col_cycles: np.ndarray,
        exp_stall: np.ndarray,
        cross_idle: np.ndarray,
        finish: np.ndarray,
        makespans: np.ndarray,
        rows: int,
    ) -> list[SimCounters]:
        """Batched :meth:`_build_counters`: one ledger set per strip.

        Every sum keeps the strip axis; the per-strip scalar arithmetic
        matches the serial builder operation for operation (int64 sums
        converted to float, then scaled), so the ledgers are
        bit-identical to the reference path.
        """
        cfg = self.config
        strips, cols, steps = col_cycles.shape
        lanes = cfg.pe.lanes
        group_axes = (1, 2, 3)
        useful = schedule.useful.sum(axis=group_axes)
        no_term = schedule.no_term.sum(axis=group_axes)
        shift = schedule.shift_stall.sum(axis=group_axes)
        processed = schedule.terms_processed.sum(axis=group_axes)
        zero_skipped = schedule.terms_zero_skipped.sum(axis=group_axes)
        ob_skipped = schedule.terms_ob_skipped.sum(axis=group_axes)
        exp_stalls = exp_stall.sum(axis=(1, 2))
        cross_waits = cross_idle.sum(axis=(1, 2))
        drains = (makespans[:, None] - finish[:, :, -1]).sum(axis=1)
        counters = []
        for i in range(strips):
            ledger = LaneLedger(
                useful=float(useful[i]) * rows,
                no_term=float(no_term[i]) * rows,
                shift_range=float(shift[i]) * rows,
            )
            # Waiting on the shared exponent block (the 2-cycle group
            # floor).
            ledger.exponent = float(exp_stalls[i]) * rows * lanes
            # Cross-column waits on broadcast B sets, plus columns idling
            # while the slowest column drains the strip.
            ledger.inter_pe = (
                float(cross_waits[i]) + float(drains[i])
            ) * rows * lanes
            terms = TermLedger(
                processed=float(processed[i]) * rows,
                zero_skipped=float(zero_skipped[i]) * rows,
                ob_skipped=float(ob_skipped[i]) * rows,
            )
            counters.append(
                SimCounters(
                    cycles=float(makespans[i]),
                    groups=float(rows * cols * steps),
                    macs=float(rows * cols * steps * lanes),
                    lanes=ledger,
                    terms=terms,
                    exponent_invocations=float(rows * cols * steps),
                    accumulator_updates=float(rows * cols * steps),
                )
            )
        return counters
