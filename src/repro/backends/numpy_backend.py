"""The numpy hot kernels, called through the shared :data:`KERNELS`.

These are the vectorized loop bodies of ``core/schedule.py``,
``core/tile.py`` and ``nn/fpmath.py``.  Keep them boring: any
"optimization" here must re-prove bit-identity against the serial
references those modules retain.  Callers look each method up on
:data:`KERNELS` when they call it, so the benchmark's tracer can wrap
the methods on the class after import.
"""

from __future__ import annotations

import numpy as np

from repro.backends import KernelBackend
from repro.nn.fpmath import _BF16_FRAC, _leading_exponent16, _round_finite


class NumpyBackend(KernelBackend):
    """Vectorized numpy implementation of the three hot kernels."""

    def compact_cycle_loop(
        self,
        k: np.ndarray,
        kept: np.ndarray,
        window: int,
        sentinel: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the compacting schedule cycle loop over a group batch.

        Args:
            k: ``[groups, lanes, terms]`` ascending alignment offsets,
                sentinel-padded, int16 or int64.
            kept: ``[groups, lanes]`` surviving term counts (int64).
            window: the PE shift window.
            sentinel: the "no term" offset value of ``k``'s dtype.

        Returns:
            ``(cycles, useful, shift_stall, no_term)`` int64 arrays --
            ``cycles`` of shape ``[groups]``, the rest
            ``[groups, lanes]`` -- exactly as the reference loop in
            :func:`repro.core.schedule.schedule_from_weights` produces
            for each group.
        """
        groups, lanes, n_terms = k.shape
        last_slot = n_terms - 1
        cycles = np.zeros(groups, dtype=np.int64)
        useful = np.zeros((groups, lanes), dtype=np.int64)
        shift_stall = np.zeros((groups, lanes), dtype=np.int64)
        no_term = np.zeros((groups, lanes), dtype=np.int64)
        k_live = np.ascontiguousarray(k)
        kept_live = kept
        live = np.arange(groups)
        index = np.zeros((groups, lanes), dtype=np.int64)
        cycles_live = np.zeros(groups, dtype=np.int64)
        useful_live = np.zeros((groups, lanes), dtype=np.int64)
        shift_live = np.zeros((groups, lanes), dtype=np.int64)
        no_term_live = np.zeros((groups, lanes), dtype=np.int64)
        # Flat gather base for the current-term lookup (cheaper than
        # take_along_axis in the hot loop); rebuilt after each
        # compaction.
        flat_base = (
            np.arange(groups)[:, None] * lanes + np.arange(lanes)
        ) * n_terms
        k_flat = k_live.reshape(-1)
        while live.size:
            pending = index < kept_live
            alive = pending.any(axis=1)
            n_alive = int(alive.sum())
            if n_alive * 5 < live.size * 3:
                # Enough groups retired (> 40%): write their ledgers
                # home and shrink the working set.  Compacting lazily
                # keeps the per-iteration cost of the scatter/gather
                # well below the ufunc work it saves; retired groups
                # that linger until the next sweep accumulate nothing
                # (every add below is gated).
                done = ~alive
                home = live[done]
                cycles[home] = cycles_live[done]
                useful[home] = useful_live[done]
                shift_stall[home] = shift_live[done]
                no_term[home] = no_term_live[done]
                live = live[alive]
                if not live.size:
                    break
                k_live = np.ascontiguousarray(k_live[alive])
                kept_live = kept_live[alive]
                index = index[alive]
                pending = pending[alive]
                cycles_live = cycles_live[alive]
                useful_live = useful_live[alive]
                shift_live = shift_live[alive]
                no_term_live = no_term_live[alive]
                flat_base = flat_base[: live.size]
                k_flat = k_live.reshape(-1)
                alive = None  # every group in the set is now alive
            current = k_flat[flat_base + np.minimum(index, last_slot)]
            current = np.where(pending, current, sentinel)
            base = current.min(axis=1)
            fire = pending & (current - base[:, None] <= window)
            useful_live += fire
            index += fire
            shift_live += pending & ~fire
            if alive is None:
                no_term_live += ~pending
                cycles_live += 1
            else:
                no_term_live += (~pending) & alive[:, None]
                cycles_live += alive
        return cycles, useful, shift_stall, no_term

    def column_timeline(
        self, col_cycles: np.ndarray, depth: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sequence batched column steps under the B-buffer constraint.

        The step loop is unavoidable (each step's release gate depends
        on earlier finishes) but runs once for the whole batch, with
        every strip advancing in lockstep.

        Args:
            col_cycles: ``[strip, cols, steps]`` per-column group
                durations (int64).
            depth: B-broadcast buffer depth (set ``s`` is released once
                every column consumed set ``s - depth``).

        Returns:
            ``(finish, cross_idle)`` int64 arrays of ``col_cycles``'s
            shape: completion time of every column step, and the idle
            cycles each column spent waiting on held-back B sets.
        """
        strips, cols, steps = col_cycles.shape
        finish = np.zeros((strips, cols, steps), dtype=np.int64)
        cross_idle = np.zeros((strips, cols, steps), dtype=np.int64)
        prev_finish = np.zeros((strips, cols), dtype=np.int64)
        zero_gate = np.zeros((strips, 1), dtype=np.int64)
        for s in range(steps):
            # B set s is released once every column consumed set
            # s-depth.
            if s >= depth:
                gate = finish[:, :, s - depth].max(axis=1, keepdims=True)
            else:
                gate = zero_gate
            start = np.maximum(prev_finish, gate)
            cross_idle[:, :, s] = start - prev_finish
            prev_finish = start + col_cycles[:, :, s]
            finish[:, :, s] = prev_finish
        return finish, cross_idle

    def accumulate_chunks(
        self,
        a_exp: np.ndarray,
        b_exp: np.ndarray,
        a_mag: np.ndarray,
        b_signed: np.ndarray,
        lut: np.ndarray,
        frac: int,
        group: int,
        fpraker: bool,
        man_dtype: type,
    ) -> np.ndarray:
        """Run the group loop of the chunked matmul emulation.

        Args:
            a_exp: ``[M, chunks, span]`` int16 serial-side exponents.
            b_exp: ``[chunks, span, N]`` int16 parallel-side exponents.
            a_mag: serial-side magnitudes ``[M, chunks, span]`` -- the
                flattened signed-partial LUT indices (int16) in
                ``fpraker`` mode, else signed significands in
                ``man_dtype``.
            b_signed: ``[chunks, span, N]`` signed parallel
                significands scaled by ``2^-14``, in ``man_dtype``.
            lut: the flattened signed-partial CSD table
                (:data:`repro.encoding.booth._LUT_PARTIAL_SIGNED16_FLAT`);
                only read in ``fpraker`` mode.
            frac: accumulator fractional bits.
            group: MACs per accumulation round.
            fpraker: drop out-of-bounds CSD terms of the serial side.
            man_dtype: ``np.float32`` or ``np.float64`` -- the
                significand work dtype (exact either way by the caller's
                range guarantee, so both give identical bytes).

        Returns:
            float64 ``[M, chunks, N]`` chunk-final accumulator values.
        """
        m_rows, chunks, span = a_exp.shape
        n_cols = b_exp.shape[2]
        acc = np.zeros((m_rows, chunks, n_cols), dtype=np.float64)
        for lo in range(0, span, group):
            hi = min(lo + group, span)
            # [M, chunks, group, N] product exponents.
            abe = a_exp[:, :, lo:hi, None] + b_exp[None, :, lo:hi, :]
            acc_exp = _leading_exponent16(acc)
            emax = np.maximum(abe.max(axis=2), acc_exp)
            gexp = emax - np.int16(frac)
            if fpraker:
                # pmin = (emax - ABe) - (frac - 7), with the constant
                # folded into the small emax-shaped term.
                pmin = (emax - np.int16(frac - _BF16_FRAC))[
                    :, :, None, :
                ] - abe
                cut = np.clip(pmin, 0, 10)
                manprod = (
                    lut[a_mag[:, :, lo:hi, None] + cut]
                    * b_signed[None, :, lo:hi, :]
                )
            else:
                manprod = (
                    a_mag[:, :, lo:hi, None]
                    * b_signed[None, :, lo:hi, :]
                )
            # Scale the significand product straight onto the snapping
            # grid: value = manprod * 2^(ABe + frac - emax).
            snapped = np.rint(
                np.ldexp(manprod, abe - gexp[:, :, None, :])
            )
            total = snapped.sum(axis=2, dtype=man_dtype).astype(
                np.float64
            ) + np.rint(np.ldexp(acc, -gexp.astype(np.int64)))
            acc = _round_finite(
                np.ldexp(total, gexp.astype(np.int64)), frac
            )
        return acc


#: The one instance every call site uses.
KERNELS = NumpyBackend()
