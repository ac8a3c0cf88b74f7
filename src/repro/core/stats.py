"""Statistic ledgers shared by all simulator levels.

The units:

* **lane-cycles** -- one lane of one PE for one cycle.  A fully busy
  8-lane PE burns 8 lane-cycles per cycle.  Fig 15/16/20 of the paper are
  breakdowns of lane-cycles into the categories of :class:`LaneLedger`.
* **terms** -- one signed power of two of a serial-side operand.
  Fig 13 is the breakdown of *skipped* terms into zero terms (never
  encoded) and out-of-bounds terms (encoded position falls below the
  accumulator's reach).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.traffic import MemoryTrafficResult


@dataclass
class LaneLedger:
    """Lane-cycle breakdown (the categories of paper Fig 15).

    Attributes:
        useful: lane fired a term (or, for the bit-parallel baseline,
            retired a MAC).
        no_term: lane idle because it exhausted its terms while siblings
            in the same PE kept working.
        shift_range: lane had a term but its offset was farther than the
            shift window from the round's base.
        inter_pe: lane idle due to synchronization with other PEs (shared
            A terms down a column, shared B across columns / buffer
            limits).
        exponent: lane idle waiting for the shared exponent block.
    """

    useful: float = 0.0
    no_term: float = 0.0
    shift_range: float = 0.0
    inter_pe: float = 0.0
    exponent: float = 0.0

    CATEGORIES = ("useful", "no_term", "shift_range", "inter_pe", "exponent")

    def total(self) -> float:
        """Total lane-cycles recorded."""
        return (
            self.useful
            + self.no_term
            + self.shift_range
            + self.inter_pe
            + self.exponent
        )

    def add(self, other: "LaneLedger", weight: float = 1.0) -> None:
        """Accumulate another ledger, optionally scaled.

        Args:
            other: ledger to merge in.
            weight: scale factor (used when extrapolating samples).
        """
        self.useful += other.useful * weight
        self.no_term += other.no_term * weight
        self.shift_range += other.shift_range * weight
        self.inter_pe += other.inter_pe * weight
        self.exponent += other.exponent * weight

    def fractions(self) -> dict[str, float]:
        """Category fractions (sum to 1.0 when any cycles are recorded)."""
        total = self.total()
        if total == 0:
            return {name: 0.0 for name in self.CATEGORIES}
        return {name: getattr(self, name) / total for name in self.CATEGORIES}


@dataclass
class TermLedger:
    """Term-level work accounting (paper Figs 2 and 13).

    Attributes:
        processed: terms actually fired through the shift-and-add lanes.
        zero_skipped: bit positions that never became terms (zero bits of
            the significand, or whole zero values) relative to the 8
            positions a bit-parallel unit processes.
        ob_skipped: encoded terms discarded because they fell out of the
            accumulator's bounds (and trailing terms skipped with them).
    """

    processed: float = 0.0
    zero_skipped: float = 0.0
    ob_skipped: float = 0.0

    def total_slots(self) -> float:
        """Bit-parallel-equivalent slots covered by this ledger."""
        return self.processed + self.zero_skipped + self.ob_skipped

    def add(self, other: "TermLedger", weight: float = 1.0) -> None:
        """Accumulate another ledger, optionally scaled."""
        self.processed += other.processed * weight
        self.zero_skipped += other.zero_skipped * weight
        self.ob_skipped += other.ob_skipped * weight

    def skipped_fraction(self) -> float:
        """Fraction of slots skipped (zero + out-of-bounds)."""
        total = self.total_slots()
        if total == 0:
            return 0.0
        return (self.zero_skipped + self.ob_skipped) / total

    def ob_share_of_skipped(self) -> float:
        """Out-of-bounds share among skipped terms (Fig 13's split)."""
        skipped = self.zero_skipped + self.ob_skipped
        return self.ob_skipped / skipped if skipped else 0.0


@dataclass
class SimCounters:
    """Aggregate counters produced by a simulation run.

    Attributes:
        cycles: simulated (or extrapolated) clock cycles.
        groups: reduction groups (sets of 8 MACs per PE) retired.
        macs: MAC operations retired.
        lanes: lane-cycle breakdown.
        terms: term-level breakdown.
        exponent_invocations: exponent-block activations (one per group).
        accumulator_updates: accumulator register writes.
        memory: event-level memory-hierarchy activity; None when the
            simulation ran under the roofline memory engine, and then
            left out of the serialized form, so roofline results read
            as they did before the memory counters existed.
    """

    cycles: float = 0.0
    groups: float = 0.0
    macs: float = 0.0
    lanes: LaneLedger = field(default_factory=LaneLedger)
    terms: TermLedger = field(default_factory=TermLedger)
    exponent_invocations: float = 0.0
    accumulator_updates: float = 0.0
    memory: MemoryTrafficResult | None = None

    def add(self, other: "SimCounters", weight: float = 1.0) -> None:
        """Accumulate another counter set, optionally scaled."""
        self.cycles += other.cycles * weight
        self.groups += other.groups * weight
        self.macs += other.macs * weight
        self.lanes.add(other.lanes, weight)
        self.terms.add(other.terms, weight)
        self.exponent_invocations += other.exponent_invocations * weight
        self.accumulator_updates += other.accumulator_updates * weight
        if other.memory is not None:
            if self.memory is None:
                self.memory = MemoryTrafficResult()
            self.memory.add(other.memory, weight)
