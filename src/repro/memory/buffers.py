"""On-chip buffer model: the banked global buffer.

An activity-counting model: it answers "how many accesses of what
width happened" (feeding the energy model) and "how many bank conflicts
did a stride pattern cause" (the reason the paper gives the global
buffer an odd bank count).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GlobalBuffer:
    """Multi-banked on-chip SRAM global buffer (paper: 4 MB x 9 banks).

    Attributes:
        banks: number of banks; odd (9) so power-of-two strides spread.
        bank_bytes: capacity per bank.
        access_bytes: width of one access (8 bfloat16 values = 16 B).
    """

    banks: int = 9
    bank_bytes: int = 4 * 1024 * 1024
    access_bytes: int = 16
    reads: int = 0
    writes: int = 0
    conflicts: int = 0

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.banks}")
        if self.access_bytes < 1:
            raise ValueError(
                f"access_bytes must be >= 1, got {self.access_bytes}"
            )

    @property
    def capacity_bytes(self) -> int:
        """Total capacity."""
        return self.banks * self.bank_bytes

    def bank_of(self, address: int) -> int:
        """Bank an address maps to (line-interleaved)."""
        return (address // self.access_bytes) % self.banks

    def read(self, address: int) -> None:
        """Record one read access."""
        self.reads += 1

    def write(self, address: int) -> None:
        """Record one write access."""
        self.writes += 1

    def read_burst(self, addresses: list[int]) -> int:
        """Issue a set of parallel reads, counting bank conflicts.

        Accesses that map to the same bank serialize; the return value is
        the number of cycles the burst needs.

        Args:
            addresses: byte addresses issued in the same cycle.

        Returns:
            Cycles to satisfy the burst (max accesses per bank); an
            empty burst costs 0 cycles and records no accesses.
        """
        per_bank: dict[int, int] = {}
        for address in addresses:
            bank = self.bank_of(address)
            per_bank[bank] = per_bank.get(bank, 0) + 1
            self.reads += 1
        cycles = max(per_bank.values(), default=0)
        self.conflicts += max(0, sum(per_bank.values()) - len(per_bank))
        return cycles

    def conflict_cycles(self, stride_values: int, accesses: int) -> int:
        """Cycles for ``accesses`` strided reads (stride in values).

        Models the paper's observation that an odd bank count reduces
        conflicts for convolution strides greater than one.

        Args:
            stride_values: stride between consecutive reads, in bfloat16
                values.
            accesses: number of reads (non-positive counts cost 0).

        Returns:
            Total cycles (``ceil(accesses / banks)`` when conflict-free;
            a single access always costs exactly 1 cycle).
        """
        if accesses <= 0:
            return 0
        stride_bytes = stride_values * 2
        addresses = [i * stride_bytes for i in range(accesses)]
        total = 0
        for start in range(0, accesses, self.banks):
            total += self.read_burst(addresses[start : start + self.banks])
        return total
