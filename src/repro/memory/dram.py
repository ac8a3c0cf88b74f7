"""Off-chip DRAM model: 16 GB, 4-channel LPDDR4-3200 (paper Table II).

Bandwidth follows the vendor-model style the paper uses (Micron's DDR4
power calculator): a peak streaming bandwidth derated by an efficiency
factor.  The container
layout (32x32 squares matching DRAM row sizes) is what justifies the
high streaming efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DRAMModel:
    """LPDDR4-3200 x 4 channels.

    Attributes:
        channels: independent channels.
        transfer_rate_mts: mega-transfers per second per pin set.
        channel_bytes: bytes per transfer per channel (x32 = 4 B).
        efficiency: achieved fraction of peak (row hits dominate thanks
            to the container layout).
    """

    channels: int = 4
    transfer_rate_mts: float = 3200.0
    channel_bytes: int = 4
    efficiency: float = 0.85

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Peak bandwidth in GB/s across all channels."""
        return self.channels * self.transfer_rate_mts * 1e6 * self.channel_bytes / 1e9

    @property
    def effective_bandwidth_gbs(self) -> float:
        """Derated streaming bandwidth in GB/s."""
        return self.peak_bandwidth_gbs * self.efficiency

    def bytes_per_cycle(self, clock_mhz: float) -> float:
        """Deliverable bytes per accelerator clock cycle.

        Args:
            clock_mhz: accelerator clock (paper: 600 MHz).

        Returns:
            Bytes per cycle at the effective bandwidth.
        """
        return self.effective_bandwidth_gbs * 1e9 / (clock_mhz * 1e6)

    def transfer_cycles(self, nbytes: float, clock_mhz: float) -> float:
        """Cycles to move ``nbytes`` at streaming bandwidth.

        Args:
            nbytes: bytes transferred.
            clock_mhz: accelerator clock.

        Returns:
            Transfer time in accelerator cycles.  Zero-byte (or
            negative, or NaN) transfers cost 0 cycles rather than
            propagating NaN into the stall accounting.
        """
        if not nbytes > 0:  # also catches NaN, which fails every compare
            return 0.0
        return nbytes / self.bytes_per_cycle(clock_mhz)
