"""Configuration objects for the PE, tile, and accelerator (paper Table II).

The paper's evaluated configurations:

=====================  ===========  =========
parameter              FPRaker      Baseline
=====================  ===========  =========
tile geometry          8 x 8 PEs    8 x 8 PEs
tiles                  36           8
total PEs              2304         512
MAC lanes per PE       8            8 (bit-parallel bfloat16)
peak MACs/cycle        --           4096
scratchpads            2 KB each    2 KB each
global buffer          4 MB x 9 banks
off-chip DRAM          16 GB 4-channel LPDDR4-3200
clock                  600 MHz      600 MHz
=====================  ===========  =========

The 36-vs-8 tile counts implement the iso-compute-area comparison: one
FPRaker tile occupies 22 % of the baseline tile's post-layout compute
area, so 36 FPRaker tiles fit in the area of 8 baseline tiles
(36 x 0.22 ~= 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import codec
from repro.fp.accumulator import AccumulatorSpec

# Upper bounds of the size fields, so that one simulation fits one
# worker's memory; docs/SERVICE.md lists the peak RSS measured at each.
# MAC lanes one tile may have (rows x cols x lanes): 64x the paper's
# 8 x 8 x 8 tile, and 32x Fig 19's largest (16 x 8 x 8).  A strip
# simulation's memory grows with this product.
MAX_TILE_MAC_LANES = 32_768
# PE columns per tile.  Columns cost a strip simulation far more memory
# than rows or lanes at one product (NCF's AxW phase: 697 MB at
# 8 x 512 x 8, 264 MB at 512 x 8 x 8, 87 MB at 8 x 8 x 512).
MAX_COLS = 64
# Tiles, per-PE run-ahead buffers and the shift window: 36, 2 and 3 in
# the paper, at most 144, 8 and 12 in Fig 19 and the examples.
MAX_TILES = 4096
MAX_BUFFER_DEPTH = 64
MAX_SHIFT_WINDOW = 64
# Clock frequency: far above the paper's 600 MHz, and low enough that
# ``clock_mhz * 1e6`` stays finite.  Past it (an infinite clock, or
# 1e303 MHz) the DRAM model's bytes per cycle read 0 and every
# simulation raised ZeroDivisionError.
MAX_CLOCK_MHZ = 100_000.0


@dataclass(frozen=True)
class PEConfig:
    """FPRaker processing-element parameters.

    Attributes:
        lanes: concurrent MAC lanes per PE (paper: 8).
        shift_window: maximum difference among per-lane alignment offsets
            handled in one cycle (paper: 3); lanes farther than this from
            the round's base stall.
        ob_skip: skip out-of-bounds terms (and everything after them in
            the same value) -- the "OBS" mechanism of Fig 16.
        accumulator: extended accumulator geometry; its ``frac_bits`` is
            the OB threshold.
        exponent_sharing: PEs sharing one exponent block (paper: 2),
            which makes 2 cycles the minimum cost of a group.
        saturate_shifts: when OB skipping is off, terms beyond the
            accumulator's reach shed all their bits into the sticky
            position and stop serializing the base walk (FPRaker's
            narrow datapath).  Bit-Pragmatic-FP sets this False: its
            full-width shifters and wide accumulator force it to walk
            the whole alignment range -- which is also what makes its
            PE 2.5x the size.
    """

    lanes: int = field(default=8, metadata={"minimum": 1})
    shift_window: int = field(
        default=3, metadata={"minimum": 0, "maximum": MAX_SHIFT_WINDOW}
    )
    ob_skip: bool = True
    accumulator: AccumulatorSpec = field(default_factory=AccumulatorSpec)
    exponent_sharing: int = field(default=2, metadata={"minimum": 1})
    saturate_shifts: bool = True

    def __post_init__(self) -> None:
        """Reject a field of the wrong type or out of its bounds."""
        codec.check(self)

    @property
    def min_group_cycles(self) -> int:
        """Minimum cycles per group of 8 A values (exponent-block bound)."""
        return self.exponent_sharing


@dataclass(frozen=True)
class TileConfig:
    """FPRaker tile geometry.

    Attributes:
        rows: PE rows; each row receives a distinct B (parallel-side)
            vector, e.g. one filter (paper: 8; Fig 19 sweeps 2..16).
        cols: PE columns; each column receives a distinct A (serial-side)
            vector, e.g. one window, with its term encoders shared down
            the column (paper: 8).
        buffer_depth: per-PE B-side buffers beyond the working set,
            letting a column run ahead of the slowest column by at most
            this many groups (the paper adds such buffers and reports
            one set of run-ahead suffices; with the working register
            that bounds the skew at two sets).
        pe: per-PE parameters.
    """

    rows: int = field(default=8, metadata={"minimum": 1})
    cols: int = field(default=8, metadata={"minimum": 1, "maximum": MAX_COLS})
    buffer_depth: int = field(
        default=2, metadata={"minimum": 0, "maximum": MAX_BUFFER_DEPTH}
    )
    pe: PEConfig = field(default_factory=PEConfig)

    def __post_init__(self) -> None:
        """Reject a field of the wrong type or out of its bounds, or
        more than :data:`MAX_TILE_MAC_LANES` MAC lanes."""
        codec.check(self)
        if self.macs_per_group_step > MAX_TILE_MAC_LANES:
            raise ValueError(
                f"rows x cols x pe.lanes must be <= {MAX_TILE_MAC_LANES}, "
                f"got {self.rows} x {self.cols} x {self.pe.lanes} = "
                f"{self.macs_per_group_step}"
            )

    @property
    def pes(self) -> int:
        """PEs per tile."""
        return self.rows * self.cols

    @property
    def macs_per_group_step(self) -> int:
        """MACs retired by the tile per group step (all PEs, all lanes)."""
        return self.pes * self.pe.lanes


@dataclass(frozen=True)
class AcceleratorConfig:
    """Whole-accelerator configuration (paper Table II).

    Attributes:
        name: label used in reports.
        tiles: tile count (36 FPRaker / 8 baseline at iso compute area).
        tile: tile geometry.
        clock_mhz: clock frequency (both designs: 600 MHz).
        serial_side_selection: ``"auto"`` picks the tensor with fewer
            average terms per layer and phase as the serial side (the
            paper's per-layer choice); ``"a"``/``"b"`` force a side.
        base_delta_compression: compress exponents off-chip (Fig 10/11).
    """

    name: str = "fpraker"
    tiles: int = field(
        default=36, metadata={"minimum": 1, "maximum": MAX_TILES}
    )
    tile: TileConfig = field(default_factory=TileConfig)
    clock_mhz: float = field(
        default=600.0,
        metadata={"exclusive_minimum": 0, "maximum": MAX_CLOCK_MHZ},
    )
    serial_side_selection: str = field(
        default="auto", metadata={"choices": ("auto", "a", "b")}
    )
    base_delta_compression: bool = True

    def __post_init__(self) -> None:
        """Reject a configuration no simulator can run."""
        codec.check(self)

    @property
    def total_pes(self) -> int:
        """PEs across all tiles."""
        return self.tiles * self.tile.pes

    @property
    def peak_macs_per_cycle(self) -> int:
        """MAC issue slots per cycle across the accelerator."""
        return self.total_pes * self.tile.pe.lanes


def fpraker_paper_config(**overrides) -> AcceleratorConfig:
    """The paper's FPRaker configuration (Table II): 36 tiles of 8x8 PEs.

    Args:
        **overrides: replacements applied to the top-level config (e.g.
            ``tiles=...``) after construction.

    Returns:
        The configured :class:`AcceleratorConfig`.
    """
    config = AcceleratorConfig(
        name="fpraker",
        tiles=36,
        tile=TileConfig(rows=8, cols=8, buffer_depth=2, pe=PEConfig()),
    )
    return replace(config, **overrides) if overrides else config


def baseline_paper_config(**overrides) -> AcceleratorConfig:
    """The paper's bit-parallel baseline (Table II): 8 tiles, 4096 MACs/cycle.

    Args:
        **overrides: replacements applied after construction.

    Returns:
        The configured :class:`AcceleratorConfig`.
    """
    config = AcceleratorConfig(
        name="baseline",
        tiles=8,
        tile=TileConfig(rows=8, cols=8, buffer_depth=2, pe=PEConfig()),
        base_delta_compression=False,
    )
    return replace(config, **overrides) if overrides else config


def pragmatic_paper_config(**overrides) -> AcceleratorConfig:
    """Bit-Pragmatic converted to bfloat16 under iso compute area.

    The paper reports the bfloat16 Bit-Pragmatic PE is 2.5x smaller than
    the bit-parallel PE, so 20 tiles fit in the baseline's 8-tile compute
    area.  Pragmatic has no shift-window limit (full-width shifters, which
    is what makes it big) and no out-of-bounds skipping.

    Args:
        **overrides: replacements applied after construction.

    Returns:
        The configured :class:`AcceleratorConfig`.
    """
    # Bit-Pragmatic introduced the 2-stage shifting FPRaker adapts, so
    # it keeps the same per-cycle window; but it has no out-of-bounds
    # skipping and accumulates into a wide (fp32-like) register, so its
    # term walk only saturates at 24 fractional bits -- the wide
    # datapath that makes its PE 2.5x FPRaker's area.
    pe = PEConfig(
        shift_window=3,
        ob_skip=False,
        exponent_sharing=1,
        saturate_shifts=True,
        accumulator=AccumulatorSpec(frac_bits=23, int_bits=9),
    )
    config = AcceleratorConfig(
        name="pragmatic-fp",
        tiles=20,
        tile=TileConfig(rows=8, cols=8, buffer_depth=2, pe=pe),
        base_delta_compression=False,
    )
    return replace(config, **overrides) if overrides else config
