"""Regeneration of every table and figure of the paper's evaluation.

Conventions: functions return a :class:`repro.harness.report.Table`
(sometimes with extra structured data); ``models`` defaults to the
paper's nine studied models but can be narrowed for quick runs; all
randomness is seeded, so results are reproducible.

Every simulation-driven experiment takes an optional
:class:`repro.harness.runner.SimulationSession` and routes all
simulator work through it: figures sharing baselines (most of them)
then reuse each other's results instead of re-simulating, and a
session constructed with ``jobs > 1`` fans each figure's request list
out over worker processes.  Passing no session gives each call a
private one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.exponents import exponent_range_covered
from repro.analysis.potential import model_potential_speedups
from repro.analysis.sparsity import model_sparsity_report
from repro.compression.base_delta import (
    compression_summary,
    mean_compression_ratio,
)
from repro.core.config import (
    AcceleratorConfig,
    baseline_paper_config,
    fpraker_paper_config,
    pragmatic_paper_config,
)
from repro.energy.model import AreaModel, EnergyModel, TABLE3
from repro.memory.dram import DRAMModel
from repro.memory.traffic import TRANSPOSERS_PER_TILE, workload_traffic
from repro.models.zoo import STUDIED_MODELS, get_model
from repro.nn.data import synthetic_images
from repro.nn.fpmath import EngineConfig, MatmulEngine
from repro.nn.optim import SGD
from repro.nn.sakr import sakr_accumulator_profile
from repro.nn.training import Trainer
from repro.harness.report import Table, geomean
from repro.harness.runner import SimRequest, SimulationSession
from repro.traces.calibration import get_calibration
from repro.traces.capture import capture_training_traces
from repro.traces.synthetic import generate_tensor
from repro.traces.workloads import build_workloads

PHASES = ("AxW", "GxW", "AxG")


def _variant_config(variant: str) -> AcceleratorConfig:
    """FPRaker config for one of Fig 11's decomposition variants."""
    config = fpraker_paper_config()
    if variant == "full":
        return config
    pe_no_ob = replace(config.tile.pe, ob_skip=False)
    tile = replace(config.tile, pe=pe_no_ob)
    if variant == "zero":
        return replace(config, tile=tile, base_delta_compression=False)
    if variant == "zero+bdc":
        return replace(config, tile=tile, base_delta_compression=True)
    raise ValueError(f"unknown variant {variant!r}")


def _session_for(
    session: SimulationSession | None,
    models: tuple[str, ...],
    configs: tuple[AcceleratorConfig | None, ...],
    progress: float | tuple[float, ...] = 0.5,
    seed: int = 0,
    with_baseline: bool = True,
) -> SimulationSession:
    """Resolve the session and prefetch a models x configs sweep.

    Args:
        session: caller-provided session, or None for a private one.
        models: models the experiment iterates over.
        configs: FPRaker-side configurations it needs per model.
        progress: one or several training-progress points.
        seed: workload RNG seed.
        with_baseline: also request the bit-parallel baseline.

    Returns:
        The session, with every request already simulated (in parallel
        when the session runs multiple jobs).
    """
    if session is None:
        session = SimulationSession()
    points = progress if isinstance(progress, tuple) else (progress,)
    sweep = list(configs) + ([baseline_paper_config()] if with_baseline else [])
    session.prefetch(
        [
            SimRequest.make(model, config, point, seed)
            for model in models
            for point in points
            for config in sweep
        ]
    )
    return session


def run_table1() -> Table:
    """Table I: the studied models."""
    table = Table(
        "Table I: Models Studied",
        ["Model", "Application", "Dataset", "Layers", "MACs/step"],
    )
    for name in STUDIED_MODELS:
        spec = get_model(name)
        table.add_row(
            spec.name,
            spec.application,
            spec.dataset,
            sum(layer.count for layer in spec.layers),
            float(spec.total_macs_per_step),
        )
    return table


def run_table2() -> Table:
    """Table II: evaluated configurations."""
    fpr = fpraker_paper_config()
    base = baseline_paper_config()
    table = Table(
        "Table II: Baseline and FPRaker configurations",
        ["Parameter", "FPRaker", "Baseline"],
    )
    table.add_row(
        "Tile configuration",
        f"{fpr.tile.rows}x{fpr.tile.cols}",
        f"{base.tile.rows}x{base.tile.cols}",
    )
    table.add_row("Tiles", fpr.tiles, base.tiles)
    table.add_row("Total PEs", fpr.total_pes, base.total_pes)
    table.add_row("Lanes/PE", fpr.tile.pe.lanes, base.tile.pe.lanes)
    table.add_row("Peak MACs/cycle", "-", base.peak_macs_per_cycle)
    table.add_row("Clock (MHz)", fpr.clock_mhz, base.clock_mhz)
    return table


def run_table3() -> Table:
    """Table III: per-tile area and power, plus iso-area tile counts."""
    area = AreaModel()
    table = Table(
        "Table III: Area and power per tile",
        ["Design", "PE array [um^2]", "Encoders [um^2]", "Total [um^2]",
         "Normalized", "Power [mW]"],
    )
    table.add_row(
        "FPRaker",
        TABLE3.fpraker_pe_array_area,
        TABLE3.fpraker_encoder_area,
        TABLE3.fpraker_tile_area,
        round(TABLE3.area_ratio, 3),
        TABLE3.fpraker_tile_power,
    )
    table.add_row(
        "Baseline",
        TABLE3.baseline_tile_area,
        0.0,
        TABLE3.baseline_tile_area,
        1.0,
        TABLE3.baseline_tile_power,
    )
    table.add_row(
        "iso-area FPRaker tiles", "-", "-", "-", area.iso_area_tiles(8), "-"
    )
    table.add_row(
        "iso-area Pragmatic tiles", "-", "-", "-",
        area.iso_area_pragmatic_tiles(8), "-",
    )
    return table


def run_fig1_sparsity(
    models: tuple[str, ...] = STUDIED_MODELS,
    sample_size: int = 65536,
    seed: int = 0,
) -> Table:
    """Figs 1a/1b: value and term sparsity per tensor per model."""
    table = Table(
        "Fig 1: Value and term sparsity during training",
        ["Model", "value A", "value W", "value G",
         "term A", "term W", "term G"],
    )
    for model in models:
        report = model_sparsity_report(model, sample_size=sample_size, seed=seed)
        table.add_row(
            model,
            report.value["A"], report.value["W"], report.value["G"],
            report.term["A"], report.term["W"], report.term["G"],
        )
    return table


def run_fig2_potential(
    models: tuple[str, ...] = STUDIED_MODELS,
    sample_size: int = 65536,
    seed: int = 0,
) -> Table:
    """Fig 2: ideal per-phase speedup from term skipping (eq. 4)."""
    table = Table(
        "Fig 2: Potential speedup of exploiting term sparsity",
        ["Model", "AxG", "GxW", "AxW"],
    )
    for model in models:
        potential = model_potential_speedups(
            model, sample_size=sample_size, seed=seed
        )
        table.add_row(model, potential["AxG"], potential["GxW"], potential["AxW"])
    return table


def run_fig6_exponents(epochs: int = 6, seed: int = 0) -> Table:
    """Fig 6: exponent ranges at the start and end of real training.

    Trains the capture model end to end and reports the exponent band
    holding 99 % of each tensor at the first and last epoch -- the
    narrow-range observation behind the shift-window and BDC designs.
    """
    captured = capture_training_traces(
        epochs=epochs, capture_epochs=(0, epochs - 1), seed=seed
    )
    table = Table(
        "Fig 6: Exponent range (99% mass) at start vs end of training",
        ["Tensor", f"epoch 0", f"epoch {epochs - 1}", "full bf16 range"],
    )
    for tensor in ("I", "W", "G"):
        first = exponent_range_covered(captured.tensor(0, tensor))
        last = exponent_range_covered(captured.tensor(epochs - 1, tensor))
        table.add_row(tensor, first, last, 256)
    return table


def run_fig10_compression(
    models: tuple[str, ...] = STUDIED_MODELS,
    sample_size: int = 65536,
    seed: int = 0,
) -> Table:
    """Fig 10: normalized exponent footprint after base-delta compression."""
    table = Table(
        "Fig 10: Exponent footprint after base-delta compression",
        ["Model", "A (channel)", "W (channel)", "G (channel)", "A (spatial)"],
    )
    for model in models:
        calibration = get_calibration(model)
        rng = np.random.default_rng(seed)
        ratios = {}
        for tensor in ("A", "W", "G"):
            values = generate_tensor(
                calibration.for_tensor(tensor), sample_size, rng
            )
            ratios[tensor] = compression_summary(values).exponent_ratio
        # Spatial grouping: a coarser shuffle of the stream (half-group
        # offset) stands in for walking the H dimension instead.
        values = generate_tensor(calibration.activations, sample_size, rng)
        spatial = values.reshape(-1, 16)[::2].ravel()
        spatial_ratio = compression_summary(spatial).exponent_ratio
        table.add_row(model, ratios["A"], ratios["W"], ratios["G"], spatial_ratio)
    return table


def run_fig11_speedup(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 11: iso-area speedup decomposition and core energy efficiency."""
    session = _session_for(
        session,
        models,
        (_variant_config("zero"), _variant_config("zero+bdc"), None),
        progress,
        seed,
    )
    table = Table(
        "Fig 11: FPRaker vs baseline (iso compute area)",
        ["Model", "Perf (Zero Terms)", "Perf (BDC + Zero Terms)",
         "Total Perf (BDC + Zero/OB)", "Core Energy Efficiency"],
    )
    speedups, zero_only, zero_bdc, core_eff = [], [], [], []
    for model in models:
        base = session.baseline(model, progress, seed)
        zero = session.simulate(model, _variant_config("zero"), progress, seed)
        bdc = session.simulate(model, _variant_config("zero+bdc"), progress, seed)
        full = session.simulate(model, None, progress, seed)
        eff = (
            base.energy_total().core.total / full.energy_total().core.total
        )
        table.add_row(
            model,
            zero.speedup_vs(base),
            bdc.speedup_vs(base),
            full.speedup_vs(base),
            eff,
        )
        zero_only.append(zero.speedup_vs(base))
        zero_bdc.append(bdc.speedup_vs(base))
        speedups.append(full.speedup_vs(base))
        core_eff.append(eff)
    table.add_row(
        "Geomean",
        geomean(zero_only),
        geomean(zero_bdc),
        geomean(speedups),
        geomean(core_eff),
    )
    return table


def run_fig12_energy(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 12: energy breakdown (core compute/control/accum, on/off-chip).

    Under a session whose ``config.memory_engine`` is ``"hierarchy"``
    the table gains a "Scratchpad" column: the share of total energy
    spent staging operands through the per-tile scratchpads, which only
    the event-level traffic engine tracks.  The scratchpad share is carved
    *out of* the on-chip share (the simulator folds it into
    ``on_chip``), so the fraction columns still partition the total.
    """
    session = _session_for(session, models, (None,), progress, seed)
    hierarchy = session.config.memory_engine == "hierarchy"
    headers = ["Model", "Compute", "Control", "Accumulation", "On-chip",
               "Off-chip", "Total vs baseline"]
    if hierarchy:
        headers.insert(6, "Scratchpad")
    table = Table(
        "Fig 12: Energy breakdown, FPRaker normalized to baseline", headers
    )
    # Sessions always build simulators with the default per-event
    # energies (execute_request passes no EnergyModel), so re-pricing
    # the scratchpad bytes here matches what _phase_energy folded into
    # the on-chip total.
    energy_model = EnergyModel()
    totals = []
    for model in models:
        base = session.baseline(model, progress, seed)
        full = session.simulate(model, None, progress, seed)
        fe = full.energy_total()
        be = base.energy_total()
        ratio = be.total / fe.total
        on_chip = fe.on_chip
        row = [
            model,
            fe.core.compute / fe.total,
            fe.core.control / fe.total,
            fe.core.accumulation / fe.total,
            on_chip / fe.total,
            fe.off_chip / fe.total,
            ratio,
        ]
        if hierarchy:
            mem = full.counters_total().memory
            scratch = energy_model.scratchpad_energy(
                mem.scratchpad_bytes if mem is not None else 0.0
            )
            # Scratchpad is a slice of the on-chip energy: split it out
            # so the fraction columns keep summing to 1.
            row[4] = (on_chip - scratch) / fe.total
            row.insert(6, scratch / fe.total)
        table.add_row(*row)
        totals.append(ratio)
    filler = ["-"] * (len(headers) - 2)
    table.add_row("Geomean", *filler, geomean(totals))
    return table


def run_fig13_skipped(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 13: breakdown of skipped terms (zero vs out-of-bounds)."""
    session = _session_for(
        session, models, (None,), progress, seed, with_baseline=False
    )
    table = Table(
        "Fig 13: Breakdown of skipped terms",
        ["Model", "skipped fraction", "zero share", "out-of-bounds share"],
    )
    for model in models:
        full = session.simulate(model, None, progress, seed)
        terms = full.counters_total().terms
        ob_share = terms.ob_share_of_skipped()
        table.add_row(
            model, terms.skipped_fraction(), 1.0 - ob_share, ob_share
        )
    return table


def run_fig14_phases(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 14: speedup per training phase (AxG, GxW, AxW)."""
    session = _session_for(session, models, (None,), progress, seed)
    table = Table(
        "Fig 14: Speedup breakdown per training phase",
        ["Model", "AxG", "GxW", "AxW"],
    )
    rows = {phase: [] for phase in PHASES}
    for model in models:
        base = session.baseline(model, progress, seed)
        full = session.simulate(model, None, progress, seed)
        speeds = {
            phase: full.phase_speedup_vs(base, phase) for phase in PHASES
        }
        table.add_row(model, speeds["AxG"], speeds["GxW"], speeds["AxW"])
        for phase in PHASES:
            rows[phase].append(speeds[phase])
    table.add_row(
        "Geomean",
        geomean(rows["AxG"]),
        geomean(rows["GxW"]),
        geomean(rows["AxW"]),
    )
    return table


def run_fig15_stalls(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 15: lane-cycle breakdown (useful and the four stall kinds).

    Under a session whose ``config.memory_engine`` is ``"hierarchy"``
    two memory-side stall columns are appended: "bank stall"
    (global-buffer bank-conflict cycles) and "transposer" (8x8
    transposer occupancy), both as fractions of the model's total
    cycles.  The default roofline table is byte-identical to the seed
    behavior (pinned by the golden-fixture regression test).
    """
    session = _session_for(
        session, models, (None,), progress, seed, with_baseline=False
    )
    hierarchy = session.config.memory_engine == "hierarchy"
    headers = ["Model", "useful", "no term", "shift range", "inter-PE",
               "exponent"]
    if hierarchy:
        headers += ["bank stall", "transposer"]
    table = Table("Fig 15: Lane efficiency breakdown", headers)
    for model in models:
        full = session.simulate(model, None, progress, seed)
        fractions = full.counters_total().lanes.fractions()
        row = [
            model,
            fractions["useful"],
            fractions["no_term"],
            fractions["shift_range"],
            fractions["inter_pe"],
            fractions["exponent"],
        ]
        if hierarchy:
            mem = full.counters_total().memory
            cycles = full.cycles
            if mem is None or not cycles:
                row += [0.0, 0.0]
            else:
                row += [
                    mem.bank_conflict_cycles / cycles,
                    mem.transposer_cycles / cycles,
                ]
        table.add_row(*row)
    return table


def _bdc_ratio(workload) -> float:
    """Base-delta effective/raw byte ratio of one layer-phase.

    Shares :func:`mean_compression_ratio` with the simulator's
    off-chip pricing so the roofline comparison cannot drift from what
    hierarchy simulations actually charge.
    """
    if workload.total_bytes == 0:
        return 1.0
    return mean_compression_ratio(workload.values_a, workload.values_b)


def run_memory_profile(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
) -> Table:
    """Memory-hierarchy traffic profile of each model's training step.

    Prices every layer-phase with the event-level traffic engine
    (:mod:`repro.memory.traffic`) alone -- no strip simulation -- and
    reports the per-model schedule: container bursts, DRAM cycles,
    global-buffer bank cycles (and the conflict share), transposer
    occupancy, scratchpad staging, and how far the event-level memory
    cycles sit above the flat roofline.
    """
    config = fpraker_paper_config()
    dram = DRAMModel()
    table = Table(
        "Memory-hierarchy traffic profile (event-level engine)",
        ["Model", "Containers", "DRAM MB", "DRAM cycles", "Bank cycles",
         "Conflict cycles", "Transposer cycles", "Scratchpad MB",
         "Roofline cycles", "Hierarchy / roofline"],
    )
    for model in models:
        workloads = build_workloads(model, progress=progress, seed=seed)
        ratio_of = _bdc_ratio if config.base_delta_compression else None
        traffic = workload_traffic(
            workloads,
            dram=dram,
            clock_mhz=config.clock_mhz,
            transposer_units=config.tiles * TRANSPOSERS_PER_TILE,
            ratio_of=ratio_of,
        )
        roofline = sum(
            dram.transfer_cycles(
                w.total_bytes * (ratio_of(w) if ratio_of else 1.0),
                config.clock_mhz,
            )
            for w in workloads
        )
        table.add_row(
            model,
            traffic.containers,
            traffic.dram_bytes / 1e6,
            traffic.dram_cycles,
            traffic.bank_cycles,
            traffic.bank_conflict_cycles,
            traffic.transposer_cycles,
            traffic.scratchpad_bytes / 1e6,
            roofline,
            traffic.memory_cycles / roofline if roofline else float("inf"),
        )
    return table


def run_fig16_obs_sync(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 16: effect of OB skipping on synchronization overhead."""
    session = _session_for(
        session,
        models,
        (None, _variant_config("zero+bdc")),
        progress,
        seed,
        with_baseline=False,
    )
    table = Table(
        "Fig 16: Synchronization overhead with/without OB skipping (OBS)",
        ["Model", "sync lane-cycles OBS", "sync lane-cycles no-OBS",
         "reduction"],
    )
    reductions = []
    for model in models:
        full = session.simulate(model, None, progress, seed)
        no_obs = session.simulate(
            model, _variant_config("zero+bdc"), progress, seed
        )
        def sync_cycles(result):
            lanes = result.counters_total().lanes
            return lanes.no_term + lanes.shift_range + lanes.inter_pe + lanes.exponent
        with_obs = sync_cycles(full)
        without = sync_cycles(no_obs)
        reduction = 1.0 - with_obs / without if without else 0.0
        table.add_row(model, with_obs, without, reduction)
        reductions.append(reduction)
    table.add_row("Mean", "-", "-", float(np.mean(reductions)))
    return table


def run_fig17_accuracy(
    epochs: int = 12,
    seed: int = 7,
    classes: int = 4,
    noise: float = 0.9,
) -> Table:
    """Fig 17: training accuracy under fp32 / bf16 / FPRaker arithmetic.

    Trains the same network from the same initialization on the same
    batches under the three arithmetic modes; the paper's claim is that
    the FPRaker curve tracks the bf16 baseline within noise because it
    only skips work that cannot change the rounded result.
    """
    from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
    from repro.nn.network import Sequential

    dataset = synthetic_images(
        classes=classes, samples_per_class=150, size=8, noise=noise, seed=seed
    )
    table = Table(
        "Fig 17: Top-1 validation accuracy by arithmetic mode",
        ["Mode", "best accuracy", "final accuracy", "last-3 mean"],
    )
    curves = {}
    for mode in ("fp32", "bf16", "fpraker"):
        rng = np.random.default_rng(seed)
        engine = MatmulEngine(EngineConfig(mode=mode))
        network = Sequential(
            [
                Conv2d(1, 8, 3, engine, rng, padding=1, name="conv1"),
                ReLU(),
                MaxPool2d(2),
                Conv2d(8, 16, 3, engine, rng, padding=1, name="conv2"),
                ReLU(),
                MaxPool2d(2),
                Flatten(),
                Dense(16 * 4, classes, engine, rng, name="fc"),
            ]
        )
        trainer = Trainer(
            network, SGD(lr=0.04, momentum=0.9), batch_size=32, seed=seed
        )
        history = trainer.fit(dataset, epochs=epochs)
        curves[mode] = history.test_accuracy
        table.add_row(
            f"{mode}",
            history.best_test_accuracy,
            history.final_test_accuracy,
            float(np.mean(history.test_accuracy[-3:])),
        )
    table.curves = curves  # full per-epoch curves for plotting/tests
    return table


def run_fig18_over_time(
    models: tuple[str, ...] = STUDIED_MODELS,
    points: tuple[float, ...] = (0.05, 0.2, 0.4, 0.6, 0.8, 1.0),
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 18: speedup over the course of training."""
    session = _session_for(session, models, (None,), tuple(points), seed)
    table = Table(
        "Fig 18: Speedup over training progress",
        ["Model"] + [f"{int(p * 100)}%" for p in points],
    )
    for model in models:
        row = [model]
        for progress in points:
            base = session.baseline(model, progress, seed)
            full = session.simulate(model, None, progress, seed)
            row.append(full.speedup_vs(base))
        table.add_row(*row)
    return table


def _rows_config(rows: int) -> AcceleratorConfig:
    """Fig 19/20 geometry: ``rows`` per tile at constant total PEs."""
    config = fpraker_paper_config()
    tiles = config.tiles * config.tile.rows // rows
    return replace(config, tiles=tiles, tile=replace(config.tile, rows=rows))


def run_fig19_20_rows(
    models: tuple[str, ...] = STUDIED_MODELS,
    rows_options: tuple[int, ...] = (2, 4, 8, 16),
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> tuple[Table, Table]:
    """Figs 19/20: speedup and cycle breakdown vs rows per tile.

    The total PE count is held constant: halving the rows doubles the
    tiles, so only the synchronization structure changes.
    """
    session = _session_for(
        session,
        models,
        tuple(_rows_config(rows) for rows in rows_options),
        progress,
        seed,
    )
    speed_table = Table(
        "Fig 19: Speedup vs rows per tile (constant total PEs)",
        ["Model"] + [f"{r} rows" for r in rows_options],
    )
    stall_table = Table(
        "Fig 20: Lane-cycle breakdown vs rows per tile (geomean models)",
        ["Rows", "useful", "no term", "shift range", "inter-PE", "exponent"],
    )
    stall_sums = {r: [] for r in rows_options}
    for model in models:
        base = session.baseline(model, progress, seed)
        row = [model]
        for rows in rows_options:
            result = session.simulate(model, _rows_config(rows), progress, seed)
            row.append(result.speedup_vs(base))
            stall_sums[rows].append(result.counters_total().lanes)
        speed_table.add_row(*row)
    for rows in rows_options:
        merged = {
            key: float(np.mean([l.fractions()[key] for l in stall_sums[rows]]))
            for key in ("useful", "no_term", "shift_range", "inter_pe", "exponent")
        }
        stall_table.add_row(
            f"{rows}",
            merged["useful"],
            merged["no_term"],
            merged["shift_range"],
            merged["inter_pe"],
            merged["exponent"],
        )
    return speed_table, stall_table


def _sakr_profile(model: str) -> dict[str, int]:
    """Per-layer Sakr et al. accumulator widths for Fig 21."""
    spec = get_model(model)
    return sakr_accumulator_profile(
        {
            layer.name: layer.phase_reduction("AxW", spec.batch)
            for layer in spec.layers
        }
    )


def run_fig21_accwidth(
    models: tuple[str, ...] = ("AlexNet", "ResNet18"),
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Fig 21: fixed vs per-layer profiled accumulator widths.

    The profiled variants (AlexNet-P / ResNet18-P) use the Sakr et al.
    per-layer accumulation widths; the narrower accumulators raise the
    OB threshold's bite and FPRaker speeds up with no hardware change.
    """
    session = session if session is not None else SimulationSession()
    profiles = {model: _sakr_profile(model) for model in models}
    session.prefetch(
        [
            SimRequest.make(model, config, progress, seed, acc_profile)
            for model in models
            for config, acc_profile in (
                (baseline_paper_config(), None),
                (None, None),
                (None, profiles[model]),
            )
        ]
    )
    table = Table(
        "Fig 21: Per-layer profiled accumulator width",
        ["Config", "AxW", "GxW", "AxG", "Total speedup vs baseline"],
    )
    for model in models:
        profile = profiles[model]
        base = session.baseline(model, progress, seed)
        for label, acc_profile in ((model, None), (f"{model}-P", profile)):
            result = session.simulate(
                model, None, progress, seed, acc_profile=acc_profile
            )
            table.add_row(
                label,
                result.phase_speedup_vs(base, "AxW"),
                result.phase_speedup_vs(base, "GxW"),
                result.phase_speedup_vs(base, "AxG"),
                result.speedup_vs(base),
            )
    return table


def run_scaleout(
    models: tuple[str, ...] = STUDIED_MODELS,
    nodes: tuple[int, ...] = (1, 2, 4, 8),
    partition: str = "data",
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> tuple[Table, Table]:
    """Scale-out: training-step speedup and energy vs node count.

    Splits each model across N compute nodes under the chosen
    partition scheme (:mod:`repro.scale`), prices the inter-node
    collectives, and reports scaling against the same configuration's
    single-node run.  The N=1 anchor shares its canonical key with
    plain single-node simulations, so sessions that already ran e.g.
    fig11 get it for free.

    Args:
        models: Table-I models to sweep.
        nodes: node counts (the paper-style sweep is 1/2/4/8).
        partition: ``"data"``, ``"model"`` or ``"pipeline"``.
        progress: training progress in [0, 1].
        seed: workload RNG seed.
        session: shared simulation session (None = private).

    Returns:
        Two tables: the aggregate sweep (speedup, efficiency, comm
        share, energy vs N) and the per-node breakdown at ``max(nodes)``.
    """
    from repro.scale.scaleout import single_node_result

    if session is None:
        session = SimulationSession()
    counts = tuple(sorted(set(int(n) for n in nodes)))
    if not counts or counts[0] < 1:
        raise ValueError(f"node counts must be >= 1, got {nodes!r}")
    session.prefetch(
        [
            SimRequest.make(
                model, None, progress, seed, nodes=n, partition=partition
            )
            for model in models
            for n in counts
        ]
    )
    aggregate = Table(
        f"Scale-out ({partition}-parallel): training step vs nodes",
        ["Model", "Nodes", "Cycles", "Speedup vs 1", "Efficiency",
         "Comm share", "Energy (mJ)", "Link energy (mJ)"],
    )
    detail = Table(
        f"Scale-out ({partition}-parallel): per-node breakdown at "
        f"N={counts[-1]}",
        ["Model", "Node", "Layer-phases", "Compute cycles", "Comm cycles",
         "Step cycles", "Energy (mJ)"],
    )
    for model in models:
        anchor = None
        for n in counts:
            run = session.scaleout(model, n, partition, None, progress, seed)
            if n == 1:
                # The N=1 path returns the plain single-node result
                # (shared cache key); view it as a 1-node run.
                run = single_node_result(run, partition)
            if anchor is None:
                anchor = run
            aggregate.add_row(
                model,
                run.nodes,
                run.cycles,
                anchor.cycles / run.cycles,
                anchor.cycles / run.cycles / run.nodes,
                run.comm_cycles / run.cycles if run.cycles else 0.0,
                run.total_energy_nj / 1e6,
                run.link_energy_nj / 1e6,
            )
            if n == counts[-1]:
                for summary in run.node_summaries:
                    detail.add_row(
                        model,
                        summary.node_id,
                        summary.layer_phases,
                        summary.cycles,
                        summary.comm.cycles,
                        summary.step_cycles,
                        (summary.energy.total + summary.comm.energy_nj) / 1e6,
                    )
    return aggregate, detail


def run_pragmatic_comparison(
    models: tuple[str, ...] = STUDIED_MODELS,
    progress: float = 0.5,
    seed: int = 0,
    session: SimulationSession | None = None,
) -> Table:
    """Section I: bfloat16 Bit-Pragmatic vs the bit-parallel baseline.

    The paper reports Pragmatic-FP is on average 1.72x *slower* and
    1.96x *less* energy efficient at iso compute area -- the negative
    result motivating FPRaker's area-focused design.
    """
    session = _session_for(
        session, models, (pragmatic_paper_config(),), progress, seed
    )
    table = Table(
        "Bit-Pragmatic-FP vs baseline (iso compute area)",
        ["Model", "slowdown (x)", "energy inefficiency (x)"],
    )
    slowdowns, inefficiencies = [], []
    for model in models:
        base = session.baseline(model, progress, seed)
        prag = session.pragmatic(model, progress, seed)
        slowdown = prag.cycles / base.cycles
        inefficiency = (
            prag.energy_total().core.total / base.energy_total().core.total
        )
        table.add_row(model, slowdown, inefficiency)
        slowdowns.append(slowdown)
        inefficiencies.append(inefficiency)
    table.add_row("Geomean", geomean(slowdowns), geomean(inefficiencies))
    return table
