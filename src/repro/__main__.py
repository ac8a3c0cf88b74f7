"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig11            # regenerate one artifact
    python -m repro run fig14 --models VGG16 SNLI
    python -m repro run all --jobs 4     # everything, 4 worker processes
    python -m repro run fig11 --format json --out results/
    python -m repro run all --cache .repro-cache   # warm reruns
    python -m repro run memory_profile             # traffic-engine profile
    python -m repro run fig15 --memory-engine hierarchy
    python -m repro serve --cache .repro-cache     # simulation daemon

All simulation-driven experiments share one
:class:`repro.harness.runner.SimulationSession`, so ``run all`` performs
each unique ``(model, config, progress, seed, acc_profile)`` simulation
exactly once; ``--jobs`` fans cache misses out over worker processes and
``--cache`` persists results on disk across invocations.
``--memory-engine hierarchy`` prices off-chip traffic with the
event-level memory hierarchy (container bursts, bank conflicts,
transposer occupancy) instead of the flat roofline.

``serve`` runs the same simulation machinery as a long-lived HTTP
daemon over a shared sqlite result store (see ``docs/SERVICE.md``); it
takes the same ``--jobs/--cache/--workload-cache/--memory-engine``
session flags as ``run`` -- a ``--cache`` directory warmed by prior
``repro run`` invocations is migrated into the store on startup.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from repro.harness import experiments
from repro.harness.extensions import (
    run_inference_extension,
    run_precision_schedule,
)
from repro.harness.runner import SessionConfig, SimulationSession
from repro.models.zoo import MODEL_ZOO

EXPERIMENTS = {
    "table1": experiments.run_table1,
    "table2": experiments.run_table2,
    "table3": experiments.run_table3,
    "fig1": experiments.run_fig1_sparsity,
    "fig2": experiments.run_fig2_potential,
    "fig6": experiments.run_fig6_exponents,
    "fig10": experiments.run_fig10_compression,
    "fig11": experiments.run_fig11_speedup,
    "fig12": experiments.run_fig12_energy,
    "fig13": experiments.run_fig13_skipped,
    "fig14": experiments.run_fig14_phases,
    "fig15": experiments.run_fig15_stalls,
    "fig16": experiments.run_fig16_obs_sync,
    "fig17": experiments.run_fig17_accuracy,
    "fig18": experiments.run_fig18_over_time,
    "fig19-20": experiments.run_fig19_20_rows,
    "fig21": experiments.run_fig21_accwidth,
    "memory_profile": experiments.run_memory_profile,
    "scaleout": experiments.run_scaleout,
    "pragmatic": experiments.run_pragmatic_comparison,
    "ext-precision": run_precision_schedule,
    "ext-inference": run_inference_extension,
}

# Experiments that accept a `models` keyword.
_MODEL_AWARE = {
    "fig1", "fig2", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig18", "fig19-20", "memory_profile", "scaleout",
    "pragmatic", "ext-inference",
}


def _accepts_session(func) -> bool:
    """Whether an experiment routes simulation through a session."""
    return "session" in inspect.signature(func).parameters


def _tables(result) -> tuple:
    """Normalize an experiment's return value to a tuple of tables."""
    return result if isinstance(result, tuple) else (result,)


def _show(result) -> None:
    for table in _tables(result):
        table.show()


def _payload(result):
    """One experiment's tables as a JSON-ready object."""
    dicts = [table.to_dict() for table in _tables(result)]
    return dicts[0] if len(dicts) == 1 else dicts


def _render(result, fmt: str) -> str:
    """One experiment's artifact as text or a JSON document."""
    if fmt == "json":
        return json.dumps(_payload(result), indent=2)
    return "\n\n".join(table.render() for table in _tables(result)) + "\n"


def _validate_models(models: list[str] | None) -> list[str]:
    """Unknown model names from a ``--models`` argument (empty = valid)."""
    if not models:
        return []
    return [name for name in models if name not in MODEL_ZOO]


def _positive_int(text: str) -> int:
    """Argparse type for a strictly positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _session_flags() -> argparse.ArgumentParser:
    """Parent parser of the session flags ``run`` and ``serve`` share.

    One definition keeps the two subcommands' ``--jobs``, ``--cache``,
    ``--workload-cache`` and ``--memory-engine`` flags identical in
    name, type, default and help text.

    Returns:
        An ``add_help=False`` parser for use via ``parents=[...]``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulations (default: 1)",
    )
    parent.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist simulation results under DIR (warm reruns; "
        "`serve` migrates DIR's entries into its shared store)",
    )
    parent.add_argument(
        "--workload-cache",
        metavar="DIR",
        default=None,
        help="persist generated workload tensors under DIR (defaults "
        "to CACHE/workloads when --cache is set; in-memory reuse is "
        "always on)",
    )
    parent.add_argument(
        "--memory-engine",
        choices=("roofline", "hierarchy"),
        default="roofline",
        help="memory model for FPRaker simulations (default: roofline)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the full ``repro`` argument parser.

    Exposed separately so ``docs/CLI.md`` can be generated from (and
    sync-tested against) the real parser tree.

    Returns:
        The configured :class:`argparse.ArgumentParser`.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the FPRaker paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    session_flags = _session_flags()
    runner = sub.add_parser(
        "run",
        help="run one experiment (or 'all')",
        parents=[session_flags],
    )
    runner.add_argument("experiment", help="experiment id, or 'all'")
    runner.add_argument(
        "--models",
        nargs="+",
        default=None,
        help="restrict model-sweep experiments to these Table-I models",
    )
    runner.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="artifact format printed to stdout / written to --out",
    )
    runner.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each artifact to DIR/<experiment>.{txt,json}",
    )
    runner.add_argument(
        "--nodes",
        nargs="+",
        type=_positive_int,
        default=None,
        metavar="N",
        help="scale-out node counts for the scaleout experiment "
        "(default: 1 2 4 8)",
    )
    runner.add_argument(
        "--partition",
        choices=("data", "model", "pipeline"),
        default=None,
        help="scale-out partition scheme (default: data)",
    )
    server = sub.add_parser(
        "serve",
        help="run the simulation daemon over a shared result store",
        parents=[session_flags],
    )
    server.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    server.add_argument(
        "--port",
        type=int,
        default=8177,
        help="TCP port to listen on (default: 8177)",
    )
    server.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="result-store location: a directory or a .sqlite file "
        "(default: --cache when given, else .repro-store)",
    )
    return parser


def _serve(args) -> int:
    """The ``repro serve`` handler: open the store, run the daemon.

    The daemon shares ``run``'s session flags; a ``--cache`` directory
    warmed by prior CLI runs is migrated into the store before serving.

    Args:
        args: parsed ``serve`` arguments.

    Returns:
        Process exit code.
    """
    from repro.service.daemon import run_daemon
    from repro.service.store import ResultStore, StoreError

    store_path = args.store or args.cache or ".repro-store"
    config = SessionConfig(
        jobs=args.jobs,
        memory_engine=args.memory_engine,
        workload_cache=(
            args.workload_cache if args.workload_cache is not None else True
        ),
    )
    try:
        store = ResultStore(store_path)
    except StoreError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    if args.cache is not None:
        imported = store.import_legacy(args.cache)
        if imported:
            print(
                f"repro serve: imported {imported} entries from "
                f"{args.cache}",
                flush=True,
            )
    try:
        return run_daemon(config, store, host=args.host, port=args.port)
    finally:
        store.close()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Args:
        argv: argument list (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit code.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.command == "serve":
        return _serve(args)
    unknown = _validate_models(args.models)
    if unknown:
        print(
            "unknown model(s): " + ", ".join(repr(m) for m in unknown)
            + "\nknown models: " + ", ".join(sorted(MODEL_ZOO)),
            file=sys.stderr,
        )
        return 2
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        if name not in EXPERIMENTS:
            print(
                f"unknown experiment {name!r}; try: {', '.join(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
    for flag, value in (
        ("--cache", args.cache),
        ("--out", args.out),
        ("--workload-cache", args.workload_cache),
    ):
        if value is not None and Path(value).exists() and not Path(value).is_dir():
            print(f"{flag} {value!r} is not a directory", file=sys.stderr)
            return 2
    session = SimulationSession(
        config=SessionConfig(
            jobs=args.jobs,
            cache_dir=args.cache,
            memory_engine=args.memory_engine,
            workload_cache=(
                args.workload_cache if args.workload_cache is not None else True
            ),
        )
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "json" if args.format == "json" else "txt"
    json_out = {}
    for name in names:
        func = EXPERIMENTS[name]
        kwargs = {}
        if args.models and name in _MODEL_AWARE:
            kwargs["models"] = tuple(args.models)
        if name == "scaleout":
            if args.nodes:
                kwargs["nodes"] = tuple(args.nodes)
            if args.partition:
                kwargs["partition"] = args.partition
        if _accepts_session(func):
            kwargs["session"] = session
        result = func(**kwargs)
        if args.format == "json":
            json_out[name] = _payload(result)
        else:
            _show(result)
        if out_dir is not None:
            path = out_dir / f"{name}.{suffix}"
            path.write_text(_render(result, args.format))
    if args.format == "json":
        # One parseable document: the bare artifact for a single
        # experiment, an object keyed by experiment id for several.
        single = json_out[names[0]] if len(names) == 1 else json_out
        print(json.dumps(single, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
