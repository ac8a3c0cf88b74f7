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
    python -m repro serve --store .repro-cache     # simulation daemon

All simulation-driven experiments share one
:class:`repro.harness.runner.SimulationSession`, so ``run all`` performs
each unique ``(model, config, progress, seed, acc_profile)`` simulation
exactly once; ``--jobs`` fans cache misses out over worker processes and
``--cache DIR`` persists results on disk across invocations.  The nine
experiments that take no session (the tables, Figs 1, 2, 6, 10 and 17,
and ``memory_profile``) are cached whole under ``DIR/tables``, keyed by
experiment id and every bound argument, so a warm run reads their
tables instead of running them.  ``--models``, ``--nodes`` and ``--partition``
reach each experiment that takes the matching keyword; naming one
experiment that does not take a given flag exits 2.
``--memory-engine hierarchy`` prices off-chip traffic with the
event-level memory hierarchy (container bursts, bank conflicts,
transposer occupancy) instead of the flat roofline.

``serve`` runs the same simulation machinery as a long-lived HTTP
daemon (see ``docs/SERVICE.md``); it takes ``run``'s ``--jobs`` and
``--memory-engine`` flags, and its ``--store DIR`` is the same per-key
JSON directory as ``run --cache DIR``, so either front end starts warm
on what the other wrote.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from repro.core.accelerator import MEMORY_ENGINES
from repro.harness import experiments
from repro.harness.cache import ResultCache, table_key
from repro.harness.extensions import (
    run_inference_extension,
    run_precision_schedule,
)
from repro.harness.runner import SessionConfig, SimulationSession
from repro.models.zoo import MODEL_ZOO
from repro.scale.partition import SCHEMES

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


def _accepts(func, parameter: str) -> bool:
    """Whether an experiment function takes the named keyword."""
    return parameter in inspect.signature(func).parameters


def _accepts_session(func) -> bool:
    """Whether an experiment routes simulation through a session."""
    return _accepts(func, "session")


def _flag_kwargs(args) -> dict:
    """Experiment keywords, by parameter name, from the ``run`` flags
    the user gave (``--models``, ``--nodes``, ``--partition``)."""
    kwargs = {}
    if args.models:
        kwargs["models"] = tuple(args.models)
    if args.nodes:
        kwargs["nodes"] = tuple(args.nodes)
    if args.partition:
        kwargs["partition"] = args.partition
    return kwargs


def _table_key(name: str, func, kwargs: dict) -> str:
    """The :func:`table_key` of ``func(**kwargs)``: the experiment id
    plus every bound argument, defaults included."""
    bound = inspect.signature(func).bind(**kwargs)
    bound.apply_defaults()
    return table_key(name, bound.arguments)


def _run_tables(name: str, func, kwargs: dict, cache: ResultCache | None):
    """Run a sessionless experiment, answering from ``cache`` if it can;
    a miss runs the experiment and stores its tables."""
    if cache is None:
        return func(**kwargs)
    key = _table_key(name, func, kwargs)
    tables = cache.load(key)
    if tables is None:
        tables = _tables(func(**kwargs))
        cache.store(key, tables)
    return tables


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


def _port(text: str) -> int:
    """Argparse type for a TCP port (0 picks a free one)."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0..65535, got {value}")
    return value


def _session_flags() -> argparse.ArgumentParser:
    """Parent parser of the session flags ``run`` and ``serve`` share.

    One definition keeps the two subcommands' ``--jobs`` and
    ``--memory-engine`` flags identical in name, type, default and help
    text.

    Returns:
        An ``add_help=False`` parser for use via ``parents=[...]``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for independent simulations (default: 1)",
    )
    parent.add_argument(
        "--memory-engine",
        choices=MEMORY_ENGINES,
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
        "--cache",
        metavar="DIR",
        default=None,
        help="persist simulation results, experiment tables and workload "
        "tensors under DIR (warm reruns; `serve --store DIR` shares the "
        "simulation results)",
    )
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
        choices=SCHEMES,
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
        type=_port,
        default=8177,
        help="TCP port to listen on (default: 8177)",
    )
    server.add_argument(
        "--store",
        metavar="DIR",
        default=".repro-store",
        help="result directory, the same format as `run --cache DIR` "
        "(default: .repro-store)",
    )
    return parser


def _serve(args) -> int:
    """The ``repro serve`` handler: open the store, run the daemon.

    Args:
        args: parsed ``serve`` arguments.

    Returns:
        Process exit code.
    """
    from repro.service.daemon import run_daemon
    from repro.service.store import ResultStore

    if Path(args.store).exists() and not Path(args.store).is_dir():
        print(
            f"repro serve: --store {args.store!r} is not a directory",
            file=sys.stderr,
        )
        return 2
    config = SessionConfig(jobs=args.jobs, memory_engine=args.memory_engine)
    return run_daemon(
        config, ResultStore(args.store), host=args.host, port=args.port
    )


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
    flag_kwargs = _flag_kwargs(args)
    if args.experiment != "all":
        # A single experiment must take every flag given; `run all`
        # applies each flag wherever it is taken.
        func = EXPERIMENTS[args.experiment]
        for parameter in flag_kwargs:
            if not _accepts(func, parameter):
                print(
                    f"--{parameter} does not apply to {args.experiment!r}",
                    file=sys.stderr,
                )
                return 2
    for flag, value in (("--cache", args.cache), ("--out", args.out)):
        if value is not None and Path(value).exists() and not Path(value).is_dir():
            print(f"{flag} {value!r} is not a directory", file=sys.stderr)
            return 2
    session = SimulationSession(
        config=SessionConfig(
            jobs=args.jobs,
            cache_dir=args.cache,
            memory_engine=args.memory_engine,
        )
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    table_cache = (
        ResultCache(Path(args.cache) / "tables") if args.cache else None
    )
    suffix = "json" if args.format == "json" else "txt"
    json_out = {}
    for name in names:
        func = EXPERIMENTS[name]
        kwargs = {
            parameter: value
            for parameter, value in flag_kwargs.items()
            if _accepts(func, parameter)
        }
        if _accepts_session(func):
            result = func(**kwargs, session=session)
        else:
            result = _run_tables(name, func, kwargs, table_cache)
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
