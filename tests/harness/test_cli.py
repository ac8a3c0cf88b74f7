"""Tests for the command-line interface."""

import functools
import json
import os

import pytest

import repro.__main__ as cli
from repro.__main__ import EXPERIMENTS, _accepts_session, _table_key, main
from repro.harness import runner
from repro.harness.report import Table


def _stub(func, calls=None):
    """A stand-in for an experiment with its signature (``functools.wraps``)
    that records its keywords in ``calls``, or raises when ``calls`` is
    None."""

    @functools.wraps(func)
    def stub(**kwargs):
        if calls is None:
            raise AssertionError(f"{func.__name__} ran; expected a cache hit")
        calls.append(kwargs)
        table = Table("stub", ["a"])
        table.add_row(1)
        return table

    return stub


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig11", "table3", "pragmatic"):
            assert name in out

    def test_run_static_table(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "Tiles" in capsys.readouterr().out

    def test_run_with_model_filter(self, capsys):
        assert main(["run", "fig1", "--models", "NCF"]) == 0
        out = capsys.readouterr().out
        assert "NCF" in out
        assert "VGG16" not in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_unknown_experiment_rejected_before_any_run(self, capsys):
        """'run all'-style lists fail fast on a bad name."""
        assert main(["run", "fig99", "--models", "NCF"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_model_exits_2_and_lists_known(self, capsys):
        """Regression: an unknown --models name used to die with a raw
        KeyError deep in the model zoo."""
        assert main(["run", "fig11", "--models", "NoSuchModel"]) == 2
        err = capsys.readouterr().err
        assert "NoSuchModel" in err
        assert "VGG16" in err and "NCF" in err  # the known names

    def test_unknown_model_checked_before_simulating(self, capsys):
        assert main(["run", "fig1", "--models", "NCF", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert main(["run", "table2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["title"].startswith("Table II")
        assert "Parameter" in payload["headers"]
        assert any(row[0] == "Tiles" for row in payload["rows"])

    def test_out_dir_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["run", "table1", "--out", str(out)]) == 0
        text = (out / "table1.txt").read_text()
        assert "Table I" in text
        assert main(
            ["run", "table1", "--format", "json", "--out", str(out)]
        ) == 0
        payload = json.loads((out / "table1.json").read_text())
        assert len(payload["rows"]) == 9

    def test_jobs_and_cache_flags(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["run", "fig13", "--models", "NCF", "--cache", str(cache)]
        assert main(args + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert sorted(cache.glob("*.json"))  # results persisted
        assert main(args) == 0  # warm, serial: same artifact
        assert capsys.readouterr().out == cold

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_jobs_rejects_nonpositive(self, command, capsys):
        argv = [command, "table2"] if command == "run" else [command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--jobs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_outside_range_exits_2(self, port, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", port])
        assert excinfo.value.code == 2
        assert "must be in 0..65535" in capsys.readouterr().err

    def test_serve_store_naming_a_file_exits_2(self, tmp_path, capsys):
        store = tmp_path / "results.sqlite"
        store.write_text("not a result directory")
        assert main(["serve", "--store", str(store)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_every_registered_experiment_is_callable(self):
        for func in EXPERIMENTS.values():
            assert callable(func)


class TestFlagApplicability:
    """A flag given for one experiment must be one it takes."""

    @pytest.mark.parametrize(
        "argv, flag, experiment",
        [
            (["fig17", "--models", "NCF"], "--models", "fig17"),
            (["table2", "--models", "NCF"], "--models", "table2"),
            (["ext-precision", "--models", "NCF"], "--models", "ext-precision"),
            (["table2", "--nodes", "2"], "--nodes", "table2"),
            (["fig13", "--partition", "model"], "--partition", "fig13"),
            (
                ["fig17", "--models", "NCF", "--nodes", "3",
                 "--partition", "model"],
                "--models",
                "fig17",
            ),
        ],
    )
    def test_flag_the_experiment_does_not_take_exits_2(
        self, argv, flag, experiment, capsys
    ):
        assert main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(experiment) in err

    def test_models_reaches_fig21(self, monkeypatch, capsys):
        """fig21 takes ``models``; it used to print its default models."""
        calls = []
        monkeypatch.setitem(
            EXPERIMENTS, "fig21", _stub(EXPERIMENTS["fig21"], calls)
        )
        assert main(["run", "fig21", "--models", "NCF"]) == 0
        assert calls[0]["models"] == ("NCF",)

    def test_run_all_applies_each_flag_where_taken(self, monkeypatch, capsys):
        calls = {}
        for name, func in list(EXPERIMENTS.items()):
            calls[name] = []
            monkeypatch.setitem(EXPERIMENTS, name, _stub(func, calls[name]))
        argv = ["run", "all", "--models", "NCF", "--nodes", "2",
                "--partition", "model"]
        assert main(argv) == 0
        for name in ("fig1", "fig11", "fig21", "memory_profile"):
            assert calls[name][0]["models"] == ("NCF",)
        assert calls["scaleout"][0]["nodes"] == (2,)
        assert calls["scaleout"][0]["partition"] == "model"
        for name in ("table1", "fig6", "fig17"):
            assert calls[name] == [{}]
        assert "models" not in calls["ext-precision"][0]


SESSIONLESS = [
    name for name, func in EXPERIMENTS.items() if not _accepts_session(func)
]


class TestPlan:
    """``run all`` runs its cold work before any experiment renders."""

    def test_run_all_renders_without_simulating(self, monkeypatch, capsys):
        events = []
        for name in SESSIONLESS:
            monkeypatch.setitem(
                EXPERIMENTS, name, _stub(EXPERIMENTS[name], [])
            )
        simulate, show = runner.execute_request, cli._show

        def recording_simulate(request, config):
            events.append("simulate")
            return simulate(request, config)

        def recording_show(result):
            events.append("render")
            show(result)

        monkeypatch.setattr(runner, "execute_request", recording_simulate)
        monkeypatch.setattr(cli, "_show", recording_show)
        argv = ["run", "all", "--models", "NCF", "--nodes", "1", "2",
                "--jobs", "1"]
        assert main(argv) == 0
        assert events.count("render") == len(EXPERIMENTS)
        first_render = events.index("render")
        assert "simulate" not in events[first_render:]
        assert "simulate" in events[:first_render]

    def test_jobs_runs_sessionless_experiments_in_a_worker(
        self, monkeypatch, capsys
    ):
        """The pool gets the experiment's id, not the function: a
        stand-in that pickle cannot find by name still runs there."""

        def where() -> Table:
            table = Table("where", ["pid"])
            table.add_row(os.getpid())
            return table

        monkeypatch.setitem(EXPERIMENTS, "table1", where)
        assert main(["run", "table1", "--jobs", "2", "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["title"] == "where"
        assert table["rows"][0][0] != os.getpid()


class TestTableCache:
    """``run --cache DIR`` stores sessionless experiments' tables."""

    def test_sessionless_experiments(self):
        assert sorted(SESSIONLESS) == sorted(
            ["table1", "table2", "table3", "fig1", "fig2", "fig6", "fig10",
             "fig17", "memory_profile"]
        )

    @pytest.mark.parametrize("name", SESSIONLESS)
    def test_default_arguments_are_keyable(self, name):
        json.loads(_table_key(name, EXPERIMENTS[name], {}))

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_warm_run_prints_cold_bytes_without_running(
        self, fmt, tmp_path, monkeypatch, capsys
    ):
        cache = tmp_path / "cache"
        args = ["run", "fig10", "--models", "NCF", "--cache", str(cache),
                "--format", fmt]
        assert main(args) == 0
        cold = capsys.readouterr().out
        monkeypatch.setitem(EXPERIMENTS, "fig10", _stub(EXPERIMENTS["fig10"]))
        assert main(args) == 0
        assert capsys.readouterr().out == cold

    def test_other_arguments_miss(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache"
        args = ["run", "fig10", "--cache", str(cache), "--models"]
        assert main(args + ["NCF"]) == 0
        calls = []
        monkeypatch.setitem(
            EXPERIMENTS, "fig10", _stub(EXPERIMENTS["fig10"], calls)
        )
        assert main(args + ["SNLI"]) == 0
        assert calls == [{"models": ("SNLI",)}]

    def test_tables_live_in_a_subdirectory(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        for name in ("table1", "table2", "table3"):
            assert main(["run", name, "--cache", str(cache)]) == 0
        assert list(cache.glob("*.json")) == []
        assert len(list((cache / "tables").glob("*.json"))) == 3

    def test_key_binds_defaults(self):
        def first(models=("NCF",), seed=0):
            pass

        def second(models=("NCF",), seed=1):
            pass

        assert _table_key("x", first, {}) != _table_key("x", second, {})
        assert _table_key("x", first, {}) == _table_key("x", first, {"seed": 0})
        assert _table_key("x", first, {}) != _table_key("y", first, {})

    def test_key_rejects_non_json_arguments(self):
        def experiment(option=object()):
            pass

        with pytest.raises(TypeError):
            _table_key("x", experiment, {})


class TestScaleoutCli:
    def test_json_artifact_structure(self, capsys):
        assert main(
            ["run", "scaleout", "--models", "NCF", "--format", "json"]
        ) == 0
        aggregate, detail = json.loads(capsys.readouterr().out)
        assert "Scale-out" in aggregate["title"]
        assert aggregate["headers"][:2] == ["Model", "Nodes"]
        # Default sweep: one aggregate row per N in {1, 2, 4, 8}.
        assert [row[1] for row in aggregate["rows"]] == [1, 2, 4, 8]
        # Per-node breakdown at N=8: one row per node.
        assert [row[1] for row in detail["rows"]] == list(range(8))
        # The N=1 anchor has speedup exactly 1 and no communication.
        assert aggregate["rows"][0][3] == 1.0
        assert aggregate["rows"][0][5] == 0.0

    def test_json_artifact_deterministic(self, capsys):
        args = [
            "run", "scaleout", "--models", "NCF", "--nodes", "1", "2",
            "4", "8", "--format", "json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        json.loads(first)  # parseable

    def test_partition_flag_changes_artifact(self, capsys):
        base = ["run", "scaleout", "--models", "NCF", "--nodes", "1", "2",
                "--format", "json"]
        assert main(base) == 0
        data = capsys.readouterr().out
        assert main(base + ["--partition", "pipeline"]) == 0
        pipe = capsys.readouterr().out
        assert "pipeline-parallel" in pipe
        assert pipe != data

    def test_nodes_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "scaleout", "--nodes", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_partition_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "scaleout", "--partition", "ring"])
        assert excinfo.value.code == 2

    def test_scaleout_results_persist_in_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "run", "scaleout", "--models", "NCF", "--nodes", "1", "2",
            "--cache", str(cache), "--format", "json",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0  # warm run reads the disk cache
        assert capsys.readouterr().out == cold
