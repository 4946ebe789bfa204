"""Tests for the command-line interface."""

import argparse
import json
import os
import re

import pytest

from repro.cli import build_parser, main

#: Every parser's and subparser's arguments, captured from ``build_parser()``
#: (``python tests/test_cli.py`` re-captures it — only when the command line
#: is meant to change).
PARSER_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                              "cli_parser.json")


def _plain(value):
    """``value`` as JSON can hold it; anything else by its ``repr``."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return repr(value)


def parser_spec(parser=None, prog="repro", out=None):
    """Each parser's actions as plain data, keyed by command path.

    A structured dump, not the rendered ``--help``: argparse lays help out
    differently from one Python minor to the next, this data does not.
    """
    parser = parser or build_parser()
    out = {} if out is None else out
    actions = []
    for action in parser._actions:
        entry = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "nargs": _plain(action.nargs),
            "required": action.required,
            "help": action.help,
        }
        if isinstance(action, argparse._SubParsersAction):
            entry["choices"] = sorted(action.choices)
            entry["subcommands"] = {
                choice.dest: choice.help for choice in action._choices_actions
            }
            for name, subparser in action.choices.items():
                parser_spec(subparser, f"{prog} {name}", out)
        else:
            entry["choices"] = (None if action.choices is None
                                else _plain(list(action.choices)))
        actions.append(entry)
    out[prog] = actions
    return out


def test_parser_matches_its_golden_dump():
    with open(PARSER_FIXTURE) as handle:
        golden = json.load(handle)
    spec = json.loads(json.dumps(parser_spec()))
    assert sorted(spec) == sorted(golden)
    for prog in golden:
        assert spec[prog] == golden[prog], prog


with open(PARSER_FIXTURE) as _handle:
    #: Every command path, ``"repro"`` and ``"repro trace record"`` alike.
    PROGS = sorted(json.load(_handle))


@pytest.mark.parametrize("prog", PROGS)
def test_every_parser_renders_its_help(prog, capsys):
    """The golden dump never formats help text: a bare ``%`` in a help
    string (argparse's format character) passes it and breaks ``--help``."""
    with pytest.raises(SystemExit) as exc:
        main([*prog.split()[1:], "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {prog} ")


def test_building_the_parser_leaves_the_heavy_packages_unloaded():
    """``repro list`` pays for what it uses: building the command line
    does not import the HTTP client (the handlers that need it import it
    themselves)."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    probe = (
        "import sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "loaded = [m for m in ('http.client', 'ssl', 'repro.serve.client')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = Path(repro.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={"PYTHONPATH": str(src)}, timeout=120)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])

    def test_run_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "bfs", "--scheme", "fifo"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "bfs"])
        assert args.scheme == "rr"
        assert args.scale == 1.0
        assert not args.fermi


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out and "cawa" in out and "Non-sens" in out

    def test_schemes_names_aliases_by_their_canonical_scheduler(self, capsys):
        assert main(["schemes"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  2lev       alias of two_level" in lines
        assert "  rr         alias of lrr" in lines
        assert sum("alias of" in line for line in lines) == 2

    def test_run_synthetic(self, capsys):
        code = main([
            "run", "--workload", "synthetic_divergence", "--scheme", "gto",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "synthetic_divergence" in out
        assert "IPC" in out

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--workloads", "synthetic_imbalance",
            "--schemes", "rr,gto", "--metric", "cycles", "--scale", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "synthetic_imbalance" in out

    def test_sweep_with_speedup_table(self, capsys):
        code = main([
            "sweep", "--workloads", "synthetic_imbalance",
            "--schemes", "rr,gto", "--metric", "ipc", "--scale", "0.5",
        ])
        assert code == 0
        assert "Speedup over rr" in capsys.readouterr().out

    @pytest.mark.parametrize("names, message", [
        ("gto,magic", "unknown scheme 'magic'"),
        ("ciao", "scheme 'ciao' was removed: the co-design scheme"),
    ])
    def test_sweep_refuses_a_bad_scheme(self, capsys, names, message):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workloads", "synthetic_imbalance",
                  "--schemes", names])
        assert exc.value.code == 2
        assert "argument --schemes: " + message in capsys.readouterr().err

    def test_sweep_refuses_a_bad_workload(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workloads", "bfs,magic", "--schemes", "gto"])
        assert exc.value.code == 2
        assert ("argument --workloads: unknown workload 'magic'"
                in capsys.readouterr().err)

    def test_figure_unknown_number(self, capsys):
        assert main(["figure", "5"]) == 2

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    @staticmethod
    def _refused(capsys, *extra):
        # --compare went with the per-cycle loop, the only thing it
        # compared; --repeats with it, and --sort with cProfile's listing:
        # argparse refuses each before anything runs.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "bfs", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + extra[0] in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["clock=cycle,skip"])
    def test_profile_refuses_removed_flags(self, capsys, spec):
        self._refused(capsys, "--compare", spec)
        self._refused(capsys, "--repeats", "1")
        self._refused(capsys, "--sort", "tottime")

    @pytest.mark.parametrize(
        "spec", ["core", "clock", "clock=skip", "shards=1,2", "backend=python,vector",
                 "clock=cycle,warp"]
    )
    def test_profile_refuses_compare_with_any_spec(self, capsys, spec):
        self._refused(capsys, "--compare", spec)

    def test_profile(self, capsys):
        code = main(["profile", "synthetic_imbalance", "rr", "--scale", "0.25",
                     "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "synthetic_imbalance x rr: " in out and "cycles/s" in out
        assert "call budget" in out


def _cycles(out):
    return float(re.search(r"cycles=\s*(\d+)", out).group(1))


def test_trace_record_replays_caws_with_its_oracle(capsys):
    """``trace record --scheme caws`` prints the cell ``run`` prints: its
    replay schedules with the CAWS oracle like every other caws cell."""
    cell = ["--workload", "synthetic_imbalance", "--scheme", "caws",
            "--scale", "0.25"]
    assert main(["trace", "record", *cell]) == 0
    recorded = _cycles(capsys.readouterr().out)
    assert main(["run", *cell]) == 0
    assert recorded == _cycles(capsys.readouterr().out)


def test_client_submit_watch_streams_within_the_timeout(monkeypatch, capsys):
    seen = {}

    class StubClient:
        def __init__(self, server, tenant):
            pass

        def submit(self, spec):
            return {"id": "j1", "describe": "run", "priority": "batch"}, False

        def watch(self, job_id, timeout=600.0):
            seen["watch"] = timeout
            return iter([{"kind": "done"}])

        def wait(self, job_id, timeout=600.0):
            seen["wait"] = timeout
            return {"state": "done"}

        def result(self, job_id):
            return {"payload": {"summary": "summary line"}}

        def close(self):
            pass

    monkeypatch.setattr("repro.serve.ServeClient", StubClient)
    assert main(["client", "--timeout", "7", "submit", "--workload", "bfs",
                 "--watch"]) == 0
    assert seen == {"watch": 7.0, "wait": 7.0}
    assert capsys.readouterr().out.splitlines()[1:] == ["  [done]", "summary line"]


@pytest.mark.parametrize("flag", ["--max-entries", "--max-age-days"])
def test_cache_gc_refuses_a_negative_limit(capsys, flag):
    from repro.experiments.result_cache import cache_dir

    directory = cache_dir()
    directory.mkdir(parents=True)
    entries = [directory / f"{name}.json" for name in ("a", "b")]
    for entry in entries:
        entry.write_text("{}")
    assert main(["cache", "gc", "--what", "results", flag, "-1"]) == 2
    assert f"{flag} must not be negative" in capsys.readouterr().err
    assert all(entry.exists() for entry in entries)


class TestEventsCommand:
    """`repro events` subcommands (see docs/observability.md)."""

    def test_schema_table(self, capsys):
        assert main(["events", "schema"]) == 0
        out = capsys.readouterr().out
        assert "WARP_ISSUE" in out and "CACHE_MISS" in out
        assert "kind, cycle, sm" in out

    def test_schema_check(self, capsys):
        assert main(["events", "schema", "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_record_and_stats(self, capsys):
        # stats records the cell afresh: the run summary and the per-kind
        # counts come first, then the stall breakdown.
        assert main([
            "events", "stats", "synthetic_imbalance", "rr", "--scale", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycles=" in out and "recorded" in out and "WARP_ISSUE" in out
        assert "bucket" in out and "critical warp" in out

    def test_stats_json(self, capsys):
        import json

        code = main([
            "events", "stats", "synthetic_imbalance", "rr", "--scale", "0.5",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["issue_cycles"] > 0
        assert payload["kind_counts"]["WARP_ISSUE"] > 0
        assert len(payload["top_reasons"]) <= 3

    def test_stats_totals_survive_a_ring_overflow(self, monkeypatch, capsys):
        # The totals must cover the whole run, not the most recent events a
        # full ring kept: they must equal a collector's that saw every one.
        import json
        from collections import Counter

        import repro.obs.bus as obs_bus
        from repro.obs import Ev, StallAccounting, record_events

        seen = []
        record_events("synthetic_imbalance", "rr", scale=0.5, collectors=(seen,))
        monkeypatch.setattr(obs_bus, "DEFAULT_CAPACITY", 64)
        assert main([
            "events", "stats", "synthetic_imbalance", "rr", "--scale", "0.5",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        live = StallAccounting().extend(seen)
        assert len(seen) > 64
        assert payload["kind_counts"] == Counter(Ev(ev[0]).name for ev in seen)
        assert payload["issue_cycles"] == live.issue_cycles()
        assert payload["warp_cycles"] == live.warp_cycles()
        assert payload["reason_totals"] == live.reason_totals()

    def test_export_reports_a_ring_overflow(self, monkeypatch, capsys):
        import repro.obs.bus as obs_bus

        monkeypatch.setattr(obs_bus, "DEFAULT_CAPACITY", 64)
        assert main([
            "events", "export", "--format", "csv",
            "synthetic_imbalance", "rr", "--scale", "0.5",
        ]) == 0
        captured = capsys.readouterr()
        assert re.search(r"the ring kept the last 64 of \d+ events", captured.err)
        assert len(captured.out.splitlines()) == 65  # header + the 64 kept

    def test_export_chrome(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        code = main([
            "events", "export", "--format", "chrome",
            "synthetic_imbalance", "rr", "--scale", "0.5",
            "-o", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        kinds = {e.get("ph") for e in doc["traceEvents"]}
        assert "X" in kinds and "M" in kinds

    def test_export_csv_to_stdout(self, capsys):
        code = main([
            "events", "export", "--format", "csv",
            "synthetic_imbalance", "rr", "--scale", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("kind,cycle,sm")

    def test_read_only_commands_write_nothing(self, capsys):
        from repro.experiments.result_cache import cache_dir

        assert main(["events", "schema"]) == 0
        assert main(["cache", "stats"]) == 0
        stores = [line.split()[0] for line in
                  capsys.readouterr().out.splitlines()[-2:]]
        assert stores == ["results", "traces"]
        assert not cache_dir().exists()


if __name__ == "__main__":
    with open(PARSER_FIXTURE, "w") as handle:
        json.dump(parser_spec(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"captured {len(parser_spec())} parsers -> {PARSER_FIXTURE}")
