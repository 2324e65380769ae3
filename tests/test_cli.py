"""Tests for the command-line interface."""

import argparse
import json
import os

import pytest

from repro.cli import PROTOCOLS, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_command_returns_usage_error(self, capsys):
        assert main([]) == 2

    def test_version_flag_returns_zero(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        from repro._version import __version__

        assert out.strip() == f"repro {__version__}"

    def test_unknown_subcommand_returns_usage_error(self, capsys):
        # Consistent with in-command errors like an unknown figure name:
        # every bad invocation is exit code 2, returned (not raised).
        assert main(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "nope"])

    def test_unknown_option_returns_usage_error(self, capsys):
        assert main(["simulate", "--protocol", "nope"]) == 2


    def test_a_handlers_usage_error_is_returned_too(self, capsys):
        # _load_scenario raises SystemExit(2) from inside the handler.
        assert main(["scenario", "run"]) == 2
        assert "--name" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The flag surface, pinned at the commit before the flag groups were
# folded into shared helpers
# ----------------------------------------------------------------------
def cli_surface(parser, path=()):
    """Every parser action but help/version, one row each (no help text)."""
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows += cli_surface(sub, path + (name,))
        elif not isinstance(
            action, (argparse._HelpAction, argparse._VersionAction)
        ):
            choices = action.choices
            rows.append(
                {
                    "verb": " ".join(path),
                    "options": list(action.option_strings),
                    "dest": action.dest,
                    "default": action.default,
                    "type": getattr(action.type, "__name__", None),
                    "choices": None if choices is None else list(choices),
                    "nargs": action.nargs,
                    "required": action.required,
                    "const": action.const,
                    "metavar": action.metavar,
                    "action": type(action).__name__,
                }
            )
    return rows


#: What changed on purpose since the golden was dumped: `replay` takes
#: the protocols `simulate` takes, --addr/--target are parsed by the one
#: host:port parser, and a flag's dest is its callee's parameter name.
PERMITTED = {
    ("replay", "--protocol"): {"choices": list(PROTOCOLS)},
    ("metrics", "--addr"): {"type": "_parse_addr"},
    ("chaosproxy", "--target"): {"type": "_parse_addr"},
    ("simulate", "--initial"): {"dest": "initial_text"},
    ("serve", "--initial"): {"dest": "initial_text"},
    ("loadgen", "--initial"): {"dest": "initial_text"},
    ("fleet worker", "--initial"): {"dest": "initial_text"},
    ("connect", "--client"): {"dest": "client_id"},
    ("fleet worker", "--worker"): {"dest": "worker_id"},
    ("fleet route", "--lease"): {"dest": "lease_seconds"},
    ("fleet loadgen", "--lease"): {"dest": "lease_seconds"},
    ("fleet route", "--heartbeat"): {"dest": "heartbeat_interval"},
    ("fleet loadgen", "--heartbeat"): {"dest": "heartbeat_interval"},
}


def _by_flag(rows):
    return {
        (row["verb"], (row["options"] or [row["dest"]])[0]): row
        for row in rows
    }


def test_the_surface_is_what_it_was():
    golden_path = os.path.join(os.path.dirname(__file__), "cli_surface.json")
    with open(golden_path, encoding="utf-8") as handle:
        golden = _by_flag(json.load(handle))
    assert len(golden) == 188
    assert len({verb for verb, _flag in golden}) == 22
    for flag, changed in PERMITTED.items():
        golden[flag] = {**golden[flag], **changed}
    assert _by_flag(cli_surface(build_parser())) == golden


def test_protocols_are_the_cluster_registry():
    # PROTOCOLS is a literal so that building the parser imports no
    # protocol module; this is what keeps it honest.
    from repro.jupiter import cluster

    registry = set(cluster._PROTOCOLS) | set(cluster._crdt_protocols())
    assert set(PROTOCOLS) == registry | {"css-gc"}
    assert len(PROTOCOLS) == len(set(PROTOCOLS))


def test_announce_banners_keep_their_keys():
    # Coordinators (and operators' scripts) parse these lines.
    from repro.net.loadgen import _spawn

    nowhere = "127.0.0.1:1"  # dialled lazily, never reached here
    banners = {
        "REPRO-SERVE": (["serve"], {"host", "port", "replica", "docs"}),
        "REPRO-FLEET-ROUTER": (["fleet", "route"], {"host", "port"}),
        "REPRO-FLEET-WORKER": (
            ["fleet", "worker", "--worker", "w0", "--router", nowhere],
            {"worker", "host", "port"},
        ),
        "REPRO-CHAOSPROXY": (
            ["chaosproxy", "--target", nowhere],
            {"host", "port", "target", "plan"},
        ),
    }
    processes = {
        marker: _spawn([*command, "--port", "0", "--announce"])
        for marker, (command, _keys) in banners.items()
    }
    try:
        lines = {m: p.stdout.readline() for m, p in processes.items()}
    finally:
        for process in processes.values():
            process.kill()
            process.communicate()
    for marker, (_command, keys) in banners.items():
        assert lines[marker].startswith(marker + " "), lines[marker]
        banner = json.loads(lines[marker][len(marker) + 1:])
        assert set(banner) == keys, marker
        assert banner["port"] > 0


class TestFiguresCommand:
    def test_single_figure(self, capsys):
        assert main(["figures", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "'effect'" in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figures", "figure99"]) == 2

    def test_all_figures_by_default(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1", "figure2", "figure6", "figure7", "figure8"):
            assert name in out

    def test_figure7_reports_strong_violation(self, capsys):
        assert main(["figures", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "strong list specification (Def. 3.2): VIOLATED" in out
        assert "weak list specification (Def. 3.3): SATISFIED" in out


class TestSimulateCommand:
    def test_css_simulation_succeeds(self, capsys):
        code = main(
            ["simulate", "--protocol", "css", "--operations", "12",
             "--latency", "lan"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "OTs=" in out

    def test_crdt_simulation_succeeds(self, capsys):
        code = main(
            ["simulate", "--protocol", "rga", "--operations", "12",
             "--latency", "lan"]
        )
        assert code == 0

    def test_initial_document(self, capsys):
        code = main(
            ["simulate", "--operations", "6", "--initial", "hello",
             "--latency", "lan"]
        )
        assert code == 0


class TestCompareCommand:
    def test_default_protocol_set(self, capsys):
        code = main(["compare", "--operations", "10", "--latency", "lan"])
        assert code == 0
        out = capsys.readouterr().out
        for protocol in ("css", "cscw", "classic", "rga", "logoot", "woot"):
            assert protocol in out

    def test_subset_of_protocols(self, capsys):
        code = main(
            ["compare", "--protocols", "css", "classic",
             "--operations", "8", "--latency", "lan"]
        )
        assert code == 0


class TestEquivalenceCommand:
    def test_reports_all_propositions(self, capsys):
        code = main(["equivalence", "--operations", "14", "--latency", "lan"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 7.1" in out
        assert "Proposition 6.6" in out
        assert "Proposition 7.2" in out
        assert "Proposition 7.4" in out


class TestChaosCommand:
    def test_chaos_sweep_passes(self, capsys):
        code = main(
            ["chaos", "--plans", "2", "--seed", "7", "--operations", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos[css]: 2 fault plans, 0 failure(s)" in out
        assert "converged" in out  # the per-plan table header

    def test_chaos_server_crash_sweep_passes(self, capsys):
        code = main(
            ["chaos", "--plans", "2", "--seed", "7", "--operations", "10",
             "--server-crash"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos[css]: 2 fault plans, 0 failure(s)" in out
        assert "scrash" in out  # the server-crash column is reported

    def test_server_crash_requires_css(self, capsys):
        code = main(
            ["chaos", "--protocol", "cscw", "--plans", "1", "--server-crash"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "--server-crash requires --protocol css" in out

    def test_chaos_on_cscw_skips_crashes(self, capsys):
        code = main(
            ["chaos", "--protocol", "cscw", "--plans", "1",
             "--operations", "8", "--no-replay"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos[cscw]" in out


class TestDcssCommand:
    def test_dcss_runs(self, capsys):
        code = main(["dcss", "--operations", "10", "--latency", "lan"])
        assert code == 0
        out = capsys.readouterr().out
        assert "state-spaces identical: True" in out
