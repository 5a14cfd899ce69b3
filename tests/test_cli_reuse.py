"""`xq.cli.run` builds its argument parser once per process; consecutive
calls must not see each other's options, errors or replaced handlers."""

import argparse

import pytest

from xq import cli
from xq.structfile import serialize_structure

from test_structure_kinds import _qm


@pytest.fixture
def qm_file(tmp_path):
    """A qm file, the one kind whose check samples and records its count."""
    path = tmp_path / "qm.json"
    path.write_text(serialize_structure({"version": "1", "kind": "qm", "body": _qm()}))
    return str(path)


def test_samples_fall_back_to_the_default_after_an_explicit_value(
        qm_file, monkeypatch, capsys):
    monkeypatch.delenv("XQ_SEED", raising=False)
    assert cli.run(["check", qm_file, "--samples", "0", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "  samples: 0\n  seed: 3\n" in out
    assert cli.run(["check", qm_file]) == 0
    out = capsys.readouterr().out
    assert "  samples: 200\n  seed: 0\n" in out


@pytest.mark.parametrize("argv,code", [
    pytest.param(["check"], 2, id="missing-argument"),
    pytest.param(["check", "x.json", "--samples", "many"], 2, id="bad-int"),
    pytest.param(["frobnicate"], 2, id="unknown-command"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["homotopic", "--help"], 0, id="subcommand-help"),
])
def test_a_command_after_an_exit_still_runs(qm_file, capsys, argv, code):
    assert cli.run(argv) == code
    capsys.readouterr()
    assert cli.run(["check", qm_file, "--samples", "5"]) == 0
    out, err = capsys.readouterr()
    assert "  samples: 5\n" in out
    assert out.endswith("OK\n")
    assert err == ""


def test_a_replaced_handler_is_the_one_called(qm_file, monkeypatch, capsys):
    assert cli.run(["check", qm_file, "--samples", "1"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "_cmd_check",
                        lambda args: seen.append(args.samples) or 7)
    assert cli.run(["check", qm_file, "--samples", "4"]) == 7
    assert seen == [4]
    monkeypatch.undo()
    assert cli.run(["check", qm_file, "--samples", "1"]) == 0
    assert capsys.readouterr().out.endswith("OK\n")


def test_the_parser_is_built_once_across_calls(qm_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "xq":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        for argv in (["check", qm_file, "--samples", "1"], ["frobnicate"],
                     ["--help"], ["check", qm_file],
                     ["s2xs2", "monoid"]):
            cli.run(argv)
        capsys.readouterr()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
