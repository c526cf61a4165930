"""The per-command argument parser against a fully populated one.

``cli.build_parser(argv)`` declares every command but gives arguments only to
the one argv names.  For fixed and seeded argv it must answer as a parser with
every command populated does: the same exit code, output and namespace.  An
argv that parses must then run through ``cli.main`` to an exit code of 0, 1
or 2 with a rendered body.  Everything runs in-process.
"""

import argparse
import contextlib
import io
import json
import random

import pytest

from coniveau import certificates, cli


def reference_parser():
    """Every command populated from the same table, with the output options
    shared through a parent parser."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, keywords in cli._OUTPUT_ARGS:
        common.add_argument(flag, **keywords)
    plain = cli.build_parser([])
    parser = argparse.ArgumentParser(prog=plain.prog, description=plain.description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def outcome(parser, argv):
    """(namespace dict or SystemExit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def check_argv(argv, outdir):
    """Compare the two parsers on argv; run cli.main when argv parses."""
    got = outcome(cli.build_parser(argv), argv)
    assert got == outcome(reference_parser(), argv), argv
    parsed = got[0]
    if not isinstance(parsed, dict):
        return
    out, err = io.StringIO(), io.StringIO()
    target = outdir / "out.txt"
    target.unlink(missing_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_MATH_FAIL, cli.EXIT_USAGE), argv
    assert err.getvalue() == "", argv
    text = out.getvalue() or target.read_text(encoding="utf-8")
    if parsed["format"] == "json":
        body = json.loads(text)
        assert body["command"] == parsed["command"] and body["exit_code"] == code, argv
    else:
        assert text.startswith("# report\n"), argv


FIXED = [
    [],
    ["-h"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["no-such-command"],
    ["--bogus", "hilbert", "g2", "--cap", "4"],
    ["hilbert", "g2", "--cap", "4", "--bogus"],
    ["hilbert", "g2", "--cap", "four"],
    ["rost"],
    ["--format", "json", "list"],
    ["--", "list"],
]


@pytest.mark.parametrize("argv", FIXED, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_matches_fully_populated(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("CONIVEAU_OUTPUT_DIR", str(tmp_path))
    check_argv(argv, tmp_path)


# (usual values, rare bad ones); small, so that every run that parses stays quick
VALUES = {
    "scenario": (tuple(certificates.FAMILIES), ("no-such-family",)),
    "--format": (("json", "markdown"), ("yaml",)),
    "--output": (("out.txt",), ()),
    "--I": (("1", "0,1", "1,2"), ("x",)),
    "--element": (("alpha", "x1", "w3", "x1*x2", "Q0(x1*x3)"), ("(x1",)),
    "--force-n1": (("4",), ("x",)),
    int: (("1", "2", "3"), ("-1", "0", "x")),
}
STRAYS = ("-h", "--bogus", "extra", "--", "list")


def fuzz_argv(rng):
    """A command from the table (or an unknown one) with a random subset of
    its arguments, mostly the parameters its family takes, sometimes a bad
    value, sometimes a stray token."""
    name = rng.choice((*cli._COMMANDS, "no-such-command"))
    arguments = cli._OUTPUT_ARGS + cli._COMMANDS.get(name, (None, None, ()))[2]
    argv = [name]
    family = None
    for flag, keywords in arguments:
        if flag in ("--p", "--n", "--m") and family is not None and rng.random() < 0.9:
            if flag[2:] not in family.required + family.optional:
                continue
        elif rng.random() < (0.05 if flag == "scenario" else 0.3):
            continue
        if keywords.get("action") == "store_true":
            argv.append(flag)
            continue
        usual, bad = VALUES[keywords.get("type", flag)]
        value = rng.choice(bad if bad and rng.random() < 0.1 else usual)
        if flag == "scenario":
            argv.append(value)
            family = certificates.FAMILIES.get(value)
        else:
            argv += [flag, value]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(STRAYS))
    return argv


def test_parser_matches_fully_populated_on_seeded_argv(tmp_path, monkeypatch):
    monkeypatch.setenv("CONIVEAU_OUTPUT_DIR", str(tmp_path))
    rng = random.Random(16)
    for _ in range(200):
        check_argv(fuzz_argv(rng), tmp_path)
