"""What ``cli.main`` parses against a fully populated argparse parser.

``cli.main`` reads a well-formed argv off the command table and hands every
other argv to ``cli.build_parser``.  For fixed and seeded argv, what main
parses must be what a parser with every command populated gives: the same
namespace, or the same exit code, output and errors.  Forms the table
leaves to argparse (``--n=3``, abbreviations, values starting with "-")
must reach argparse even where argparse accepts them.  An argv that parses
must then run through ``cli.main`` to an exit code of 0, 1 or 2 with a
rendered body.  Everything runs in-process.
"""

import argparse
import contextlib
import io
import json
import random
from unittest import mock

import pytest

from coniveau import certificates, cli


def reference_parser():
    """Every command populated from the same table, with the output options
    shared through a parent parser."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, keywords in cli._OUTPUT_ARGS:
        common.add_argument(flag, **keywords)
    plain = cli.build_parser()
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


class Parsed(Exception):
    """Raised by a stand-in command with the namespace main handed it."""


def main_outcome(argv):
    """What cli.main parses from argv, in the shape of ``outcome``: every
    command is replaced by one that raises ``Parsed``."""

    def record(args):
        raise Parsed(vars(args))

    stand_ins = {name: (h, record, a) for name, (h, _, a) in cli._COMMANDS.items()}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._COMMANDS, stand_ins), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            try:
                cli.main(argv)
                raise AssertionError(f"{argv}: main ran no command")
            except Parsed as exc:
                result = exc.args[0]
            except SystemExit as exc:
                result = exc.code
    return result, out.getvalue(), err.getvalue()


def check_argv(argv, outdir):
    """Compare main's parse of argv with the reference parser's; run
    cli.main when argv parses."""
    got = main_outcome(argv)
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


# argv that only argparse answers, though it accepts most of them
DECLINED = [
    ["rost", "--n=3"],
    ["verify", "g2", "--elem", "x1"],
    ["hilbert", "elementary", "--p", "-1", "--n", "2"],
    ["qop", "g2", "--I", "0", "--element", "-"],
    ["qop", "g2", "--I", "0", "--element", ""],
    ["qop", "g2", "--element", "--I", "0"],
    ["hilbert", "g2", "--cap"],
    ["hilbert", "g2", "--", "--cap", "4"],
    ["hilbert", "g2", "--cap", "4", "g2"],
    ["hilbert", "--cap", "4"],
    ["dh-table", "g2", "--format", "yaml"],
    ["report", "--all", "extra"],
    ["rost", "--force-n1", "4"],
    ["--format", "json", "list"],
    ["--", "list"],
    ["verify", "g2", "--I", "1", "-h"],
]

# well-formed argv, which the table reads without argparse
TAKEN = [
    ["list"],
    ["verify", "g2", "--I", "1"],
    ["hilbert", "--cap", "4", "g2"],
    ["hilbert", "g2", "--cap", "9", "--cap", "4"],
    ["verify", "--format", "markdown", "--format", "json", "g2", "--element", "Q0(x1*x3)"],
    ["rost", "--force-n1", "4", "--n", "2"],
    ["report"],
]

FIXED = [
    [],
    ["-h"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["no-such-command"],
    ["--bogus", "hilbert", "g2", "--cap", "4"],
    ["hilbert", "g2", "--cap", "4", "--bogus"],
    ["hilbert", "g2", "--cap", "four"],
    ["rost"],
    *DECLINED,
    *TAKEN,
]


@pytest.mark.parametrize("argv", FIXED, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_matches_fully_populated(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("CONIVEAU_OUTPUT_DIR", str(tmp_path))
    check_argv(argv, tmp_path)


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_table_leaves_other_forms_to_argparse(argv):
    assert cli._parse_from_table(argv) is None


@pytest.mark.parametrize("argv", TAKEN, ids=" ".join)
def test_table_takes_well_formed_argv(argv):
    assert cli._parse_from_table(argv) is not None


# (usual values, rare bad ones); small, so that every run that parses stays quick
VALUES = {
    "scenario": (tuple(certificates.FAMILIES), ("no-such-family",)),
    "--format": (("json", "markdown"), ("yaml",)),
    "--output": (("out.txt",), ()),
    "--I": (("1", "0,1", "1,2"), ("x", "-1")),
    "--element": (("alpha", "x1", "w3", "x1*x2", "Q0(x1*x3)"), ("(x1", "-", "", "--I")),
    "--force-n1": (("4",), ("x",)),
    int: (("1", "2", "3"), ("-1", "0", "x")),
}
# token runs put in at a random place, on their own or splitting a pair
STRAYS = (
    ("-h",), ("--bogus",), ("extra",), ("--",), ("list",), ("--n=3",), ("--elem", "x1"),
    ("--format", "markdown"), ("--p", "-1"),
)


def fuzz_argv(rng):
    """A command from the table (or an unknown one) with a random subset of
    its arguments, mostly the parameters its family takes, sometimes a bad
    value, sometimes a stray run of tokens.  Returns the argv and whether it
    has neither a bad value nor a stray."""
    name = rng.choice((*cli._COMMANDS, "no-such-command"))
    arguments = cli._OUTPUT_ARGS + cli._COMMANDS.get(name, (None, None, ()))[2]
    argv = [name]
    clean = name in cli._COMMANDS
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
        if bad and rng.random() < 0.1:
            value, clean = rng.choice(bad), False
        else:
            value = rng.choice(usual)
        if flag == "scenario":
            argv.append(value)
            family = certificates.FAMILIES.get(value)
        else:
            argv += [flag, value]
    if rng.random() < 0.1:
        at = rng.randrange(len(argv) + 1)
        argv[at:at] = rng.choice(STRAYS)
        clean = False
    return argv, clean


def test_parser_matches_fully_populated_on_seeded_argv(tmp_path, monkeypatch):
    monkeypatch.setenv("CONIVEAU_OUTPUT_DIR", str(tmp_path))
    rng = random.Random(16)
    taken = 0
    for _ in range(200):
        argv, clean = fuzz_argv(rng)
        check_argv(argv, tmp_path)
        # a clean argv that argparse accepts never needs argparse
        if clean and isinstance(outcome(reference_parser(), argv)[0], dict):
            assert cli._parse_from_table(argv) is not None, argv
            taken += 1
    assert taken >= 100
