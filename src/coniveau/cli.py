"""Command-line front end: scenario loading, verification runs, tables.

Exit codes: 0 = all requested certificates verified / tables consistent,
1 = a mathematical check failed (uncertified verdict, rank mismatch, failed
regularity), 2 = input or configuration error.  Reports are deterministic:
identical inputs produce byte-identical output (no timestamps, stable field
order).
"""

from __future__ import annotations

import os
import sys
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import SimpleNamespace

from . import certificates as certs
from . import motivic
from .fp import FpAlgebraError
from .milnor import QAction, validate_q_axioms
from .parser import ParseError, parse_presentation, render_presentation

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _resolve_scenario(args):
    sel = args.scenario
    params = {k: getattr(args, k) for k in ("p", "n", "m") if getattr(args, k) is not None}
    if os.sep in sel or sel.endswith(".pres") or os.path.exists(sel):
        if params:
            # the file fixes its own prime and generators
            flags = ", ".join(f"--{k}" for k in sorted(params))
            raise UsageError(f"presentation file {sel!r} takes no {flags}")
        return _load_user_scenario(sel)
    if sel not in certs.FAMILIES:
        raise UsageError(f"unknown scenario {sel!r} (see `coniveau list`)")
    return certs.get_scenario(sel, **params)


def _load_user_scenario(path: str) -> certs.Scenario:
    search = [os.getcwd()] + os.environ.get("CONIVEAU_SCENARIO_PATH", "").split(os.pathsep)
    resolved = None
    for base in search:
        cand = os.path.join(base, path) if base else path
        if os.path.exists(cand):
            resolved = cand
            break
    if resolved is None:
        raise UsageError(f"scenario file not found: {path}")
    try:
        with open(resolved, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read scenario file {resolved}: {exc.strerror}")
    data = parse_presentation(text)
    pres = data.presentation
    action = None
    if data.max_q_index >= 0:
        table = {(i, g): v for (i, g), v in data.q_table.items()}
        action = QAction(pres, table=table, max_index=data.max_q_index)
        report = validate_q_axioms(action)
        if not report.ok:
            raise UsageError(
                f"operation table fails validation: {report.first_counterexample()}"
            )
    stable = None
    stable_top = 0
    if data.n1:
        stable = partial(pres.quotient, list(data.n1.values()))
        stable_top = min(pres.degree_cap, 16)
    return certs.Scenario(
        name=os.path.basename(resolved),
        kind="user",
        group="user scenario",
        presentation=pres,
        detect_pres=pres,
        q_action=action,
        chern_flags=data.chern,
        build_aliases=data.aliases.copy,
        build_stable=stable,
        stable_top=stable_top,
        stable_note="quotient by the declared coniveau classes",
        canonical_text=render_presentation(pres, data.q_table, data.aliases, data.chern, data.n1),
    )


# -- commands -------------------------------------------------------------------


def _cmd_list(args) -> tuple[int, dict]:
    body = {
        "scenarios": [build().header() for build in certs.builtin_scenarios().values()],
        "quadrics": [f"rost --n {n}" for n in (2, 3, 4)],
    }
    return EXIT_OK, body


def _cmd_verify(args) -> tuple[int, dict]:
    scenario = _resolve_scenario(args)
    sequence = _parse_indices(args.I) if args.I else None
    cert = scenario.verify(args.element, sequence)
    body = {"scenario": scenario.header(), "certificate": cert.to_dict()}
    ok = cert.verdict == certs.NOT_IN_STRONG_CONIVEAU
    return (EXIT_OK if ok else EXIT_MATH_FAIL), body


def _cmd_dh_table(args) -> tuple[int, dict]:
    scenario = _resolve_scenario(args)
    table = scenario.dh_table(args.cap)
    return EXIT_OK, {"scenario": scenario.header(), "dh_table": table.to_dict()}


def _cmd_stable_quotient(args) -> tuple[int, dict]:
    scenario = _resolve_scenario(args)
    sq = scenario.stable_quotient()
    return EXIT_OK, {"scenario": scenario.header(), "stable_quotient": sq.to_dict()}


def _cmd_hilbert(args) -> tuple[int, dict]:
    scenario = _resolve_scenario(args)
    return EXIT_OK, {"scenario": scenario.header(), "hilbert": scenario.hilbert(args.cap)}


def _cmd_qop(args) -> tuple[int, dict]:
    scenario = _resolve_scenario(args)
    sequence = _parse_indices(args.I) if args.I is not None else None
    return EXIT_OK, {"scenario": scenario.header(), "qop": scenario.qop(args.element, sequence)}


def _cmd_rost(args) -> tuple[int, dict]:
    n = args.n
    if n is None or n < 2:
        raise UsageError("rost requires --n >= 2")
    force = tuple(_parse_indices(args.force_n1)) if args.force_n1 else ()
    body = quadric_report(n, force)
    ok = body["dh_check"]["verdict"] == "DH=0" and body["rank_check"] == "ok"
    return (EXIT_OK if ok else EXIT_MATH_FAIL), body


def quadric_report(n: int, force=()) -> dict:
    rost = motivic.rost_etale_ring(n)
    quadric = motivic.quadric_etale_ring(n)  # validates ranks, raises on mismatch
    unram = motivic.unramified_quotient_quadric(n)
    check = motivic.dh_quadric_check(n, force_n1=force)
    degrees = range(0, quadric.max_degree() + 1, 2)

    def rank_rows():
        for d in degrees:
            free_rank, torsion_dim = quadric.ranks(d)
            yield {
                "degree": d,
                "free_rank": free_rank,
                "torsion_dim": torsion_dim,
                "flags": quadric.flagged.names(d),
            }

    return {
        "n": n,
        "rost_ring": _ring_dict(rost),
        "quadric_ring": _ring_dict(quadric),
        "rank_check": "ok",
        # a row per degree, made as the report is written
        "rank_table": motivic.Lazy(len(degrees), rank_rows),
        "unramified_quotient": {
            "free": [list(b) for b in unram.free_basis],
            "torsion": [list(b) for b in unram.torsion_basis],
        },
        "n1_checks": [
            {
                "degree": v.s,
                "in_n1": v.in_n1,
                "candidate": v.candidate,
                "obstruction": v.obstruction,
                "reason": v.reason,
            }
            for v in check.torsion_checks
        ],
        "dh_check": {"verdict": check.verdict, "detail": check.detail},
    }


def _ring_dict(ring: motivic.EtaleRing) -> dict:
    return {
        "free": ring.free_basis,
        "torsion": ring.torsion_basis,
        "relations": ring.relations,
        "minimal_relations": ring.minimal_relations,
        "algebraic": ring.algebraic,
        "notes": ring.notes,
    }


def _cmd_report(args) -> tuple[int, dict]:
    if not args.all:
        raise UsageError("report currently supports --all only")
    failures = []
    sections = []
    for key, build in sorted(certs.builtin_scenarios().items()):
        section, problems = build().report_section()
        failures += [f"{key}: {problem}" for problem in problems]
        sections.append(section)

    regular, _, pair = certs.comparison_regular_pair(3, 40)
    if not regular.regular:
        failures.append("comparison kernel pair is not regular through degree 40")
    extraspecial = {
        "regular_pair": {
            "elements": [str(g) for g in pair],
            "verdict": regular.describe(),
            "quotient_series": list(regular.quotient_series),
        }
    }

    quadrics = []
    for n in (2, 3, 4):
        try:
            body = quadric_report(n)
        except motivic.RankMismatchError as exc:
            failures.append(str(exc))
            continue
        if body["dh_check"]["verdict"] != "DH=0":
            failures.append(f"quadric n={n}: {body['dh_check']['verdict']}")
        quadrics.append(body)

    body = {
        "sections": sections,
        "extraspecial_checks": extraspecial,
        "quadrics": quadrics,
        "failures": failures,
        "status": "ok" if not failures else "failed",
    }
    return (EXIT_OK if not failures else EXIT_MATH_FAIL), body


# -- rendering ---------------------------------------------------------------------


def _render(body: dict, fmt: str) -> _Report:
    return _Report(body, fmt)


# at each spill, either writer writes its pieces out once they hold this
# many characters; a batch holds up to _BATCH items
FLUSH_SIZE = 1 << 15
_BATCH = 1024
_SEQUENCES = (list, tuple, motivic.Lazy)  # what both writers take for a sequence


class _Report:
    """A report rendered afresh on each ``write_to``, where either writer
    spills its text in pieces, so a body's lazy sequences are never held whole."""

    def __init__(self, body: dict, fmt: str):
        self.body, self.fmt = body, fmt

    def write_to(self, write) -> None:
        out = _Pieces(write)
        if self.fmt == "json":
            _json(self.body, "\n", out)
            out.append("\n")
        else:
            _markdown(self.body, "report", 1, out)
        out.flush()

    def __str__(self) -> str:
        pieces: list[str] = []
        self.write_to(pieces.append)
        return "".join(pieces)

    def encode(self) -> bytes:
        # the benchmark's tracer counts len(encode()) as the bytes written
        return str(self).encode()


class _Pieces(list):
    """Text pieces on their way to ``write``.  Both writers call ``spill``
    after each batch, table row or nested item, which writes the pieces out
    joined once they hold FLUSH_SIZE characters; the rest goes at the end."""

    __slots__ = ("write", "size", "counted")

    def __init__(self, write):
        super().__init__()
        self.write = write
        self.size = self.counted = 0  # characters in the first ``counted`` pieces

    def spill(self) -> None:
        self.size += sum(map(len, self[self.counted:]))
        self.counted = len(self)
        if self.size >= FLUSH_SIZE:
            self.flush()

    def flush(self) -> None:
        if self:
            self.write("".join(self))
            self.clear()
        self.size = self.counted = 0


# one-step encoders for a column of JSON scalars of a single exact type
_COLUMN_TEXT = {str: encode_basestring_ascii, int: int.__repr__}
# and for a dict value of one of these exact types
_SCALAR_TEXT = {
    **_COLUMN_TEXT,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(obj, pad: str, out: _Pieces) -> None:
    """Append ``json.dumps(obj, indent=2)`` for obj nested at the line break
    and indentation ``pad`` to out, for str-keyed dicts, lists, tuples,
    ``motivic.Lazy`` sequences, str, int, bool and None.  A list of scalars,
    or of equally long scalar lists (the ``[name, degree]`` pairs), is
    joined in one step per one-type column; a lazy sequence is encoded a
    batch at a time, each batch as a list, with a spill after each."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        head = "{" + inner
        for k, v in obj.items():
            # a key that is no str raises TypeError in encode_basestring_ascii
            key = head + encode_basestring_ascii(k) + ": "
            scalar = _SCALAR_TEXT.get(type(v))
            if scalar is None:
                out.append(key)
                _json(v, inner, out)
            else:
                out.append(key + scalar(v))
            head = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        _items(obj, pad + "  ", "[", out)
        out.append(pad + "]")
    elif isinstance(obj, motivic.Lazy):
        # batches serve the one-step column paths; a dict takes the general
        # path whatever its neighbours, and a batch of dicts (the rank rows)
        # would hold all their contents at once, so it goes alone
        inner, head, items = pad + "  ", "[", iter(obj)
        for first in items:
            if isinstance(first, dict):
                out.append(head + inner)
                _json(first, inner, out)
            else:
                _items([first, *islice(items, _BATCH - 1)], inner, head, out)
            head = ","
            out.spill()
        out.append("[]" if head == "[" else pad + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _items(values, inner: str, head: str, out: _Pieces) -> None:
    """Append head and the JSON texts of a nonempty list of values at the
    indentation ``inner``, each after a line break, separated by commas."""
    sep = "," + inner
    text = _column(values)
    if text is not None:
        out.append(head + inner + sep.join(text))
        return
    if set(map(type, values)) <= {list, tuple} and len(set(map(len, values))) == 1:
        # rows of one length k >= 1: each column in one step, each row in one join
        columns = [_column(list(map(itemgetter(c), values))) for c in range(len(values[0]))]
        if columns and None not in columns:
            first, last = "[" + inner + "  ", inner + "]"
            rows = map(("," + inner + "  ").join, zip(*columns))
            out.append(head + inner + first + (last + sep + first).join(rows) + last)
            return
    for x in values:
        out.append(head + inner)
        _json(x, inner, out)
        head = ","


def _column(values):
    """The JSON texts of values if all are of type str or all of type int,
    else None."""
    kinds = set(map(type, values))
    encode = _COLUMN_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    return None if encode is None else map(encode, values)


def _item_title(x: dict) -> str:
    for key in ("label", "name", "element"):
        if isinstance(x.get(key), str):
            return x[key]
    scenario = x.get("scenario")
    if isinstance(scenario, dict) and isinstance(scenario.get("name"), str):
        return scenario["name"]
    if isinstance(x.get("n"), int):
        return f"n={x['n']}"
    return "entry"


def _markdown(obj, title: str, depth: int, out: _Pieces) -> None:
    """Append the markdown of obj, a section ``title`` at heading level
    ``depth``, to out, with a spill after each table row, nested item and batch."""
    if not isinstance(obj, (dict, *_SEQUENCES)):
        out.append(f"- **{title}**: {obj}\n")
        return
    if title:
        out.append("#" * min(depth, 6) + " " + title + "\n")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _markdown(v, k, depth + 1, out)
    elif obj and all(isinstance(x, dict) for x in obj):
        # a table of the items' scalar fields, then a section per item of the rest
        keys = sorted({k for x in obj for k in x if not isinstance(x[k], (dict, *_SEQUENCES))})
        if keys:
            out.append("| " + " | ".join(keys) + " |\n|" + "---|" * len(keys) + "\n")
            for x in obj:
                out.append("| " + " | ".join(str(x.get(k, "")) for k in keys) + " |\n")
                out.spill()
        for x in obj:
            nested = {k: v for k, v in x.items() if isinstance(v, (dict, *_SEQUENCES)) and v}
            if nested:
                _markdown(nested, _item_title(x), depth + 1, out)
                out.spill()
    else:
        head, items = "", iter(obj)
        for first in items:
            out.append(head + ", ".join(map(str, [first, *islice(items, _BATCH - 1)])))
            head = ", "
            out.spill()
        out.append("\n" if head else "(empty)\n")


# -- entry point --------------------------------------------------------------------


# every command's arguments follow these two, as (flag, keywords) pairs; the
# keywords are argparse's, limited to the ones ``_parse_from_table`` also
# reads: help, type (raising ValueError), default, choices, required and
# action="store_true"
_OUTPUT_ARGS = (
    ("--format", {"choices": ("json", "markdown"), "default": "json"}),
    ("--output", {"help": "write the report to a file instead of stdout"}),
)
_SCENARIO_ARGS = (
    ("scenario", {"help": "family name or presentation file"}),
    ("--p", {"type": int, "help": "prime parameter"}),
    ("--n", {"type": int, "help": "rank parameter"}),
    ("--m", {"type": int, "help": "rank parameter (special orthogonal)"}),
)
_ELEMENT_ARGS = (
    ("--I", {"help": "comma-separated operation indices"}),
    ("--element", {"help": "class name or polynomial expression"}),
)

# name -> (help, handler, arguments), in the order the help lists them
_COMMANDS = {
    "list": ("list built-in scenarios", _cmd_list, ()),
    "verify": ("issue a certificate", _cmd_verify, _SCENARIO_ARGS + _ELEMENT_ARGS),
    "dh-table": ("emit the candidate certificate table", _cmd_dh_table, _SCENARIO_ARGS + (
        ("--cap", {"type": int, "help": "skip candidates above this degree"}),
    )),
    "stable-quotient": ("declared coniveau quotient", _cmd_stable_quotient, _SCENARIO_ARGS),
    "hilbert": ("graded dimensions of the scenario ring", _cmd_hilbert, _SCENARIO_ARGS + (
        ("--cap", {"type": int}),
    )),
    "qop": ("apply an operation sequence", _cmd_qop, _SCENARIO_ARGS + _ELEMENT_ARGS),
    "rost": ("quadric / motive reconstruction and checks", _cmd_rost, (
        ("--n", {"type": int, "required": True, "help": "quadric parameter, 2 <= n <= "
                 f"{motivic.MAX_QUADRIC_N} (dimension 2^n - 1)"}),
        ("--force-n1", {"help": "testing hook: force membership"}),
    )),
    "report": ("full reproduction run", _cmd_report, (("--all", {"action": "store_true"}),)),
}


def build_parser():
    """The argparse parser for every command.  ``main`` builds it only for
    an argv that ``_parse_from_table`` leaves alone, so argparse is the one
    place that prints usage, help and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="coniveau",
        description="exact mod-p coniveau / stable-rationality certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in _OUTPUT_ARGS + arguments:
            p.add_argument(flag, **keywords)
    return parser


def _parse_from_table(argv):
    """The namespace argparse gives for a well-formed argv, read off the
    command table, or None.  Taken as is: the command first, then exact
    ``--flag value`` pairs, ``store_true`` flags and the declared
    positionals, in any order; a repeated flag's last value wins.  Anything
    else -- help, an unknown, abbreviated or ``--flag=value`` option, ``--``,
    an empty value or one starting with "-", a bad ``int`` or choice, a
    missing or extra positional, a missing required flag -- is None, and
    argparse answers it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _OUTPUT_ARGS + _COMMANDS[argv[0]][2]
    options = {flag: keywords for flag, keywords in arguments if flag.startswith("-")}
    positionals = [flag for flag, _ in arguments if not flag.startswith("-")]
    values = {"command": argv[0]}
    for flag, keywords in arguments:
        store_true = keywords.get("action") == "store_true"
        values[_dest(flag)] = False if store_true else keywords.get("default")
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not token or not positionals:
                return None
            flag, value = positionals.pop(0), token
        elif token not in options:
            return None
        elif options[token].get("action") == "store_true":
            flag, value = token, True
        else:
            flag, value, keywords = token, next(tokens, ""), options[token]
            if not value or value.startswith("-"):
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[_dest(flag)] = value
    # a given value is never None, so a required flag still at None is missing
    missing = [f for f, k in options.items() if k.get("required") and values[_dest(f)] is None]
    if positionals or missing:
        return None
    return SimpleNamespace(**values)


def _dest(flag: str) -> str:
    """argparse's attribute name for a flag or positional."""
    return flag.lstrip("-").replace("-", "_")


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in str(text).split(",") if x != "")
    except ValueError:
        raise UsageError(f"bad index list {text!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_from_table(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    body = {"schema_version": SCHEMA_VERSION, "command": args.command}
    try:
        code, payload = _COMMANDS[args.command][1](args)
        body.update(payload)
    except UsageError as exc:
        body["error"] = str(exc)
        code = EXIT_USAGE
    except ParseError as exc:
        body["error"] = f"parse error: {exc}"
        code = EXIT_USAGE
    except motivic.RankMismatchError as exc:
        body["error"] = str(exc)
        code = EXIT_MATH_FAIL
    except (FpAlgebraError, motivic.MotivicError, ValueError) as exc:
        body["error"] = str(exc)
        code = EXIT_USAGE
    body["exit_code"] = code
    text = _render(body, args.format)
    if args.output:
        target = args.output
        outdir = os.environ.get("CONIVEAU_OUTPUT_DIR")
        if outdir and not os.path.isabs(target):
            target = os.path.join(outdir, target)
        try:
            with open(target, "w", encoding="utf-8") as fh:
                text.write_to(fh.write)
        except OSError as exc:
            # the body goes to stdout instead, with the write failure
            problem = f"cannot write --output {target}: {exc.strerror}"
            body["error"] = "; ".join(filter(None, (body.get("error"), problem)))
            del body["exit_code"]  # keep it the last field
            body["exit_code"] = code = EXIT_USAGE
            text = _render(body, args.format)
        else:
            return code
    text.write_to(sys.stdout.write)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
