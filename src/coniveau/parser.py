"""Declarative text format for presentations and operation tables.

Grammar (one statement per line, '#' starts a comment):

    prime P
    cap N
    gen NAME DEGREE [even|odd] [weight W]
    rel EXPR
    Q I NAME = EXPR
    alias NAME = EXPR
    chern NAME = EXPR
    n1 NAME = EXPR

``prime`` and ``cap`` must precede the first ``gen``; generators must
precede any expression line.  Expressions are polynomial: names, integer
literals, ``+ - * ^`` and parentheses nested at most ``MAX_NESTING`` deep.
All errors carry line/column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .fp import Element, Generator, GradedPresentation, check_prime


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class PresentationFile:
    """Parsed contents of a presentation file."""

    presentation: GradedPresentation
    q_table: dict = field(default_factory=dict)  # (index, gen name) -> Element
    aliases: dict = field(default_factory=dict)
    chern: dict = field(default_factory=dict)
    n1: dict = field(default_factory=dict)
    max_q_index: int = -1


# each level of parentheses costs the recursive-descent parser four stack
# frames, so this keeps a nested expression well inside the interpreter's
# recursion limit
MAX_NESTING = 100

_NAME = r"[A-Za-z_][A-Za-z_0-9']*"  # a generator, alias or flag name
_TOKEN = re.compile(rf"(\d+)|({_NAME})|([+\-*^()])")


def _tokenize(text: str, line: int, col0: int):
    """(token, column) pairs, closed by ("", the column past the last character)."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col0 + pos + 1)
        tokens.append((m.group(0), col0 + pos + 1))
        pos = m.end()
    tokens.append(("", col0 + len(text.rstrip()) + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser for polynomial expressions."""

    def __init__(self, pres: GradedPresentation, names: dict, tokens, line: int):
        self.pres = pres
        self.names = names  # name -> Element (generators plus aliases)
        self.tokens = tokens
        self.line = line
        self.i = 0
        self.depth = 0  # parentheses open around the current token

    def _peek(self):
        return self.tokens[self.i][0]

    def _next(self):
        tok = self.tokens[self.i]
        if not tok[0]:
            raise ParseError("unexpected end of expression", self.line, tok[1])
        self.i += 1
        return tok

    def parse(self) -> Element:
        e = self._expr()
        tok, col = self.tokens[self.i]
        if tok:
            raise ParseError(f"unexpected token {tok!r}", self.line, col)
        return e

    def _expr(self) -> Element:
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._next()[0] == "-" else 1
        out = sign * self._term()
        while self._peek() in ("+", "-"):
            op = self._next()[0]
            t = self._term()
            out = out + t if op == "+" else out - t
        return out

    def _term(self) -> Element:
        out = self._factor()
        while self._peek() == "*":
            self._next()
            out = out * self._factor()
        return out

    def _factor(self) -> Element:
        base = self._atom()
        if self._peek() == "^":
            self._next()
            tok, col = self._next()
            if not tok.isdigit():
                raise ParseError("expected integer exponent", self.line, col)
            return base ** int(tok)
        return base

    def _atom(self) -> Element:
        tok, col = self._next()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.line, col)
            self.depth += 1
            e = self._expr()
            tok2, col2 = self._next()
            if tok2 != ")":
                raise ParseError("expected ')'", self.line, col2)
            self.depth -= 1
            return e
        if tok.isdigit():
            return int(tok) * self.pres.one()
        if tok in self.names:
            return self.names[tok]
        raise ParseError(f"unknown name {tok!r}", self.line, col)


def parse_expression(pres: GradedPresentation, names: dict, text: str, line=1, col0=0) -> Element:
    """The element ``text`` names, at column ``col0`` + 1 of its line."""
    return _ExprParser(pres, names, _tokenize(text, line, col0), line).parse()


def parse_presentation(text: str) -> PresentationFile:
    prime = None
    cap = None
    gens: list[Generator] = []
    rel_lines: list[tuple[int, str, int]] = []  # (line, text after "rel", its offset)
    post_lines: list[tuple[int, list]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        words = line.split()
        head = words[0]
        if head == "prime":
            if gens:
                raise ParseError("'prime' must precede generators", lineno, 1)
            prime = _int_field(words, 1, lineno, "prime")
            try:
                check_prime(prime)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, line.index(words[1], indent + 5) + 1) from None
        elif head == "cap":
            if gens:
                raise ParseError("'cap' must precede generators", lineno, 1)
            cap = _int_field(words, 1, lineno, "cap")
        elif head == "gen":
            if prime is None or cap is None:
                raise ParseError("'gen' before 'prime'/'cap'", lineno, 1)
            gens.append(_parse_gen(line, lineno, prime, cap, {g.name for g in gens}))
        elif head == "rel":
            rel_lines.append((lineno, line[indent + 3:], indent + 3))
        elif head in ("Q", "alias", "chern", "n1"):
            post_lines.append((lineno, words[:1] + [line, indent]))
        else:
            raise ParseError(f"unknown statement {head!r}", lineno, indent + 1)

    if prime is None or cap is None or not gens:
        raise ParseError("file must declare prime, cap and at least one generator", 1, 1)

    free = GradedPresentation(prime, gens, cap)
    names = {g.name: free.gen(g.name) for g in gens}
    relations = []
    for lineno, expr, col0 in rel_lines:
        if not expr.strip():
            raise ParseError("empty relation", lineno, 1)
        e = parse_expression(free, names, expr, lineno, col0)
        if e.is_zero():
            raise ParseError("relation is zero", lineno, 1)
        if not e.is_homogeneous():
            raise ParseError("relation is not homogeneous", lineno, 1)
        relations.append(e)
    pres = free.quotient(relations) if relations else free
    names = {g.name: pres.gen(g.name) for g in gens}

    out = PresentationFile(presentation=pres)
    for lineno, (head, line, indent) in post_lines:
        scope = {**names, **out.aliases}
        if head == "Q":
            m = re.match(rf"\s*Q\s+(\d+)\s+({_NAME})\s*=\s*(.*)$", line)
            if not m:
                raise ParseError("expected 'Q I NAME = EXPR'", lineno, indent + 1)
            idx, gname, expr = int(m.group(1)), m.group(2), m.group(3)
            if gname not in names:
                raise ParseError(f"unknown generator {gname!r}", lineno, m.start(2) + 1)
            out.q_table[(idx, gname)] = parse_expression(pres, scope, expr, lineno, m.start(3))
            out.max_q_index = max(out.max_q_index, idx)
        else:
            m = re.match(rf"\s*{head}\s+({_NAME})\s*=\s*(.*)$", line)
            if not m:
                raise ParseError(f"expected '{head} NAME = EXPR'", lineno, indent + 1)
            name, expr = m.group(1), m.group(2)
            if head == "alias" and name in names:
                raise ParseError(f"alias {name} would shadow the generator {name}", lineno,
                                 m.start(1) + 1)
            value = parse_expression(pres, scope, expr, lineno, m.start(2))
            if head != "alias" and not value.is_homogeneous():
                what = "chern flag" if head == "chern" else "n1 class"
                raise ParseError(f"{what} {name} is not homogeneous", lineno, 1)
            {"alias": out.aliases, "chern": out.chern, "n1": out.n1}[head][name] = value
    return out


def _int_field(words, i, lineno, what) -> int:
    # isdecimal, not isdigit: int() refuses superscript digits such as '²'
    if len(words) <= i or not words[i].isdecimal():
        raise ParseError(f"expected integer after '{what}'", lineno, 1)
    return int(words[i])


def _parse_gen(line, lineno, prime, cap, taken) -> Generator:
    """A ``gen`` line; a malformed line is refused at column 1, a bad name,
    degree or parity at its own column."""
    words = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
    if len(words) < 3 or not words[2][0].isdecimal():
        raise ParseError("expected 'gen NAME DEGREE [even|odd] [weight W]'", lineno, 1)
    (name, name_col), (degree, degree_col) = words[1], words[2]
    degree = int(degree)
    if not re.fullmatch(_NAME, name):
        raise ParseError(f"generator name {name!r} is not an identifier", lineno, name_col)
    if name in taken:
        raise ParseError(f"duplicate generator {name!r}", lineno, name_col)
    if degree < 1:
        raise ParseError(f"generator {name}: degree must be >= 1", lineno, degree_col)
    if degree > cap:
        raise ParseError(f"generator {name}: degree {degree} above the cap {cap}", lineno,
                         degree_col)
    parity = None
    weight = None
    rest = words[3:]
    while rest:
        w, col = rest.pop(0)
        if w in ("even", "odd"):
            parity = w
            try:
                Generator(name, degree, parity).resolved_parity(prime)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, col) from None
        elif w == "weight":
            if not rest or not re.fullmatch(r"-?\d+", rest[0][0]):
                raise ParseError("expected integer after 'weight'", lineno, 1)
            weight = int(rest.pop(0)[0])
        else:
            raise ParseError(f"unknown generator attribute {w!r}", lineno, col)
    return Generator(name, degree, parity, weight)


def render_presentation(
    pres: GradedPresentation,
    q_table: dict | None = None,
    aliases: dict | None = None,
    chern: dict | None = None,
    n1: dict | None = None,
) -> str:
    """Canonical text form (parse -> render is the identity up to layout);
    also the provenance hash input for scenario reports."""
    lines = [f"prime {pres.prime}", f"cap {pres.degree_cap}"]
    for g in pres.generators:
        bits = [f"gen {g.name} {g.degree}"]
        if pres.prime != 2:
            bits.append(g.resolved_parity(pres.prime))
        if g.weight is not None:
            bits.append(f"weight {g.weight}")
        lines.append(" ".join(bits))
    for r in pres.relations:
        lines.append(f"rel {r}")
    for name, value in sorted((aliases or {}).items()):
        lines.append(f"alias {name} = {value}")
    gen_order = {g.name: i for i, g in enumerate(pres.generators)}
    for (i, gname) in sorted((q_table or {}), key=lambda k: (k[0], gen_order.get(k[1], 0))):
        lines.append(f"Q {i} {gname} = {q_table[(i, gname)]}")
    for name, value in sorted((chern or {}).items()):
        lines.append(f"chern {name} = {value}")
    for name, value in sorted((n1 or {}).items()):
        lines.append(f"n1 {name} = {value}")
    return "\n".join(lines) + "\n"
